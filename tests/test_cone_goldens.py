"""Byte-level pins of the cone stage on every registered circuit.

For each registered circuit's top-level clustering, one sha256 covers
the order of :func:`~repro.core.input_cones` (ties included) and the
assignment :func:`~repro.core.cone_partition` makes at every k in
:data:`KS` and seed in :data:`SEEDS` — or the error's text where k
exceeds the vertex count.  The digests were computed with one BFS per
input root and a NumPy ``argmin`` per vertex, so they hold any faster
cone stage to exactly that order and those assignments.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits import CIRCUITS, load_circuit
from repro.core import cone_partition, input_cones
from repro.errors import PartitionError
from repro.hypergraph import Clustering

KS = (2, 3, 4, 8)
SEEDS = (0, 1)

GOLDEN_CONES = {
    "adder16": "761f996a61cb7a7da1a608797d3bb7eab06c130f056928593f1c6ba30d3c5dff",
    "adder8": "ae8f116f9e5b322fba1ce87f6052140feb168eb891d461d689a6daade1724aaf",
    "counter8": "2c2f70001d4128b600554fe6610bd8d990f87f9ce23c847410315cb18e8b1bcb",
    "cpu-test": "62aaaa7393aff37a90413d5587e254933bf4ece4da3cf7e7ff61ecc1f04884d0",
    "cpu8": "5b8808f39d0bb7c242e56a02d1ebf3b984655c3532f54ea5537728c8fa1a295c",
    "lfsr16": "f2cac788a01ded1b9ea790aae64746f406f1d2a61863f3c9091258c2634c9824",
    "memctrl-bench": "7141db2282d400cbf7f4bc4615217bc77b76b3826a1fb653c2437cc8966f13b2",
    "memctrl-test": "251cc869482b6bf0c7240dae313280eba26a932924e720d04f69aa74ee0595d5",
    "mesh3x3": "0bd5d2305bacb6c311162b1ab4611f34701ce53dfabc6ace287201c3c377bb1d",
    "mesh4x4": "5bb581173cb7176da05d2f0bc887e787e1bbf1139ba5cf649dc295ed7c272b17",
    "mul4": "fdb87583a066fad559f1c0a5fb1667d8f0cbfc4e2b72f1faf6caac2d355efc0b",
    "mul6": "2af902a92ba08164dd3e9e1367b43b1469c7f88187090c0b30c90c9ec9867472",
    "noc-bench": "f02252b1a9073a6c89c7e9dfdd7a28db84121fd3243ca523691b7cc4d057faec",
    "noc-test": "3ed78b3a5b93dde0d5a922d6881b9b8dfd23e350370d8393801cfdad20991b61",
    "pipeline4": "4ca4121528390eddd356288b845f2416694363298193420854554de796cd8f99",
    "pipeline8": "93248a4c2ae3c613c8c06ab23ae13901c3fe07f40a5510b81e20bb911e0a5be7",
    "randlogic": "8455ad6d664e010eefdb70f4b90f79de299e039a44934e6ff427a14e3cc2d03a",
    "viterbi-bench": "32009dd60e40fa1965cec62f30ce926f2d2d5f8e781291a6f510bf2e6445831b",
    "viterbi-paper": "c8b805ca0cd18b722b31e10d91b125206276d33d1bfa8aa66a7ee59fc0ec20a2",
    "viterbi-paper-single": "28608908c1ce229f9e3db893dc84c6b939867daf7308fe083fe9223357d5e209",
    "viterbi-single": "32009dd60e40fa1965cec62f30ce926f2d2d5f8e781291a6f510bf2e6445831b",
    "viterbi-test": "8aba618276b7c861334ac441a70d987ba12324d5d1d61ca8542361f5da4750a9",
}


def cone_digest(clustering: Clustering) -> str:
    doc: list = [input_cones(clustering)]
    for k in KS:
        for seed in SEEDS:
            try:
                doc.append(cone_partition(clustering, k, seed=seed).part.tolist())
            except PartitionError as exc:
                doc.append(str(exc))
    return hashlib.sha256(repr(doc).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_cone_order_and_assignments_are_pinned(name):
    clustering = Clustering.top_level(load_circuit(name))
    assert cone_digest(clustering) == GOLDEN_CONES[name]
