"""Partition persistence: save a computed partition, reuse it later.

Pre-simulation selects one partition that the (much longer) full run
then uses — in practice those are separate invocations, possibly on
separate days.  This module serializes a
:class:`~repro.core.multiway.MultiwayResult` to a JSON document keyed
by *gate names* (stable across re-elaboration of the same source,
unlike dense ids) and re-binds it to a netlist on load, with integrity
checks.

Format (version 1)::

    {
      "format": "repro-partition",
      "version": 1,
      "k": 4, "b": 7.5,
      "cut_size": 91, "balanced": true,
      "top": "viterbi_top", "num_gates": 4322,
      "clusters": [
        {"name": "ch0_smu0", "partition": 2,
         "gates": ["ch0_smu0.col0._g0", ...]},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import PartitionError
from ..hypergraph.build import Clustering
from ..hypergraph.partition_state import PartitionState
from ..verilog.netlist import Netlist
from .balance import BalanceConstraint
from .multiway import MultiwayResult

__all__ = ["save_partition", "load_partition", "dumps_partition", "loads_partition"]

_FORMAT = "repro-partition"
_VERSION = 1


def dumps_partition(result: MultiwayResult) -> str:
    """Serialize a partition to a JSON string."""
    clustering = result.clustering
    netlist = clustering.netlist
    gate_names = netlist.gate_names
    clusters = [
        {
            "name": name,
            "partition": int(part),
            "gates": [gate_names[g] for g in gate_ids.tolist()],
        }
        for name, part, gate_ids in zip(
            clustering.names, result.assignment, clustering.gate_clusters()
        )
    ]
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "k": result.k,
        "b": result.b,
        "cut_size": result.cut_size,
        "balanced": result.balanced,
        "top": netlist.top,
        "num_gates": netlist.num_gates,
        "clusters": clusters,
    }
    return json.dumps(doc, indent=1)


def save_partition(result: MultiwayResult, path: str | Path) -> None:
    """Write a partition JSON file."""
    Path(path).write_text(dumps_partition(result))


def _field(obj: dict, key: str, kind: type | tuple[type, ...], where: str = ""):
    """``obj[key]``, required to be a ``kind`` (a JSON boolean is no
    number); :class:`PartitionError` naming the field otherwise."""
    value = obj.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise PartitionError(
            f"partition file: {where}{key!r} must be "
            f"{' or '.join(t.__name__ for t in kinds)}, got {value!r}"
        )
    return value


def loads_partition(text: str, netlist: Netlist) -> MultiwayResult:
    """Re-bind a serialized partition to an elaborated netlist.

    The netlist must contain exactly the gates the file names (same
    source re-elaborated); mismatches raise :class:`PartitionError`
    with the offending name, a missing or mistyped field one naming the
    field.  ``cut_size``, the part weights and ``balanced`` are
    recomputed from the assignment, never copied from the file.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PartitionError(f"not a partition file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise PartitionError("not a repro-partition document")
    if doc.get("version") != _VERSION:
        raise PartitionError(
            f"unsupported partition format version {doc.get('version')!r}"
        )
    if doc.get("num_gates") != netlist.num_gates:
        raise PartitionError(
            f"partition was computed for {doc.get('num_gates')} gates; "
            f"this netlist has {netlist.num_gates}"
        )
    k = _field(doc, "k", int)
    b = float(_field(doc, "b", (int, float)))
    if k < 1 or b < 0:
        raise PartitionError(
            f"partition file: 'k' must be >= 1 and 'b' >= 0, got {k} and {b}"
        )
    by_name = {name: gid for gid, name in enumerate(netlist.gate_names)}
    names: list[str] = []
    assignment: list[int] = []
    gate_cluster = [-1] * netlist.num_gates
    for idx, entry in enumerate(_field(doc, "clusters", list)):
        where = f"clusters[{idx}]."
        if not isinstance(entry, dict):
            raise PartitionError(f"partition file: clusters[{idx}] must be an object")
        cluster_name = _field(entry, "name", str, where)
        gates = _field(entry, "gates", list, where)
        if not gates:
            raise PartitionError(f"partition file: {where}'gates' names no gate")
        for name in gates:
            gid = by_name.get(name) if isinstance(name, str) else None
            if gid is None:
                raise PartitionError(f"netlist has no gate named {name!r}")
            if gate_cluster[gid] >= 0:
                raise PartitionError(f"gate {name!r} appears in two clusters")
            gate_cluster[gid] = idx
        part = _field(entry, "partition", int, where)
        if not (0 <= part < k):
            raise PartitionError(
                f"cluster {cluster_name!r} assigned to partition {part} "
                f"outside [0, {k})"
            )
        names.append(cluster_name)
        assignment.append(part)
    covered = netlist.num_gates - gate_cluster.count(-1)
    if covered != netlist.num_gates:
        raise PartitionError(
            f"partition covers {covered} of {netlist.num_gates} gates"
        )
    clustering = Clustering(netlist, np.array(gate_cluster, dtype=np.int64), names)
    state = PartitionState(clustering.hypergraph(), k, assignment)
    return MultiwayResult(
        clustering=clustering,
        assignment=np.asarray(assignment, dtype=np.int64),
        k=k,
        b=b,
        cut_size=state.cut_size,
        part_weights=state.part_weight.copy(),
        balanced=BalanceConstraint(k, b).satisfied(state.part_weight),
        flatten_steps=0,
        fm_rounds=0,
        history=[
            f"loaded from partition file (saved cut {doc.get('cut_size')})"
        ],
    )


def load_partition(path: str | Path, netlist: Netlist) -> MultiwayResult:
    """Read a partition JSON file and bind it to ``netlist``."""
    return loads_partition(Path(path).read_text(), netlist)
