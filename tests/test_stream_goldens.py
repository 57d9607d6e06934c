"""Byte-level pins of the streamed circuits and the generated Verilog.

Every :data:`~repro.circuits.STREAM_CIRCUITS` entry is pinned column by
column: a sha256 over each structural array of its
:class:`~repro.verilog.netlist.Netlist` (dtype and shape included),
plus its ``gate_types`` table and ``num_nets``.  Net ids, gate order, type-code order and index widths
are therefore all fixed, not just equal up to a bijection as
``tests/test_stream_circuits.py`` checks.  ``viterbi-xl`` (~1.2 M
gates) is pinned nowhere else.

Every :data:`~repro.circuits.CIRCUITS` entry's Verilog text is pinned
by one sha256, so the generators' text stays byte-identical too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuits import (
    CIRCUITS,
    STREAM_CIRCUITS,
    circuit_source,
    load_stream_circuit,
)

#: every structural array column of a Netlist (``net_driver`` is
#: derived by ``validate()`` but pinned all the same)
COLUMNS = (
    "gate_code", "gate_output", "pin_ptr", "pin_net",
    "inputs", "outputs", "net_driver",
)


def array_digest(a: np.ndarray) -> str:
    """sha256 over an array's dtype, shape and bytes."""
    h = hashlib.sha256(a.dtype.str.encode())
    h.update(repr(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


GOLDEN_STREAM = {
    "memctrl-bench": {
        "gate_types": ("dffr", "not", "and", "buf", "or", "xnor"),
        "num_nets": 1314,
        "gate_code": "09e81eb9cb33770e77789d5bad48d2a7d6289bb6e67b805887085166a909136d",
        "gate_output": "e39258e7e1d1c6ce635a1e9cfe18d7a249324578816076bffa80b1a7bf816eca",
        "pin_ptr": "aa332f6fe0f4bc2afad5d947ab07a3dc032f4d5ec829e555d9ee219227ce8f98",
        "pin_net": "50056fa22899281a571d6cdbaa2d4ecc0afc68d6377485ff14fcb461f432a061",
        "inputs": "81f4c793d38314cf5fdf8e0461e29da6adabf2f66e77167463840b1c111084c4",
        "outputs": "7124bd145a53c0b7d223ea18ae0542e0c4fb71c52ca998325097a95623b9689d",
        "net_driver": "2c69cef088d6c41db3ea3b16fbf5d2135931071987cb84fb5717e42f14a04f6b",
    },
    "memctrl-scale": {
        "gate_types": ("dffr", "not", "and", "buf", "or", "xnor"),
        "num_nets": 124050,
        "gate_code": "c801a3712d48bf3434619daf4ea0b09a236c97c271562969f3271a98cca7d6f8",
        "gate_output": "d665651c781ba273fab8b35eaa96cd36330f24df501d100e3779e60082b6ed30",
        "pin_ptr": "b14ea274ef3e9bb4e370ea7a2a3a9ca92bea40ea516b37f11d136182af719e0b",
        "pin_net": "0f6573110218e99d001737437af49c46ae7ff77f82b64d4e97255797a3115d00",
        "inputs": "96beff391a6287c8693c0e4a21b65d0884af133c2bcabc9ed204042a31bda554",
        "outputs": "677bbc165b576f6e10d166ba7b10af1d796f2e959ec26bbc9a4f3c51cee743a7",
        "net_driver": "d4c0954175ee0297e3ba32183bc6249de5b513823b30af06ca7b7fe2a60e3386",
    },
    "memctrl-test": {
        "gate_types": ("dffr", "not", "buf", "or", "and", "xnor"),
        "num_nets": 96,
        "gate_code": "4c8bfa52263710b536a4e78b425922b4cb4c58a24552afa9fce904974da9f0aa",
        "gate_output": "57857f8c4e076b2abe3af773cd7da4ec5f9ee6a0c776fe48e91748d2fe3f997c",
        "pin_ptr": "b3b39c2a6a518c8be6ba1c14f5658b52ba9ada7a135e6a8d5c29f833e9b8a6d7",
        "pin_net": "70cc15fb828d6c2f06601f8ac3b8ed24c07154ac4b76fd013e2d6592ae18d250",
        "inputs": "7ff4c16e3bbbee50315c02e73e773ae6e0b54a0e484dee53ed125facfa420a14",
        "outputs": "854e629d2a277a93b96df8ffe63a1d03bfe5be9e4f31cb23bad79b3a843a5bf4",
        "net_driver": "b17c15440dad06198d9427d9b48c7819806cb26edb73e8d5f2b9014ef65cc254",
    },
    "noc-bench": {
        "gate_types": ("buf", "dffr", "not", "xor", "and", "or"),
        "num_nets": 5281,
        "gate_code": "b3626042b9bc9e17f7afec9531cdb051c18cfc64dd12be619796e3aeea73c2b7",
        "gate_output": "b1753e510d138ae9275396106ca0f5e67db7207d870d6ed950ba16e3d711f921",
        "pin_ptr": "877550edc03422c4da727428c00903c55e6139f8e9f1ceb918085951bf20b4a0",
        "pin_net": "ddae22e93fa2e497923a978721c972f66308a74aeb406b5e1a355ea4e931215a",
        "inputs": "01b9c91c9abe9a20cda52a34e48605f762b3183f47fe7b6dc57144e827e568c8",
        "outputs": "6197f9e9cd9064b7627b569d7cb2588cd7ffbb58d30a2c6cce4b21c49fbcc596",
        "net_driver": "5bcc72e3ed7f3607818cecc161e993067995e2fbce1b20853ecbfd41381ad476",
    },
    "noc-scale": {
        "gate_types": ("buf", "dffr", "not", "xor", "and", "or"),
        "num_nets": 118786,
        "gate_code": "82cd20d429120d9bd19962f1052630cedd6fa0b11a114d5aba3c5e3f19f085a8",
        "gate_output": "99be588e17a78fd132ad2063d5f0ec4e745a84a2f2cbcdd552f36a6ecdc51d72",
        "pin_ptr": "4b9e4ecb95edd8ebfcfcaf7b0c212f601aee886f7fc93148f228d1cb0171a845",
        "pin_net": "05ce0138040232529cc0302b552ff4f7a28c76ac1ffa545da6fc545ab32e7a64",
        "inputs": "01b9c91c9abe9a20cda52a34e48605f762b3183f47fe7b6dc57144e827e568c8",
        "outputs": "6197f9e9cd9064b7627b569d7cb2588cd7ffbb58d30a2c6cce4b21c49fbcc596",
        "net_driver": "85b8312a97719572e71eba4d93451896c0275e3d7d7f337050d87bbe35caf1dc",
    },
    "noc-test": {
        "gate_types": ("buf", "dffr", "not", "xor", "and", "or"),
        "num_nets": 727,
        "gate_code": "f227eb9ddf7bf64d0344a34cf1841b0f755e854a1248a120ef7460afbf387751",
        "gate_output": "5638ba1351338b8a5c94c2b9e6831c06d167068c0e6042535a0bf92489be51ca",
        "pin_ptr": "0618d29246782679d0d860e1c2ba3b2607fccc7f69b28df9a931f33db749e7d9",
        "pin_net": "2fb39ee51ac84a38ce9299d7496617f0c9acc0dc2f87d2c81ab7562cdf668d34",
        "inputs": "5f8ec0ec9e5b0c769f6c06bdb53198031b2e2537ea62fc4f25a685687616fe30",
        "outputs": "27727618d646a808ddb760e13431768940c1d5d3bb994db91b398c06795c8a5e",
        "net_driver": "069e28529c2e5b709282ad38d57543ef51076f705fe59d728b7da8d524743e83",
    },
    "viterbi-bench": {
        "gate_types": ("buf", "xor", "and", "or", "xnor", "not", "dffr"),
        "num_nets": 4329,
        "gate_code": "745518d2c16e5af849b15d9f727dca0987225f474282dc683e7bfbcaa75ba9f7",
        "gate_output": "1bfbb25576c5b33b238fbbdb5b7ef2aa669b9f5253dc7f189d21e135d0f9fcfe",
        "pin_ptr": "058740e4d552a537235ca5d068c638f494f16fa65fc555c4f52fcd7de88c50d3",
        "pin_net": "b158ef04bfd7c0380b6e3c4db7cb3337de9d969c695bdf8a4e639d571e90bc50",
        "inputs": "e1d7d182ecaeeb37353897a26a2b531a5c46749db80e8ce62513e978d305567f",
        "outputs": "47fa5e4b98b3eceef16fc5c22be8ccc32f1224f73dd0fcb5c40730d1dc28edbf",
        "net_driver": "c824b9dce93e6e25add322157c9692fe9e88fe4a14b3782dc533703715ce5353",
    },
    "viterbi-s100k": {
        "gate_types": ("buf", "xor", "and", "or", "xnor", "not", "dffr"),
        "num_nets": 100013,
        "gate_code": "705eb7e0826b090eb84247a35b84a6b553f9f776a2363d9a056ec3bf22b7f4f9",
        "gate_output": "4cec26a6ca4300ecaa68e54af35a422d600377345cb345489579d4c1058b4bd6",
        "pin_ptr": "0c4451a9f69934b1fbf6cd67efc6aafe4d458967a12c2ed6a54fe918f58daf1b",
        "pin_net": "9d66f003ee8fdd9481385c846e23b1c277dc6331bc2a00d271e44e6b2bff2e10",
        "inputs": "84a2bb7a28aba3486c350862a7b2d8cdc222a246bc58e18db7ffedb6c00d2ec7",
        "outputs": "1b8e2dbaa4c4d2d32ed8d7bb3b3ce3ba47e9181371caf9d2ea82e26604b6596e",
        "net_driver": "6149fc9712ac76e11edd54d986528af1836d6b7f4f85ea85049b2223d62235a3",
    },
    "viterbi-s10k": {
        "gate_types": ("buf", "xor", "and", "or", "xnor", "not", "dffr"),
        "num_nets": 10025,
        "gate_code": "615ebf4c7628b530b76db4d8b9af510532c604015ac3cd6bc58d367d33889d81",
        "gate_output": "f8376bcaec8bc59239a5b886765fb5018f1b18a7d5473ef78840e483eefd9a4d",
        "pin_ptr": "62a23d389d3c1b6a794c61dd9298db9ffd0c667a83d6181e71f1e2306b4d470c",
        "pin_net": "66ee67f24f60eaaf3f2ccf569b1f8b9d630dc1d613d9e703ca29bbeb98c0555e",
        "inputs": "e1d7d182ecaeeb37353897a26a2b531a5c46749db80e8ce62513e978d305567f",
        "outputs": "ab258863f191dfba0409d728a29afd59e3f88334ae1553a113863c7f1a1c55c6",
        "net_driver": "8e9e180cd218391801b766c8cdd7078efd8ae339122e0b0342119cbb8acc84d1",
    },
    "viterbi-test": {
        "gate_types": ("buf", "xor", "and", "or", "xnor", "not", "dffr"),
        "num_nets": 393,
        "gate_code": "959ec08212093ecb465ff7a4ebc1009cc830536f9da3749e119a51c96d317c44",
        "gate_output": "856b64cf3eae01033eebbcb6bef4d7d99129ca63fbbde42841d675d7b4a86d8b",
        "pin_ptr": "4cc66052a7e46ea08bc6984a262c85a3322a049f8649fe05b8b5cc5aaf3e80cd",
        "pin_net": "ecc187ee598da022790e195ebf652cd61eae4901f1f718170e6a38ca995e593b",
        "inputs": "e1d7d182ecaeeb37353897a26a2b531a5c46749db80e8ce62513e978d305567f",
        "outputs": "280b64c5667f075b13616d3cc836de95c7e985eba70e195ff0437a4e7fa35cdc",
        "net_driver": "635f404611d517d07f387dc45e9afd1e8b773c7861f0cfe27a4ba24f6a688933",
    },
    "viterbi-xl": {
        "gate_types": ("buf", "xor", "and", "or", "xnor", "not", "dffr"),
        "num_nets": 1204917,
        "gate_code": "184cb0caa9b50c06b17223b32a523cc44dae12373b98ac13c29c7e3ed1c984dc",
        "gate_output": "83d751d48f70c2d4c5ba9973eb223812b0d8b3c94929aea55ba2261ba1f1d917",
        "pin_ptr": "39f759579fb0344ab02bcc970bea57f0d03a74c7a1b6b4f4753f59561e320390",
        "pin_net": "2dd3f7ed6705ad8ef8cd049395b0190385e954cd801d776b1a488a64266be153",
        "inputs": "0e7fca1b6549a923b8d71780a256b8dacfb9dd2565f45944ba4af8e121c3a924",
        "outputs": "ac524afc53d1f681112c196b87c54f9f3f8d5461fb6a9cdf8001993f08f72b52",
        "net_driver": "26efd9200ed127acd9bd567b371f7845640f4754797bb5a8d71497fa25384667",
    },
}

GOLDEN_SOURCE = {
    "adder16": "22b949d2efc5d2815f6323b91d5497de6399b62b8d848782ad66183321df8954",
    "adder8": "eae2d6fa1aacd9fac4432edcfd6c63706f92f7c40308f079472038d621aefffe",
    "counter8": "e62458d94c1dcdd88df71b70ac003369b16ef9598a3ed21f8962cf4a90a9b119",
    "cpu-test": "a05fcfbe1c0f7200fc34d12b1de662afaff378a1ca48b3b478e05d7bcaa28389",
    "cpu8": "9933398486f90890a34d828ab657783435b9ca7a38ec4e3763f7bfdcbc836440",
    "lfsr16": "aaaad87e9f41337316115b5ccdbc139ff2f674b442f1c8520b72cf669dda88fb",
    "memctrl-bench": "b094f915cc17ef1d51e3a691fda069533609e185df22d26272dab9b4c8c8e044",
    "memctrl-test": "1d90743aabd599ba22e55ffc9f8ef4aed09b3bcbcf6eacb88867bb38c6dc2d16",
    "mesh3x3": "651f4693a4a3d24ee242c0c7591e9bd357d7a3ee253040f822e0393da3c6fe66",
    "mesh4x4": "4896e780aa4bdcb95cbb7afdf0d66a7f5a94de6f1755d7a6c2f168ee3594cc91",
    "mul4": "414ff1c2ddecb1f33641f3e6e6f369567c674f91df56895dee825539e4d534ab",
    "mul6": "f94da32c0cec90685c27840da76dcada7a8bc6e1de53620f118b46053718ceba",
    "noc-bench": "1178d68d95c7e71f9c3ed76c771699e5a22b936544668a86a2466f5a70d7d704",
    "noc-test": "028d41ccd3724a818a78128fda043087b452e079223a44115ac83a44286e9129",
    "pipeline4": "f7b62ae3a7c76b170d4829042f61d0181dc097436ef49a1cf75bb6154987ea25",
    "pipeline8": "cd206d3c156b11d97536496caea4d518e7c3b508b72da4821a1af47ffefe9daa",
    "randlogic": "adc938b3345bf51da31b53f51e90d0b214068a5c9dec60f2352b5bf7f7a00cf8",
    "viterbi-bench": "4fa3cd4ba9594459267b6ffda1b99d24dcd76dbfb3c35daff6c95c98f786a230",
    "viterbi-paper": "68713618eac13bad442e86fee28c26e7cd398ce3edae18fe4c84ac577f301cef",
    "viterbi-paper-single": "f0579cf22f13a62bff2f71ac0692d3b7c844b11b755d4a549832bfa9881c47c3",
    "viterbi-single": "4fa3cd4ba9594459267b6ffda1b99d24dcd76dbfb3c35daff6c95c98f786a230",
    "viterbi-test": "79928d21064b7c0163a142dbb0f7ed7a54bec94907fcd4c12d669f8244a1586d",
}


def test_every_stream_circuit_is_pinned():
    assert sorted(GOLDEN_STREAM) == sorted(STREAM_CIRCUITS)


def test_every_text_circuit_is_pinned():
    assert sorted(GOLDEN_SOURCE) == sorted(CIRCUITS)


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAM))
def test_stream_columns_pinned(name):
    csr = load_stream_circuit(name)
    want = GOLDEN_STREAM[name]
    assert csr.gate_types == want["gate_types"]
    assert csr.num_nets == want["num_nets"]
    got = {c: array_digest(getattr(csr, c)) for c in COLUMNS}
    assert got == {c: want[c] for c in COLUMNS}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCE))
def test_source_text_pinned(name):
    text = circuit_source(name)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SOURCE[name]
