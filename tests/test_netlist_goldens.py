"""Byte-level pins of the optimizer, the netlist writer and the vector
schedule on every registered circuit.

The digests were computed before the netlist lost its per-gate records
and list views, from the columns alone (:func:`column_digest`), so they
hold the column-based optimizer, writer and ``combinational_depth`` to
exactly what the object-based ones produced.  ``viterbi-paper-single``
was registered later; its rows were computed when it was added.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits import CIRCUITS, load_circuit
from repro.circuits.vectors import natural_schedule
from repro.verilog import optimize_netlist, write_netlist_verilog
from tests.netlist_rows import column_digest

GOLDEN_OPTIMIZED = {
    "adder16": "d4994d45b1e8895249dcbd0fb4c43f762d96bba28c6703dbde9d77dccf658dee",
    "adder8": "9bc2f9f8cddb07359aacc064441b63dd393acb5455c7c484524d282a51845171",
    "counter8": "6bfd2dd1c87df82c34069199d8696afb3e6e2c173664c944897d6f1ef1ad6eae",
    "cpu-test": "78c8c7ea729ecc41993b03c5432945b510aba9246c1be150d1e7b0f6a3094968",
    "cpu8": "1defc783912a5c7cbce44fbc6d9e4f434cbc76c53386379a43b8c7abb7587469",
    "lfsr16": "18efcf9b6c949876ca9b1be43da3c8739b05cdbcb6aaa53b3c5e942e7bebbe2d",
    "memctrl-bench": "00dc088ab864fccd16801adb7c3268c8698142c43b7c2ec652a66621034b4b7b",
    "memctrl-test": "5430c500ee61c0916f6c7784396c49b307ce63bfcfd786629148943bc0c855a0",
    "mesh3x3": "c17c70eb06e22a56f83a07dc81d6844d25b8c4e1fe4b6db81bae8b8cb532d6b2",
    "mesh4x4": "adb14795371318897ce4efe6a94e77d179d6215c89ca9a241a0799795f9e37df",
    "mul4": "a043250a8e54c28f1e40c076ccd17ae6b19387df5626a3acad6973f654b9d7c4",
    "mul6": "1d2c2f24a2ae70060e4d2372c798af27ed1f5177e872515738ce2c1548c27828",
    "noc-bench": "eb032fac901814fcdc56a94e4d0e2bd45838b4287c1b2967f3103819b384e8e6",
    "noc-test": "f3da392c44df7761f8c34bc57aacdab2257a2a73748e0957824dfd79a053336d",
    "pipeline4": "d8b13857c30ce8f01664343f1bcf88a6414c7f186d6be81a498f93ff05f642f7",
    "pipeline8": "41399a267ff60fb0da6b58d66ff2d258b5bcd259168e28cd6482b9f5013ddaee",
    "randlogic": "d50fb4b405b84ae9494c5df2b181dc9fc3c517007f30be0c9a95fb93be1f70ee",
    "viterbi-bench": "517d0af47ccd7c8205d9ddae2665edf681db758fe3047effe6dade58f0aac052",
    "viterbi-paper": "d44cca8cee9a9271320b4336663a94fa539d38e4d13e3255a308c0211b7f4cc0",
    "viterbi-paper-single": "806e4490f9c0c61b93df105435de80dd275bef36cd770f07e1b5afcfc629a280",
    "viterbi-single": "517d0af47ccd7c8205d9ddae2665edf681db758fe3047effe6dade58f0aac052",
    "viterbi-test": "0879afc37f7f71ee431e7794b91a442c86ee3d8aa2a4339fd99211b2b99052b8",
}

GOLDEN_WRITTEN = {
    "adder16": "5c8d99e51453ee5fef1253078fe543b5145cdfa32a315e2158f7d6624c5c865f",
    "adder8": "3ec01c9efcc995df43466a12c8ec37a10e8f213a475a4567a71e3ca6fec20b0b",
    "counter8": "cf92d24036fe4b3816c1646c8e824c68267886f433b96e8de1758535967e05e6",
    "cpu-test": "c63e00398fa5aec78a7292eda73a158f69187fe0c67796d102328a0a37b7c32a",
    "cpu8": "b0e4231eccc0036e6ee2b4d3262be0c90b5c6b2ae03c79c1b1c2a9421ec5ad40",
    "lfsr16": "1712ae38c252009fb767e41fe382484269fd3ec1ce471f2f3ca6f3157fd664ae",
    "memctrl-bench": "a5b236789d051413dee0c099a98094d7f11d3af97054a7817c2e21d32e3de08d",
    "memctrl-test": "19399c04c96ce937f89fa0669c6cc9b80454400045e792be68bfb001b4409af7",
    "mesh3x3": "52b9b5040a2d9639dc1a711a2bd186a867c9de561f6458f75e9b92a87abaae93",
    "mesh4x4": "366137968f559fbed8c1e199657c91e5e9665d1032229f0a9cc60e6e2bb2f703",
    "mul4": "75ec186857e971cd13895edb2f8222e18e87c0fc22ba445608c13de2b3fb0b4b",
    "mul6": "d4f4c15ba4c67ede9f662f3b76c691ff18d007bebc83c61ce63cd348b2404fc3",
    "noc-bench": "b0deb42ef5a367c46439e6c97efc2d42914e29287dd4703d547fb61ab70338af",
    "noc-test": "632afa0165ad6a46b5773f4ea331c053b92ce8070f80d2f1bcda16b1e488b919",
    "pipeline4": "16ccf0ce59d494c1849d8bda9a0a136a05e8886d1d5c4b8360405ef237db6d6f",
    "pipeline8": "5472ddfa2ba86a0a3d6e456a0227c6db63f1ee9a82a777d8c75f4bb5ae2f2055",
    "randlogic": "9604a143385519a472ac907aeb2de86f4b4ac7a23d0beafff8f754383e72cee4",
    "viterbi-bench": "9d2cd8662e06f44279864f4feed9e05d43d3f9c2a4e1ef187cd2b677d3957a5e",
    "viterbi-paper": "4b65c509f540c1b014eb6dcf32705e45146ef6a52df67765b77c544cd5640853",
    "viterbi-paper-single": "a504811d5c73345fa5429381c2ec07eac0eeb312f0a85d6243e38ef4827ba4b4",
    "viterbi-single": "9d2cd8662e06f44279864f4feed9e05d43d3f9c2a4e1ef187cd2b677d3957a5e",
    "viterbi-test": "869d59f0a9fb968d109a89ed005d218d4e2145709d902535b362b4a34fff88c7",
}

GOLDEN_WRITTEN_OPTIMIZED = {
    "adder16": "86b577ebaf9b1d46811187c395654956852884ec6f51041538a5149b06ca3dfb",
    "adder8": "c90f632e5b467287791cb8629360cb3d0b94411c7bc047a6d2a108e9627dd338",
    "counter8": "59a263a19f109fb833ba0bd5402bde48cb5f1a2879a526181a35ee489165ce06",
    "cpu-test": "c94ab1f0c148bf7b4586a3d4c4e80af336e0b5ea9ec054f8f19b74144e59fc6b",
    "cpu8": "e84ae1ba6a8b3549d7c8b23fd35a86d7bf3941113d52af99e6d62a9e4af943c7",
    "lfsr16": "39770e06a807a8ccca8dec19bd6ab7f18b23b1c2f6ac1550f93baadeeef50ee8",
    "memctrl-bench": "8f6e8dd9bdb8fbbbf0aa99979b25d3091decc9c1b751f6187592583626e05bc8",
    "memctrl-test": "8e07505bdc94c60607126b68f13d21dabe062d883c3121ef8069977e20c91bca",
    "mesh3x3": "50fef259c1a677bfe525cbcd391f375d6c4680fe1cf6eaa0ea37f2cab0814134",
    "mesh4x4": "e20531a9cee74ec218c7008b8b2c1aaf2af6244167a901ace617dce970527302",
    "mul4": "f2ae494c06f1cfea0275ad8707cf25aa32ef95f06c7d1d2c03de0b25dc0c5471",
    "mul6": "8c6ca2c9031b5a976e776efb14e71fb4a485d5e871c590653390c9d070efb083",
    "noc-bench": "b5c1dcd8a577455d6cfb3afd0de8f108fa17005268e2bf09191806ddf65a75c6",
    "noc-test": "3d34228e1a9df159752b934e27871e54d4ad7e264a513018a1b6d797293924e8",
    "pipeline4": "29ffe4ef33d5eab557f35d2ebe5348f2200c7bdd0dc4078c0161fe83ed674e53",
    "pipeline8": "a189782f8fa98942282c7c22876cffa2a78f7f41c978a0de1882c47c8334df83",
    "randlogic": "a55d220db484da60a702217e8b0ca1cf0400acc9360db67c829d631408de78ad",
    "viterbi-bench": "7f25aae3e6166640cdd1cb474d521949ba3b44f16796c79b865da1d436a1f8e4",
    "viterbi-paper": "61ad0dae9b41735386575f37810478dee03619e7cc35ebaeddefba9aa4bf12e3",
    "viterbi-paper-single": "14ad4f03964abe28f9f0657c469f5e95c30bcbec039af6cf62c823f6adf14bda",
    "viterbi-single": "7f25aae3e6166640cdd1cb474d521949ba3b44f16796c79b865da1d436a1f8e4",
    "viterbi-test": "57b4d3735244664dd72bedafcb1ad907d3abb0ed816ccf7bab0ae0209fc921d6",
}

GOLDEN_SCHEDULES = {
    "adder16": (76, 38, 57),
    "adder8": (44, 22, 33),
    "counter8": (22, 11, 16),
    "cpu-test": (56, 28, 42),
    "cpu8": (76, 38, 57),
    "lfsr16": (42, 21, 31),
    "memctrl-bench": (54, 27, 40),
    "memctrl-test": (20, 10, 15),
    "mesh3x3": (22, 11, 16),
    "mesh4x4": (22, 11, 16),
    "mul4": (44, 22, 33),
    "mul6": (68, 34, 51),
    "noc-bench": (22, 11, 16),
    "noc-test": (22, 11, 16),
    "pipeline4": (38, 19, 28),
    "pipeline8": (38, 19, 28),
    "randlogic": (40, 20, 30),
    "viterbi-bench": (64, 32, 48),
    "viterbi-paper": (80, 40, 60),
    "viterbi-paper-single": (80, 40, 60),
    "viterbi-single": (64, 32, 48),
    "viterbi-test": (48, 24, 36),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_registered_circuit_is_pinned():
    for golden in (GOLDEN_OPTIMIZED, GOLDEN_WRITTEN, GOLDEN_WRITTEN_OPTIMIZED,
                   GOLDEN_SCHEDULES):
        assert sorted(golden) == sorted(CIRCUITS)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_optimizer_and_writer(name):
    nl = load_circuit(name)
    opt, _ = optimize_netlist(nl)
    assert column_digest(opt) == GOLDEN_OPTIMIZED[name]
    assert _sha(write_netlist_verilog(nl)) == GOLDEN_WRITTEN[name]
    assert _sha(write_netlist_verilog(opt)) == GOLDEN_WRITTEN_OPTIMIZED[name]


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_natural_schedule(name):
    s = natural_schedule(load_circuit(name))
    assert (s.period, s.rise, s.fall) == GOLDEN_SCHEDULES[name]
