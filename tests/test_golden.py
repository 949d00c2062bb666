"""Golden outputs: SHA-256 digests of CLI reports and captures.

These pin every simulated byte the CLI writes at its default seed. A
change that is meant to be output-neutral (speed work, refactors) must
leave them untouched. A change that deliberately alters RNG consumption
or the wire format updates the digests here and names the change in
CHANGES.md.
"""

import hashlib
from importlib import resources

import pytest

from fopsim.cli import main

# "*.fopcap" is one digest over every capture the command writes, taken
# in file-name order.
GOLDEN = {
    ("table4",): {
        "report.json": "549e6fd08e1bf79040687ec0cd7efa04c10f45f84d8b877292f72d904360c6ae",
    },
    ("privacy",): {
        "report.json": "bde82cfe9afaf1dce962169253a23220dd74c1f7b134a89066aee0255d721fc2",
        "*.fopcap": "bd926b71e2754d2a32d9c1f71d7f8ba66fdd655873395644a16f5ff3513a2205",
    },
    ("--seed", "5", "privacy"): {
        "report.json": "903995c119fd1a13d57d5dd7bfd1315ff96b3223343a2d6bc04169ff69222372",
        "*.fopcap": "9d6a0fe8109f9b5b1173f3b965ec5940e39f3778e98bb4a1a1326070924c05ef",
    },
    ("table5",): {
        "report.json": "eef053b0bd1652b0a4f37b90068588616dd68a3e28cafe54260065bce5cdbcaa",
    },
    ("table5", "--engine", "packet", "--trials", "30"): {
        "report.json": "112238a6ccdf5fced56da0c4216456bb55750a98694eaf3c4f547ef1cca625db",
    },
    ("run", "nat_rotation_tfo.json"): {
        "report.json": "92aff1d7733ea324fbda390113375af9ee5de0f3b455274da561ab97276fe0de",
        "capture.fopcap": "6b9bdba97eab855af15da0595290cb787bd5882f33787761c1867efc695f68bf",
    },
    ("run", "nat_rotation_fop.json"): {
        "report.json": "4bd4b1a9be486ed5c5207218019ef9113602c55f6e091d5ae3576551acff07f0",
        "capture.fopcap": "03d98c20841d3deeec4b7b3f894d19b34abefb641cea9ae420aecfe99501d963",
    },
    ("run", "shared_nat_two_clients.json"): {
        "report.json": "cc00468b0f32705bc8a462f5e5affc43671873fdba5dea040eb3f992a717112f",
        "capture.fopcap": "137871c364067b2de6dd210af9a7c004f847d2b94a8e2bf55ab836c067225f0f",
    },
}


def _argv(args):
    if args[0] == "run":
        return ["run", str(resources.files("fopsim").joinpath(
            f"configs/{args[1]}"))]
    return list(args)


def _digest(outdir, name):
    h = hashlib.sha256()
    for path in sorted(outdir.glob(name)):
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("args", list(GOLDEN), ids=lambda a: "-".join(a))
def test_output_digests(tmp_path, args):
    assert main(["--out", str(tmp_path), *_argv(args)]) == 0
    digests = {name: _digest(tmp_path, name) for name in GOLDEN[args]}
    assert digests == GOLDEN[args]
