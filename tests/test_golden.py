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
        "report.json": "427f65033a216e71fea85023bd241c7b3645ab51a410d454d0e8772032395a22",
        "*.fopcap": "04d0952b10ee22866b40a67bdedada1831f24ef55a329de84f2a789a4d8de857",
    },
    ("--seed", "5", "privacy"): {
        "report.json": "7f751d30d890478b63ccfe4c6eab507f477c46162f6761e7f981309cacf37447",
        "*.fopcap": "713ceaebdbbe99cb12700c372fd4d9c4134cb80a43def53571b5497044de8c78",
    },
    ("table5",): {
        "report.json": "57f5444af119edc22abf5baad01c8cef07f6e4697d13bee914766cad88317896",
    },
    ("table5", "--engine", "packet", "--trials", "30"): {
        "report.json": "1ffa63de944fcedd7c5066ef8ef378e69f83eb0a6e947da63a54bfcc154a12ca",
    },
    ("run", "nat_rotation_tfo.json"): {
        "report.json": "7e5ea7abaa30505ab8cb309d8f5798a33f55dedd67486468a55b089045e9226d",
        "capture.fopcap": "207de024f14a17435d11a2f60192977a91651713ffbaff771a5929d5e60f2e0c",
    },
    ("run", "nat_rotation_fop.json"): {
        "report.json": "34cb8748f41e47e0d78b90422073212cd4499065ae212e137ddaabed249394c0",
        "capture.fopcap": "e59b604875122cad64f08165406e7ea25d61caa921ff8252a16cbe2b2974a24a",
    },
    ("run", "shared_nat_two_clients.json"): {
        "report.json": "b86869955a49c9e775b9edcf4f33e2279c2e3da17d3b72a4da15fa54b44987c1",
        "capture.fopcap": "764f011bbd5ed8c3f5f573c70ae3f443fb40daec8045395ece6eda3c9454be1e",
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
