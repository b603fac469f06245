"""Byte-identical command outputs, pinned by sha256 digest.

The six golden reports pin only what ``complete`` and ``wcf`` print; these
digests also pin the files the commands write (completed diagrams, SVG and
CSV plots, ``bch`` results) and the defect reports of ``check``, which go
through ``log`` and the rational view of a Lie element.  A change that is
meant to leave the outputs alone must leave every digest here alone.

Each case runs ``wallcross`` in a fresh directory and hashes its exit code,
its stdout and every file it writes.  ``check-completed-<name>`` checks the
diagram that ``complete-<name>`` writes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wallcross import cli

FIXTURES = Path(cli.__file__).parent / "fixtures"
DIAGRAMS = ("pentagon", "rand1", "rand2", "rand3")

# rank 2, fractional matrix and derivation parts on every term, frequencies
# in one open half-plane
BCH_INPUT = {
    "rank": 2,
    "truncation": 4,
    "x": [
        {"m": [1, 0], "t": 1, "matrix": [["1/2", "1"], ["0", "-1/3"]], "derivation": ["0", "2/3"]},
        {"m": [2, 0], "t": 2, "matrix": [["0", "0"], ["5/4", "0"]], "derivation": ["0", "-1"]},
    ],
    "y": [
        {"m": [0, 1], "t": 1, "matrix": [["0", "0"], ["3/2", "1/5"]], "derivation": ["-1/2", "0"]},
        {"m": [1, 1], "t": 1, "matrix": [["0", "-2/7"], ["0", "0"]], "derivation": ["1/4", "-1/4"]},
    ],
}


def _cases():
    for name in DIAGRAMS:
        src = str(FIXTURES / f"{name}.json")
        files = ("out.json", "out.svg", "out.csv")
        yield f"complete-{name}", [
            "complete", src, "--output", files[0], "--emit-svg", files[1], "--emit-csv", files[2],
        ], files
        yield f"check-order3-{name}", ["check", src, "--order", "3"], ()
        yield f"check-completed-{name}", ["check", "completed.json"], ()
    for name in ("example1", "example2"):
        yield f"wcf-{name}", ["wcf", str(FIXTURES / f"{name}.json"), "--output", "out.json"], (
            "out.json",
        )
    yield "bch-rank2-fractional", ["bch", "bch.json", "--output", "out.json"], ("out.json",)


CASES = {case: (argv, files) for case, argv, files in _cases()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: str, workdir: Path, capsys) -> dict[str, str]:
    """Run one case in ``workdir``; the digests of its exit code, stdout and files."""
    argv, files = CASES[case]
    (workdir / "bch.json").write_text(json.dumps(BCH_INPUT))
    if case.startswith("check-completed-"):
        name = case.removeprefix("check-completed-")
        src = str(FIXTURES / f"{name}.json")
        assert cli.main(["complete", src, "--output", "completed.json"]) == 0
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr().out
    digests = {"exit": str(code), "stdout": _sha(out.encode())}
    for f in files:
        digests[f] = _sha((workdir / f).read_bytes())
    return digests


# taken before the Lie elements moved into the series ring; the out.csv digests
# since the CSV summary field is quoted
GOLDEN = {
    "bch-rank2-fractional": {
        "exit": "0",
        "stdout": "fe29b07a8491bff5654f694b171449fdfc51e4c9d1c6a3f38d01f64a9717999e",
        "out.json": "fe29b07a8491bff5654f694b171449fdfc51e4c9d1c6a3f38d01f64a9717999e",
    },
    "check-completed-pentagon": {
        "exit": "0",
        "stdout": "9896bc5764a60dc320d3075636a503cd21e1d8128293dd95534ab890295ed795",
    },
    "check-completed-rand1": {
        "exit": "0",
        "stdout": "9896bc5764a60dc320d3075636a503cd21e1d8128293dd95534ab890295ed795",
    },
    "check-completed-rand2": {
        "exit": "0",
        "stdout": "9896bc5764a60dc320d3075636a503cd21e1d8128293dd95534ab890295ed795",
    },
    "check-completed-rand3": {
        "exit": "0",
        "stdout": "9896bc5764a60dc320d3075636a503cd21e1d8128293dd95534ab890295ed795",
    },
    "check-order3-pentagon": {
        "exit": "1",
        "stdout": "495378b83b726f59e200bc866f8aa44907a31c0a7aeb7391de91e7299a0821da",
    },
    "check-order3-rand1": {
        "exit": "1",
        "stdout": "05c0635e688b8ea27a0bff526fbe46043150bc715670b6153e213d22f1347627",
    },
    "check-order3-rand2": {
        "exit": "1",
        "stdout": "a4687b1f0b50321e3cee66fd51e008996e4832d6c3111eeccd89967afcec39a6",
    },
    "check-order3-rand3": {
        "exit": "1",
        "stdout": "580397e3871be2374a22de6187ee84131ccdc0fa329ff2dea35c4f34e828b48a",
    },
    "complete-pentagon": {
        "exit": "0",
        "stdout": "cb3cac30b1d498d8d4776a6c16a6bffa91915f7619b409eecab4e8578fc85e59",
        "out.json": "1fc7ce61c61fb091861d215b1d8fc492356324da1256c37e40e76f2b4de80efe",
        "out.svg": "b91ba0953ddf7086a5c73dce07be11595ecdd99a12ea2f977c523d5b8261a8d9",
        "out.csv": "18e6f203fdbc0c6a027c6789e1544556084281ef78d2c36b7cb1c299e4f2cc4b",
    },
    "complete-rand1": {
        "exit": "0",
        "stdout": "91688727d70f097c8823d080cebf103e1027cd451f8ae8f17dc615579a79326c",
        "out.json": "c0ba8d3cb0a9be9928fb8f997ec5e76b4f1c4380c10e01926227b38f20842dee",
        "out.svg": "72c175a65d6d6e502a8d281cea6c546c3c6d71a55dab22a6ba8806b839f2ff5d",
        "out.csv": "0c247e192535ce9421865282cdd2cb35e6025beebd999d0fa4abcc3579890616",
    },
    "complete-rand2": {
        "exit": "0",
        "stdout": "84208a382af22aea54e6e492960431b589c3d340f6e1b150ca1571e7581f6c64",
        "out.json": "9ae3fadedd0fc1d5e904db305a5892f39ceb1e045a0213ccf320e0404bfa2362",
        "out.svg": "b420edb95eebce810c7592930fe7fb30805ca4208b0c6c9806df40f7ad509658",
        "out.csv": "43d6fdcdb017c80cdbd8453fcff81dabcecba49839f8f68f2000d3e18520680c",
    },
    "complete-rand3": {
        "exit": "0",
        "stdout": "6aa102d6415f59ee7220081e9b769314ea810674f079ecc836e4ec137010d2ed",
        "out.json": "d6304fd12cb1020df768be86024a35819b45915008a229b4f4e08516f0fe3d2e",
        "out.svg": "cfde4985cefb6f4859dfe1f6c7dc56832aa763b1f4195a4ede2de829444183e3",
        "out.csv": "552ecf09e12f353a99494a1ff82a6c65dbede082b7a2723c2e418b2e4a42bcee",
    },
    "wcf-example1": {
        "exit": "0",
        "stdout": "01aa5350bae45550b7962e4aaa4ecd621a3c798d03425b81fbbcc1af11f58faa",
        "out.json": "71c95c653acd2df955ae465379547d600bd6dbff36561a60e2f0fbec1e4a8ca5",
    },
    "wcf-example2": {
        "exit": "0",
        "stdout": "62a4e1b4cfdc118d08776197e5dd194c0d8a75863d639a59654d449ec7904922",
        "out.json": "e5e15d92de73f8413d24ac7bd703601cdac4f3523fd8b482424589bf4162d4eb",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_outputs_match_their_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_case(case, tmp_path, capsys) == GOLDEN[case]
