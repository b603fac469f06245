import json
from pathlib import Path

import pytest

from wallcross import cli

FIXTURES = Path(cli.__file__).parent / "fixtures"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convention_audit(capsys):
    code, out, _ = run(capsys, "--convention-audit")
    assert code == 0
    assert "first wall crossed acts last" in out
    assert "dirac pairing: determinant" in out


def test_complete_pentagon_fixture(tmp_path, capsys):
    out_json = tmp_path / "completed.json"
    code, out, _ = run(
        capsys, "complete", str(FIXTURES / "pentagon.json"), "--output", str(out_json)
    )
    assert code == 0
    assert "consistency: PASS" in out
    assert "direction (1,1) [ray]" in out
    data = json.loads(out_json.read_text())
    assert len(data["walls"]) == 3


def test_complete_reports_match_goldens(capsys):
    for name in ("pentagon", "rand1", "rand2", "rand3"):
        golden = (FIXTURES / f"{name}.report.txt").read_text()
        code, out, _ = run(capsys, "complete", str(FIXTURES / f"{name}.json"))
        assert code == 0
        assert out == golden


def test_wcf_reports_match_goldens(capsys):
    for name in ("example1", "example2"):
        golden = (FIXTURES / f"{name}.report.txt").read_text()
        code, out, _ = run(capsys, "wcf", str(FIXTURES / f"{name}.json"))
        assert code == 0
        assert out == golden


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    paths = []
    for i in (1, 2):
        out = tmp_path / f"out{i}.json"
        svg = tmp_path / f"plot{i}.svg"
        csv = tmp_path / f"plot{i}.csv"
        code, _, _ = run(
            capsys,
            "complete",
            str(FIXTURES / "pentagon.json"),
            "--output",
            str(out),
            "--emit-svg",
            str(svg),
            "--emit-csv",
            str(csv),
        )
        assert code == 0
        paths.append((out.read_bytes(), svg.read_bytes(), csv.read_bytes()))
    assert paths[0] == paths[1]


def test_check_exit_codes(tmp_path, capsys):
    # completed pentagon file is consistent; the raw fixture is not
    out_json = tmp_path / "completed.json"
    run(capsys, "complete", str(FIXTURES / "pentagon.json"), "--output", str(out_json))
    code, out, _ = run(capsys, "check", str(out_json))
    assert code == 0 and "consistent" in out
    code, out, _ = run(capsys, "check", str(FIXTURES / "pentagon.json"))
    assert code == 1
    assert "defect at t-degree 2" in out
    assert "frequency (1,1)" in out


def test_check_empty_diagram(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rank": 1, "truncation": 3, "walls": []}))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0


def test_schema_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"rank\": 2}")
    code, _, err = run(capsys, "complete", str(p))
    assert code == 2
    assert "input error" in err
    code, _, err = run(capsys, "complete", str(tmp_path / "missing.json"))
    assert code == 2


def test_order_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCATTER_MAX_ORDER", "6")
    code, _, err = run(capsys, "complete", str(FIXTURES / "pentagon.json"))
    assert code == 2
    assert "SCATTER_MAX_ORDER" in err
    monkeypatch.delenv("SCATTER_MAX_ORDER")
    code, _, _ = run(capsys, "complete", str(FIXTURES / "pentagon.json"))
    assert code == 0


def test_wcf_example1_report_content(capsys):
    code, out, _ = run(capsys, "wcf", str(FIXTURES / "example1.json"))
    assert code == 0
    assert "mu'=-1" in out
    assert "identity: K S = S S' K" in out
    assert "consistency: PASS" in out


def test_bch_command(tmp_path, capsys):
    data = {
        "rank": 2,
        "truncation": 4,
        "x": [{"m": [1, 0], "t": 1, "matrix": [["0", "1"], ["0", "0"]], "derivation": ["0", "0"]}],
        "y": [{"m": [0, 1], "t": 1, "matrix": [["0", "0"], ["1", "0"]], "derivation": ["0", "0"]}],
    }
    p = tmp_path / "bch.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "bch", str(p))
    assert code == 0
    result = json.loads(out)
    assert result["rank"] == 2
    freqs = {tuple(t["m"]) for t in result["result"]}
    assert (1, 1) in freqs  # the nonvanishing commutator term


def test_plot_outputs(tmp_path, capsys):
    svg = tmp_path / "d.svg"
    csv = tmp_path / "d.csv"
    code, _, _ = run(
        capsys, "plot", str(FIXTURES / "pentagon.json"), "--emit-svg", str(svg), "--emit-csv", str(csv)
    )
    assert code == 0
    svg_text = svg.read_text()
    # two lines drawn as four half-segments
    assert svg_text.count("<line ") == 4
    csv_lines = csv.read_text().strip().splitlines()
    assert csv_lines[0] == "dir_x,dir_y,kind,lowest_degree,summary"
    assert len(csv_lines) == 3


def test_plot_completed_pentagon_has_five_segments(tmp_path, capsys):
    out_json = tmp_path / "completed.json"
    run(capsys, "complete", str(FIXTURES / "pentagon.json"), "--output", str(out_json))
    svg = tmp_path / "c.svg"
    code, _, _ = run(capsys, "plot", str(out_json), "--emit-svg", str(svg))
    assert code == 0
    assert svg.read_text().count("<line ") == 5


def test_plot_empty_diagram(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rank": 1, "truncation": 3, "walls": []}))
    csv = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "plot", str(p), "--emit-csv", str(csv))
    assert code == 0
    assert csv.read_text() == "dir_x,dir_y,kind,lowest_degree,summary\n"


def test_demo_runs_and_writes_reports(tmp_path, capsys):
    code, out, _ = run(capsys, "demo", "--outdir", str(tmp_path))
    assert code == 0
    for name in cli.FIXTURES:
        report = tmp_path / f"{name}.report.txt"
        assert report.exists()
        assert report.read_text() == (FIXTURES / f"{name}.report.txt").read_text()


def test_complete_empty_diagram(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rank": 2, "truncation": 4, "walls": []}))
    out = tmp_path / "completed.json"
    code, text, _ = run(capsys, "complete", str(p), "--output", str(out))
    assert code == 0
    assert "consistency: PASS" in text
    assert "new rays: none" in text
    assert json.loads(out.read_text())["walls"] == []


def test_unrecognized_2d_factor_exit_code(tmp_path, capsys):
    # solitons in both directions produce closed-loop (diagonal) corrections,
    # which have no S/K reading: convention-violation exit code
    data = {
        "vacua": ["i", "j"],
        "truncation": 4,
        "factors": [
            {"type": "S", "pair": ["j", "i"], "gamma": [1, 0], "mu": 1},
            {"type": "S", "pair": ["i", "j"], "gamma": [0, 1], "mu": 1},
        ],
    }
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(data))
    code, _, err = run(capsys, "wcf", str(p))
    assert code == 3
    assert "unrecognized 2d factor" in err


def test_order_override_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "complete", str(FIXTURES / "pentagon.json"), "--order", "4")
    assert code == 0
    assert "truncation order: 4" in out
    assert "t^6" not in out


def test_wcf_output_file(tmp_path, capsys):
    out = tmp_path / "completed.json"
    code, _, _ = run(capsys, "wcf", str(FIXTURES / "example1.json"), "--output", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 3
    assert sorted(tuple(w["direction"]) for w in data["walls"]) == [(0, 1), (1, 0), (1, 1)]


def test_complete_two_line_mixed_diagram_report(tmp_path, capsys):
    # the S/K two-line diagram fed directly to complete: the report shows
    # the single inserted ray with its one matrix term
    data = {
        "rank": 3,
        "truncation": 8,
        "walls": [
            {
                "direction": [1, 0],
                "geometry": "line",
                "terms": [
                    {
                        "t": 1,
                        "k": 1,
                        "matrix": [["0", "-1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                        "derivation": "0",
                    }
                ],
            },
            {
                "direction": [0, 1],
                "geometry": "line",
                "terms": [
                    {"t": l, "k": l, "derivation": f"1/{l}" if l > 1 else "1"}
                    for l in range(1, 9)
                ],
            },
        ],
    }
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "complete", str(p))
    assert code == 0
    assert "new rays: 1" in out
    assert "direction (1,1) [ray]" in out
    assert "t^2 * E[1,2] * z^(1,1)" in out
    assert "consistency: PASS" in out


def _fixture_with(name, *edits):
    """A fixture document with ``(*path, key, value)`` edits applied."""
    data = json.loads((FIXTURES / name).read_text())
    for *path, key, value in edits:
        target = data
        for part in path:
            target = target[part]
        target[key] = value
    return data


_OPPOSITE_LINES = ("walls", 1, "direction", [-1, 0])
_OPPOSITE_RAYS = (
    ("walls", 0, "geometry", "ray"),
    ("walls", 1, "geometry", "ray"),
    _OPPOSITE_LINES,
)


@pytest.mark.parametrize(
    "command, data, extra, message",
    [
        pytest.param("wcf", _fixture_with("example1.json", ("twisting", "dirac")), (),
                     "twisting", id="twisting-dirac"),
        pytest.param("wcf", _fixture_with("example1.json", ("twisting", "bogus")), (),
                     "twisting", id="twisting-bogus"),
        pytest.param("wcf", _fixture_with("example1.json", ("twisting", 42)), (),
                     "twisting", id="twisting-number"),
        pytest.param("wcf", _fixture_with("example1.json", ("factors", 0, "mu", "x")), (),
                     "bad mu", id="bps-mu"),
        pytest.param("wcf", _fixture_with("example1.json", ("truncation", "x")), (),
                     "bad truncation", id="bps-truncation"),
        pytest.param("wcf", _fixture_with("example1.json", ("factors", 0, "pair", ["i", "i"])),
                     (), "names one vacuum twice", id="s-pair-equal-vacua"),
        pytest.param("complete", _fixture_with("pentagon.json", ("walls", 0, "terms", 0, "t", "x")),
                     (), "bad t-degree", id="term-t"),
        pytest.param("complete", _fixture_with("pentagon.json", ("rank", 0)), (),
                     "rank must be >= 1", id="rank-zero"),
        pytest.param("complete", _fixture_with("pentagon.json", ("truncation", 0)), (),
                     "order must be >= 1", id="truncation-zero"),
        pytest.param("complete", _fixture_with("pentagon.json", ("walls", 5)), (),
                     "walls must be a list", id="walls-number"),
        pytest.param("complete", _fixture_with("pentagon.json", _OPPOSITE_LINES), (),
                     "same ray", id="opposite-lines-complete"),
        pytest.param("check", _fixture_with("pentagon.json", _OPPOSITE_LINES), (),
                     "same ray", id="opposite-lines-check"),
        pytest.param("complete", _fixture_with("pentagon.json", *_OPPOSITE_RAYS), (),
                     "parallel initial walls", id="opposite-rays-complete"),
        pytest.param("check", _fixture_with("pentagon.json", ("base_direction", [-1, 0])), (),
                     "lies on a wall", id="base-direction-on-wall"),
        pytest.param("complete", _fixture_with("pentagon.json"), ("--order", "16"),
                     "exceeds the file's truncation", id="order-above-truncation-complete"),
        pytest.param("check", _fixture_with("pentagon.json"), ("--order", "16"),
                     "exceeds the file's truncation", id="order-above-truncation-check"),
        pytest.param("plot", _fixture_with("pentagon.json"), ("--order", "11", "--emit-csv", "p.csv"),
                     "exceeds the file's truncation", id="order-above-truncation-plot"),
        pytest.param("bch", {"rank": "x", "truncation": 2, "x": [], "y": []}, (),
                     "bad rank", id="bch-rank-string"),
        pytest.param("bch", [1], (), "must be a JSON object", id="bch-not-an-object"),
        pytest.param("bch", {"rank": 1, "truncation": 2, "x": [], "y": []}, ("--order", "0"),
                     "order must be >= 1", id="bch-order-zero"),
    ],
)
def test_malformed_input_exit_code(tmp_path, capsys, monkeypatch, command, data, extra, message):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(p), *extra)
    assert code == 2
    assert err.startswith("input error:") and message in err
    assert out == ""
