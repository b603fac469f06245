import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import kronecker_doc
from reference_completion import reference_complete
from wallcross import cli, scattering, serialize
from wallcross.exceptions import ConventionError

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
    # the solver's ring, not the Dirac-twisted ring of the test oracle
    assert '  wall-crossing ring: untwisted groupoid ring (twisting "trivial")\n' in out
    assert "twisting default" not in out


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_a_bad_order_cap_exits_2_in_the_audit_and_every_command(capsys, monkeypatch, raw):
    # the audit prints the cap, so it runs under the same error guard as the
    # commands: nothing on stdout, one input error line on stderr
    monkeypatch.setenv("SCATTER_MAX_ORDER", raw)
    message = f"input error: bad SCATTER_MAX_ORDER {raw!r}\n"
    assert run(capsys, "--convention-audit") == (2, "", message)
    assert run(capsys, "complete", str(FIXTURES / "pentagon.json")) == (2, "", message)


def test_the_audit_prints_the_order_cap(capsys, monkeypatch):
    monkeypatch.setenv("SCATTER_MAX_ORDER", "1")
    code, out, _ = run(capsys, "--convention-audit")
    assert code == 0 and "  max truncation order: 1\n" in out
    monkeypatch.delenv("SCATTER_MAX_ORDER")
    code, out, _ = run(capsys, "--convention-audit")
    assert code == 0 and f"  max truncation order: {cli.DEFAULT_MAX_ORDER}\n" in out


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


def test_an_internal_error_exits_5_with_one_line(monkeypatch, capsys):
    # an exception that is neither an input error nor a convention violation
    # is a crash, not an inconsistent diagram (exit 1)
    def crash(d):
        raise RuntimeError("peel failed")

    monkeypatch.setattr(scattering, "complete", crash)
    code, out, err = run(capsys, "complete", str(FIXTURES / "pentagon.json"))
    assert (code, out, err) == (cli.EXIT_INTERNAL, "", "internal error: RuntimeError: peel failed\n")
    assert cli.EXIT_INTERNAL == 5


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


def test_a_vacuum_may_take_any_name(tmp_path, capsys):
    # "o" names the base point of the groupoid only in the test oracle's ring;
    # the solver reads the problem of example1 the same under any two names
    outs = []
    for i, j in (("a", "b"), ("o", "p")):
        p = tmp_path / f"{i}{j}.json"
        p.write_text(json.dumps({"vacua": [i, j], "truncation": 4, "factors": [
            {"type": "S", "pair": [i, j], "gamma": [1, 0], "mu": 1},
            {"type": "K", "gamma": [0, 1], "Omega": 1}]}))
        code, out, err = run(capsys, "wcf", str(p))
        assert (code, err) == (0, "")
        outs.append(out)
    renamed = outs[0].replace("vacua: a, b", "vacua: o, p").replace("[a,b]", "[o,p]")
    assert outs[1] == renamed != outs[0]
    assert "identity: K S = S S' K" in outs[1] and "S'[o,p]" in outs[1]


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


def test_every_csv_row_reads_as_five_fields(tmp_path, capsys):
    # a summary such as "t^1 * E[1,2] * z^(1,0)" holds commas, so it is quoted
    for name, (kind, fname) in cli.FIXTURES.items():
        path = tmp_path / f"{name}.csv"
        command = "wcf" if kind == "bps" else "complete"
        assert run(capsys, command, str(FIXTURES / fname), "--emit-csv", str(path))[0] == 0
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["dir_x", "dir_y", "kind", "lowest_degree", "summary"]
        assert len(rows) > 1 and all(len(row) == 5 for row in rows), name
        assert all(row[4].startswith("t^") and "z^(" in row[4] for row in rows[1:]), name


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
    assert (
        "unrecognized 2d factor: matrix entry (0,0) of the ray log at frequency (1, 1), degree 2"
        in err
    )


def _wcf_on_factors(tmp_path, capsys, *factors):
    """``wcf`` on the given factors, two vacua, truncation 4: (code, stdout, stderr)."""
    p = tmp_path / "factors.json"
    p.write_text(json.dumps({"vacua": ["i", "j"], "truncation": 4, "factors": list(factors)}))
    return run(capsys, "wcf", str(p))


_K_OMEGA_1 = {"type": "K", "gamma": [0, 1], "Omega": 1}


def test_a_k_factor_without_omega_is_an_input_error(tmp_path, capsys):
    # a misspelled count is an error, not a zero that drops the factor
    code, out, err = _wcf_on_factors(
        tmp_path, capsys, {"type": "K", "gamma": [1, 0], "omega": 1}, _K_OMEGA_1)
    assert code == 2
    assert err.startswith("input error:") and "K factor missing key 'Omega'" in err
    assert out == ""
    # an explicit 0 still drops the factor
    zero = _wcf_on_factors(tmp_path, capsys, {"type": "K", "gamma": [1, 0], "Omega": 0},
                             _K_OMEGA_1)
    assert zero == _wcf_on_factors(tmp_path, capsys, _K_OMEGA_1)
    assert zero[0] == 0


def test_an_s_factor_without_mu_is_an_input_error(tmp_path, capsys):
    s_factor = {"type": "S", "pair": ["i", "j"], "gamma": [1, 0]}
    code, out, err = _wcf_on_factors(tmp_path, capsys, s_factor, _K_OMEGA_1)
    assert code == 2
    assert err.startswith("input error:") and "S factor missing key 'mu'" in err
    assert out == ""
    zero = _wcf_on_factors(tmp_path, capsys, dict(s_factor, mu=0), _K_OMEGA_1)
    assert zero == _wcf_on_factors(tmp_path, capsys, _K_OMEGA_1)
    assert zero[0] == 0


def test_complete_rejects_a_correction_that_cancels_an_initial_ray(tmp_path, capsys):
    # a lone ray has the identity as its factor, which differs from its log at
    # degree 1; the correction would cancel it and leave an empty diagram
    p = tmp_path / "ray.json"
    p.write_text(json.dumps(_walls(1, 3, ([1, 0], "ray", [_K_TERM]))))
    code, out, err = run(capsys, "complete", str(p))
    assert code == 3
    assert "the correction at degree 1 changes the initial ray (1, 0)" in err
    assert out == ""


def _with_ray(tmp_path, doc, direction, terms):
    """``doc`` with a ray appended, written to a file."""
    p = tmp_path / "seeded.json"
    p.write_text(json.dumps(dict(doc, walls=doc["walls"] + [
        {"direction": direction, "geometry": "ray", "terms": terms}])))
    return p


@pytest.mark.parametrize("derivation", ["1", "5/3", "-7"])
def test_complete_rejects_an_initial_ray_that_differs_from_its_factor(tmp_path, capsys,
                                                                      derivation):
    # the completion of Kronecker Omega = 2 carries -4 t^2 z^(1,1) d_n - 2 t^4
    # z^(2,2) d_n ... on (1,1); an initial ray there with another log is an
    # error at the first degree where the two differ
    p = _with_ray(tmp_path, kronecker_doc(2, 2, 8), [1, 1],
                  [{"t": 2, "k": 1, "derivation": derivation}])
    assert run(capsys, "complete", str(p)) == (3, "", (
        "convention violation: the correction at degree 2 changes the initial ray (1, 1); "
        "completion does not change initial walls\n"))


def test_complete_accepts_the_completions_own_ray(tmp_path, capsys):
    # the same ray as the completion's is kept as given: the output is that of
    # the run without it, byte for byte
    k = tmp_path / "k.json"
    k.write_text(json.dumps(kronecker_doc(2, 2, 8)))
    plain = tmp_path / "plain.json"
    assert run(capsys, "complete", str(k), "--output", str(plain))[0] == 0
    (ray,) = [w for w in json.loads(plain.read_text())["walls"] if w["direction"] == [1, 1]]
    assert ray["terms"][:2] == [
        {"t": 2, "k": 1, "matrix": [["0"]], "derivation": "-4"},
        {"t": 4, "k": 2, "matrix": [["0"]], "derivation": "-2"},
    ]
    seeded = tmp_path / "seeded-out.json"
    p = _with_ray(tmp_path, kronecker_doc(2, 2, 8), [1, 1], ray["terms"])
    code, out, _ = run(capsys, "complete", str(p), "--output", str(seeded))
    assert code == 0 and "initial walls: 3" in out
    assert seeded.read_bytes() == plain.read_bytes()


def test_complete_reports_the_ray_on_a_zero_initial_wall(tmp_path, capsys):
    # a zero initial ray is dropped, so the report counts the two lines only
    # and the completion's own (1,1) ray there is a new ray
    doc = json.loads((FIXTURES / "pentagon.json").read_text())
    code, out, _ = run(capsys, "complete", str(_with_ray(tmp_path, doc, [1, 1], [])))
    assert code == 0
    assert "initial walls: 2\n  completed walls: 3\n" in out
    assert "new rays: 1\n    direction (1,1) [ray]\n" in out


def test_complete_names_the_lowest_degree_of_an_outside_ray(tmp_path, capsys):
    # (1,-1) lies outside the lines' cone, where the factor is the identity;
    # the ray's log differs from it at its t-order 1, the degree the
    # order-by-order reference names too
    p = _with_ray(tmp_path, kronecker_doc(1, 1, 4), [1, -1],
                  [{"t": 1, "k": 1, "derivation": "1"}, {"t": 3, "k": 1, "derivation": "2"}])
    code, out, err = run(capsys, "complete", str(p))
    message = ("the correction at degree 1 changes the initial ray (1, -1); "
               "completion does not change initial walls")
    assert (code, out, err) == (3, "", f"convention violation: {message}\n")
    with pytest.raises(ConventionError) as exc:
        reference_complete(serialize.diagram_from_json(json.loads(p.read_text())))
    assert str(exc.value) == message


def test_complete_rejects_a_middle_line_whose_factor_is_the_identity(tmp_path, capsys):
    # the lines' product has no factor on (1,1), so the middle line's log
    # t^2 z^(1,1) d(-1,1) is a defect at its own t-order: no diagram is
    # written, where an unchecked line would give a FAIL report
    outer = [{"t": l, "k": l, "derivation": f"1/{l}"} for l in (1, 2, 3)]
    p = tmp_path / "middle.json"
    p.write_text(json.dumps(_walls(1, 3, ([1, 0], "line", outer), ([0, 1], "line", outer),
                                   ([1, 1], "line", [{"t": 2, "k": 1, "derivation": "1"}]))))
    code, out, err = run(capsys, "complete", str(p))
    assert code == 3
    assert "defect at degree 2 lies on the line direction (1, 1)" in err
    assert out == ""


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
_PENTAGON_WITH_EMPTY_RAY_ON_A_LINE = _fixture_with("pentagon.json")
_PENTAGON_WITH_EMPTY_RAY_ON_A_LINE["walls"].append(
    {"direction": [1, 0], "geometry": "ray", "terms": []})
_OPPOSITE_RAYS = (
    ("walls", 0, "geometry", "ray"),
    ("walls", 1, "geometry", "ray"),
    _OPPOSITE_LINES,
)


def _walls(rank, truncation, *walls):
    """A diagram document from ``(direction, geometry, terms)`` walls."""
    return {
        "rank": rank,
        "truncation": truncation,
        "walls": [{"direction": d, "geometry": g, "terms": t} for d, g, t in walls],
    }


def _s_term(matrix):
    return {"t": 1, "k": 1, "matrix": matrix, "derivation": "0"}


_K_TERM = {"t": 1, "k": 1, "derivation": "1"}
_UPPER = [["0", "1"], ["0", "0"]]
_LOWER = [["0", "0"], ["1", "0"]]
_DIAGONAL = [["1", "0"], ["0", "-1"]]
_TOP_LEFT = [["1", "0"], ["0", "0"]]
_THREE_SPANNING_RAYS = _walls(2, 4, ([1, 0], "ray", [_s_term(_UPPER)]),
                              ([-1, 1], "ray", [_s_term(_LOWER)]),
                              ([0, -1], "ray", [_s_term(_TOP_LEFT)]))


def _k_factors(*gammas):
    """A BPS document with no vacua and one K factor (Omega 1) on each charge."""
    factors = [{"type": "K", "gamma": g, "Omega": 1} for g in gammas]
    return {"vacua": [], "factors": factors, "truncation": 3}


def _spanning_lines(*terms):
    """A rank-1 diagram with lines on (1,0), (0,1) and (-1,-1), one term each."""
    return _walls(1, 3, *((d, "line", [t]) for d, t in zip(([1, 0], [0, 1], [-1, -1]), terms)))


def _bch(x, y, truncation=3):
    return {"rank": 2, "truncation": truncation, "x": x, "y": y}


def _key_twice(data, first, second):
    """``data`` as JSON text with ``second`` written right after ``first``: one key given twice."""
    text = json.dumps(data)
    assert first in text
    return text.replace(first, f"{first}, {second}", 1)


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
        # a BPS file's order is checked before its first factor is read
        pytest.param("wcf", _fixture_with("example1.json", ("truncation", 0)), (),
                     "truncation order must be >= 1", id="bps-truncation-zero"),
        pytest.param("wcf", _fixture_with("example1.json"), ("--order", "0"),
                     "truncation order must be >= 1", id="bps-order-zero"),
        pytest.param("wcf", _fixture_with("example1.json"), ("--order", "-1"),
                     "truncation order must be >= 1", id="bps-order-negative"),
        # a truncation below 1 is refused also when an order is passed
        pytest.param("wcf", _fixture_with("example1.json", ("truncation", -1)), ("--order", "3"),
                     "truncation order must be >= 1", id="bps-truncation-negative-with-order"),
        pytest.param("wcf", _fixture_with("example1.json", ("truncation", 0)), ("--order", "3"),
                     "truncation order must be >= 1", id="bps-truncation-zero-with-order"),
        # the direction rules of a BPS problem's initial walls
        pytest.param("wcf", _k_factors([1, 0], [-1, 0]), (),
                     "anti-parallel factor directions", id="bps-anti-parallel-factors"),
        pytest.param("wcf", _k_factors([0, 0]), (),
                     "factor directions must be nonzero", id="bps-zero-factor"),
        pytest.param("wcf", _k_factors([1, 0], [0, 1], [-1, -1]), (),
                     "parallel initial walls", id="bps-spanning-factors"),
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
        # the same-ray rule reads the walls as written, a zero one too
        pytest.param("complete", _PENTAGON_WITH_EMPTY_RAY_ON_A_LINE, (),
                     "same ray", id="empty-ray-on-a-line-complete"),
        pytest.param("check", _PENTAGON_WITH_EMPTY_RAY_ON_A_LINE, (),
                     "same ray", id="empty-ray-on-a-line-check"),
        pytest.param("complete", _fixture_with("pentagon.json", *_OPPOSITE_RAYS), (),
                     "parallel initial walls", id="opposite-rays-complete"),
        # an inconsistent diagram with anti-parallel rays: its defect has a term
        # at frequency zero, so check rejects it like complete does
        pytest.param("check", _walls(2, 3, ([1, 0], "ray", [_s_term(_UPPER)]),
                                     ([-1, 0], "ray", [_s_term(_LOWER)])), (),
                     "parallel initial walls", id="opposite-rays-check"),
        pytest.param("check", _walls(2, 4, ([1, 0], "ray", [_s_term(_UPPER)]),
                                     ([-1, 0], "ray", [_s_term(_LOWER)]),
                                     ([-3, -1], "ray", [_K_TERM])), (),
                     "parallel initial walls", id="opposite-rays-and-a-ray-check"),
        pytest.param("check", _walls(2, 4, ([1, 1], "line", [_s_term(_UPPER)]),
                                     ([2, 1], "line", [_K_TERM]),
                                     ([1, -1], "ray", [_s_term(_LOWER)]),
                                     ([-1, 1], "ray", [_s_term(_DIAGONAL)])), (),
                     "parallel initial walls", id="two-lines-and-opposite-rays-check"),
        # three rays spanning the plane: no two are anti-parallel, but their
        # product has a term at frequency (1,0) + (-1,1) + (0,-1) = 0
        pytest.param("check", _THREE_SPANNING_RAYS, (),
                     "parallel initial walls", id="three-spanning-rays-check"),
        pytest.param("complete", _THREE_SPANNING_RAYS, (),
                     "parallel initial walls", id="three-spanning-rays-complete"),
        pytest.param("check", _fixture_with("pentagon.json", ("base_direction", [-1, 0])), (),
                     "base_direction is no longer accepted", id="base-direction-on-wall"),
        # the key sets are read first: a missing key is named before base_direction
        pytest.param("check", {"rank": 1, "truncation": 3, "base_direction": [1, 0]}, (),
                     "diagram file missing key 'walls'", id="base-direction-and-missing-key"),
        pytest.param("complete", _fixture_with("pentagon.json", ("walls", 0, "direction",
                                                                 [True, False])), (),
                     "bad direction", id="direction-booleans"),
        pytest.param("wcf", _fixture_with("example1.json", ("factors", 0, "gamma", [True, 0])),
                     (), "bad gamma", id="gamma-boolean"),
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
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "matrix": _UPPER}],
                                 [{"m": [-1, 0], "t": 1, "matrix": _LOWER}]),
                     (), "open half-plane", id="bch-anti-parallel"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "matrix": _UPPER}],
                                 [{"m": [-1, 1], "t": 1, "matrix": _LOWER},
                                  {"m": [0, -1], "t": 1, "matrix": _TOP_LEFT}], truncation=4),
                     (), "open half-plane", id="bch-spanning"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "derivation": ["1", "0"]}], []),
                     (), "not orthogonal", id="bch-derivation-along-frequency"),
        # one truncation rule for every file: a term above the file's
        # truncation, or an order above it, is an input error
        pytest.param("complete", _walls(1, 3, ([1, 0], "line", [{"t": 5, "k": 1, "derivation": "1"}]),
                                        ([0, 1], "line", [_K_TERM])), (),
                     "exceeds the file's truncation", id="term-above-truncation-complete"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 5, "matrix": _UPPER}], []), (),
                     "exceeds the file's truncation", id="term-above-truncation-bch"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "matrix": _UPPER}], [], truncation=2),
                     ("--order", "4"), "exceeds the file's truncation",
                     id="order-above-truncation-bch"),
        # a zero term is judged like any other before it is dropped
        pytest.param("check", {"rank": 1, "truncation": 3, "walls": [
            {"direction": [1, 0], "terms": [{"t": -5, "k": 1}]}]}, (),
            "Lie algebra terms need t-degree >= 1", id="zero-term-below-degree-one-check"),
        pytest.param("bch", {"rank": 1, "truncation": 3, "x": [{"m": [0, 0], "t": 1}]}, (),
                     "Lie algebra terms need nonzero frequency",
                     id="zero-term-at-frequency-zero-bch"),
        # an order below 1 is named as such, also above a truncation below 1
        pytest.param("complete", _fixture_with("pentagon.json", ("truncation", -1)),
                     ("--order", "0"), "truncation order must be >= 1",
                     id="order-zero-above-truncation-complete"),
        pytest.param("bch", _bch([], [], truncation=-1), ("--order", "0"),
                     "truncation order must be >= 1", id="order-zero-above-truncation-bch"),
        # every object kind has one closed key set: an unknown key is not ignored
        pytest.param("complete", _fixture_with("pentagon.json", ("order", 3)), (),
                     "diagram file has unknown key 'order'", id="unknown-key-diagram"),
        pytest.param("complete", _fixture_with("pentagon.json", ("walls", 0, "kind", "ray")), (),
                     "wall has unknown key 'kind'", id="unknown-key-wall"),
        # a misspelled derivation is not read as an absent, zero one
        pytest.param("complete", _walls(1, 3, ([1, 0], "line", [_K_TERM]),
                                        ([0, 1], "line", [{"t": 1, "k": 1, "derivaton": "1"}])),
                     (), "wall term has unknown key 'derivaton'", id="unknown-key-wall-term"),
        pytest.param("wcf", _fixture_with("example1.json", ("basepoint", {"i": [1, 0]})), (),
                     "BPS file has unknown key 'basepoint'", id="unknown-key-bps-file"),
        pytest.param("wcf", _fixture_with("example1.json", ("factors", 0, "Omega", 1)), (),
                     "S factor has unknown key 'Omega'", id="unknown-key-s-factor"),
        pytest.param("wcf", _fixture_with("example1.json", ("factors", 1, "mu", 1)), (),
                     "K factor has unknown key 'mu'", id="unknown-key-k-factor"),
        pytest.param("bch", dict(_bch([], []), z=[]), (), "bch input has unknown key 'z'",
                     id="unknown-key-bch-input"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "k": 1, "matrix": _UPPER}], []), (),
                     "bch term has unknown key 'k'", id="unknown-key-bch-term"),
        # a key given twice is refused at every depth, not read as its last value
        pytest.param("complete", _key_twice(_spanning_lines(_K_TERM, _K_TERM, _K_TERM),
                                            '"truncation": 3', '"truncation": 2'), (),
                     "input.json: duplicate key 'truncation'",
                     id="duplicate-key-diagram"),
        pytest.param("complete", _key_twice(_spanning_lines(_K_TERM, _K_TERM, _K_TERM),
                                            '"derivation": "1"', '"derivation": "2"'), (),
                     "input.json: duplicate key 'derivation'",
                     id="duplicate-key-wall-term"),
        pytest.param("wcf", _key_twice(_k_factors([1, 0], [0, 1]), '"Omega": 1', '"Omega": 0'),
                     (), "input.json: duplicate key 'Omega'",
                     id="duplicate-key-bps-factor"),
        pytest.param("bch", _key_twice(_bch([{"m": [1, 0], "t": 1, "matrix": _UPPER}], []),
                                       '"t": 1', '"t": 2'), (),
                     "input.json: duplicate key 't'", id="duplicate-key-bch-term"),
    ],
)
def test_malformed_input_exit_code(tmp_path, capsys, monkeypatch, command, data, extra, message):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "input.json"
    p.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run(capsys, command, str(p), *extra)
    assert code == 2
    assert err.startswith("input error:") and message in err
    assert out == ""


def _wall_term_file(*terms):
    return _walls(2, 3, ([1, 0], "line", list(terms)), ([0, 1], "line", [_K_TERM]))


_WALL_TERM = {"t": 1, "k": 1, "matrix": _UPPER}
_BCH_TERM = {"m": [1, 0], "t": 1, "matrix": _UPPER}


@pytest.mark.parametrize(
    "command, data, message",
    [
        pytest.param("complete", _wall_term_file(_WALL_TERM, _WALL_TERM),
                     "duplicate term at frequency (1, 0), degree 1", id="wall-duplicate"),
        pytest.param("bch", _bch([_BCH_TERM, _BCH_TERM], []),
                     "duplicate term at ((1, 0), 1)", id="bch-duplicate"),
        pytest.param("complete", _wall_term_file({"t": 1, "k": 1, "derivation": "1/x"}),
                     "bad rational '1/x': Invalid literal for Fraction: '1/x'",
                     id="wall-bad-rational"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "matrix": [["0", "1/x"], ["0", "0"]]}], []),
                     "bad rational '1/x': Invalid literal for Fraction: '1/x'",
                     id="bch-bad-rational"),
        # Python 3.12 and later read "2 / 3"; 3.10 and 3.11 do not, and neither does a file
        pytest.param("complete", _wall_term_file({"t": 1, "k": 1, "derivation": "2 / 3"}),
                     "bad rational '2 / 3': Invalid literal for Fraction: '2 / 3'",
                     id="wall-space-beside-slash"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "matrix": [["0", "1 /2"], ["0", "0"]]}],
                                 []),
                     "bad rational '1 /2': Invalid literal for Fraction: '1 /2'",
                     id="bch-space-beside-slash"),
        pytest.param("complete", _wall_term_file({"t": 1, "k": 1, "matrix": [["1"]]}),
                     "matrix shape does not match rank", id="wall-matrix-shape"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "matrix": [["1"]]}], []),
                     "matrix shape does not match rank", id="bch-matrix-shape"),
        pytest.param("complete", _wall_term_file({"t": 4, "k": 1, "matrix": _UPPER}),
                     "term at t-degree 4 exceeds the file's truncation 3", id="wall-t-above"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 4, "matrix": _UPPER}], []),
                     "term at t-degree 4 exceeds the file's truncation 3", id="bch-t-above"),
        pytest.param("complete", _wall_term_file({"t": 1.0, "k": 1, "matrix": _UPPER}),
                     "bad t-degree: 1.0 (expected an integer)", id="wall-t-float"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1.0, "matrix": _UPPER}], []),
                     "bad t-degree: 1.0 (expected an integer)", id="bch-t-float"),
        # a wall term's derivation is one rational, a bch term's a pair
        pytest.param("complete", _wall_term_file({"t": 1, "k": 1, "derivation": ["1", "0"]}),
                     "bad rational ['1', '0']", id="wall-derivation-pair"),
        pytest.param("bch", _bch([{"m": [1, 0], "t": 1, "derivation": "1"}], []),
                     "derivation must be a pair of rationals", id="bch-derivation-scalar"),
    ],
)
def test_term_faults_in_both_file_kinds(tmp_path, capsys, command, data, message):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}")


@pytest.mark.parametrize(
    "command, data",
    [
        pytest.param("check", _fixture_with("pentagon.json"), id="check"),
        pytest.param("wcf", _fixture_with("example1.json"), id="wcf"),
        pytest.param("bch", {"rank": 1, "truncation": 8, "x": [], "y": []}, id="bch"),
    ],
)
def test_order_cap_applies_to_every_command(tmp_path, capsys, monkeypatch, command, data):
    # every file here is truncated above the cap
    monkeypatch.setenv("SCATTER_MAX_ORDER", "6")
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert "exceeds SCATTER_MAX_ORDER=6" in err


@pytest.mark.parametrize("command", ["complete", "bch"])
def test_term_fault_is_reported_before_the_order_cap(tmp_path, capsys, command):
    # the whole file is read before its order is checked against SCATTER_MAX_ORDER
    term = {"t": "x", "k": 1} if command == "complete" else {"m": [1, 0], "t": "x"}
    data = _wall_term_file(term) if command == "complete" else _bch([term], [])
    data["truncation"] = 20
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    code, _, err = run(capsys, command, str(p))
    assert code == 2
    assert err.startswith("input error: bad t-degree")


@pytest.mark.parametrize("content", [None, b"\xff\xfe{"], ids=["directory", "not-utf8"])
def test_unreadable_input_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {path}")


@pytest.mark.parametrize("text, message", [
    # 4300 digits is Python's default limit on an int string
    pytest.param('{"rank": ' + "1" * 5000 + "}", "Exceeds the limit", id="int-over-digit-limit"),
    pytest.param("[" * 100000 + "]" * 100000, "maximum recursion depth", id="nesting-too-deep"),
])
def test_json_the_decoder_refuses_is_bad_json(tmp_path, capsys, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: bad JSON in {path}: ") and message in err


def test_an_exponent_over_the_digit_limit_exits_2_at_once(tmp_path, capsys):
    # Fraction alone takes seconds to expand this, and its 10000001 digits cannot be printed
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_wall_term_file({"t": 1, "k": 1, "derivation": "1e10000000"})))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "input error: bad rational '1e10000000': more digits than Python's limit of 4300\n"


@pytest.mark.parametrize("option", ["--output", "--emit-svg", "--emit-csv"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, option):
    target = tmp_path / "missing" / "x"
    code, _, err = run(capsys, "complete", str(FIXTURES / "pentagon.json"), option, str(target))
    assert code == 2
    assert err.startswith(f"input error: cannot write {target}")
    assert not target.parent.exists()


def test_demo_outdir_that_is_a_file_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "file"
    target.write_text("")
    code, out, err = run(capsys, "demo", "--outdir", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {target}")


@pytest.mark.parametrize("command, fixture", [("complete", "pentagon"), ("wcf", "example1")])
def test_a_failed_write_leaves_stdout_empty(tmp_path, capsys, command, fixture):
    # stdout is written last, so a report on stdout means every file was written
    target = tmp_path / "nodir" / "x.json"
    code, out, err = run(capsys, command, str(FIXTURES / f"{fixture}.json"),
                         "--output", str(target), "--emit-csv", str(tmp_path / "p.csv"))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {target}")


@pytest.mark.parametrize("option", ["--emit-svg", "--emit-csv"])
@pytest.mark.parametrize("command, data", [
    pytest.param("complete", kronecker_doc(2, 2, 8), id="complete"),
    pytest.param("wcf", _fixture_with("example1.json"), id="wcf"),
])
def test_a_failed_plot_write_leaves_no_output_file(tmp_path, capsys, command, data, option):
    # the plots are written before --output, so exit 2 never leaves a result file
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    result, plot = tmp_path / "ok.json", tmp_path / "nodir" / "p"
    code, out, err = run(capsys, command, str(p), "--output", str(result), option, str(plot))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {plot}")
    assert not result.exists()


def test_a_failed_bch_write_leaves_stdout_empty(tmp_path, capsys):
    p = tmp_path / "bch.json"
    p.write_text(json.dumps({"rank": 1, "truncation": 2, "x": [], "y": []}))
    target = tmp_path / "nodir" / "x.json"
    code, out, err = run(capsys, "bch", str(p), "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {target}")


def test_a_failed_demo_report_write_leaves_stdout_empty(tmp_path, capsys):
    # the first two fixtures' reports are written before the third fails
    (tmp_path / "pentagon.report.txt").mkdir()
    code, out, err = run(capsys, "demo", "--outdir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {tmp_path / 'pentagon.report.txt'}")


def test_a_rejected_check_writes_no_plot(tmp_path, capsys):
    # lines on every side of the origin: the defect has a term at frequency
    # zero, which is found before the plots are written
    p = tmp_path / "spanning.json"
    p.write_text(json.dumps(_spanning_lines(_K_TERM, _K_TERM, _K_TERM)))
    svg, csv_path = tmp_path / "p.svg", tmp_path / "p.csv"
    code, out, err = run(capsys, "check", str(p), "--emit-svg", str(svg),
                         "--emit-csv", str(csv_path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: parallel initial walls")
    assert sorted(tmp_path.iterdir()) == [p]


def test_check_accepts_consistent_lines_on_every_side(tmp_path, capsys):
    # rank-1 matrix terms commute, so the same lines are consistent: the
    # half-plane rule is for a defect only
    p = tmp_path / "spanning.json"
    p.write_text(json.dumps(_spanning_lines(*(_s_term([[c]]) for c in ("1", "2", "3")))))
    assert run(capsys, "check", str(p)) == (0, "consistent\n", "")


def test_check_accepts_a_consistent_diagram_with_opposite_rays(tmp_path, capsys):
    # the completed pentagon with an empty ray opposite its produced ray
    completed = tmp_path / "completed.json"
    run(capsys, "complete", str(FIXTURES / "pentagon.json"), "--output", str(completed))
    data = json.loads(completed.read_text())
    data["walls"].append({"direction": [-1, -1], "geometry": "ray", "terms": []})
    p = tmp_path / "opposite.json"
    p.write_text(json.dumps(data))
    assert run(capsys, "check", str(p)) == (0, "consistent\n", "")


def test_a_zero_wall_does_not_count_for_the_half_plane_rule(tmp_path, capsys):
    # the pentagon's lines with an empty ray on (-1,-1): a zero log has no
    # frequency, so the walls on every side of the origin put no defect term
    # at frequency zero; the diagram drops the ray, so no command sees it
    data = json.loads((FIXTURES / "pentagon.json").read_text())
    data["walls"].append({"direction": [-1, -1], "geometry": "ray", "terms": []})
    p = tmp_path / "empty_ray.json"
    p.write_text(json.dumps(data))
    runs = []
    for src in (FIXTURES / "pentagon.json", p):
        out_json, svg, csv, check_csv = (tmp_path / f"{src.stem}.{name}" for name in
                                         ("completed.json", "svg", "csv", "check.csv"))
        code, _, _ = run(capsys, "complete", str(src), "--output", str(out_json))
        check = run(capsys, "check", str(src), "--emit-csv", str(check_csv))
        plot = run(capsys, "plot", str(src), "--emit-svg", str(svg), "--emit-csv", str(csv))
        runs.append((code, out_json.read_bytes(), check, plot,
                     svg.read_bytes(), csv.read_bytes(), check_csv.read_bytes()))
    assert runs[0] == runs[1]
    code, _, (check_code, report, _), *_ = runs[1]
    assert (code, check_code) == (0, 1)
    assert report.startswith("inconsistent: lowest defect at t-degree 2\n")


def test_consecutive_main_calls_parse_independently(tmp_path, capsys):
    # the parser is built once per process; no option of one call leaks into the next
    out_json = tmp_path / "completed.json"
    code, out, _ = run(capsys, "complete", str(FIXTURES / "pentagon.json"),
                       "--order", "3", "--output", str(out_json))
    assert code == 0 and out_json.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(out_json), "--output", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --output" in capsys.readouterr().err
    code, out, _ = run(capsys, "check", str(out_json))
    assert (code, out) == (0, "consistent\n")
    code, out, _ = run(capsys, "wcf", str(FIXTURES / "example1.json"))
    assert code == 0 and out == (FIXTURES / "example1.report.txt").read_text()
    assert not (tmp_path / "x.json").exists()
    assert cli.build_parser() is cli.build_parser()


_BCH_INPUT = {"rank": 1, "truncation": 2, "x": [], "y": []}


@pytest.mark.parametrize(
    "command, data, option",
    [
        pytest.param("check", None, "--output", id="check-output"),
        pytest.param("plot", None, "--output", id="plot-output"),
        pytest.param("bch", _BCH_INPUT, "--emit-svg", id="bch-emit-svg"),
        pytest.param("bch", _BCH_INPUT, "--emit-csv", id="bch-emit-csv"),
    ],
)
def test_option_the_command_does_not_read_is_rejected(tmp_path, capsys, command, data, option):
    # each subcommand accepts only the options it acts on; these used to be
    # accepted and ignored, writing no file
    p = tmp_path / "input.json"
    if data is None:
        p.write_text((FIXTURES / "pentagon.json").read_text())
    else:
        p.write_text(json.dumps(data))
    target = tmp_path / "written"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(p), option, str(target)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not target.exists()


def _file_of_rank(kind, rank):
    """A short file of ``kind`` that declares matrices of ``rank``, with its command."""
    if kind == "diagram":
        line = {"direction": [1, 0], "terms": [{"t": 1, "k": 1, "derivation": "1"}]}
        return "check", {"rank": rank, "truncation": 2, "walls": [line]}
    if kind == "bch":
        term = {"m": [1, 0], "t": 1, "derivation": ["0", "1"]}
        return "bch", {"rank": rank, "truncation": 2, "x": [term], "y": []}
    return "wcf", {"vacua": [f"v{i}" for i in range(rank)], "truncation": 2,
                   "factors": [{"type": "K", "gamma": [0, 1], "Omega": 1}]}


@pytest.mark.parametrize("kind", ["diagram", "bch", "bps"])
def test_a_rank_over_the_cap_exits_2_at_once(tmp_path, capsys, kind):
    # every log holds rank^2 series, so a ~100-byte file naming a huge rank
    # would take time and memory quadratic in it; the reader refuses first
    rank = serialize.MAX_RANK + 1 if kind == "bps" else 10**6
    command, data = _file_of_rank(kind, rank)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    what = "number of vacua" if kind == "bps" else "rank"
    assert err == (f"input error: {what} {rank} exceeds the largest supported rank "
                   f"{serialize.MAX_RANK}\n")


@pytest.mark.parametrize("kind", ["diagram", "bch", "bps"])
def test_a_rank_at_the_cap_is_read(tmp_path, capsys, kind):
    command, data = _file_of_rank(kind, serialize.MAX_RANK)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")
    assert out


def _file_with_frequency(kind, c):
    """A short order-2 file of ``kind`` with a frequency coordinate ``c``, and its command."""
    if kind == "diagram":
        return "complete", {"rank": 1, "truncation": 2, "walls": [
            {"direction": d, "terms": [{"t": 1, "k": 1, "derivation": "1"}]}
            for d in ([1, 0], [1, c])]}
    if kind == "bch":
        x = {"m": [1, c], "t": 1, "derivation": [str(-c), "1"]}
        y = {"m": [1, 0], "t": 1, "derivation": ["0", "1"]}
        return "bch", {"rank": 1, "truncation": 2, "x": [x], "y": [y]}
    return "wcf", {"vacua": ["a", "b"], "truncation": 2, "factors": [
        {"type": "S", "pair": ["a", "b"], "gamma": [1, c], "mu": 1},
        {"type": "K", "gamma": [1, 0], "Omega": 1}]}


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit")


@_needs_digit_limit
@pytest.mark.parametrize("kind", ["diagram", "bch", "bps"])
def test_a_frequency_whose_results_cannot_be_printed_exits_2_at_once(tmp_path, capsys, kind):
    # at order 2 a result has frequencies and coefficients with up to twice
    # the digits of a read coordinate, which Python cannot print past its
    # limit on an int string; the reader refuses from 10^(limit // 2) on
    digits = _DIGIT_LIMIT // 2
    command, data = _file_with_frequency(kind, -(10 ** digits) if kind == "bch" else 10 ** digits)
    path, target = tmp_path / "input.json", tmp_path / "written.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path), "--output", str(target))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    what = {"diagram": "wall term", "bch": "bch term", "bps": "S factor"}[kind]
    assert err == (f"input error: {what} has a coordinate of more than {digits} digits: at "
                   f"order 2, its results could exceed Python's limit of {_DIGIT_LIMIT} digits\n")
    assert not target.exists()


@_needs_digit_limit
@pytest.mark.parametrize("kind", ["diagram", "bch", "bps"])
def test_an_order_above_the_digit_limit_names_the_order(tmp_path, capsys, kind):
    # above the limit no coordinate is short enough, so the message names the
    # order rather than a bound of 0 digits; it comes from the first term
    # read, before the order cap
    order = _DIGIT_LIMIT + 700
    command, data = _file_with_frequency(kind, 1)
    data["truncation"] = order
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    what = {"diagram": "wall term", "bch": "bch term", "bps": "S factor"}[kind]
    assert err == (f"input error: {what} at order {order}: above Python's limit of "
                   f"{_DIGIT_LIMIT} digits, no frequency's results can be printed\n")


@_needs_digit_limit
@pytest.mark.parametrize("kind", ["diagram", "bch", "bps"])
def test_a_frequency_just_under_the_printable_bound_is_read(kind):
    command, data = _file_with_frequency(kind, 10 ** (_DIGIT_LIMIT // 2) - 1)
    if kind == "diagram":
        assert len(serialize.diagram_from_json(data).walls) == 2
    elif kind == "bch":
        assert all(not z.is_zero() for z in serialize.bch_from_json(data, None))
    else:
        assert len(serialize.bps_from_json(data)[0].factors) == 2


def test_a_huge_direction_is_plotted(tmp_path, capsys):
    # floats overflow past about 10^308, so a long direction is scaled down
    # to 64 bits before its angle is drawn; its label keeps every digit
    path, svg = tmp_path / "input.json", tmp_path / "plot.svg"
    path.write_text(json.dumps(_file_with_frequency("diagram", 10**200)[1]))
    assert run(capsys, "plot", str(path), "--emit-svg", str(svg)) == (0, "", "")
    text = svg.read_text()
    assert '<line x1="240" y1="240" x2="240.00" y2="40.00" stroke="black"' in text
    assert f">(1,{10**200}) t^1 * d({-10**200},1) * z^(1,{10**200})</text>" in text


def test_outputs_are_byte_identical_across_hash_seeds(tmp_path):
    # BPS files name their vacua with strings, whose set order follows
    # PYTHONHASHSEED; no output may
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    runs = {}
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        for command, fixture in (("wcf", "example1"), ("complete", "rand1")):
            out = tmp_path / f"{fixture}-{seed}.json"
            result = subprocess.run(
                [sys.executable, "-m", "wallcross.cli", command,
                 str(FIXTURES / f"{fixture}.json"), "--output", str(out)],
                env=env, capture_output=True, check=True)
            runs.setdefault(fixture, []).append((result.stdout, result.stderr, out.read_bytes()))
    for fixture, (first, second) in runs.items():
        assert first == second, fixture
        assert first[0] and first[2], fixture
