"""The package's boundary, and the names the benchmark hooks into.

``perfbench/layertrace.py`` wraps functions by module and attribute name, and
``perfbench/run.py`` rebuilds the initial walls of BPS inputs through the
solver; a refactor that moves either fails here before it breaks the
benchmark.  Every name a module imports must also be used by it, so no
import is kept only for a hook to patch; and every module, function, class
and method of the package is reached from the package itself, so code that
only tests use lives in ``tests/``.
"""

import ast
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path, PurePosixPath

import pytest

from conftest import images_of
from reference_completion import fresh_exp
from wallcross import cli, scattering, serialize, series, vertexlie
from wallcross.groupoid import KFactor, k_wall_log
from wallcross.lattice import WallKind, det2, primitive_part
from wallcross.scattering import Diagram, Wall
from wallcross.series import SeriesElem, TruncationContext
from wallcross.vertexlie import AutPair, LieElem, bch, compose, elementary, exp, log

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "wallcross"
EXAMPLE1 = Path(cli.__file__).parent / "fixtures" / "example1.json"


def test_cli_loads_every_package_module():
    # every module of the package is engine code that a command runs; the
    # paper-verification oracles live in tests/ as reference_*.py
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, wallcross.cli; print('\\n'.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    modules = {
        "wallcross" if path.stem == "__init__" else f"wallcross.{path.stem}"
        for path in PACKAGE.glob("*.py")
    }
    assert modules - set(result.stdout.split()) == set()


def test_the_package_data_holds_every_fixture_and_golden():
    # tier-1 imports the package from src/, so only pyproject's package-data
    # globs decide whether an installed wheel carries the fixtures and goldens
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["wallcross"]
    files = [f"fixtures/{name}" for _kind, name in cli.FIXTURES.values()]
    files += [f"fixtures/{name}.report.txt" for name in cli.FIXTURES]
    assert all((PACKAGE / f).is_file() for f in files)
    assert [f for f in files if not any(PurePosixPath(f).match(g) for g in globs)] == []
    module, _, attr = config["project"]["scripts"]["wallcross"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_benchmark_layer_hooks_resolve_and_see_the_solver(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert cli.main(["wcf", str(EXAMPLE1), "--order", "4"]) == 0
    capsys.readouterr()
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert calls["groupoid.solve_wcf"] == 1
    assert calls["groupoid.build_initial_diagram"] == 1
    assert calls["scattering.complete"] == 1
    for module_name, path, _metric, _hot in layertrace.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), path


def test_benchmark_rebuilds_bps_initial_walls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workload = importlib.import_module("workloads").WORKLOADS["bps-r4"]
    (doc,) = workload.generate(random.Random(0), 1, workload.smoke_order)
    walls = run.initial_walls(workload, doc)
    directions = {tuple(f["gamma"]) for f in doc["factors"]}
    assert sorted(tuple(w["direction"]) for w in walls) == sorted(directions)
    assert all(w["geometry"] == "line" for w in walls)


def _ray_directions(g):
    """The primitive directions of the relative frequencies of g - Id."""
    return {primitive_part(m) for m in g.relative_frequencies() if m != (0, 0)}


def test_completion_peels_one_ray_per_compose(monkeypatch):
    # the completion factors the lines' product ray by ray: the hooked
    # ``scattering.log`` sees one ray at a time, in counterclockwise order,
    # each peeled ray costs one full-order compose, and no path-ordered
    # product is taken; a return to whole-loop rounds, or a factor read
    # without the hook, fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    ctx = TruncationContext(6, 1)
    d = Diagram(ctx, tuple(
        Wall(g, WallKind.LINE, k_wall_log(ctx, KFactor(g, 2))) for g in ((1, 0), (0, 1))
    ))
    logged, composed = [], []

    def recording_log(g):
        logged.append(_ray_directions(g))
        return log(g)

    def recording_compose(g1, g2):
        composed.append((g1.ctx.order, g2.ctx.order))
        return compose(g1, g2)

    monkeypatch.setattr(scattering, "log", recording_log)
    monkeypatch.setattr(scattering, "compose", recording_compose)
    tracer = layertrace.Tracer()
    with tracer.installed():
        completed = scattering.complete(d)
    rays = len(completed.walls) - 2
    assert rays == 5
    assert [len(directions) for directions in logged] == [1] * rays
    # each step moves strictly counterclockwise past the ray peeled before it
    peeled = [p for (p,) in logged]
    assert all(det2(p, q) > 0 for p, q in zip(peeled, peeled[1:]))
    # one compose for the lines' product, which starts at its first factor,
    # then one per ray peeled: the first line and every new ray
    assert composed == [(6, 6)] * (1 + 1 + rays)
    assert tracer.stats["scattering.path_ordered_product"][0] == 0
    assert tracer.counts["scattering.rounds"] == 0
    assert tracer.counts["scattering.defect_terms"] > 0


def test_an_action_on_the_fixed_tail_builds_no_power(monkeypatch):
    # sigma = id + O(t^d) on the generators fixes every term above t-degree
    # N - d.  During a completion, each action builds only the generator
    # powers that its other non-constant terms need (for an exponent e, steps
    # between +-1 and e), and an action with no such term returns its
    # argument.  The completion's actions mix both kinds of term, so the
    # test counts the fixed-term powers that were skipped.
    ctx = TruncationContext(12, 1)
    d = Diagram(ctx, tuple(
        Wall(g, WallKind.LINE, k_wall_log(ctx, KFactor(g, 3))) for g in ((1, 0), (0, 1))
    ))
    apply_ring = AutPair.apply_ring
    skipped = []

    def recording(self, f, powers=None):
        table = {} if powers is None else powers
        before = set(table)
        image = apply_ring(self, f, table)
        moves = [(img - SeriesElem.monomial(ctx, e)).t_order()
                 for img, e in zip(images_of(self)[0], ((1, 0), (0, 1)))]
        top = ctx.order - min((o for o in moves if o is not None), default=ctx.order + 1)
        moving = [(m1, m2) for m1, m2, j in f.coeffs if (m1 or m2) and j <= top]
        fixed = [(m1, m2) for m1, m2, j in f.coeffs if (m1 or m2) and j > top]
        needed = set()
        for axis in (0, 1):
            es = [m[axis] for m in moving]
            needed |= {(axis, e) for e in range(min(es + [0]), max(es + [0]) + 1)}
        assert set(table) - before <= needed
        if not moving:
            assert image is f
        skipped.extend(key for m in fixed for key in ((0, m[0]), (1, m[1]))
                       if key not in needed | before)
        return image

    monkeypatch.setattr(AutPair, "apply_ring", recording)
    completed = scattering.complete(d)
    assert len(completed.walls) > 2
    assert skipped


def test_a_generator_power_keeps_logarithmically_many_steps():
    # P^e is built along the binary digits of |e| from P^(+-1): a square per
    # digit and a product per 1 digit, each kept, so the table grows with
    # log |e|, not |e|; the powers multiply as powers do
    ctx = TruncationContext(3, 1)
    g = exp(LieElem.single(ctx, (1, 1), 1, dvec=(1, -1)))
    for e in (1000, -1000, 2**20 + 1, -(2**20 - 1)):
        powers = {}
        image = g.apply_ring(SeriesElem.monomial(ctx, (e, 0)), powers)
        assert len(powers) <= 2 * abs(e).bit_length()
        step = 1 if e > 0 else -1
        assert image == g.apply_ring(SeriesElem.monomial(ctx, (e - step, 0))) * g.apply_ring(
            SeriesElem.monomial(ctx, (step, 0)))
        assert image * g.apply_ring(SeriesElem.monomial(ctx, (-e, 0))) == SeriesElem.one(ctx)


def test_every_truncated_series_is_summed_by_one_routine(monkeypatch):
    # exp, log and the inverse of a unit are truncated operator series, all
    # summed by series._operator_series: once for the generator images and
    # once per gauge column, or once for the unit; the values invert each
    # other exactly
    ctx = TruncationContext(6, 2)
    x = LieElem.single(ctx, (1, 0), 1, matrix=elementary(2, 0, 1, 1), dvec=(0, 2))
    y = LieElem.single(ctx, (0, 1), 2, matrix=elementary(2, 1, 0, -1), dvec=(-3, 0))
    g = compose(exp(x), exp(y))
    unit = SeriesElem.one(ctx) - SeriesElem.monomial(ctx, (1, 1), 1, 2)
    cases = {
        "exp": (lambda: exp(x + y), 1 + ctx.rank),
        "log": (lambda: log(g), 1 + ctx.rank),
        "invert_unit": (unit.invert_unit, 1),
    }
    calls, values = [], {}
    routine = series._operator_series

    def counted(*args):
        calls.append(args)
        return routine(*args)

    with monkeypatch.context() as patch:
        patch.setattr(series, "_operator_series", counted)
        patch.setattr(vertexlie, "_operator_series", counted)
        for name, (fn, count) in cases.items():
            calls.clear()
            values[name] = fn()
            assert len(calls) == count, name
    assert log(values["exp"]) == x + y
    assert fresh_exp(values["log"]) == g
    assert unit * values["invert_unit"] == SeriesElem.one(ctx)


def test_a_square_zero_element_runs_no_series_and_no_power(monkeypatch):
    # with 2s > N an element squares to zero: exp(x) = 1 + x, log g = g - 1
    # and sigma(z^m) = z^m (1 + m1 u1 + m2 u2), so exp, exp_pair and log sum
    # no operator series and the action builds no generator power, even for
    # a negative exponent; at t-order s = N // 2 both run as before.  Either
    # way each of them makes one _group_series call, the one home of the
    # step bound and of the one-step case
    ctx = TruncationContext(6, 2)
    calls = {"_group_series": 0, "_operator_series": 0, "_gen_power": 0}
    group_series, routine = vertexlie._group_series, vertexlie._operator_series
    gen_power = AutPair._gen_power

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(vertexlie, "_group_series", counted("_group_series", group_series))
    monkeypatch.setattr(vertexlie, "_operator_series", counted("_operator_series", routine))
    monkeypatch.setattr(AutPair, "_gen_power", counted("_gen_power", gen_power))
    f = SeriesElem(ctx, {(-1, 2, 0): 1, (3, -1, 1): Fraction(1, 2), (0, 0, 2): 5})
    for s, runs in ((4, False), (3, True)):
        def element():
            return LieElem.single(ctx, (-1, 2), s, matrix=elementary(2, 0, 1, 3), dvec=(-2, -1))

        group = fresh_exp(element())
        # each case's group element; log's is exp(-log g), the inverse it keeps
        for name, fn in (("exp", lambda: exp(element())),
                         ("exp_pair", lambda: vertexlie.exp_pair(element())[1]),
                         ("log", lambda: exp(-log(group)))):
            calls.update(_group_series=0, _operator_series=0, _gen_power=0)
            g = fn()
            assert calls["_group_series"] == 1, (name, s)
            assert bool(calls["_operator_series"]) == runs, (name, s)
            calls.update(_operator_series=0, _gen_power=0)
            image = g.apply_ring(f)
            assert bool(calls["_gen_power"]) == runs, (name, s)
            assert image != f
        assert log(group) == element()


def test_engine_runs_without_the_rational_boundary(monkeypatch, tmp_path, capsys):
    # Fraction appears only at parsing and printing: once the inputs are
    # parsed, completion, consistency, bch and the path-ordered product
    # neither build a Lie element from rational terms nor read its rational
    # view, and no command reads that view to write a file, a report, a plot
    # or the 2d-4d factors
    rand1 = serialize.diagram_from_json(json.loads((EXAMPLE1.parent / "rand1.json").read_text()))
    ctx = TruncationContext(8, 1)
    kronecker = Diagram(ctx, tuple(
        Wall(g, WallKind.LINE, k_wall_log(ctx, KFactor(g, 3))) for g in ((1, 0), (0, 1))
    ))
    bch_input = tmp_path / "bch.json"
    bch_input.write_text(json.dumps({"rank": 2, "truncation": 3, "x": [
        {"m": [1, 0], "t": 1, "matrix": [["1/2", "1"], ["0", "0"]], "derivation": ["0", "2"]},
    ], "y": [
        {"m": [0, 1], "t": 1, "matrix": [["0", "0"], ["3", "0"]], "derivation": ["-1/3", "0"]},
    ]}))
    k_pair = tmp_path / "k.json"
    k_pair.write_text(json.dumps({"vacua": ["i"], "truncation": 4, "factors": [
        {"type": "K", "gamma": [1, 0], "Omega": 1}, {"type": "K", "gamma": [0, 1], "Omega": 2}]}))
    monkeypatch.chdir(tmp_path)

    def crossed(*_args):
        raise AssertionError("the engine crossed the rational boundary")

    monkeypatch.setattr(LieElem, "terms", property(crossed))
    fixtures = EXAMPLE1.parent
    runs = [
        (0, ["complete", str(fixtures / "rand1.json"), "--output", "out.json",
             "--emit-svg", "out.svg", "--emit-csv", "out.csv"]),
        (0, ["check", "out.json"]),
        (1, ["check", str(fixtures / "rand2.json")]),
        (0, ["wcf", str(EXAMPLE1), "--output", "wcf.json"]),
        (0, ["wcf", str(k_pair)]),
        (0, ["bch", str(bch_input), "--output", "bch_out.json"]),
        (0, ["plot", "out.json", "--emit-svg", "plot.svg", "--emit-csv", "plot.csv"]),
    ]
    for code, argv in runs:
        assert cli.main(argv) == code, argv
    out = capsys.readouterr().out
    assert "lowest defect" in out and "S'[i,j]" in out and "K' charge=(1,1)" in out
    assert all((tmp_path / f).stat().st_size for f in ("out.svg", "plot.csv", "bch_out.json"))

    # the engine builds no element from rational terms either
    monkeypatch.setattr(LieElem, "from_terms", staticmethod(crossed))
    completed = scattering.complete(rand1)
    assert scattering.is_consistent(completed)
    first, second = completed.walls[:2]
    assert not bch(first.logf, second.logf).is_zero()
    assert not scattering.path_ordered_product(kronecker).is_identity()


def _layout_reads(tree) -> list[str]:
    """Lines that read the attribute ``coeffs`` or ``den`` of a series."""
    return sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "den"))


def test_only_the_ring_modules_read_a_series_numerators():
    # a series' numerators and denominator are the layout of series and
    # vertexlie; the front modules read a Lie element's terms as integer
    # pairs through LieElem.ratios
    reads = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
             if path.stem not in ("series", "vertexlie")
             and (names := _layout_reads(ast.parse(path.read_text())))}
    assert reads == {}


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (string annotations count as reads)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(
                    n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    # an import kept only so that a hook can patch it hides what the module
    # really calls; the package root's re-exports are its public API
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Functions, classes and non-dunder methods no other code of ``sources`` names.

    A reference is a bare name or an attribute name anywhere outside the
    definition's own body, in any module.  Matching is by name only, so a
    method named like some other function (``SeriesElem.exp`` against
    ``vertexlie.exp``) is not caught.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    references = [
        (name, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == node.name and not (module == name and line in body)
                for module, ref, line in references
            ):
                unused.append(f"{name}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_referenced_by_the_package():
    # code that only tests reach belongs in tests/ as a named oracle; the
    # package root's re-exports do not count as a use
    sources = {
        path.name: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert _unreferenced_definitions(sources) == []


def _dict_writes(tree) -> list[int]:
    """Lines that assign into an object's ``__dict__`` or call a method of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                   and t.value.attr == "__dict__" for t in targets):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "__dict__"
              and node.func.attr != "get"):
            lines.append(node.lineno)
    return lines


def _foreign_private_attributes(tree) -> list[str]:
    """``_``-prefixed, non-dunder attributes read that the module itself does not define."""
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.endswith("__") and node.attr not in own
    )


def test_each_type_owns_its_layout():
    # the exponential memo lives where vertexlie puts it, and only vertexlie
    # writes it; the front modules reach the engine's types through their
    # public methods, never through another module's private names
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    writes = {name: lines for name, tree in trees.items()
              if name != "vertexlie" and (lines := _dict_writes(tree))}
    assert writes == {}
    private = {name: names for name in ("scattering", "groupoid", "serialize", "report", "cli")
               if (names := _foreign_private_attributes(trees[name]))}
    assert private == {}


def _zero_log_tests(tree) -> list[str]:
    """``Class.function`` (or ``function``) of each ``logf.is_zero()`` call in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "is_zero"):
                owner = child.func.value
                if (isinstance(owner, ast.Name) and owner.id == "logf"
                        or isinstance(owner, ast.Attribute) and owner.attr == "logf"):
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_one_place_asks_whether_a_wall_is_zero():
    # a zero wall carries the identity; the diagram drops it where it is
    # built, so no other code needs a zero-wall case
    reads = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := _zero_log_tests(ast.parse(path.read_text())))}
    assert reads == {"scattering": ["Diagram.__post_init__"]}


def _pro_unipotent_messages(tree) -> dict[str, list[str]]:
    """The ``not pro-unipotent`` strings of a module, by the innermost function holding them."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else scope
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and child.value.startswith("not pro-unipotent")):
                found.setdefault(inner, []).append(child.value)
            visit(child, inner)

    visit(tree, None)
    return found


def test_one_scan_judges_and_bounds_every_group_series():
    # the lowest t-degrees of a group element's parts say both whether it is
    # pro-unipotent and how many terms its series need; _group_series reads
    # them once, so the two messages live there and log asks no t_order
    messages = {path.stem: found for path in sorted(PACKAGE.glob("*.py"))
                if (found := _pro_unipotent_messages(ast.parse(path.read_text())))}
    assert messages == {"vertexlie": {"_group_series": [
        "not pro-unipotent: generator image is not z^e*(1 + O(t))",
        "not pro-unipotent: gauge constant term is not the identity",
    ]}}
    tree = ast.parse((PACKAGE / "vertexlie.py").read_text())
    (log_def,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "log"]
    assert [ast.unparse(node) for node in ast.walk(log_def) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "t_order"] == []


def _input_rules(tree) -> dict[str, list[str]]:
    """Per function: dict checks of its first argument, object messages, ValueError guards."""
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        first = fn.args.args[0].arg if fn.args.args else None
        rules = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node) == f"isinstance({first}, dict)":
                rules.append("object check")
            elif isinstance(node, ast.Raise) and "must be a JSON object" in ast.unparse(node):
                rules.append("object message")
            elif isinstance(node, ast.Raise) and ast.unparse(node) == (
                    "raise SchemaError(str(e)) from None"):
                rules.append("guard")
        if rules:
            found[fn.name] = sorted(rules)
    return found


def test_each_input_rule_has_one_home_in_the_readers():
    # _fields judges whether a document is a JSON object, for every reader,
    # and each public reader turns the engine's ValueError into a
    # SchemaError in one guard
    rules = _input_rules(ast.parse((PACKAGE / "serialize.py").read_text()))
    assert rules == {
        "_fields": ["object check", "object message"],
        "diagram_from_json": ["guard"],
        "bps_from_json": ["guard"],
        "bch_from_json": ["guard"],
    }
