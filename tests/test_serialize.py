import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_diagram, rand_lie, rand_wall_log
from wallcross import cli, scattering
from wallcross.exceptions import SchemaError
from wallcross.lattice import WallKind, content, primitive_normal
from wallcross.scattering import Diagram, Wall
from wallcross.serialize import (
    _parse_ratio,
    bch_from_json,
    bch_to_json,
    bps_from_json,
    diagram_from_json,
    diagram_to_json,
    dumps,
    lie_terms_from_json,
    lie_terms_to_json,
    parse_frac,
    ratio_str,
)
from wallcross.series import TruncationContext
from wallcross.vertexlie import LieElem, bch


def test_fraction_strings():
    assert parse_frac("2/4") == Fraction(1, 2)
    assert parse_frac("-3") == Fraction(-3)
    with pytest.raises(SchemaError):
        parse_frac("1/0")
    with pytest.raises(SchemaError):
        parse_frac("pi")
    # every spelling of zero reads as zero, and zero prints as "0"
    for zero in ("0", "0/3", "-0", 0, "0.0"):
        assert parse_frac(zero) == 0
    assert ratio_str(0, 7) == "0" and ratio_str(-6, 4) == "-3/2"
    for bad in ("0/0", "00x", " "):
        with pytest.raises(SchemaError):
            parse_frac(bad)


def test_diagram_roundtrip_random():
    rng = random.Random(42)
    for _ in range(10):
        ctx = TruncationContext(rng.randint(2, 5), rng.randint(1, 3))
        walls = []
        for direction in [(1, 0), (0, 1), (1, 1)]:
            logf = rand_wall_log(ctx, rng, direction)
            if logf.is_zero():
                continue
            kind = WallKind.LINE if rng.random() < 0.5 else WallKind.RAY
            walls.append(Wall(direction, kind, logf))
        d = Diagram(ctx, tuple(walls))
        data = diagram_to_json(d)
        back = diagram_from_json(json.loads(dumps(data)))
        assert back.ctx == d.ctx
        assert {w.direction: (w.kind, w.logf) for w in back.walls} == {
            w.direction: (w.kind, w.logf) for w in d.walls
        }


def test_serialization_is_deterministic():
    rng = random.Random(1)
    ctx = TruncationContext(4, 2)
    d = Diagram(ctx, (Wall((1, 0), WallKind.LINE, rand_wall_log(ctx, rng, (1, 0))),))
    assert dumps(diagram_to_json(d)) == dumps(diagram_to_json(d))


def test_diagram_schema_errors():
    with pytest.raises(SchemaError, match="missing key"):
        diagram_from_json({"rank": 2})
    with pytest.raises(SchemaError, match="geometry"):
        diagram_from_json(
            {"rank": 1, "truncation": 2, "walls": [{"direction": [1, 0], "geometry": "arc"}]}
        )
    with pytest.raises(SchemaError, match="direction"):
        diagram_from_json(
            {"rank": 1, "truncation": 2, "walls": [{"direction": [1], "geometry": "ray"}]}
        )
    with pytest.raises(SchemaError, match="k must be"):
        diagram_from_json(
            {
                "rank": 1,
                "truncation": 2,
                "walls": [
                    {"direction": [1, 0], "geometry": "ray", "terms": [{"t": 1, "k": 0}]}
                ],
            }
        )


def test_bps_loading_and_basepoints():
    data = {
        "vacua": ["i", "j"],
        "truncation": 4,
        "twisting": "trivial",
        "basepoints": {"i": [1, 0], "j": [0, 0]},
        "factors": [
            {"type": "S", "pair": ["i", "j"], "gamma": [2, 1], "mu": 3},
            {"type": "K", "gamma": [0, 1], "Omega": 2},
        ],
    }
    problem, n = bps_from_json(data)
    assert n == 4
    s, k = problem.factors
    # charge coordinate subtracts the basepoint difference e_i - e_j = (1, 0)
    assert s.gamma == (1, 1)
    assert s.mu == 3
    assert k.gamma == (0, 1) and k.omega == 2


def test_bps_schema_errors():
    with pytest.raises(SchemaError, match="vacua"):
        bps_from_json({"factors": []})
    with pytest.raises(SchemaError, match="truncation"):
        bps_from_json({"vacua": ["i"], "factors": []})
    with pytest.raises(SchemaError, match="unknown factor type"):
        bps_from_json(
            {"vacua": ["i"], "truncation": 3, "factors": [{"type": "Q", "gamma": [1, 0]}]}
        )
    with pytest.raises(SchemaError, match="unknown vacua"):
        bps_from_json(
            {
                "vacua": ["i"],
                "truncation": 3,
                "factors": [{"type": "S", "pair": ["i", "x"], "gamma": [1, 0], "mu": 1}],
            }
        )


def test_lie_terms_roundtrip():
    rng = random.Random(7)
    ctx = TruncationContext(4, 2)
    for _ in range(10):
        x = rand_lie(ctx, rng)
        assert lie_terms_from_json(ctx, lie_terms_to_json(x), ctx.order) == x


def test_bch_file_roundtrip():
    rng = random.Random(11)
    ctx = TruncationContext(4, 2)
    for _ in range(10):
        x = rand_lie(ctx, rng)
        doc = bch_to_json(x)
        assert (doc["rank"], doc["truncation"]) == (2, 4)
        # a result's terms read back as x; the "result" key is not an input key
        back = {"rank": 2, "truncation": 4, "x": doc["result"]}
        got, y = bch_from_json(back, None)
        assert got == x and y.is_zero()
        # a lower order drops the terms above it; without a truncation key the order is used
        low, _ = bch_from_json({"rank": 2, "x": doc["result"]}, 4)
        assert low == x
        assert bch_from_json(back, 2)[0] == LieElem.from_terms(
            TruncationContext(2, 2), x.terms
        )


# -- the integer reader and writer --------------------------------------------------


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _spelled(draw):
    """A spelling built from the parts Fraction's grammar names, valid or not."""
    digits = st.text("0123456789", min_size=0, max_size=4)
    num = draw(st.sampled_from(["", "0", "00"])) + draw(digits)
    if draw(st.booleans()):
        num = num[:1] + "_" + num[1:]
    tail = draw(st.sampled_from(["", "/", "."]))
    if tail:
        tail += draw(digits)
    if tail != "/" and draw(st.booleans()):
        tail += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+", "-"]))
        tail += draw(st.text("0123456789", min_size=0, max_size=2))
    s = draw(st.sampled_from(["", "-", "+", "--"])) + num + tail
    if draw(st.booleans()):
        s = s.translate(_ARABIC_INDIC)
    pad = st.sampled_from(["", " ", "\t", "\n"])
    return draw(pad) + s + draw(pad)


_SPELLINGS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)).map(lambda pq: "%d/%d" % pq),
    st.sampled_from(["007", "-007/09", "-0", "0/3", "0/0", "1/0", "-0/5", "+3", "+1/2", " 1/2 ",
                     "0.5", "-.25", "1.", ".", "1e3", "2.5E-2", "1e+2", "1_000", "1__0", "_1",
                     "1_", "١٢/٣", "1/2/3", "1/-2", "pi", "", " ", "inf", "nan", "1.dd"]),
    _spelled(),
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([None, True, [1], {"p": 1}]),
)


@settings(max_examples=200, deadline=None)
@given(_SPELLINGS)
def test_the_reader_reads_what_fraction_reads(s):
    # whitespace beside "/" (read by Python 3.12 and later) is rejected on every
    # version, and exponents stay far below the digit limit: both are tested apart
    text = str(s)
    before, slash, after = text.partition("/")
    if slash and (before[-1:].isspace() or after[:1].isspace()):
        return
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        with pytest.raises(SchemaError) as info:
            _parse_ratio(s)
        # a rejected spelling with no "/" gets the message of Python 3.10 and
        # 3.13, which 3.11 and 3.12 give too except for a decimal part of
        # literal d's ("1.d"): there Fraction's own message comes from int()
        message = f"Invalid literal for Fraction: {text!r}" if not slash else e
        assert str(info.value) == f"bad rational {s!r}: {message}"
    else:
        assert _parse_ratio(s) == (want.numerator, want.denominator)
        assert parse_frac(s) == want


@pytest.mark.parametrize("s", ["2 / 3", "2 /3", "2/ 3", "2/\t3", " 1 / 2 "])
def test_whitespace_beside_the_slash_is_rejected_on_every_version(s):
    with pytest.raises(SchemaError) as info:
        _parse_ratio(s)
    assert str(info.value) == f"bad rational {s!r}: Invalid literal for Fraction: {s!r}"


@pytest.mark.parametrize("s", ["1.d", "1.D", "1.dd", " 1.d "])
def test_a_malformed_decimal_gets_one_message_on_every_version(s):
    with pytest.raises(SchemaError) as info:
        _parse_ratio(s)
    assert str(info.value) == f"bad rational {s!r}: Invalid literal for Fraction: {s!r}"


@pytest.mark.parametrize("s", ["1e10000000", "1e-10000000", "0e10000000", "1.5e4300",
                               "1" * 4000 + "e400", "1e-4300", "0." + "0" * 4301 + "1"])
def test_a_spelling_over_the_digit_limit_is_rejected_before_it_is_expanded(s):
    with pytest.raises(SchemaError, match="more digits than Python's limit of 4300"):
        parse_frac(s)


def test_spellings_at_the_digit_limit_are_read():
    assert parse_frac("1e4299") == 10**4299
    assert parse_frac("1e-4299") == Fraction(1, 10**4299)
    assert parse_frac("0e4300") == 0


def _old_wall_to_json(w):
    """The writer through the rational view ``LieElem.terms``: the oracle for the integer one."""
    def frac(c):
        return str(Fraction(c)) if c else "0"

    n = primitive_normal(w.direction)
    terms = [
        {"t": j, "k": content(m), "matrix": [[frac(c) for c in row] for row in a],
         "derivation": frac(d[0] / n[0] if n[0] else d[1] / n[1])}
        for (m, j), (a, d) in w.logf.terms.items()
    ]
    return {"direction": list(w.direction), "geometry": w.kind.value, "terms": terms}


def _random_diagram(rng, directions=((1, 2), (2, 1), (-1, 3), (3, -2))):
    ctx = TruncationContext(rng.randint(2, 5), rng.randint(1, 3))
    walls = [Wall(p, rng.choice(list(WallKind)), rand_wall_log(ctx, rng, p)) for p in directions]
    return Diagram(ctx, tuple(walls))


def test_the_writer_matches_the_rational_view():
    # normals with a negative or non-unit component: (-2,1), (-1,2), (-3,-1), (2,3)
    rng = random.Random(5)
    for _ in range(20):
        d = _random_diagram(rng)
        assert diagram_to_json(d)["walls"] == [
            _old_wall_to_json(w) for w in sorted(d.walls, key=lambda w: w.direction)]
    assert ratio_str(3, -6) == "-1/2" and ratio_str(0, 5) == "0" and ratio_str(-4, 2) == "-2"


def _documents():
    for name in cli.FIXTURES:
        yield diagram_to_json(scattering.complete(fixture_diagram(name)))
    rng = random.Random(3)
    for _ in range(5):
        yield diagram_to_json(_random_diagram(rng))
        ctx = TruncationContext(rng.randint(2, 4), rng.randint(1, 3))
        yield bch_to_json(bch(rand_lie(ctx, rng), rand_lie(ctx, rng)))
    yield {"empty": [], "nested": {}, "text": "é\"\\\n", "n": -12}


def test_dumps_writes_what_json_writes():
    for doc in _documents():
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for bad in (1.5, None, True, (1, 2), {1: "a"}):
        with pytest.raises(TypeError):
            dumps({"x": bad})


def test_dumps_leaves_nothing_for_the_cyclic_collector():
    doc = diagram_to_json(scattering.complete(fixture_diagram("rand3")))
    gc.disable()
    try:
        gc.collect()
        dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
