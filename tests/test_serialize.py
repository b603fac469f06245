import json
import random

import pytest

from conftest import rand_wall_log
from wallcross.exceptions import SchemaError
from wallcross.lattice import WallKind
from wallcross.scattering import Diagram, Wall
from wallcross.serialize import (
    bch_from_json,
    bch_to_json,
    bps_from_json,
    diagram_from_json,
    diagram_to_json,
    dumps,
    frac_str,
    lie_terms_from_json,
    lie_terms_to_json,
    parse_frac,
)
from wallcross.series import TruncationContext
from wallcross.vertexlie import LieElem


def test_fraction_strings():
    from fractions import Fraction

    assert parse_frac("2/4") == Fraction(1, 2)
    assert parse_frac("-3") == Fraction(-3)
    with pytest.raises(SchemaError):
        parse_frac("1/0")
    with pytest.raises(SchemaError):
        parse_frac("pi")
    # every spelling of zero reads as zero, and zero prints as "0"
    for zero in ("0", "0/3", "-0", 0, "0.0"):
        assert parse_frac(zero) == 0
    assert frac_str(Fraction(0)) == "0" and frac_str(Fraction(-6, 4)) == "-3/2"
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
    from conftest import rand_lie

    ctx = TruncationContext(4, 2)
    for _ in range(10):
        x = rand_lie(ctx, rng)
        assert lie_terms_from_json(ctx, lie_terms_to_json(x), ctx.order) == x


def test_bch_file_roundtrip():
    rng = random.Random(11)
    from conftest import rand_lie

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
