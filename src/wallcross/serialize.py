"""The file formats: diagrams, BPS problems, and ``bch`` inputs and results.

Every text format the CLI reads or writes is parsed and emitted here.

Rationals serialize as canonical lowest-terms strings (``"p/q"`` with q > 1,
bare ``"p"`` for integers); exponents as integer pairs.  Dictionary keys are
emitted in sorted order, walls by direction and terms by t-degree, then
frequency, so equal values serialize byte-identically.

Diagram files::

    {"rank": r, "truncation": N,
     "walls": [{"direction": [a, b], "geometry": "line"|"ray",
                "terms": [{"t": j, "k": multiple,
                           "matrix": [["p/q", ...], ...],
                           "derivation": "p/q"}]}]}

The ``derivation`` coefficient is relative to the primitive normal of the
wall direction.  The wall data stops at ``N``: a term above it is rejected,
and an order override may lower the truncation (dropping the terms above
the new order) but not raise it.  No two walls may cover the same ray (a
line covers both of its rays).  Loops start at the positive x-axis, so a
``base_direction`` key, which older files used to choose the loop start, is
rejected.  ``bch`` input files::

    {"rank": r, "truncation": N,
     "x": [{"m": [a, b], "t": j, "matrix": [["p/q", ...], ...],
            "derivation": ["p/q", "p/q"]}],
     "y": [...]}

follow the same truncation rule; ``truncation`` may be left out when an
order is passed, and is then that order.  Each derivation is a dual vector
orthogonal to its frequency, and the frequencies of ``x`` and ``y`` together
must lie in one open half-plane.  The result is written as
``{"rank": r, "truncation": N, "result": [terms as in x]}``, the BCH
product of ``x`` and ``y`` at order N.  BPS problem files::

    {"vacua": ["i", "j", ...], "basepoints": {"i": [x, y], ...},
     "factors": [{"type": "S", "pair": ["i", "j"], "gamma": [x, y], "mu": n},
                 {"type": "K", "gamma": [x, y], "Omega": n}],
     "truncation": N}

``basepoints`` (default ``[0, 0]`` per vacuum) shift an S factor's charge to
its coordinate ``gamma - e_i + e_j``; ``truncation`` may be left out when an
order is passed.  A factor whose count is an explicit 0 is dropped.  The
solver works in the untwisted groupoid ring, so a ``"twisting"`` key other
than ``"trivial"`` is rejected.  Counts, orders and lattice coordinates must
be JSON integers; every malformed value raises :class:`SchemaError`.

Each object takes the keys shown (a BPS file also ``twisting``) and no other,
so a misspelled key is an error, not an absent one; a missing key is named
before an unknown one.  Optional are a wall's ``geometry`` (``"line"``) and
``terms``, a term's ``matrix`` and ``derivation`` (zero), a BPS file's
``twisting``, ``basepoints`` and ``factors``, a ``bch`` input's ``x`` and
``y``, and ``truncation`` as noted.  A wall whose log is zero counts for the
same-ray rule only: :class:`~wallcross.scattering.Diagram` then drops it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exceptions import SchemaError
from .groupoid import BpsContext, BpsProblem, KFactor, SFactor
from .lattice import WallKind, content, in_open_half_plane, normal_coefficient, primitive_normal
from .scattering import Diagram, Wall
from .series import TruncationContext
from .vertexlie import LieElem, mat_zero

_ZERO = Fraction(0)


def frac_str(c: Fraction) -> str:
    return str(Fraction(c)) if c else "0"


def parse_frac(s) -> Fraction:
    if s == "0":
        return _ZERO
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {s!r}: {e}") from None


def _int(v, what) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"bad {what}: {v!r} (expected an integer)")
    return v


def _vec(v, what="vector") -> tuple[int, int]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(f"bad {what}: {v!r} (expected a pair of integers)")
    return (_int(v[0], what), _int(v[1], what))


def _fields(obj: dict, what: str, required: tuple, **optional) -> list:
    """The values of ``obj`` at its ``required`` keys, then at ``optional`` ones or their defaults.

    No other key is allowed; a missing key is reported before an unknown one.
    """
    for key in required:
        if key not in obj:
            raise SchemaError(f"{what} missing key {key!r}")
    for key in obj:
        if key not in optional and key not in required:
            raise SchemaError(f"{what} has unknown key {key!r}")
    return [obj[key] for key in required] + [obj.get(k, v) for k, v in optional.items()]


def _objects(v, what) -> list[dict]:
    if not isinstance(v, list) or not all(isinstance(x, dict) for x in v):
        raise SchemaError(f"{what} must be a list of objects")
    return v


def _matrix(mat, rank: int):
    if mat is None:
        return mat_zero(rank)
    if (
        not isinstance(mat, list)
        or len(mat) != rank
        or any(not isinstance(row, list) or len(row) != rank for row in mat)
    ):
        raise SchemaError("matrix shape does not match rank")
    return tuple(tuple(parse_frac(x) for x in row) for row in mat)


def _matrix_json(a) -> list[list[str]]:
    return [[frac_str(c) for c in row] for row in a]


# -- diagrams --------------------------------------------------------------------


def wall_to_json(w: Wall) -> dict:
    terms = [
        {
            "t": j,
            "k": content(m),
            "matrix": _matrix_json(a),
            "derivation": frac_str(normal_coefficient(w.direction, d)),
        }
        for (m, j), (a, d) in w.logf.terms.items()
    ]
    return {"direction": list(w.direction), "geometry": w.kind.value, "terms": terms}


def diagram_to_json(d: Diagram) -> dict:
    return {
        "rank": d.ctx.rank,
        "truncation": d.ctx.order,
        "walls": [wall_to_json(w) for w in sorted(d.walls, key=lambda w: w.direction)],
    }


def diagram_from_json(data: dict, order: int | None = None) -> Diagram:
    """Parse a diagram file; ``order`` may lower its truncation, never raise it."""
    if not isinstance(data, dict):
        raise SchemaError("diagram file must be a JSON object")
    if "base_direction" in data:
        raise SchemaError(
            "base_direction is no longer accepted: every loop starts at the positive x-axis"
        )
    rank, truncation, walls_data = _fields(data, "diagram file", ("rank", "truncation", "walls"))
    truncation = _int(truncation, "truncation")
    try:
        ctx = TruncationContext(read_order(truncation, order), _int(rank, "rank"))
        walls = tuple(
            _wall_from_json(ctx, wd, truncation) for wd in _objects(walls_data, "walls")
        )
        return Diagram(ctx, walls)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def read_order(truncation: int, order: int | None) -> int:
    """The order a file is read at: its ``truncation``, or a lower ``order``."""
    if order is not None and order > truncation:
        raise SchemaError(
            f"order {order} exceeds the file's truncation {truncation}, where its data stops"
        )
    return truncation if order is None else order


def _t_degree(j, truncation: int) -> int:
    j = _int(j, "t-degree")
    if j > truncation:
        raise SchemaError(f"term at t-degree {j} exceeds the file's truncation {truncation}")
    return j


def _wall_from_json(ctx: TruncationContext, wd: dict, truncation: int) -> Wall:
    direction, geometry, terms_data = _fields(wd, "wall", ("direction",), geometry="line", terms=[])
    direction = _vec(direction, "direction")
    if geometry not in ("line", "ray"):
        raise SchemaError(f"bad geometry {geometry!r}")
    nrm = primitive_normal(direction)
    terms = {}
    for td in _objects(terms_data, "terms"):
        j, k, mat, dc = _fields(td, "wall term", ("t", "k"), matrix=None, derivation="0")
        j, k = _t_degree(j, truncation), _int(k, "frequency multiple k")
        if k < 1:
            raise SchemaError("frequency multiple k must be >= 1")
        m = (k * direction[0], k * direction[1])
        a, dc = _matrix(mat, ctx.rank), parse_frac(dc)
        key = (m, j)
        if key in terms:
            raise SchemaError(f"duplicate term at frequency {m}, degree {j}")
        terms[key] = (a, (dc * nrm[0], dc * nrm[1]))
    return Wall(direction, WallKind(geometry), LieElem.from_terms(ctx, terms))


# -- BPS problems -----------------------------------------------------------------


def bps_from_json(data: dict, order: int | None = None) -> tuple[BpsProblem, int]:
    if not isinstance(data, dict):
        raise SchemaError("BPS file must be a JSON object")
    vacua, twisting, truncation, basepoints, factors_data = _fields(
        data, "BPS file", ("vacua",),
        twisting="trivial", truncation=None, basepoints={}, factors=[])
    if not isinstance(vacua, list) or not all(isinstance(v, str) for v in vacua):
        raise SchemaError("vacua must be a list of names")
    if twisting != "trivial":
        raise SchemaError(
            f"unsupported twisting {twisting!r}: the solver works in the "
            'untwisted ring, so only "trivial" is accepted'
        )
    if truncation is not None:
        _int(truncation, "truncation")
    n = order if order is not None else truncation
    if n is None:
        raise SchemaError("no truncation order: set \"truncation\" or pass --order")
    if not isinstance(basepoints, dict):
        raise SchemaError("basepoints must map vacuum names to charge pairs")
    for name in basepoints:
        if name not in vacua:
            raise SchemaError(f"basepoint for unknown vacuum {name!r}")
    shift = {name: _vec(v, "basepoint") for name, v in basepoints.items()}
    try:
        ctx = BpsContext(tuple(vacua), n)
    except ValueError as e:
        raise SchemaError(str(e)) from None
    factors = []
    for fd in _objects(factors_data, "factors"):
        ftype = fd.get("type")
        if ftype not in ("S", "K"):
            raise SchemaError(f"unknown factor type {ftype!r}")
        keys = ("type", "pair", "gamma", "mu") if ftype == "S" else ("type", "gamma", "Omega")
        *_, gamma, count = _fields(fd, f"{ftype} factor", keys)
        gamma, count = _vec(gamma, "gamma"), _int(count, keys[-1])
        if ftype == "K":
            if count:
                factors.append(KFactor(gamma, count))
            continue
        pair = fd["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("S factor needs a pair of vacua")
        i, j = pair
        if i not in vacua or j not in vacua:
            raise SchemaError(f"unknown vacua in pair {pair}")
        if i == j:
            raise SchemaError(f"S factor pair {pair} names one vacuum twice")
        ei, ej = shift.get(i, (0, 0)), shift.get(j, (0, 0))
        g = (gamma[0] - ei[0] + ej[0], gamma[1] - ei[1] + ej[1])
        if g == (0, 0):
            raise SchemaError("S factor has zero charge coordinate")
        if count:
            factors.append(SFactor((i, j), g, count))
    return BpsProblem(ctx, tuple(factors)), n


# -- generic Lie elements (bch command) --------------------------------------------


def bch_from_json(data: dict, order: int | None) -> tuple[LieElem, LieElem]:
    """The ``x`` and ``y`` of a bch input, read at ``order`` (``None``: its truncation)."""
    if not isinstance(data, dict):
        raise SchemaError("bch input must be a JSON object")
    # without a truncation key, the order is the file's truncation
    rank, truncation, x, y = _fields(data, "bch input", ("rank",), truncation=order, x=[], y=[])
    if order is None and "truncation" not in data:
        raise SchemaError("bch input missing key 'truncation'")
    truncation = _int(truncation, "truncation")
    try:
        ctx = TruncationContext(read_order(truncation, order), _int(rank, "rank"))
    except ValueError as e:
        raise SchemaError(str(e)) from None
    x = lie_terms_from_json(ctx, x, truncation)
    y = lie_terms_from_json(ctx, y, truncation)
    if not in_open_half_plane(list(x.frequencies() | y.frequencies())):
        raise SchemaError(
            "the frequencies of x and y must lie in one open half-plane, or the "
            "product leaves the Lie algebra"
        )
    return x, y


def bch_to_json(z: LieElem) -> dict:
    """The bch result document of ``z``."""
    return {"rank": z.ctx.rank, "truncation": z.ctx.order, "result": lie_terms_to_json(z)}


def lie_terms_to_json(x: LieElem) -> list[dict]:
    return [
        {
            "m": list(m),
            "t": j,
            "matrix": _matrix_json(a),
            "derivation": [frac_str(d[0]), frac_str(d[1])],
        }
        for (m, j), (a, d) in x.terms.items()
    ]


def lie_terms_from_json(ctx: TruncationContext, data, truncation: int) -> LieElem:
    """A Lie element read at ``ctx.order`` from a file truncated at ``truncation``."""
    terms = {}
    for td in _objects(data, "terms"):
        m, j, mat, dv = _fields(td, "bch term", ("m", "t"), matrix=None, derivation=["0", "0"])
        m, j, a = _vec(m, "frequency"), _t_degree(j, truncation), _matrix(mat, ctx.rank)
        if not isinstance(dv, list) or len(dv) != 2:
            raise SchemaError("derivation must be a pair of rationals")
        key = (m, j)
        if key in terms:
            raise SchemaError(f"duplicate term at {key}")
        d = (parse_frac(dv[0]), parse_frac(dv[1]))
        if m[0] * d[0] + m[1] * d[1] != 0:
            raise SchemaError(f"derivation at frequency {m} is not orthogonal to it")
        terms[key] = (a, d)
    try:
        return LieElem.from_terms(ctx, terms)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
