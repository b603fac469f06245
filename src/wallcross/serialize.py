"""The file formats: diagrams, BPS problems, and ``bch`` inputs and results.

Every text format the CLI reads or writes is parsed and emitted here.

Rationals serialize as canonical lowest-terms strings (``"p/q"`` with q > 1,
bare ``"p"`` for integers); exponents as integer pairs.  Dictionary keys are
emitted in sorted order, walls by direction and terms by t-degree, then
frequency, so equal values serialize byte-identically.  Files are read into
integer pairs (:meth:`~wallcross.vertexlie.LieElem.from_ratios`) and written
from the integer pairs of :meth:`~wallcross.vertexlie.LieElem.ratios`, its
inverse, so no ``Fraction`` lies between a canonical file and the series ring.

A rational is read from any spelling ``Fraction`` reads on Python 3.10 and
3.11: ``"p"``, ``"-p"`` and ``"p/q"`` (read with ``int``, the common case),
and also surrounding whitespace, a ``+`` sign, leading zeros, underscores
between digits, decimals and exponents (``"0.5"``, ``"1e-3"``), non-ASCII
decimal digits and JSON numbers.  There is no whitespace beside ``/``
(``"2 / 3"`` is an error on every Python version).  No number may have more
digits than Python's limit on a digit string, ``sys.get_int_max_str_digits()``
(4300 by default): a longer digit string is an error, and so is a decimal
or exponent spelling whose numerator or denominator as written would be
longer, which is checked before the number is expanded, so ``"1e10000000"``
fails at once.  A zero denominator is an error.

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
A ``rank``, or a BPS file's number of vacua, above :data:`MAX_RANK` (64) is
an error before any r x r matrix is built, so no short file costs r^2 work.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from .exceptions import SchemaError
from .groupoid import BpsContext, BpsProblem, KFactor, SFactor
from .lattice import WallKind, content, in_open_half_plane, normal_coefficient, primitive_normal
from .scattering import Diagram, Wall
from .series import TruncationContext
from .vertexlie import LieElem

_ZERO = Fraction(0)
_ZERO_RATIO = (0, 1)
MAX_RANK = 64  # the largest matrix rank a file may declare; every fixture has rank <= 4

# Fraction's spellings without "/": integer digits, decimal places, exponent
_DECIMAL = (r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
            r"(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*")


def ratio_str(p: int, q: int) -> str:
    """The rational p/q (q != 0) in lowest terms: ``"p/q"``, or ``"p"`` for an integer."""
    if q != 1 and p:
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        if g != 1:
            p //= g
            q //= g
        if q != 1:
            return f"{p}/{q}"
    return int.__repr__(p)


def parse_frac(s) -> Fraction:
    """The rational spelled ``s``, in any spelling ``Fraction`` reads, bar two.

    Whitespace beside ``/`` is rejected, as Python 3.10 and 3.11 do and
    3.12 does not.  A decimal or exponent spelling is rejected when its
    numerator or its denominator as written, or its run of decimal places,
    has more digits than the limit Python puts on a digit string
    (``sys.get_int_max_str_digits()``); that is checked before the number
    is expanded.  Both, and a spelling with no ``/`` that is no decimal or
    exponent spelling (such as ``"1.d"``, whose message from ``Fraction``
    differs between Python versions), get one message on every version.
    """
    if s == "0":
        return _ZERO
    text = str(s)
    before, slash, after = text.partition("/")
    m = None if slash else re.fullmatch(_DECIMAL, text)
    # whitespace beside "/", or neither "/" nor a decimal spelling
    if (before[-1:].isspace() or after[:1].isspace()) if slash else m is None:
        raise SchemaError(f"bad rational {s!r}: Invalid literal for Fraction: {text!r}")
    # no limit, and no such function, before Python 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and m and _over_digit_limit(m, limit):
        raise SchemaError(f"bad rational {s!r}: more digits than Python's limit of {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {s!r}: {e}") from None


def _over_digit_limit(m: re.Match, limit: int) -> bool:
    """Whether the spelling ``m`` of :data:`_DECIMAL` names a number over ``limit`` digits.

    The mantissa's digits, from its first digit other than 0, times
    10^shift (shift: the exponent less the decimal places) give the
    numerator as written; 10^-shift is the denominator.
    """
    if m.group(2) is None and m.group(3) is None:
        return False
    num, dec, exp = m.groups(default="")
    dec = dec.replace("_", "")
    try:
        shift = (int(exp) if exp else 0) - len(dec)
    except ValueError:  # an exponent over the limit, which Fraction reports
        return False
    digits = len((num.replace("_", "") + dec).lstrip("0"))
    return len(dec) > limit or digits + max(shift, 0) > limit or -shift >= limit


def _parse_ratio(s) -> tuple[int, int]:
    """The rational spelled ``s`` as a lowest-terms pair ``(p, q)``, q > 0.

    ``p``, ``-p`` and ``p/q`` in ASCII digits are read with ``int``; every
    other spelling, and digits over the limit ``int`` reads, by
    :func:`parse_frac`, so its errors stay those of ``parse_frac``.
    """
    if s == "0":
        return _ZERO_RATIO
    if type(s) is str and s.isascii():
        num, slash, den = s.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            try:
                p = int(num)
                q = int(den) if slash else 1
            except ValueError:
                pass
            else:
                if q == 1:
                    return p, 1
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
    c = parse_frac(s)
    return c.numerator, c.denominator


def _int(v, what) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"bad {what}: {v!r} (expected an integer)")
    return v


def _rank(r, what="rank") -> int:
    if _int(r, what) > MAX_RANK:
        raise SchemaError(f"{what} {r} exceeds the largest supported rank {MAX_RANK}")
    return r


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
    """The matrix ``mat`` as rows of integer pairs (:func:`_parse_ratio`); None is zero."""
    if mat is None:
        return ((_ZERO_RATIO,) * rank,) * rank
    if (
        not isinstance(mat, list)
        or len(mat) != rank
        or any(not isinstance(row, list) or len(row) != rank for row in mat)
    ):
        raise SchemaError("matrix shape does not match rank")
    return tuple(tuple(map(_parse_ratio, row)) for row in mat)


# -- diagrams --------------------------------------------------------------------


def wall_to_json(w: Wall) -> dict:
    """The file entry of a wall; the derivation is written over the primitive normal."""
    terms = [
        {"t": j, "k": content(m), "matrix": [[ratio_str(*c) for c in row] for row in a],
         "derivation": ratio_str(*normal_coefficient(w.direction, d))}
        for (m, j), (a, d) in w.logf.ratios().items()
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
        ctx = TruncationContext(read_order(truncation, order), _rank(rank))
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
        a, (p, q) = _matrix(mat, ctx.rank), _parse_ratio(dc)
        key = (m, j)
        if key in terms:
            raise SchemaError(f"duplicate term at frequency {m}, degree {j}")
        terms[key] = (a, ((p * nrm[0], q), (p * nrm[1], q)))
    return Wall(direction, WallKind(geometry), LieElem.from_ratios(ctx, terms))


# -- BPS problems -----------------------------------------------------------------


def bps_from_json(data: dict, order: int | None = None) -> tuple[BpsProblem, int]:
    if not isinstance(data, dict):
        raise SchemaError("BPS file must be a JSON object")
    vacua, twisting, truncation, basepoints, factors_data = _fields(
        data, "BPS file", ("vacua",),
        twisting="trivial", truncation=None, basepoints={}, factors=[])
    if not isinstance(vacua, list) or not all(isinstance(v, str) for v in vacua):
        raise SchemaError("vacua must be a list of names")
    _rank(len(vacua), "number of vacua")
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
        ctx = TruncationContext(read_order(truncation, order), _rank(rank))
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
            "matrix": [[ratio_str(*c) for c in row] for row in a],
            "derivation": [ratio_str(*d[0]), ratio_str(*d[1])],
        }
        for (m, j), (a, d) in x.ratios().items()
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
        (p1, q1), (p2, q2) = d = (_parse_ratio(dv[0]), _parse_ratio(dv[1]))
        if m[0] * p1 * q2 + m[1] * p2 * q1:
            raise SchemaError(f"derivation at frequency {m} is not orthogonal to it")
        terms[key] = (a, d)
    try:
        return LieElem.from_ratios(ctx, terms)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def dumps(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)`` and a newline, for the documents here.

    The values are str, int, list and dict (with str keys); any other type
    raises ``TypeError``.  The text is written in one pass into one list,
    with no encoder object.
    """
    out: list[str] = []
    _write(out, data, "\n")
    out.append("\n")
    return "".join(out)


def _write(out: list, v, newline: str) -> None:
    """Append the JSON text of ``v``, its lines after the first indented as ``newline``."""
    t = type(v)
    if t is str:
        out.append(encode_basestring_ascii(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif t is list and v:
        inner = newline + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(out, x, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif t is dict and v:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(v):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(out, v[key], inner)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list or t is dict:
        out.append("[]" if t is list else "{}")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
