"""The truncated series ring over ``Fraction`` coefficients: the test oracle for ``series``.

Each element is a plain dict ``{(m1, m2, j): Fraction}`` with no zero values,
and every operation is the textbook one, coefficient by coefficient.
``series.SeriesElem`` stores integer numerators over one shared denominator
instead; its :meth:`~wallcross.series.SeriesElem.fractions` must equal the
dict this module computes for the same operation.
"""

from fractions import Fraction
from math import gcd

Coeffs = dict[tuple[int, int, int], Fraction]


def assert_normal(x) -> None:
    """``SeriesElem`` normal form: ``den > 0``, nonzero integer numerators, gcd 1."""
    assert x.den > 0
    assert all(type(v) is int and v for v in x.coeffs.values())
    # gcd(den) == den, so this also asks den == 1 for the zero element
    assert gcd(x.den, *x.coeffs.values()) == 1


def _clean(coeffs: dict, order: int) -> Coeffs:
    return {k: Fraction(c) for k, c in coeffs.items() if c and k[2] <= order}


def add(a: Coeffs, b: Coeffs, order: int) -> Coeffs:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return _clean(out, order)


def neg(a: Coeffs) -> Coeffs:
    return {k: -c for k, c in a.items()}


def sub(a: Coeffs, b: Coeffs, order: int) -> Coeffs:
    return add(a, neg(b), order)


def mul(a: Coeffs, b: Coeffs, order: int) -> Coeffs:
    out: dict = {}
    for (a1, a2, ja), ca in a.items():
        for (b1, b2, jb), cb in b.items():
            k = (a1 + b1, a2 + b2, ja + jb)
            out[k] = out.get(k, 0) + ca * cb
    return _clean(out, order)


def scale(a: Coeffs, c, order: int) -> Coeffs:
    return _clean({k: Fraction(c) * v for k, v in a.items()}, order)


def truncate(a: Coeffs, order: int) -> Coeffs:
    return _clean(a, order)


def _one() -> Coeffs:
    return {(0, 0, 0): Fraction(1)}


def invert_unit(a: Coeffs, order: int) -> Coeffs:
    """(c z^m0 (1 + n))^(-1) = c^(-1) z^(-m0) (1 - n + n^2 - ...)."""
    ((m1, m2, _), c0), = [(k, c) for k, c in a.items() if k[2] == 0]
    head_inv = {(-m1, -m2, 0): 1 / c0}
    n = sub(mul(head_inv, a, order), _one(), order)
    acc, term = _one(), _one()
    for k in range(1, order + 1):
        term = mul(term, n, order)
        acc = add(acc, scale(term, (-1) ** k, order), order)
    return mul(acc, head_inv, order)

