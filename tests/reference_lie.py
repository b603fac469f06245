"""The extended vertex Lie algebra over ``Fraction`` dicts: the test oracle for ``LieElem``.

An element is a plain dict ``{(m, j): (A, d)}`` of rational r x r matrices
``A`` and rational dual vectors ``d``, with no zero terms and no term above
the truncation order, and every operation is the textbook one, term by term.
:class:`~wallcross.vertexlie.LieElem` stores the same element as three parts
in the series ring (the two derivation coordinates and the matrix part); its
rational view ``terms`` must equal the dict this module computes for the same
operation.  Series are ``reference_series`` dicts ``{(m1, m2, j): Fraction}``.
"""

from fractions import Fraction

import reference_series as ref

_ZERO = Fraction(0)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


def clean(terms: dict, order: int) -> dict:
    """Rational entries, with zero terms and terms above ``order`` dropped."""
    out = {}
    for (m, j), (a, d) in terms.items():
        a = tuple(tuple(Fraction(x) for x in row) for row in a)
        d = (Fraction(d[0]), Fraction(d[1]))
        if j <= order and (any(x for row in a for x in row) or any(d)):
            out[(tuple(m), j)] = (a, d)
    return out


def add(x: dict, y: dict, order: int) -> dict:
    out = dict(x)
    for k, (a, d) in y.items():
        if k in out:
            a0, d0 = out[k]
            out[k] = (mat_add(a0, a), (d0[0] + d[0], d0[1] + d[1]))
        else:
            out[k] = (a, d)
    return clean(out, order)


def scale(x: dict, c, order: int) -> dict:
    c = Fraction(c)
    return clean({k: (mat_scale(a, c), (c * d[0], c * d[1])) for k, (a, d) in x.items()}, order)


def degree_part(x: dict, j: int) -> dict:
    return {k: v for k, v in x.items() if k[1] == j}


def t_order(x: dict) -> int | None:
    return min((j for (_, j) in x), default=None)


def apply_derivation(x: dict, f: dict, order: int) -> dict:
    """sum t^j z^m d(f) over the terms: d(z^m') = <m', d> z^m'."""
    out: dict = {}
    for (m, j), (_a, d) in x.items():
        for (f1, f2, jf), c in f.items():
            k = (f1 + m[0], f2 + m[1], j + jf)
            out[k] = out.get(k, 0) + c * (f1 * d[0] + f2 * d[1])
    return ref.truncate(out, order)


def apply_matrix(x: dict, vec: list[dict], order: int) -> list[dict]:
    """sum t^j z^m A s over the terms, for a section ``s`` of series."""
    out = [{} for _ in vec]
    for (m, j), (a, _d) in x.items():
        for i, row in enumerate(a):
            for k, c in enumerate(row):
                for (f1, f2, jf), cf in vec[k].items():
                    key = (f1 + m[0], f2 + m[1], j + jf)
                    out[i][key] = out[i].get(key, 0) + c * cf
    return [ref.truncate(f, order) for f in out]


def apply_section(x: dict, vec: list[dict], order: int) -> list[dict]:
    """The first-order operator on a section: the derivation entrywise plus the matrix."""
    derived = [apply_derivation(x, f, order) for f in vec]
    return [ref.add(a, b, order) for a, b in zip(derived, apply_matrix(x, vec, order))]
