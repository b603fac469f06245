"""The termwise Lie bracket of the extended vertex algebra: a test oracle.

``wallcross.vertexlie`` never brackets two elements: its group law runs on
the faithful representation (:class:`~wallcross.vertexlie.AutPair`), and
``bch`` is ``log(compose(exp x, exp y))``.  The bracket here is the closed
formula of the algebra,

    [(A, d_n) z^m, (A', d_n') z^m'] =
        ([A, A'] + A' <m', n> - A <m, n'>,  d_{<m',n> n' - <m,n'> n}) z^(m+m')

so the tests can check the representation against it (the operator
commutator equals the bracket), and ``bch`` against the Dynkin series
:func:`bch_reference`.
"""

from fractions import Fraction

from wallcross.exceptions import ConventionError
from wallcross.series import _check_same_context
from reference_lie import mat_add, mat_is_zero, mat_scale
from wallcross.vertexlie import LieElem

_ZERO = Fraction(0)


def mat_mul(a, b):
    r = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(r)), _ZERO) for j in range(r))
        for i in range(r)
    )


def mat_commutator(a, b):
    return mat_add(mat_mul(a, b), mat_scale(mat_mul(b, a), Fraction(-1)))


def bracket(x: LieElem, y: LieElem) -> LieElem:
    """The Lie bracket, computed termwise.

    A nonzero result at frequency zero cannot occur for inputs supported in
    a strictly convex cone; it signals misuse and raises.
    """
    _check_same_context(x, y)
    N = x.ctx.order
    acc = {}
    for (m, j), (a, d) in x.terms.items():
        for (m2, j2), (a2, d2) in y.terms.items():
            jj = j + j2
            if jj > N:
                continue
            p = m2[0] * d[0] + m2[1] * d[1]      # <m', n>
            q = m[0] * d2[0] + m[1] * d2[1]      # <m, n'>
            mat = mat_commutator(a, a2)
            if p:
                mat = mat_add(mat, mat_scale(a2, p))
            if q:
                mat = mat_add(mat, mat_scale(a, -q))
            dv = (p * d2[0] - q * d[0], p * d2[1] - q * d[1])
            if mat_is_zero(mat) and dv == (_ZERO, _ZERO):
                continue
            key = ((m[0] + m2[0], m[1] + m2[1]), jj)
            if key in acc:
                a0, d0 = acc[key]
                acc[key] = (mat_add(a0, mat), (d0[0] + dv[0], d0[1] + dv[1]))
            else:
                acc[key] = (mat, dv)
    for (m, j) in list(acc):
        if m == (0, 0):
            a0, d0 = acc[(m, j)]
            if mat_is_zero(a0) and d0 == (_ZERO, _ZERO):
                del acc[(m, j)]
            else:
                raise ConventionError(
                    "bracket leaves the Lie algebra: nonzero term at frequency zero"
                )
    return LieElem.from_terms(x.ctx, acc)


def bch_reference(x: LieElem, y: LieElem) -> LieElem:
    """Dynkin series through total bracket degree 4 (the oracle for ``vertexlie.bch``).

    Exact whenever every word of length > 4 is killed by the truncation,
    e.g. for x, y of t-order >= 1 at N <= 4.
    """
    xy = bracket(x, y)
    xxy = bracket(x, xy)
    yyx = bracket(y, bracket(y, x))
    yxxy = bracket(y, xxy)
    return (
        x
        + y
        + xy.scale(Fraction(1, 2))
        + xxy.scale(Fraction(1, 12))
        + yyx.scale(Fraction(1, 12))
        - yxxy.scale(Fraction(1, 24))
    )
