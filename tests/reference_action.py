"""The path-ordered product acted out wall by wall: an oracle that shares no code with the group law.

A wall element on the ray through p has the log  sum (A_kj, d_kj) z^(kp) t^j
with every d_kj orthogonal to p.  Its derivation D therefore kills every
function of z^p and maps z^m to z^m h_m, with h_m = sum <m, d_kj> z^(kp) t^j
such a function.  So the ring automorphism is, in closed form,

    sigma(z^m) = exp(D)(z^m) = z^m exp(h_m),

and the module action D + A maps a constant section e_i to A^k e_i after k
steps (D kills the entries of A), so the gauge is exp(A), the matrix
exponential of the matrix part.  A product theta_1 o ... o theta_s acts wall
by wall, last factor first: its ring map is sigma_1 o ... o sigma_s and
gauge(theta_1 o theta_2) = G_1 sigma_1(G_2).

Every series is a ``Fraction`` dict of ``reference_series``.  The walls are
read through ``LieElem.terms`` and the loop is ordered by
``lattice.angular_sort``; nothing here calls the engine's exponential,
product, logarithm or any action of an ``AutPair``.
"""

from fractions import Fraction

import reference_series as rs
from wallcross.lattice import WallKind, angular_sort

_ONE = {(0, 0, 0): Fraction(1)}


def _series_exp(h: rs.Coeffs, order: int) -> rs.Coeffs:
    """exp(h) = sum_k h^k / k! for h of positive t-order."""
    acc = term = _ONE
    for k in range(1, order + 1):
        term = rs.scale(rs.mul(term, h, order), Fraction(1, k), order)
        acc = rs.add(acc, term, order)
    return acc


def _identity(rank: int) -> list[list[rs.Coeffs]]:
    return [[dict(_ONE) if i == k else {} for k in range(rank)] for i in range(rank)]


def _mat_mul(a, b, order: int) -> list[list[rs.Coeffs]]:
    r = len(a)
    out = [[{} for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for k in range(r):
            for l in range(r):
                out[i][k] = rs.add(out[i][k], rs.mul(a[i][l], b[l][k], order), order)
    return out


def _mat_exp(a, order: int) -> list[list[rs.Coeffs]]:
    """exp(a) = sum_k a^k / k! for a matrix of positive t-order."""
    acc = term = _identity(len(a))
    for k in range(1, order + 1):
        term = [[rs.scale(f, Fraction(1, k), order) for f in row]
                for row in _mat_mul(term, a, order)]
        acc = [[rs.add(f, g, order) for f, g in zip(ra, rb)] for ra, rb in zip(acc, term)]
    return acc


class _WallFactor:
    """The automorphism exp(sign * x) of one ray, x a wall's log."""

    def __init__(self, x, sign: int):
        ctx = x.ctx
        self.order = ctx.order
        self.terms = [(m, j, sign * d[0], sign * d[1]) for (m, j), (_a, d) in x.terms.items()]
        a = [[{} for _ in range(ctx.rank)] for _ in range(ctx.rank)]
        for (m, j), (mat, _d) in x.terms.items():
            for i, row in enumerate(mat):
                for k, c in enumerate(row):
                    a[i][k] = rs.add(a[i][k], {(m[0], m[1], j): sign * c}, self.order)
        self.gauge = _mat_exp(a, self.order)
        self._units: dict = {}

    def _unit(self, m) -> rs.Coeffs:
        """exp(h_m), h_m = sum <m, d> z^(kp) t^j over the terms, kept per m."""
        if m not in self._units:
            h = {(f[0], f[1], j): m[0] * d1 + m[1] * d2 for f, j, d1, d2 in self.terms}
            self._units[m] = _series_exp(rs.truncate(h, self.order), self.order)
        return self._units[m]

    def act(self, f: rs.Coeffs) -> rs.Coeffs:
        """sigma(f): each term c z^m t^j goes to c z^m t^j exp(h_m)."""
        out: dict = {}
        for (m1, m2, j), c in f.items():
            for (k1, k2, k), e in self._unit((m1, m2)).items():
                key = (m1 + k1, m2 + k2, j + k)
                out[key] = out.get(key, 0) + c * e
        return rs.truncate(out, self.order)


def reference_product(ctx, factors) -> tuple[list[rs.Coeffs], list[list[rs.Coeffs]]]:
    """``(images, gauge)`` of exp(s_1 x_1) o ... o exp(s_k x_k), the first factor acting last.

    ``factors`` lists the pairs ``(x_i, s_i)``, a log in ``ctx`` and a sign
    of 1 or -1; no factor gives the identity's images and gauge.
    """
    images = [{(1, 0, 0): Fraction(1)}, {(0, 1, 0): Fraction(1)}]
    gauge = _identity(ctx.rank)
    for x, sign in reversed(factors):
        theta = _WallFactor(x, sign)
        images = [theta.act(f) for f in images]
        gauge = _mat_mul(theta.gauge, [[theta.act(f) for f in row] for row in gauge], ctx.order)
    return images, gauge


def reference_images(d) -> tuple[list[rs.Coeffs], list[list[rs.Coeffs]]]:
    """``(images, gauge)`` of the loop around ``d``: sigma(z^(e_i)) and the gauge matrix.

    The +m ray of a wall carries exp(x), the -m ray of a line exp(-x), and
    the first ray crossed counterclockwise from the positive x-axis acts last.
    """
    factors = {}
    for w in d.walls:
        p = w.direction
        factors[p] = (w.logf, 1)
        if w.kind is WallKind.LINE:
            factors[(-p[0], -p[1])] = (w.logf, -1)
    return reference_product(d.ctx, [factors[p] for p in angular_sort(list(factors))])
