"""Rays of the m-Kronecker scattering diagram from quiver moduli, over ``Fraction``.

A test oracle that imports nothing from ``wallcross``: the central ray in
closed form, and the Euler characteristics of Kronecker moduli that every
coprime ray is read from (the second half of this module).  The diagram is
``kronecker_doc(m, m, N)``: lines on (1,0) and (0,1), each with the log

    L = m * sum_l (1/l) t^l z^(l gamma) * d_n,

d_n the derivation of the primitive normal n.  Gross and Pandharipande
conjectured the function of its (1,1) ray in "Quivers, curves, and the
tropical vertex", and Reineke proved it in "Cohomology of quiver moduli,
functional equations, and integrality of Donaldson-Thomas type
invariants".  For their standard diagram, lines with the functions
(1 + tx)^m and (1 + ty)^m, it is

    f_(1,1) = S_m(t^2 xy)^(m^2),
    S_m(u) = sum_k C((m-1)^2 k, k) / ((m^2 - 2m) k + 1) * u^k.

**The factor -m^2.**  A wall here whose log is L * d_n is, in the
convention of Gross, Pandharipande and Siebert, the wall with the function
exp(-L) at -t:

- The sign of the function is the orientation convention.  This engine
  orients d_n by the counterclockwise normal and lets the first crossed
  wall act last.  Its consistent diagrams are theirs with every function
  inverted.  The pentagon (m = 1) shows it: the engine completes the lines
  -log(1 - tx) * d_n and -log(1 - ty) * d_n with the ray
  -log(1 + t^2 xy) * d_n, while their lines 1 + tx and 1 + ty give the ray
  1 + t^2 xy.  m = 2 agrees too: its ray here is 4 log(1 - t^2 xy) * d_n,
  while theirs is (1 - t^2 xy)^(-4).
- t -> -t is a ring automorphism, so it maps consistent diagrams to
  consistent diagrams.

The lines match: exp(-L) = exp(m log(1 - t z^gamma)) = (1 - t z^gamma)^m,
which is (1 + t z^gamma)^m at -t.  So the (1,1) ray's log is
-log f_(1,1) * d_n = -m^2 log S_m(u) * d_n with u = t^2 z^(1,1), and u is
even in t.  Its normal coefficient (the scalar c with d = c * n) at
frequency (k,k) and t-degree 2k is therefore

    -m^2 * [u^k] log S_m(u).

m = 1 is left out: there the k = 1 term of S_m is 0/0.
"""

from fractions import Fraction
from functools import cache
from math import comb


def central_series(m: int, count: int) -> list[Fraction]:
    """The coefficients [u^k] S_m(u) for k = 0..count, for m >= 2."""
    if m < 2:
        raise ValueError("S_m is defined here for m >= 2")
    return [Fraction(comb((m - 1) ** 2 * k, k), (m * m - 2 * m) * k + 1) for k in range(count + 1)]


def log_series(s: list[Fraction]) -> list[Fraction]:
    """The coefficients of log S for S = sum_k s[k] u^k with s[0] = 1; the constant is 0.

    From S' = S * (log S)':  k s_k = sum_(j=1..k) j l_j s_(k-j).
    """
    if s[0] != 1:
        raise ValueError("log S needs S(0) = 1")
    out = [Fraction(0)] * len(s)
    for k in range(1, len(s)):
        out[k] = s[k] - Fraction(sum(j * out[j] * s[k - j] for j in range(1, k)), k)
    return out


def central_ray_normal_coefficients(m: int, count: int) -> dict[int, Fraction]:
    """``{k: c_k}`` for k = 1..count: the (1,1) ray's normal coefficient at (k,k), t^(2k)."""
    logs = log_series(central_series(m, count))
    return {k: -m * m * logs[k] for k in range(1, count + 1)}


# -- every coprime ray: Euler characteristics of Kronecker moduli ------------------
#
# The m-Kronecker quiver K_m has two vertices and m arrows 1 -> 2.  For a
# coprime dimension vector d = (a, b), Reineke ("Poisson automorphisms and
# quiver moduli") reads the ray of the diagram above in direction (a, b) off
# the moduli space M^st_d(K_m) of stable representations for the slope
# mu(d) = a / (a + b): the ray's normal coefficient at frequency (a, b) and
# t-degree a + b is (-1)^(a+b+1) m chi(M^st_d(K_m)).  At d = (1, 1), where
# M^st_d is P^(m-1), that is -m^2, the central ray's first coefficient; at
# d = (1, 0) it is m, the line's own.
#
# Counted over F_q, the semistable representations of d modulo the group
# G_d = GL_a x GL_b follow from the Harder-Narasimhan stratification, in
# the resolved form of Reineke ("The Harder-Narasimhan system in quantum
# groups and cohomology of quiver moduli"):
#
#     |R^sst_d| / |G_d| = sum (-1)^(s-1) q^(-sum_(k<l) <d^l, d^k>) prod_k P(d^k),
#
# over ordered tuples d^1 + ... + d^s = d of nonzero dimension vectors whose
# proper prefix sums d^1 + ... + d^k (k < s) all have slope above mu(d), with
# P(e) = |R_e| / |G_e| = q^(m e1 e2) / (|GL_e1(F_q)| |GL_e2(F_q)|) and the
# Euler form <d, e> = d1 e1 + d2 e2 - m d1 e2.  For coprime d every
# semistable representation is stable with scalar stabilizers, so
# |M^st_d(F_q)| = (q - 1) |R^sst_d| / |G_d|, a polynomial in q of degree
# dim = 1 - <d, d> (the moduli space is smooth and projective with pure
# cohomology).  Its value at q = 1 is the Euler characteristic.


def _euler_form(m: int, d: tuple[int, int], e: tuple[int, int]) -> int:
    return d[0] * e[0] + d[1] * e[1] - m * d[0] * e[1]


def _gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _semistable_count(m: int, d: tuple[int, int], q: int) -> Fraction:
    """|R^sst_d(F_q)| / |G_d(F_q)| by the prefix sum above, one prefix at a time.

    ``prefix[e]`` is the signed sum over the tuples with sum e whose prefix
    sums, e included, all have slope above mu(d); appending d^(k+1) = f to
    such a tuple adds the factor -q^(-<f, e>) P(f).
    """
    a, b = d
    slope = Fraction(a, a + b)
    vectors = [(i, j) for i in range(a + 1) for j in range(b + 1) if i or j]
    count = {f: Fraction(q ** (m * f[0] * f[1]), _gl_order(f[0], q) * _gl_order(f[1], q))
             for f in vectors}

    def extend(e):
        return -sum(prefix[s] * Fraction(q) ** -_euler_form(m, f, s) * count[f]
                    for f in vectors if f[0] <= e[0] and f[1] <= e[1]
                    for s in [(e[0] - f[0], e[1] - f[1])] if s in prefix)

    prefix = {(0, 0): Fraction(1)}
    for e in vectors:  # lexicographic, so every e - f comes before e
        if e != d and Fraction(e[0], e[0] + e[1]) > slope:
            prefix[e] = extend(e)
    return -extend(d)


def _interpolate_at_one(points: list[tuple[int, Fraction]]) -> Fraction:
    """The value at q = 1 of the polynomial through ``points`` (Lagrange)."""
    total = Fraction(0)
    for i, (qi, vi) in enumerate(points):
        term = vi
        for j, (qj, _vj) in enumerate(points):
            if j != i:
                term *= Fraction(1 - qj, qi - qj)
        total += term
    return total


@cache
def kronecker_euler_characteristic(m: int, a: int, b: int) -> int:
    """chi(M^st_(a,b)(K_m)) for coprime a, b >= 0 (0 when no stable representation exists).

    (q - 1) |R^sst| / |G| is evaluated at q = 2 .. dim + 2 and interpolated
    at q = 1.
    """
    dim = 1 - _euler_form(m, (a, b), (a, b))
    points = [(q, (q - 1) * _semistable_count(m, (a, b), q)) for q in range(2, max(dim, 0) + 3)]
    chi = _interpolate_at_one(points)
    if chi.denominator != 1:
        raise ValueError(f"non-integral Euler characteristic {chi} at {(a, b)}")
    return int(chi)
