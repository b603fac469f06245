"""The central ray of the m-Kronecker scattering diagram in closed form, over ``Fraction``.

A test oracle that imports nothing from ``wallcross``.  The diagram is
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
