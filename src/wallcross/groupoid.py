"""The 2d-4d wall-crossing solver: BPS factors in, produced factors out.

A 2d-4d problem lists S factors (a soliton between two vacua, with charge
coordinate ``m(gamma_ij)`` and strength ``mu``) and K factors (a 4d charge
with its BPS index ``Omega``).  Each factor becomes a wall log in the extended
vertex Lie algebra of rank ``len(vacua)``:

    S:  (-mu t^d E_ij w^(m(gamma_ij)), 0)
    K:  (0, Omega sum_l (1/l) t^(l d) w^(l gamma) d_n)

``solve_wcf`` puts these on lines, completes the diagram, and reads every
produced ray back as S'/K' factors.  The two directions are one codec:
:func:`factor_log` writes a factor as its wall log and :func:`ray_factors`
reads a ray log back, with one sign ``_S_SIGN`` for mu and one K series,
:func:`k_wall_log`.  These wall logs are the bridge images of
the S/K generators of the untwisted groupoid ring; the ring and the bridge
are a test oracle (``tests/reference_groupoid_ring.py``) that checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from . import scattering
from .exceptions import ConventionError, SchemaError
from .lattice import Vec, WallKind, normal_coefficient, primitive_normal, primitive_part
from .scattering import Diagram, Wall
from .series import TruncationContext
from .vertexlie import LieElem, elementary, mat_zero

# Appendix-style sign for the matrix-part image of upsilon.  +1 reproduces
# log(theta_S) = (-mu t E_ij w^m, 0) for the S generator; -1 is the variant
# sign kept for auditability.
UPSILON_MATRIX_SIGN = 1

# The sign of mu in an S-factor wall log, and of a matrix entry read back as mu'.
_S_SIGN = -UPSILON_MATRIX_SIGN


@dataclass(frozen=True)
class BpsContext:
    """The vacua and the truncation order of a 2d-4d problem.

    ``series``, built here, is the problem's :class:`TruncationContext` (rank
    ``max(1, len(vacua))``), so an order below 1 raises ``ValueError``; it
    takes no part in ``==``, the hash or ``repr``.
    """

    vacua: tuple[str, ...]
    order: int
    series: TruncationContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vacua)) != len(self.vacua):
            raise ValueError("duplicate vacuum names")
        object.__setattr__(self, "series", TruncationContext(self.order, max(1, len(self.vacua))))


@dataclass(frozen=True)
class SFactor:
    """An input S-type BPS factor: soliton between two vacua."""

    pair: tuple[str, str]
    gamma: Vec  # charge coordinate m(gamma_ij)
    mu: int
    degree: int = 1


@dataclass(frozen=True)
class KFactor:
    """An input K-type BPS factor: 4d charge with its BPS index."""

    gamma: Vec
    omega: int
    degree: int = 1


Factor = Union[SFactor, KFactor]


@dataclass(frozen=True)
class BpsProblem:
    context: BpsContext
    factors: tuple[Factor, ...]

    def __post_init__(self):
        for f in self.factors:
            if f.gamma == (0, 0):
                raise SchemaError("factor directions must be nonzero")


@dataclass(frozen=True)
class ProducedFactor:
    """A wall-crossing factor read off from a produced ray."""

    kind: str  # "S" or "K"
    direction: Vec
    degree: int
    pair: tuple[str, str] | None  # S only
    charge: Vec
    strength: Fraction  # mu' for S, Omega' for K
    dilog_pattern: bool | None = None  # K only: full series matches the standard shape


@dataclass(frozen=True)
class WcfSolution:
    problem: BpsProblem
    initial: Diagram
    completed: Diagram
    produced: tuple[ProducedFactor, ...]
    consistent: bool


def k_wall_log(lie_ctx: TruncationContext, f: KFactor) -> LieElem:
    """(0, Omega sum_l (1/l) t^(l d) w^(l gamma) d_n), the K-factor wall log."""
    n = primitive_normal(f.gamma)
    terms = {}
    for l in range(1, lie_ctx.order // f.degree + 1):
        c = Fraction(f.omega, l)
        terms[((l * f.gamma[0], l * f.gamma[1]), l * f.degree)] = (
            mat_zero(lie_ctx.rank),
            (c * n[0], c * n[1]),
        )
    return LieElem.from_terms(lie_ctx, terms)


def factor_log(ctx: BpsContext, lie_ctx: TruncationContext, f: Factor) -> LieElem:
    """The wall log of one BPS factor; :func:`ray_factors` reads it back.

    An S factor gives (_S_SIGN mu t^d E_ij w^gamma, 0), a K factor
    :func:`k_wall_log`: the bridge image of the factor's generator, which
    the test suite checks against the upsilon route.
    """
    if isinstance(f, KFactor):
        return k_wall_log(lie_ctx, f)
    i, j = (ctx.vacua.index(v) for v in f.pair)
    a = elementary(lie_ctx.rank, i, j, _S_SIGN * f.mu)
    return LieElem.single(lie_ctx, f.gamma, f.degree, matrix=a)


def build_initial_diagram(problem: BpsProblem, lie_ctx: TruncationContext) -> Diagram:
    ctx = problem.context
    d = Diagram(lie_ctx, ())
    for f in problem.factors:
        p = primitive_part(f.gamma)
        anti = (-p[0], -p[1])
        if d.wall_in_direction(anti) is not None:
            raise SchemaError(
                f"anti-parallel factor directions {p} and {anti}: "
                "these cannot be merged into one wall"
            )
        d = scattering.merge_wall(d, Wall(p, WallKind.LINE, factor_log(ctx, lie_ctx, f)))
    return d


def ray_factors(ctx: BpsContext, wall: Wall) -> list[ProducedFactor]:
    """Read a ray log back as S'/K' factors; the inverse of :func:`factor_log`.

    Each off-diagonal matrix entry c of the term at ``(m, j)`` is an S'
    factor with mu' = _S_SIGN c, since the sign is its own inverse; the S'
    factors come sorted by (row, column, frequency, degree).  The lowest
    derivation term gives one K' factor, whose ``dilog_pattern`` says
    whether the whole derivation part is :func:`k_wall_log` of it.  A
    diagonal entry has no S/K reading and raises :class:`ConventionError`
    naming the lowest (degree, frequency, row) one.
    """
    s_parts = []
    k_lowest = None
    # terms come by t-degree, then frequency: the first K term is the lowest
    for (m, j), (a, d) in wall.logf.ratios().items():
        for row, entries in enumerate(a):
            for col, (p, q) in enumerate(entries):
                if not p:
                    continue
                if row == col:
                    raise ConventionError(
                        f"unrecognized 2d factor: matrix entry ({row},{col}) "
                        f"of the ray log at frequency {m}, degree {j}"
                    )
                s_parts.append((row, col, m, j, Fraction(_S_SIGN * p, q)))
        if k_lowest is None and (d[0][0] or d[1][0]):
            k_lowest = (m, j, Fraction(*normal_coefficient(m, d)))
    out = [
        ProducedFactor("S", wall.direction, j, (ctx.vacua[row], ctx.vacua[col]), m, mu)
        for row, col, m, j, mu in sorted(s_parts)
    ]
    if k_lowest is not None:
        m1, j1, c1 = k_lowest
        logf = wall.logf
        expected = k_wall_log(logf.ctx, KFactor(m1, 1, j1)).scale(c1)
        dilog = (logf.d1, logf.d2) == (expected.d1, expected.d2)
        out.append(ProducedFactor("K", wall.direction, j1, None, m1, c1, dilog))
    return out


def solve_wcf(problem: BpsProblem) -> WcfSolution:
    """Build the diagram of a 2d-4d problem, complete it, and read it back."""
    ctx = problem.context
    initial = build_initial_diagram(problem, ctx.series)
    completed = scattering.complete(initial)
    produced = [p for w in scattering.new_rays(initial, completed) for p in ray_factors(ctx, w)]
    return WcfSolution(
        problem=problem,
        initial=initial,
        completed=completed,
        produced=tuple(produced),
        consistent=scattering.is_consistent(completed),
    )
