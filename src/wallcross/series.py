"""The truncated coefficient ring Q[L][t]/(t^(N+1)) and matrices over it.

Elements are sparse sums  sum c * z^m * t^j  with exact rational coefficients
``c``, Laurent exponents ``m`` in the rank-2 lattice (negative coordinates
allowed), and t-degree ``0 <= j <= N``.  Products drop every term whose
t-degree exceeds the truncation order, so exp/log of positive-order elements
are finite sums and all identities hold exactly, with no tolerance.

A :class:`TruncationContext` fixes the truncation order ``N`` and the rank
``r`` of the matrix factor used by the extended vertex algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import Vec

Key = tuple[int, int, int]  # (m1, m2, t-degree)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TruncationContext:
    """Truncation order N (series kept modulo t^(N+1)) and matrix rank r."""

    order: int
    rank: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")
        if self.rank < 1:
            raise ValueError("matrix rank must be >= 1")


def _check_same_context(a, b):
    if a.ctx != b.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {b.ctx}")


@dataclass(frozen=True)
class SeriesElem:
    """A sparse element of Q[L][t]/(t^(N+1)).

    ``coeffs`` maps ``(m1, m2, j)`` to a nonzero Fraction.  Instances are
    immutable; arithmetic returns new elements with zero terms pruned.
    """

    ctx: TruncationContext
    coeffs: dict[Key, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        pruned = {}
        order = self.ctx.order
        for key, c in self.coeffs.items():
            j = key[2]
            if j < 0:
                raise ValueError("negative t-degree")
            if j > order or c == 0:
                continue
            pruned[key] = c if type(c) is Fraction else Fraction(c)
        object.__setattr__(self, "coeffs", pruned)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(ctx: TruncationContext) -> "SeriesElem":
        return SeriesElem(ctx, {})

    @staticmethod
    def one(ctx: TruncationContext) -> "SeriesElem":
        return SeriesElem(ctx, {(0, 0, 0): _ONE})

    @staticmethod
    def monomial(ctx: TruncationContext, m: Vec, j: int = 0, c=1) -> "SeriesElem":
        return SeriesElem(ctx, {(m[0], m[1], j): Fraction(c)})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "SeriesElem") -> "SeriesElem":
        _check_same_context(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, _ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SeriesElem(self.ctx, out)

    def __neg__(self) -> "SeriesElem":
        return SeriesElem(self.ctx, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "SeriesElem") -> "SeriesElem":
        return self + (-other)

    def __mul__(self, other: "SeriesElem") -> "SeriesElem":
        _check_same_context(self, other)
        N = self.ctx.order
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[Key, Fraction] = {}
        for (a1, a2, ja), ca in a.items():
            for (b1, b2, jb), cb in b.items():
                j = ja + jb
                if j > N:
                    continue
                k = (a1 + b1, a2 + b2, j)
                s = out.get(k, _ZERO) + ca * cb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return SeriesElem(self.ctx, out)

    def scale(self, c) -> "SeriesElem":
        c = Fraction(c)
        if not c:
            return SeriesElem.zero(self.ctx)
        return SeriesElem(self.ctx, {k: c * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def t_order(self) -> int | None:
        """Lowest t-degree with a nonzero term, or None for the zero element."""
        if not self.coeffs:
            return None
        return min(j for (_, _, j) in self.coeffs)

    def truncate(self, order: int) -> "SeriesElem":
        """Reduce to a lower truncation order (same lattice support)."""
        ctx = TruncationContext(order, self.ctx.rank)
        return SeriesElem(ctx, {k: c for k, c in self.coeffs.items() if k[2] <= order})

    # -- unit inversion and exp/log --------------------------------------------

    def invert_unit(self) -> "SeriesElem":
        """Invert ``c * z^m0 * (1 + n)`` with ``n`` of positive t-order.

        Uses the finite geometric series for ``(1 + n)^{-1}``; the product
        with the result is exactly 1 modulo t^(N+1).
        """
        lead = {k: c for k, c in self.coeffs.items() if k[2] == 0}
        if len(lead) != 1:
            raise ValueError("not a unit: t-degree-0 part is not a single monomial")
        (m1, m2, _), c0 = next(iter(lead.items()))
        head_inv = SeriesElem.monomial(self.ctx, (-m1, -m2), 0, 1 / c0)
        n = head_inv * self - SeriesElem.one(self.ctx)
        # (1 + n)^{-1} = 1 - n + n^2 - ...
        acc = SeriesElem.one(self.ctx)
        term = SeriesElem.one(self.ctx)
        sign = -1
        for _ in range(self.ctx.order):
            term = term * n
            if term.is_zero():
                break
            acc = acc + term.scale(sign)
            sign = -sign
        return acc * head_inv

    def exp(self) -> "SeriesElem":
        """exp of an element of positive t-order (finite sum after truncation)."""
        if not self.is_zero() and self.t_order() == 0:
            raise ValueError("exp needs positive t-order")
        acc = SeriesElem.one(self.ctx)
        term = SeriesElem.one(self.ctx)
        for k in range(1, self.ctx.order + 1):
            term = (term * self).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        return acc

    def log1p(self) -> "SeriesElem":
        """log(1 + a) for ``a`` of positive t-order."""
        if not self.is_zero() and self.t_order() == 0:
            raise ValueError("log1p needs positive t-order")
        acc = SeriesElem.zero(self.ctx)
        power = SeriesElem.one(self.ctx)
        for k in range(1, self.ctx.order + 1):
            power = power * self
            if power.is_zero():
                break
            acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
        return acc


# -- matrices over the series ring ---------------------------------------------


@dataclass(frozen=True)
class SeriesMatrix:
    """An r x r matrix with SeriesElem entries."""

    ctx: TruncationContext
    rows: tuple[tuple[SeriesElem, ...], ...]

    def __post_init__(self):
        r = self.ctx.rank
        if len(self.rows) != r or any(len(row) != r for row in self.rows):
            raise ValueError(f"matrix shape does not match rank {r}")

    @staticmethod
    def identity(ctx: TruncationContext) -> "SeriesMatrix":
        one, z = SeriesElem.one(ctx), SeriesElem.zero(ctx)
        return SeriesMatrix(
            ctx,
            tuple(tuple(one if i == j else z for j in range(ctx.rank)) for i in range(ctx.rank)),
        )

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        _check_same_context(self, other)
        return SeriesMatrix(
            self.ctx,
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self) -> "SeriesMatrix":
        return SeriesMatrix(self.ctx, tuple(tuple(-a for a in row) for row in self.rows))

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self + (-other)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        _check_same_context(self, other)
        r = self.ctx.rank
        rows = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = SeriesElem.zero(self.ctx)
                for k in range(r):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return SeriesMatrix(self.ctx, tuple(rows))

    def matvec(self, vec: tuple[SeriesElem, ...]) -> tuple[SeriesElem, ...]:
        r = self.ctx.rank
        out = []
        for i in range(r):
            acc = SeriesElem.zero(self.ctx)
            for k in range(r):
                acc = acc + self.rows[i][k] * vec[k]
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def t_order(self) -> int | None:
        orders = [a.t_order() for row in self.rows for a in row if not a.is_zero()]
        return min(orders) if orders else None
