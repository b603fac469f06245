"""The truncated coefficient ring Q[L][t]/(t^(N+1)) and matrices over it.

Elements are sparse sums  sum c * z^m * t^j  with exact rational coefficients
``c``, Laurent exponents ``m`` in the rank-2 lattice (negative coordinates
allowed), and t-degree ``0 <= j <= N``.  Products drop every term whose
t-degree exceeds the truncation order, so power series in positive-order
elements are finite sums and all identities hold exactly, with no tolerance.

The coefficients of one element are stored as integer numerators over one
shared positive denominator, in lowest terms: ``den > 0``, the gcd of
``den`` and every numerator is 1, and ``den == 1`` for zero.  Equal elements
therefore have equal numerators and denominators, so ``==`` is structural.
Products and sums run on Python integers and take one gcd at the end.  A
product is one kernel call (:func:`_mul_add`), and every sum of several
series and products is one :func:`_sum`, added into one integer dict over
one common denominator and normalized once: a matrix entry (also
N1 + M + N1 M, a product's gauge part), an entry of a module action and of
an operator series (:func:`_operator_series`, the exponentials, logarithms
and inverses).  The rationals appear only at the boundary (the public
constructor and :meth:`SeriesElem.fractions`).

Zero is free: a sum or a scaling with a zero operand returns an operand
unchanged, a sum with no nonzero summand is the context's one shared zero,
and a matrix product visits only the nonzero entries, so a gauge part
(gauge - I) with a few nilpotent entries costs only their products.

A :class:`TruncationContext` fixes the truncation order ``N`` and the rank
``r`` of the matrix factor used by the extended vertex algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .lattice import Vec

Key = tuple[int, int, int]  # (m1, m2, t-degree)


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

    @cached_property
    def generators(self) -> tuple["SeriesElem", "SeriesElem"]:
        """z^(e_1) and z^(e_2) in this context, built on first use and kept."""
        return SeriesElem.monomial(self, (1, 0)), SeriesElem.monomial(self, (0, 1))

    @cached_property
    def _zero(self) -> "SeriesElem":
        """The zero series of this context, built on first use and shared."""
        return SeriesElem._normal(self, {}, 1)


def _check_same_context(a, b):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {b.ctx}")


_set = object.__setattr__


def _mul_add(out: dict, a: dict, b: dict, w: int, order: int, shift: int = 0) -> None:
    """Add ``w * t^shift * a * b`` to the integer numerators ``out``, in place.

    ``a`` and ``b`` are numerator dicts keyed ``(m1, m2, j)``; terms above
    t-degree ``order`` are dropped.  This is the one product kernel: a
    series product, a matrix entry and a ring action each run it on one
    ``out`` and normalize the sum once.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for (a1, a2, ja), ca in a.items():
        ja += shift
        if ja > order:
            continue
        ca *= w
        for (b1, b2, jb), cb in b.items():
            j = ja + jb
            if j > order:
                continue
            k = (a1 + b1, a2 + b2, j)
            out[k] = get(k, 0) + ca * cb


class SeriesElem:
    """A sparse element of Q[L][t]/(t^(N+1)).

    ``coeffs`` maps ``(m1, m2, j)`` to a nonzero integer numerator and
    ``den`` is the denominator shared by all of them (see the module
    docstring for the normal form); :meth:`fractions` gives the rational
    coefficients.  Instances are immutable; arithmetic returns new elements
    with zero terms pruned.
    """

    __slots__ = ("ctx", "coeffs", "den")

    def __init__(self, ctx: TruncationContext, coeffs=None):
        """The element with the rational coefficients ``{(m1, m2, j): c}``."""
        order = ctx.order
        rational = {}
        for key, c in (coeffs or {}).items():
            if key[2] < 0:
                raise ValueError("negative t-degree")
            c = Fraction(c)
            if key[2] <= order and c:
                rational[key] = c
        den = lcm(*(c.denominator for c in rational.values()))
        _set(self, "ctx", ctx)
        _set(self, "coeffs", {k: c.numerator * (den // c.denominator) for k, c in rational.items()})
        _set(self, "den", den)

    @staticmethod
    def _make(ctx: TruncationContext, nums: dict, den: int) -> "SeriesElem":
        """The element ``nums / den`` from integer numerators, brought to normal form.

        ``nums`` must be a fresh dict: the result keeps it as its ``coeffs``
        unless a numerator is 0 or a common factor divides out.
        """
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        return SeriesElem._normal(ctx, nums, den)

    @staticmethod
    def _normal(ctx: TruncationContext, nums: dict, den: int) -> "SeriesElem":
        """Wrap numerators and a denominator that are already in normal form."""
        out = object.__new__(SeriesElem)
        _set(out, "ctx", ctx)
        _set(out, "coeffs", nums)
        _set(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SeriesElem is immutable")

    def __eq__(self, other):
        if not isinstance(other, SeriesElem):
            return NotImplemented
        return self.den == other.den and self.coeffs == other.coeffs and self.ctx == other.ctx

    __hash__ = None

    def __repr__(self):
        return f"SeriesElem({self.ctx!r}, {self.fractions()!r})"

    def fractions(self) -> dict[Key, Fraction]:
        """The coefficients as rationals, keyed like ``coeffs``."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.coeffs.items()}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(ctx: TruncationContext) -> "SeriesElem":
        return ctx._zero

    @staticmethod
    def one(ctx: TruncationContext) -> "SeriesElem":
        return SeriesElem._normal(ctx, {(0, 0, 0): 1}, 1)

    @staticmethod
    def monomial(ctx: TruncationContext, m: Vec, j: int = 0, c=1) -> "SeriesElem":
        return SeriesElem(ctx, {(m[0], m[1], j): c})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "SeriesElem") -> "SeriesElem":
        return self._plus(other, 1)

    def __sub__(self, other: "SeriesElem") -> "SeriesElem":
        return self._plus(other, -1)

    def _plus(self, other: "SeriesElem", sign: int) -> "SeriesElem":
        """``self + sign * other`` for ``sign`` 1 or -1, with no negated copy of ``other``."""
        _check_same_context(self, other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        if da == db:
            den, sb, out = da, sign, dict(self.coeffs)
        else:
            den = lcm(da, db)
            sa, sb = den // da, sign * (den // db)
            out = {k: v * sa for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v * sb
        return SeriesElem._make(self.ctx, out, den)

    def __neg__(self) -> "SeriesElem":
        return SeriesElem._normal(self.ctx, {k: -v for k, v in self.coeffs.items()}, self.den)

    def __mul__(self, other: "SeriesElem") -> "SeriesElem":
        _check_same_context(self, other)
        out: dict[Key, int] = {}
        _mul_add(out, self.coeffs, other.coeffs, 1, self.ctx.order)
        return SeriesElem._make(self.ctx, out, self.den * other.den)

    def scale(self, c) -> "SeriesElem":
        if not self.coeffs:
            return self
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return SeriesElem.zero(self.ctx)
        p = c.numerator
        return SeriesElem._make(
            self.ctx, {k: p * v for k, v in self.coeffs.items()}, self.den * c.denominator
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def t_order(self) -> int | None:
        """Lowest t-degree with a nonzero term, or None for the zero element."""
        if not self.coeffs:
            return None
        return min(j for (_, _, j) in self.coeffs)

    # -- unit inversion ---------------------------------------------------------

    def invert_unit(self) -> "SeriesElem":
        """Invert ``c * z^m0 * (1 + n)`` with ``n`` of positive t-order.

        ``(1 + n)^{-1} = 1 + sum_k (-n)^k`` is summed by :func:`_operator_series`;
        the product with the result is exactly 1 modulo t^(N+1).
        """
        lead = [(k, v) for k, v in self.coeffs.items() if k[2] == 0]
        if len(lead) != 1:
            raise ValueError("not a unit: t-degree-0 part is not a single monomial")
        (m1, m2, _), c0 = lead[0]
        head_inv = SeriesElem.monomial(self.ctx, (-m1, -m2), 0, Fraction(self.den, c0))
        neg = SeriesElem.one(self.ctx) - head_inv * self
        ((tail,),) = _operator_series(
            lambda v: (v[0] * neg,), (neg,), (lambda k: 1,), self.ctx.order)
        return (SeriesElem.one(self.ctx) + tail) * head_inv


def _operator_series(step, v: tuple, coeffs: tuple, steps: int) -> tuple:
    """One entrywise sum of ``coeff(k) * step^(k-1)(v)`` over ``k = 1..steps`` per ``coeff``.

    ``v`` is a nonempty tuple of series and ``step`` a linear map on such
    tuples that raises the t-order by s >= 1, so at most N // s terms are
    nonzero modulo t^(N+1) and the sum is exact.  ``steps`` is at least 1
    unless ``v`` is zero.  ``coeffs`` is a tuple of coefficient functions
    with integer or Fraction values.  The powers ``step^(k-1)(v)`` are
    formed once for all the sums, and a zero power ends them before the
    next step, so a zero ``v`` costs no step.  Each entry of a sum is then
    one :func:`_sum` of the powers' entries.  Every exponential and
    logarithm of the engine, the inverse of a group element and the inverse
    of a unit is such a series.
    """
    powers = [v]
    while len(powers) < steps and any(f.coeffs for f in v):
        v = step(v)
        powers.append(v)
    ctx = v[0].ctx
    entries = list(zip(*powers))  # the powers of each entry of v
    sums = []
    for coeff in coeffs:
        cs = [coeff(k) for k in range(1, len(powers) + 1)]
        sums.append(tuple(_sum(ctx, zip(cs, entry)) for entry in entries))
    return tuple(sums)


def _sum(ctx: TruncationContext, terms=(), pairs=()) -> SeriesElem:
    """The sum of ``c * f`` over ``terms`` and of ``x * y`` over ``pairs``, normalized once.

    ``c`` is an integer or a Fraction.  Every nonzero summand is brought to
    the lcm of the summands' denominators and added into one integer dict.
    With no nonzero summand the sum is the context's one shared zero, and a
    lone term is scaled once (by nothing when ``c`` is 1 or -1).
    """
    terms = [(c, f) for c, f in terms if c and f.coeffs]
    pairs = [(x, y) for x, y in pairs if x.coeffs and y.coeffs]
    if not pairs and len(terms) < 2:
        if not terms:
            return ctx._zero
        c, f = terms[0]
        return f if c == 1 else -f if c == -1 else f.scale(c)
    den = lcm(*[c.denominator * f.den for c, f in terms], *[x.den * y.den for x, y in pairs])
    out: dict[Key, int] = {}
    get = out.get
    for c, f in terms:
        w = c.numerator * (den // (c.denominator * f.den))
        for k, v in f.coeffs.items():
            out[k] = get(k, 0) + w * v
    order = ctx.order
    for x, y in pairs:
        _mul_add(out, x.coeffs, y.coeffs, den // (x.den * y.den), order)
    return SeriesElem._make(ctx, out, den)


# -- matrices over the series ring ---------------------------------------------


@dataclass(frozen=True)
class SeriesMatrix:
    """An r x r matrix with SeriesElem entries.

    :meth:`matvec` is the one product: ``a * b`` applies it to each column
    of ``b``, and each entry is one :func:`_sum` over the row's pairs, so
    zero entries cost nothing.
    """

    ctx: TruncationContext
    rows: tuple[tuple[SeriesElem, ...], ...]

    def __post_init__(self):
        r = self.ctx.rank
        if len(self.rows) != r or any(len(row) != r for row in self.rows):
            raise ValueError(f"matrix shape does not match rank {r}")

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

    @staticmethod
    def from_columns(ctx: TruncationContext, cols) -> "SeriesMatrix":
        return SeriesMatrix(ctx, tuple(zip(*cols)))

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        _check_same_context(self, other)
        return SeriesMatrix.from_columns(self.ctx, [self.matvec(col) for col in zip(*other.rows)])

    def matvec(self, vec: tuple[SeriesElem, ...]) -> tuple[SeriesElem, ...]:
        ctx = self.ctx
        return tuple(_sum(ctx, pairs=zip(row, vec)) for row in self.rows)

    def is_zero(self) -> bool:
        return not any(a.coeffs for row in self.rows for a in row)
