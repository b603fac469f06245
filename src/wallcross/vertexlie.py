"""The extended tropical vertex Lie algebra and its exponential group.

An element of the Lie algebra is a finite sum of terms

    (A, c * d_n) * z^m * t^j      with m != 0, j >= 1, <m, n> = 0,

where ``A`` is an r x r rational matrix and ``d_n`` the derivation
``d_n(z^m') = <m', n> z^m'`` attached to a rational multiple of the dual
vector ``n``.  The bracket is

    [(A, d_n) z^m, (A', d_n') z^m'] =
        ([A, A'] + A' <m', n> - A <m, n'>,  d_{<m',n> n' - <m,n'> n}) z^(m+m')

which is exactly the commutator of the first-order operators

    on the ring:    f  |->  t^j z^m d_n(f)
    on sections:    s  |->  t^j z^m (A s) + (ring action applied entrywise)

acting on pairs (Laurent series, section of the rank-r free module).  Group
elements are stored concretely as :class:`AutPair`, by their unipotent
parts: sigma(z^(e_i)) - z^(e_i) for the two ring generators and gauge - I
for the action on constant sections.  The identity is all zeros, so no
operation spends work on it.  This representation is
faithful, so the module never brackets two elements: the BCH product is
``log(compose(exp x, exp y))``.  The bracket formula above and a low-order
Dynkin series are test oracles (``tests/reference_bracket.py``).  A
:class:`LieElem` lives in the same series ring, so :func:`exp` and
:func:`log` never convert.
:func:`exp` is memoized on the element it is given, and an element keeps
its negation.  Every inverse comes from the series that made its element:
:func:`log` keeps its argument g as the exponential of its result x
(exp(log g) = g exactly) and g^-1, summed over the same powers of g - 1,
as the exponential of -x; :func:`exp_pair` gets exp(x) and exp(-x) from one
series.  So a group element is computed once however often it is used, and
its inverse costs no series of its own.  The action of
an element on a series maps each monomial to a product of two generator
powers and adds all of them into one integer accumulator
(:meth:`AutPair.apply_ring`), so an action builds no intermediate series
beyond the generator powers.

Both maps act only on the terms an automorphism can move.  If sigma - id
has t-order d on the generators, then sigma(z^m) = z^m (1 + O(t^d)) for
every m, so sigma fixes each constant and each term above t-degree N - d
modulo t^(N+1): the action copies those and builds no power for them.  The
exponential's gauge column i starts at L(e_i) = A e_i, the i-th column of
the matrix part, since the derivation kills constants.

Every term's t-degree is at least 1, so :func:`exp`, :func:`log` and the
inverses are finite operator series, summed by
:func:`~wallcross.series._operator_series`, and every identity is exact.
:func:`_group_series` is the one home of the rules they rest on: it refuses
a group element with a t-degree-0 term (not pro-unipotent), and an element
of t-order s needs at most N // s terms, so one with 2s > N squares to zero
and exp(x) = 1 + x, log g = g - 1 and g^-1 = 1 - (g - 1) need none.
Sigma with 2d > N maps z^m to z^m (1 + m1 u1 + m2 u2), u_i = tails[i] / z^(e_i),
with no generator power and no inverse (:meth:`AutPair.apply_ring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, lcm
from types import MappingProxyType

from .exceptions import ConventionError
from .lattice import Vec
from .series import (
    SeriesElem, SeriesMatrix, TruncationContext, _check_same_context, _mul_add, _operator_series,
    _sum,
)

_ZERO = Fraction(0)

Mat = tuple[tuple[Fraction, ...], ...]


# -- rational matrices, for the boundary ----------------------------------------


def mat_zero(r: int) -> Mat:
    return tuple(tuple(_ZERO for _ in range(r)) for _ in range(r))


def elementary(r: int, i: int, j: int, c=1) -> Mat:
    """E_ij scaled by c (0-based indices)."""
    return tuple(
        tuple(Fraction(c) if (a, b) == (i, j) else _ZERO for b in range(r)) for a in range(r)
    )


def _ratio(c) -> tuple[int, int]:
    """The rational ``c`` as its lowest-terms pair (numerator, denominator)."""
    if type(c) is not int and type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator, c.denominator


# -- Lie algebra elements --------------------------------------------------------


@dataclass(frozen=True)
class LieElem:
    """Sparse element of the extended vertex Lie algebra, stored in the series ring.

    The element  sum (A_mj, d_mj) z^m t^j  is held as three parts: ``d1`` and
    ``d2``, the series  sum d_mj[i] z^m t^j  of the two coordinates of the
    derivation vectors, and ``a``, the matrix  sum A_mj z^m t^j  of series.
    These are what :func:`exp` reads and what :func:`log` produces, so the
    group law never leaves the ring.  Invariants: every key ``(m1, m2, j)``
    of a part has ``m != 0`` and ``1 <= j <= N``.

    The coefficients enter through :meth:`from_ratios` and leave through its
    inverse :meth:`ratios`, both on integer pairs, so the files, the reports
    and the 2d-4d read-back never see the parts' numerator layout.
    ``from_terms`` and ``terms`` are the rational boundary, for library use
    and tests: ``terms`` maps ``(m, j)`` to a pair ``(A, d)`` of an r x r
    rational matrix and a rational dual vector.

    Elements of the vertex algebra proper additionally have every derivation
    orthogonal to its frequency (``<m, d> = 0``).  The class does not enforce
    that cut, because the test oracle of the 2d-4d bridge brackets elements
    outside it; the engine's entry points do.  Wall construction and
    :func:`log` call :meth:`non_orthogonal`; the ``bch`` input parser
    (``serialize.lie_terms_from_json``) checks each term itself, before
    ``from_ratios`` drops the terms above a lowered order.
    """

    ctx: TruncationContext
    d1: SeriesElem
    d2: SeriesElem
    a: SeriesMatrix

    @staticmethod
    def from_ratios(ctx: TruncationContext, terms) -> "LieElem":
        """The element with terms ``{(m, j): (A, d)}`` of integer pairs, dropping those above N.

        Each entry of the r x r matrix ``A`` and of the dual vector ``d`` is
        a pair ``(p, q)``, ``q > 0``, for the rational p/q.  Every part puts
        its numerators over the lcm of its denominators and is normalized
        once.  This is the one constructor from coefficients: diagram and
        ``bch`` files are read through it, and :meth:`from_terms` converts
        rationals onto it.
        """
        r = ctx.rank
        d1, d2 = {}, {}
        mats = [[{} for _ in range(r)] for _ in range(r)]
        for (m, j), (a, d) in terms.items():
            c1, c2 = d
            if j > ctx.order or (not c1[0] and not c2[0]
                                 and not any(c[0] for row in a for c in row)):
                continue
            if j < 1:
                raise ValueError("Lie algebra terms need t-degree >= 1")
            if m == (0, 0):
                raise ValueError("Lie algebra terms need nonzero frequency")
            if len(a) != r:
                raise ValueError("matrix part does not match context rank")
            key = (m[0], m[1], j)
            if c1[0]:
                d1[key] = c1
            if c2[0]:
                d2[key] = c2
            for i, row in enumerate(a):
                for k, c in enumerate(row):
                    if c[0]:
                        mats[i][k][key] = c
        zero = SeriesElem.zero(ctx)

        def part(coeffs: dict) -> SeriesElem:
            if not coeffs:
                return zero
            den = lcm(*(q for _p, q in coeffs.values()))
            return SeriesElem._make(ctx, {k: p * (den // q) for k, (p, q) in coeffs.items()}, den)

        rows = tuple(tuple(map(part, row)) for row in mats)
        return LieElem(ctx, part(d1), part(d2), SeriesMatrix(ctx, rows))

    @staticmethod
    def from_terms(ctx: TruncationContext, terms) -> "LieElem":
        """The element with rational terms ``{(m, j): (A, d)}``, through :meth:`from_ratios`."""
        return LieElem.from_ratios(ctx, {
            key: (tuple(tuple(map(_ratio, row)) for row in a), (_ratio(d[0]), _ratio(d[1])))
            for key, (a, d) in terms.items()
        })

    @staticmethod
    def from_operator(ctx: TruncationContext, derived: tuple, a: SeriesMatrix) -> "LieElem":
        """The element whose derivation maps z^(e_i) to ``derived[i]``, with matrix part ``a``.

        D(z^(e_i)) carries d_i z^(m + e_i) at each term; shifted back to z^m,
        it is the i-th coordinate series of the derivation vectors.
        """
        d1, d2 = (
            SeriesElem._normal(
                ctx, {(m1 - e[0], m2 - e[1], j): c for (m1, m2, j), c in f.coeffs.items()}, f.den
            )
            for f, e in zip(derived, (_E1, _E2))
        )
        return LieElem(ctx, d1, d2, a)

    @staticmethod
    def single(ctx, m: Vec, j: int, matrix=None, dvec=(0, 0)) -> "LieElem":
        a = matrix if matrix is not None else mat_zero(ctx.rank)
        return LieElem.from_terms(ctx, {(tuple(m), j): (a, dvec)})

    def ratios(self) -> dict:
        """The terms ``{(m, j): (A, d)}`` of integer pairs, by t-degree, then frequency.

        The inverse of :meth:`from_ratios`: each entry of ``A`` and ``d`` is
        a pair ``(p, q)``, q > 0, for p/q, not always in lowest terms (a zero
        entry may be ``(0, q)``), and ``from_ratios(x.ctx, x.ratios()) == x``.
        """
        keys = sorted({k for f in self._parts() for k in f.coeffs}, key=lambda k: (k[2], k))
        d1, d2, rows = self.d1, self.d2, self.a.rows
        return {
            ((k[0], k[1]), k[2]): (
                tuple(tuple((f.coeffs.get(k, 0), f.den) for f in row) for row in rows),
                ((d1.coeffs.get(k, 0), d1.den), (d2.coeffs.get(k, 0), d2.den)),
            )
            for k in keys
        }

    @cached_property
    def terms(self) -> MappingProxyType:
        """The rational view of :meth:`ratios` (read-only)."""
        return MappingProxyType({
            key: (tuple(tuple(Fraction(*c) for c in row) for row in a),
                  (Fraction(*d[0]), Fraction(*d[1])))
            for key, (a, d) in self.ratios().items()
        })

    def _parts(self) -> tuple[SeriesElem, ...]:
        return (self.d1, self.d2, *(f for row in self.a.rows for f in row))

    def _map(self, fn) -> "LieElem":
        """Apply ``fn`` to every part."""
        rows = tuple(tuple(map(fn, row)) for row in self.a.rows)
        return LieElem(self.ctx, fn(self.d1), fn(self.d2), SeriesMatrix(self.ctx, rows))

    @cached_property
    def _exp(self) -> "AutPair":
        """The exponential, computed on first use; :func:`log` and :func:`exp_pair` set it."""
        return _exponential_series(self, (_exp_coeff,))[0]

    @cached_property
    def _neg(self) -> "LieElem":
        """The negation, built on first use and kept, so its exponential is kept too."""
        return LieElem(self.ctx, -self.d1, -self.d2, -self.a)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self._parts())

    def __add__(self, other: "LieElem") -> "LieElem":
        _check_same_context(self, other)
        return LieElem(self.ctx, self.d1 + other.d1, self.d2 + other.d2, self.a + other.a)

    def __neg__(self) -> "LieElem":
        return self._neg

    def __sub__(self, other: "LieElem") -> "LieElem":
        return self + (-other)

    def scale(self, c) -> "LieElem":
        c = Fraction(c)
        return self._map(lambda f: f.scale(c))

    def t_order(self) -> int | None:
        return min((f.t_order() for f in self._parts() if f.coeffs), default=None)

    def t_degree(self) -> int | None:
        return max((k[2] for f in self._parts() for k in f.coeffs), default=None)

    def frequencies(self) -> set[Vec]:
        """The frequencies ``m`` that carry a nonzero term."""
        return {(k[0], k[1]) for f in self._parts() for k in f.coeffs}

    def restrict(self, keep) -> "LieElem":
        """The terms whose key ``(m1, m2, j)`` passes ``keep``."""
        return self._map(lambda f: SeriesElem._make(
            self.ctx, {k: v for k, v in f.coeffs.items() if keep(k)}, f.den))

    def degree_part(self, j: int) -> "LieElem":
        return self.restrict(lambda k: k[2] == j)

    @cached_property
    def _derivations(self) -> tuple[int, list[tuple[int, int, int, int, int]]]:
        """The nonzero derivation vectors over one common denominator.

        Returns ``(den, [(m1, m2, j, n1, n2)])`` with ``d = (n1, n2) / den``
        for the term at ``((m1, m2), j)``.
        """
        c1, c2 = self.d1.coeffs, self.d2.coeffs
        den = lcm(self.d1.den, self.d2.den)
        s1, s2 = den // self.d1.den, den // self.d2.den
        keys = list(c1) + [k for k in c2 if k not in c1]
        return den, [(k[0], k[1], k[2], c1.get(k, 0) * s1, c2.get(k, 0) * s2) for k in keys]

    def non_orthogonal(self) -> list[Vec]:
        """The frequencies whose derivation vector is not orthogonal to them."""
        return [(m1, m2) for m1, m2, _j, n1, n2 in self._derivations[1] if m1 * n1 + m2 * n2]

    def apply_derivation(self, f: SeriesElem) -> SeriesElem:
        """The ring-derivation part applied to a series.

        D(c z^m' t^j') is the sum over the terms (d, m, j) of
        c <m', d> z^(m' + m) t^(j' + j).  The derivation vectors are kept
        over one common denominator, so the accumulation runs on the integer
        numerators of ``f``.
        """
        den, derivations = self._derivations
        if not derivations or not f.coeffs:
            return SeriesElem.zero(self.ctx)
        N = self.ctx.order
        out: dict = {}
        get = out.get
        for m1, m2, j, n1, n2 in derivations:
            for (f1, f2, jf), cf in f.coeffs.items():
                jj = j + jf
                if jj > N:
                    continue
                c = cf * (f1 * n1 + f2 * n2)
                if c:
                    k = (f1 + m1, f2 + m2, jj)
                    out[k] = get(k, 0) + c
        return SeriesElem._make(self.ctx, out, f.den * den)

    def apply_section(self, vec: tuple[SeriesElem, ...]) -> tuple[SeriesElem, ...]:
        """The full first-order operator on a section of the free module: D(v_i) + (A v)_i.

        Each entry is one :func:`~wallcross.series._sum` of the term D(v_i)
        and the products of row i of the matrix part with ``v``.
        """
        return tuple(_sum(self.ctx, ((1, self.apply_derivation(f)),), zip(row, vec))
                     for f, row in zip(vec, self.a.rows))


# -- the exponential group -------------------------------------------------------

_E1 = (1, 0)
_E2 = (0, 1)


@dataclass(frozen=True)
class AutPair:
    """A group element, stored as its unipotent parts.

    ``tails[i]`` is sigma(z^{e_i}) - z^{e_i}, of positive t-order for a
    pro-unipotent element (the image is z^{e_i} times a unit congruent to
    1 mod t); ``nil`` is gauge - I, where the gauge is the matrix of the
    action on constant sections.  The identity is zero in both parts.

    An instance holds nothing else but one integer, cached on first use:
    d, the t-order of sigma - id on the generators (:attr:`_fixed_order`).
    So a memoized element stays as small as its parts.  The powers of the
    generator images that the action needs live in a table owned by the
    caller, keyed ``(axis, e)`` for the e-th power (e may be negative) of
    z^{e_axis} + ``tails[axis]``; it holds generator powers only, never the
    image of a monomial, and the e-th power adds at most 2 log2 |e| of them
    (:meth:`_gen_power`).
    :func:`compose` and :func:`log` pass one ``powers`` dict to every
    action they make, and :meth:`apply_ring` called without one builds its
    own.
    """

    ctx: TruncationContext
    tails: tuple[SeriesElem, SeriesElem]
    nil: SeriesMatrix

    @staticmethod
    def identity(ctx: TruncationContext) -> "AutPair":
        zero = SeriesElem.zero(ctx)
        return AutPair(ctx, (zero, zero), SeriesMatrix(ctx, ((zero,) * ctx.rank,) * ctx.rank))

    def is_identity(self) -> bool:
        return self == AutPair.identity(self.ctx)

    def relative_frequencies(self):
        """The frequencies of sigma(z^(e_i)) / z^(e_i) - 1 and of gauge - I, with repeats."""
        for f, (e1, e2) in zip(self.tails, (_E1, _E2)):
            for k in f.coeffs:
                yield (k[0] - e1, k[1] - e2)
        for row in self.nil.rows:
            for f in row:
                for k in f.coeffs:
                    yield (k[0], k[1])

    def on_ray(self, p: Vec) -> "AutPair":
        """The element reduced to the ray through ``p``: the relative frequencies parallel to it."""
        p1, p2 = p

        def keep(f, e1=0, e2=0):
            return SeriesElem._make(self.ctx, {k: c for k, c in f.coeffs.items()
                                               if (k[0] - e1) * p2 == (k[1] - e2) * p1}, f.den)

        tails = (keep(self.tails[0], *_E1), keep(self.tails[1], *_E2))
        rows = tuple(tuple(map(keep, row)) for row in self.nil.rows)
        return AutPair(self.ctx, tails, SeriesMatrix(self.ctx, rows))

    @cached_property
    def _fixed_order(self) -> int:
        """d, the t-order of sigma - id on the generators: the tails' lowest t-degree, or N + 1."""
        return min((k[2] for f in self.tails for k in f.coeffs), default=self.ctx.order + 1)

    def _gen_power(self, axis: int, e: int, powers: dict) -> SeriesElem:
        """A power (including negative) of a generator image, kept in ``powers``.

        P^e is built in a loop from P^s, s = 1 or -1 the sign of e, along
        the binary digits of |e| after the leading one: for each digit,
        square the power so far, then multiply by P^s on a 1.  Every step is
        kept and looked up before it is computed, so P^e costs at most
        2 log2 |e| products, and fewer when its steps are already kept.
        """
        val = powers.get((axis, e))
        if val is not None:
            return val
        if -1 <= e <= 1:
            image = powers.get((axis, 1)) if e else SeriesElem.one(self.ctx)
            if image is None:
                image = self.ctx.generators[axis] + self.tails[axis]
            val = powers[(axis, e)] = image.invert_unit() if e < 0 else image
            return val
        sign = 1 if e > 0 else -1
        unit = val = self._gen_power(axis, sign, powers)
        k = 1
        for digit in bin(abs(e))[3:]:
            # square, then multiply by P^sign on a 1: the steps to P^(2k) and P^(2k+1)
            for k, factor in ((2 * k, val), (2 * k + 1, unit))[:1 + int(digit)]:
                key = (axis, sign * k)
                if key not in powers:
                    powers[key] = val * factor
                val = powers[key]
        return val

    def apply_ring(self, f: SeriesElem, powers: dict | None = None) -> SeriesElem:
        """Apply the ring automorphism to a series.

        The term ``c z^m t^j`` of ``f`` maps to ``c t^j P1[m1] P2[m2]``, with
        ``Pi[e]`` the e-th power of the i-th generator image, kept in
        ``powers`` (a table of generator powers for this element only).
        Every such product is brought to the lcm of the products'
        denominators and added into one integer dict, normalized once.

        Only the terms sigma can move cost a power or a kernel call.  A
        constant is fixed, since sigma fixes z^0 and t; so is every term
        with ``j > N - d`` (d is :attr:`_fixed_order`), since
        sigma(z^m) = z^m (1 + O(t^d)) and the rest lies above t^N.  Those
        terms are copied into the sum, and ``f`` with no other term is
        returned as it is.  When 2d > N, each other term adds
        c t^j z^m (m1 u1 + m2 u2) read off the tails, with no power.
        """
        N, d = self.ctx.order, self._fixed_order
        top = N - d
        fixed, moving = [], []
        for k, c in f.coeffs.items():
            (moving if (k[0] or k[1]) and k[2] <= top else fixed).append((k, c))
        if not moving:
            return f
        if 2 * d > N:  # sigma(z^m) = z^m (1 + m1 u1 + m2 u2), u_i = tails[i] / z^(e_i)
            den = lcm(self.tails[0].den, self.tails[1].den)
            out = {k: c * den for k, c in f.coeffs.items()} if den > 1 else dict(f.coeffs)
            get = out.get
            for i, t in enumerate(self.tails):
                w = den // t.den
                for (m1, m2, j), c in moving:
                    cm = c * w * (m2 if i else m1)
                    for (k1, k2, k), a in t.coeffs.items() if cm else ():
                        if j + k <= N:
                            key = (m1 + k1 - 1 + i, m2 + k2 - i, j + k)
                            out[key] = get(key, 0) + cm * a
            return SeriesElem._make(self.ctx, out, f.den * den)
        if powers is None:
            powers = {}
        terms = []
        den = 1
        for (m1, m2, j), c in moving:
            p1, p2 = self._gen_power(0, m1, powers), self._gen_power(1, m2, powers)
            d = p1.den * p2.den
            terms.append((j, c, p1.coeffs, p2.coeffs, d))
            den = lcm(den, d)
        out = {k: c * den for k, c in fixed}
        for j, c, p1, p2, d in terms:
            _mul_add(out, p1, p2, c * (den // d), N, j)
        return SeriesElem._make(self.ctx, out, f.den * den)

    def apply_matrix(self, mat: SeriesMatrix, powers: dict | None = None) -> SeriesMatrix:
        return SeriesMatrix(
            self.ctx, tuple(tuple(self.apply_ring(a, powers) for a in row) for row in mat.rows)
        )

    def apply_section(
        self, vec: tuple[SeriesElem, ...], powers: dict | None = None
    ) -> tuple[SeriesElem, ...]:
        """The module action: w = sigma(v) entrywise, then w + nil w, each entry in one sum."""
        w = tuple(self.apply_ring(f, powers) for f in vec)
        return tuple(_sum(self.ctx, ((1, f),), zip(row, w)) for f, row in zip(w, self.nil.rows))


def exp(x: LieElem) -> AutPair:
    """Exponential of a Lie algebra element, as an AutPair; memoized per element.

    A :class:`LieElem` is immutable, so the first call computes the
    exponential and keeps it on ``x``, and every later call on the same
    object returns it.  ``-x`` is kept on ``x`` (one way: ``-x`` does not
    point back), so ``exp(-x)`` is also computed at most once.  :func:`log`
    keeps its argument g as the exponential of its result x and g^-1 as
    that of ``-x``, and :func:`exp_pair` fills both memos from one series.
    An equal element built separately (a restriction, a parsed copy)
    carries no memo and is computed afresh.  With 2s > N, s the t-order of
    ``x``, :func:`_group_series` returns exp(x) = 1 + x with no series.
    """
    return x._exp


def exp_pair(x: LieElem) -> tuple[AutPair, AutPair]:
    """``(exp(x), exp(-x))``, memoized like :func:`exp`; a line's two automorphisms.

    If neither is memoized yet, both come from one series: -x has the
    operators -D and -L, so the powers D^k and L^k that exp(x) sums with
    1/k! give exp(-x) with (-1)^k/k!.
    """
    neg = -x
    if "_exp" not in x.__dict__ and "_exp" not in neg.__dict__:
        x.__dict__["_exp"], neg.__dict__["_exp"] = _exponential_series(
            x, (_exp_coeff, _exp_neg_coeff))
    return exp(x), exp(neg)


@cache
def _exp_coeff(k):
    return Fraction(1, factorial(k))


@cache
def _exp_neg_coeff(k):
    return Fraction((-1) ** k, factorial(k))


def _exponential_series(x: LieElem, coeffs: tuple) -> tuple[AutPair, ...]:
    """One group element per coefficient function, from the operator series of ``x``.

    Each tail is the series of the derivation D from D z^{e_i}; column i
    of each gauge part is the series of the module action L
    (:meth:`LieElem.apply_section`) from L(e_i) = A e_i, column i of the
    matrix part, since the derivation kills constants.  The
    coefficients 1/k! give exp(x).  :func:`_group_series` sums both
    series, forming the powers once for all ``coeffs``; the first terms
    D z^{e_i} and A have the t-orders of ``x``'s parts, so it bounds them
    by the t-order of ``x``.  A zero matrix part gives a zero gauge part
    with no action at all.
    """
    ctx = x.ctx

    def derive(v):
        return tuple(map(x.apply_derivation, v))

    return tuple(AutPair(ctx, t, nil) for t, nil in _group_series(
        ctx, derive, derive(ctx.generators), x.apply_section, x.a, coeffs))


def _group_series(ctx, ring_step, tails, section_step, mat, coeffs) -> list:
    """The series of :func:`exp` and :func:`log`: one (tails, matrix) pair per coefficient.

    One :func:`~wallcross.series._operator_series` of ``ring_step`` from
    ``tails``, and one of ``section_step`` from each column of ``mat``.
    One scan of both reads their lowest t-degrees, the one home of two rules.
    A 0 is not pro-unipotent and raises ``ValueError``, the tails' first.
    Else, with s the lower, the k-th term has t-order at least k s: a series
    stops at N // s terms, and with 2s > N the element squares to zero and
    c(1) (tails, mat) is returned, negated for c(1) = -1, with no series.
    """
    s_tails, s_mat = (min((k[2] for f in part for k in f.coeffs), default=ctx.order + 1)
                      for part in (tails, [f for row in mat.rows for f in row]))
    if not s_tails:
        raise ValueError("not pro-unipotent: generator image is not z^e*(1 + O(t))")
    if not s_mat:
        raise ValueError("not pro-unipotent: gauge constant term is not the identity")
    steps = ctx.order // min(s_tails, s_mat)
    if steps <= 1:  # c(1) is 1 or -1
        return [(tails, mat) if c(1) == 1 else (tuple(-f for f in tails), -mat) for c in coeffs]
    sums = _operator_series(ring_step, tails, coeffs, steps)
    cols = [_operator_series(section_step, col, coeffs, steps) for col in zip(*mat.rows)]
    return [(t, SeriesMatrix.from_columns(ctx, [c[i] for c in cols])) for i, t in enumerate(sums)]


def compose(g1: AutPair, g2: AutPair) -> AutPair:
    """The group product g1 o g2 (g2 acts first): tails t1 + sigma1(t2), gauge part N1 + M + N1 M.

    (I + N1)(I + M) with M = sigma1(N2); each entry of N1 + M + N1 M is one
    :func:`~wallcross.series._sum`, and a zero part costs nothing.
    """
    _check_same_context(g1, g2)
    ctx, powers = g1.ctx, {}
    tails = tuple(t + g1.apply_ring(f, powers) for t, f in zip(g1.tails, g2.tails))
    n, m = g1.nil, g2.nil
    if not m.is_zero():
        cols = tuple(zip(*g1.apply_matrix(m, powers).rows))
        n = SeriesMatrix(ctx, tuple(
            tuple(_sum(ctx, ((1, a), (1, col[i])), zip(row, col)) for a, col in zip(row, cols))
            for i, row in enumerate(n.rows)))
    return AutPair(ctx, tails, n)


def log(g: AutPair) -> LieElem:
    """Logarithm of a pro-unipotent AutPair; exact inverse of :func:`exp`.

    The derivation part is log(sigma) evaluated on the two generators, the
    matrix part the operator logarithm on the constant sections: the
    Mercator series  sum_k (-1)^(k+1)/k (g - 1)^k  from g - 1 itself, summed
    by :func:`_group_series` from the tails and ``nil``, whose t-order s is
    that of g - 1 (sigma(z^m) - z^m = z^m((1 + O(t^s))^m - 1)).  The same
    call sums the Neumann series  g^-1 = sum_k (-1)^k (g - 1)^k  over the
    same powers, and raises ``ValueError`` for a g that is not pro-unipotent.
    The result x keeps ``g`` as its exponential and g^-1 as that of ``-x``.
    Each step applies g - 1 as ``g.apply_ring(f) - f`` and ``g.apply_section(v) - v``,
    the one place the group law subtracts the identity's action, only for a
    series of two terms or more; the frequency and orthogonality checks always run.
    """
    ctx = g.ctx
    powers: dict = {}

    def ring_step(v):
        return tuple(g.apply_ring(f, powers) - f for f in v)

    def section_step(v):
        return tuple(a - b for a, b in zip(g.apply_section(v, powers), v))

    (dlog, a), (tails, nil) = _group_series(
        ctx, ring_step, g.tails, section_step, g.nil, (_mercator_coeff, _neumann_coeff))
    x = LieElem.from_operator(ctx, dlog, a)
    if (0, 0) in x.frequencies():
        raise ValueError("logarithm has a term outside the Lie algebra")
    if x.non_orthogonal():
        raise ConventionError(
            "recovered derivation not orthogonal to its frequency; "
            "input is not in the exponential image"
        )
    x.__dict__["_exp"] = g  # exp(log g) = g exactly
    (-x).__dict__["_exp"] = AutPair(ctx, tails, nil)
    return x


@cache
def _mercator_coeff(k):
    return Fraction((-1) ** (k + 1), k)


def _neumann_coeff(k):
    return (-1) ** k


def bch(x: LieElem, y: LieElem) -> LieElem:
    """Baker-Campbell-Hausdorff product log(exp(x) o exp(y)).

    :func:`log` keeps the composed product as the exponential of the
    result, so ``exp`` of a BCH product costs nothing.
    """
    return log(compose(exp(x), exp(y)))

