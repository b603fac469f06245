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
elements are stored concretely as :class:`AutPair`: the images of the two
ring generators under the exponentiated derivation together with the gauge
matrix recording the action on constant sections.  This representation is
faithful, so the module never brackets two elements: the BCH product is
``log(compose(exp x, exp y))``.  The bracket formula above and a low-order
Dynkin series are test oracles (``tests/reference_bracket.py``).

Every term's t-degree is at least 1, so all exponentials and logarithms
terminate after at most N iterations (N // s for a logarithm of an element
congruent to the identity mod t^s) and every identity here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .exceptions import ConventionError
from .lattice import Vec
from .series import SeriesElem, SeriesMatrix, TruncationContext, _check_same_context

_ZERO = Fraction(0)

Mat = tuple[tuple[Fraction, ...], ...]
DVec = tuple[Fraction, Fraction]
TermKey = tuple[Vec, int]  # (frequency m, t-degree j)


# -- small exact-matrix helpers --------------------------------------------------


def mat_zero(r: int) -> Mat:
    return tuple(tuple(_ZERO for _ in range(r)) for _ in range(r))


def mat_is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def elementary(r: int, i: int, j: int, c=1) -> Mat:
    """E_ij scaled by c (0-based indices)."""
    return tuple(
        tuple(Fraction(c) if (a, b) == (i, j) else _ZERO for b in range(r)) for a in range(r)
    )


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _freeze_mat(a) -> Mat:
    return tuple(tuple(map(_frac, row)) for row in a)


# -- Lie algebra elements --------------------------------------------------------


@dataclass(frozen=True)
class LieElem:
    """Sparse element of the extended vertex Lie algebra.

    ``terms`` maps ``(m, j)`` to a pair ``(A, d)`` with ``A`` an r x r
    rational matrix and ``d`` a rational dual vector (the derivation scale
    absorbed into the vector).  Invariants: ``m != 0`` and ``1 <= j <= N``.

    Elements of the vertex algebra proper additionally have every derivation
    orthogonal to its frequency (``<m, d> = 0``).  The class does not enforce
    that cut, because the test oracle of the 2d-4d bridge brackets elements
    outside it; the engine's entry points do: wall construction, the ``bch``
    input parser and :func:`log`.
    """

    ctx: TruncationContext
    terms: dict[TermKey, tuple[Mat, DVec]] = field(default_factory=dict)

    def __post_init__(self):
        r = self.ctx.rank
        clean = {}
        for (m, j), (a, d) in self.terms.items():
            a = _freeze_mat(a)
            d = (_frac(d[0]), _frac(d[1]))
            if j > self.ctx.order:
                continue
            if mat_is_zero(a) and d == (_ZERO, _ZERO):
                continue
            if j < 1:
                raise ValueError("Lie algebra terms need t-degree >= 1")
            if m == (0, 0):
                raise ValueError("Lie algebra terms need nonzero frequency")
            if len(a) != r:
                raise ValueError("matrix part does not match context rank")
            clean[(m, j)] = (a, d)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero(ctx: TruncationContext) -> "LieElem":
        return LieElem(ctx, {})

    @staticmethod
    def single(ctx, m: Vec, j: int, matrix=None, dvec=(0, 0)) -> "LieElem":
        a = _freeze_mat(matrix) if matrix is not None else mat_zero(ctx.rank)
        return LieElem(ctx, {(tuple(m), j): (a, (Fraction(dvec[0]), Fraction(dvec[1])))})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LieElem") -> "LieElem":
        _check_same_context(self, other)
        out = dict(self.terms)
        for k, (a, d) in other.terms.items():
            if k in out:
                a0, d0 = out[k]
                out[k] = (mat_add(a0, a), (d0[0] + d[0], d0[1] + d[1]))
            else:
                out[k] = (a, d)
        return LieElem(self.ctx, out)

    def __neg__(self) -> "LieElem":
        return self.scale(-1)

    def __sub__(self, other: "LieElem") -> "LieElem":
        return self + (-other)

    def scale(self, c) -> "LieElem":
        c = Fraction(c)
        return LieElem(
            self.ctx,
            {k: (mat_scale(a, c), (c * d[0], c * d[1])) for k, (a, d) in self.terms.items()},
        )

    def t_order(self) -> int | None:
        if not self.terms:
            return None
        return min(j for (_, j) in self.terms)

    def truncate(self, order: int) -> "LieElem":
        """Reduce to a lower truncation order (same frequency support)."""
        ctx = TruncationContext(order, self.ctx.rank)
        return LieElem(ctx, {k: v for k, v in self.terms.items() if k[1] <= order})

    def degree_part(self, j: int) -> "LieElem":
        return LieElem(self.ctx, {k: v for k, v in self.terms.items() if k[1] == j})

    def matrix_series(self) -> SeriesMatrix:
        """The matrix-part multiplication operator, as a matrix of series."""
        return self._matrix_series

    @cached_property
    def _matrix_series(self) -> SeriesMatrix:
        r = self.ctx.rank
        entries = [[{} for _ in range(r)] for _ in range(r)]
        for (m, j), (a, _) in self.terms.items():
            for i in range(r):
                for k in range(r):
                    if a[i][k]:
                        entries[i][k][(m[0], m[1], j)] = a[i][k]
        return SeriesMatrix(
            self.ctx,
            tuple(
                tuple(SeriesElem(self.ctx, entries[i][k]) for k in range(r)) for i in range(r)
            ),
        )

    @cached_property
    def _integer_derivations(self) -> tuple[int, list[tuple[Vec, int, int, int]]]:
        """The nonzero derivation vectors over one common denominator.

        Returns ``(den, [(m, j, n1, n2)])`` with ``d = (n1, n2) / den`` for
        the term at ``(m, j)``.
        """
        nonzero = [(m, j, d) for (m, j), (_, d) in self.terms.items() if d[0] or d[1]]
        den = 1
        for _m, _j, d in nonzero:
            den = lcm(den, d[0].denominator, d[1].denominator)
        return den, [
            (m, j, d[0].numerator * (den // d[0].denominator),
             d[1].numerator * (den // d[1].denominator))
            for m, j, d in nonzero
        ]

    def apply_derivation(self, f: SeriesElem) -> SeriesElem:
        """The ring-derivation part applied to a series.

        The derivation vectors are kept over one common denominator, so the
        accumulation runs on the integer numerators of ``f``.
        """
        N = self.ctx.order
        den, derivations = self._integer_derivations
        out: dict = {}
        get = out.get
        for m, j, d1, d2 in derivations:
            for (f1, f2, jf), cf in f.coeffs.items():
                jj = j + jf
                if jj > N:
                    continue
                w = cf * (f1 * d1 + f2 * d2)
                if w:
                    k = (f1 + m[0], f2 + m[1], jj)
                    out[k] = get(k, 0) + w
        return SeriesElem._make(self.ctx, out, f.den * den)

    def apply_section(self, vec: tuple[SeriesElem, ...]) -> tuple[SeriesElem, ...]:
        """The full first-order operator on a section of the free module."""
        derived = tuple(self.apply_derivation(f) for f in vec)
        mat_part = self.matrix_series().matvec(vec)
        return tuple(a + b for a, b in zip(derived, mat_part))


# -- the exponential group -------------------------------------------------------

_E1 = (1, 0)
_E2 = (0, 1)


@dataclass(frozen=True)
class AutPair:
    """A group element: ring-automorphism generator images plus gauge matrix.

    ``sigma_images[i]`` is the image of z^{e_i} (of the form z^{e_i} times a
    unit congruent to 1 mod t); ``gauge`` is the matrix of the action on
    constant sections, congruent to the identity mod t.
    """

    ctx: TruncationContext
    sigma_images: tuple[SeriesElem, SeriesElem]
    gauge: SeriesMatrix
    _pow_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def identity(ctx: TruncationContext) -> "AutPair":
        return AutPair(
            ctx,
            (SeriesElem.monomial(ctx, _E1), SeriesElem.monomial(ctx, _E2)),
            SeriesMatrix.identity(ctx),
        )

    def is_identity(self) -> bool:
        return self == AutPair.identity(self.ctx)

    def _gen_power(self, axis: int, e: int) -> SeriesElem:
        """Cached power (including negative) of a generator image."""
        key = (axis, e)
        cached = self._pow_cache.get(key)
        if cached is not None:
            return cached
        if e == 0:
            val = SeriesElem.one(self.ctx)
        elif e == 1:
            val = self.sigma_images[axis]
        elif e == -1:
            val = self.sigma_images[axis].invert_unit()
        elif e > 0:
            val = self._gen_power(axis, e - 1) * self.sigma_images[axis]
        else:
            val = self._gen_power(axis, e + 1) * self._gen_power(axis, -1)
        self._pow_cache[key] = val
        return val

    def apply_ring(self, f: SeriesElem) -> SeriesElem:
        """Apply the ring automorphism to a series (monomial-by-monomial).

        The images of the monomials of ``f`` are brought to the lcm of their
        denominators once, and the sum runs on integer numerators.
        """
        N = self.ctx.order
        cache = self._pow_cache
        images = []
        den = 1
        for (m1, m2, j), c in f.coeffs.items():
            img = cache.get(("m", m1, m2))
            if img is None:
                img = self._gen_power(0, m1) * self._gen_power(1, m2)
                cache[("m", m1, m2)] = img
            images.append((j, c, img))
            den = lcm(den, img.den)
        out: dict = {}
        get = out.get
        for j, c, img in images:
            w = c * (den // img.den)
            for (a1, a2, ji), ci in img.coeffs.items():
                jj = ji + j
                if jj > N:
                    continue
                k = (a1, a2, jj)
                out[k] = get(k, 0) + w * ci
        return SeriesElem._make(self.ctx, out, f.den * den)

    def apply_matrix(self, mat: SeriesMatrix) -> SeriesMatrix:
        return SeriesMatrix(
            self.ctx, tuple(tuple(self.apply_ring(a) for a in row) for row in mat.rows)
        )

    def apply_section(self, vec: tuple[SeriesElem, ...]) -> tuple[SeriesElem, ...]:
        """The module action: apply sigma entrywise, then the gauge matrix."""
        return self.gauge.matvec(tuple(self.apply_ring(f) for f in vec))


def exp(x: LieElem) -> AutPair:
    """Exponential of a Lie algebra element, as an AutPair.

    The generator images are the exponentiated derivation applied to
    z^{e_1}, z^{e_2}; the gauge columns are the exponentiated module action
    on the constant basis sections.  Both truncate after N applications.
    """
    ctx = x.ctx
    images = []
    for e in (_E1, _E2):
        f = SeriesElem.monomial(ctx, e)
        acc, term = f, f
        for k in range(1, ctx.order + 1):
            term = x.apply_derivation(term).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        images.append(acc)
    cols = []
    zero = SeriesElem.zero(ctx)
    for i in range(ctx.rank):
        s = tuple(SeriesElem.one(ctx) if k == i else zero for k in range(ctx.rank))
        acc, term = s, s
        for k in range(1, ctx.order + 1):
            c = Fraction(1, k)
            term = tuple(f.scale(c) for f in x.apply_section(term))
            if all(f.is_zero() for f in term):
                break
            acc = tuple(a + b for a, b in zip(acc, term))
        cols.append(acc)
    gauge = SeriesMatrix(ctx, tuple(tuple(cols[j][i] for j in range(ctx.rank)) for i in range(ctx.rank)))
    return AutPair(ctx, (images[0], images[1]), gauge)


def compose(g1: AutPair, g2: AutPair) -> AutPair:
    """The group product g1 o g2 (g2 acts first)."""
    _check_same_context(g1, g2)
    images = (g1.apply_ring(g2.sigma_images[0]), g1.apply_ring(g2.sigma_images[1]))
    gauge = g1.gauge * g1.apply_matrix(g2.gauge)
    return AutPair(g1.ctx, images, gauge)


def log(g: AutPair) -> LieElem:
    """Logarithm of a pro-unipotent AutPair; exact inverse of :func:`exp`.

    The derivation part is log(sigma) evaluated on the two generators, the
    matrix part the operator logarithm on the constant sections, both from
    the Mercator series  sum_k (-1)^(k+1)/k (g - 1)^k.  Its first term is
    g - 1 itself: the generator images minus z^(e_i) and the gauge minus I.
    If s is the t-order of g - 1, each further factor g - 1 raises the
    t-degree by at least s (sigma(z^m) - z^m = z^m((1 + O(t^s))^m - 1)), so
    the k-th term vanishes modulo t^(N+1) once k*s > N and at most N // s
    terms are summed.  A completion round k truncates at t^(k+1) and its
    product is the identity mod t^k, so there s = k = N: one linear term.
    """
    ctx = g.ctx
    r = ctx.rank
    dparts = [g.sigma_images[axis] - SeriesElem.monomial(ctx, e)
              for axis, e in enumerate((_E1, _E2))]
    if any(f.t_order() == 0 for f in dparts):
        raise ValueError("not pro-unipotent: generator image is not z^e*(1 + O(t))")
    gauge = g.gauge - SeriesMatrix.identity(ctx)
    if gauge.t_order() == 0:
        raise ValueError("not pro-unipotent: gauge constant term is not the identity")
    orders = [f.t_order() for f in dparts] + [gauge.t_order()]
    s = min((o for o in orders if o is not None), default=ctx.order + 1)
    steps = ctx.order // s

    # Derivation part: log(sigma) evaluated on the generators.
    dlog = []
    for v in dparts:
        acc = v
        for k in range(2, steps + 1):
            v = g.apply_ring(v) - v
            if v.is_zero():
                break
            acc = acc + v.scale(Fraction((-1) ** (k + 1), k))
        dlog.append(acc)

    # Matrix part: operator logarithm on constant basis sections.
    cols = []
    for i in range(r):
        v = tuple(gauge.rows[row][i] for row in range(r))
        acc = v
        for k in range(2, steps + 1):
            v = tuple(a - b for a, b in zip(g.apply_section(v), v))
            if all(f.is_zero() for f in v):
                break
            coeff = Fraction((-1) ** (k + 1), k)
            acc = tuple(a + b.scale(coeff) for a, b in zip(acc, v))
        cols.append(acc)

    dvecs: dict[TermKey, list[Fraction]] = {}
    for axis, e in enumerate((_E1, _E2)):
        for (m1, m2, j), c in dlog[axis].fractions().items():
            key = ((m1 - e[0], m2 - e[1]), j)
            dvecs.setdefault(key, [_ZERO, _ZERO])[axis] = c

    mats: dict[TermKey, list[list[Fraction]]] = {}
    for i, col in enumerate(cols):
        for row in range(r):
            for (m1, m2, j), c in col[row].fractions().items():
                key = ((m1, m2), j)
                mats.setdefault(key, [[_ZERO] * r for _ in range(r)])[row][i] = c

    terms: dict[TermKey, tuple[Mat, DVec]] = {}
    for key in set(dvecs) | set(mats):
        (m, j) = key
        d = dvecs.get(key, [_ZERO, _ZERO])
        a = mats.get(key)
        a = _freeze_mat(a) if a is not None else mat_zero(r)
        if mat_is_zero(a) and d[0] == 0 and d[1] == 0:
            continue
        if m == (0, 0) or j < 1:
            raise ValueError("logarithm has a term outside the Lie algebra")
        if m[0] * d[0] + m[1] * d[1] != 0:
            raise ConventionError(
                "recovered derivation not orthogonal to its frequency; "
                "input is not in the exponential image"
            )
        terms[key] = (a, (d[0], d[1]))
    return LieElem(ctx, terms)


def bch(x: LieElem, y: LieElem) -> LieElem:
    """Baker-Campbell-Hausdorff product log(exp(x) o exp(y))."""
    return log(compose(exp(x), exp(y)))

