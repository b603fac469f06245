"""The twisted groupoid ring, its S/K automorphisms, and the bridge ``upsilon``.

This is the paper-verification side of the 2d-4d story, a test oracle: the
tests use it to check the wall logs of the solver in ``wallcross.groupoid``
against the groupoid action they encode.

Vacua ``i, j, ...`` plus the base point ``o`` form the objects of a pointed
groupoid.  Basis elements of its ring are morphisms ``(i, j, g)`` where ``g``
is the charge coordinate obtained from the chosen torsor basepoints
(``m(gamma_ij) = gamma_ij - e_i + e_j``); coordinates add under composition.
A 4d charge ``gamma`` enters as the central *diagonal* element
``sum_a X_(a, a, gamma)`` over all objects, written ``X_gamma``.

Products are twisted by a sign ``sigma(a, b)``; the built-in choices are

* ``"dirac"``  -- sigma(a, b) = (-1)^(<m(a), m(b)>_D), the twisting singled
  out by the standard conditions (cocycle, symmetry, and the Dirac-pairing
  normalisation on 4d charges);
* ``"trivial"`` -- sigma = +1 everywhere.

The wall-crossing solver works in the untwisted ring: under the dirac
twisting the bridge ``upsilon`` into the extended vertex algebra fails to
preserve brackets by quadratic-refinement signs (and the classic example
values for the produced 2d factors flip sign with it), while every identity
checked here holds exactly in the untwisted ring.  The dirac twisting remains
available on every context and is validated against the three defining
conditions in the test suite.

The infinitesimal generators of the S/K automorphisms span a Lie ring of
operators with coefficients in the 4d group ring; ``upsilon`` maps it into
the extended vertex Lie algebra:

    upsilon(X_delta d_(gamma_ij)) = w^delta (E_ij w^(m(gamma_ij)), 0)
    upsilon(X_delta d_gamma)      = w^delta (0, Omega(gamma) w^gamma d_n)

(the sign of the matrix-part image is the convention constant
``UPSILON_MATRIX_SIGN``; the alternative sign that appears in one statement
of the correspondence is available by flipping it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

from reference_lie import mat_add
from wallcross.exceptions import ConventionError, SchemaError
from wallcross.groupoid import UPSILON_MATRIX_SIGN, BpsContext
from wallcross.lattice import Vec, det2, is_primitive, primitive_normal
from wallcross.series import TruncationContext
from wallcross.vertexlie import LieElem, elementary, mat_zero

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The groupoid's base point object; no vacuum may take its name.
BASEPOINT_OBJECT = "o"

TwistFn = Callable[[Vec, Vec], int]
Twisting = Union[str, dict, TwistFn]


def pairing(m: Vec, n: Vec) -> int:
    """Natural pairing of a lattice vector with a dual vector."""
    return m[0] * n[0] + m[1] * n[1]


def dirac_pairing(g: Vec, g2: Vec) -> int:
    """Antisymmetric integer pairing on the charge lattice (the determinant)."""
    return det2(g, g2)


def dirac_twist(ma: Vec, mb: Vec) -> int:
    return -1 if dirac_pairing(ma, mb) % 2 else 1


def trivial_twist(ma: Vec, mb: Vec) -> int:
    return 1


_BUILTIN_TWISTS = {"dirac": dirac_twist, "trivial": trivial_twist}


def resolve_twist(twisting: Twisting) -> TwistFn:
    if callable(twisting):
        return twisting
    if isinstance(twisting, dict):
        table = {(tuple(a), tuple(b)): v for (a, b), v in twisting.items()}

        def lookup(ma: Vec, mb: Vec) -> int:
            try:
                return table[(tuple(ma), tuple(mb))]
            except KeyError:
                raise SchemaError(f"twisting table has no entry for ({ma}, {mb})") from None

        return lookup
    try:
        return _BUILTIN_TWISTS[twisting]
    except KeyError:
        raise SchemaError(f"unknown twisting {twisting!r}") from None


def validate_twisting(twist: TwistFn, charges: list[Vec]) -> list[str]:
    """Check the three twisting conditions on the given charge sample.

    Returns human-readable violation strings (empty when all hold).  The
    trivial twisting violates the Dirac-pairing condition whenever some
    pairing is odd; that is reported, not raised.
    """
    problems = []
    for a in charges:
        for b in charges:
            if twist(a, b) not in (1, -1):
                problems.append(f"sigma({a},{b}) is not a sign")
            if twist(a, b) != twist(b, a):
                problems.append(f"symmetry fails at ({a},{b})")
            expected = -1 if dirac_pairing(a, b) % 2 else 1
            if twist(a, b) != expected:
                problems.append(f"Dirac condition fails at ({a},{b})")
            for c in charges:
                ab = (a[0] + b[0], a[1] + b[1])
                bc = (b[0] + c[0], b[1] + c[1])
                if twist(a, bc) * twist(b, c) != twist(a, b) * twist(ab, c):
                    problems.append(f"cocycle fails at ({a},{b},{c})")
    return problems


@dataclass(frozen=True)
class GroupoidContext(BpsContext):
    """Vacua, torsor basepoints, truncation, BPS indices, 2d strengths, twisting."""

    basepoints: tuple[tuple[str, Vec], ...] = ()
    omega: tuple[tuple[Vec, int], ...] = ()
    mu: tuple[tuple[str, str, Vec, int], ...] = ()
    twisting: Twisting = "dirac"

    def __post_init__(self):
        super().__post_init__()
        if BASEPOINT_OBJECT in self.vacua:
            raise ValueError(f"vacuum name {BASEPOINT_OBJECT!r} is reserved")
        for name, _ in self.basepoints:
            if name not in self.vacua:
                raise ValueError(f"basepoint for unknown vacuum {name!r}")

    @property
    def objects(self) -> tuple[str, ...]:
        return self.vacua + (BASEPOINT_OBJECT,)

    def basepoint(self, name: str) -> Vec:
        if name == BASEPOINT_OBJECT:
            return (0, 0)
        for n, v in self.basepoints:
            if n == name:
                return tuple(v)
        return (0, 0)

    def omega_value(self, gamma: Vec) -> int:
        for g, v in self.omega:
            if tuple(g) == tuple(gamma):
                return v
        raise KeyError(f"BPS index not defined for charge {gamma}")

    def mu_value(self, i: str, j: str, g: Vec) -> int:
        for a, b, gg, v in self.mu:
            if (a, b, tuple(gg)) == (i, j, tuple(g)):
                return v
        raise KeyError(f"2d strength not defined for ({i},{j},{g})")

    def twist(self) -> TwistFn:
        return resolve_twist(self.twisting)

    def omega_fn(self, gamma: Vec, m_class: Vec) -> int:
        """omega(gamma, a) = Omega(gamma) <m(a), n_gamma> for primitive gamma."""
        return self.omega_value(gamma) * pairing(m_class, primitive_normal(gamma))


# -- the groupoid ring -----------------------------------------------------------

GKey = tuple[str, str, int, int, int]  # (target, source, g1, g2, t-degree)


@dataclass(frozen=True)
class GroupoidElem:
    """Sparse element of the twisted groupoid ring, truncated in t."""

    ctx: GroupoidContext
    coeffs: dict[GKey, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        objects = set(self.ctx.objects)
        order = self.ctx.order
        for key, c in self.coeffs.items():
            t = key[4]
            if t > order or c == 0:
                continue
            if t < 0:
                raise ValueError("negative t-degree")
            if key[0] not in objects or key[1] not in objects:
                raise ValueError(f"unknown object in morphism ({key[0]},{key[1]})")
            clean[key] = c if type(c) is Fraction else Fraction(c)
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def zero(ctx) -> "GroupoidElem":
        return GroupoidElem(ctx, {})

    @staticmethod
    def one(ctx) -> "GroupoidElem":
        return GroupoidElem(ctx, {(o, o, 0, 0, 0): _ONE for o in ctx.objects})

    @staticmethod
    def morphism(ctx, i: str, j: str, g: Vec, t: int = 0, c=1) -> "GroupoidElem":
        """The basis morphism from object j to object i with charge coordinate g."""
        return GroupoidElem(ctx, {(i, j, g[0], g[1], t): Fraction(c)})

    @staticmethod
    def gamma_elem(ctx, gamma: Vec, t: int = 0, c=1) -> "GroupoidElem":
        """The central diagonal element attached to a 4d charge."""
        return GroupoidElem(
            ctx, {(o, o, gamma[0], gamma[1], t): Fraction(c) for o in ctx.objects}
        )

    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, _ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return GroupoidElem(self.ctx, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return GroupoidElem(self.ctx, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        """sigma-twisted product; non-composable morphism pairs give zero."""
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        N = self.ctx.order
        twist = self.ctx.twist()
        out: dict[GKey, Fraction] = {}
        for (i, j, a1, a2, ta), ca in self.coeffs.items():
            for (k, l, b1, b2, tb), cb in other.coeffs.items():
                if j != k:
                    continue
                t = ta + tb
                if t > N:
                    continue
                sgn = twist((a1, a2), (b1, b2))
                key = (i, l, a1 + b1, a2 + b2, t)
                s = out.get(key, _ZERO) + sgn * ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return GroupoidElem(self.ctx, out)

    def is_zero(self):
        return not self.coeffs


# -- wall-crossing automorphisms ---------------------------------------------------


class SAuto:
    """Type-S automorphism: conjugation by (1 - mu t^d X_(gamma_ij))."""

    def __init__(self, ctx: GroupoidContext, pair: tuple[str, str], g: Vec, mu: int, degree: int = 1):
        i, j = pair
        if i == j:
            raise ValueError("S automorphisms need two distinct vacua")
        self.ctx = ctx
        self.pair = pair
        self.g = tuple(g)
        self.mu = mu
        self.degree = degree
        x = GroupoidElem.morphism(ctx, i, j, g, degree, mu)
        self._left = GroupoidElem.one(ctx) - x
        self._right = GroupoidElem.one(ctx) + x

    def apply(self, elem: GroupoidElem) -> GroupoidElem:
        return self._left * elem * self._right


# A central series is a 4d-group-ring element, object-independent: it maps
# (charge, t-degree) to a coefficient and acts on morphisms by left
# multiplication with a twisting sign per charge pair.
CentralSeries = dict[tuple[int, int, int], Fraction]


def _central_mul(ctx: GroupoidContext, a: CentralSeries, b: CentralSeries) -> CentralSeries:
    twist = ctx.twist()
    out: CentralSeries = {}
    for (a1, a2, ta), ca in a.items():
        for (b1, b2, tb), cb in b.items():
            t = ta + tb
            if t > ctx.order:
                continue
            key = (a1 + b1, a2 + b2, t)
            s = out.get(key, _ZERO) + twist((a1, a2), (b1, b2)) * ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _central_apply(ctx: GroupoidContext, series: CentralSeries, elem: GroupoidElem) -> GroupoidElem:
    twist = ctx.twist()
    order = ctx.order
    out: dict[GKey, Fraction] = {}
    for (i, j, g1, g2, t), c in elem.coeffs.items():
        for (d1, d2, td), cd in series.items():
            tt = t + td
            if tt > order:
                continue
            key = (i, j, g1 + d1, g2 + d2, tt)
            s = out.get(key, _ZERO) + twist((d1, d2), (g1, g2)) * cd * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return GroupoidElem(ctx, out)


class KAuto:
    """Type-K automorphism: X_a -> (1 - t X_gamma)^(-omega(gamma, a)) X_a."""

    def __init__(self, ctx: GroupoidContext, gamma: Vec, omega: int):
        if gamma == (0, 0):
            raise ValueError("K automorphisms need a nonzero charge")
        self.ctx = ctx
        self.gamma = tuple(gamma)
        self.omega = omega
        self._n = primitive_normal(gamma)
        base: CentralSeries = {(0, 0, 0): _ONE, (gamma[0], gamma[1], 1): -_ONE}
        self._base = base
        self._base_inv = _invert_central_unit(ctx, base)
        self._pow_cache: dict[int, CentralSeries] = {0: {(0, 0, 0): _ONE}}

    def _power(self, e: int) -> CentralSeries:
        cached = self._pow_cache.get(e)
        if cached is not None:
            return cached
        if e > 0:
            val = _central_mul(self.ctx, self._power(e - 1), self._base)
        else:
            val = _central_mul(self.ctx, self._power(e + 1), self._base_inv)
        self._pow_cache[e] = val
        return val

    def apply(self, elem: GroupoidElem) -> GroupoidElem:
        out = GroupoidElem.zero(self.ctx)
        for key, c in elem.coeffs.items():
            (i, j, g1, g2, t) = key
            w = self.omega * pairing((g1, g2), self._n)
            piece = GroupoidElem(self.ctx, {key: c})
            out = out + _central_apply(self.ctx, self._power(-w), piece)
        return out


def _invert_central_unit(ctx: GroupoidContext, u: CentralSeries) -> CentralSeries:
    """Invert 1 + (positive t-order central series); geometric series, exact."""
    n = dict(u)
    if n.pop((0, 0, 0), _ZERO) != _ONE:
        raise ValueError("not a unit of the form 1 + O(t)")
    if any(t == 0 for (_, _, t) in n):
        raise ValueError("not a unit of the form 1 + O(t)")
    acc: CentralSeries = {(0, 0, 0): _ONE}
    term: CentralSeries = {(0, 0, 0): _ONE}
    sign = -1
    for _ in range(ctx.order):
        term = _central_mul(ctx, term, n)
        if not term:
            break
        for k, v in term.items():
            s = acc.get(k, _ZERO) + sign * v
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        sign = -sign
    return acc


# -- the Lie ring of infinitesimal generators --------------------------------------

STag = tuple[str, str, str, Vec]  # ("s", target, source, charge coordinate)
KTag = tuple[str, Vec]  # ("k", primitive 4d charge)
Tag = Union[STag, KTag]
LKey = tuple[Tag, Vec, int]  # (generator tag, coefficient charge, t-degree)


def _s_tag(i: str, j: str, g: Vec) -> Tag:
    return ("s", i, j, (g[0], g[1]))


def _k_tag(gamma: Vec) -> Tag:
    return ("k", (gamma[0], gamma[1]))


@dataclass(frozen=True)
class LGammaElem:
    """Element of the generator Lie ring, in coefficient-times-generator form.

    ``terms`` maps ``(tag, delta, j)`` to a rational: the generator ``tag``
    multiplied by the 4d group-ring monomial of charge ``delta`` at t-degree
    ``j``.  4d generator tags carry primitive charges only.
    """

    ctx: GroupoidContext
    terms: dict[LKey, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (tag, delta, j), c in self.terms.items():
            if c == 0 or j > self.ctx.order:
                continue
            if tag[0] == "k" and not is_primitive(tag[1]):
                raise ValueError(
                    f"4d generator charge {tag[1]} must be primitive; "
                    "rewrite multiples as group-ring coefficients"
                )
            if tag[0] == "s" and tag[1] == tag[2]:
                raise ValueError("2d generator needs two distinct vacua")
            clean[(tag, (delta[0], delta[1]), j)] = Fraction(c)
        object.__setattr__(self, "terms", clean)

    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, _ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LGammaElem(self.ctx, out)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return LGammaElem(self.ctx, {k: c * v for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def act(self, elem: GroupoidElem) -> GroupoidElem:
        """Apply the operator to a groupoid ring element."""
        out = GroupoidElem.zero(self.ctx)
        for (tag, delta, j), c in self.terms.items():
            applied = _apply_generator(self.ctx, tag, elem)
            coeff: CentralSeries = {(delta[0], delta[1], j): c}
            out = out + _central_apply(self.ctx, coeff, applied)
        return out


def _apply_generator(ctx: GroupoidContext, tag: Tag, elem: GroupoidElem) -> GroupoidElem:
    if tag[0] == "s":
        _, i, j, g = tag
        x = GroupoidElem.morphism(ctx, i, j, g)
        return x * elem - elem * x
    _, gamma = tag
    n = primitive_normal(gamma)
    omega = ctx.omega_value(gamma)
    twist = ctx.twist()
    out: dict[GKey, Fraction] = {}
    for (i, j, g1, g2, t), c in elem.coeffs.items():
        w = omega * pairing((g1, g2), n)
        if not w:
            continue
        key = (i, j, g1 + gamma[0], g2 + gamma[1], t)
        s = out.get(key, _ZERO) + twist(gamma, (g1, g2)) * w * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return GroupoidElem(ctx, out)


def d_gen(ctx: GroupoidContext, tag: Tag) -> LGammaElem:
    """A bare generator as an element of the Lie ring (t-degree 0 coefficient)."""
    if tag[0] == "s":
        _, i, j, g = tag
        return LGammaElem(ctx, {(_s_tag(i, j, g), (0, 0), 0): _ONE})
    return LGammaElem(ctx, {(_k_tag(tag[1]), (0, 0), 0): _ONE})


def s_gen(ctx, pair, g, mu, degree: int = 1) -> LGammaElem:
    """Infinitesimal generator of the S automorphism: -mu t^d ad_(X_gamma_ij)."""
    i, j = pair
    return LGammaElem(ctx, {(_s_tag(i, j, g), (0, 0), degree): Fraction(-mu)})


def k_gen(ctx, gamma, degree: int = 1) -> LGammaElem:
    """Infinitesimal generator of the K automorphism.

    sum_(l >= 1) (1/l) t^(l d) X_((l-1) gamma) d_gamma, with the 4d charge
    required primitive and its BPS index taken from the context.
    """
    if not is_primitive(gamma):
        raise ValueError("K generator charge must be primitive")
    terms = {}
    l = 1
    while l * degree <= ctx.order:
        delta = ((l - 1) * gamma[0], (l - 1) * gamma[1])
        terms[(_k_tag(gamma), delta, l * degree)] = Fraction(1, l)
        l += 1
    return LGammaElem(ctx, terms)


def exp_action(x: LGammaElem):
    """The operator exponential of a generator combination.

    Every coefficient must have positive t-degree so the series truncates.
    Returns a callable on groupoid ring elements.
    """
    for (_, _, j) in x.terms:
        if j < 1:
            raise ValueError("exponential needs positive t-degree coefficients")

    def apply(elem: GroupoidElem) -> GroupoidElem:
        acc = elem
        term = elem
        for k in range(1, x.ctx.order + 1):
            term = x.act(term).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        return acc

    return apply


def exp_s(ctx, pair, g, mu, degree: int = 1):
    return exp_action(s_gen(ctx, pair, g, mu, degree))


def exp_k(ctx, gamma, degree: int = 1):
    return exp_action(k_gen(ctx, gamma, degree))


def lgamma_bracket(x: LGammaElem, y: LGammaElem) -> LGammaElem:
    """Lie bracket of generator combinations, as operators on the ring.

    Computed from the commutator's closed forms (with all twisting signs),
    termwise.  A pair of 2d generators whose charges compose in both
    directions produces single-object loop operators outside the generator
    span and raises a closure violation.
    """
    if x.ctx != y.ctx:
        raise ValueError("context mismatch")
    ctx = x.ctx
    N = ctx.order
    twist = ctx.twist()
    out: dict[LKey, Fraction] = {}

    def add(tag: Tag, delta: Vec, j: int, c: Fraction):
        if j > N or c == 0:
            return
        key = (tag, delta, j)
        s = out.get(key, _ZERO) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (tag_x, dx, jx), cx in x.terms.items():
        for (tag_y, dy, jy), cy in y.terms.items():
            j = jx + jy
            if j > N:
                continue
            base = cx * cy * twist(dx, dy)
            dxy = (dx[0] + dy[0], dx[1] + dy[1])
            if tag_x[0] == "s" and tag_y[0] == "s":
                _, i1, j1, g1 = tag_x
                _, i2, j2, g2 = tag_y
                if j1 == i2 and j2 == i1:
                    raise ConventionError(
                        "closure violation: 2d charges "
                        f"({i1},{j1}) and ({i2},{j2}) compose in both directions"
                    )
                gsum = (g1[0] + g2[0], g1[1] + g2[1])
                if j1 == i2:
                    add(_s_tag(i1, j2, gsum), dxy, j, base * twist(g1, g2))
                if j2 == i1:
                    add(_s_tag(i2, j1, gsum), dxy, j, -base * twist(g2, g1))
            elif tag_x[0] == "s" and tag_y[0] == "k":
                _, i1, j1, g1 = tag_x
                gamma = tag_y[1]
                w = ctx.omega_fn(gamma, (dx[0] + g1[0], dx[1] + g1[1]))
                sgn = twist(dxy, gamma)
                add(tag_x, (dxy[0] + gamma[0], dxy[1] + gamma[1]), j, -base * w * sgn)
            elif tag_x[0] == "k" and tag_y[0] == "s":
                _, i2, j2, g2 = tag_y
                gamma = tag_x[1]
                w = ctx.omega_fn(gamma, (dy[0] + g2[0], dy[1] + g2[1]))
                sgn = twist(dxy, gamma)
                add(tag_y, (dxy[0] + gamma[0], dxy[1] + gamma[1]), j, base * w * sgn)
            else:
                gpr = tag_x[1]
                gtr = tag_y[1]
                w1 = ctx.omega_fn(gpr, (dy[0] + gtr[0], dy[1] + gtr[1]))
                s1 = twist(gpr, dy) * twist((gpr[0] + dy[0], gpr[1] + dy[1]), dx)
                add(
                    tag_y,
                    (dxy[0] + gpr[0], dxy[1] + gpr[1]),
                    j,
                    cx * cy * w1 * s1,
                )
                w2 = ctx.omega_fn(gtr, (dx[0] + gpr[0], dx[1] + gpr[1]))
                s2 = twist(gtr, dy) * twist((gtr[0] + dy[0], gtr[1] + dy[1]), dx)
                add(
                    tag_x,
                    (dxy[0] + gtr[0], dxy[1] + gtr[1]),
                    j,
                    -cx * cy * w2 * s2,
                )
    return LGammaElem(ctx, out)


def upsilon(x: LGammaElem, lie_ctx: TruncationContext) -> LieElem:
    """The bridge into the extended vertex Lie algebra.

    Every coefficient must carry positive t-degree (the image must be
    t-divisible); the matrix rank of ``lie_ctx`` must cover the vacua.
    """
    ctx = x.ctx
    index = {name: k for k, name in enumerate(ctx.vacua)}
    if lie_ctx.rank < len(ctx.vacua):
        raise ValueError("matrix rank smaller than the number of vacua")
    terms: dict = {}

    def add_term(m: Vec, j: int, a, d):
        key = (m, j)
        if key in terms:
            a0, d0 = terms[key]
            terms[key] = (mat_add(a0, a), (d0[0] + d[0], d0[1] + d[1]))
        else:
            terms[key] = (a, d)

    for (tag, delta, j), c in x.terms.items():
        if j < 1:
            raise ValueError("outside the maximal ideal: coefficient of t-degree 0")
        if tag[0] == "s":
            _, i, jn, g = tag
            m = (delta[0] + g[0], delta[1] + g[1])
            a = elementary(lie_ctx.rank, index[i], index[jn], UPSILON_MATRIX_SIGN * c)
            add_term(m, j, a, (_ZERO, _ZERO))
        else:
            gamma = tag[1]
            n = primitive_normal(gamma)
            omega = ctx.omega_value(gamma)
            m = (delta[0] + gamma[0], delta[1] + gamma[1])
            d = (Fraction(c * omega) * n[0], Fraction(c * omega) * n[1])
            add_term(m, j, mat_zero(lie_ctx.rank), d)
    return LieElem.from_terms(lie_ctx, terms)

