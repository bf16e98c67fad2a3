"""Basic polynomial maps, Jacobians, relative invariants, isotypic
projections, orbit index sets, and the lift/lower unitaries between the
quotient Hardy space and the isotypic component upstairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from .groups import Character, Group, Hyperplane, InputError, _perm_parity, make_character
from .laurent import (
    Expo,
    HarmonicPoly,
    LaurentPoly,
    _compose,
    canonical_exponent,
    sphere_inner,
    sphere_norm,
    torus_inner,
    torus_norm,
)


class NotInIsotypicError(ValueError):
    """Raised by lower() when the input is not of the form ell * (f o theta)."""


class BoundError(InputError):
    """A negative degree or window bound."""


# -- basic polynomial maps ---------------------------------------------------


def _elementary_symmetric(n: int, i: int, inner_power: int) -> LaurentPoly:
    """e_i(z_1^m, ..., z_n^m) with exact integer coefficients."""
    terms = {}
    for subset in combinations(range(n), i):
        e = [0] * n
        for j in subset:
            e[j] = inner_power
        terms[tuple(e)] = terms.get(tuple(e), 0j) + 1.0
    return LaurentPoly(n, terms)


@dataclass
class BasicMap:
    """The components theta_1..theta_n generating the invariant ring.

    Holds the only table of theta powers: every substitution t = theta(z)
    goes through pull(), so reuse one map rather than rebuilding it
    (basic_map returns one map per group).  `quotients` keeps the
    quotient-side realisation of each character (toeplitz), so its moment
    table and lowered basis live as long as the map.  `shift_tables` keeps
    the shift-relation table of each (character, window reps) (toeplitz),
    so its shift maps and theta expansions serve every later symbol.
    """

    group: Group
    components: tuple[LaurentPoly, ...]
    q: int
    _powers: dict[tuple[int, int], LaurentPoly] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    quotients: dict[Character, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    shift_tables: dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return self.group.n

    def eval(self, z: tuple[complex, ...]) -> tuple[complex, ...]:
        return tuple(c.eval(z) for c in self.components)

    def power(self, k: int, e: int) -> LaurentPoly:
        """theta_{k+1}^e for k < n, and conj(theta_{k-n+1})^e on the torus
        for n <= k < 2n; memoised."""
        got = self._powers.get((k, e))
        if got is None:
            n = self.dim
            comp = self.components[k] if k < n else self.components[k - n].conj_torus()
            got = self._powers[(k, e)] = comp ** e
        return got

    def pull(self, f: LaurentPoly | HarmonicPoly) -> LaurentPoly:
        """f o theta on the torus: an analytic LaurentPoly in t, or a
        HarmonicPoly read as a polynomial in (t, conj t)."""
        if f.dim != self.dim:
            raise ValueError("polynomial dimension does not match the basic map")
        if isinstance(f, HarmonicPoly):
            terms = {beta + gamma: c for (beta, gamma), c in f.terms.items()}
        elif f.is_analytic():
            terms = f.terms
        else:
            raise ValueError("substitution requires an analytic polynomial")
        return _compose(self.dim, terms, self.power)


def basic_map(group: Group) -> BasicMap:
    """For G(m,p,n): elementary symmetric polynomials of z_i^m in degrees
    1..n-1 together with (z_1...z_n)^q, q = m/p.  For the cyclic group on
    coordinate k: (z_1, ..., z_k^m, ..., z_n).  Built once per group and
    kept on it, so every caller shares one table of theta powers."""
    got = group.derived.get("basic_map")
    if got is None:
        got = group.derived["basic_map"] = _build_basic_map(group)
    return got


def _build_basic_map(group: Group) -> BasicMap:
    spec = group.spec
    n = group.n
    if spec.kind == "Gmpn":
        comps = [_elementary_symmetric(n, i, group.m) for i in range(1, n)]
        e = (group.q,) * n
        comps.append(LaurentPoly.monomial(n, e))
        return BasicMap(group, tuple(comps), group.q)
    if spec.kind == "CyclicCoord":
        comps = []
        for i in range(n):
            power = group.m if i == spec.coord - 1 else 1
            e = [0] * n
            e[i] = power
            comps.append(LaurentPoly.monomial(n, tuple(e)))
        return BasicMap(group, tuple(comps), group.m)
    raise ValueError(f"unsupported group kind {spec.kind!r}")


def jacobian(bmap: BasicMap) -> LaurentPoly:
    """Determinant of the matrix of z-derivatives of the components,
    expanded symbolically over permutations (n stays small here)."""
    n = bmap.dim
    rows = [[bmap.components[i].dz(j) for j in range(n)] for i in range(n)]
    total = LaurentPoly.zero(n)
    for perm in permutations(range(n)):
        sign = 1.0 if _perm_parity(perm) == 0 else -1.0
        term = LaurentPoly.constant(n, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def jacobian_closed_form(group: Group) -> LaurentPoly:
    """(m^n/p) (z_1...z_n)^(q-1) prod_{i<j} (z_i^m - z_j^m) for G(m,p,n)."""
    if group.spec.kind != "Gmpn":
        raise ValueError("closed form applies to G(m,p,n) only")
    n, m = group.n, group.m
    out = LaurentPoly.constant(n, group.m ** n / group.p)
    out = out * LaurentPoly.monomial(n, (group.q - 1,) * n)
    for i, j in combinations(range(n), 2):
        ei = [0] * n
        ei[i] = m
        ej = [0] * n
        ej[j] = m
        out = out * (LaurentPoly.monomial(n, tuple(ei)) - LaurentPoly.monomial(n, tuple(ej)))
    return out


def hyperplane_form(group: Group, plane: Hyperplane) -> LaurentPoly:
    coeffs = plane.coeffs()
    terms = {}
    for i, c in coeffs.items():
        e = [0] * group.n
        e[i] = 1
        terms[tuple(e)] = c
    return LaurentPoly(group.n, terms)


# -- projections -------------------------------------------------------------


def _diagonal_match(char: Character, alpha: Expo) -> bool:
    """chi(D_phi) = zeta^(phi . alpha) on every generator of the diagonal
    subgroup A, compared in exact integer turns over N: the sum over A in
    the projection of z^alpha is |A| when this holds and 0 otherwise."""
    step = char.den // char.group.m
    return all(
        (k - step * sum(p * x for p, x in zip(d.phase, alpha))) % char.den == 0
        for d, k in zip(char.group.diagonal_generators, char.diag)
    )


def project(char: Character, f: LaurentPoly) -> LaurentPoly:
    """Projection (1/|G|) sum_g conj(chi(g)) R_g f onto the isotypic
    component of a one-dimensional character, as an orbit sum.

    With g = D_phi P_sigma, R_g z^a = zeta^(phi . a) z^(sigma . a) and
    chi(g) = chi(D_phi) chi(P_sigma), so a term c z^a survives only the
    diagonal test and then projects to (c/|S|) sum_sigma
    conj(chi(P_sigma)) z^(sigma . a) over the permutation elements S.  The
    weight of each image is summed exactly before it is scaled.
    """
    n = f.dim
    if n != char.group.n:
        raise ValueError("character dimension does not match polynomial")
    perms = char.perm_part
    out: dict[Expo, complex] = {}
    for a, c in f.terms.items():
        if not _diagonal_match(char, a):
            continue
        weights: dict[Expo, complex] = {}
        for perm, _, conj_chi in perms:
            b = tuple(a[perm[j]] for j in range(n))
            weights[b] = weights.get(b, 0j) + conj_chi
        scaled = c / len(perms)
        for b, w in weights.items():
            if w != 0:
                out[b] = out.get(b, 0j) + scaled * w
    return LaurentPoly(n, out)


def projection_norm_sq(char: Character, alpha: Expo) -> Fraction:
    """Exact squared torus norm of the projected monomial: |Stab_S(alpha)|/|S|
    when the diagonal test passes and chi is trivial on the permutation
    stabilizer Stab_S(alpha), else 0."""
    alpha = tuple(alpha)
    if not _diagonal_match(char, alpha):
        return Fraction(0)
    perms = char.perm_part
    stab = 0
    for perm, turn, _ in perms:
        if all(alpha[perm[j]] == x for j, x in enumerate(alpha)):
            if turn != 0:
                return Fraction(0)
            stab += 1
    return Fraction(stab, len(perms))


# -- relative invariants -----------------------------------------------------


@dataclass
class EllPoly:
    """Relative invariant ell_rho with its Hardy-space norm c_rho."""

    character: Character
    poly: LaurentPoly
    cnorm: float
    domain: str  # "polydisc" | "ball"


def ell(char: Character, domain: str = "polydisc", bmap: BasicMap | None = None) -> EllPoly:
    """Lowest-degree relative invariant for a one-dimensional character.

    Convention: ell_sgn is exactly the Jacobian of the basic map (constant
    unnormalized); every other character gets the monic hyperplane product
    prod L_i^(c_i) with the least non-negative exponents c_i.  The norm
    c_rho is recomputed from the chosen polynomial.
    """
    group = char.group
    if bmap is None:
        bmap = basic_map(group)
    if char == make_character(group, "sgn"):
        poly = jacobian(bmap)
    elif not (any(char.diag) or char.swap):
        # trivial: every exponent c_i is 0, so no reflection is needed
        poly = LaurentPoly.constant(group.n, 1.0)
    else:
        poly = LaurentPoly.constant(group.n, 1.0)
        for plane in group.reflections():
            c = plane.c_exponent(char)
            if c:
                poly = poly * (hyperplane_form(group, plane) ** c)
    if domain == "polydisc":
        cnorm = torus_norm(poly)
    elif domain == "ball":
        cnorm = sphere_norm(poly)
    else:
        raise ValueError(f"unknown domain tag {domain!r}")
    return EllPoly(char, poly, cnorm, domain)


# -- orbit index sets and the gamma basis ------------------------------------


@dataclass
class BasisIndexSet:
    """Canonical orbit representatives indexing the projected-monomial basis
    of one isotypic component, up to a sup-norm degree bound."""

    character: Character
    bound: int
    holomorphic: bool
    reps: list[Expo]

    def __iter__(self):
        return iter(self.reps)

    def __len__(self):
        return len(self.reps)


def _candidate_reps(group: Group, bound: int, holomorphic: bool):
    lo = 0 if holomorphic else -bound
    rng = range(lo, bound + 1)
    if group.spec.kind == "Gmpn":
        # canonical representatives are the weakly increasing tuples
        yield from combinations_with_replacement(rng, group.n)
    else:
        yield from product(rng, repeat=group.n)


def index_set(char: Character, bound: int, holomorphic: bool = True) -> BasisIndexSet:
    """All canonical orbit representatives with sup-norm <= bound whose
    projection is nonzero, ordered by (total degree, lex)."""
    if bound < 0:
        raise BoundError("degree bound must be >= 0")
    group = char.group
    reps = [
        alpha
        for alpha in _candidate_reps(group, bound, holomorphic)
        if projection_norm_sq(char, alpha) > 0
    ]
    reps.sort(key=lambda a: (sum(a), a))
    return BasisIndexSet(char, bound, holomorphic, reps)


# Residual GammaBasis.expand may leave unexplained, relative to the input's
# largest coefficient.
_EXPAND_TOL = 1e-9


class GammaBasis:
    """The orthonormal basis gamma_m of one isotypic component of H^2:
    P_chi z^m for canonical reps m, scaled to unit norm in the domain's
    inner product `inner`: by the exact 1/sqrt(|S_m|/|S|) on the polydisc,
    by 1/sphere_norm on the ball.  A rep that is not canonical (on
    G(m,p,n): not weakly increasing) or whose projection vanishes raises
    KeyError.  Elements are memoised; use shared() to reuse them."""

    def __init__(self, character: Character, domain: str = "polydisc"):
        if domain == "polydisc":
            self.inner = torus_inner
        elif domain == "ball":
            self.inner = sphere_inner
        else:
            raise ValueError(f"unknown domain tag {domain!r}")
        self.character = character
        self.domain = domain
        self._cache: dict[Expo, LaurentPoly] = {}

    @classmethod
    def shared(cls, character: Character, domain: str = "polydisc") -> GammaBasis:
        """The basis kept on the group: one per (character value, domain)."""
        key = ("gamma_basis", character.diag, character.swap, domain)
        derived = character.group.derived
        got = derived.get(key)
        if got is None:
            got = derived[key] = cls(character, domain)
        return got

    def __call__(self, rep: Expo) -> LaurentPoly:
        rep = tuple(rep)
        got = self._cache.get(rep)
        if got is None:
            char = self.character
            if char.group.spec.kind == "Gmpn" and any(a > b for a, b in zip(rep, rep[1:])):
                raise KeyError(f"{rep} is not a canonical representative")
            nsq = projection_norm_sq(char, rep)
            if nsq == 0:
                raise KeyError(f"projection of z^{rep} vanishes")
            f = project(char, LaurentPoly.monomial(char.group.n, rep))
            scale = sphere_norm(f) if self.domain == "ball" else math.sqrt(nsq)
            got = self._cache[rep] = f * (1.0 / scale)
        return got

    def expand(self, poly: LaurentPoly) -> dict[Expo, complex]:
        """Coefficients of an analytic isotypic polynomial over the basis;
        raises if a residual remains (input outside the component)."""
        group = self.character.group
        out: dict[Expo, complex] = {}
        recon = LaurentPoly.zero(poly.dim)
        reps = sorted({canonical_exponent(group, e) for e in poly.terms})
        for rep in reps:
            if projection_norm_sq(self.character, rep) == 0:
                continue
            g = self(rep)
            c = self.inner(poly, g)
            if c != 0:
                out[rep] = c
                recon = recon + c * g
        scale = max(poly.max_abs_coeff(), 1.0)
        if not (poly - recon).is_zero(tol=_EXPAND_TOL * scale):
            raise NotInIsotypicError("polynomial is not in this isotypic component")
        return out


# -- exact division and the theta rewrite ------------------------------------

# Remainder exact division may leave, relative to the input's largest
# coefficient; the theta rewrite drops terms below 1e-3 of it.
_EXACT_REL_TOL = 1e-9


def divide_exact(F: LaurentPoly, ell_poly: LaurentPoly) -> LaurentPoly:
    """Exact polynomial division F / ell for analytic inputs.

    Single-divisor reduction in lex order; terms never divisible by the
    divisor's leading term accumulate as a remainder, which must vanish up
    to _EXACT_REL_TOL times the input scale.
    """
    if not (F.is_analytic() and ell_poly.is_analytic()):
        raise NotInIsotypicError("division expects analytic polynomials")
    if ell_poly.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lt = max(ell_poly.terms)
    lc = ell_poly.terms[lt]
    rem = dict(F.terms)
    quot: dict[Expo, complex] = {}
    remainder_mass = 0.0
    guard = 0
    cap = 16 * (len(F.terms) + 1) * (F.total_degree() + 2) ** F.dim + 64
    while rem:
        guard += 1
        if guard > cap:
            raise NotInIsotypicError("division did not terminate (input not divisible)")
        e = max(rem)
        c = rem.pop(e)
        if abs(c) < 1e-14 * max(F.max_abs_coeff(), 1.0):
            continue
        diff = tuple(a - b for a, b in zip(e, lt))
        if min(diff) < 0:
            remainder_mass += abs(c)
            continue
        qc = c / lc
        quot[diff] = quot.get(diff, 0j) + qc
        for le, lcoef in ell_poly.terms.items():
            if le == lt:
                continue
            te = tuple(a + b for a, b in zip(diff, le))
            rem[te] = rem.get(te, 0j) - qc * lcoef
            if abs(rem[te]) < 1e-15 * max(F.max_abs_coeff(), 1.0):
                del rem[te]
    scale = max(F.max_abs_coeff(), 1.0)
    if remainder_mass > _EXACT_REL_TOL * scale:
        raise NotInIsotypicError(
            f"nonzero division remainder (mass {remainder_mass:.3g}); "
            "input is not in the isotypic component"
        )
    return LaurentPoly(F.dim, quot)


def rewrite_in_theta(bmap: BasicMap, h: LaurentPoly) -> LaurentPoly:
    """Write a G-invariant analytic polynomial as a polynomial in the basic
    invariants, by leading-term elimination against the triangular system.

    For G(m,p,n) the lex-leading exponent lam of an invariant is weakly
    decreasing with m | (lam_i - lam_{i+1}) and q | lam_n; each step strips
    coeff * theta^a with a_i = (lam_i - lam_{i+1})/m, a_n = lam_n / q.
    """
    group = bmap.group
    n = group.n
    if not h.is_analytic():
        raise NotInIsotypicError("theta rewrite expects an analytic polynomial")
    if group.spec.kind == "CyclicCoord":
        k = group.spec.coord - 1
        out = {}
        for e, c in h.terms.items():
            if e[k] % group.m:
                raise NotInIsotypicError(
                    f"exponent {e} is not invariant under the cyclic action"
                )
            f = list(e)
            f[k] //= group.m
            out[tuple(f)] = c
        return LaurentPoly(n, out)

    m, q = group.m, group.q
    scale = max(h.max_abs_coeff(), 1.0)
    floor = _EXACT_REL_TOL * scale * 1e-3
    work = LaurentPoly(n, {e: c for e, c in h.terms.items() if abs(c) > floor})
    out: dict[Expo, complex] = {}
    guard = 0
    cap = (h.total_degree() + 2) ** n + 64
    while work.terms:
        guard += 1
        if guard > cap:
            raise NotInIsotypicError("theta rewrite did not terminate")
        lam = max(work.terms)
        c = work.terms[lam]
        exps = []
        ok = all(lam[i] >= lam[i + 1] for i in range(n - 1))
        if ok:
            for i in range(n - 1):
                d = lam[i] - lam[i + 1]
                if d % m:
                    ok = False
                    break
                exps.append(d // m)
            if ok and lam[n - 1] % q == 0:
                exps.append(lam[n - 1] // q)
            else:
                ok = False
        if not ok:
            raise NotInIsotypicError(
                f"leading exponent {lam} is incompatible with the invariant ring"
            )
        a = tuple(exps)
        out[a] = out.get(a, 0j) + c
        diff = work - bmap.pull(LaurentPoly.monomial(n, a, c))
        work = LaurentPoly(n, {e: v for e, v in diff.terms.items() if abs(v) > floor})
    return LaurentPoly(n, out)


# -- lift and lower ----------------------------------------------------------


def lift(ellp: EllPoly, bmap: BasicMap, f: LaurentPoly) -> LaurentPoly:
    """(1/c_rho) ell_rho * (f o theta): carries polynomials on the quotient
    into the isotypic component upstairs."""
    return ellp.poly * bmap.pull(f) * (1.0 / ellp.cnorm)


def lower(ellp: EllPoly, bmap: BasicMap, F: LaurentPoly) -> LaurentPoly:
    """Inverse of lift: exact division by ell_rho, then the theta rewrite,
    scaled by c_rho.  Raises NotInIsotypicError when F is not of the form
    ell_rho * (invariant)."""
    quotient = divide_exact(F, ellp.poly)
    return rewrite_in_theta(bmap, quotient) * ellp.cnorm
