"""Basic polynomial maps, Jacobians, relative invariants, isotypic
projections, orbit index sets, and the lift/lower unitaries between the
quotient Hardy space and the isotypic component upstairs.

ell_rho, the projected monomials and their theta forms have integer
coefficients and are computed in Python ints: ell_rho in closed form as one
signed orbit, each lowered basis element (a "row") by leading-term
elimination in S_n-orbit coordinates, with no polynomial product.  lower
reads coefficients off the rows, so it is exact on exact input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import add, sub

from .groups import Character, Group, Hyperplane, InputError, _perm_parity, make_character
from .laurent import (
    _EXACT,
    Expo,
    LaurentPoly,
    _compose,
    _young_order,
    canonical_exponent,
    orbit_template,
    sort_sign,
    sphere_monomial_weight,
    sphere_norm,
    tie_pattern,
)


class NotInIsotypicError(ValueError):
    """Raised by lower() when the input is not of the form ell * (f o theta)."""


class BoundError(InputError):
    """A negative degree or window bound."""


# -- basic polynomial maps ---------------------------------------------------


def _elementary_symmetric(n: int, i: int, inner_power: int) -> LaurentPoly:
    """e_i(z_1^m, ..., z_n^m) with integer coefficients."""
    terms = {}
    for subset in combinations(range(n), i):
        e = [0] * n
        for j in subset:
            e[j] = inner_power
        terms[tuple(e)] = 1
    return LaurentPoly(n, terms)


def _table():
    """A memo dict field, outside the constructor, repr and comparison."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class BasicMap:
    """The components theta_1..theta_n generating the invariant ring, with
    integer coefficients.

    Holds the only table of theta powers (no conj(theta)): every
    substitution t = theta(z) goes through pull() or theta(), so reuse one
    map rather than rebuilding it (basic_map returns one map per group); and
    the only lowered-basis table, `rows`: one _OrbitRows per character,
    which keeps the rows (row()) next to the orbit-coordinate products
    ellhat * theta^a they are eliminated against.  `quotients` keeps the
    quotient-side realisation of each character (toeplitz), whose moments
    are the integer Gram of the theta(b) * ell, so its moment table lives
    as long as the map.  `shift_tables` keeps the toeplitz.ShiftTable of
    each (character, window reps): its shift maps, and the gather plans of
    bh_check (built on its first call, O(width k) for k reps) and of
    compactness_probe (built on its first call per base reps, at most
    k_base^2 floor(D / q) index pairs), serve every later symbol.  The
    ambient windows' integer tables are not kept here: they need no theta,
    so toeplitz.WindowTable keeps them in Group.derived, one per
    (character value, bound).
    """

    group: Group
    components: tuple[LaurentPoly, ...]
    q: int
    _powers: dict[tuple[int, int], LaurentPoly] = _table()
    _heads: dict[Expo, LaurentPoly] = _table()
    rows: dict[Character, _OrbitRows] = _table()
    quotients: dict[Character, object] = _table()
    shift_tables: dict[tuple, object] = _table()

    @property
    def dim(self) -> int:
        return self.group.n

    def eval(self, z: tuple[complex, ...]) -> tuple[complex, ...]:
        return tuple(c.eval(z) for c in self.components)

    def power(self, k: int, e: int) -> LaurentPoly:
        """theta_{k+1}^e, memoised."""
        got = self._powers.get((k, e))
        if got is None:
            got = self._powers[(k, e)] = self.components[k] ** e
        return got

    def pull(self, f: LaurentPoly) -> LaurentPoly:
        """f o theta on the torus, for an analytic LaurentPoly f in t
        (dimension n)."""
        if f.dim != self.dim:
            raise ValueError("polynomial dimension does not match the basic map")
        if not f.is_analytic():
            raise ValueError("substitution requires an analytic polynomial")
        return _compose(self.dim, f.terms, self.power)

    def theta(self, a: Expo) -> LaurentPoly:
        """theta^a.  theta_n is a monomial, so only the product of the other
        powers is memoised (per a[:-1]) and theta_n^(a_n) shifts it."""
        if a[:-1] not in self._heads:
            self._heads[a[:-1]] = _compose(self.dim, {a[:-1] + (0,): 1}, self.power)
        return self._heads[a[:-1]] * self.power(self.dim - 1, a[-1])

    def row(self, char: Character, rep: Expo) -> LaurentPoly:
        """The integer polynomial L with ellhat * (L o theta) = |S| P_chi z^rep
        (ellhat = ell_rho / kappa, S the permutation elements), by
        leading-term elimination in orbit coordinates (_OrbitRows.row);
        memoised per (character, rep)."""
        rows = self.rows.get(char)
        if rows is None:
            rows = self.rows[char] = _OrbitRows(self, char)
        return rows.row(rep)


class _OrbitRows:
    """The lowered rows of one character, eliminated in S-orbit coordinates.

    A polynomial f in the character's isotypic component is symmetric under
    S when swap is 0 and alternating otherwise, so it is fixed by its
    coefficient at the lex-leading member of each orbit: the decreasing sort
    on G(m,p,n), and on Z(m)@k^n, where S is trivial, every exponent.  It
    is kept as the dict {key: coefficient}; z^v has coefficient
    sign * f[key] with (key, sign) = orient(v), sign 0 at a repeated value
    when f is alternating.  The lex-leading term of f is at max(f).

    P_chi is a G-module map, so for an invariant u = sum_e c_e z^e,
    u * |S| P_chi z^r = sum_e c_e |S| P_chi z^(r+e): multiplying by u reads
    (u f)[s] = sum_e c_e f(z^(s-e)) at the keys s = key(t + e) over f's
    keys t, and no orbit is enumerated.  `products` memoises
    ellhat * theta^a per a with the monomial components' exponents zeroed
    (a "head"); each head is one multiplication by a theta_k from a smaller
    head, and a monomial component (theta_n, and every component on
    Z(m)@k^n) is a shift of the keys.
    """

    def __init__(self, bmap: BasicMap, char: Character):
        group = self.group = bmap.group
        self.components, self.q = bmap.components, bmap.q
        self.sort = group.spec.kind == "Gmpn"
        self.swap = self.sort and bool(char.swap)
        # the sign of reversing n distinct values: decreasing from increasing
        self.reverse = -1 if (group.n * (group.n - 1) // 2) % 2 else 1
        self.shifts = [next(iter(c.terms)) if len(c.terms) == 1 else None
                       for c in bmap.components]
        ellhat = _ell_form(char)[1]
        self.lead = max(ellhat.terms)
        self.products: dict[Expo, dict[Expo, int]] = {
            (0,) * group.n: {e: c for e, c in ellhat.terms.items() if self.orient(e) == (e, 1)}}
        self.table: dict[Expo, LaurentPoly] = {}

    def orient(self, v: Expo) -> tuple[Expo, int]:
        """(key, sign) with f's coefficient at z^v equal to sign * f[key]."""
        if not self.sort:
            return v, 1
        key = tuple(sorted(v, reverse=True))
        if not self.swap:
            return key, 1
        return key, sort_sign(v) * self.reverse

    def times(self, f: dict[Expo, int], k: int) -> dict[Expo, int]:
        """theta_{k+1} * f in orbit coordinates."""
        u = self.components[k].terms
        out: dict[Expo, int] = {}
        seen = set()
        for t in f:
            for e in u:
                s = self.orient(tuple(map(add, t, e)))[0]
                if s in seen:
                    continue
                seen.add(s)
                total = 0
                for d, c in u.items():
                    key, sign = self.orient(tuple(map(sub, s, d)))
                    if sign and key in f:
                        total += sign * c * f[key]
                if total:
                    out[s] = total
        return out

    def product(self, a: Expo) -> dict[Expo, int]:
        """ellhat * theta^a in orbit coordinates."""
        shift = [0] * len(a)
        head = list(a)
        for k, e in enumerate(self.shifts):
            if e is not None and a[k]:
                head[k] = 0
                shift = [x + a[k] * y for x, y in zip(shift, e)]
        f = self._head(tuple(head))
        if not any(shift):
            return f
        # a monomial component is (z_1...z_n)^q on G(m,p,n): keys stay sorted
        return {tuple(map(add, t, shift)): c for t, c in f.items()}

    def _head(self, head: Expo) -> dict[Expo, int]:
        chain = []
        while head not in self.products:
            k = max(i for i, x in enumerate(head) if x)
            chain.append((head, k))
            head = head[:k] + (head[k] - 1,) + head[k + 1:]
        f = self.products[head]
        for head, k in reversed(chain):
            f = self.products[head] = self.times(f, k)
        return f

    def row(self, rep: Expo) -> LaurentPoly:
        """Eliminate |S| P_chi z^rep against the ellhat * theta^a: the
        lex-leading term c z^lam left is that of c ellhat * theta^a, with
        a = _theta_exponent(lam - lead(ellhat)) (ellhat and theta^a are monic),
        so c is recorded at a and c ellhat * theta^a subtracted.  The products'
        other terms lie below lam and share its total degree, so this ends.
        Each step is the step of the elimination of the exact quotient
        |S| P_chi z^rep / ellhat against the theta^a, so the row is the same.

        On G(m,p,n), theta_n = (z_1...z_n)^q, so |S| P_chi z^rep =
        theta_n^k |S| P_chi z^(rep - kq) for k = min(rep) // q: the row is
        that of rep - kq with t_n^k, and only reps with min(rep) < q are
        eliminated."""
        got = self.table.get(rep)
        if got is None and self.sort and min(rep) >= self.q:
            k = min(rep) // self.q
            base = self.row(tuple(x - k * self.q for x in rep))
            got = self.table[rep] = LaurentPoly(
                len(rep), {a[:-1] + (a[-1] + k,): c for a, c in base.terms.items()})
        if got is None:
            key, sign = self.orient(rep)
            # |S| P_chi z^rep at key: chi(sort) on distinct values, else the
            # stabiliser order
            top = sign if self.swap else (_young_order(rep) if self.sort else 1)
            work = {key: top} if top else {}
            out: dict[Expo, int] = {}
            group = self.group
            while work:
                lam = max(work)
                c = work[lam]
                a = _theta_exponent(group, tuple(map(sub, lam, self.lead)))
                out[a] = c
                for e, v in self.product(a).items():
                    left = work.get(e, 0) - c * v
                    if left:
                        work[e] = left
                    else:
                        work.pop(e, None)
            got = self.table[rep] = LaurentPoly(group.n, out)
        return got


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
        comps.append(LaurentPoly.monomial(n, e, 1))
        return BasicMap(group, tuple(comps), group.q)
    if spec.kind == "CyclicCoord":
        comps = []
        for i in range(n):
            power = group.m if i == spec.coord - 1 else 1
            e = [0] * n
            e[i] = power
            comps.append(LaurentPoly.monomial(n, tuple(e), 1))
        return BasicMap(group, tuple(comps), group.m)
    raise ValueError(f"unsupported group kind {spec.kind!r}")


def jacobian(bmap: BasicMap) -> LaurentPoly:
    """Determinant of the matrix of z-derivatives of the components,
    expanded symbolically over permutations (n stays small here)."""
    n = bmap.dim
    rows = [[bmap.components[i].dz(j) for j in range(n)] for i in range(n)]
    total = LaurentPoly.zero(n)
    for perm in permutations(range(n)):
        term = LaurentPoly.constant(n, -1 if _perm_parity(perm) else 1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


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
    out: dict[Expo, complex] = {}
    size = char.group.perm_order
    for a, c in f.terms.items():
        if _diagonal_match(char, a):
            _add_orbit(out, _signed_orbit(char, a), c / size)
    return LaurentPoly(n, out)


def _add_orbit(out: dict[Expo, complex], orbit: dict[Expo, int], scaled) -> dict[Expo, complex]:
    """out[b] += scaled * w at each image b of a signed orbit, from 0j: the
    float recipe of project(), which GammaBasis follows bit for bit."""
    for b, w in orbit.items():
        out[b] = out.get(b, 0j) + scaled * w
    return out


def _signed_orbit(char: Character, alpha: Expo) -> dict[Expo, int]:
    """sum_sigma conj(chi(P_sigma)) z^(sigma . alpha) over S, as the nonzero
    integer weights per image (chi(P_sigma) = +-1: its turn is parity *
    swap, swap 0 or N/2); |S| P_chi z^alpha when the diagonal test passes.

    The weight at sigma alpha is chi(sigma) times the sum of conj(chi) over
    the stabilizer Stab_S(alpha): |Stab_S(alpha)| when chi is trivial there
    and 0 otherwise (swap nonzero and a repeated value, so the stabilizer
    holds a transposition), so the dict is empty exactly when the
    projection vanishes; that case is answered before any template is
    read.  Otherwise read from alpha's orbit_template: one entry per
    distinct image, in the order in which the lexicographic loop over S
    first reaches it.  A new dict on every call.
    """
    alpha = tuple(alpha)
    group = char.group
    if len(set(alpha)) == len(alpha):
        pattern = group.identity.perm  # the all-distinct pattern, without a scan
    elif char.swap:
        return {}
    else:
        pattern = tie_pattern(alpha)
    images, stab = orbit_template(group, pattern)
    # plain loops: a comprehension's own frame costs more than the two
    # images of an n = 2 orbit
    out: dict[Expo, int] = {}
    if char.swap:
        for image, parity in images:
            out[image(alpha)] = -1 if parity else 1
    else:
        for image, _ in images:
            out[image(alpha)] = stab
    return out


def projection_norm_sq(char: Character, alpha: Expo) -> Fraction:
    """Exact squared torus norm of the projected monomial, in closed form:
    |Stab_S(alpha)|/|S| = prod_i m_i!/n! over the multiplicities m_i of
    alpha's values (1 on Z(m)@k^n) when the diagonal test passes and chi is
    trivial on the stabilizer, else 0.  The stabilizer is the Young
    subgroup of alpha's repeated values, so chi is trivial on it unless
    swap is nonzero and some value repeats.  No orbit is built."""
    alpha = tuple(alpha)
    if not _diagonal_match(char, alpha):
        return Fraction(0)
    group = char.group
    if group.spec.kind != "Gmpn" or len(set(alpha)) == len(alpha):
        return Fraction(1, group.perm_order)
    if char.swap:
        return Fraction(0)
    return Fraction(_young_order(alpha), group.perm_order)


# -- relative invariants -----------------------------------------------------


@dataclass
class EllPoly:
    """Relative invariant ell_rho = kappa * ellhat with integer coefficients,
    its Hardy-space norm c_rho and the exact square cnorm_sq."""

    character: Character
    poly: LaurentPoly
    kappa: int
    cnorm_sq: int | Fraction
    cnorm: float
    domain: str  # "polydisc" | "ball"


def _ell_form(char: Character) -> tuple[int, LaurentPoly]:
    """(kappa, ellhat) with ell_rho = kappa * ellhat, ellhat monic (lex-leading
    coefficient 1): ellhat = prod_H L_H^(c_H), c_H the least c >= 0 with
    chi(g) = det(g)^c on the generator g of the plane's stabilizer (Stanley
    1977, relative invariants of groups generated by pseudoreflections).

    G(m,p,n): the axis planes z_i = 0 (g = p e_i, det zeta_q) carry c = a
    with chi(p e_n) = zeta_q^a; z_i = zeta^t z_j (g = (i j) with phases t,
    -t) carries c = 1 iff chi(g) = -1.  chi is 1 on e_i - e_j unless n = 2
    and chi(diag(zeta, zeta^-1)) = -1 (split), so ellhat = (z_1...z_n)^a
    prod_{i<j} (z_i^m - z_j^m)^b, b = 1 iff chi(transposition) = -1.  Split,
    chi(g) = (-1)^t chi((1 2)), and the planes with t even (odd) multiply to
    z_1^(m/2) - z_2^(m/2) (+ z_2^(m/2)).  Z(m)@k^n: z_k^c, chi(e_k) = zeta_m^c.
    kappa = m^n/p on G(m,p,n) and m on Z(m)@k^n for sgn, which keeps ell_sgn
    the Jacobian of the basic map, and 1 otherwise.

    Each form is one signed orbit, built without a polynomial product: the
    Vandermonde prod_{i<j} (x_i - x_j) is sum_sigma sgn(sigma) x^(sigma delta),
    delta = (n-1, ..., 0), so ellhat is the signed orbit (_signed_orbit) of its
    lex-leading exponent, divided by that exponent's weight (its stabiliser
    order when chi is symmetric).
    """
    group = char.group
    n, m = group.n, group.m
    step = char.den // m
    sgn = char == make_character(group, "sgn")
    if group.spec.kind == "CyclicCoord":
        c = char.diag[0] // step if char.diag else 0
        lead = tuple(c if i == group.spec.coord - 1 else 0 for i in range(n))
        kappa = m if sgn else 1
    else:
        a = char.diag[n - 1] // step // group.p if group.p < m else 0
        if n == 2 and m > 1 and char.diag[0]:
            lead = (a + m // 2, a)
        elif char.swap:
            lead = tuple(a + m * (n - 1 - i) for i in range(n))
        else:
            lead = (a,) * n
        kappa = m ** n // group.p if sgn else 1
    orbit = _signed_orbit(char, lead)
    return kappa, LaurentPoly(n, {b: w // orbit[lead] for b, w in orbit.items()})


def ell(char: Character, domain: str = "polydisc", bmap: BasicMap | None = None) -> EllPoly:
    """Lowest-degree relative invariant for a one-dimensional character, in
    closed form (_ell_form): ell_sgn is exactly the Jacobian of the basic
    map, every other character gets the monic hyperplane product.  c_rho^2
    is the exact sum of the squared coefficients, weighted on the ball by
    the monomials' sphere norms.  The closed form does not read `bmap`."""
    kappa, ellhat = _ell_form(char)
    poly = ellhat * kappa
    if domain == "polydisc":
        cnorm_sq = sum(c * c for c in poly.terms.values())
    elif domain == "ball":
        cnorm_sq = sum(c * c * sphere_monomial_weight(e) for e, c in poly.terms.items())
    else:
        raise ValueError(f"unknown domain tag {domain!r}")
    return EllPoly(char, poly, kappa, cnorm_sq, math.sqrt(cnorm_sq), domain)


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


class GammaBasis:
    """The orthonormal basis gamma_m of one isotypic component of H^2:
    P_chi z^m for canonical reps m, scaled to unit norm in the domain's
    inner product: by the exact 1/sqrt(|S_m|/|S|) on the polydisc, by
    1/sphere_norm on the ball.  A rep that is not canonical (on G(m,p,n):
    not weakly increasing) or whose projection vanishes raises KeyError.
    Each element is built from one signed orbit (_signed_orbit), which also
    gives its norm, with the float operations of project(z^rep) followed by
    `* (1.0 / scale)`, so it equals that route bit for bit.  Elements and
    factors are memoised per basis, which shared() keeps; its polydisc
    factors serve every toeplitz.WindowTable."""

    def __init__(self, character: Character, domain: str = "polydisc"):
        if domain not in ("polydisc", "ball"):
            raise ValueError(f"unknown domain tag {domain!r}")
        self.character = character
        self.domain = domain
        self._cache: dict[Expo, tuple[LaurentPoly, float]] = {}
        self._factors: dict[Expo, float] = {}

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
        return self._entry(rep)[0]

    def factor(self, rep: Expo) -> float:
        """s with gamma_rep = s * |S| P_chi z^rep, the integer projection: on
        the polydisc 1/(|S| sqrt(|S_rep|/|S|)) from projection_norm_sq, with
        no element built (float of its Fraction rounds like the element's
        int/int division, so the bits agree), on the ball off the element."""
        rep = self._canonical(rep)
        got = self._factors.get(rep)
        if got is None:
            if self.domain == "ball":
                got = self._entry(rep)[1]
            elif norm_sq := projection_norm_sq(self.character, rep):
                got = 1.0 / (self.character.group.perm_order * math.sqrt(norm_sq))
            else:
                raise KeyError(f"projection of z^{rep} vanishes")
            self._factors[rep] = got
        return got

    def _canonical(self, rep: Expo) -> Expo:
        rep = tuple(rep)
        if self.character.group.spec.kind == "Gmpn" and any(a > b for a, b in zip(rep, rep[1:])):
            raise KeyError(f"{rep} is not a canonical representative")
        return rep

    def _entry(self, rep: Expo) -> tuple[LaurentPoly, float]:
        rep = self._canonical(rep)
        got = self._cache.get(rep)
        if got is None:
            char = self.character
            orbit = _signed_orbit(char, rep) if _diagonal_match(char, rep) else {}
            if rep not in orbit:
                raise KeyError(f"projection of z^{rep} vanishes")
            # project(z^rep) in one pass: every weight has 1 <= |w| <= |S|,
            # so its cleanup would drop none
            size = char.group.perm_order
            terms = _add_orbit({}, orbit, 1 / size)
            f = LaurentPoly._wrap(char.group.n, terms)
            # |S_rep|/|S| = orbit[rep]/|S|, an int/int division correctly
            # rounded like float(projection_norm_sq)
            scale = sphere_norm(f) if self.domain == "ball" else math.sqrt(orbit[rep] / size)
            inv = 1.0 / scale
            for b, c in terms.items():
                terms[b] = c * inv
            got = self._cache[rep] = (f, 1.0 / (size * scale))
        return got


# -- the theta rewrite ------------------------------------------------------


def _theta_exponent(group: Group, lam: Expo) -> Expo:
    """The a whose theta^a has lex-leading term z^lam (coefficient 1).  For
    G(m,p,n), lam must be weakly decreasing with m | (lam_i - lam_{i+1}) and
    q | lam_n: a_i = (lam_i - lam_{i+1})/m, a_n = lam_n / q.  For Z(m)@k^n,
    m | lam_k and a_k = lam_k / m."""
    if min(lam) >= 0:
        if group.spec.kind == "CyclicCoord":
            k = group.spec.coord - 1
            if lam[k] % group.m == 0:
                return tuple(x // group.m if i == k else x for i, x in enumerate(lam))
        else:
            steps = [x - y for x, y in zip(lam, lam[1:])]
            if all(d >= 0 and d % group.m == 0 for d in steps) and lam[-1] % group.q == 0:
                return (*(d // group.m for d in steps), lam[-1] // group.q)
    raise NotInIsotypicError(f"leading exponent {lam} is incompatible with the invariant ring")


def rewrite_in_theta(bmap: BasicMap, h: LaurentPoly) -> LaurentPoly:
    """Write a G-invariant analytic polynomial as a polynomial in the basic
    invariants: lower() with the trivial character, whose ell is 1."""
    return lower(ell(make_character(bmap.group, "trivial")), bmap, h)


# -- lift and lower ----------------------------------------------------------

# lower's float tolerance, relative to F's largest |coefficient|
_LOWER_TOL = 1e-9


def lift(ellp: EllPoly, bmap: BasicMap, f: LaurentPoly) -> LaurentPoly:
    """(1/c_rho) ell_rho * (f o theta): carries polynomials on the quotient
    into the isotypic component upstairs."""
    return ellp.poly * bmap.pull(f) * (1.0 / ellp.cnorm)


def lowered(ellp: EllPoly, bmap: BasicMap, rep: Expo) -> LaurentPoly:
    """lower(gamma_rep) for a basis rep of ellp's character and domain: the
    exact row times c_rho s / kappa, with s = GammaBasis.factor(rep)."""
    scale = ellp.cnorm * GammaBasis.shared(ellp.character, ellp.domain).factor(rep)
    return bmap.row(ellp.character, rep) * (scale / ellp.kappa)


def lower(ellp: EllPoly, bmap: BasicMap, F: LaurentPoly) -> LaurentPoly:
    """Inverse of lift, read off F's coefficients.  With P~ = |S| P_chi, an
    isotypic F is sum_r x_r P~z^r over canonical reps r, x_r = F[r] / w_r
    with w_r = _signed_orbit(chi, r)[r]; ellhat * (row_r o theta) = P~z^r,
    so lower(F) = (c_rho / kappa) sum_r x_r row_r.  Summed in F's
    coefficient type over the common denominator |S| (w_r divides it) and
    scaled once at the end, not at all when c_rho = kappa (the trivial
    character): exact on int and Fraction input.  Raises NotInIsotypicError
    unless F = sum_r x_r P~z^r image by image (exactly on exact input,
    within _LOWER_TOL on float input)."""
    char = ellp.character
    group = char.group
    size = group.perm_order
    terms = F.terms
    exact = all(isinstance(c, _EXACT) for c in terms.values())
    limit = 0 if exact else _LOWER_TOL * F.max_abs_coeff()
    total: dict[Expo, complex] = {}
    for r in sorted({canonical_exponent(group, e) for e in terms}):
        orbit = _signed_orbit(char, r) if min(r) >= 0 and _diagonal_match(char, r) else {}
        w = orbit.get(r)
        if w is None:  # a negative exponent, a failed diagonal test or a vanishing orbit
            raise NotInIsotypicError(f"z^{r} is outside this isotypic component of H^2")
        top = terms.get(r, 0)
        # F[b] = x_r orbit[b] at every image b, both sides times w_r
        for b, v in orbit.items():
            if abs(terms.get(b, 0) * w - top * v) > limit * w:
                raise NotInIsotypicError("polynomial is not in this isotypic component")
        k = top * (size // w)  # |S| x_r
        for a, c in bmap.row(char, r).terms.items():
            total[a] = total.get(a, 0) + k * c
    scale = 1 if ellp.cnorm_sq == ellp.kappa ** 2 else ellp.cnorm / ellp.kappa
    return LaurentPoly(F.dim, {a: _divide(c, size) * scale for a, c in total.items()})


def _divide(c, d: int):
    """c / d: an int when d divides an int c, else a Fraction for an int c."""
    if isinstance(c, int):
        return c // d if c % d == 0 else Fraction(c, d)
    return c / d
