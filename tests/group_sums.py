"""Plain O(|G|) group sums, O(n!) permutation loops and per-entry loops:
the reference implementations that the orbit-sum projection, its exact
norm, the orbit templates (signed orbits, orbit exponents, canonical
exponents and the closed-form stabiliser norm), the one-pass gamma
elements, the closed-form quotient kernel, the characters' generator
forms, the generator-set invariance test, the pushforward moments'
integer Gram (the (t, conj t) composition pull_harmonic and the constant
term against |ell|^2), the quotient route's moment windows (the column
loop quotient_route_functionals with per-basis functionals, and the
product pairing through conj_zbar), the sparse series table, the
closed-form reflecting hyperplanes, the window tables, the shift-table
Brown-Halmos check (its expansions by expand_loop of the ambient product)
and compactness probe, their gather plans (the index grids rebuilt per
call of relations_ix, bh_check_ix and compactness_ix), the
orbit-coordinate lowered rows (exact division and elimination on full
polynomials), the series-table reproducing check,
the coefficient-reading lower (pairing with the gamma basis,
expand_loop and lower_loop), the isotypic product route's window products
(the column route product_compare_loop, with the isotypic Hardy
projection), the unranked symbol draws (orbit_sum_loop), the LaurentPoly
arithmetic (two-pass clean_loop, mul_loop, sub_loop as a + (-b), pow_loop
with every squaring, substitute_loop with one power per term) and the
monomial route's pairing (the _fill loop over torus_inner,
monomial_route_loop) are tested against; the series kernel and
reproducing check, which only the tests call; the float hyperplane
product that the closed-form relative invariants are tested against; the
base-ball Toeplitz entry and its sphere pair integral; and the
per-element and per-term helpers they and the tests use (the point tables
among them).  Test oracles only; nothing in the package calls them."""

import functools
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from hardyq.groups import GroupElement, _perm_parity, make_character, root_of_unity
from hardyq.kernels import KernelSpec, SeriesKernel, base_kernel, check_point
from hardyq.laurent import (CLEANUP_REL, Expo, LaurentPoly, act, canonical_exponent,
                            sphere_inner, sphere_monomial_weight, sphere_norm, torus_inner)


def apply_point(g: GroupElement, z) -> tuple[complex, ...]:
    """Matrix-vector action (g . z)_i = zeta^phase_i * z_{perm^{-1}(i)}."""
    inv = [0] * g.n
    for j, i in enumerate(g.perm):
        inv[i] = j
    return tuple(root_of_unity(Fraction(g.phase[i], g.mod)) * z[inv[i]] for i in range(g.n))


def is_identity(g: GroupElement) -> bool:
    return all(g.perm[i] == i for i in range(g.n)) and not any(g.phase)


def det_of(group, g: GroupElement) -> complex:
    return root_of_unity(det_turn(group, g))


def value_inv(char, g: GroupElement) -> complex:
    """chi(g^{-1}) = conj(chi(g))."""
    return root_of_unity(-char.turn(g))


def is_disjoint(h: LaurentPoly) -> bool:
    """True when every stored term of a (z, conj z) polynomial of dimension
    2n has min(e_i, e_{n+i}) = 0."""
    n = h.dim // 2
    return all(all(min(e[i], e[n + i]) == 0 for i in range(n)) for e in h.terms)


def conj_zbar(f: LaurentPoly) -> LaurentPoly:
    """Complex conjugate of a (z, conj z) polynomial of dimension 2n: swap
    the z and conj(z) halves and conjugate the coefficients."""
    n = f.dim // 2
    return LaurentPoly(f.dim, {e[n:] + e[:n]: c.conjugate() for e, c in f.terms.items()})


def torus_restriction(h: LaurentPoly) -> LaurentPoly:
    """Substitute conj(z) = z^{-1} in every coordinate of a (z, conj z)
    polynomial of dimension 2n."""
    n = h.dim // 2
    out: dict[Expo, complex] = {}
    for e, c in h.terms.items():
        f = tuple(e[i] - e[n + i] for i in range(n))
        out[f] = out.get(f, 0j) + c
    return LaurentPoly(n, out)
from hardyq.invariants import (GammaBasis, NotInIsotypicError, _diagonal_match, _ell_form,
                               _theta_exponent, hyperplane_form, index_set, lift, lower, lowered,
                               project, projection_norm_sq)
from hardyq.toeplitz import (RESIDUAL_TOL, BHReport, CompactnessReport, CompareReport,
                             QuotientRealization, SymbolPair, ToeplitzWindow, _fill,
                             _magnitude, _theta_gamma, _verdict_scale)


def point_tables(group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(roots, phase, src) with (g z)_i = roots[phase[g, i]] * z[src[g, i]]
    for every element g: one root_of_unity per phase value, and |G| x n
    index tables in the smallest integer types.  Rows run perm-major in
    perm_images() order and phase_vectors() order inside; built once per
    group."""
    got = group.derived.get("point_tables")
    if got is None:
        n, m = group.n, group.m
        roots = np.array([root_of_unity(Fraction(k, m)) for k in range(m)])
        phases = np.array(group.phase_vectors(), dtype=np.min_scalar_type(m - 1))
        src = np.argsort(group.perm_images(), axis=1).astype(np.min_scalar_type(n - 1))
        got = group.derived["point_tables"] = (
            roots, np.tile(phases, (len(src), 1)), np.repeat(src, len(phases), axis=0))
    return got


@functools.cache
def elements(group) -> list[GroupElement]:
    """Every element in point_tables row order, read back from the tables
    (src is the inverse permutation of each row's perm)."""
    _, phase, src = point_tables(group)
    perms = np.argsort(src, axis=1).tolist()
    return [GroupElement(tuple(g), tuple(ph), group.m) for g, ph in zip(perms, phase.tolist())]


def enumerate_elements(spec):
    """Every element of the group a GroupSpec names, one Python loop over
    the permutations (lexicographic) and, inside it, over the phase vectors
    (lexicographic, kept when their sum is divisible by p)."""
    if spec.kind == "CyclicCoord":
        k = spec.coord - 1
        for a in range(spec.m):
            phase = [0] * spec.n
            phase[k] = a
            yield GroupElement(tuple(range(spec.n)), tuple(phase), spec.m)
        return
    for perm in permutations(range(spec.n)):
        for phase in product(range(spec.m), repeat=spec.n):
            if sum(phase) % spec.p == 0:
                yield GroupElement(perm, phase, spec.m)


def numpy_nums(char) -> list[int]:
    """Turn numerators per element as numpy tables: the phase vectors from
    np.indices (lexicographic, sum divisible by p) or the one coordinate of
    Z(m)@k^n, their diagonal coordinates (phi_1, ..., phi_{n-1}, sum/p) or
    phi_k, one block per permutation in lexicographic order shifted by
    parity * swap."""
    group = char.group
    n, m = group.n, group.m
    if group.spec.kind == "Gmpn":
        phases = np.indices((m,) * n).reshape(n, -1).T
        phases = phases[phases.sum(axis=1) % group.p == 0]
        coords = np.concatenate([phases[:, :-1], phases.sum(axis=1, keepdims=True) // group.p],
                                axis=1)
        perms = list(permutations(range(n)))
    else:
        coords = np.arange(m)[:, None]
        perms = [tuple(range(n))]
    block = coords[:, :len(group.diagonal_generators)] @ np.array(char.diag, dtype=np.int64)
    parity = np.array([_perm_parity(p) for p in perms], dtype=np.int64)
    return (np.add.outer(parity * char.swap, block) % char.den).ravel().tolist()


def det_turn(group, g: GroupElement) -> Fraction:
    """det(g) as a rational turn: sign(perm) * zeta_m^(sum of phases)."""
    turn = Fraction(_perm_parity(g.perm), 2) + Fraction(sum(g.phase), group.m)
    return turn % 1


def det_turns(group) -> list[Fraction]:
    """det(g) as a turn per element from det_turn (Fraction arithmetic on
    the permutation parity and the phase sum), each cross-checked against
    the numerical determinant of the element's monomial matrix."""
    turns = []
    for g in elements(group):
        t = det_turn(group, g)
        numeric = np.linalg.det(np.array(g.matrix()))
        assert abs(numeric - root_of_unity(t)) < 1e-12, (g, t, numeric)
        turns.append(t)
    return turns


def fixed_space_dim(group, g) -> int:
    """dim ker(I - g), exact: one dimension per perm cycle whose phase
    product is 1."""
    seen = [False] * group.n
    dim = 0
    for start in range(group.n):
        if seen[start]:
            continue
        total = 0
        j = start
        while not seen[j]:
            seen[j] = True
            total += g.phase[j]
            j = g.perm[j]
        if total % group.m == 0:
            dim += 1
    return dim


def is_reflection(group, g) -> bool:
    return fixed_space_dim(group, g) == group.n - 1


def scanned_hyperplanes(group) -> dict[tuple, list]:
    """Every reflection of the group, found by one is_reflection per element
    and bucketed by the exact key of its fixed hyperplane: ("axis", i) for a
    single nonzero diagonal phase at i (z_i = 0), ("diff", i, j, t) for a
    phased transposition (i j) fixing z_i = zeta^t z_j."""
    buckets: dict[tuple, list] = {}
    for g in elements(group):
        if not is_reflection(group, g):
            continue
        moved = [j for j in range(group.n) if g.perm[j] != j]
        if not moved:
            (i,) = [i for i in range(group.n) if g.phase[i]]
            key = ("axis", i)
        else:
            i, j = moved
            key = ("diff", i, j, g.phase[i])
        buckets.setdefault(key, []).append(g)
    return buckets


def sgn_turns(group) -> list[Fraction]:
    """sgn = det^{-1} per element."""
    return [(-t) % 1 for t in det_turns(group)]


def closure_turns(group, assignments) -> list[Fraction]:
    """Turns per element of the character with the given generator turns,
    by breadth-first closure in Fractions; None if the assignments are
    inconsistent or do not generate the group."""
    turns = {group.identity: Fraction(0)}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, ts in assignments.items():
                h, t = group.mul(g, s), (turns[g] + Fraction(ts)) % 1
                if h not in turns:
                    turns[h] = t
                    nxt.append(h)
                elif turns[h] != t:
                    return None
        frontier = nxt
    if len(turns) != len(group):
        return None
    return [turns[g] for g in elements(group)]


def invariant_under_every_element(group, f: LaurentPoly) -> bool:
    """The G-invariance check with one act() per element, at the symbol
    tolerance 1e-9 * max(max |coefficient|, 1)."""
    scale = max(f.max_abs_coeff(), 1.0)
    return all((act(g, f) - f).is_zero(tol=1e-9 * scale) for g in elements(group))


def group_sum_project(char, f: LaurentPoly) -> LaurentPoly:
    """(1/|G|) sum_g conj(chi(g)) R_g f, one act() per element."""
    group = char.group
    total = LaurentPoly.zero(f.dim)
    for g in elements(group):
        total = total + value_inv(char, g) * act(g, f)
    return total * (1.0 / len(group))


def stabilizer_norm_sq(char, alpha: Expo) -> Fraction:
    """|S_alpha|/|G| over the full stabilizer list S_alpha of the exponent
    vector when chi(g) equals the turn of R_g z^alpha = zeta^turn z^alpha on
    all of it, else 0."""
    group = char.group
    alpha = tuple(alpha)
    stab = 0
    for g in elements(group):
        if tuple(alpha[g.perm[j]] for j in range(len(alpha))) != alpha:
            continue
        turn = Fraction(sum(p * x for p, x in zip(g.phase, alpha)), g.mod) % 1
        if char.turn(g) != turn:
            return Fraction(0)
        stab += 1
    return Fraction(stab, len(group))


def signed_orbit_loop(char, alpha: Expo) -> dict[Expo, int]:
    """_signed_orbit by the loop over every permutation part: sigma . alpha =
    (alpha[sigma(0)], ...) gets + or - chi(sigma) (+1 on even sigma, and on
    odd sigma when swap is 0), summed per image in the lexicographic order
    of perm_images(), zero weights dropped."""
    alpha = tuple(alpha)
    odd = -1 if char.swap else 1
    weights: dict[Expo, int] = {}
    for perm in char.group.perm_images():
        b = tuple(alpha[j] for j in perm)
        weights[b] = weights.get(b, 0) + (odd if _perm_parity(perm) else 1)
    return {b: w for b, w in weights.items() if w}


def orbit_exponents_loop(group, expo: Expo) -> list[Expo]:
    """The sorted set of images of expo over every permutation part."""
    seen = set()
    for perm in group.perm_images():
        b = [0] * len(expo)
        for j, x in enumerate(expo):
            b[perm[j]] = x
        seen.add(tuple(b))
    return sorted(seen)


def canonical_loop(group, expo: Expo) -> Expo:
    """The lexicographic minimum over orbit_exponents_loop."""
    return min(orbit_exponents_loop(group, expo))


def orbit_norm_loop(char, alpha: Expo) -> Fraction:
    """projection_norm_sq as the signed_orbit_loop weight at alpha over |S|
    after the diagonal test."""
    alpha = tuple(alpha)
    if not _diagonal_match(char, alpha):
        return Fraction(0)
    return Fraction(signed_orbit_loop(char, alpha).get(alpha, 0), len(char.group.perm_images()))


def gamma_element_loop(char, domain: str, rep: Expo) -> tuple[LaurentPoly, float]:
    """GammaBasis's (gamma_rep, factor) through project(z^rep) and
    LaurentPoly's scalar product, each with its cleanup: scaled by
    1/sqrt(stabilizer_norm_sq) on the polydisc and by 1/sphere_norm on the
    ball.  KeyError for a rep that is not canonical (on G(m,p,n): not
    weakly increasing) or whose projection vanishes."""
    group = char.group
    rep = tuple(rep)
    if group.spec.kind == "Gmpn" and list(rep) != sorted(rep):
        raise KeyError(f"{rep} is not a canonical representative")
    nsq = stabilizer_norm_sq(char, rep)
    if nsq == 0:
        raise KeyError(f"projection of z^{rep} vanishes")
    f = project(char, LaurentPoly.monomial(group.n, rep))
    scale = sphere_norm(f) if domain == "ball" else math.sqrt(nsq)
    return f * (1.0 / scale), 1.0 / (len(group.perm_images()) * scale)


def group_sum_kernel(spec: KernelSpec, z, w) -> tuple[complex, float]:
    """The quotient kernel as one base_kernel call per element, and the
    magnitude (c^2/|G|) sum_g |S(g z, w)| / |ell(z) ell(w)| that bounds the
    rounding of any summation order of it."""
    z, w = tuple(z), tuple(w)
    total = 0j
    mass = 0.0
    for g in elements(spec.group):
        s = base_kernel(spec.domain, apply_point(g, z), w)
        total += value_inv(spec.character, g) * s
        mass += abs(s)
    ell_z, ell_w = spec.ellp.poly.eval(z), spec.ellp.poly.eval(w)
    scale = spec.ellp.cnorm ** 2 / len(spec.group)
    return scale * total / (ell_z * ell_w.conjugate()), scale * mass / abs(ell_z * ell_w)


_TORUS_POWERS: dict[tuple, LaurentPoly] = {}


def _torus_power(bmap, k: int, e: int) -> LaurentPoly:
    """theta_{k+1}^e for k < n and conj(theta_{k-n+1})^e on the torus for
    n <= k < 2n, from the components alone; memoised per group spec."""
    key = (bmap.group.spec, k, e)
    got = _TORUS_POWERS.get(key)
    if got is None:
        n = bmap.dim
        comp = bmap.components[k] if k < n else bmap.components[k - n].conj_torus()
        got = _TORUS_POWERS[key] = comp ** e
    return got


def pull_harmonic(bmap, f: LaurentPoly) -> LaurentPoly:
    """f o (theta, conj theta) on the torus, for an analytic (t, conj t)
    polynomial f of dimension 2n (coordinate n + k standing for
    conj(t_{k+1})): sum of c * prod_k power(k, e_k) over the sorted exponent
    vectors e, factors in the order constant, then k ascending."""
    n = bmap.dim
    if f.dim != 2 * n:
        raise ValueError("pull_harmonic takes a (t, conj t) polynomial of dimension 2n")
    if not f.is_analytic():
        raise ValueError("substitution requires an analytic polynomial")
    total = LaurentPoly.zero(n)
    for e in sorted(f.terms):
        mono = LaurentPoly.constant(n, f.terms[e])
        for k, ek in enumerate(e):
            if ek:
                mono = mono * _torus_power(bmap, k, ek)
        total = total + mono
    return total


def ell_weight(qr) -> LaurentPoly:
    """|ell|^2 = ell conj(ell) on the torus."""
    return qr.ellp.poly * qr.ellp.poly.conj_torus()


_PULLED_MOMENTS: dict[tuple, complex] = {}


def pulled_moment(qr, key: Expo) -> complex:
    """QuotientRealization.moment(key) without the Gram: the constant term
    of pull_harmonic(t^key) times |ell|^2, summed in doubles without forming
    the product.  Memoised per realisation value (group spec, character
    turns) and key, so the realisations of fresh groups share it."""
    memo = (qr.group.spec, qr.character.diag, qr.character.swap, key)
    got = _PULLED_MOMENTS.get(memo)
    if got is None:
        pulled = pull_harmonic(qr.bmap, LaurentPoly(2 * qr.group.n, {key: 1.0}))
        weight = ell_weight(qr).terms
        got = 0j
        for e, c in pulled.terms.items():
            w = weight.get(tuple(-x for x in e))
            if w is not None:
                got += c * w
        _PULLED_MOMENTS[memo] = got
    return got


def pushforward_inner(qr, f: LaurentPoly, g: LaurentPoly) -> tuple[complex, float, int]:
    """<f, g> of the pushforward measure for (t, conj t) polynomials of
    dimension 2n, with the whole product pulled back through theta on every
    call: CT(pull_harmonic(f conj(g)) |ell|^2) / c^2.  Also returns the
    magnitude sum_e |h_e| sum_a |P[a]| |W[-a]| / c^2 of h = f conj(g),
    P = pull_harmonic(t^e) and W = |ell|^2, and the largest term count of
    such a P."""
    n = f.dim // 2
    gbar = LaurentPoly(2 * n, {e[n:] + e[:n]: c.conjugate() for e, c in g.terms.items()})
    h = f * gbar
    weight = ell_weight(qr)
    integrand = pull_harmonic(qr.bmap, h) * weight
    mass, widest = 0.0, 0
    for key, c in h.terms.items():
        pulled = pull_harmonic(qr.bmap, LaurentPoly(2 * n, {key: 1.0}))
        widest = max(widest, len(pulled.terms))
        mass += abs(c) * sum(abs(p) * abs(weight.coeff(tuple(-x for x in a)))
                             for a, p in pulled.terms.items())
    c2 = qr.ellp.cnorm ** 2
    return integrand.coeff((0,) * n) / c2, mass / c2, widest


def quotient_route_loop(u, v, mode: str, character, bmap, bound: int,
                        magnitude: bool = False) -> tuple[CompareReport, int]:
    """_quotient_route_compare with the product pairing: <f, g> is
    sum_e h_e mu(e) / c^2 over h = f conj(g), each projection adds
    <f, e_r> e_r to a LaurentPoly one rep at a time, and every column is
    paired against the lowered polynomials, and the moments are
    pulled_moment's, not the route's Gram.  Shares only the realisation's
    lowered basis with the route.  With magnitude=True the theta
    forms, lowered elements and moments are replaced by their absolute
    values and the residual's difference by a sum, so each entry is the sum
    of the magnitudes of the leaves the entry adds up.  Also returns the
    largest number of terms any one sum adds: a product h or a projection's
    rep set."""
    qr = QuotientRealization.shared(character)
    n = character.group.n
    widest = 0

    def mag(p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(p.dim, {e: abs(c) for e, c in p.terms.items()}) if magnitude else p

    def inner(f: LaurentPoly, g: LaurentPoly) -> complex:
        nonlocal widest
        h = f * conj_zbar(g)
        widest = max(widest, len(h.terms))
        total = 0j
        for key, c in h.terms.items():
            mu = pulled_moment(qr, key)
            total += c * (abs(mu) if magnitude else mu)
        return total / qr.ellp.cnorm_sq

    def project(f: LaurentPoly, exp_bound: int) -> LaurentPoly:
        nonlocal widest
        reps = index_set(character, exp_bound).reps
        widest = max(widest, len(reps))
        out = LaurentPoly.zero(2 * n)
        for rep in reps:
            e = mag(qr.basis_down(rep))
            c = inner(f, e)
            if c:
                out = out + c * e
        return out

    uh, vh = mag(u.theta_form(bmap)), mag(v.theta_form(bmap))
    reps = list(index_set(character, bound, holomorphic=True).reps)
    out = np.zeros((len(reps), len(reps)), dtype=complex)
    for j, a in enumerate(reps):
        fa = mag(qr.basis_down(a))
        first = uh * project(vh * fa, v.radius() + bound)
        if mode == "semi":
            second = (uh * vh) * fa
        else:
            second = vh * project(uh * fa, u.radius() + bound)
        for i, b in enumerate(reps):
            e = mag(qr.basis_down(b))
            x, y = inner(first, e), inner(second, e)
            out[i, j] = x + y if magnitude else x - y
    return CompareReport._judge(mode, reps, out, _verdict_scale([u, v])), widest


def quotient_route_functionals(u, v, mode: str, character, bmap,
                               bound: int) -> tuple[CompareReport, int]:
    """_quotient_route_compare as a column loop over the lowered basis: each
    column T_v e_a is projected onto the lowered basis up to bound + r_v as
    a polynomial, multiplied by the theta form of u and paired with every
    e_b.  <f, e_r> is sum_k f_k phi_r(k) / c^2 through the functional
    phi_r(k) = sum_j conj(e_r[j]) mu(k + swap(j)) (e_r is holomorphic:
    conjugating its term at j = (a, 0) moves a to the conj(t) half,
    swap(j) = (0, a)), read from the realisation's moments and kept for
    this call's pairings.  Shares the realisation's moments and lowered
    basis with the route.  Also returns the largest number of terms any one
    sum adds: a paired polynomial, a functional's lowered element, a
    projection's rep set or a factor of a product polynomial."""
    qr = QuotientRealization.shared(character)
    n = character.group.n
    functionals: dict[Expo, dict[Expo, complex]] = {}
    widest = 0

    def inner(f: LaurentPoly, rep: Expo) -> complex:
        nonlocal widest
        phi = functionals.setdefault(tuple(rep), {})
        e = qr.basis_down(rep)
        widest = max(widest, len(f.terms), len(e.terms))
        total = 0j
        for key, c in f.terms.items():
            p = phi.get(key)
            if p is None:
                p = 0j
                for j, w in e.terms.items():
                    p += w.conjugate() * qr.moment(tuple(a + b for a, b in zip(key, j[n:] + j[:n])))
                phi[key] = p
            total += c * p
        return total / qr.ellp.cnorm_sq

    def times(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        nonlocal widest
        widest = max(widest, len(f.terms), len(g.terms))
        return f * g

    def project(f: LaurentPoly, exp_bound: int) -> LaurentPoly:
        nonlocal widest
        reps = index_set(character, exp_bound).reps
        widest = max(widest, len(reps))
        out = LaurentPoly.zero(2 * n)
        for rep in reps:
            c = inner(f, rep)
            if c:
                out = out + c * qr.basis_down(rep)
        return out

    uh, vh = u.theta_form(bmap), v.theta_form(bmap)
    reps = list(index_set(character, bound, holomorphic=True).reps)
    out = np.zeros((len(reps), len(reps)), dtype=complex)
    for j, a in enumerate(reps):
        fa = qr.basis_down(a)
        first = times(uh, project(times(vh, fa), v.radius() + bound))
        if mode == "semi":
            second = times(times(uh, vh), fa)
        else:
            second = times(vh, project(times(uh, fa), u.radius() + bound))
        for i, b in enumerate(reps):
            out[i, j] = inner(first, b) - inner(second, b)
    return CompareReport._judge(mode, reps, out, _verdict_scale([u, v])), widest


def series_sum(sk, x, y) -> tuple[complex, float]:
    """The truncated series kernel with one LaurentPoly.eval per basis
    element and point, and the magnitude sum_m A_m(x) A_m(y), with A_m(x)
    the sum of |c| |x|^a over the terms of basis element m."""
    x, y = tuple(x), tuple(y)
    total = 0j
    mass = 0.0

    def absolute(e, p):
        return sum(abs(c) * np.prod(np.abs(p) ** np.array(a)) for a, c in e.terms.items())

    for e in sk.basis_down:
        total += e.eval(x) * e.eval(y).conjugate()
        mass += absolute(e, x) * absolute(e, y)
    return total, mass


def series_kernel(spec: KernelSpec, x, y, bound: int) -> complex:
    """The truncated series kernel at one pair of quotient points, from a
    SeriesKernel built for the call."""
    return SeriesKernel(spec, bound).eval(x, y)


def reproducing_check(spec: KernelSpec, f: LaurentPoly, w, bound: int) -> float:
    """|<f, S(. , theta(w))> - f(theta(w))| for the truncated kernel: the sum
    of <lift f, gamma_m> e_m(theta(w)) over the rows of SeriesKernel(spec,
    bound), gamma_m from the shared basis of the spec's domain and paired in
    that domain's inner product.  Zero up to rounding once the truncation
    dominates deg f."""
    check_point(spec.domain, tuple(w))
    series = SeriesKernel(spec, bound)
    basis = GammaBasis.shared(spec.character, spec.domain)
    inner = torus_inner if spec.domain == "polydisc" else sphere_inner
    F = lift(spec.ellp, spec.bmap, f)
    coeffs = np.array([inner(F, basis(r)) for r in series.reps], dtype=complex)
    tw = spec.bmap.eval(tuple(w))
    return abs(complex(coeffs @ series._values(tw)) - f.eval(tw))


def reproducing_loop(spec: KernelSpec, f: LaurentPoly, w, bound: int) -> float:
    """reproducing_check with one basis element at a time: gamma_m is the
    projected monomial scaled by its norm in the domain's own inner
    product, paired with lift f and multiplied by one LaurentPoly.eval of
    lower(gamma_m) at theta(w)."""
    inner = torus_inner if spec.domain == "polydisc" else sphere_inner
    tw = spec.bmap.eval(tuple(w))
    F = lift(spec.ellp, spec.bmap, f)
    total = 0j
    for mvec in index_set(spec.character, bound, holomorphic=True):
        g = project(spec.character, LaurentPoly.monomial(spec.group.n, mvec))
        gam = g * (1.0 / math.sqrt(inner(g, g).real))
        total += inner(F, gam) * lower(spec.ellp, spec.bmap, gam).eval(tw)
    return abs(total - f.eval(tw))


def toeplitz_window_loop(symbol, character, bound: int, basis=None) -> ToeplitzWindow:
    """toeplitz_window with one pairing per entry: column j is the product
    u * gamma_{r_j} summed into a raw coefficient dict, with no cleanup (a
    LaurentPoly product would drop terms below 1e-12 of its largest, such
    as the 1e-12-sized entries of a symbol that is invariant only to
    1e-11), and paired with every gamma_{r_i} as sum_a col_a conj(g_a)."""
    basis = basis or GammaBasis(character)
    reps = list(index_set(character, bound, holomorphic=True).reps)
    gammas = [basis(r).terms for r in reps]
    out = np.zeros((len(reps), len(reps)), dtype=complex)
    for j, g in enumerate(gammas):
        col: dict[Expo, complex] = {}
        for e1, c1 in symbol.pullback.terms.items():
            for e2, c2 in g.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                col[e] = col.get(e, 0) + c1 * c2
        for i, h in enumerate(gammas):
            out[i, j] = sum(col[e] * c.conjugate() for e, c in sorted(h.items()) if e in col)
    return ToeplitzWindow(character, bound, reps, out)


def isotypic_hol_project(f: LaurentPoly, character) -> LaurentPoly:
    """The Hardy projection onto one isotypic component of the polydisc:
    the negative-exponent cut followed by the isotypic projection (the two
    commute: permutations preserve the negativity pattern)."""
    kept = {e: c for e, c in f.terms.items() if min(e) >= 0}
    return project(character, LaurentPoly(f.dim, kept))


def isotypic_toeplitz(symbol, character, f: LaurentPoly) -> LaurentPoly:
    """T_u f = P_chi(u f) on the isotypic component of `character`."""
    return isotypic_hol_project(symbol.pullback * f, character)


def product_compare_loop(u, v, mode: str, character, bound: int,
                         chain=None) -> CompareReport:
    """product_compare by columns: each column is the polynomial (compared
    operator) gamma_j, built by LaurentPoly products, each followed by the
    isotypic Hardy projection, and paired with every gamma_i by
    torus_inner through toeplitz._fill.  No WindowTable, no margin check."""
    if mode == "zeroProduct":
        symbols = [s for s in (chain if chain is not None else [u, v]) if s is not None]
    else:
        symbols = [u, v]

    def T(s, g: LaurentPoly) -> LaurentPoly:
        return isotypic_toeplitz(s, character, g)

    if mode == "semi":
        uv = SymbolPair(u.group, u.pullback * v.pullback)

        def column(g):
            return T(u, T(v, g)) - T(uv, g)
    elif mode == "commute":

        def column(g):
            return T(u, T(v, g)) - T(v, T(u, g))
    else:

        def column(g):
            for s in reversed(symbols):
                g = T(s, g)
            return g

    basis = GammaBasis.shared(character)
    reps = list(index_set(character, bound, holomorphic=True).reps)
    res = _fill([basis(r) for r in reps], column, torus_inner)
    return CompareReport._judge(mode, reps, res, _verdict_scale(symbols))


# -- reference Laurent arithmetic ---------------------------------------------


def clean_loop(terms: dict[Expo, complex]) -> dict[Expo, complex]:
    """The cleanup in two passes into a new dict: the largest magnitude,
    then every term tested against CLEANUP_REL times it (exact terms are
    kept unless zero)."""
    if not terms:
        return {}
    top = max(abs(c) for c in terms.values())
    if top == 0:
        return {}
    floor = CLEANUP_REL * top
    return {e: c for e, c in terms.items()
            if abs(c) >= floor or (c and isinstance(c, (int, Fraction)))}


def _cleaned(dim: int, terms: dict[Expo, complex]) -> LaurentPoly:
    return LaurentPoly._wrap(dim, clean_loop(terms))


def add_loop(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = out.get(e, 0) + c
    return _cleaned(f.dim, out)


def neg_loop(f: LaurentPoly) -> LaurentPoly:
    return _cleaned(f.dim, {e: -c for e, c in f.terms.items()})


def sub_loop(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return add_loop(f, neg_loop(g))


def scale_loop(f: LaurentPoly, c) -> LaurentPoly:
    return _cleaned(f.dim, {e: a * c for e, a in f.terms.items()})


def mul_loop(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out: dict[Expo, complex] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _cleaned(f.dim, out)


def pow_loop(f: LaurentPoly, k: int) -> LaurentPoly:
    """Square-and-multiply with every squaring, the last one included."""
    out = _cleaned(f.dim, {(0,) * f.dim: 1})
    base = f
    while k:
        if k & 1:
            out = mul_loop(out, base)
        base = mul_loop(base, base)
        k >>= 1
    return out


def substitute_loop(f: LaurentPoly, polys: list[LaurentPoly]) -> LaurentPoly:
    """f(p_1, ..., p_dim) over f's sorted exponents, constant first, with
    a fresh power of p_k for every term."""
    dim = polys[0].dim
    total = _cleaned(dim, {})
    for e in sorted(f.terms):
        mono = _cleaned(dim, {(0,) * dim: f.terms[e]})
        for k, ek in enumerate(e):
            if ek:
                mono = mul_loop(mono, pow_loop(polys[k], ek))
        total = add_loop(total, mono)
    return total


def hol_project_loop(f: LaurentPoly) -> LaurentPoly:
    return _cleaned(f.dim, {e: c for e, c in f.terms.items() if min(e) >= 0})


def monomial_route_loop(u, v, mode: str, character, bound: int) -> np.ndarray:
    """The monomial route's residual matrix from the reference arithmetic:
    each column (compared operator) gamma_j by mul_loop, hol_project_loop
    and sub_loop, paired with every gamma_i by torus_inner through
    toeplitz._fill."""

    def T(s, g: LaurentPoly) -> LaurentPoly:
        return hol_project_loop(mul_loop(s.pullback, g))

    if mode == "semi":
        uv = SymbolPair(u.group, mul_loop(u.pullback, v.pullback))

        def column(g):
            return sub_loop(T(u, T(v, g)), T(uv, g))
    else:

        def column(g):
            return sub_loop(T(u, T(v, g)), T(v, T(u, g)))

    basis = GammaBasis.shared(character)
    reps = list(index_set(character, bound, holomorphic=True).reps)
    return _fill([basis(r) for r in reps], column, torus_inner)


def orbit_sum_loop(group, rng, span: range, terms: int) -> LaurentPoly:
    """suites._orbit_sum by enumeration: list every tuple of span^n whose
    trivial projection survives, in itertools.product order, and draw
    `terms` of them with rng.randrange over that list."""
    triv = make_character(group, "trivial")
    cands = [a for a in product(span, repeat=group.n) if projection_norm_sq(triv, a) > 0]
    total = LaurentPoly.zero(group.n)
    for _ in range(terms):
        rep = cands[rng.randrange(len(cands))]
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        total = total + c * project(triv, LaurentPoly.monomial(group.n, rep))
    return total


def _shift(rep: Expo, k: int) -> Expo:
    return tuple(x + k for x in rep)


def bh_check_loop(window, bmap, basis=None) -> tuple[BHReport, list[tuple[tuple, float]]]:
    """bh_check with one ToeplitzWindow.entry lookup per term of every
    checked pair, and every checked pair with its violation ((relation, a,
    b), v), in the loop's order: relation (a), then one cross relation per
    coordinate, each with a outer and b inner; the worst pair moves on a
    strict >.  The expansions theta_j gamma_r are expand_loop of the ambient
    product."""
    group = window.group
    basis = basis or GammaBasis(window.character)
    n, q, m = group.n, group.q, group.m
    reps = window.reps
    scale = window.scale()
    out = []

    for a in reps:
        for b in reps:
            e0 = window.entry(b, a)
            e1 = window.entry(_shift(b, q), _shift(a, q))
            if e1 is not None:
                out.append((("shift", a, b), abs(e1 - e0) / scale))

    expansions = {}
    for i in range(n - 1):
        exp_i, exp_ni = {}, {}
        theta_i = bmap.components[i]
        theta_ni = bmap.components[n - i - 2]
        for r in reps:
            try:
                exp_i[r] = expand_loop(basis, theta_i * basis(r))
                exp_ni[r] = expand_loop(basis, theta_ni * basis(r))
            except NotInIsotypicError:
                continue
        expansions[i] = (exp_i, exp_ni)

    for i in range(n - 1):
        exp_i, exp_ni = expansions[i]
        for a in reps:
            lhs_col = _shift(a, m)
            if lhs_col not in window.pos:
                continue
            rhs_terms = exp_ni.get(a)
            if rhs_terms is None or not all(k in window.pos for k in rhs_terms):
                continue
            for b in reps:
                lhs_terms = exp_i.get(b)
                if lhs_terms is None or not all(k in window.pos for k in lhs_terms):
                    continue
                lhs = sum(c.conjugate() * window.entry(k, lhs_col)
                          for k, c in lhs_terms.items())
                rhs = sum(c * window.entry(b, k) for k, c in rhs_terms.items())
                out.append(((f"cross_{i + 1}", a, b), abs(lhs - rhs) / scale))

    worst = 0.0
    worst_pair = None
    rel_max = {"shift": 0.0}
    for pair, v in out:
        rel_max[pair[0]] = max(rel_max.get(pair[0], 0.0), v)
        if v > worst:
            worst, worst_pair = v, pair
    return BHReport(worst, worst_pair, len(out), rel_max), out


def compactness_loop(windows, bmap) -> CompactnessReport:
    """compactness_probe with one entry lookup per shifted pair, walking
    each pair of the first window along the diagonal shift of every window
    until a shifted index leaves it."""
    q = bmap.group.q
    max_dev = 0.0
    persistent = []
    all_zero = True
    scale = max(w.scale() for w in windows)
    base = windows[0]
    for a in base.reps:
        for b in base.reps:
            v0 = base.entry(b, a)
            persists = abs(v0) > RESIDUAL_TOL * scale
            if persists:
                all_zero = False
            for w in windows:
                r = 1
                while True:
                    v = w.entry(_shift(b, q * r), _shift(a, q * r))
                    if v is None:
                        break
                    max_dev = max(max_dev, abs(v - v0) / scale)
                    r += 1
            if persists:
                persistent.append((a, b, v0))
    return CompactnessReport(max_dev, persistent, all_zero)


def _positions(window, reps, k: int) -> np.ndarray:
    """Position of each rep + k in the window, -1 when outside."""
    return np.array([window.pos.get(_shift(r, k), -1) for r in reps], dtype=np.intp)


def _pack_rows(window, basis, theta):
    """theta gamma_r over the gamma basis (_theta_gamma) for every rep r of
    the window as (reps x width) index and coefficient arrays, each row's
    size, and the mask of rows whose expansion stays inside the window."""
    expansions = [_theta_gamma(basis, theta, r) for r in window.reps]
    rows = len(window.reps)
    width = max(map(len, expansions), default=0)
    index = np.zeros((rows, width), dtype=np.intp)
    coef = np.zeros((rows, width), dtype=complex)
    size = np.zeros(rows, dtype=np.intp)
    inside = np.zeros(rows, dtype=bool)
    for r, terms in enumerate(expansions):
        if all(s in window.pos for s in terms):
            index[r, :len(terms)] = [window.pos[s] for s in terms]
            coef[r, :len(terms)] = list(terms.values())
            size[r] = len(terms)
            inside[r] = True
    return index, coef, size, inside


def relations_ix(window, bmap, basis=None):
    """(name, rows b, columns a, lhs - rhs) per shift relation of bh_check,
    with the index grids rebuilt on every call: per relation, np.flatnonzero
    of the live rows and columns, and per expansion term k a mask of the
    rows with more than k terms and an np.ix_ gather of their entries,
    added in increasing k.  The expansions are _theta_gamma's, as
    bh_check's."""
    group = window.group
    basis = basis or GammaBasis.shared(window.character)
    n = group.n
    entries = window.entries
    reps = window.reps
    sq = _positions(window, reps, group.q)
    live = np.flatnonzero(sq >= 0)
    yield ("shift", live, live,
           entries[np.ix_(sq[live], sq[live])] - entries[np.ix_(live, live)])
    sm = _positions(window, reps, group.m)
    packed = [_pack_rows(window, basis, theta) for theta in bmap.components[:n - 1]]
    for i in range(n - 1):
        (l_index, l_coef, l_size, l_inside) = packed[i]
        (r_index, r_coef, r_size, r_inside) = packed[n - i - 2]
        rows = np.flatnonzero(l_inside)
        cols = np.flatnonzero(r_inside & (sm >= 0))
        lhs = np.zeros((rows.size, cols.size), dtype=complex)
        for k in range(l_index.shape[1]):
            on = l_size[rows] > k
            b = rows[on]
            lhs[on] += (np.conj(l_coef[b, k])[:, None]
                        * entries[np.ix_(l_index[b, k], sm[cols])])
        rhs = np.zeros_like(lhs)
        for k in range(r_index.shape[1]):
            on = r_size[cols] > k
            a = cols[on]
            rhs[:, on] += r_coef[a, k] * entries[np.ix_(rows, r_index[a, k])]
        yield f"cross_{i + 1}", rows, cols, lhs - rhs


def bh_check_ix(window, bmap, basis=None) -> BHReport:
    """bh_check over relations_ix, so its report equals bh_check's."""
    reps = window.reps
    scale = window.scale()
    worst = 0.0
    worst_pair = None
    checked = 0
    rel_max = {"shift": 0.0}
    for key, rows, cols, diff in relations_ix(window, bmap, basis):
        if not diff.size:
            continue
        v = _magnitude(diff) / scale
        checked += v.size
        top = float(v.max())
        rel_max[key] = max(0.0, top)
        if top > worst:
            a, b = divmod(int(v.T.argmax()), rows.size)  # a outer, b inner
            worst, worst_pair = top, (key, reps[cols[a]], reps[rows[b]])
    return BHReport(worst, worst_pair, checked, rel_max)


def compactness_ix(windows, bmap) -> CompactnessReport:
    """compactness_probe walking the shift by q one step at a time per
    window: np.flatnonzero of the pairs still inside, two np.ix_ gathers,
    then the next shift through np.where."""
    q = bmap.group.q
    max_dev = 0.0
    scale = max(w.scale() for w in windows)
    base = windows[0]
    v0 = base.entries
    for w in windows:
        shift_q = _positions(w, w.reps, q)
        at = _positions(w, base.reps, q)
        while True:
            live = np.flatnonzero(at >= 0)
            if not live.size:
                break
            dev = w.entries[np.ix_(at[live], at[live])] - v0[np.ix_(live, live)]
            max_dev = max(max_dev, float((_magnitude(dev) / scale).max()))
            at = np.where(at >= 0, shift_q[at], -1)
    keep = np.argwhere((_magnitude(v0) > RESIDUAL_TOL * scale).T)  # a outer, b inner
    persistent = [(base.reps[a], base.reps[b], complex(v0[b, a])) for a, b in keep.tolist()]
    return CompactnessReport(max_dev, persistent, not persistent)

# The residual expand_loop may leave unexplained, relative to max(the input's
# largest |coefficient|, 1).
EXPAND_TOL = 1e-9


def expand_loop(basis: GammaBasis, poly: LaurentPoly) -> dict[Expo, complex]:
    """Coefficients of an analytic isotypic polynomial over a GammaBasis:
    the pairing with each element gamma_r, r the canonical reps of poly's
    terms, in the basis domain's inner product (torus_inner or
    sphere_inner), summed into a running reconstruction; raises
    NotInIsotypicError when the residual exceeds EXPAND_TOL."""
    char = basis.character
    inner = torus_inner if basis.domain == "polydisc" else sphere_inner
    out: dict[Expo, complex] = {}
    recon = LaurentPoly.zero(poly.dim)
    for rep in sorted({canonical_exponent(char.group, e) for e in poly.terms}):
        if projection_norm_sq(char, rep) == 0:
            continue
        g = basis(rep)
        c = inner(poly, g)
        if c != 0:
            out[rep] = c
            recon = recon + c * g
    scale = max(poly.max_abs_coeff(), 1.0)
    if not (poly - recon).is_zero(tol=EXPAND_TOL * scale):
        raise NotInIsotypicError("polynomial is not in this isotypic component")
    return out


def lower_loop(ellp, bmap, F: LaurentPoly) -> LaurentPoly:
    """lower by pairing: F's expand_loop coefficients over the shared gamma
    basis of ellp's character and domain, each times its lowered element
    (the row times one float), summed one LaurentPoly at a time."""
    total = LaurentPoly.zero(F.dim)
    for rep, c in expand_loop(GammaBasis.shared(ellp.character, ellp.domain), F).items():
        total = total + lowered(ellp, bmap, rep) * c
    return total


def divide_exact(F: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly:
    """F / divisor for an analytic monic divisor (lex-leading coefficient 1),
    exact for int and Fraction coefficients.  For a multiple F, every leading
    term of the remainder is divisible by the divisor's; the first that is
    not (or has a negative exponent) raises NotInIsotypicError."""
    lt = max(divisor.terms, default=None)
    if lt is None or divisor.terms[lt] != 1 or not divisor.is_analytic():
        raise ValueError("the divisor must be analytic and monic")

    def leading(e: Expo) -> tuple[Expo, LaurentPoly]:
        diff = tuple(a - b for a, b in zip(e, lt))
        if min(diff) < 0:
            raise NotInIsotypicError(
                f"nonzero division remainder at z^{e}; input is not in the isotypic component")
        return diff, divisor * LaurentPoly.monomial(F.dim, diff, 1)

    return _eliminate(F, leading)


def _eliminate(h: LaurentPoly, leading) -> LaurentPoly:
    """Leading-term elimination: for the lex-leading term c z^lam left,
    leading(lam) gives (a, p), p with lex-leading term z^lam; c * p is
    subtracted and c recorded at a.  p's other terms lie below lam, and lex
    order well-orders the exponents, so this ends."""
    work = dict(h.terms)
    out: dict[Expo, complex] = {}
    while work:
        lam = max(work)
        c = work[lam]
        a, p = leading(lam)
        out[a] = c
        for e, v in p.terms.items():
            work[e] = work.get(e, 0) - c * v
            if not work[e]:
                del work[e]
    return LaurentPoly(h.dim, out)


def row_loop(bmap, char, rep: Expo) -> LaurentPoly:
    """BasicMap.row on full polynomials: the signed orbit (by the loop over
    every permutation) divided exactly by ellhat, then eliminated against
    the products theta^a, each pulled from the monomial t^a."""
    quotient = divide_exact(LaurentPoly(bmap.dim, signed_orbit_loop(char, rep)),
                            _ell_form(char)[1])
    return _eliminate(quotient, lambda lam: (
        a := _theta_exponent(bmap.group, lam), bmap.pull(LaurentPoly.monomial(bmap.dim, a))))


def c_exponent(plane, char) -> int:
    """Least c >= 0 with chi(g) = det(g)^c on the generator g of the plane's
    stabilizer."""
    turn = char.turn(plane.generator)  # denominator divides the order m_i
    c = turn * plane.order
    assert c.denominator == 1, "character value is not a power of det on the stabilizer"
    return int(c) % plane.order


def hyperplane_product(char) -> LaurentPoly:
    """prod_H L_H^(c_H) over Group.reflections(), from the float linear forms
    (rounded roots of unity): the monic relative invariant of a character
    (Stanley 1977), built plane by plane."""
    group = char.group
    poly = LaurentPoly.constant(group.n, 1.0)
    for plane in group.reflections():
        c = c_exponent(plane, char)
        if c:
            poly = poly * (hyperplane_form(group, plane) ** c)
    return poly


def sphere_pair_integral(a: Expo, b: Expo, n: int) -> float:
    """Integral of z^a conj(z)^b over the unit sphere in C^n: zero off the
    diagonal by rotation invariance, the exact monomial weight on it."""
    if len(a) != n or len(b) != n:
        raise ValueError("exponent length does not match dimension")
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise ValueError("exponents must be componentwise non-negative")
    if tuple(a) != tuple(b):
        return 0.0
    return float(sphere_monomial_weight(tuple(a)))


def ball_toeplitz_entry(u: LaurentPoly, p: Expo, m: Expo, n: int) -> complex:
    """<u k_p z^p, k_m z^m> over the sphere for a (z, conj z) polynomial u
    of dimension 2n: exact monomial integrals scaled by the
    orthonormal-basis constants."""
    p, m = tuple(p), tuple(m)
    if len(p) != n or len(m) != n or min(p) < 0 or min(m) < 0:
        raise ValueError("indices must be non-negative exponent vectors of length n")
    kp = 1.0 / math.sqrt(float(sphere_monomial_weight(p)))
    km = 1.0 / math.sqrt(float(sphere_monomial_weight(m)))
    total = 0j
    for e in sorted(u.terms):
        a = tuple(x + y for x, y in zip(e[:n], p))
        b = tuple(x + y for x, y in zip(e[n:], m))
        total += u.terms[e] * sphere_pair_integral(a, b, n)
    return kp * km * total
