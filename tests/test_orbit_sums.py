"""The orbit-sum projection, its exact norm, the closed-form quotient
kernel, the characters' generator forms and the generator-set invariance
test against the plain group sums in group_sums.py.

Tolerances.  eps is the double-precision machine epsilon (u = eps/2 the unit
roundoff).
* Projection coefficients.  The oracle adds |G| contributions to each image
  coefficient, each a term c of f times a root of unity (error <= 2u|c|):
  at most (|G| + 3) u ||f||_1 after the 1/|G| scaling.  The orbit sum
  scales each term once and adds at most |S| <= |G| of them per image:
  (|S| + 1) u ||f||_1.  Together <= (|G| + 2) eps ||f||_1 <= 2 |G| eps ||f||_1,
  with ||f||_1 the sum of |c| over f's terms.
* Norms are exact Fractions on both sides and must be equal.
* Kernel values.  The oracle sums |G| products conj(chi(g)) S(g z, w), each
  S taking n divisions: at most (|G| + 3n) eps times the magnitude sum that
  group_sum_kernel returns.  The closed form does not divide by ell; its
  error measured against 50-digit group sums on the ball and split
  characters was at most 1.4e-15 of |K|, and |K| is at most the magnitude
  sum.  The test allows 2x the oracle's bound.
* Character turns and their JSON are exact on both sides and must be equal.
* Relative invariants.  The closed form has integer coefficients.  The
  hyperplane product multiplies at most 24 linear forms; each of their
  roots of unity is exact at quarter turns and within 1 ulp otherwise, and
  each product coefficient is a sum of at most 24! / (12! 12!) < 3e6 such
  products, so it is off by less than 24 * 3e6 * eps < 2e-8 of the
  largest (measured: 2.4e-15 on G(6,2,3)).  The test allows 1e-12.
* Invariance verdicts.  Noise of at most 1e-12 * scale per coefficient
  leaves every element's residual below 2e-12 * scale, so both checks
  accept; one non-invariant term of size >= 2e-6 * scale leaves a residual
  of at least that size times min(1, |zeta_m - 1|) on some generator and
  some element, so both reject.  The verdicts must agree.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from group_sums import (
    closure_turns,
    det_turns,
    elements,
    gamma_element_loop,
    hyperplane_product,
    group_sum_kernel,
    group_sum_project,
    invariant_under_every_element,
    numpy_nums,
    sgn_turns,
    stabilizer_norm_sq,
)
from hardyq.groups import (
    BUILTIN_CHARACTERS,
    Character,
    CharacterError,
    GroupElement,
    builtin_characters,
    extend_from_generators,
    make_character,
    make_group,
)
from hardyq.invariants import (GammaBasis, _diagonal_match, _signed_orbit, basic_map, ell,
                               index_set, jacobian, project, projection_norm_sq)
from hardyq.kernels import KernelSpec, quotient_kernel
from hardyq.laurent import LaurentPoly, act
from hardyq.toeplitz import SymbolError, SymbolPair, WindowTable, toeplitz_window

EPS = 2.0 ** -52

GROUPS = ["G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(4,4,2)", "G(4,2,2)", "G(1,1,3)", "G(2,1,3)",
          "G(4,2,3)", "Z(3)@1^2", "Z(4)@2^3"]


def _assignments(group, gens):
    """{(perm, phase): turn} as {GroupElement: Fraction}."""
    return {GroupElement(perm, phase, group.m): Fraction(t)
            for (perm, phase), t in gens.items()}


def _custom(group, gens):
    """A character from generator turns: {(perm, phase): turn}."""
    return extend_from_generators(group, _assignments(group, gens), name="custom")


# characters that no built-in name gives: the sign changes' character on A
# with the trivial one on S_n, det^2 on Z(4)@2^3, and on G(4,2,2) one that
# is -1 on diag(zeta, zeta^-1) and on diag(1, zeta^2), whose extension to
# (Z_4)^2 has split residues with p < m
CUSTOM = {
    "G(2,1,2)": {((0, 1), (1, 0)): "1/2", ((1, 0), (0, 0)): 0},
    "G(4,2,2)": {((0, 1), (1, 3)): "1/2", ((0, 1), (0, 2)): "1/2", ((1, 0), (0, 0)): 0},
    "G(4,2,3)": {((0, 1, 2), (0, 0, 2)): "1/2", ((0, 1, 2), (1, 0, 3)): 0,
                 ((1, 0, 2), (0, 0, 0)): 0, ((0, 2, 1), (0, 0, 0)): 0},
    "Z(4)@2^3": {((0, 1, 2), (0, 1, 0)): "1/2"},
}


def _built_in(group):
    """Every built-in character that exists on the group, duplicates kept:
    a name whose form collapsed onto another's is still held to its own
    oracle."""
    out = []
    for name in BUILTIN_CHARACTERS:
        try:
            out.append(make_character(group, name))
        except CharacterError:
            pass
    return out


def _catalogue():
    out = []
    for spec in GROUPS:
        g = make_group(spec)
        chars = _built_in(g)
        if spec in CUSTOM:
            chars.append(_custom(g, CUSTOM[spec]))
        out += [(spec, ch) for ch in chars]
    return out


CHARS = _catalogue()
GROUP_OF = {spec: ch.group for spec, ch in CHARS}


def _generator_turns(spec, ch):
    """The generator turns a rho or custom character was built from: rho1
    and rho2 send delta = diag(zeta_k, zeta_k^-1) to 1/2 and the swap sigma
    to 0 and 1/2."""
    if ch.name == "custom":
        return CUSTOM[spec]
    k = ch.group.m
    delta, sigma = ((0, 1), (1 % k, (k - 1) % k)), ((1, 0), (0, 0))
    return {delta: "1/2", sigma: 0 if ch.name == "rho1" else "1/2"}


@functools.cache
def _reference_turns(index):
    """Turns per element from the Fraction oracles in group_sums.py."""
    spec, ch = CHARS[index]
    group = ch.group
    if ch.name == "trivial":
        return [Fraction(0)] * len(group)
    if ch.name == "det":
        return det_turns(group)
    if ch.name == "sgn":
        return sgn_turns(group)
    return closure_turns(group, _assignments(group, _generator_turns(spec, ch)))


_KERNEL_SPECS = {}


def _kernel_spec(index: int, domain: str) -> KernelSpec:
    key = (index, domain)
    if key not in _KERNEL_SPECS:
        _, ch = CHARS[index]
        _KERNEL_SPECS[key] = KernelSpec(domain, ch.group, ch)
    return _KERNEL_SPECS[key]


characters = st.integers(0, len(CHARS) - 1)
coefficients = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)


@st.composite
def laurent_polys(draw, n):
    """One to four terms with exponents in [-3, 3]^n (negative entries
    included) and nonzero Gaussian-integer coefficients."""
    expo = st.tuples(*[st.integers(-3, 3)] * n)
    terms = draw(st.dictionaries(expo, coefficients, min_size=1, max_size=4))
    return LaurentPoly(n, terms)


@st.composite
def points(draw, n):
    """A point with |z_i| <= 0.9 / sqrt(n): inside the polydisc and the ball."""
    r = 0.9 / math.sqrt(n)
    z = []
    for _ in range(n):
        rad = draw(st.floats(0.0, r))
        ang = draw(st.floats(0.0, 2 * math.pi))
        z.append(complex(rad * math.cos(ang), rad * math.sin(ang)))
    return tuple(z)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), index=characters)
def test_project_matches_group_sum(data, index):
    _, ch = CHARS[index]
    f = data.draw(laurent_polys(ch.group.n))
    got, want = project(ch, f), group_sum_project(ch, f)
    l1 = sum(abs(c) for c in f.terms.values())
    tol = 2 * len(ch.group) * EPS * l1
    for e in set(got.terms) | set(want.terms):
        assert abs(got.coeff(e) - want.coeff(e)) <= tol, (e, got.coeff(e), want.coeff(e))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), index=characters)
def test_norm_matches_stabilizer_list(data, index):
    _, ch = CHARS[index]
    alpha = data.draw(st.tuples(*[st.integers(-4, 4)] * ch.group.n))
    assert projection_norm_sq(ch, alpha) == stabilizer_norm_sq(ch, alpha)


@pytest.mark.parametrize("index", range(len(CHARS)),
                         ids=[f"{spec}-{ch.name}" for spec, ch in CHARS])
@pytest.mark.parametrize("holomorphic", [True, False], ids=["holomorphic", "full"])
def test_index_set_is_the_nonzero_norm_filter(index, holomorphic):
    """index_set's boolean test keeps exactly the canonical candidates whose
    exact projection norm is nonzero."""
    _, ch = CHARS[index]
    group, bound = ch.group, 4
    values = range(0 if holomorphic else -bound, bound + 1)
    if group.spec.kind == "Gmpn":
        candidates = itertools.combinations_with_replacement(values, group.n)
    else:
        candidates = itertools.product(values, repeat=group.n)
    want = sorted((a for a in candidates if projection_norm_sq(ch, a) > 0),
                  key=lambda a: (sum(a), a))
    assert index_set(ch, bound, holomorphic).reps == want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), index=characters)
def test_orbit_weight_at_alpha_is_the_stabilizer_count(data, index):
    """The signed orbit holds nonzero int weights of one magnitude, and its
    weight at alpha is |S| times the stabilizer-list norm (0 when empty)."""
    _, ch = CHARS[index]
    alpha = data.draw(st.tuples(*[st.integers(-4, 4)] * ch.group.n))
    orbit = _signed_orbit(ch, alpha)
    want = len(ch.group.perm_images()) * stabilizer_norm_sq(ch, alpha)
    if _diagonal_match(ch, alpha):
        assert orbit.get(alpha, 0) == want
    else:
        assert want == 0
    assert all(type(w) is int and abs(w) == orbit[alpha] for w in orbit.values())


def test_no_consumer_mutates_a_stored_orbit():
    """After project, index_set, WindowTable, BasicMap.row and GammaBasis
    on both domains have run twice, the signed orbits that the shared
    window tables keep still equal freshly built ones."""
    g = make_group("G(2,1,3)")
    chars = builtin_characters(g)
    bmap = basic_map(g)
    symbol = SymbolPair(g, LaurentPoly(3, {e: 1 for k in (2, -2)
                                           for e in ((k, 0, 0), (0, k, 0), (0, 0, k))}))

    def consume():
        for ch in chars:
            reps = index_set(ch, 3).reps
            project(ch, LaurentPoly(3, {r: 1.5 - 2j for r in reps}))
            WindowTable.shared(ch, 3).entries(symbol.pullback.terms)
            toeplitz_window(symbol, ch, 3)
            for r in reps:
                bmap.row(ch, r)
                for domain in ("polydisc", "ball"):
                    GammaBasis(ch, domain)(r)
                    GammaBasis.shared(ch, domain)(r)

    consume()
    consume()
    tables = [WindowTable.shared(ch, 3) for ch in chars]
    assert any(table.reps for table in tables)
    for ch, table in zip(chars, tables):
        assert table.orbits == [_signed_orbit(ch, r) for r in table.reps]


GAMMA_GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)", "G(3,1,3)", "G(2,1,4)",
                "G(4,2,3)", "Z(3)@1^2")
GAMMA_CHARS = [ch for spec in GAMMA_GROUPS for ch in builtin_characters(make_group(spec))]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), index=st.integers(0, len(GAMMA_CHARS) - 1),
       domain=st.sampled_from(["polydisc", "ball"]))
def test_gamma_element_is_bit_identical_to_project(data, index, domain):
    """GammaBasis's one-pass element and factor equal project(z^rep) scaled
    through LaurentPoly exactly, value types included; reps that are not
    canonical or whose projection vanishes raise KeyError on both."""
    ch = GAMMA_CHARS[index]
    rep = data.draw(st.tuples(*[st.integers(0, 6)] * ch.group.n))
    if data.draw(st.booleans()):
        rep = tuple(sorted(rep))
    basis = GammaBasis(ch, domain)
    try:
        want, factor = gamma_element_loop(ch, domain, rep)
    except KeyError:
        with pytest.raises(KeyError):
            basis(rep)
        with pytest.raises(KeyError):
            basis.factor(rep)
        return
    got = basis(rep)
    assert got.dim == want.dim and got.terms == want.terms
    assert all(type(c) is complex for c in got.terms.values())
    assert all(type(c) is complex for c in want.terms.values())
    assert basis.factor(rep) == factor and type(basis.factor(rep)) is float


# ball quotients exist for the cyclic coordinate groups only
KERNEL_CHARS = {
    "polydisc": characters,
    "ball": st.sampled_from([i for i, (spec, _) in enumerate(CHARS) if spec.startswith("Z(")]),
}


@pytest.mark.parametrize("domain", sorted(KERNEL_CHARS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quotient_kernel_matches_group_sum(domain, data):
    index = data.draw(KERNEL_CHARS[domain])
    _, ch = CHARS[index]
    n = ch.group.n
    z, w = data.draw(points(n)), data.draw(points(n))
    spec = _kernel_spec(index, domain)
    got = quotient_kernel(spec, z, w)
    try:
        want, mass = group_sum_kernel(spec, z, w)
    except ZeroDivisionError:
        assume(False)  # the group sum divides by ell, which vanishes here
    assert abs(got - want) <= 2 * (len(ch.group) + 3 * n) * EPS * mass, (got, want)


@pytest.mark.parametrize("index", range(len(CHARS)),
                         ids=[f"{spec}-{ch.name}" for spec, ch in CHARS])
def test_polydisc_closed_form_on_every_character(index):
    """The closed-form polydisc kernel against the group sum at eight
    seeded points, for every built-in and custom character; same bound."""
    _, ch = CHARS[index]
    n = ch.group.n
    spec = _kernel_spec(index, "polydisc")
    rng = random.Random(index)
    r = 0.9 / math.sqrt(n)
    for _ in range(8):
        z, w = ([complex(rng.uniform(-r, r), rng.uniform(-r, r)) / math.sqrt(2)
                 for _ in range(n)] for _ in range(2))
        got = quotient_kernel(spec, z, w)
        want, mass = group_sum_kernel(spec, z, w)
        assert abs(got - want) <= 2 * (len(ch.group) + 3 * n) * EPS * mass, (got, want)


# the catalogue, and built-in characters whose planes carry inexact roots
ELL_CHARS = CHARS + [(spec, ch) for spec in ("G(3,3,2)", "G(3,1,3)", "G(6,2,3)")
                     for ch in _built_in(make_group(spec))]


@pytest.mark.parametrize("index", range(len(ELL_CHARS)),
                         ids=[f"{spec}-{ch.name}" for spec, ch in ELL_CHARS])
def test_closed_form_ell_is_the_hyperplane_product(index):
    """ell in closed form is kappa times the monic hyperplane product, with
    integer coefficients; ell_sgn equals the Jacobian exactly."""
    _, ch = ELL_CHARS[index]
    ep = ell(ch)
    assert all(type(c) is int for c in ep.poly.terms.values())
    assert ep.poly.terms[max(ep.poly.terms)] == ep.kappa
    assert ep.poly.approx_eq(hyperplane_product(ch) * ep.kappa, tol=1e-12)
    if ch == make_character(ch.group, "sgn"):
        assert ep.poly.same_terms(jacobian(basic_map(ch.group)))
    else:
        assert ep.kappa == 1


@settings(max_examples=150, deadline=None)
@given(index=characters, other=characters)
def test_character_table_matches_fraction_oracle(index, other):
    spec, ch = CHARS[index]
    want = _reference_turns(index)
    assert [ch.turn(g) for g in elements(ch.group)] == want
    oracle_json = {"group": spec, "name": ch.name,
                   "values": [[i, t.numerator, t.denominator] for i, t in enumerate(want)]}
    assert json.dumps(ch.to_json()) == json.dumps(oracle_json)
    twin = Character(ch.group, "twin", ch.diag, ch.swap)
    assert ch == twin and hash(ch) == hash(twin)
    other_spec, och = CHARS[other]
    same = other_spec == spec and _reference_turns(other) == want
    assert (ch == och) == same
    if same:
        assert hash(ch) == hash(och)


@pytest.mark.parametrize("index", range(len(CHARS)),
                         ids=[f"{spec}-{ch.name}" for spec, ch in CHARS])
def test_character_json_matches_numpy_table(index):
    """The itertools rows of to_json and Character.element_nums against
    the numpy table that built them before, on every catalogue character."""
    _, ch = CHARS[index]
    want = numpy_nums(ch)
    assert ch.element_nums() == want
    reduced = [Fraction(k, ch.den) for k in want]
    assert ch.to_json()["values"] == [[i, t.numerator, t.denominator]
                                      for i, t in enumerate(reduced)]


@st.composite
def noisy_orbit_sums(draw, group):
    """sum_g R_g (c z^a) for one or two monomials, every coefficient then
    moved by at most 1e-12 * scale."""
    n = group.n
    f = LaurentPoly.zero(n)
    for _ in range(draw(st.integers(1, 2))):
        mono = LaurentPoly(n, {draw(st.tuples(*[st.integers(-2, 2)] * n)): draw(coefficients)})
        for g in elements(group):
            f = f + act(g, mono)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    size = 1e-12 * max(f.max_abs_coeff(), 1.0) / math.sqrt(2)
    return LaurentPoly(n, {e: c + complex(rng.uniform(-size, size), rng.uniform(-size, size))
                           for e, c in f.terms.items()})


def _boundary_exponents(group):
    """k (1, ..., 1) + m e_j for k in [-2, 2] and e_j a unit vector or 0.
    Some of these are fixed by the subgroup that all generators but one
    generate: z_1 z_2 by G(2,2,2) in G(2,1,2) (p e_n missing), z_3 by S_2
    in G(1,1,3) (the last transposition missing).  A check that missed
    that generator would accept them."""
    out = []
    for k in range(-2, 3):
        for j in range(-1, group.n):
            expo = [k] * group.n
            if j >= 0:
                expo[j] += group.m
            out.append(tuple(expo))
    return out


def _accepted(group, f) -> bool:
    try:
        SymbolPair(group, f)
    except SymbolError:
        return False
    return True


@pytest.mark.parametrize("spec", GROUPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_invariance_verdict_matches_every_element_check(spec, data):
    """A noisy orbit sum is accepted by both checks; with one extra term, at
    a uniform exponent or at each boundary exponent, the verdicts agree."""
    group = GROUP_OF[spec]
    n = group.n
    f = data.draw(noisy_orbit_sums(group))
    assert invariant_under_every_element(group, f) and _accepted(group, f)
    size = data.draw(st.floats(2e-6, 1e-3)) * max(f.max_abs_coeff(), 1.0)
    uniform = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    for expo in [uniform] + _boundary_exponents(group):
        perturbed = f + LaurentPoly(n, {expo: size})
        want = invariant_under_every_element(group, perturbed)
        assert _accepted(group, perturbed) == want, (expo, want)
