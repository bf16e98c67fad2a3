import math
import random
from fractions import Fraction
from itertools import permutations, product
from types import FunctionType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from group_sums import divide_exact, elements, lower_loop, pull_harmonic, row_loop
from hardyq.suites import hyperplane_factorization
from hardyq.groups import Group, _perm_parity, builtin_characters, make_character, make_group
from hardyq.invariants import (
    GammaBasis,
    NotInIsotypicError,
    BasicMap,
    _signed_orbit,
    basic_map,
    ell,
    index_set,
    jacobian,
    lift,
    lower,
    project,
    projection_norm_sq,
    rewrite_in_theta,
)
from hardyq.laurent import (
    CLEANUP_REL,
    LaurentPoly,
    act,
    canonical_exponent,
    sphere_inner,
    torus_inner,
)


def P(dim, terms):
    return LaurentPoly(dim, {tuple(e): complex(c) for e, c in terms.items()})


def numeric_jacobian_det(bmap, z, h=1e-6):
    """Central-difference oracle for the holomorphic Jacobian determinant."""
    n = bmap.dim
    mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        zp = list(z)
        zm = list(z)
        zp[j] += h
        zm[j] -= h
        fp = bmap.eval(tuple(zp))
        fm = bmap.eval(tuple(zm))
        for i in range(n):
            mat[i, j] = (fp[i] - fm[i]) / (2 * h)
    return np.linalg.det(mat)


class TestBasicMap:
    def test_symmetrization(self, g112, bm112):
        assert bm112.components[0].same_terms(P(2, {(1, 0): 1, (0, 1): 1}))
        assert bm112.components[1].same_terms(P(2, {(1, 1): 1}))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dihedral(self, k):
        bm = basic_map(make_group(f"G({k},{k},2)"))
        assert bm.components[0].same_terms(P(2, {(k, 0): 1, (0, k): 1}))
        assert bm.components[1].same_terms(P(2, {(1, 1): 1}))

    def test_g212(self, g212):
        bm = basic_map(g212)
        assert bm.components[0].same_terms(P(2, {(2, 0): 1, (0, 2): 1}))
        assert bm.components[1].same_terms(P(2, {(2, 2): 1}))

    def test_cyclic_coordinate_map(self):
        bm = basic_map(make_group("Z(3)@1^3"))
        assert bm.components[0].same_terms(P(3, {(3, 0, 0): 1}))
        assert bm.components[1].same_terms(P(3, {(0, 1, 0): 1}))
        assert bm.components[2].same_terms(P(3, {(0, 0, 1): 1}))


PULL_MAPS = {
    spec: basic_map(make_group(spec))
    for spec in ["G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(1,1,3)", "Z(3)@1^2"]
}


@st.composite
def pull_cases(draw):
    """A basic map, an analytic LaurentPoly in its quotient coordinates t
    or in (t, conj t) (dimension 2n, composed by the oracle pull_harmonic),
    and a point on the torus."""
    bm = PULL_MAPS[draw(st.sampled_from(sorted(PULL_MAPS)))]
    n = bm.dim
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        expo = st.tuples(*[st.integers(0, 3)] * (2 * n))
        f = LaurentPoly(2 * n, draw(st.dictionaries(expo, coeff, max_size=4)))
    else:
        expo = st.tuples(*[st.integers(0, 3)] * n)
        f = LaurentPoly(n, draw(st.dictionaries(expo, coeff, max_size=5)))
    angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
    return bm, f, tuple(complex(math.cos(a), math.sin(a)) for a in angles)


# a subnormal coefficient: both sides round absolutely, not relatively
SUBNORMAL_PULL_CASE = (
    PULL_MAPS["G(1,1,2)"],
    LaurentPoly(4, {(1, 0, 1, 0): 5e-324j}),
    (complex(math.cos(1.0), math.sin(1.0)),) * 2,
)


class TestPull:
    @given(pull_cases())
    @example(SUBNORMAL_PULL_CASE)
    @settings(max_examples=80, deadline=None)
    def test_matches_pointwise_composition(self, case):
        """Oracle: f evaluated at (theta(z), conj theta(z)) (a polynomial in
        t alone reads the first half), with theta(z) from the components'
        own eval.  A polynomial in t goes through BasicMap.pull, one in
        (t, conj t) through the test oracle pull_harmonic: the package
        composes no conj(theta)."""
        bm, f, z = case
        pulled = pull_harmonic(bm, f) if f.dim == 2 * bm.dim else bm.pull(f)
        got = pulled.eval(z)
        t = bm.eval(z)
        want = f.eval(t + tuple(x.conjugate() for x in t))
        # On the torus |theta_k(z)| <= ||theta_k||_1, so every partial sum on
        # either side is bounded by B.  Each multiply/add stage of the
        # composition and each evaluated term perturbs by at most a few
        # roundings, or by the relative cleanup per stored term, times B.
        # Below 2^-1022 rounding is absolute instead: a real product that
        # lands among the subnormals is off by up to half their spacing
        # 2^-1074 (sums there are exact), so one complex multiply is off by
        # less than 2^-1073.  An evaluated term takes at most 2n multiplies,
        # and a later factor scales an earlier error by at most L, the
        # largest prod ||theta_k||_1^e over the terms; so the terms on both
        # sides add at most 2^-1072 n L width, which `tiny` times stages >= 1
        # covers.
        n = bm.dim
        l1 = [sum(abs(c) for c in comp.terms.values()) for comp in bm.components]
        terms = f.terms
        lengths = [math.prod(l1[k % n] ** e for k, e in enumerate(ex)) for ex in terms]
        B = sum(abs(c) * length for c, length in zip(terms.values(), lengths))
        tiny = 2.0 ** -1072 * n * max(lengths, default=1.0)
        stages = sum(1 + sum(ex) for ex in terms)
        width = len(pulled.terms) + len(terms) + 1
        tol = ((CLEANUP_REL + 8 * 2.0 ** -52) * B + tiny) * stages * width
        assert abs(got - want) <= tol

    def test_memoises_powers(self, bm112):
        assert bm112.power(0, 3) is bm112.power(0, 3)

    def test_rejects_non_analytic(self, bm112):
        with pytest.raises(ValueError):
            bm112.pull(P(2, {(-1, 0): 1}))
        # only dimension n is a polynomial in quotient coordinates: pull
        # composes no (t, conj t) polynomial, analytic or not
        with pytest.raises(ValueError, match="dimension"):
            bm112.pull(P(4, {(1, 0, -1, 0): 1}))
        with pytest.raises(ValueError, match="dimension"):
            bm112.pull(P(4, {(1, 0, 1, 0): 1}))
        with pytest.raises(ValueError, match="dimension"):
            bm112.pull(P(3, {(1, 0, 0): 1}))
        # the oracle's (t, conj t) form needs non-negative conj(t) exponents
        with pytest.raises(ValueError, match="analytic"):
            pull_harmonic(bm112, P(4, {(1, 0, -1, 0): 1}))


class TestJacobian:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vandermonde_for_symmetrization(self, n):
        bm = basic_map(make_group(f"G(1,1,{n})"))
        J = jacobian(bm)
        vand = LaurentPoly.constant(n, 1.0)
        for i in range(n):
            for j in range(i + 1, n):
                ei = [0] * n
                ei[i] = 1
                ej = [0] * n
                ej[j] = 1
                vand = vand * (P(n, {tuple(ei): 1}) - P(n, {tuple(ej): 1}))
        assert J.approx_eq(vand, tol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dihedral_closed_form(self, k):
        J = jacobian(basic_map(make_group(f"G({k},{k},2)")))
        assert J.approx_eq(P(2, {(k, 0): k, (0, k): -k}), tol=1e-12)

    def test_g212_value(self, g212):
        J = jacobian(basic_map(g212))
        assert J.approx_eq(P(2, {(3, 1): 4, (1, 3): -4}), tol=1e-12)

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,3,2)", "G(2,2,3)", "G(4,1,2)"])
    def test_finite_difference_oracle(self, name):
        g = make_group(name)
        bm = basic_map(g)
        J = jacobian(bm)
        rng = random.Random(12)
        for _ in range(5):
            z = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                      for _ in range(g.n))
            got = J.eval(z)
            want = numeric_jacobian_det(bm, z)
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,1,3)", "G(4,2,3)", "G(4,4,4)"])
    def test_closed_form_grid(self, name):
        # the closed-form ell_sgn, (m^n/p) (z_1...z_n)^(q-1) prod_{i<j} (z_i^m - z_j^m)
        g = make_group(name)
        closed = ell(make_character(g, "sgn")).poly
        assert jacobian(basic_map(g)).approx_eq(closed, tol=1e-12)

    @pytest.mark.parametrize("name", ["G(1,1,3)", "G(2,1,2)", "G(3,3,2)", "G(4,2,3)"])
    def test_degree_counts_reflections(self, name):
        g = make_group(name)
        J = jacobian(basic_map(g))
        n_reflections = sum(p.order - 1 for p in g.reflections())
        assert J.total_degree() == n_reflections

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,3,2)", "G(4,2,3)"])
    def test_hyperplane_factorization(self, name):
        g = make_group(name)
        assert hyperplane_factorization(jacobian(basic_map(g)), g, 1e-10)

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,3,2)", "G(4,2,3)"])
    def test_perturbed_jacobian_fails_factorization(self, name):
        # a term of J's degree that no multiple of the product has, and a
        # rescaled non-leading term
        g = make_group(name)
        J = jacobian(basic_map(g))
        lead = max(J.terms)
        bump = LaurentPoly.monomial(g.n, (0,) * (g.n - 1) + (sum(lead),), 1e-6)
        assert not hyperplane_factorization(J + bump * J.terms[lead], g, 1e-10)
        other = min(J.terms)
        scaled = LaurentPoly(g.n, {**J.terms, other: J.terms[other] * (1 + 1e-6)})
        assert not hyperplane_factorization(scaled, g, 1e-10)


class TestEll:
    def test_sgn_is_jacobian(self, g112, sgn112):
        ep = ell(sgn112)
        assert ep.poly.same_terms(P(2, {(1, 0): 1, (0, 1): -1}))
        assert abs(ep.cnorm - math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("k", [2, 4])
    def test_rho1_lowest_invariant(self, k):
        g = make_group(f"G({k},{k},2)")
        rho1 = make_character(g, "rho1")
        ep = ell(rho1)
        j = k // 2
        assert ep.poly.approx_eq(P(2, {(j, 0): 1, (0, j): 1}), tol=1e-12)
        assert abs(ep.cnorm**2 - 2) < 1e-12

    @pytest.mark.parametrize("k", [2, 4])
    def test_rho2_lowest_invariant(self, k):
        g = make_group(f"G({k},{k},2)")
        ep = ell(make_character(g, "rho2"))
        j = k // 2
        assert ep.poly.approx_eq(P(2, {(j, 0): 1, (0, j): -1}), tol=1e-12) \
            or ep.poly.approx_eq(P(2, {(j, 0): -1, (0, j): 1}), tol=1e-12)

    def test_trivial(self, g112, triv112):
        ep = ell(triv112)
        assert ep.poly.same_terms(P(2, {(0, 0): 1}))
        assert ep.cnorm == 1

    def test_trivial_enumerates_no_reflections(self, g315, monkeypatch):
        def forbidden(self):
            raise AssertionError("reflections() enumerated for the trivial character")

        monkeypatch.setattr(Group, "reflections", forbidden)
        ep = ell(make_character(g315, "trivial"))
        assert ep.poly.same_terms(P(5, {(0,) * 5: 1})) and ep.cnorm == 1

    @pytest.mark.parametrize(
        "name", ["G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(3,1,2)", "G(3,3,2)", "Z(4)@1^2"]
    )
    def test_relative_invariance_all_builtins(self, name):
        g = make_group(name)
        assert len(g) <= 200
        bm = basic_map(g)
        for ch in builtin_characters(g):
            ep = ell(ch, bmap=bm)
            scale = max(ep.poly.max_abs_coeff(), 1.0)
            for x in elements(g):
                assert (act(x, ep.poly) - ch.value(x) * ep.poly).is_zero(
                    tol=1e-10 * scale
                )

    def test_lowest_degree_cross_check(self, g212):
        # ell is the lowest-degree index with nonzero projection
        sgn = make_character(g212, "sgn")
        ep = ell(sgn)
        reps = index_set(sgn, 4, holomorphic=True).reps
        min_total = min(sum(r) for r in reps)
        assert ep.poly.total_degree() == min_total

    @pytest.mark.parametrize("spec, name, domain, want", [
        ("G(4,4,2)", "sgn", "polydisc", 32),  # 4 z_1^4 - 4 z_2^4
        ("G(3,1,3)", "det", "polydisc", 6),  # z_1 z_2 z_3 prod (z_i^3 - z_j^3)
        ("Z(3)@1^2", "sgn", "ball", Fraction(3)),  # 9 |z_1^2|^2 = 9 * 2!/3!
        ("Z(4)@2^3", "sgn", "ball", Fraction(8, 5)),  # 16 |z_2^3|^2 = 16 * 3! 2!/5!
    ])
    def test_cnorm_squared_is_exact(self, spec, name, domain, want):
        ep = ell(make_character(make_group(spec), name), domain=domain)
        assert ep.cnorm_sq == want and type(ep.cnorm_sq) is type(want)
        assert ep.cnorm == math.sqrt(want)

    def test_ball_norm_uses_sphere(self):
        g = make_group("Z(3)@1^2")
        ep = ell(make_character(g, "sgn"), domain="ball")
        # ell = 3 z1^2; |z1^2|^2 on the sphere in C^2 is 2!/3! = 1/3
        assert abs(ep.cnorm**2 - 9 / 3) < 1e-12


class TestProjection:
    def test_two_term_average(self, g112, sgn112):
        got = project(sgn112, P(2, {(0, 1): 1}))
        assert got.approx_eq(P(2, {(0, 1): 0.5, (1, 0): -0.5}), tol=1e-12)

    def test_stabilized_monomial_dies(self, g113):
        sgn = make_character(g113, "sgn")
        assert project(sgn, P(3, {(1, 1, 4): 1})).is_zero(tol=1e-12)

    def test_invariant_fixed_point(self, g112, triv112, bm112):
        theta1 = bm112.components[0]
        assert project(triv112, theta1).approx_eq(theta1, tol=1e-12)

    def test_idempotent_on_random_laurent(self, g212):
        rng = random.Random(3)
        for ch in builtin_characters(g212):
            for _ in range(5):
                f = P(2, {(rng.randint(-3, 3), rng.randint(-3, 3)):
                          complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(4)})
                p1 = project(ch, f)
                assert (project(ch, p1) - p1).is_zero(tol=1e-11)

    def test_exact_norm_matches_float(self, g212):
        sgn = make_character(g212, "sgn")
        for alpha in [(1, 3), (0, 1), (1, 1), (3, 5)]:
            exact = projection_norm_sq(sgn, alpha)
            f = project(sgn, P(2, {alpha: 1}))
            assert abs(float(exact) - torus_inner(f, f).real) < 1e-12


class TestIndexSets:
    def test_sgn_bidisc_bound2(self, sgn112):
        assert index_set(sgn112, 2).reps == [(0, 1), (0, 2), (1, 2)]

    def test_trivial_bidisc_bound1(self, triv112):
        assert index_set(triv112, 1).reps == [(0, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("name", ["G(1,1,2)", "G(1,1,3)", "G(2,1,2)"])
    def test_sgn_kills_constants(self, name):
        g = make_group(name)
        assert index_set(make_character(g, "sgn"), 0).reps == []

    def test_strictly_increasing_for_symmetric_sgn(self, g113):
        sgn = make_character(g113, "sgn")
        for rep in index_set(sgn, 4).reps:
            assert all(rep[i] < rep[i + 1] for i in range(2))

    def test_full_window_includes_negatives(self, sgn112):
        reps = index_set(sgn112, 2, holomorphic=False).reps
        assert (-2, -1) in reps
        assert all(r[0] < r[1] for r in reps)

    def test_g212_parity_lattice(self, g212):
        sgn = make_character(g212, "sgn")
        for rep in index_set(sgn, 6).reps:
            assert rep[0] % 2 == 1 and rep[1] % 2 == 1 and rep[0] != rep[1]


GRADED_GROUPS = ("G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(3,3,2)", "G(4,4,2)", "G(4,2,2)",
                 "G(1,1,3)", "G(2,1,3)", "G(4,2,3)", "G(1,1,4)", "Z(3)@1^2", "Z(4)@2^3",
                 "Z(2)@1^4")
GRADED_CASES = [(spec, ch.name) for spec in GRADED_GROUPS
                for ch in builtin_characters(make_group(spec))]


def fake_degree_series(shift: int, degrees: list[int], K: int) -> list[int]:
    """[q^k] q^shift / prod_i (1 - q^(d_i)) for k = 0..K: the graded
    dimension of a one-dimensional isotypic component, ell_chi times the
    invariant ring, which is free on the basic invariants."""
    series = [int(k == shift) for k in range(K + 1)]
    for d in degrees:
        for k in range(d, K + 1):
            series[k] += series[k - d]
    return series


@pytest.mark.parametrize("spec,name", GRADED_CASES, ids=[f"{s}-{c}" for s, c in GRADED_CASES])
def test_index_set_counts_match_the_fake_degree_series(spec, name):
    """Reps of total degree k in index_set(ch, K) (sup-norm <= K holds
    every rep of total degree <= K), counted against the series from the
    basic invariants' degrees and deg ell_chi alone, for every k <= K."""
    K = 10
    group = make_group(spec)
    ch = make_character(group, name)
    degrees = [c.total_degree() for c in basic_map(group).components]
    counts = [0] * (K + 1)
    for rep in index_set(ch, K).reps:
        if sum(rep) <= K:
            counts[sum(rep)] += 1
    assert counts == fake_degree_series(ell(ch).poly.total_degree(), degrees, K)


class TestBasisElements:
    def test_unit_norm_and_value(self, sgn112):
        gam = GammaBasis.shared(sgn112)((0, 1))
        assert gam.approx_eq(
            P(2, {(0, 1): 1 / math.sqrt(2), (1, 0): -1 / math.sqrt(2)}), tol=1e-12
        )
        assert abs(torus_inner(gam, gam) - 1) < 1e-12

    def test_vandermonde_element(self, g113):
        sgn = make_character(g113, "sgn")
        gam = GammaBasis.shared(sgn)((0, 1, 2))
        det_terms = {}
        for sigma in permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if sigma[i] > sigma[j]:
                        sign = -sign
            e = tuple((0, 1, 2)[sigma[i]] for i in range(3))
            det_terms[e] = det_terms.get(e, 0) + sign
        vand = P(3, det_terms)
        assert gam.approx_eq(vand * (1 / math.sqrt(6)), tol=1e-12)

    def test_distinct_orbits_orthogonal(self, sgn112):
        basis = GammaBasis.shared(sgn112)
        assert abs(torus_inner(basis((0, 1)), basis((0, 2)))) < 1e-14

    def test_rejects_non_representative(self, sgn112):
        # (1, 0) is not canonical; the sgn projection of z1 z2 vanishes
        basis = GammaBasis.shared(sgn112)
        for rep in ((1, 0), (1, 1)):
            with pytest.raises(KeyError):
                basis(rep)

    def test_unit_norm_with_nontrivial_stabilizer(self, g212):
        # orbits of G(2,1,2) monomials carry phase stabilizers; the exact
        # correction keeps the family orthonormal
        sgn = make_character(g212, "sgn")
        basis = GammaBasis.shared(sgn)
        for rep in index_set(sgn, 5):
            gam = basis(rep)
            assert abs(torus_inner(gam, gam) - 1) < 1e-12

    def test_shared_per_character_value(self, g112):
        a = GammaBasis.shared(make_character(g112, "sgn"))
        assert GammaBasis.shared(make_character(g112, "sgn")) is a

    def test_ball_and_polydisc_bases_differ(self, sgn112):
        ball = GammaBasis.shared(sgn112, "ball")
        assert ball is not GammaBasis.shared(sgn112)
        assert ball.domain == "ball"

    def test_ball_basis_orthonormal(self):
        sgn = make_character(make_group("Z(3)@1^2"), "sgn")
        basis = GammaBasis.shared(sgn, "ball")
        gams = [basis(r) for r in index_set(sgn, 6)]
        assert len(gams) > 10
        for i, a in enumerate(gams):
            for j, b in enumerate(gams):
                assert abs(sphere_inner(a, b) - (i == j)) < 1e-12


class TestDivisionAndRewrite:
    def test_exact_division(self, g112):
        ellp = P(2, {(1, 0): 1, (0, 1): -1})
        f = ellp * P(2, {(2, 1): 2, (0, 0): -1j})
        assert divide_exact(f, ellp).approx_eq(P(2, {(2, 1): 2, (0, 0): -1j}), 1e-12)

    def test_division_remainder_raises(self):
        with pytest.raises(NotInIsotypicError):
            divide_exact(P(2, {(1, 0): 1}), P(2, {(1, 0): 1, (0, 1): -1}))

    def test_rewrite_power_sum(self, g112, bm112):
        # z1^2 + z2^2 = t1^2 - 2 t2, in ints
        h = LaurentPoly(2, {(2, 0): 1, (0, 2): 1})
        assert rewrite_in_theta(bm112, h).same_terms(LaurentPoly(2, {(2, 0): 1, (0, 1): -2}))

    def test_rewrite_rejects_non_invariant(self, bm112):
        with pytest.raises(NotInIsotypicError):
            rewrite_in_theta(bm112, P(2, {(1, 0): 1}))

    def test_rewrite_cyclic(self):
        g = make_group("Z(3)@1^2")
        bm = basic_map(g)
        h = LaurentPoly(2, {(3, 2): 1, (6, 0): -2})
        assert rewrite_in_theta(bm, h).same_terms(LaurentPoly(2, {(1, 2): 1, (2, 0): -2}))
        with pytest.raises(NotInIsotypicError):
            rewrite_in_theta(bm, P(2, {(2, 0): 1}))

    @pytest.mark.parametrize("name", ["G(1,1,3)", "G(2,1,2)", "G(3,3,2)"])
    def test_rewrite_roundtrip_random(self, name):
        g = make_group(name)
        bm = basic_map(g)
        rng = random.Random(8)
        for _ in range(5):
            f = P(g.n, {tuple(rng.randint(0, 2) for _ in range(g.n)):
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(3)})
            h = f.substitute(list(bm.components))
            back = rewrite_in_theta(bm, h)
            assert back.approx_eq(f, tol=1e-9)


class TestLiftLower:
    def test_constant_lift(self, g112, sgn112, bm112):
        ep = ell(sgn112)
        got = lift(ep, bm112, LaurentPoly.constant(2, 1.0))
        s = 1 / math.sqrt(2)
        assert got.approx_eq(P(2, {(1, 0): s, (0, 1): -s}), tol=1e-12)

    def test_first_coordinate_lift(self, sgn112, bm112):
        ep = ell(sgn112)
        got = lift(ep, bm112, P(2, {(1, 0): 1}))
        s = 1 / math.sqrt(2)
        assert got.approx_eq(P(2, {(2, 0): s, (0, 2): -s}), tol=1e-12)

    def test_lower_inverts(self, sgn112, bm112):
        ep = ell(sgn112)
        s = 1 / math.sqrt(2)
        F = P(2, {(2, 0): s, (0, 2): -s})
        assert lower(ep, bm112, F).approx_eq(P(2, {(1, 0): 1}), tol=1e-12)

    @pytest.mark.parametrize("name,chname", [
        ("G(1,1,2)", "sgn"), ("G(1,1,2)", "trivial"),
        ("G(2,1,2)", "sgn"), ("G(2,2,2)", "rho1"), ("G(3,1,2)", "det"),
    ])
    def test_roundtrip_and_isometry(self, name, chname):
        g = make_group(name)
        ch = make_character(g, chname)
        bm = basic_map(g)
        ep = ell(ch, bmap=bm)
        rng = random.Random(21)
        for _ in range(4):
            f = P(g.n, {tuple(rng.randint(0, 2) for _ in range(g.n)):
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(3)})
            gpoly = P(g.n, {tuple(rng.randint(0, 2) for _ in range(g.n)):
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(2)})
            F, Gp = lift(ep, bm, f), lift(ep, bm, gpoly)
            back = lower(ep, bm, F)
            assert back.approx_eq(f, tol=1e-9)
            # unitarity transported through the pushforward pairing: the
            # moments of f(t) conj(g(t)), a (t, conj t) polynomial
            from hardyq.toeplitz import QuotientRealization

            qr = QuotientRealization.shared(ch)
            quotient_side = sum(
                cf * cg.conjugate() * qr.moment(ef + eg)
                for ef, cf in f.terms.items()
                for eg, cg in gpoly.terms.items()
            ) / ep.cnorm**2
            assert abs(torus_inner(F, Gp) - quotient_side) < 1e-9

    def test_lower_rejects_outside_component(self, sgn112, bm112):
        ep = ell(sgn112)
        with pytest.raises(NotInIsotypicError):
            lower(ep, bm112, P(2, {(1, 0): 1, (0, 1): 1}))  # symmetric, not sgn


G113 = make_group("G(1,1,3)")
# t-exponents of weight a_1 + 2 a_2 + 3 a_3 <= 9: with ell_sgn of degree 3,
# lift(f) has ambient degree <= 12
G113_EXPOS = [a for a in product(range(10), range(5), range(4))
              if a[0] + 2 * a[1] + 3 * a[2] <= 9]


@st.composite
def g113_quotient_polys(draw):
    """Gaussian-integer coefficients: the exact route of ROADMAP item 4.  A
    float input whose terms differ in size by 1e12 loses the small ones to
    LaurentPoly's relative cleanup inside lift, which is that item's defect
    and not the lowering's."""
    name = draw(st.sampled_from(["trivial", "sgn"]))
    part = st.integers(-10, 10)
    coeff = st.builds(complex, part, part).filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(G113_EXPOS), coeff, min_size=1, max_size=6))
    return make_character(G113, name), LaurentPoly(3, terms)


def lowering_mass(ep, bm, F):
    """Per t-exponent a: (M_a, N_a) with M_a = (c/kappa) sum_r |x_r| |row_r[a]|
    over the canonical reps r of F, x_r = F[r] / w_r, and N_a the number of
    reps whose row has a term at a: the absolute sum that lower adds up at
    a, and its number of summands."""
    ch = ep.character
    mass, count = {}, {}
    for r in {canonical_exponent(ch.group, e) for e in F.terms}:
        x = abs(F.coeff(r)) / _signed_orbit(ch, r)[r]
        for a, c in bm.row(ch, r).terms.items():
            mass[a] = mass.get(a, 0.0) + x * abs(c) * ep.cnorm / ep.kappa
            count[a] = count.get(a, 0) + 1
    return mass, count


# t-exponents and exact coefficients of the quotient polynomials f drawn for
# the exactness test, per group: the trivial character, so ell = 1
EXACT_GROUPS = {"G(1,1,2)": 6, "G(2,1,2)": 4, "G(3,3,2)": 3, "G(1,1,3)": 3, "Z(3)@1^2": 4}
exact_coefficients = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))


@st.composite
def exact_quotient_polys(draw):
    spec = draw(st.sampled_from(sorted(EXACT_GROUPS)))
    g = make_group(spec)
    expo = st.tuples(*[st.integers(0, EXACT_GROUPS[spec])] * g.n)
    return spec, LaurentPoly(g.n, draw(st.dictionaries(expo, exact_coefficients, max_size=6)))


class TestExactLowering:
    @given(g113_quotient_polys())
    @settings(max_examples=60, deadline=None)
    def test_lower_inverts_lift_on_g113(self, case):
        """lower(lift(f)) = f.  f has Gaussian-integer coefficients, so
        P = ell * pull(f) is exact in doubles and lift's F[b] = fl(P[b] s),
        s = fl(1/fl(c)).  lower forms fl(fl(F[r] k_r) row_r[a]), k_r =
        |S|/w_r, adds the N_a of them recursively, divides by |S| and
        multiplies by fl(fl(c)/kappa); s * fl(c) = 1 + delta with |delta| <= u
        cancels c.  So back[a] = f[a] + (N_a + 5) u M_a at most to first
        order, u = 2^-53 and M_a as in lowering_mass; one more u covers M_a
        being read off the rounded F.  N_a <= 19 here (partitions of the
        ambient degree <= 12 into at most 3 parts), so this implies the
        earlier bound (|S| + 8) eps M = 28 u M, M = sum_a M_a, which is
        checked as well."""
        ch, f = case
        bm = basic_map(G113)
        ep = ell(ch, bmap=bm)
        F = lift(ep, bm, f)
        back = lower(ep, bm, F)
        mass, count = lowering_mass(ep, bm, F)
        u = 2.0 ** -53
        for a in set(back.terms) | set(f.terms) | set(mass):
            err = abs(back.coeff(a) - f.coeff(a))
            assert err <= (count.get(a, 0) + 6) * u * mass.get(a, 0.0), (a, err)
        total = sum(mass.values())
        assert (back - f).max_abs_coeff() <= (len(ch.group.perm_images()) + 8) * 2.0 ** -52 * total

    def test_lower_is_exact_on_integer_input(self):
        """lower(ell * pull(f)) = f term for term for integer f; a lowering
        that scaled each integer row by a float left a stray 1.36e-12 at
        t^(0,0,3) and 0.9999999999998863 at t^(4,1,1)."""
        ch = make_character(G113, "trivial")
        bm = basic_map(G113)
        ep = ell(ch, bmap=bm)
        f = LaurentPoly(3, {(0, 0, 0): 1, (4, 1, 1): 1, (9, 0, 0): 1})
        assert lower(ep, bm, ep.poly * bm.pull(f)).terms == f.terms

    @given(exact_quotient_polys())
    @settings(max_examples=80, deadline=None)
    def test_lower_is_exact_on_int_and_fraction_input(self, case):
        """On the trivial character ell = 1 and c = kappa = 1, so lower sums
        the rows in F's own coefficient type: ints stay ints, Fractions stay
        Fractions, and the result is f exactly."""
        spec, f = case
        g = make_group(spec)
        ch = make_character(g, "trivial")
        bm = basic_map(g)
        ep = ell(ch, bmap=bm)
        back = lower(ep, bm, ep.poly * bm.pull(f))
        assert back.terms == f.terms
        kinds = (int,) if all(type(c) is int for c in f.terms.values()) else (int, Fraction)
        assert all(type(c) in kinds for c in back.terms.values())

    def test_lower_rejects_inputs_outside_the_component(self):
        """Each raises NotInIsotypicError, on exact and float input."""
        g = make_group("G(1,1,2)")
        bm = basic_map(g)
        triv = ell(make_character(g, "trivial"), bmap=bm)
        sgn = ell(make_character(g, "sgn"), bmap=bm)
        # one off at z^(1,0): pairing with the gamma basis averaged it into
        # 10000000000.499998 t_1
        big = triv.poly * bm.pull(LaurentPoly(2, {(1, 0): 10 ** 10}))
        off_by_one = big + LaurentPoly(2, {(1, 0): 1})
        pulled = sgn.poly * bm.pull(LaurentPoly(2, {(1, 0): 1}))  # z1^2 - z2^2
        g3 = make_group("G(1,1,3)")
        bm3 = basic_map(g3)
        sgn3 = ell(make_character(g3, "sgn"), bmap=bm3)
        F3 = sgn3.poly * bm3.pull(LaurentPoly(3, {(1, 0, 0): 1}))
        g212 = make_group("G(2,1,2)")
        bm212 = basic_map(g212)
        cases = [
            (triv, bm, off_by_one),
            # a missing orbit image: the canonical term or another one
            (sgn, bm, LaurentPoly(2, {(0, 2): -1})),
            (sgn, bm, LaurentPoly(2, {(2, 0): 1})),
            (sgn3, bm3, LaurentPoly(3, dict(list(F3.terms.items())[1:]))),
            # a negative exponent
            (triv, bm, LaurentPoly(2, {(-1, 1): 1, (1, -1): 1})),
            (triv, bm, LaurentPoly(2, {(-1, 0): 0.5, (0, -1): 0.5})),
            # z^(0,1) fails the diagonal test of G(2,1,2)
            (ell(make_character(g212, "trivial"), bmap=bm212), bm212,
             LaurentPoly(2, {(0, 1): 1, (1, 0): 1})),
            # the sgn orbit of a repeated value vanishes
            (sgn, bm, LaurentPoly(2, {(1, 1): 1})),
            (sgn, bm, LaurentPoly(2, {(1, 1): 1.0})),
        ]
        assert lower(sgn, bm, pulled).terms  # the complete input lowers
        for ep, bmap, F in cases:
            with pytest.raises(NotInIsotypicError):
                lower(ep, bmap, F)

    def test_lower_tolerance_has_no_floor(self):
        """The float limit is relative to F's largest coefficient alone: a
        non-isotypic F with coefficients near 1e-10 is rejected, not
        lowered against a floor of 1e-9; the same F scaled by 1e10, and
        the isotypic 1e-10 (z_1 + z_2), behave as at unit scale."""
        g = make_group("G(1,1,2)")
        bm = basic_map(g)
        triv = ell(make_character(g, "trivial"), bmap=bm)
        tiny = LaurentPoly(2, {(1, 0): 1e-10, (0, 1): 3e-10})
        for F in (tiny, tiny * 1e10):
            with pytest.raises(NotInIsotypicError):
                lower(triv, bm, F)
        back = lower(triv, bm, LaurentPoly(2, {(1, 0): 1e-10, (0, 1): 1e-10}))
        assert back.terms == {(1, 0): 1e-10}

    def test_lower_matches_lower_loop(self):
        """lower against the pairing oracle lower_loop on F = lift(f), f with
        Gaussian-integer coefficients, for every built-in character of the
        row catalogue and on the ball of its two cyclic groups.  lower is
        within (N_a + 6) u M_a of the exact lowering (see
        test_lower_inverts_lift_on_g113).  lower_loop: on the polydisc each
        gamma coefficient carries at most 6u relative error and on the ball
        at most (|O| + 8) u (sphere_norm sums |O| terms); the pairing adds
        one product of at most three factors per image and sums |O| of them
        with one phase (F[b] conj(gamma_r[b]) is x_r times a positive
        weight), so c_r is within (2|O| + 12) u of its value relative; the
        lowered element carries 8u (c, the factor's 4, its product, kappa,
        the row's product) and c_r times it one more; the sum adds N_a
        terms at a.  So the roundings stay within (2|O| + N_a + 21) u M_a.
        On top, each of the three LaurentPoly cleanups per rep (the lowered
        element, its product with c_r, the running sum) drops terms below
        CLEANUP_REL of a polynomial whose coefficients are at most
        M = sum_r (c/kappa) |x_r| max|row_r|, R reps in all: 3 R CLEANUP_REL M."""
        u = 2.0 ** -53
        cases = [(spec, bound, ch, "polydisc") for spec, bound in self.ROW_CATALOGUE
                 for ch in builtin_characters(make_group(spec))]
        cases += [(spec, 6, ch, "ball") for spec in ("Z(3)@1^2", "Z(2)@2^3")
                  for ch in builtin_characters(make_group(spec))]
        rng = random.Random(28)
        for spec, bound, ch, domain in cases:
            g = ch.group
            bm = basic_map(g)
            ep = ell(ch, domain=domain, bmap=bm)
            top = {2: 3, 3: 2}.get(g.n, 1)
            f = LaurentPoly(g.n, {tuple(rng.randint(0, top) for _ in range(g.n)):
                                  complex(rng.randint(-9, 9), rng.randint(-9, 9))
                                  for _ in range(4)})
            F = lift(ep, bm, f)
            fast, slow = lower(ep, bm, F), lower_loop(ep, bm, F)
            mass, count = lowering_mass(ep, bm, F)
            reps = {canonical_exponent(g, e) for e in F.terms}
            orbit = max(len(_signed_orbit(ch, r)) for r in reps)
            M = sum(abs(F.coeff(r)) / _signed_orbit(ch, r)[r] * ep.cnorm / ep.kappa
                    * max(abs(c) for c in bm.row(ch, r).terms.values()) for r in reps)
            for a in set(fast.terms) | set(slow.terms):
                bound_a = ((2 * orbit + 2 * count.get(a, 0) + 27) * u * mass.get(a, 0.0)
                           + 3 * len(reps) * CLEANUP_REL * M)
                err = abs(fast.coeff(a) - slow.coeff(a))
                assert err <= bound_a, (spec, ch.name, domain, a, err, bound_a)

    def test_cold_lower_makes_no_product_and_reads_no_gamma_basis(self, monkeypatch):
        """lower needs neither a polynomial product nor the gamma basis: on a
        fresh group, with LaurentPoly's product and every GammaBasis method
        raising, a cold lower (its rows built on the way) still completes,
        and lower(ell * pull(f)) = c f."""
        def forbidden(*args, **kwargs):
            raise AssertionError("lower multiplied polynomials or read the gamma basis")

        cases = []
        for spec, name in (("G(1,1,3)", "sgn"), ("G(2,1,2)", "det"), ("Z(3)@1^2", "trivial")):
            g = make_group(spec)
            ep = ell(make_character(g, name))
            f = LaurentPoly(g.n, {(1,) * g.n: 2, (0,) * (g.n - 1) + (2,): -1})
            # the input is pulled through the map of another group object
            F = ep.poly * basic_map(make_group(spec)).pull(f)
            cases.append((ep, basic_map(g), f, F))
        with monkeypatch.context() as guard:
            guard.setattr(LaurentPoly, "__mul__", forbidden)
            guard.setattr(LaurentPoly, "__rmul__", forbidden)
            for name, attr in vars(GammaBasis).items():
                if isinstance(attr, (FunctionType, classmethod)):
                    guard.setattr(GammaBasis, name, forbidden)
            backs = []
            for ep, bm, f, F in cases:
                assert not bm.rows
                backs.append(lower(ep, bm, F))
        for (ep, bm, f, F), back in zip(cases, backs):
            assert back.approx_eq(f * ep.cnorm, tol=1e-12)

    def test_polydisc_factor_is_the_element_route_bit_for_bit(self):
        """The closed-form polydisc factor equals the factor read off the
        element, compared with ==, and builds no element."""
        checked = 0
        for spec, bound in (("G(1,1,2)", 10), ("G(2,2,2)", 10), ("G(2,1,2)", 10), ("G(4,4,2)", 10),
                            ("G(6,3,2)", 10), ("G(1,1,3)", 6), ("G(3,1,3)", 6), ("G(4,2,3)", 6),
                            ("G(2,1,4)", 4), ("Z(3)@1^2", 8)):
            for ch in builtin_characters(make_group(spec)):
                closed, element = GammaBasis(ch), GammaBasis(ch)
                for rep in index_set(ch, bound):
                    assert closed.factor(rep) == element._entry(rep)[1], (spec, ch.name, rep)
                    checked += 1
                assert not closed._cache
        assert checked > 500

    def test_rows_are_integer_and_exact(self):
        # ell (L o theta) = kappa sum_sigma chi(P_sigma) z^(sigma . rep) in
        # integers, where ell is not monic (kappa = 27 for sgn on G(3,1,3))
        g = make_group("G(3,1,3)")
        bm = basic_map(g)
        for name in ("sgn", "det", "trivial"):
            ch = make_character(g, name)
            ep = ell(ch)
            for rep in index_set(ch, 14):
                row = bm.row(ch, rep)
                assert all(type(c) is int for c in row.terms.values())
                orbit = LaurentPoly.zero(3)
                for perm in permutations(range(3)):
                    sign = -1 if ch.swap and _perm_parity(perm) else 1
                    orbit = orbit + LaurentPoly(3, {tuple(rep[k] for k in perm): sign})
                assert (ep.poly * bm.pull(row)).same_terms(orbit * ep.kappa)

    # (group, bound) with every built-in character, split n = 2 included
    ROW_CATALOGUE = (
        ("G(1,1,2)", 8), ("G(2,2,2)", 8), ("G(2,1,2)", 8), ("G(3,3,2)", 8), ("G(4,4,2)", 8),
        ("G(4,2,2)", 8), ("G(6,3,2)", 8), ("G(1,1,3)", 6), ("G(2,1,3)", 6), ("G(3,3,3)", 6),
        ("G(4,2,3)", 6), ("G(2,2,4)", 4), ("G(1,1,4)", 4), ("Z(3)@1^2", 6), ("Z(2)@2^3", 6),
    )

    def test_rows_match_row_loop(self):
        """The orbit-coordinate elimination on a map with no tables yet
        gives every row of the full-polynomial division and elimination
        exactly, term for term and in Python ints; also the 820 sgn rows of
        G(1,1,2) at D = 40."""
        cases = [(spec, name, bound) for spec, bound in self.ROW_CATALOGUE
                 for name in [ch.name for ch in builtin_characters(make_group(spec))]]
        for spec, name, bound in cases + [("G(1,1,2)", "sgn", 40)]:
            g = make_group(spec)
            shared = basic_map(g)
            fresh = BasicMap(g, shared.components, shared.q)
            ch = make_character(g, name)
            for rep in index_set(ch, bound):
                row = fresh.row(ch, rep)
                assert row.terms == row_loop(shared, ch, rep).terms, (spec, name, rep)
                assert all(type(c) is int for c in row.terms.values())


class TestTorusRelationGrid:
    @pytest.mark.parametrize("m,p,n", [
        (m, p, n) for n in (2, 3, 4) for m in (1, 2, 3, 4) for p in (1, 2, 3, 4)
        if m % p == 0
    ])
    def test_conj_theta_relation(self, m, p, n):
        bm = basic_map(make_group(f"G({m},{p},{n})"))
        theta_n = bm.components[-1]
        for i in range(n - 1):
            lhs = bm.components[i].conj_torus() * theta_n**p
            assert lhs.same_terms(bm.components[n - i - 2])
