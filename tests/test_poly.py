import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from group_sums import (add_loop, apply_point, clean_loop, conj_zbar, elements,
                        hol_project_loop, is_disjoint, mul_loop, neg_loop, pow_loop, scale_loop,
                        sphere_pair_integral, sub_loop, substitute_loop, torus_restriction)
from hardyq.groups import GroupElement, InputError, make_group
from hardyq.invariants import basic_map
from hardyq.laurent import (
    LaurentPoly,
    act,
    harmonic_extension,
    sphere_inner,
    sphere_monomial_weight,
    torus_inner,
    wirtinger_D,
)
from hardyq.toeplitz import hol_project


def P(dim, terms):
    return LaurentPoly(dim, {tuple(e): complex(c) for e, c in terms.items()})


def torus_quadrature_inner(f, g, grid=None):
    """Independent oracle: trapezoid sums on a uniform torus grid are exact
    for trigonometric polynomials once the grid beats the bandwidth."""
    n = f.dim
    deg = max(f.degree_radius(), g.degree_radius())
    N = grid or (2 * deg + 3)
    pts = [cmath.exp(2j * math.pi * k / N) for k in range(N)]
    total = 0j
    idx = [0] * n

    def rec(i):
        nonlocal total
        if i == n:
            z = tuple(pts[j] for j in idx)
            total += f.eval(z) * g.eval(z).conjugate()
            return
        for k in range(N):
            idx[i] = k
            rec(i + 1)

    rec(0)
    return total / N**n


small_coeffs = st.integers(min_value=-3, max_value=3)
exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def laurent_polys(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = draw(exponents)
        c = draw(small_coeffs)
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(2, {k: complex(v) for k, v in terms.items()})


class TestArithmetic:
    def test_conj_torus_example(self):
        f = P(2, {(1, 0): 1, (0, 1): 1})
        assert f.conj_torus().same_terms(P(2, {(-1, 0): 1, (0, -1): 1}))

    def test_exact_coefficients_stay_exact(self):
        # ints and Fractions keep their type and are dropped only when exactly
        # zero; inexact terms below 1e-12 of the largest are cleaned away
        f = LaurentPoly(2, {(1, 0): 10**15, (0, 1): 1})
        g = f * f - LaurentPoly(2, {(2, 0): 10**30})
        assert g.terms == {(1, 1): 2 * 10**15, (0, 2): 1}
        assert all(type(c) is int for c in g.terms.values())
        assert (LaurentPoly(1, {(1,): Fraction(1, 3)}) ** 2).terms == {(2,): Fraction(1, 9)}
        assert (f * 1.0).terms == {(1, 0): 1e15}

    def test_product_example(self):
        f = P(2, {(1, 0): 1, (0, 1): -1})
        g = P(2, {(1, 0): 1, (0, 1): 1})
        assert (f * g).same_terms(P(2, {(2, 0): 1, (0, 2): -1}))

    def test_torus_relation_shape_g212(self):
        # conj(theta_1) * theta_2 for G(2,1,2), expanded both ways
        theta1 = P(2, {(2, 0): 1, (0, 2): 1})
        theta2 = P(2, {(2, 2): 1})
        lhs = theta1.conj_torus() * theta2 ** 2
        direct = P(2, {(2, 4): 1, (4, 2): 1})
        assert lhs.same_terms(direct)
        assert direct.same_terms(theta1 * theta2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            P(2, {(0, 0): 1}) * LaurentPoly(3, {(0, 0, 0): 1})

    def test_cleanup_drops_relative_dust(self):
        f = LaurentPoly(1, {(0,): 1.0, (5,): 1e-15})
        assert (5,) not in f.terms

    @given(laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_conj_torus_involution(self, f):
        assert f.conj_torus().conj_torus().same_terms(f)

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, f, g):
        assert (f * g).same_terms(g * f)

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, f, g, h):
        assert ((f * g) * h).same_terms(f * (g * h))

    def test_json_roundtrip(self):
        f = P(2, {(1, -2): 0.5 + 0.25j, (0, 0): -1})
        assert LaurentPoly.from_json(f.to_json()).same_terms(f)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_coefficients(self, bad):
        # the cleanup compares with the largest |c|: a NaN term wiped out
        # LaurentPoly(2, {(1, 0): nan, (0, 1): 1.0}), an infinite one kept
        # nothing else
        data = {"dim": 2, "terms": [{"c": [bad, 0.0], "e": [1, 0]}, {"c": [1.0, 0.0], "e": [0, 1]}]}
        with pytest.raises(InputError, match=r"of exponent \[1, 0\] is not finite"):
            LaurentPoly.from_json(data)
        data["terms"][0]["c"] = [0.0, bad]
        with pytest.raises(InputError, match=r"exponent \[1, 0\]"):
            LaurentPoly.from_json(data)


def pairs(terms) -> list:
    """(exponent, repr(coefficient)) in dict order: repr tells int from
    float and 0.0 from -0.0, and the order is what later loops iterate."""
    return [(e, repr(c)) for e, c in terms.items()]


# magnitudes around the 1e-12 relative cleanup floor, for coefficients of
# size up to 4 (exact ones are kept below it unless zero); whole-number
# parts cancel exactly, to signed zeros
NEAR_FLOOR = (1.0, 1e-11, 4e-12, 1e-12, 3e-13, 1e-13, 1e-16, 0.0)
_reals = st.one_of(st.floats(-4, 4, allow_nan=False), st.integers(-2, 2).map(float),
                   st.sampled_from([-0.0, 0.1 + 0.2 - 0.3]))
coefficient = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 3, 10 ** 12, 10 ** 14])),
    st.builds(lambda x, s: x * s, _reals, st.sampled_from(NEAR_FLOOR)),
    st.builds(lambda x, y, s: complex(x * s, y * s), _reals, _reals, st.sampled_from(NEAR_FLOOR)),
)


def term_dicts(dim: int, low: int = -3, high: int = 3, size: int = 6):
    return st.dictionaries(st.tuples(*[st.integers(low, high)] * dim), coefficient,
                           max_size=size)


@st.composite
def operands(draw):
    dim = draw(st.integers(1, 4))
    f, g = (LaurentPoly(dim, draw(term_dicts(dim))) for _ in range(2))
    return f, g, draw(coefficient), draw(st.integers(0, 5))


class TestReferenceArithmetic:
    """Every operation against the two-pass loops in group_sums.py: the
    same terms, coefficients (repr, so types and signed zeros) and order."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_cleanup(self, data):
        dim = data.draw(st.integers(1, 4))
        terms = data.draw(term_dicts(dim))
        assert pairs(LaurentPoly(dim, terms).terms) == pairs(clean_loop(terms))

    @pytest.mark.parametrize("terms", [
        {(0,): 1.0, (1,): math.nan, (2,): 2.0},
        {(0,): math.nan, (1,): 1.0},
        {(0,): complex(1, 0), (1,): complex(math.nan, 0.0), (2,): 3},
        {(0,): math.inf, (1,): 1.0, (2,): 1},
        {(0,): 1e-300, (1,): 5e-313},
    ])
    def test_cleanup_of_non_finite_and_subnormal_terms(self, terms):
        # a NaN magnitude is never kept, wherever it sits in the dict
        assert pairs(LaurentPoly(1, terms).terms) == pairs(clean_loop(terms))

    @given(operands())
    # 1 - 0j minus -1: (1 - 0j) - (-1) is 2 - 0j, the reference (1 - 0j) + 1 is 2 + 0j
    @example((LaurentPoly(1, {(0,): complex(1.0, -0.0)}), LaurentPoly(1, {}), -1, 0))
    @settings(max_examples=300, deadline=None)
    def test_operations(self, case):
        f, g, c, k = case
        for got, want in [
            (f + g, add_loop(f, g)),
            (f - g, sub_loop(f, g)),
            (f - c, sub_loop(f, LaurentPoly.constant(f.dim, c))),
            (-f, neg_loop(f)),
            (f * g, mul_loop(f, g)),
            (f * c, scale_loop(f, c)),
            (f ** k, pow_loop(f, k)),
            (hol_project(f), hol_project_loop(f)),
        ]:
            assert pairs(got.terms) == pairs(want.terms)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_substitute(self, data):
        n, dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        f = LaurentPoly(n, data.draw(term_dicts(n, low=0, size=4)))
        polys = [LaurentPoly(dim, data.draw(term_dicts(dim, size=3))) for _ in range(n)]
        assert pairs(f.substitute(polys).terms) == pairs(substitute_loop(f, polys).terms)


class TestGroupAction:
    def test_transposition_moves_variable(self, g112):
        swap = GroupElement((1, 0), (0, 0), 1)
        assert act(swap, P(2, {(1, 0): 1})).same_terms(P(2, {(0, 1): 1}))

    def test_phase_element(self, g212):
        el = GroupElement((0, 1), (1, 0), 2)
        assert act(el, P(2, {(1, 0): 1})).same_terms(P(2, {(1, 0): -1}))

    @pytest.mark.parametrize("name", ["G(1,1,3)", "G(2,1,2)", "G(3,3,2)", "Z(3)@1^2"])
    def test_basic_invariants_are_fixed(self, name):
        g = make_group(name)
        bm = basic_map(g)
        for comp in bm.components:
            for x in elements(g):
                assert (act(x, comp) - comp).is_zero(tol=1e-12)

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,3,2)"])
    def test_action_is_unitary_on_torus(self, name):
        g = make_group(name)
        assert len(g) <= 200
        rng = random.Random(2)
        for _ in range(5):
            f = P(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.uniform(-1, 1)
                      for _ in range(3)})
            h = P(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.uniform(-1, 1)
                      for _ in range(3)})
            base = torus_inner(f, h)
            for x in elements(g):
                assert abs(torus_inner(act(x, f), act(x, h)) - base) < 1e-12

    def test_action_composes_against_matrices(self):
        # f(g z) evaluated two ways at a random point
        g = make_group("G(4,1,2)")
        rng = random.Random(11)
        f = P(2, {(2, -1): 1.5, (0, 3): -0.5j})
        z = (0.3 + 0.4j, -0.2 + 0.1j)
        for _ in range(20):
            x = rng.choice(elements(g))
            assert abs(act(x, f).eval(z) - f.eval(apply_point(x, z))) < 1e-12


class TestTorusInner:
    def test_unit_monomial(self):
        z1 = P(2, {(1, 0): 1})
        assert torus_inner(z1, z1) == 1

    def test_difference_norm(self):
        f = P(2, {(1, 0): 1, (0, 1): -1})
        assert torus_inner(f, f) == 2

    def test_distinct_monomials_orthogonal(self):
        assert torus_inner(P(2, {(1, -1): 1}), P(2, {(1, 0): 1})) == 0

    def test_quadrature_oracle(self):
        rng = random.Random(4)
        for _ in range(5):
            f = P(2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)})
            g = P(2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)})
            assert abs(torus_inner(f, g) - torus_quadrature_inner(f, g)) < 1e-10


class TestSphereInner:
    def test_single_variable(self):
        z1 = P(2, {(1, 0): 1})
        assert abs(sphere_inner(z1, z1) - 0.5) < 1e-15

    def test_constant(self):
        one = P(2, {(0, 0): 1})
        assert sphere_inner(one, one) == 1

    def test_mixed_monomial(self):
        z1z2 = P(2, {(1, 1): 1})
        assert abs(sphere_inner(z1z2, z1z2) - 1 / 6) < 1e-15

    def test_off_diagonal_zero(self):
        assert sphere_inner(P(2, {(1, 0): 1}), P(2, {(0, 1): 1})) == 0

    def test_quadrature_oracle_n2(self):
        # S^3 in polar form: weight(a, b) = 2 * int cos^{2a+1} sin^{2b+1}
        from scipy.integrate import quad

        for a, b in [(1, 0), (2, 1), (3, 2)]:
            val, _ = quad(
                lambda t, a=a, b=b: 2 * math.cos(t) ** (2 * a + 1)
                * math.sin(t) ** (2 * b + 1),
                0.0,
                math.pi / 2,
            )
            assert abs(float(sphere_monomial_weight((a, b))) - val) < 1e-10

    def test_rejects_laurent_input(self):
        with pytest.raises(ValueError):
            sphere_inner(P(2, {(-1, 0): 1}), P(2, {(-1, 0): 1}))

    def test_normalization_inverts_basis_constants(self):
        for n in (2, 3, 4):
            for total in range(7):
                alpha = tuple([total] + [0] * (n - 1))
                ksq = Fraction(
                    math.factorial(n - 1 + total),
                    math.factorial(total) * math.factorial(n - 1),
                )
                assert sphere_monomial_weight(alpha) * ksq == 1


class TestSpherePairIntegral:
    def test_constant(self):
        assert sphere_pair_integral((0, 0), (0, 0), 2) == 1

    def test_rotation_invariance_zero(self):
        assert sphere_pair_integral((1, 0), (0, 1), 2) == 0

    def test_matches_sphere_inner(self):
        z1sq = LaurentPoly(3, {(2, 0, 0): 1})
        assert abs(sphere_pair_integral((2, 0, 0), (2, 0, 0), 3)
                   - sphere_inner(z1sq, z1sq).real) < 1e-15
        assert abs(sphere_pair_integral((2, 0, 0), (2, 0, 0), 3) - 1 / 6) < 1e-15


class TestHarmonicExtension:
    def test_mixed_monomial(self):
        f = P(2, {(-1, 1): 1})
        h = harmonic_extension(f)
        assert h.terms == {(0, 1, 1, 0): 1}

    def test_real_part_pair(self):
        f = P(1, {(1,): 1, (-1,): 1})
        h = harmonic_extension(f)
        assert h.terms == {(1, 0): 1, (0, 1): 1}

    def test_extension_is_disjoint_and_restricts_back(self):
        f = P(2, {(2, -3): 1j, (0, 1): 2, (-1, -1): -0.5})
        h = harmonic_extension(f)
        assert is_disjoint(h)
        assert torus_restriction(h).same_terms(f)

    @given(laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, f):
        assert torus_restriction(harmonic_extension(f)).same_terms(f)

    def test_conj_swaps_halves(self):
        h = LaurentPoly(4, {(1, 0, 0, 2): 1j, (0, 0, 0, 0): 3})
        assert conj_zbar(h).terms == {(0, 2, 1, 0): -1j, (0, 0, 0, 0): 3}

    @given(laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_conj_restricts_to_torus_conjugate(self, f):
        got = torus_restriction(conj_zbar(harmonic_extension(f)))
        assert got.same_terms(f.conj_torus())

    def test_products_can_leave_disjoint_form(self):
        # the pluriharmonic extension of a product is not the product of
        # extensions; mixed z conj(z) terms are expected in derived products
        h = harmonic_extension(P(2, {(1, 0): 1})) * harmonic_extension(
            P(2, {(-1, 0): 1})
        )
        assert not is_disjoint(h)

    def test_extension_applies_after_torus_reduction(self):
        # conj(z1+z2) * z1 z2 reduces on the torus to z1 + z2 before the
        # per-monomial extension; the naive product of extensions keeps
        # mixed terms and is not pluriharmonic-pure
        th1 = P(2, {(1, 0): 1, (0, 1): 1})
        th2 = P(2, {(1, 1): 1})
        reduced = th1.conj_torus() * th2
        ext = harmonic_extension(reduced)
        assert is_disjoint(ext)
        assert ext.terms == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}
        naive = harmonic_extension(th1.conj_torus()) * harmonic_extension(th2)
        assert not is_disjoint(naive)
        assert torus_restriction(naive).same_terms(reduced)


class TestWirtinger:
    def test_basic_pair(self):
        f = LaurentPoly(4, {(1, 0, 0, 0): 1})
        g = LaurentPoly(4, {(0, 0, 1, 0): 1})
        assert wirtinger_D(f, g, "D1").terms == {(0, 0, 0, 0): 1}

    def test_no_z_dependence_kills_product(self):
        f = LaurentPoly(4, {(0, 0, 1, 1): 1})
        g = LaurentPoly(4, {(1, 1, 1, 1): 1})
        assert wirtinger_D(f, g, "D1").is_zero()

    def test_full_real_symbol(self):
        f = harmonic_extension(P(2, {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1}))
        out = wirtinger_D(f, f, "D1")
        assert out.terms == {(0, 0, 0, 0): 1}

    def test_d12_second_derivatives(self):
        f = LaurentPoly(4, {(1, 1, 0, 0): 1})
        g = LaurentPoly(4, {(0, 0, 1, 1): 1})
        assert wirtinger_D(f, g, "D12").terms == {(0, 0, 0, 0): 1}

    def test_dimension_guard(self):
        f = LaurentPoly(6, {(1, 0, 0, 0, 0, 0): 1})
        with pytest.raises(ValueError):
            wirtinger_D(f, f, "D1")
