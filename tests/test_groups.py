import math
import random
from fractions import Fraction

import numpy as np
import pytest
from group_sums import (
    det_of,
    elements,
    enumerate_elements,
    fixed_space_dim,
    is_identity,
    is_reflection,
    point_tables,
    scanned_hyperplanes,
)

from hardyq.groups import (
    CharacterError,
    Group,
    GroupElement,
    GroupSpecError,
    builtin_characters,
    extend_from_generators,
    make_character,
    make_group,
    parse_group_spec,
    root_of_unity,
)
from hardyq.invariants import basic_map, ell, index_set, project, projection_norm_sq
from hardyq.laurent import LaurentPoly


def numpy_matrix(g):
    return np.array(g.matrix(), dtype=complex)


class TestConstruction:
    def test_symmetric_group_order(self, g112):
        assert len(g112) == 2

    def test_g423_order(self):
        # m^n n!/p = 4^3 * 6 / 2
        assert len(make_group("G(4,2,3)")) == 192

    def test_cyclic_elements_are_diagonal_phases(self):
        g = make_group("Z(3)@1^2")
        assert len(g) == 3
        mats = sorted(
            tuple(np.round(numpy_matrix(x).diagonal(), 12)) for x in elements(g)
        )
        expected = sorted(
            (np.round(root_of_unity(Fraction(a, 3)), 12), 1.0 + 0j) for a in range(3)
        )
        assert mats == expected

    def test_order_formula_grid(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3, 4):
                for p in (1, 2, 3, 4):
                    if m % p:
                        continue
                    g = make_group(f"G({m},{p},{n})")
                    assert len(g) == m**n * math.factorial(n) // p

    def test_bad_divisibility_rejected(self):
        with pytest.raises(GroupSpecError):
            make_group("G(4,3,2)")

    def test_gmpn_needs_two_variables(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("G(2,1,1)")

    def test_spec_string_roundtrip(self):
        for s in ("G(3,1,4)", "Z(5)@2^3"):
            assert str(parse_group_spec(s)) == s


class TestGroupAxioms:
    @pytest.mark.parametrize("name", ["G(1,1,3)", "G(2,1,2)", "G(2,2,2)", "Z(4)@2^3"])
    def test_identity_and_inverses(self, name):
        g = make_group(name)
        for x in elements(g):
            assert g.mul(x, g.identity) == x
            assert g.mul(g.identity, x) == x
            assert is_identity(g.mul(x, g.inv(x)))
            assert is_identity(g.mul(g.inv(x), x))

    def test_associativity_random_triples(self):
        rng = random.Random(5)
        g = make_group("G(4,2,3)")
        for _ in range(200):
            a, b, c = (rng.choice(elements(g)) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_closure_matches_matrix_product(self):
        rng = random.Random(9)
        g = make_group("G(3,1,2)")
        for _ in range(50):
            a, b = rng.choice(elements(g)), rng.choice(elements(g))
            got = numpy_matrix(g.mul(a, b))
            want = numpy_matrix(a) @ numpy_matrix(b)
            assert np.allclose(got, want, atol=1e-12)


class TestDeterminant:
    def test_identity(self, g112):
        assert det_of(g112, g112.identity) == 1

    def test_transposition(self, g112):
        swap = GroupElement((1, 0), (0, 0), 1)
        assert det_of(g112, swap) == -1

    def test_diagonal_phase_element(self, g212):
        # diag(-1, 1): determinant -1 straight from the matrix
        el = GroupElement((0, 1), (1, 0), 2)
        assert abs(np.linalg.det(numpy_matrix(el)) - (-1)) < 1e-12
        assert det_of(g212, el) == -1

    @pytest.mark.parametrize("name", ["G(3,1,2)", "G(4,2,3)", "Z(5)@1^2"])
    def test_matches_numpy_determinant(self, name):
        g = make_group(name)
        rng = random.Random(3)
        sample = elements(g) if len(g) <= 60 else [
            rng.choice(elements(g)) for _ in range(60)
        ]
        for x in sample:
            assert abs(det_of(g, x) - np.linalg.det(numpy_matrix(x))) < 1e-10

    def test_multiplicative(self):
        g = make_group("G(2,2,3)")
        assert len(g) <= 200
        for a in elements(g):
            for b in elements(g):
                assert abs(det_of(g, g.mul(a, b)) - det_of(g, a) * det_of(g, b)) < 1e-12

    def test_multiplicative_random_large(self):
        g = make_group("G(4,1,3)")
        rng = random.Random(17)
        for _ in range(300):
            a, b = rng.choice(elements(g)), rng.choice(elements(g))
            assert abs(det_of(g, g.mul(a, b)) - det_of(g, a) * det_of(g, b)) < 1e-12


class TestCharacters:
    def test_sgn_on_transposition(self, g113):
        sgn = make_character(g113, "sgn")
        swap = GroupElement((1, 0, 2), (0, 0, 0), 1)
        assert sgn.value(swap) == -1

    def test_sgn_is_inverse_determinant(self):
        g = make_group("G(3,1,2)")
        sgn = make_character(g, "sgn")
        for x in elements(g):
            assert abs(sgn.value(x) * det_of(g, x) - 1) < 1e-12

    def test_det_character_matches_det_of(self, g212):
        det = make_character(g212, "det")
        for x in elements(g212):
            assert abs(det.value(x) - det_of(g212, x)) < 1e-12

    @pytest.mark.parametrize("k", [2, 4])
    def test_rho1_generator_values(self, k):
        g = make_group(f"G({k},{k},2)")
        rho1 = make_character(g, "rho1")
        delta = GroupElement((0, 1), (1 % k, (k - 1) % k), k)
        sigma = GroupElement((1, 0), (0, 0), k)
        assert rho1.value(delta) == -1
        assert rho1.value(sigma) == 1

    def test_rho2_generator_values(self):
        g = make_group("G(4,4,2)")
        rho2 = make_character(g, "rho2")
        delta = GroupElement((0, 1), (1, 3), 4)
        sigma_delta = g.mul(GroupElement((1, 0), (0, 0), 4), delta)
        assert rho2.value(delta) == -1
        assert abs(rho2.value(g.mul(delta, GroupElement((1, 0), (0, 0), 4))) - 1) < 1e-12 \
            or abs(rho2.value(sigma_delta) - 1) < 1e-12

    def test_rho_requires_even_dihedral(self):
        with pytest.raises(CharacterError):
            make_character(make_group("G(3,3,2)"), "rho1")
        with pytest.raises(CharacterError):
            make_character(make_group("G(2,1,2)"), "rho1")

    @pytest.mark.parametrize("name", ["G(1,1,3)", "G(2,1,2)", "G(2,2,2)", "G(3,1,2)"])
    def test_norm_and_inverse_symmetry(self, name):
        g = make_group(name)
        for ch in builtin_characters(g):
            total = sum(abs(ch.value(x)) ** 2 for x in elements(g))
            assert abs(total - len(g)) < 1e-9
            for x in elements(g):
                assert abs(ch.value(g.inv(x)) - ch.value(x).conjugate()) < 1e-12

    def test_inconsistent_generator_values_rejected(self, g222):
        delta = GroupElement((0, 1), (1, 1), 2)  # order 2
        with pytest.raises(CharacterError, match="inconsistent|generate"):
            extend_from_generators(
                g222,
                {delta: Fraction(1, 4), GroupElement((1, 0), (0, 0), 2): Fraction(0)},
            )

    def test_conjugate_transpositions_with_different_values_rejected(self, g113):
        # (0 1) and (1 2) are conjugate in S_3, so no character separates them
        s01 = GroupElement((1, 0, 2), (0, 0, 0), 1)
        s12 = GroupElement((0, 2, 1), (0, 0, 0), 1)
        with pytest.raises(CharacterError, match="inconsistent"):
            extend_from_generators(g113, {s01: Fraction(1, 2), s12: Fraction(0)})

    def test_non_generating_assignments_rejected(self, g222):
        swap = GroupElement((1, 0), (0, 0), 2)
        with pytest.raises(CharacterError, match="do not generate"):
            extend_from_generators(g222, {swap: Fraction(1, 2)})

    def test_character_json_shape(self, g112):
        data = make_character(g112, "sgn").to_json()
        assert data["group"] == "G(1,1,2)"
        assert sorted(data["values"]) == [[0, 0, 1], [1, 1, 2]] or len(data["values"]) == 2


class TestCharacterTables:
    """Structural guards: characters come from their turns on the
    generators, and no per-element Fraction loop builds them."""

    @pytest.mark.parametrize("spec", ["G(1,1,3)", "G(2,1,2)", "G(4,2,3)", "G(3,3,4)",
                                      "Z(3)@1^2"])
    def test_generators_generate(self, spec):
        g = make_group(spec)
        reached = frontier = {g.identity}
        while frontier:
            frontier = {g.mul(x, s) for x in frontier for s in g.generators} - reached
            reached = reached | frontier
        assert len(reached) == len(g)

    def test_builtin_characters_never_call_det_turn(self, g315, monkeypatch):
        def forbidden(self, x):
            raise AssertionError("det_turn called")

        monkeypatch.setattr(Group, "det_turn", forbidden)
        assert [c.name for c in builtin_characters(g315)] == ["trivial", "sgn", "det"]

    def test_turn_not_a_multiple_of_the_table_denominator(self, g212):
        # characters of G(2,1,2) take values among the lcm(2, 2) = 2nd roots
        e1 = GroupElement((0, 1), (1, 0), 2)
        swap = GroupElement((1, 0), (0, 0), 2)
        with pytest.raises(CharacterError, match="not a multiple of 1/2"):
            extend_from_generators(g212, {e1: Fraction(1, 4), swap: Fraction(0)})


def rank_of_i_minus(g):
    mat = numpy_matrix(g)
    return np.linalg.matrix_rank(np.eye(mat.shape[0]) - mat, tol=1e-9)


class TestReflections:
    def test_g112_single_hyperplane(self, g112):
        # oracle: exhaustive rank test over both elements
        refl = [x for x in elements(g112) if rank_of_i_minus(x) == 1]
        assert len(refl) == 1
        planes = g112.reflections()
        assert len(planes) == 1
        assert planes[0].order == 2
        coeffs = planes[0].coeffs()
        assert coeffs[0] == 1 and abs(coeffs[1] + 1) < 1e-12  # z1 - z2

    def test_g212_four_hyperplanes(self, g212):
        refl = [x for x in elements(g212) if rank_of_i_minus(x) == 1]
        assert len(refl) == 4
        planes = g212.reflections()
        assert len(planes) == 4
        assert all(p.order == 2 for p in planes)
        forms = set()
        for p in planes:
            c = p.coeffs()
            if len(c) == 1:
                forms.add(("axis", min(c)))
            else:
                forms.add(("diff", round(c[max(c)].real)))
        assert ("axis", 0) in forms and ("axis", 1) in forms
        assert ("diff", -1) in forms and ("diff", 1) in forms  # z1 -+ z2

    def test_g113_transposition_planes(self, g113):
        planes = g113.reflections()
        assert len(planes) == 3
        assert sum(p.order - 1 for p in planes) == 3

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,3,2)", "G(4,2,3)", "Z(4)@2^2"])
    def test_rank_agrees_with_numpy(self, name):
        g = make_group(name)
        for x in elements(g):
            assert (fixed_space_dim(g, x) == g.n - 1) == (rank_of_i_minus(x) == 1)

    @pytest.mark.parametrize("name", ["G(2,1,2)", "G(3,3,2)", "G(4,2,3)"])
    def test_every_reflection_in_exactly_one_plane(self, name):
        g = make_group(name)
        planes = g.reflections()
        members = [x for p in planes for x in p.members]
        assert len(members) == len(set(members))
        assert sum(p.order - 1 for p in planes) == len(members)
        assert set(members) == {x for x in elements(g) if is_reflection(g, x)}

    def test_generator_is_primitive(self):
        g = make_group("Z(4)@1^2")
        (plane,) = g.reflections()
        assert plane.order == 4
        assert g.det_turn(plane.generator) == Fraction(1, 4)


# p | m for m in {1, 2, 3, 4, 6}, n in {2, 3, 4}, plus cyclic coordinate
# groups and one group of order 29,160
REFLECTION_GRID = [
    f"G({m},{p},{n})"
    for m in (1, 2, 3, 4, 6) for p in range(1, m + 1) if m % p == 0 for n in (2, 3, 4)
] + ["Z(3)@1^2", "Z(4)@2^2", "Z(2)@1^3", "Z(5)@3^3", "G(3,1,5)"]


class TestClosedFormReflections:
    @pytest.mark.parametrize("name", REFLECTION_GRID)
    def test_matches_element_scan(self, name):
        g = make_group(name)
        scanned = scanned_hyperplanes(g)
        planes = g.reflections()
        assert [p.key for p in planes] == sorted(scanned, key=repr)
        for p in planes:
            assert p.order == len(scanned[p.key]) + 1, p.key
            assert sorted(p.members, key=repr) == sorted(scanned[p.key], key=repr)
            assert p.generator in p.members
            assert g.det_turn(p.generator) == Fraction(1, p.order)

    def test_no_element_scan(self, g315, no_element_tables):
        det = make_character(g315, "det")
        bm = basic_map(g315)
        planes = g315.reflections()
        # 3 * C(5, 2) phased transpositions and 5 coordinate planes of order 3
        assert len(planes) == 35 and sum(p.order - 1 for p in planes) == 40
        # det has exponent 1 on every plane, so ell is their product
        assert ell(det, bmap=bm).poly.total_degree() == 35


class TestGroupsFromTheSpec:
    """The point tables and the element list come from (m, p, n) in the
    enumeration order of the oracle; characters, ell, index sets and
    projections never build them."""

    @pytest.mark.parametrize("name", REFLECTION_GRID + ["Z(1)@1^2"])
    def test_elements_match_enumeration(self, name):
        g = make_group(name)
        _, phase, src = point_tables(g)
        assert len(phase) == len(src) == len(g)
        assert elements(g) == list(enumerate_elements(g.spec))

    def test_trivial_group_has_only_the_trivial_character(self):
        # Z(1)@1^2 has no transposition, so det and sgn are trivial too
        g = make_group("Z(1)@1^2")
        assert [c.name for c in builtin_characters(g)] == ["trivial"]

    def test_no_element_list_on_g316(self, no_element_tables):
        g = make_group("G(3,1,6)")  # 524,880 elements
        assert [c.name for c in builtin_characters(g)] == ["trivial", "sgn", "det"]
        det, triv = make_character(g, "det"), make_character(g, "trivial")
        # det has exponent 1 on the 3 * C(6, 2) + 6 planes
        assert ell(det).poly.total_degree() == 51
        # invariant monomials: exponents in {0, 3}, weakly increasing
        assert len(index_set(triv, 3)) == 7
        alpha = (1, 4, 7, 10, 13, 16)
        proj = project(det, LaurentPoly.monomial(6, alpha))
        assert len(proj.terms) == 720
        assert all(abs(abs(c) * 720 - 1) < 1e-12 for c in proj.terms.values())
        assert projection_norm_sq(det, alpha) == Fraction(1, 720)
