import math
import random
from collections import Counter

import numpy as np
import pytest

from hardyq.groups import builtin_characters, make_character, make_group
from hardyq.invariants import basic_map, ell, index_set, lower, project
from group_sums import (ball_toeplitz_entry, isotypic_hol_project, isotypic_toeplitz,
                        monomial_route_loop, pull_harmonic)
from hardyq.laurent import LaurentPoly, act, torus_inner
from hardyq.suites import random_invariant_symbol
from hardyq.toeplitz import (
    RESIDUAL_TOL,
    GammaBasis,
    QuotientRealization,
    RecoveryError,
    SymbolPair,
    SymbolError,
    ToeplitzWindow,
    WindowMarginError,
    bh_check,
    compactness_probe,
    correspondence_check,
    hol_project,
    product_compare,
    semd2_check,
    symbol_recover,
    toeplitz_window,
    _monomial_route_compare,
    window_entry_fn,
)


def P(dim, terms):
    return LaurentPoly(dim, {tuple(e): complex(c) for e, c in terms.items()})


@pytest.fixture(scope="module")
def ctx():
    g = make_group("G(1,1,2)")
    sgn = make_character(g, "sgn")
    triv = make_character(g, "trivial")
    bm = basic_map(g)
    return g, sgn, triv, bm


class TestSymbols:
    def test_invariance_enforced(self, ctx):
        g = ctx[0]
        with pytest.raises(SymbolError):
            SymbolPair(g, P(2, {(1, 0): 1}))

    def test_invariance_checked_on_generators_only(self, g315, monkeypatch):
        calls = []

        def counting_act(g, f):
            calls.append(g)
            return act(g, f)

        monkeypatch.setattr("hardyq.toeplitz.act", counting_act)
        power_sum = P(5, {tuple(3 * (j == i) for j in range(5)): 1 for i in range(5)})
        SymbolPair(g315, power_sum)
        assert calls == list(g315.generators)

    def test_theta_form_roundtrip(self, ctx):
        g, sgn, triv, bm = ctx
        rng = random.Random(6)
        for _ in range(5):
            s = random_invariant_symbol(g, rng, radius=2, terms=3)
            h = s.theta_form(bm)
            back = SymbolPair(g, pull_harmonic(bm, h))
            assert (back.pullback - s.pullback).is_zero(
                tol=1e-9 * max(s.pullback.max_abs_coeff(), 1.0)
            )

    def test_theta_form_of_mixed_symbol(self, ctx):
        g, sgn, triv, bm = ctx
        th1 = bm.components[0]
        psi = SymbolPair(g, P(2, {(1, -1): 1, (-1, 1): 1}))
        h = psi.theta_form(bm)
        # psi = |theta_1|^2 - 2 on the torus: t1 conj(t1)... cleared by t2
        back = SymbolPair(g, pull_harmonic(bm, h))
        assert (back.pullback - psi.pullback).is_zero(tol=1e-10)


class TestHolProject:
    def test_drops_negative_exponents(self):
        f = P(2, {(-1, 2): 1, (1, 0): 1})
        assert hol_project(f).same_terms(P(2, {(1, 0): 1}))

    def test_isotypic_projection_applied(self, ctx):
        g, sgn, triv, bm = ctx
        basis = GammaBasis(sgn)
        th1bar = bm.components[0].conj_torus()
        f = th1bar * basis((0, 2))
        got = isotypic_hol_project(f, sgn)
        assert got.approx_eq(basis((0, 1)), tol=1e-12)

    def test_invariant_fixed(self, ctx):
        g, sgn, triv, bm = ctx
        th1 = bm.components[0]
        assert isotypic_hol_project(th1, triv).approx_eq(th1, tol=1e-12)

    def test_projections_commute(self, ctx):
        g, sgn, triv, bm = ctx
        rng = random.Random(14)
        for _ in range(10):
            f = P(2, {(rng.randint(-3, 3), rng.randint(-3, 3)):
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(4)})
            a = hol_project(project(sgn, f))
            b = project(sgn, hol_project(f))
            assert (a - b).is_zero(tol=1e-12)


class TestApplyToeplitz:
    def test_analytic_shift(self, ctx):
        g, sgn, triv, bm = ctx
        basis = GammaBasis(sgn)
        sym = SymbolPair(g, bm.components[0])
        assert isotypic_toeplitz(sym, sgn, basis((0, 1))).approx_eq(basis((0, 2)), 1e-12)

    def test_coanalytic_shift_back(self, ctx):
        g, sgn, triv, bm = ctx
        basis = GammaBasis(sgn)
        sym = SymbolPair(g, bm.components[0].conj_torus())
        assert isotypic_toeplitz(sym, sgn, basis((0, 2))).approx_eq(basis((0, 1)), 1e-12)

    def test_unit_symbol_is_identity(self, ctx):
        g, sgn, triv, bm = ctx
        basis = GammaBasis(sgn)
        one = SymbolPair(g, LaurentPoly.constant(2, 1.0))
        for rep in [(0, 1), (1, 2), (0, 3)]:
            assert isotypic_toeplitz(one, sgn, basis(rep)).approx_eq(basis(rep), 1e-12)


class TestWindows:
    def test_identity_window(self, ctx):
        g, sgn, triv, bm = ctx
        one = SymbolPair(g, LaurentPoly.constant(2, 1.0))
        w = toeplitz_window(one, sgn, 3)
        assert np.allclose(w.entries, np.eye(len(w.reps)), atol=1e-12)

    def test_theta1_subdiagonal(self, ctx):
        g, sgn, triv, bm = ctx
        w = toeplitz_window(SymbolPair(g, bm.components[0]), sgn, 3)
        assert abs(w.entry((0, 2), (0, 1)) - 1) < 1e-12
        assert abs(w.entry((0, 1), (0, 2))) < 1e-12

    def test_real_symbol_gives_real_symmetric_window(self, ctx):
        g, sgn, triv, bm = ctx
        sym = SymbolPair(g, P(2, {(1, -1): 1, (-1, 1): 1}))
        w = toeplitz_window(sym, sgn, 4)
        assert np.allclose(w.entries.imag, 0, atol=1e-12)
        assert np.allclose(w.entries, w.entries.T.conj(), atol=1e-12)

    def test_adjoint_symmetry(self, ctx):
        g, sgn, triv, bm = ctx
        rng = random.Random(15)
        sym = random_invariant_symbol(g, rng, radius=2, terms=4)
        conj_sym = SymbolPair(g, sym.pullback.conj_torus())
        w = toeplitz_window(sym, sgn, 4)
        wc = toeplitz_window(conj_sym, sgn, 4)
        assert np.allclose(wc.entries, w.entries.T.conj(), atol=1e-12)

    def test_small_window_warns(self, ctx):
        g, sgn, triv, bm = ctx
        sym = SymbolPair(g, bm.components[0] ** 3)
        with pytest.warns(UserWarning):
            toeplitz_window(sym, sgn, 2)


class TestBrownHalmos:
    @pytest.mark.parametrize("gname", ["G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)"])
    def test_exact_windows_pass(self, gname):
        g = make_group(gname)
        sgn = make_character(g, "sgn")
        bm = basic_map(g)
        rng = random.Random(16)
        for _ in range(3):
            sym = random_invariant_symbol(g, rng, radius=2, terms=3)
            rep = bh_check(toeplitz_window(sym, sgn, 7), bm)
            assert rep.checked_pairs > 0
            assert rep.max_violation <= 1e-10

    def test_rank_one_bump_detected(self, ctx):
        g, sgn, triv, bm = ctx
        iset = index_set(sgn, 4)
        k = len(iset.reps)
        entries = np.eye(k, dtype=complex)
        entries[0, 0] = 2.0  # bump at ((0,1),(0,1)) breaks shift invariance
        w = ToeplitzWindow(sgn, 4, list(iset.reps), entries)
        rep = bh_check(w, bm)
        assert rep.max_violation > 0.4
        assert rep.worst_pair is not None

    def test_zero_window_passes(self, ctx):
        g, sgn, triv, bm = ctx
        iset = index_set(sgn, 4)
        w = ToeplitzWindow(sgn, 4, list(iset.reps),
                           np.zeros((len(iset.reps), len(iset.reps)), dtype=complex))
        assert bh_check(w, bm).max_violation == 0


class TestNonFiniteWindows:
    """A NaN or infinite entry is rejected before any gather: scale() was
    max(nan, 1.0) = nan, every violation then compared False, and a NaN
    window with a bumped entry reported ok with violation 0.0."""

    @staticmethod
    def fresh_window():
        g = make_group("G(1,1,2)")  # a fresh group: no shift table yet
        bm = basic_map(g)
        sym = SymbolPair(g, bm.components[0] + bm.components[0].conj_torus())
        return bm, toeplitz_window(sym, make_character(g, "sgn"), 6)

    @staticmethod
    def rejected(bm, windows):
        with pytest.raises(ValueError, match="finite"):
            bh_check(windows[-1], bm)
        with pytest.raises(ValueError, match="finite"):
            compactness_probe(windows, bm)
        assert not bm.shift_tables

    def test_nan_entry_hides_no_bump(self):
        bm, w = self.fresh_window()
        good = ToeplitzWindow(w.character, w.bound, w.reps, w.entries.copy())
        w.entries[0, 0] = np.nan
        w.entries[3, 2] += 5.0
        self.rejected(bm, [w])
        self.rejected(bm, [good, w])  # also when the bad window is not the base

    def test_all_nan_window(self):
        bm, w = self.fresh_window()
        w.entries[:] = np.nan
        self.rejected(bm, [w])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf)])
    def test_infinite_entry(self, value):
        bm, w = self.fresh_window()
        w.entries[1, 4] = value
        self.rejected(bm, [w])

    def test_finite_window_still_checked(self):
        bm, w = self.fresh_window()
        w.entries[3, 2] += 5.0
        assert not bh_check(w, bm).ok
        assert compactness_probe([w], bm).max_shift_deviation > 0


class TestMultiplierRelations:
    @pytest.mark.parametrize("gname", [
        "G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(3,3,2)", "G(1,1,3)", "G(3,1,3)",
    ])
    def test_adjoint_shift_identity(self, gname):
        # <theta_n^p gamma_a, theta_i gamma_b> = <theta_{n-i} gamma_a, gamma_b>
        g = make_group(gname)
        sgn = make_character(g, "sgn")
        bm = basic_map(g)
        basis = GammaBasis(sgn)
        reps = index_set(sgn, 5).reps
        theta_n_p = bm.components[-1] ** g.p
        for i in range(g.n - 1):
            th_i = bm.components[i]
            th_ni = bm.components[g.n - i - 2]
            for a in reps[:6]:
                for b in reps[:6]:
                    lhs = torus_inner(theta_n_p * basis(a), th_i * basis(b))
                    rhs = torus_inner(th_ni * basis(a), basis(b))
                    assert abs(lhs - rhs) < 1e-10


class TestInvariantSubspace:
    def test_toeplitz_preserves_ell_times_invariants(self, ctx):
        # T_u maps ell * (analytic invariants) into itself: the image always
        # lowers exactly
        g, sgn, triv, bm = ctx
        ep = ell(sgn, bmap=bm)
        rng = random.Random(18)
        for _ in range(6):
            sym = random_invariant_symbol(g, rng, radius=2, terms=3)
            f_theta = P(2, {(rng.randint(0, 2), rng.randint(0, 2)): 1.0})
            F = ep.poly * f_theta.substitute(list(bm.components))
            image = hol_project(sym.pullback * F)
            lowered = lower(ep, bm, image)  # raises if outside the component
            assert lowered.is_analytic()

    def test_projection_formula_for_analytic_symbols(self, ctx):
        g, sgn, triv, bm = ctx
        ep = ell(sgn, bmap=bm)
        th1, th2 = bm.components
        for sym_poly in (th1, th2, th1 * th2, th1**2 - 3 * th2):
            F = P(2, {(1, 1): 1.0}).substitute(list(bm.components))
            lhs = hol_project(sym_poly * ep.poly * F)
            rhs = ep.poly * hol_project(sym_poly * F)
            assert (lhs - rhs).is_zero(tol=1e-10)

    def test_projection_formula_fails_for_mixed_symbols(self, ctx):
        # P(u ell f) = ell P_tr(u f) does NOT hold verbatim for general
        # invariant symbols; the subspace conclusion above still does.
        g, sgn, triv, bm = ctx
        ep = ell(sgn, bmap=bm)
        psi = P(2, {(1, -1): 1, (-1, 1): 1})
        lhs = hol_project(psi * ep.poly)  # T_psi(ell * 1)
        rhs = ep.poly * hol_project(psi)  # ell * P_tr(psi * 1) = 0
        assert rhs.is_zero()
        assert not lhs.is_zero(tol=1e-9)
        assert lhs.approx_eq(-1.0 * ep.poly, tol=1e-12)


class TestProductCompare:
    def test_coanalytic_then_analytic_semi_commutes(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0].conj_torus())
        v = SymbolPair(g, bm.components[0])
        rep = product_compare(u, v, "semi", sgn, 4)
        assert rep.verdict and rep.max_residual <= 1e-12

    def test_analytic_then_coanalytic_fails(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0])
        v = SymbolPair(g, bm.components[0].conj_torus())
        rep = product_compare(u, v, "semi", sgn, 4)
        assert not rep.verdict
        i = rep.reps.index((0, 1))
        assert abs(rep.residuals[i, i]) > 0.5  # visible at ((0,1),(0,1))

    def test_self_commutes(self, ctx):
        g, sgn, triv, bm = ctx
        mixed = SymbolPair(g, bm.components[0] + bm.components[0].conj_torus())
        rep = product_compare(mixed, mixed, "commute", sgn, 4)
        assert rep.verdict

    def test_analytic_pair_commutes(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0])
        v = SymbolPair(g, bm.components[1] + 2 * bm.components[0] ** 2)
        assert product_compare(u, v, "commute", sgn, 6).verdict

    def test_margin_refusal_names_required_bound(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0] ** 2)
        v = SymbolPair(g, bm.components[0] ** 2)
        with pytest.raises(WindowMarginError, match="D >= 4"):
            product_compare(u, v, "semi", sgn, 3)

    def test_zero_product_chain(self, ctx):
        g, sgn, triv, bm = ctx
        zero = SymbolPair(g, LaurentPoly.zero(2))
        u = SymbolPair(g, bm.components[0])
        rep = product_compare(u, zero, "zeroProduct", sgn, 3)
        assert rep.verdict  # chain through the zero symbol vanishes
        rep2 = product_compare(u, u, "zeroProduct", sgn, 3)
        assert not rep2.verdict

    def test_finite_product_chain(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0])
        zero = SymbolPair(g, LaurentPoly.zero(2))
        rep = product_compare(None, None, "finiteProduct", sgn, 4,
                              chain=[u, zero, u])
        assert rep.verdict


class TestCorrespondence:
    def test_passing_pair_agrees_everywhere(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0].conj_torus())
        v = SymbolPair(g, bm.components[0])
        rep = correspondence_check(u, v, [triv, sgn], 4)
        assert rep.agree
        assert all(rep.verdicts.values())

    def test_failing_pair_agrees_everywhere(self, ctx):
        g, sgn, triv, bm = ctx
        mixed = SymbolPair(g, bm.components[0] + bm.components[0].conj_torus())
        rep = correspondence_check(mixed, mixed, [triv, sgn], 4)
        assert rep.agree
        assert not any(rep.verdicts.values())

    def test_commute_mode_agreement(self, ctx):
        g, sgn, triv, bm = ctx
        rng = random.Random(19)
        u = random_invariant_symbol(g, rng, radius=1, terms=3)
        v = random_invariant_symbol(g, rng, radius=1, terms=3)
        rep = correspondence_check(u, v, [triv, sgn], 4, mode="commute")
        assert rep.agree

    def test_quotient_route_judges_the_same_window(self):
        # a G(2,2,2) commute pair whose commutator vanishes on the D=3
        # window of the sign component but not at D=4
        g = make_group("G(2,2,2)")
        u = SymbolPair(g, LaurentPoly(2, {
            (-1, 1): -0.2988965105072241 + 0.5573592043589883j,
            (0, 0): -0.84565330025189 - 0.1192150553791318j,
            (1, -1): -0.2988965105072241 + 0.5573592043589883j,
            (1, 1): 0.06923247956238998 + 0.19724420026133394j}))
        v = SymbolPair(g, LaurentPoly(2, {
            (-1, 1): -0.4296683936248642 + 0.8953012600324977j,
            (0, 0): 0.968082235939207 - 0.9318546786824322j,
            (1, -1): -0.4296683936248642 + 0.8953012600324977j,
            (1, 1): -0.4478859881844959 + 0.7659010327507483j}))
        sgn = make_character(g, "sgn")
        rep = correspondence_check(u, v, [sgn], 4, mode="commute")
        assert rep.agree
        assert not any(rep.verdicts.values())
        assert correspondence_check(u, v, [sgn], 4, mode="commute", quotient_bound=3) \
            .verdicts[("sgn", "quotient")]

    def test_routes_share_one_verdict_scale(self, ctx):
        # a large and a tiny symbol: each route's residual is 1e-8, above
        # RESIDUAL_TOL * max(1e3 * 1e-11, 1); judged against
        # max(1e3, 1) * max(1e-11, 1) the isotypic route alone passed
        g, sgn, triv, bm = ctx
        theta = bm.components[0] + bm.components[0].conj_torus()
        u, v = SymbolPair(g, 1e3 * theta), SymbolPair(g, 1e-11 * theta)
        rep = correspondence_check(u, v, [sgn], 4)
        assert all(abs(r - 1e-8) < 1e-12 for r in rep.residuals.values())
        assert rep.agree
        assert not any(rep.verdicts.values())

    @pytest.mark.parametrize("gname", ["G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)"])
    @pytest.mark.parametrize("mode", ["semi", "commute"])
    def test_isotypic_and_monomial_residuals_agree_entrywise(self, gname, mode):
        g = make_group(gname)
        rng = random.Random(21)
        u = random_invariant_symbol(g, rng, radius=1, terms=3)
        v = random_invariant_symbol(g, rng, radius=1, terms=3)
        scale = max(u.pullback.max_abs_coeff() * v.pullback.max_abs_coeff(), 1.0)
        for ch in builtin_characters(g):
            iso = product_compare(u, v, mode, ch, 3)
            mono = _monomial_route_compare(u, v, mode, ch, 3)
            assert iso.reps == mono.reps
            diff = np.max(np.abs(iso.residuals - mono.residuals), initial=0.0)
            assert diff <= RESIDUAL_TOL * scale, (ch.name, diff)

    @pytest.mark.parametrize("gname", ["G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)",
                                       "G(4,4,2)"])
    @pytest.mark.parametrize("mode", ["semi", "commute"])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_monomial_route_pairing_is_the_torus_inner_loop(self, gname, mode, extra):
        """The route's one-pass pairing against monomial_route_loop (the
        reference arithmetic, then _fill over torus_inner): the same
        residual bytes for every built-in character at D = r_u + r_v and
        at D = r_u + r_v + 2."""
        g = make_group(gname)
        rng = random.Random(22)
        u = random_invariant_symbol(g, rng, radius=g.q, terms=3)
        v = random_invariant_symbol(g, rng, radius=g.q, terms=3)
        bound = u.radius() + v.radius() + extra
        for ch in builtin_characters(g):
            got = _monomial_route_compare(u, v, mode, ch, bound).residuals
            want = monomial_route_loop(u, v, mode, ch, bound)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), ch.name

    def test_quotient_route_scales_with_a_tiny_symbol(self, ctx):
        # every projection coefficient of 1e-15 (theta1 + conj theta1) is
        # below 1e-14, so no absolute cut may drop it: the quotient residual
        # must match the isotypic one to rounding
        g, sgn, triv, bm = ctx
        th1 = bm.components[0]
        u = SymbolPair(g, (th1 + th1.conj_torus()) * 1e-15)
        rep = correspondence_check(u, u, [sgn], 4)
        iso = rep.residuals[("sgn", "isotypic")]
        quo = rep.residuals[("sgn", "quotient")]
        assert iso > 0
        assert abs(quo - iso) <= 1e-12 * iso, (quo, iso)

    def test_unitary_equivalence_entrywise(self, ctx):
        # quotient-side pushforward window entries equal the ambient window
        # entries
        g, sgn, triv, bm = ctx
        rng = random.Random(20)
        for ch in (sgn, triv):
            table = QuotientRealization(ch, bm).windows(3, 3)
            sym = random_invariant_symbol(g, rng, radius=2, terms=3)
            w = toeplitz_window(sym, ch, 3)
            assert table.reps("inner") == w.reps
            got = table.window(sym.theta_form(bm).terms, "inner")
            assert np.all(np.abs(got - w.entries) < 1e-10)


class TestCrossCharacterSweep:
    @pytest.mark.parametrize("gname,bound", [
        ("G(1,1,2)", 6), ("G(2,2,2)", 7), ("G(2,1,2)", 8),
    ])
    def test_verdicts_agree_across_all_characters(self, gname, bound):
        # G(2,2,2) carries four one-dimensional characters, so this covers
        # the correspondence beyond the trivial/sgn pair
        from hardyq.groups import builtin_characters
        from hardyq.suites import random_onesided_symbol

        g = make_group(gname)
        chars = builtin_characters(g)
        rng = random.Random(99)
        for k in range(6):
            kind = k % 3
            if kind == 0:
                u = random_invariant_symbol(g, rng, radius=2, terms=3)
                v = random_invariant_symbol(g, rng, radius=2, terms=3)
            elif kind == 1:
                u = random_invariant_symbol(g, rng, radius=2, terms=3)
                v = random_onesided_symbol(g, rng, 2, "analytic")
            else:
                u = random_onesided_symbol(g, rng, 2, "coanalytic")
                v = random_invariant_symbol(g, rng, radius=2, terms=3)
            for mode in ("semi", "commute"):
                verdicts = {
                    ch.name: product_compare(u, v, mode, ch, bound).verdict
                    for ch in chars
                }
                assert len(set(verdicts.values())) == 1, (gname, mode, verdicts)


class TestSemd2:
    def test_no_z_dependence_passes(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0].conj_torus())
        v = SymbolPair(g, bm.components[1])
        rep = semd2_check(u, v, sgn)
        assert rep.symbolic_verdict and rep.window_verdict

    def test_mixed_self_pair_fails(self, ctx):
        g, sgn, triv, bm = ctx
        mixed = SymbolPair(g, bm.components[0] + bm.components[0].conj_torus())
        rep = semd2_check(mixed, mixed, sgn)
        assert not rep.d1_zero
        assert rep.consistent

    def test_order_matters(self, ctx):
        g, sgn, triv, bm = ctx
        u = SymbolPair(g, bm.components[0])
        v = SymbolPair(g, bm.components[0].conj_torus())
        fwd = semd2_check(v, u, sgn)  # conj(u) analytic: passes
        rev = semd2_check(u, v, sgn)
        assert fwd.symbolic_verdict and fwd.consistent
        assert not rev.symbolic_verdict and rev.consistent

    def test_needs_two_variables(self):
        g = make_group("G(1,1,3)")
        sgn = make_character(g, "sgn")
        sym = SymbolPair(g, LaurentPoly.constant(3, 1.0))
        with pytest.raises(ValueError):
            semd2_check(sym, sym, sgn)


class TestRecovery:
    def test_roundtrip(self, ctx):
        g, sgn, triv, bm = ctx
        rng = random.Random(22)
        for _ in range(3):
            sym = random_invariant_symbol(g, rng, radius=2, terms=3)
            res = symbol_recover(window_entry_fn(sym, sgn), sgn, bm, base_bound=4)
            dev = (res.symbol.pullback - sym.pullback).max_abs_coeff()
            assert dev <= 1e-9 * max(sym.pullback.max_abs_coeff(), 1.0)

    def test_identity_recovers_unit(self, ctx):
        g, sgn, triv, bm = ctx
        one = SymbolPair(g, LaurentPoly.constant(2, 1.0))
        res = symbol_recover(window_entry_fn(one, sgn), sgn, bm, base_bound=3)
        assert set(res.coefficients) == {(0, 0)}
        assert abs(res.coefficients[(0, 0)] - 1) < 1e-9

    def test_zero_window_recovers_zero(self, ctx):
        g, sgn, triv, bm = ctx
        res = symbol_recover(lambda a, b: 0j, sgn, bm, base_bound=3)
        assert res.symbol.pullback.is_zero()
        assert res.coefficients == {}

    def test_shift_violator_rejected(self, ctx):
        g, sgn, triv, bm = ctx
        iset = index_set(sgn, 3)

        def bad(a, b):
            if tuple(a) == tuple(b) == (0, 1):
                return 2.0
            return 1.0 if tuple(a) == tuple(b) else 0.0

        with pytest.raises(RecoveryError, match="shift relations"):
            symbol_recover(bad, sgn, bm, base_bound=3)

    def test_base_entries_requested_once(self, ctx):
        # the shift walk reads in-window shifted pairs from the base table,
        # so every pair is requested from the oracle exactly once
        g, sgn, triv, bm = ctx
        th1 = bm.components[0]
        symbols = [random_invariant_symbol(g, random.Random(22), radius=2, terms=3),
                   SymbolPair(g, th1 + 0.5 * th1.conj_torus())]
        for sym in symbols:
            fn = window_entry_fn(sym, sgn)
            calls = Counter()

            def counted(a, b):
                calls[(tuple(a), tuple(b))] += 1
                return fn(a, b)

            res = symbol_recover(counted, sgn, bm, base_bound=4)
            assert res.stabilization_shifts == 1
            reps = index_set(sgn, 4).reps
            assert {(a, b) for a in reps for b in reps} <= set(calls)
            assert sum(calls.values()) == len(calls), calls.most_common(3)

    def test_non_stabilizing_oracle_rejected(self, ctx):
        g, sgn, triv, bm = ctx

        def drifting(a, b):
            # consistent on every in-window shifted pair at bound 2, but the
            # deep diagonal keeps growing, so no entry limit exists
            if tuple(a) != tuple(b):
                return 0j
            s = sum(a)
            return complex(1.0 if s <= 3 else float(s))

        with pytest.raises(RecoveryError, match="stabilize"):
            symbol_recover(drifting, sgn, bm, base_bound=2, max_shifts=12)


class TestBallEntries:
    def test_unit_symbol(self):
        one = LaurentPoly.constant(4, 1.0)
        assert abs(ball_toeplitz_entry(one, (1, 0), (1, 0), 2) - 1) < 1e-12

    def test_modulus_squared(self):
        u = LaurentPoly(4, {(1, 0, 1, 0): 1.0})
        assert abs(ball_toeplitz_entry(u, (0, 0), (0, 0), 2) - 0.5) < 1e-12

    def test_linear_symbol_cross_entry(self):
        u = LaurentPoly(4, {(1, 0, 0, 0): 1.0})
        got = ball_toeplitz_entry(u, (0, 0), (1, 0), 2)
        assert abs(got - math.sqrt(2) / 2) < 1e-12

    def test_commuting_sufficient_families(self):
        # window-level commutators for the sufficient families: both
        # analytic, both co-analytic, one constant, affine relation
        n = 2
        idx = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]

        def window(u):
            W = np.zeros((len(idx), len(idx)), dtype=complex)
            for j, p in enumerate(idx):
                for i, m in enumerate(idx):
                    W[i, j] = ball_toeplitz_entry(u, p, m, n)
            return W

        za = LaurentPoly(4, {(1, 0, 0, 0): 1.0, (0, 2, 0, 0): 0.5})
        zb = LaurentPoly(4, {(1, 1, 0, 0): 1.0})
        bara = LaurentPoly(4, {(0, 0, 1, 0): 1.0})
        barb = LaurentPoly(4, {(0, 0, 0, 1): 2.0, (0, 0, 1, 1): -1.0})
        const = LaurentPoly.constant(4, 2.5)
        mixed = LaurentPoly(4, {(1, 0, 0, 0): 1.0, (0, 0, 0, 1): 1.0})
        affine = mixed * 3.0 + LaurentPoly.constant(4, 1.0)

        pairs = [(za, zb), (bara, barb), (mixed, const), (mixed, affine)]
        for u, v in pairs:
            Wu, Wv = window(u), window(v)
            comm = Wu @ Wv - Wv @ Wu
            # compare only entries unaffected by truncation
            core = [k for k, p in enumerate(idx) if sum(p) <= 1]
            sub = comm[np.ix_(core, core)]
            assert np.max(np.abs(sub)) < 1e-10

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            ball_toeplitz_entry(LaurentPoly.constant(4, 1.0), (-1, 0), (0, 0), 2)


class TestCompactness:
    def test_constant_entries_along_shifts(self, ctx):
        g, sgn, triv, bm = ctx
        sym = SymbolPair(g, bm.components[0])
        wins = [toeplitz_window(sym, sgn, d) for d in (4, 6, 8)]
        rep = compactness_probe(wins, bm)
        assert rep.max_shift_deviation <= 1e-10
        assert rep.persistent_entries
        assert not rep.compatible_with_compact

    def test_zero_symbol_compatible(self, ctx):
        g, sgn, triv, bm = ctx
        zero = SymbolPair(g, LaurentPoly.zero(2))
        wins = [toeplitz_window(zero, sgn, d) for d in (4, 6)]
        rep = compactness_probe(wins, bm)
        assert rep.zero_window and rep.compatible_with_compact

    def test_modulus_symbol_diagonal_persists(self, ctx):
        g, sgn, triv, bm = ctx
        th1 = bm.components[0]
        sym = SymbolPair(g, th1.conj_torus() * th1)
        wins = [toeplitz_window(sym, sgn, d) for d in (4, 6, 8)]
        rep = compactness_probe(wins, bm)
        assert rep.max_shift_deviation <= 1e-10
        diag = [t for t in rep.persistent_entries if t[0] == t[1]]
        assert diag
