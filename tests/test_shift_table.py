"""The shift-table bh_check and compactness_probe against the oracles in
group_sums.py: with == against the index-grid versions bh_check_ix and
compactness_ix (the same expansions and the same order of sums, rebuilt
on every call), and against the per-entry loops.  compactness_probe is
compared with the loop with == on every report field.  bh_check's
expansions come from the G-module identity and the loop's from
expand_loop of the ambient product, so they are other floats: the
expansions and the reports agree within the bounds derived below.  Also
a negative control for bh_check (the window of T_u T_v is Toeplitz
exactly when the semi-commutator vanishes), the table cache in
Group.derived, the rejection of a basis of another character, a guard that a warm
call only gathers, and a guard that a cold bh_check and a cold series
build make no polynomial product."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyq.toeplitz as toeplitz
from group_sums import (bh_check_ix, bh_check_loop, compactness_ix, compactness_loop, expand_loop,
                        relations_ix)
from hardyq.groups import builtin_characters, make_character, make_group
from hardyq.invariants import BasicMap, basic_map, index_set
from hardyq.kernels import KernelSpec, SeriesKernel
from hardyq.laurent import LaurentPoly
from hardyq.suites import random_invariant_symbol
from hardyq.toeplitz import (
    GammaBasis,
    ShiftTable,
    ToeplitzWindow,
    bh_check,
    compactness_probe,
    product_compare,
    symbol_recover,
    toeplitz_window,
    window_entry_fn,
)

GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)", "G(3,3,2)", "G(3,1,3)", "G(2,1,3)",
          "G(4,4,2)")
CHARACTERS = ("trivial", "sgn", "det")
BOUNDS = (3, 5, 7)
SPLIT = {"G(2,2,2)": ("rho1", "rho2"), "G(4,4,2)": ("rho1", "rho2")}
UNIT = 2.0 ** -53  # unit roundoff of a double


@functools.cache
def setting(spec, chname):
    g = make_group(spec)
    return g, make_character(g, chname), basic_map(g)


@functools.cache
def true_window(spec, chname, bound, seed):
    # radius m: on G(m,1,n) the invariant exponents are multiples of m
    g, ch, bm = setting(spec, chname)
    sym = random_invariant_symbol(g, random.Random(seed), radius=g.m, terms=2)
    return toeplitz_window(sym, ch, bound)


@st.composite
def window(draw, bound=None):
    """A true window, the same with one entry bumped by 0.3, the zero window,
    a window of seeded complex noise (generic entries: their magnitudes
    round differently under np.abs) or a hand-built window over a subset of
    the true window's reps."""
    spec = draw(st.sampled_from(GROUPS))
    chname = draw(st.sampled_from(CHARACTERS + SPLIT.get(spec, ())))
    bound = bound or draw(st.sampled_from(BOUNDS))
    true = true_window(spec, chname, bound, draw(st.integers(0, 3)))
    k = len(true.reps)
    kind = draw(st.sampled_from(("true", "bumped", "zero", "noise", "subset")))
    if kind == "true" or k == 0:
        return true
    if kind == "bumped":
        entries = true.entries.copy()
        entries[draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))] += 0.3
        return ToeplitzWindow(true.character, bound, true.reps, entries)
    if kind == "zero":
        return ToeplitzWindow(true.character, bound, true.reps, np.zeros_like(true.entries))
    if kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        noise = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return ToeplitzWindow(true.character, bound, true.reps, noise)
    keep = [i for i, on in enumerate(draw(st.lists(st.booleans(), min_size=k, max_size=k))) if on]
    return ToeplitzWindow(true.character, bound, [true.reps[i] for i in keep],
                          true.entries[np.ix_(keep, keep)])


def expansion_tol(terms: int, orbit: int) -> float:
    """Bound on |identity - expand_loop| for one coefficient c_s of theta_j gamma_r
    over gamma_s, theta_j with `terms` coefficients 1 and gamma_s with
    `orbit` terms.  u = UNIT.  Exactly, |c_s| = |<theta_j gamma_r, gamma_s>|
    <= ||theta_j gamma_r|| <= terms (gamma unit norm, |theta_j| <= terms on
    the torus).  expand_loop: each gamma coefficient carries at most 6u relative
    error (1/|S|, the weight, the scale's quotient and sqrt, its reciprocal,
    the product); each product coefficient sums at most `terms` of them,
    adding (terms - 1) u of their absolute sum; the pairing sums `orbit`
    products.  With sum_b |gamma_s[b]| sum_e |gamma_r[b - e]| <= terms by
    Cauchy-Schwarz, its error is at most (orbit + terms + 12) u terms.  The
    identity's k * (F_r / F_s), k an exact integer, carries at most 10u
    relative error (four roundings per factor, the quotient, the product),
    10u terms at most.  32 covers the 22 with room."""
    return (orbit + terms + 32) * terms * UNIT


def bh_tol(group) -> float:
    """Bound on |fast - loop| for any checked pair's violation, and so for
    relation_max and max_violation.  Both paths sum the same terms in the
    same order (increasing rep), so they differ by the coefficients and by
    rounding.  With T the most terms of a theta_j (j < n) and N = n! >= any
    orbit, an expansion has K <= T terms, each within expansion_tol(T, N)
    and of modulus <= T, and every entry is at most the window's scale
    (ToeplitzWindow.scale), which divides the residual.  So the coefficients
    move a residual by at most 2T expansion_tol(T, N); each side's sum of
    2T complex products rounds by at most 4 (2T + 2) u of its absolute sum
    2T * T, for both sides twice that; the modulus and the division by the
    scale add 4u."""
    T = max((len(c.terms) for c in basic_map(group).components[:group.n - 1]), default=1)
    N = math.factorial(group.n)
    return 2 * T * expansion_tol(T, N) + 2 * 4 * (2 * T + 2) * 2 * T * T * UNIT + 4 * UNIT


def assert_same_bh(fast, window, bm, basis=None):
    """fast agrees with the loop: checked_pairs and the relation_max keys
    (in order) exactly, every value within bh_tol, and fast's worst pair is
    one whose loop violation lies within bh_tol of the loop's maximum (ties
    and rounding-level windows may pick another pair)."""
    slow, violations = bh_check_loop(window, bm, basis)
    tol = bh_tol(window.group)
    assert fast.checked_pairs == slow.checked_pairs
    assert list(fast.relation_max) == list(slow.relation_max)
    for key, v in slow.relation_max.items():
        assert abs(fast.relation_max[key] - v) <= tol, (key, fast.relation_max[key], v)
    assert abs(fast.max_violation - slow.max_violation) <= tol
    if fast.worst_pair is None:
        assert slow.max_violation <= tol
    else:
        near = {pair for pair, v in violations if v >= slow.max_violation - tol}
        assert fast.worst_pair in near


@settings(max_examples=80, deadline=None)
@given(w=window())
def test_bh_check_matches_loop(w):
    bm = basic_map(w.group)
    assert_same_bh(bh_check(w, bm), w, bm)


def shift_tables(group) -> dict:
    """The group's shift tables, under the keys ShiftTable.shared gives
    them in Group.derived."""
    return {key: table for key, table in group.derived.items()
            if isinstance(key, tuple) and key[0] == "shift_table"}


def fresh_map(group) -> BasicMap:
    """The group's basic map, with the group's shift tables dropped."""
    for key in shift_tables(group):
        del group.derived[key]
    return basic_map(group)


def assert_same_as_ix(w):
    """The gather plans against the index grids rebuilt per call, on a cold
    and then a warm table: equal reports and worst pair, and per relation
    the same rows and columns and every residual's magnitude bit for bit
    (a padded term may flip the sign of a zero)."""
    bm = fresh_map(w.group)
    slow = bh_check_ix(w, bm)
    for _ in range(2):
        fast = bh_check(w, bm)
        assert fast.to_json() == slow.to_json()
        assert fast.worst_pair == slow.worst_pair
    plans = ShiftTable.shared(w, bm).relations()
    for rel, (name, rows, cols, diff) in zip(plans, relations_ix(w, bm), strict=True):
        assert rel.name == name
        assert np.array_equal(rel.rows, rows) and np.array_equal(rel.cols, cols)
        assert np.array_equal(np.abs(rel.residual(w.entries)), np.abs(diff))


@settings(max_examples=80, deadline=None)
@given(w=window())
def test_bh_check_matches_ix(w):
    assert_same_as_ix(w)


@pytest.mark.parametrize("spec", GROUPS)
def test_bh_check_matches_ix_on_noise(spec):
    """Every built-in character and bound with generic entries, where the
    order of a cross sum shows in the last bits."""
    g = make_group(spec)
    rng = np.random.default_rng(7)
    for ch in builtin_characters(g):
        for bound in BOUNDS:
            reps = list(index_set(ch, bound, holomorphic=True).reps)
            k = len(reps)
            assert_same_as_ix(ToeplitzWindow(
                ch, bound, reps, rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))))


@st.composite
def family(draw):
    """A drawn window first (any kind, any bound), then true windows of the
    same symbol at drawn bounds in drawn order, smaller or larger than the
    first."""
    first = draw(window(bound=draw(st.sampled_from(BOUNDS))))
    spec, chname = str(first.group.spec), first.character.name
    seed = draw(st.integers(0, 3))
    bounds = draw(st.lists(st.sampled_from(BOUNDS + (9,)), min_size=1, max_size=3))
    return [first] + [true_window(spec, chname, d, seed) for d in bounds]


@settings(max_examples=60, deadline=None)
@given(wins=family())
def test_compactness_matches_ix(wins):
    bm = fresh_map(wins[0].group)
    slow = compactness_ix(wins, bm)
    for _ in range(2):
        assert compactness_probe(wins, bm).to_json() == slow.to_json()


@pytest.mark.parametrize("spec", ["G(1,1,2)", "G(2,2,2)", "G(1,1,3)", "G(2,1,3)"])
def test_warm_calls_only_gather(spec, monkeypatch):
    """On warm tables, bh_check and compactness_probe compute no position,
    expansion or index grid and rebuild no plan; their reports equal the
    unpatched calls'."""
    g, sgn, _ = setting(spec, "sgn")
    bm = fresh_map(g)
    rng = random.Random(5)

    def run(bm):
        sym = random_invariant_symbol(g, rng, radius=g.m, terms=3)
        wins = [toeplitz_window(sym, sgn, d) for d in BOUNDS]
        families = [wins, wins[::-1], wins[1:]]
        return [bh_check(w, bm) for w in wins], [compactness_probe(f, bm) for f in families]

    run(bm)  # builds every plan
    state = rng.getstate()
    expected = run(bm)
    tables = list(shift_tables(g).values())
    plans = [(t._relations, dict(t._probes)) for t in tables]
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ShiftTable, "positions", counting("positions", ShiftTable.positions))
    monkeypatch.setattr(toeplitz, "_theta_gamma", counting("_theta_gamma", toeplitz._theta_gamma))
    monkeypatch.setattr(np, "ix_", counting("ix_", np.ix_))
    rng.setstate(state)
    got = run(bm)
    assert calls == []
    for table, (relations, probes) in zip(tables, plans):
        assert table._relations is relations
        assert table._probes.keys() == probes.keys()
        assert all(table._probes[k] is v for k, v in probes.items())
    for bh, bh0 in zip(got[0], expected[0]):
        assert bh.to_json() == bh0.to_json() and bh.worst_pair == bh0.worst_pair
    assert [c.to_json() for c in got[1]] == [c.to_json() for c in expected[1]]
    run(fresh_map(g))  # the counters do see a cold build
    assert {"positions", "_theta_gamma", "ix_"} <= set(calls)


def test_basis_of_another_character_is_rejected():
    """A basis of another character (or of the ball) raises, as in
    toeplitz_window, and leaves the shift tables as they were."""
    g, sgn, _ = setting("G(1,1,3)", "sgn")
    w = true_window("G(1,1,3)", "sgn", 5, 0)
    bm = fresh_map(g)
    assert w.group is g
    for wrong in (GammaBasis(make_character(g, "trivial")), GammaBasis(sgn, "ball")):
        with pytest.raises(ValueError, match="polydisc gamma basis"):
            bh_check(w, bm, basis=wrong)
    assert shift_tables(g) == {}
    right = bh_check(w, bm, basis=GammaBasis(sgn))
    assert right.checked_pairs == 300
    relations = ShiftTable.shared(w, bm)._relations
    with pytest.raises(ValueError):
        bh_check(w, bm, basis=GammaBasis(make_character(g, "trivial")))
    assert ShiftTable.shared(w, bm)._relations is relations
    assert bh_check(w, bm).to_json() == right.to_json() == bh_check_ix(w, bm).to_json()


EXPANSION_GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(4,4,2)", "G(6,3,2)", "G(1,1,3)", "G(2,1,3)",
                    "G(2,1,4)")


@pytest.mark.parametrize("spec", EXPANSION_GROUPS)
def test_identity_expansions_match_expand(spec):
    """theta_j gamma_r from the module identity against expand_loop of
    the ambient product, for theta_1..theta_{n-1}, every built-in character
    and every rep up to D = 5 (D = 3 at n = 4): the same reps in the same
    order, each coefficient within expansion_tol."""
    g = make_group(spec)
    bm = basic_map(g)
    checked = 0
    for ch in builtin_characters(g):
        basis = GammaBasis(ch)
        for rep in index_set(ch, 3 if g.n == 4 else 5):
            for theta in bm.components[:g.n - 1]:
                fast = toeplitz._theta_gamma(basis, theta, rep)
                slow = expand_loop(basis, theta * basis(rep))
                assert list(fast) == list(slow), (ch.name, rep)
                for s, c in slow.items():
                    tol = expansion_tol(len(theta.terms), len(basis(s).terms))
                    assert abs(fast[s] - c) <= tol, (ch.name, rep, s, fast[s], c)
                    checked += 1
    assert checked


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compactness_matches_loop(data):
    first = data.draw(window(bound=3))
    spec, chname = str(first.group.spec), first.character.name
    seed = data.draw(st.integers(0, 3))
    wins = [first] + [true_window(spec, chname, d, seed) for d in (5, 7)]
    bm = basic_map(first.group)
    fast, slow = compactness_probe(wins, bm), compactness_loop(wins, bm)
    assert fast.max_shift_deviation == slow.max_shift_deviation
    assert fast.persistent_entries == slow.persistent_entries
    assert fast.zero_window == slow.zero_window


@pytest.mark.parametrize("spec", ["G(1,1,2)", "G(2,2,2)"])
@pytest.mark.parametrize("bump", [0.0, 0.3])
def test_recover_base_window_matches_loop(spec, bump, monkeypatch):
    g, sgn, bm = setting(spec, "sgn")
    sym = random_invariant_symbol(g, random.Random(4), radius=2, terms=3)
    exact = window_entry_fn(sym, sgn)
    corner = index_set(sgn, 4).reps[0]

    def entry(col, row):
        return exact(col, row) + (bump if tuple(col) == tuple(row) == corner else 0.0)

    seen = []

    def recording(w, bmap, basis=None):
        seen.append((w, bh_check(w, bmap, basis=basis)))
        return seen[-1][1]

    monkeypatch.setattr(toeplitz, "bh_check", recording)
    try:
        symbol_recover(entry, sgn, bm, base_bound=4)
    except toeplitz.RecoveryError:
        assert bump
    (w, fast), = seen
    assert_same_bh(fast, w, bm)
    assert fast.ok == (bump == 0.0)


@pytest.mark.parametrize("spec,radius", [("G(1,1,2)", 1), ("G(2,2,2)", 1), ("G(2,1,2)", 2)])
def test_product_window_is_toeplitz_iff_semi_vanishes(spec, radius):
    # Brown-Halmos: T_u T_v is a Toeplitz operator exactly when it is T_uv
    g = make_group(spec)
    sgn = make_character(g, "sgn")
    bm = basic_map(g)
    rng = random.Random(11)
    bound = 2 * radius + 3
    verdicts = []
    for _ in range(6):
        u, v = (random_invariant_symbol(g, rng, radius=radius, terms=2) for _ in range(2))
        r = product_compare(u, v, "zeroProduct", sgn, bound)
        rep = bh_check(ToeplitzWindow(sgn, bound, r.reps, r.residuals), bm)
        semi = product_compare(u, v, "semi", sgn, bound).verdict
        assert rep.ok == semi, (u.pullback, v.pullback, rep.max_violation)
        verdicts.append(semi)
    assert True in verdicts and False in verdicts


def test_second_check_adds_no_expansion(monkeypatch):
    g = make_group("G(1,1,2)")
    shared = basic_map(g)
    bm = BasicMap(g, shared.components, shared.q)  # a map with no tables yet
    rng = random.Random(7)
    first, second = (toeplitz_window(random_invariant_symbol(g, rng, radius=2, terms=3),
                                     make_character(g, "sgn"), 5) for _ in range(2))
    calls = []
    real_expansion = toeplitz._theta_gamma

    def counting(basis, theta, rep):
        calls.append(rep)
        return real_expansion(basis, theta, rep)

    def no_product(self, other):
        if isinstance(other, LaurentPoly):
            raise AssertionError("a polynomial product in a cold build")
        return real_mul(self, other)

    real_mul = LaurentPoly.__mul__
    monkeypatch.setattr(toeplitz, "_theta_gamma", counting)
    with monkeypatch.context() as guard:
        guard.setattr(LaurentPoly, "__mul__", no_product)
        fast = bh_check(first, bm)
        # a cold series build: its rows and ell on a map with no tables yet
        fresh = BasicMap(g, shared.components, shared.q)
        SeriesKernel(KernelSpec("polydisc", g, first.character, fresh), 12)
    assert len(calls) == len(first.reps)  # one component below theta_n on n = 2
    assert_same_bh(fast, first, bm)
    # a fresh window and character object: tables are keyed by value
    assert second.character is not first.character
    calls.clear()
    fast = bh_check(second, bm)
    assert calls == []
    assert_same_bh(fast, second, bm)
    # different reps on the same bound get their own table
    keep = list(range(0, len(first.reps), 2))
    sub = ToeplitzWindow(first.character, 5, [first.reps[i] for i in keep],
                         first.entries[np.ix_(keep, keep)])
    assert_same_bh(bh_check(sub, bm), sub, bm)
    assert len(shift_tables(g)) == 2
