"""The shift-table bh_check and compactness_probe against the per-entry
loops in group_sums.py, compared with == on every report field: the table
path must round each entry exactly as the loop does.  Also a negative
control for bh_check (the window of T_u T_v is Toeplitz exactly when the
semi-commutator vanishes) and the table cache on the basic map."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyq.toeplitz as toeplitz
from group_sums import bh_check_loop, compactness_loop
from hardyq.groups import make_character, make_group
from hardyq.invariants import BasicMap, basic_map, index_set
from hardyq.suites import random_invariant_symbol
from hardyq.toeplitz import (
    GammaBasis,
    ToeplitzWindow,
    bh_check,
    compactness_probe,
    product_compare,
    symbol_recover,
    toeplitz_window,
    window_entry_fn,
)

GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)", "G(3,3,2)", "G(3,1,3)", "G(2,1,3)")
CHARACTERS = ("trivial", "sgn", "det")
BOUNDS = (3, 5, 7)


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
    chname = draw(st.sampled_from(CHARACTERS))
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


def assert_same_bh(fast, slow):
    assert fast.max_violation == slow.max_violation
    assert fast.checked_pairs == slow.checked_pairs
    assert fast.worst_pair == slow.worst_pair
    assert fast.relation_max == slow.relation_max
    assert list(fast.relation_max) == list(slow.relation_max)


@settings(max_examples=80, deadline=None)
@given(w=window())
def test_bh_check_matches_loop(w):
    bm = basic_map(w.group)
    assert_same_bh(bh_check(w, bm), bh_check_loop(w, bm))


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
    assert_same_bh(fast, bh_check_loop(w, bm))
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
    real_expand = GammaBasis.expand

    def counting_expand(self, poly):
        calls.append(poly)
        return real_expand(self, poly)

    monkeypatch.setattr(GammaBasis, "expand", counting_expand)
    bh_check(first, bm)
    built = len(calls)
    assert built == 2 * len(first.reps)
    # a fresh window and character object: tables are keyed by value
    assert second.character is not first.character
    calls.clear()
    fast = bh_check(second, bm)
    assert calls == []
    assert_same_bh(fast, bh_check_loop(second, bm))
    # different reps on the same bound get their own table
    keep = list(range(0, len(first.reps), 2))
    sub = ToeplitzWindow(first.character, 5, [first.reps[i] for i in keep],
                         first.entries[np.ix_(keep, keep)])
    assert_same_bh(bh_check(sub, bm), bh_check_loop(sub, bm))
    assert len(bm.shift_tables) == 2
