"""The integer window tables behind toeplitz_window: entries against the
per-entry torus_inner loop in group_sums.py, the table cache and its
structure, and the basis argument's checks."""

import functools
import random
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardyq.toeplitz as toeplitz
from group_sums import toeplitz_window_loop
from hardyq.groups import make_character, make_group
from hardyq.invariants import GammaBasis, basic_map, projection_norm_sq
from hardyq.laurent import LaurentPoly, orbit_exponents
from hardyq.suites import random_invariant_symbol
from hardyq.toeplitz import SymbolPair, WindowTable, bh_check, toeplitz_window

GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)", "G(3,1,3)", "G(2,1,4)", "Z(3)@1^2")
CHARACTERS = ("trivial", "sgn", "det")
RADIUS = 2


@functools.cache
def setting(spec, chname):
    g = make_group(spec)
    return g, make_character(g, chname)


@functools.cache
def invariant_reps(spec):
    """Exponents with sup-norm <= RADIUS whose trivial projection survives:
    each orbit sum of distinct images is then G-invariant."""
    g, triv = setting(spec, "trivial")
    span = range(-RADIUS, RADIUS + 1)
    return sorted({min(orbit_exponents(g, a)) for a in product(span, repeat=g.n)
                   if projection_norm_sq(triv, a) > 0})


coefficients = st.one_of(
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(lambda c: abs(c) > 0.1),
    st.integers(-5, 5).filter(bool),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 5)),
)


@st.composite
def symbol_terms(draw, spec):
    """The torus terms of an invariant symbol of a few orbit sums with
    complex float, int or Fraction coefficients; sometimes one image of one
    orbit carries its coefficient times 1 + 1e-11, which SymbolPair still
    accepts."""
    g = setting(spec, "trivial")[0]
    reps = draw(st.lists(st.sampled_from(invariant_reps(spec)), min_size=1, max_size=4,
                         unique=True))
    terms = {}
    for rep in reps:
        c = draw(coefficients)
        for e in orbit_exponents(g, rep):
            terms[e] = c
    if draw(st.booleans()):
        wide = [rep for rep in reps if len(orbit_exponents(g, rep)) > 1]
        if wide:
            e = orbit_exponents(g, draw(st.sampled_from(wide)))[-1]
            terms[e] = complex(terms[e]) * (1 + 1e-11)
    return terms


@st.composite
def window_cases(draw):
    """(group spec, character name, bound, symbol terms)."""
    spec = draw(st.sampled_from(GROUPS))
    return (spec, draw(st.sampled_from(CHARACTERS)), draw(st.integers(0, 8)),
            draw(symbol_terms(spec)))


@settings(max_examples=120, deadline=None)
@given(case=window_cases())
# the entry is -2.5e-12, from the 1e-11 mismatch within the orbit of
# (-2, 2); a LaurentPoly product's relative cleanup would drop it
@example(case=("G(2,2,2)", "sgn", 2, {(-2, -2): 1, (-2, 2): 0.5, (-1, -1): 6, (0, 0): 0.5,
                                      (2, -2): 0.5 * (1 + 1e-11)}))
def test_table_window_matches_loop(case):
    spec, chname, bound, terms = case
    g, ch = setting(spec, chname)
    sym = SymbolPair(g, LaurentPoly(g.n, terms))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # bound below the symbol radius
        fast = toeplitz_window(sym, ch, bound)
    slow = toeplitz_window_loop(sym, ch, bound)
    assert fast.reps == slow.reps
    assert fast.entries.shape == slow.entries.shape
    if fast.entries.size:
        assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-14 * fast.scale()


@pytest.mark.parametrize("bound", [0, 1])
def test_empty_window_is_zero_by_zero(bound):
    g, sgn = setting("G(1,1,3)", "sgn")
    win = toeplitz_window(SymbolPair(g, LaurentPoly.constant(3, 1)), sgn, bound)
    assert win.reps == []
    assert win.entries.shape == (0, 0)


def fresh(spec="G(1,1,3)", chname="sgn"):
    g = make_group(spec)
    return g, make_character(g, chname), basic_map(g)


def test_fresh_character_and_basis_reuse_the_table(monkeypatch):
    g, sgn, _ = fresh()
    sym = random_invariant_symbol(g, random.Random(3), radius=2, terms=3)
    first = toeplitz_window(sym, sgn, 5)
    built = []
    real_init = WindowTable.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(WindowTable, "__init__", counting_init)
    table = WindowTable.shared(sgn, 5)
    exponents = dict(table.tables)
    other = make_character(g, "sgn")
    assert other is not sgn
    again = toeplitz_window(sym, other, 5, basis=GammaBasis(other))
    assert built == []
    assert table.tables.keys() == exponents.keys()
    assert all(table.tables[e] is exponents[e] for e in exponents)
    assert np.array_equal(again.entries, first.entries)


def test_warm_window_multiplies_no_polynomial(monkeypatch):
    g, sgn, _ = fresh()
    sym = random_invariant_symbol(g, random.Random(5), radius=2, terms=4)
    warm = toeplitz_window(sym, sgn, 6)

    def forbidden(*args):
        raise AssertionError("polynomial product or torus pairing on a warm window")

    monkeypatch.setattr(toeplitz, "torus_inner", forbidden)
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    assert np.array_equal(toeplitz_window(sym, sgn, 6).entries, warm.entries)


@pytest.mark.parametrize("spec,chname", [("G(1,1,3)", "sgn"), ("G(2,1,4)", "trivial"),
                                         ("G(2,2,2)", "det"), ("Z(3)@1^2", "sgn")])
def test_tables_are_sparse_integers(spec, chname):
    g, ch, _ = fresh(spec, chname)
    sym = random_invariant_symbol(g, random.Random(2), radius=2, terms=4)
    toeplitz_window(sym, ch, 6)
    table = WindowTable.shared(ch, 6)
    k, perms = len(table.reps), len(ch.group.perm_images())
    assert table.tables.keys() == sym.pullback.terms.keys()
    for flat, weight in table.tables.values():
        assert np.issubdtype(flat.dtype, np.integer)
        assert np.issubdtype(weight.dtype, np.integer)
        assert flat.size == weight.size <= k * perms
        assert np.all(weight != 0)
        assert np.all(np.diff(flat) > 0)


def test_cold_and_warm_tables_give_the_same_bits():
    rng = random.Random(9)
    g, sgn, _ = fresh()
    sym = random_invariant_symbol(g, rng, radius=2, terms=4)
    # warm the tables with other symbols' exponents first, in another order
    for _ in range(3):
        toeplitz_window(random_invariant_symbol(g, rng, radius=2, terms=4), sgn, 6)
    warm = toeplitz_window(sym, sgn, 6)
    g2, sgn2, _ = fresh()
    cold = toeplitz_window(SymbolPair(g2, sym.pullback), sgn2, 6)
    assert np.array_equal(warm.entries, cold.entries)
    reordered = LaurentPoly(g.n, dict(reversed(list(sym.pullback.terms.items()))))
    assert np.array_equal(toeplitz_window(SymbolPair(g, reordered), sgn, 6).entries,
                          warm.entries)


@pytest.mark.parametrize("spec,chname", [("G(1,1,2)", "sgn"), ("G(1,1,3)", "sgn"),
                                         ("G(2,1,2)", "trivial"), ("G(3,1,3)", "trivial")])
def test_shift_relation_holds_exactly(spec, chname):
    g, ch, bm = fresh(spec, chname)
    rng = random.Random(13)
    for _ in range(4):
        sym = random_invariant_symbol(g, rng, radius=g.m, terms=3)
        rep = bh_check(toeplitz_window(sym, ch, 7), bm)
        assert rep.relation_max["shift"] == 0.0
        assert rep.ok


def test_recovery_windows_read_the_tables(monkeypatch):
    g, sgn, bm = fresh("G(1,1,2)")
    sym = random_invariant_symbol(g, random.Random(4), radius=2, terms=3)
    fills = []
    real_fill = toeplitz._fill

    def counting_fill(items, column, pair):
        fills.append(len(items))
        return real_fill(items, column, pair)

    monkeypatch.setattr(toeplitz, "_fill", counting_fill)
    res = toeplitz.symbol_recover(toeplitz.window_entry_fn(sym, sgn), sgn, bm, base_bound=4)
    assert len(fills) == 2  # the base window and the stabilized window
    assert (res.symbol.pullback - sym.pullback).max_abs_coeff() <= 1e-9
    assert ("window_table", sgn.diag, sgn.swap, 4) in g.derived


class TestBasisArgument:
    def test_ball_basis_is_rejected(self):
        g, sgn = setting("G(1,1,2)", "sgn")
        sym = SymbolPair(g, LaurentPoly.constant(2, 1))
        with pytest.raises(ValueError, match="polydisc gamma basis"):
            toeplitz_window(sym, sgn, 3, basis=GammaBasis(sgn, "ball"))

    def test_other_characters_basis_is_rejected(self):
        g, sgn = setting("G(1,1,2)", "sgn")
        sym = SymbolPair(g, LaurentPoly.constant(2, 1))
        with pytest.raises(ValueError, match="polydisc gamma basis"):
            toeplitz_window(sym, sgn, 3, basis=GammaBasis(make_character(g, "trivial")))
