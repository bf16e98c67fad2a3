"""The isotypic product route as WindowTable matrix products: entries and
verdicts against the column loop in group_sums.py (LaurentPoly products and
the isotypic Hardy projection, the route it replaced), the one table a
comparison builds, and the paths a warm comparison may not take."""

import functools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyq.invariants as invariants
import hardyq.laurent as laurent
import hardyq.toeplitz as toeplitz
from group_sums import product_compare_loop
from hardyq.groups import builtin_characters, make_character, make_group
from hardyq.invariants import index_set
from hardyq.laurent import CLEANUP_REL, LaurentPoly
from hardyq.suites import random_invariant_symbol, random_onesided_symbol
from hardyq.toeplitz import SymbolPair, product_compare

UNIT = 2.0 ** -53  # unit roundoff of a double
GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)", "G(3,1,2)")
MODES = ("semi", "commute", "zeroProduct")


@functools.cache
def group(spec):
    return make_group(spec)


def exact_radius(g, rng, r, side=None) -> SymbolPair:
    """A seeded invariant symbol of degree radius exactly r.  The trivial
    diagonal test of G(m,p,n) keeps only exponents whose coordinates are
    multiples of q (r below q gives constants), so r is a multiple of q.
    Redraws with the same rng until the radius is reached."""
    for _ in range(64):
        if side is None:
            s = random_invariant_symbol(g, rng, radius=r, terms=3)
        else:
            s = random_onesided_symbol(g, rng, r, side)
        if s.radius() == r:
            return s
    raise AssertionError(f"no symbol of radius {r} drawn on {g.spec}")


def l1(poly: LaurentPoly) -> float:
    return sum(abs(c) for c in poly.terms.values())


def entry_tol(mode: str, symbols: list, k: int, n: int, bound: int) -> float:
    """Bound on |product_compare - product_compare_loop| for one entry, for
    the factors `symbols`, at most k reps in the wide table and dimension n.

    u = UNIT.  Magnitudes: ||s||_1 (the sum of |coefficients|) bounds |s|
    on the torus and so the norm of T_s.  With M the product of the
    factors' ||s||_1 (which also bounds ||uv||_1), every exact entry, every
    loop column (in l2) and every partial product is at most M, a semi or
    commute difference 2M.  The gamma are orthonormal, so each row and
    column of a window A_s has l2 norm <= ||s||_1, and Cauchy-Schwarz on
    the signed orbits gives F_i F_k |W_e[i, k]| <= 1.

    Tables (T = the most terms of a factor or of uv): A_s[i, k] =
    F_i F_k sum_e c_e W_e[i, k] sums T products of an exact integer and a
    float and takes the factor product (a few roundings), so it lies within
    (T + 8) u ||s||_1.  A product A B over k terms rounds by at most
    (k + 3) u sum_k |a||b| <= (k + 3) u M, and each input's errors move it
    by at most sqrt(k) (T + 8) u M (an l2 row times an l2 column):
    k + 3 + 2 sqrt(k) (T + 8) in all.  Multiplying A_s onto a product whose
    entries carry e gives k + 3 + sqrt(k) (T + 8) + sqrt(k) e.  A final
    subtraction adds 2 (in units of u M).

    Loop (|S| = n! bounds an orbit; L = (bound + sum r + max r + 1)^n
    bounds the exponents a column polynomial holds, from -max r up to
    bound + sum r): one T_s on a column g rounds the product (T terms per
    coefficient), the projection's orbit sum (|S| terms per image) and its
    scalings, within 2 (T + |S| + 12) u ||s||_1 ||g|| (2 for complex
    products).  LaurentPoly's relative cleanup runs at most three times per
    application (product, cut, projection) and drops at most L terms below
    CLEANUP_REL times the largest coefficient, sqrt(L) CLEANUP_REL ||s||_1
    ||g|| in l2 each time.  Every later step is bounded by its ||s||_1, so
    each application adds that much times M.  A semi or commute difference
    adds 2u M and one cleanup of a 2M column; the torus_inner pairing with
    gamma_i (at most |S| terms, gamma coefficients within 6u) adds
    2 (|S| + 8) u 2M.  The cleanup terms dominate the sum; measured
    differences are about 1e-15 M."""
    radii = [s.radius() for s in symbols]
    M = math.prod(l1(s.pullback) for s in symbols)
    T = max(len(s.pullback.terms) for s in symbols)
    S = math.factorial(n)
    L = (bound + sum(radii) + max(radii) + 1) ** n
    root = math.sqrt(k)
    if mode == "semi":
        T = max(T, len((symbols[0].pullback * symbols[1].pullback).terms))
        fast, applications, difference = k + 3 + 2 * root * (T + 8) + (T + 8) + 2, 3, True
    elif mode == "commute":
        fast, applications, difference = 2 * (k + 3 + 2 * root * (T + 8)) + 2, 4, True
    else:
        fast = T + 8
        for _ in symbols[1:]:
            fast = k + 3 + root * (T + 8) + root * fast
        applications, difference = len(symbols), False
    loop = applications * (2 * (T + S + 12) * UNIT + 3 * math.sqrt(L) * CLEANUP_REL)
    if difference:
        loop += 2 * UNIT + 2 * math.sqrt(L) * CLEANUP_REL
    loop += 2 * (S + 8) * UNIT * 2
    return (fast * UNIT + loop) * M


def factors(g, rng, mode, order, kind):
    """(u, v, chain) of distinct radii q * order.  semi: generic, analytic
    v or coanalytic u; commute: generic, both analytic or both coanalytic;
    chains: three factors, the default two-factor chain (u, v), or three
    factors with the middle one zero."""
    q = g.q
    radii = [q * k for k in order]
    if mode in ("semi", "commute"):
        sides = {"semi": [(None, None), (None, "analytic"), ("coanalytic", None)],
                 "commute": [(None, None), ("analytic", "analytic"),
                             ("coanalytic", "coanalytic")]}[mode][kind]
        u, v = (exact_radius(g, rng, r, side) for r, side in zip(radii, sides))
        return u, v, None
    chain = [exact_radius(g, rng, r) for r in radii]
    if kind == 1:
        return chain[0], chain[1], None
    if kind == 2:
        chain[1] = SymbolPair(g, LaurentPoly.zero(g.n))
    return None, None, chain


@st.composite
def cases(draw):
    spec = draw(st.sampled_from(GROUPS))
    names = [ch.name for ch in builtin_characters(group(spec))]
    return (spec, draw(st.sampled_from(names)), draw(st.sampled_from(MODES)),
            draw(st.integers(0, 2 ** 32 - 1)), tuple(draw(st.permutations((1, 2, 3)))),
            draw(st.integers(0, 2)), draw(st.integers(0, 1)))


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_table_products_match_the_column_loop(case):
    """Same reps, same verdict and every entry within entry_tol of the
    column loop, on five groups with every built-in character, all three
    modes and 3-factor chains of distinct radii."""
    spec, name, mode, seed, order, kind, extra = case
    g = group(spec)
    ch = make_character(g, name)
    u, v, chain = factors(g, random.Random(seed), mode, order, kind)
    symbols = chain if chain is not None else [u, v]
    bound = sum(s.radius() for s in symbols) + extra
    fast = product_compare(u, v, mode, ch, bound, chain=chain)
    slow = product_compare_loop(u, v, mode, ch, bound, chain=chain)
    assert fast.reps == slow.reps
    assert fast.verdict == slow.verdict, (fast.max_residual, slow.max_residual)
    assert fast.scale == slow.scale
    # the table is at most bound + sum r wide, and entry_tol grows with k
    k = len(index_set(ch, bound + sum(s.radius() for s in symbols)).reps)
    diff = np.max(np.abs(fast.residuals - slow.residuals), initial=0.0)
    assert diff <= entry_tol(mode, symbols, k, g.n, bound), diff


def test_verdicts_cover_both_outcomes():
    """The drawn kinds reach True and False verdicts in every mode (else
    the verdict comparison above would test one side only)."""
    g = group("G(2,2,2)")
    triv = make_character(g, "trivial")
    seen = set()
    for mode in MODES:
        for kind in range(3):
            u, v, chain = factors(g, random.Random(kind), mode, (1, 2, 3), kind)
            symbols = chain if chain is not None else [u, v]
            bound = sum(s.radius() for s in symbols)
            seen.add((mode, product_compare(u, v, mode, triv, bound, chain=chain).verdict))
    assert seen == {(mode, verdict) for mode in MODES for verdict in (True, False)}


@pytest.mark.parametrize("mode,radii,width", [
    ("semi", (1, 2), 1), ("commute", (2, 1), 1),
    ("zeroProduct", (1, 2, 3), 3), ("zeroProduct", (2, 3, 1), 2),
])
def test_one_wide_table_per_comparison(mode, radii, width):
    """A comparison builds one table, at the bound plus the largest over
    the cuts of the smaller radius sum on either side, and no other; its
    inner reps are index_set's at the bound, in order."""
    g = make_group("G(1,1,3)")
    sgn = make_character(g, "sgn")
    rng = random.Random(2)
    symbols = [exact_radius(g, rng, r) for r in radii]
    chain = symbols if len(symbols) == 3 else None
    rep = product_compare(symbols[0], symbols[1], mode, sgn, 6, chain=chain)
    tables = [key for key in g.derived if key[0] == "window_table"]
    assert tables == [("window_table", sgn.diag, sgn.swap, 6 + width)]
    assert rep.reps == list(index_set(sgn, 6).reps)


@pytest.mark.parametrize("mode,chained", [pytest.param(mode, False, id=mode) for mode in MODES]
                         + [pytest.param("zeroProduct", True, id="zeroProduct-chain")])
def test_warm_comparison_reads_only_the_tables(monkeypatch, mode, chained):
    """Once its table is warm, product_compare builds no column: the
    Hardy projection, the Toeplitz application, torus_inner and the gamma
    elements all raise, and the residuals equal the unpatched call's bit
    for bit.  No warning is raised either."""
    g = make_group("G(2,2,2)")
    rho = make_character(g, "rho1")
    rng = random.Random(12)
    u, v, w = (exact_radius(g, rng, r) for r in (2, 1, 3))
    chain = [u, v, w] if chained else None
    first = product_compare(u, v, mode, rho, 6, chain=chain)

    def forbidden(*args, **kwargs):
        raise AssertionError("the table route built a column")

    monkeypatch.setattr(toeplitz, "hol_project", forbidden)
    monkeypatch.setattr(toeplitz, "apply_toeplitz", forbidden)
    for module in (laurent, toeplitz):
        monkeypatch.setattr(module, "torus_inner", forbidden)
    monkeypatch.setattr(invariants.GammaBasis, "__call__", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = product_compare(u, v, mode, rho, 6, chain=chain)
    assert second.reps == first.reps
    assert np.array_equal(second.residuals, first.residuals)
