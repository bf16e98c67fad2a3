"""The quotient-side tables against the per-entry loops in group_sums.py:
the pushforward moments and per-basis functionals behind
QuotientRealization.inner and the quotient route, and the sparse
coefficient table behind SeriesKernel.eval.

Tolerances.  eps is the double-precision machine epsilon, u = eps/2 the unit
roundoff; a complex product has relative error at most sqrt(5) u, a real
times a complex number or a division by an integer at most u, and a
recursive sum of k complex terms at most sqrt(2) (k - 1) u times the sum of
their magnitudes.  Bounds are first order in u.
* Pushforward moments.  The theta components and ell have integer
  coefficients, so every moment is an exact integer: the route's Gram
  entry sum_a (theta^beta ell)_a (theta^gamma ell)_a, summed in Python ints,
  and the oracle's constant term sum_a P[a] W[-a] of the pulled monomial
  P = pull_harmonic(t^beta conj(t)^gamma) against W = |ell|^2, summed in
  doubles.  On the cases below both are exact, so they agree with ==.
* Pushforward inner products.  The moments are exact integers in doubles,
  and c^2 is an exact integer.  inner(f, r, ...) pairs f with
  e = basis_down(r), a holomorphic polynomial of N_e terms: phi(k) = sum_j conj(e_j)
  mu(k + swap(j)) sums N_e terms of magnitude |e_j| |mu|, then
  sum_k f_k phi(k) sums N_f terms, then one division by c^2: at most
  (N_e + N_f + 2) eps relative to the leaf magnitudes
  M = sum_k sum_j |f_k| |e_j| |mu(k + swap(j))|.  The oracle forms
  h = f conj(e), each coefficient a sum of at most N_f products (at most
  (N_f + 1) eps relative to the same M), multiplies each coefficient of h
  by at most 2n pulled theta powers, sums at most T_P contributions per
  coefficient in each of those products (T_P the largest term count of a
  pulled monomial), adds the N_h pulled terms, and sums at most |W|
  products for the constant term; those steps round relative to the mass
  it returns, S = sum |h_{beta gamma}| sum_a |P[a]| |W[-a]|.  The test
  keeps the bound k eps S / c^2 with k = 2n (T_P + 1) + N_h + |W| + 4,
  derived when both sides summed the same h.  For this summation order it
  is not a worst case: S <= M, with equality unless products f_k conj(e_j)
  that fall on one exponent of h cancel, and the (N_e + 2 N_f + 3) eps M
  that scales with M stays inside the bound only while that cancellation
  is mild.  It is for the drawn coefficients (real and imaginary parts 0
  or of magnitude in [1/10, 1]): over 400 examples per case the difference
  used at most 7.8 % of the bound.  Those magnitudes also keep the 1e-12
  relative cleanup of the oracle's h to rounding residue.
* The quotient route.  _quotient_route_compare and quotient_route_loop
  share the theta forms, the lowered basis, the moments and every product
  of those, and accumulate each projection one rep at a time; they differ
  in the pairings (functional against product polynomial) and in the
  rounding of everything downstream of a pairing.  Along one leaf of a residual entry
  each side rounds in a pairing (2 sums, 2 products and a division), the
  projection (a product and a sum), a product polynomial (a product and a
  sum), a second pairing and the final difference: with at most W terms in
  any one sum that is 6 W + 9 steps of relative error at most sqrt(5) u.
  The two sides then differ by at most
  (12 W + 18) sqrt(5) u L <= (14 W + 21) eps L, where L is the entry
  computed in magnitudes (quotient_route_loop with magnitude=True: absolute
  theta forms, lowered elements and moments, differences as sums).  L
  carries the symbols' scale, the factor that _verdict_scale judges the
  residuals against.  W is the largest product h or projection rep set
  either loop meets: every sum on the route adds at most that many terms.
  Symbol coefficients are uniform random doubles, so a cleanup drops
  rounding residue only.
* Series values.  Both sides evaluate sum_m e_m(x) conj(e_m(y)) over the
  same terms c x^a.  The table raises x_i to the power k by k - 1 products
  and multiplies n powers; LaurentPoly.eval raises by binary powering (at
  most a_i + 1 products) and multiplies n times more: at most
  (deg + 2n + 1) sqrt(5) u relative error per term, deg the largest total
  degree.  Each side then sums at most K terms per basis element and M
  products: the two differ by at most
  (5 (deg + 2n + 1) + 3K + 2M) eps T, with T = sum_m A_m(x) A_m(y) and
  A_m(x) the sum of |c| |x|^a over the terms of e_m.
"""

import cmath
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_sums import (conj_zbar, ell_weight, pulled_moment, pushforward_inner,
                        quotient_route_loop, series_sum)
from hardyq import invariants, laurent, toeplitz
from hardyq.groups import builtin_characters, make_character, make_group
from hardyq.invariants import BasicMap, basic_map, index_set
from hardyq.kernels import KernelSpec, SeriesKernel
from hardyq.laurent import LaurentPoly
from hardyq.suites import random_invariant_symbol
from hardyq.toeplitz import QuotientRealization, _quotient_route_compare, correspondence_check

EPS = 2.0 ** -52

GROUPS = ("G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(1,1,3)")
CASES = [(g, ch) for g in GROUPS for ch in ("trivial", "sgn")]
# window bound of the series table per dimension, and the largest
# exponent per coordinate of the drawn harmonic polynomials: on G(1,1,3)
# a pulled monomial of degree 4 per coordinate already has thousands of terms
SERIES_BOUND = {2: 12, 3: 6}
TOP = {2: 2, 3: 1}


@functools.cache
def group(spec):
    return make_group(spec)


@functools.cache
def realization(spec, chname):
    g = group(spec)
    return QuotientRealization.shared(make_character(g, chname), basic_map(g))


@functools.cache
def series(spec, chname):
    g = group(spec)
    return SeriesKernel(KernelSpec("polydisc", g, make_character(g, chname)),
                        SERIES_BOUND[g.n])


def coefficient():
    magnitude = st.floats(0.1, 1.0)
    signed = st.one_of(magnitude, magnitude.map(lambda x: -x))
    return st.tuples(signed, st.one_of(st.just(0.0), signed)).map(lambda p: complex(*p))


@st.composite
def harmonic(draw, n):
    """A (t, conj t) polynomial: dimension 2n, non-negative exponents."""
    top = TOP[n]
    expo = st.tuples(*[st.integers(0, top)] * (2 * n))
    terms = draw(st.dictionaries(expo, coefficient(), min_size=1, max_size=3))
    return LaurentPoly(2 * n, terms)


@st.composite
def point(draw, n):
    r, phase = st.floats(0.0, 0.9), st.floats(-3.2, 3.2)
    return tuple(draw(r) * cmath.exp(1j * draw(phase)) for _ in range(n))


@pytest.mark.parametrize("spec,chname", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inner_matches_pull_per_entry(spec, chname, data):
    qr = realization(spec, chname)
    n = qr.group.n
    f = data.draw(harmonic(n))
    rep = data.draw(st.sampled_from(index_set(qr.character, 4).reps))
    g = qr.basis_down(rep)
    want, mass, widest = pushforward_inner(qr, f, g)
    h_terms = len((f * conj_zbar(g)).terms)
    weight_terms = len(ell_weight(qr).terms)
    k = 2 * n * (widest + 1) + h_terms + weight_terms + 4
    got = qr.inner(f, rep, {})
    assert abs(got - want) <= k * EPS * mass, (got, want, mass)


ROUTE_CASES = [(g, ch.name) for g in GROUPS for ch in builtin_characters(group(g))]


@pytest.mark.parametrize("spec,chname", ROUTE_CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["semi", "commute"]),
       bound=st.integers(2, 4))
def test_route_matches_product_pairing_loop(spec, chname, seed, mode, bound):
    g = group(spec)
    bm = basic_map(g)
    ch = make_character(g, chname)
    rng = random.Random(seed)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    got = _quotient_route_compare(u, v, mode, ch, bm, bound)
    want, widest = quotient_route_loop(u, v, mode, ch, bm, bound)
    leaves, widest_abs = quotient_route_loop(u, v, mode, ch, bm, bound, magnitude=True)
    assert got.reps == want.reps
    assert got.verdict == want.verdict
    tol = (14 * max(widest, widest_abs) + 21) * EPS * leaves.residuals.real
    gap = np.abs(got.residuals - want.residuals)
    assert np.all(gap <= tol), float(np.max(gap - tol))


# cold routes whose every moment must equal the oracle's: 36 to 7,391 keys
GRAM_CASES = [("G(1,1,2)", "sgn", 6), ("G(1,1,2)", "trivial", 4), ("G(2,2,2)", "sgn", 4),
              ("G(2,1,2)", "trivial", 4), ("G(1,1,3)", "sgn", 3), ("G(1,1,3)", "trivial", 4)]


def cold_route(spec, chname, bound, mode="semi"):
    """A fresh group, two seeded symbols and one _quotient_route_compare:
    the realisation then holds the moments of one cold route."""
    g = make_group(spec)
    bm = basic_map(g)
    ch = make_character(g, chname)
    rng = random.Random(1)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    report = _quotient_route_compare(u, v, mode, ch, bm, bound)
    return QuotientRealization.shared(ch, bm), report


@pytest.mark.parametrize("spec,chname,bound", GRAM_CASES)
def test_cold_route_moments_equal_pulled_moments(spec, chname, bound):
    """Every moment of a cold route equals the oracle's pull-based moment
    bit for bit, and is an exact integer: imaginary part 0.0 and real part
    the Python-int Gram sum_a P_b[a] P_c[a], with P_b = ell theta^b built
    here from the components' own powers."""
    qr, _ = cold_route(spec, chname, bound)
    n = qr.group.n

    @functools.cache
    def gram_row(b):
        p = qr.ellp.poly
        for comp, e in zip(qr.bmap.components, b):
            p = p * comp ** e
        assert all(type(c) is int for c in p.terms.values())
        return p.terms

    assert qr._moments
    for key, mu in qr._moments.items():
        assert mu == pulled_moment(qr, key), key
        P, Q = gram_row(key[:n]), gram_row(key[n:])
        assert mu.imag == 0.0 and mu.real == sum(c * Q.get(a, 0) for a, c in P.items()), key


@pytest.mark.parametrize("spec,chname,mode", [
    ("G(1,1,2)", "sgn", "semi"), ("G(1,1,2)", "sgn", "commute"), ("G(1,1,3)", "trivial", "semi")])
def test_cold_route_calls_no_pull(monkeypatch, spec, chname, mode):
    """The moments are Gram entries of BasicMap.theta products, so a cold
    route on a fresh group composes nothing through BasicMap.pull."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the quotient route pulled a polynomial")

    monkeypatch.setattr(BasicMap, "pull", forbidden)
    qr, report = cold_route(spec, chname, 3, mode)
    assert qr._moments and report.reps


@pytest.mark.parametrize("spec,chname", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_table_matches_per_element_eval(spec, chname, data):
    sk = series(spec, chname)
    n = sk.spec.group.n
    bmap = sk.spec.bmap
    x = bmap.eval(data.draw(point(n)))
    y = bmap.eval(data.draw(point(n)))
    want, mass = series_sum(sk, x, y)
    deg = max(e.total_degree() for e in sk.basis_down)
    widest = max(len(e.terms) for e in sk.basis_down)
    tol = (5 * (deg + 2 * n + 1) + 3 * widest + 2 * len(sk.basis_down)) * EPS * mass
    got = sk.eval(x, y)
    assert abs(got - want) <= tol, (got, want, mass)


def test_second_check_adds_no_moment(monkeypatch):
    g = make_group("G(1,1,2)")
    sgn = make_character(g, "sgn")
    rng = random.Random(5)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    first = correspondence_check(u, v, [sgn], 3, mode="commute")
    qr = QuotientRealization.shared(sgn, basic_map(g))
    sizes = len(qr._moments), len(qr._gram_rows)
    calls = []
    real_theta = BasicMap.theta

    def counting_theta(self, a):
        calls.append(a)
        return real_theta(self, a)

    monkeypatch.setattr(BasicMap, "theta", counting_theta)
    # a fresh character object: realisations are keyed by character value
    second = correspondence_check(u, v, [make_character(g, "sgn")], 3, mode="commute")
    assert calls == []
    assert (len(qr._moments), len(qr._gram_rows)) == sizes
    assert second.to_json() == first.to_json()
    assert basic_map(g) is basic_map(g)


@pytest.mark.parametrize("mode", ["semi", "commute"])
def test_warm_route_reads_no_ambient_path(monkeypatch, mode):
    """The quotient route stays independent of the isotypic and monomial
    routes: once warm, it calls none of their pairings, projections,
    Toeplitz applications, window tables or ambient gamma basis (its
    elements or factors)."""
    g = make_group("G(1,1,2)")
    bm = basic_map(g)
    sgn = make_character(g, "sgn")
    rng = random.Random(8)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    first = _quotient_route_compare(u, v, mode, sgn, bm, 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the quotient route left the quotient side")

    # invariants takes no inner product
    for module in (laurent, toeplitz):
        monkeypatch.setattr(module, "torus_inner", forbidden)
    monkeypatch.setattr(toeplitz, "hol_project", forbidden)
    monkeypatch.setattr(toeplitz, "apply_toeplitz", forbidden)
    monkeypatch.setattr(toeplitz.WindowTable, "entries", forbidden)
    for name in ("__call__", "shared", "factor"):
        monkeypatch.setattr(invariants.GammaBasis, name, forbidden)
    second = _quotient_route_compare(u, v, mode, sgn, bm, 3)
    assert np.array_equal(second.residuals, first.residuals)
    # the product pairing's conj_zbar lives on only as a test oracle
    assert not hasattr(laurent, "conj_zbar") and not hasattr(toeplitz, "conj_zbar")
