"""The quotient-side tables against the per-entry loops in group_sums.py:
the pushforward moments, the Gram joins and the window blocks of
QuotientRealization behind the quotient route, and the sparse coefficient
table behind SeriesKernel.eval.

Tolerances.  eps is the double-precision machine epsilon, u = eps/2 the unit
roundoff.  A real product or a division by an integer has relative error
at most u, as has a complex number times a real one (componentwise); a
complex product at most sqrt(5) u.  A sum of k terms in any order, BLAS's
blocked and fused dot products among them, errs by at most (k - 1) u
times the sum of their magnitudes for real terms, sqrt(2) (k - 1) u for
complex ones, and a dot product of length k by k u; a term that is an
exact zero adds nothing and is not counted.  Bounds are first order in u.
An error along one leaf of a sum (one product of exact inputs: symbol
coefficients, lowered-basis coefficients, moments and 1/c^2) is bounded
relative to the leaf's magnitude, so a computed entry errs by at most its
step count times u times the sum of its leaf magnitudes.
* Pushforward moments.  The theta components and ell have integer
  coefficients, so every moment is an exact integer: the route's Gram
  entry (BasicMap.gram_block, an orbit-weighted sum over the keys the
  orbit-coordinate products ell theta^beta and ell theta^gamma share, found
  by one join per block), summed in Python ints,
  and the oracle's constant term sum_a P[a] W[-a] of the pulled monomial
  P = pull_harmonic(t^beta conj(t)^gamma) against W = |ell|^2, summed in
  doubles.  On the cases below both are exact, so they agree with ==.
* Window entries.  M_f[i, k] = (1/c^2) sum_(alpha beta) f_(alpha beta)
  (E_rows^T G E_cols)[i, k] sums N_f scaled blocks; each block entry is a
  dot of length N_i (the terms of e_i) into one of length N_k (those of
  e_k), then one division: at most (N_i + N_k + 2) u + sqrt(2) (N_f - 1) u
  relative to the leaf magnitudes M = (1/c^2) sum |f_(alpha beta)| |e_i[l]|
  |e_k[j]| |mu(alpha + j, beta + l)|.  The oracle pushforward_inner
  pairs F = f e_k with e_i: forming F and h = F conj(e_i) takes at most
  (N_k + N_i) (1 + sqrt(2)) u relative to M, then it multiplies each
  coefficient of h by at most 2n pulled theta powers, sums at most T_P
  contributions per coefficient in each of those products (T_P the largest
  term count of a pulled monomial), adds the N_h pulled terms, and sums at
  most |W| products for the constant term, which rounds relative to the
  mass it returns, S = sum |h_(beta gamma)| sum_a |P[a]| |W[-a]| / c^2:
  at most (2n (T_P + 1) + N_h + |W| + 4) eps S, the bound this pairing
  kept before the windows.  The test keeps
  (2 (N_i + N_k) + N_f + 2) eps M + (2n (T_P + 1) + N_h + |W| + 4) eps S.
  Drawn coefficients have real and imaginary parts 0 or of magnitude in
  [1/10, 1], which keeps the 1e-12 relative cleanup of the oracle's
  products to rounding residue.
* The quotient route.  _quotient_route_compare computes
  sum_k M_u[b, k] M_v[k, a] - M_uv[b, a] (semi) or the same product minus
  sum_k M_v[b, k] M_u[k, a] (commute).  Its leaves are those of
  quotient_route_loop and of quotient_route_functionals: a theta-form
  coefficient of each symbol, two lowered-basis coefficients and a moment
  per factor.  Along a leaf the route rounds in each factor's window
  (N_i + N_k + 2 + sqrt(2) (N_s - 1) steps of u, N_s the terms of the
  theta form), then a complex product, a sum over the K wide reps and the
  difference: at most 2 (N_i + N_k + 2) + (2 N_s + K) sqrt(2) + sqrt(5)
  steps of u, which is at most (4.2 W + 3.2) eps once N_i, N_k, N_s and K
  are at most W.  The loop rounds in a pairing (2 sums, 2 products and a
  division), the projection (a product and a sum), a product polynomial (a
  product and a sum), a second pairing and the final difference: with at
  most W terms in any one sum that is 6 W + 9 steps of relative error at
  most sqrt(5) u, (6.8 W + 10.1) eps, which also bounds the route's
  count.  The two sides differ by at most
  (12 W + 18) sqrt(5) u L <= (14 W + 21) eps L, where L is the entry
  computed in magnitudes (quotient_route_loop with magnitude=True: absolute
  theta forms, lowered elements and moments, differences as sums): the sum
  of the leaf magnitudes.  L carries the symbols' scale, the factor that
  _verdict_scale judges the residuals against.  W is the largest product h
  or projection rep set the loop meets; the test checks that the lowered
  elements and theta forms have at most W terms, so the route's sums fit
  the same W.  quotient_route_functionals (the route before the windows:
  the same column loop, paired through per-basis functionals) forms
  vh e_a, then pairs (a product and a sum for each functional value, a
  product and a sum over the paired polynomial, a division), projects, forms
  u's product and pairs again: at most 7 W + 10 steps of sqrt(5) u with W
  its own widest sum, (7.9 W + 11.2) eps.  With the route's
  (4.2 W + 3.2) eps the test keeps (13 W + 15) eps L.  Symbol
  coefficients are uniform random doubles, so a cleanup drops rounding
  residue only.
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
                        quotient_route_functionals, quotient_route_loop, series_sum)
from hardyq import invariants, laurent, toeplitz
from hardyq.groups import builtin_characters, make_character, make_group
from hardyq.invariants import BasicMap, _OrbitRows, basic_map, index_set
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
    return QuotientRealization.shared(make_character(g, chname))


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
    """One entry M_f[i, k] = <f e_k, e_i> of a quotient window, over drawn
    row and column bounds, against the pulled pairing of f e_k with e_i."""
    qr = realization(spec, chname)
    n = qr.group.n
    f = data.draw(harmonic(n))
    row_bound, col_bound = data.draw(st.sampled_from([(3, 5), (5, 3), (3, 3)]))
    rows, cols = qr.reps(row_bound), qr.reps(col_bound)
    i = data.draw(st.integers(0, len(rows) - 1))
    k = data.draw(st.integers(0, len(cols) - 1))
    got = qr.window(f.terms, row_bound, col_bound)[i, k]
    e_i, e_k = qr.basis_down(rows[i]), qr.basis_down(cols[k])
    want, mass, widest = pushforward_inner(qr, f * e_k, e_i)
    leaves = sum(abs(c) * abs(w) * abs(x) * abs(pulled_moment(qr, tuple(
        p + q for p, q in zip(key, a[:n] + b[:n]))))
        for key, c in f.terms.items() for a, w in e_k.terms.items()
        for b, x in e_i.terms.items()) / qr.ellp.cnorm_sq
    h_terms = len((f * e_k * conj_zbar(e_i)).terms)
    weight_terms = len(ell_weight(qr).terms)
    k_leaves = 2 * (len(e_i.terms) + len(e_k.terms)) + len(f.terms) + 2
    k_mass = 2 * n * (widest + 1) + h_terms + weight_terms + 4
    assert abs(got - want) <= (k_leaves * leaves + k_mass * mass) * EPS, (got, want, mass)


@pytest.mark.parametrize("spec,chname", CASES + [("Z(2)@2^3", "trivial"), ("Z(3)@1^2", "sgn")])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_block_matches_dense_gram(spec, chname, data):
    """A block fills its Gram by one join on shared orbit keys, which visits
    only the pairs whose products share a key (on Z(m)@k^n only b = c);
    with the whole Gram taken from the pull-based oracle instead, zeros
    included, the same product gives the same block bit for bit."""
    qr = realization(spec, chname)
    n = qr.group.n
    key = data.draw(st.sampled_from(sorted(data.draw(harmonic(n)).terms)))
    row_bound, col_bound = data.draw(st.sampled_from([(2, 3), (3, 2), (3, 3)]))
    (rows, e_rows), (cols, e_cols) = qr._basis(row_bound), qr._basis(col_bound)
    gram = np.array([[pulled_moment(qr, tuple(x + y for x, y in zip(key, j + l))).real
                      for j in cols] for l in rows]).reshape(len(rows), len(cols))
    want = e_rows.T @ gram @ e_cols / float(qr.ellp.cnorm_sq)
    assert np.array_equal(qr.block(key, row_bound, col_bound), want)


ROUTE_CASES = [(g, ch.name) for g in GROUPS for ch in builtin_characters(group(g))]


def route_symbols(spec, seed, radii=(1, 1)):
    g = group(spec)
    rng = random.Random(seed)
    return tuple(random_invariant_symbol(g, rng, radius=r, terms=3) for r in radii)


def route_widths(u, v, mode, ch, bm, bound):
    """The most terms of a lowered element of the route's reps and of a
    theta form it sums (u's, v's and, in semi mode, their product's)."""
    qr = QuotientRealization.shared(ch)
    reps = index_set(ch, bound + max(u.radius(), v.radius())).reps
    forms = [u.theta_form(bm), v.theta_form(bm)]
    if mode == "semi":
        forms.append(forms[0] * forms[1])
    return max(len(qr.basis_down(r).terms) for r in reps), max(len(f.terms) for f in forms)


@pytest.mark.parametrize("spec,chname", ROUTE_CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["semi", "commute"]),
       bound=st.integers(2, 4))
def test_route_matches_product_pairing_loop(spec, chname, seed, mode, bound):
    g = group(spec)
    bm = basic_map(g)
    ch = make_character(g, chname)
    u, v = route_symbols(spec, seed)
    got = _quotient_route_compare(u, v, mode, ch, bm, bound)
    want, widest = quotient_route_loop(u, v, mode, ch, bm, bound)
    leaves, widest_abs = quotient_route_loop(u, v, mode, ch, bm, bound, magnitude=True)
    assert got.reps == want.reps
    assert got.verdict == want.verdict
    # the route's sums fit the loop's widest sum (module docstring); an
    # empty window has no sums
    assert not got.reps or max(route_widths(u, v, mode, ch, bm, bound)) <= max(widest, widest_abs)
    tol = (14 * max(widest, widest_abs) + 21) * EPS * leaves.residuals.real
    gap = np.abs(got.residuals - want.residuals)
    assert np.all(gap <= tol), float(np.max(gap - tol))


@pytest.mark.parametrize("spec,chname", ROUTE_CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["semi", "commute"]),
       bound=st.integers(2, 4), radii=st.sampled_from([(1, 1), (2, 1), (1, 2)]))
def test_route_matches_functionals(spec, chname, seed, mode, bound, radii):
    """The moment-window route against the column loop it replaced, which
    pairs through per-basis functionals of the same moments.  Unequal
    radii give the two commute products tables of different widths; on
    G(1,1,3) the magnitude loop behind L would pull thousands of moments
    for a radius-2 symbol, so both radii stay 1 there."""
    g = group(spec)
    bm = basic_map(g)
    ch = make_character(g, chname)
    u, v = route_symbols(spec, seed, radii if g.n == 2 else (1, 1))
    got = _quotient_route_compare(u, v, mode, ch, bm, bound)
    want, widest = quotient_route_functionals(u, v, mode, ch, bm, bound)
    leaves, _ = quotient_route_loop(u, v, mode, ch, bm, bound, magnitude=True)
    assert got.reps == want.reps
    assert got.verdict == want.verdict
    tol = (13 * widest + 15) * EPS * leaves.residuals.real
    gap = np.abs(got.residuals - want.residuals)
    assert np.all(gap <= tol), float(np.max(gap - tol))


# cold routes whose every Gram entry must equal the oracle's moment, and each
# orbit weight of BasicMap.gram_block: alternating keys (sgn), tied values
# (G(2,1,3) trivial), the split characters of G(4,4,2), and Z(m)@k^n
GRAM_CASES = [("G(1,1,2)", "sgn", 6), ("G(1,1,2)", "trivial", 4), ("G(2,2,2)", "sgn", 4),
              ("G(2,1,2)", "trivial", 4), ("G(1,1,3)", "sgn", 3), ("G(1,1,3)", "trivial", 4),
              ("G(1,1,4)", "sgn", 4), ("G(2,1,3)", "trivial", 4), ("G(4,4,2)", "rho1", 4),
              ("G(4,4,2)", "rho2", 4), ("Z(3)@1^2", "sgn", 4), ("Z(2)@2^3", "trivial", 3)]


def cold_route(spec, chname, bound, mode="semi"):
    """A fresh group, two seeded symbols and one _quotient_route_compare:
    the realisation then holds the blocks of one cold route."""
    g = make_group(spec)
    bm = basic_map(g)
    ch = make_character(g, chname)
    rng = random.Random(1)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    report = _quotient_route_compare(u, v, mode, ch, bm, bound)
    return QuotientRealization.shared(ch), report


def route_grams(monkeypatch, spec, chname, bound):
    """The realisation of a cold semi route and {b + c: G entry} over every
    entry of every Gram block it joined, zeros included; an entry met twice
    must repeat its value."""
    entries = {}
    real = BasicMap.gram_block

    def recording(self, char, bs, cs):
        out = real(self, char, bs, cs)
        for l, c in enumerate(cs):
            for j, b in enumerate(bs):
                mu = out.get(l * len(bs) + j, 0)
                assert entries.setdefault(b + c, mu) == mu
        return out

    with monkeypatch.context() as patch:
        patch.setattr(BasicMap, "gram_block", recording)
        qr, _ = cold_route(spec, chname, bound)
    return qr, entries


@pytest.mark.parametrize("spec,chname,bound", GRAM_CASES)
def test_cold_route_moments_equal_pulled_moments(monkeypatch, spec, chname, bound):
    """Every entry of every Gram a cold route reads, zero or not, equals the
    oracle's pull-based moment, and is the Python-int Gram
    sum_a P_b[a] P_c[a], with P_b = ell theta^b built here from the
    components' own powers."""
    qr, entries = route_grams(monkeypatch, spec, chname, bound)
    n = qr.group.n

    @functools.cache
    def gram_row(b):
        p = qr.ellp.poly
        for comp, e in zip(qr.bmap.components, b):
            p = p * comp ** e
        assert all(type(c) is int for c in p.terms.values())
        return p.terms

    assert any(entries.values())
    for key, mu in entries.items():
        assert type(mu) is int and mu == pulled_moment(qr, key), key
        P, Q = gram_row(key[:n]), gram_row(key[n:])
        assert mu == sum(c * Q.get(a, 0) for a, c in P.items()), key


def test_cyclic_join_pairs_only_equal_exponents(monkeypatch):
    """On Z(m)@k^n each ell theta^b is one monomial, so mu(b, c) = 0 unless
    b = c: every nonzero Gram entry of the cold Z(2)@2^3 trivial route at
    D = 3 pairs b = c, 46 moments in all."""
    _, entries = route_grams(monkeypatch, "Z(2)@2^3", "trivial", 3)
    nonzero = [key for key, mu in entries.items() if mu]
    assert len(nonzero) == 46
    assert all(key[:3] == key[3:] for key in nonzero)


@pytest.mark.parametrize("spec,chname,mode", [
    ("G(1,1,2)", "sgn", "semi"), ("G(1,1,2)", "sgn", "commute"), ("G(1,1,3)", "trivial", "semi")])
def test_cold_route_calls_no_pull(monkeypatch, spec, chname, mode):
    """The moments are Gram entries of the lowered rows' orbit-coordinate
    products, so a cold route on a fresh group composes nothing through
    BasicMap.pull."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the quotient route pulled a polynomial")

    monkeypatch.setattr(BasicMap, "pull", forbidden)
    qr, report = cold_route(spec, chname, 3, mode)
    assert qr.blocks and report.reps


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


# (domain, group, character, bound, point radius, x at the origin)
SERIES_EDGES = [
    ("polydisc", "G(1,1,2)", "sgn", 0, 0.5, False),   # no terms at all
    ("polydisc", "G(1,1,2)", "sgn", 40, 0.5, True),
    ("polydisc", "G(1,1,3)", "sgn", 12, 0.15, False),
    ("polydisc", "G(4,4,2)", "rho1", 12, 0.5, False),  # split residues
    ("ball", "Z(3)@1^2", "sgn", 30, 0.5, False),
]


@pytest.mark.parametrize("domain,spec,chname,bound,radius,origin", SERIES_EDGES,
                         ids=[f"{d}-{g}-{c}-D{b}{'-x0' if o else ''}"
                              for d, g, c, b, _, o in SERIES_EDGES])
def test_series_eval_edge_cases_match_per_element_eval(domain, spec, chname, bound, radius,
                                                       origin):
    """The bound of test_series_table_matches_per_element_eval, on an empty
    table, at x = 0, for n = 3, split residues and the ball."""
    g = group(spec)
    sk = SeriesKernel(KernelSpec(domain, g, make_character(g, chname)), bound)
    n, bmap = g.n, sk.spec.bmap
    rng = random.Random(bound)
    for _ in range(4):
        z, w = ([radius / n ** 0.5 * cmath.exp(1j * rng.uniform(-3.2, 3.2)) * rng.random()
                 for _ in range(n)] for _ in range(2))
        x = (0,) * n if origin else bmap.eval(tuple(z))
        y = bmap.eval(tuple(w))
        want, mass = series_sum(sk, x, y)
        deg = max((e.total_degree() for e in sk.basis_down), default=0)
        widest = max((len(e.terms) for e in sk.basis_down), default=0)
        tol = (5 * (deg + 2 * n + 1) + 3 * widest + 2 * len(sk.basis_down)) * EPS * mass
        got = sk.eval(x, y)
        assert abs(got - want) <= tol, (got, want, mass)
    if bound == 0:
        assert sk.reps == [] and sk._values(x).shape == (0,) and got == 0


def test_warm_series_eval_reads_only_its_table(monkeypatch):
    """A warm eval evaluates no LaurentPoly and does not read basis_down."""
    g = group("G(1,1,2)")
    sk = SeriesKernel(KernelSpec("polydisc", g, make_character(g, "sgn")), 20)
    x, y = sk.spec.bmap.eval((0.3 + 0.1j, -0.2)), sk.spec.bmap.eval((0.1, 0.25j))
    want = sk.eval(x, y)

    def forbidden(*args, **kwargs):
        raise AssertionError("the series kernel evaluated a LaurentPoly")

    def unread(self):
        raise AssertionError("the series kernel read basis_down")

    monkeypatch.setattr(LaurentPoly, "eval", forbidden)
    # a property on the class shadows the instance attribute
    sk.__class__ = type("Watched", (SeriesKernel,), {"basis_down": property(unread)})
    assert sk.eval(x, y) == want

def test_second_check_adds_no_moment(monkeypatch):
    g = make_group("G(1,1,2)")
    sgn = make_character(g, "sgn")
    rng = random.Random(5)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    first = correspondence_check(u, v, [sgn], 3, mode="commute")
    qr = QuotientRealization.shared(sgn)
    sizes = len(qr.blocks), len(basic_map(g).rows[sgn].products)
    calls = []
    real_times = _OrbitRows.times

    def counting_times(self, f, k):
        calls.append(k)
        return real_times(self, f, k)

    monkeypatch.setattr(_OrbitRows, "times", counting_times)
    # a fresh character object: realisations are keyed by character value
    second = correspondence_check(u, v, [make_character(g, "sgn")], 3, mode="commute")
    assert calls == []
    assert (len(qr.blocks), len(basic_map(g).rows[sgn].products)) == sizes
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


@pytest.mark.parametrize("spec,chname", [("G(1,1,2)", "sgn"), ("G(2,2,2)", "trivial"),
                                         ("G(1,1,3)", "trivial")])
def test_seen_exponents_add_no_block(monkeypatch, spec, chname):
    """Once both modes have run on u and v, routes on rescaled symbols (the
    same theta exponents, other coefficients) read every block from the
    tables: no Gram is joined, no block is added or rebuilt, and the
    verdicts are those of the functionals oracle on the rescaled pair."""
    g = make_group(spec)
    bm = basic_map(g)
    ch = make_character(g, chname)
    rng = random.Random(3)
    u = random_invariant_symbol(g, rng, radius=1, terms=3)
    v = random_invariant_symbol(g, rng, radius=1, terms=3)
    for mode in ("semi", "commute"):
        _quotient_route_compare(u, v, mode, ch, bm, 3)
    qr = QuotientRealization.shared(ch)
    blocks = dict(qr.blocks)
    assert blocks
    calls = []
    real_join = BasicMap.gram_block

    def counting_join(self, char, bs, cs):
        calls.append((bs, cs))
        return real_join(self, char, bs, cs)

    monkeypatch.setattr(BasicMap, "gram_block", counting_join)
    u2 = toeplitz.SymbolPair(g, u.pullback * (0.5 - 2j))
    v2 = toeplitz.SymbolPair(g, v.pullback * 3.0)
    reports = [_quotient_route_compare(u2, v2, mode, ch, bm, 3) for mode in ("semi", "commute")]
    assert calls == []
    assert qr.blocks.keys() == blocks.keys()
    assert all(qr.blocks[k] is b for k, b in blocks.items())
    monkeypatch.undo()
    for mode, got in zip(("semi", "commute"), reports):
        want, _ = quotient_route_functionals(u2, v2, mode, ch, bm, 3)
        assert got.reps == want.reps and got.verdict == want.verdict
