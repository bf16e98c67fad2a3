"""The quotient-side tables against the per-entry loops in group_sums.py:
the pushforward moment table behind QuotientRealization.inner, and the
sparse coefficient table behind SeriesKernel.eval.

Tolerances.  eps is the double-precision machine epsilon, u = eps/2 the unit
roundoff; a complex product has relative error at most sqrt(5) u, a
recursive sum of k terms at most sqrt(2) (k - 1) u times the sum of their
magnitudes.  Bounds are first order in u.
* Pushforward inner products.  For the trivial and sign characters the
  theta components and ell have integer coefficients, so the pulled
  monomials P = pull(t^beta conj(t)^gamma), the weight W = |ell|^2 and every
  moment mu = sum_a P[a] W[-a] are exact integers in doubles.  The table
  then rounds only in summing the N_h terms h_{beta gamma} mu(beta, gamma)
  of h = f conj(g) and in the division by c^2.  The oracle multiplies each
  coefficient of h by at most 2n pulled theta powers, sums at most T_P
  contributions per coefficient in each of those products (T_P the largest
  term count of a pulled monomial), adds the N_h pulled terms, and sums at
  most |W| products for the constant term.  Every leaf of either
  computation is h_{beta gamma} times non-negative integers times one
  coefficient of W, so the sum of the leaf magnitudes is
  S = sum |h_{beta gamma}| sum_a |P[a]| |W[-a]|, and the two results differ
  by at most k eps S / c^2 with k = 2n (T_P + 1) + N_h + |W| + 4.
  Coefficients are drawn with magnitudes in [1/10, 1], so the 1e-12 relative
  cleanup of LaurentPoly drops rounding residue only.
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_sums import pushforward_inner, series_sum
from hardyq.groups import make_character, make_group
from hardyq.invariants import BasicMap, basic_map
from hardyq.kernels import KernelSpec, SeriesKernel
from hardyq.laurent import LaurentPoly, conj_zbar
from hardyq.suites import random_invariant_symbol
from hardyq.toeplitz import QuotientRealization, correspondence_check

EPS = 2.0 ** -52

CASES = [(g, ch) for g in ("G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(1,1,3)")
         for ch in ("trivial", "sgn")]
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
    f, g = data.draw(harmonic(n)), data.draw(harmonic(n))
    want, mass, widest = pushforward_inner(qr, f, g)
    h_terms = len((f * conj_zbar(g)).terms)
    weight_terms = len((qr.ellp.poly * qr.ellp.poly.conj_torus()).terms)
    k = 2 * n * (widest + 1) + h_terms + weight_terms + 4
    got = qr.inner(f, g)
    assert abs(got - want) <= k * EPS * mass, (got, want, mass)


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
    calls = []
    real_pull = BasicMap.pull

    def counting_pull(self, f):
        calls.append(f)
        return real_pull(self, f)

    monkeypatch.setattr(BasicMap, "pull", counting_pull)
    # a fresh character object: realisations are keyed by character value
    second = correspondence_check(u, v, [make_character(g, "sgn")], 3, mode="commute")
    assert calls == []
    assert second.to_json() == first.to_json()
    assert basic_map(g) is basic_map(g)
