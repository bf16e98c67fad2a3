"""The seeded symbol draws of hardyq.suites: the counted unranking against
the enumeration oracle in group_sums.py, draw for draw."""

import random

import pytest

from group_sums import orbit_sum_loop
from hardyq.groups import make_group
from hardyq.suites import _orbit_sum, _surviving_tuples, random_invariant_symbol

# the groups with n <= 3 of the lowered-row catalogue, plus G(3,1,3) and
# Z(4)@2^3 (a cyclic group with a non-unit coordinate)
CATALOGUE = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(3,3,2)", "G(4,4,2)", "G(4,2,2)",
             "G(6,3,2)", "G(1,1,3)", "G(2,1,3)", "G(3,3,3)", "G(4,2,3)", "G(3,1,3)",
             "Z(3)@1^2", "Z(2)@2^3", "Z(4)@2^3")


@pytest.mark.parametrize("spec", CATALOGUE)
def test_draws_match_the_enumeration(spec):
    """The same tuples, coefficients and rng state after the draw as the
    list of every surviving tuple, for radius <= 2, the symmetric span of
    random_invariant_symbol and the one-sided span of
    random_onesided_symbol, 20 seeds each."""
    g = make_group(spec)
    for radius in range(3):
        for span in (range(-radius, radius + 1), range(0, radius + 1)):
            for seed in range(20):
                fast, slow = random.Random(seed), random.Random(seed)
                got = _orbit_sum(g, fast, span, 4)
                want = orbit_sum_loop(g, slow, span, 4)
                assert got.same_terms(want), (radius, span, seed)
                assert fast.getstate() == slow.getstate()


def test_large_group_draw_returns():
    """G(3,1,9) at radius 3: 40,353,607 tuples, of which the 3^9 with every
    coordinate in {-3, 0, 3} survive; the draw counts them through at most
    3^9 residue classes instead of listing the tuples."""
    g = make_group("G(3,1,9)")
    count, unrank = _surviving_tuples(g, range(-3, 4))
    assert count == 3 ** 9
    assert unrank(0) == (-3,) * 9 and unrank(count - 1) == (3,) * 9
    sym = random_invariant_symbol(g, random.Random(1), radius=3)
    assert sym.radius() == 3
    assert all(x in (-3, 0, 3) for e in sym.pullback.terms for x in e)
