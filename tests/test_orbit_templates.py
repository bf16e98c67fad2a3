"""The orbit-sized S_n primitives against the O(n!) permutation loops in
group_sums.py: signed orbits (weights and dict order), orbit exponents,
canonical exponents and the closed-form stabiliser norm, compared with ==
on G(m,p,n) for n = 2..7 and on Z(m)@k^n for n = 1..3, under every
built-in character, on unsorted exponents with repeated values.  Then the
size of the per-group template table after a seeded run."""

import functools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from group_sums import canonical_loop, orbit_exponents_loop, orbit_norm_loop, signed_orbit_loop
from hardyq.groups import BUILTIN_CHARACTERS, CharacterError, make_character, make_group
from hardyq.invariants import _signed_orbit, index_set, projection_norm_sq
from hardyq.laurent import canonical_exponent, orbit_exponents, orbit_template, tie_pattern

GROUPS = ("G(1,1,2)", "G(2,2,2)", "G(4,4,2)", "G(4,2,2)", "G(2,1,3)", "G(3,3,3)", "G(2,2,4)",
          "G(3,1,4)", "G(1,1,5)", "G(2,1,5)", "G(2,1,6)", "G(1,1,7)",
          "Z(3)@1^1", "Z(2)@1^2", "Z(4)@2^3")


@functools.cache
def setting(spec):
    """The group and every built-in character on it, duplicates kept."""
    g = make_group(spec)
    chars = []
    for name in BUILTIN_CHARACTERS:
        try:
            chars.append(make_character(g, name))
        except CharacterError:
            pass
    return g, chars


@st.composite
def cases(draw):
    """A group and an exponent tuple over a few values, so that values
    repeat, in no particular order."""
    spec = draw(st.sampled_from(GROUPS))
    g = setting(spec)[0]
    values = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=g.n, unique=True))
    expo = tuple(draw(st.lists(st.sampled_from(values), min_size=g.n, max_size=g.n)))
    return spec, expo


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_primitives_match_the_permutation_loops(case):
    spec, expo = case
    g, chars = setting(spec)
    assert orbit_exponents(g, expo) == orbit_exponents_loop(g, expo)
    assert canonical_exponent(g, expo) == canonical_loop(g, expo)
    for ch in chars:
        assert list(_signed_orbit(ch, expo).items()) == list(signed_orbit_loop(ch, expo).items())
        assert projection_norm_sq(ch, expo) == orbit_norm_loop(ch, expo)


# Bell(n), the number of set partitions of n elements (OEIS A000110)
BELL = (1, 1, 2, 5, 15, 52, 203, 877)


def test_template_table_is_orbit_sized():
    rng = random.Random(21)
    for spec in GROUPS:
        g = make_group(spec)  # a fresh template table
        chars = [make_character(g, ch.name) for ch in setting(spec)[1]]
        for _ in range(400):
            expo = tuple(rng.randint(-3, 3) for _ in range(g.n))
            orbit_exponents(g, expo)
            for ch in chars:
                _signed_orbit(ch, expo)
        templates = g.derived["orbit_templates"]
        assert 1 <= len(templates) <= BELL[g.n]
        for pattern, (images, stab) in templates.items():
            if g.spec.kind == "CyclicCoord":  # S is the identity alone
                assert stab == 1 and len(images) == 1
                continue
            orbit = math.factorial(g.n) // math.prod(
                math.factorial(pattern.count(v)) for v in set(pattern))
            assert stab == g.perm_order // orbit
            assert len(images) == orbit


def test_templates_are_shared_by_tie_pattern():
    assert tie_pattern((5, 2, 5, 7)) == tie_pattern((-1, 9, -1, 0)) == (0, 1, 0, 3)
    assert tie_pattern((3, -2, 8, 1)) == (0, 1, 2, 3)
    assert tie_pattern((1, 1, 2, 2)) != tie_pattern((1, 2, 1, 2))
    g = make_group("G(1,1,4)")
    assert orbit_template(g, tie_pattern((5, 2, 5, 7))) is orbit_template(g, (0, 1, 0, 3))
    assert g.identity.perm == tie_pattern((3, -2, 8, 1))  # _signed_orbit's all-distinct key


def test_norms_and_vanishing_orbits_build_no_template():
    """projection_norm_sq is a closed form, and a signed orbit that
    vanishes (swap nonzero, a repeated value) is known before any orbit is
    listed: neither builds a template, which on n = 8 could hold n!/2
    images."""
    g = make_group("G(1,1,8)")
    sgn = make_character(g, "sgn")
    assert len(index_set(sgn, 7).reps) == 1
    assert _signed_orbit(sgn, (3, 1, 3, 0, 2, 4, 5, 6)) == {}
    assert "orbit_templates" not in g.derived
