"""The orbit-sum projection, its exact norm and the table-driven quotient
kernel against the plain group sums in group_sums.py.

Tolerances.  eps is the double-precision machine epsilon (u = eps/2 the unit
roundoff).
* Projection coefficients.  The oracle adds |G| contributions to each image
  coefficient, each a term c of f times a root of unity (error <= 2u|c|):
  at most (|G| + 3) u ||f||_1 after the 1/|G| scaling.  The orbit sum
  scales each term once and adds at most |S| <= |G| of them per image:
  (|S| + 1) u ||f||_1.  Together <= (|G| + 2) eps ||f||_1 <= 2 |G| eps ||f||_1,
  with ||f||_1 the sum of |c| over f's terms.
* Norms are exact Fractions on both sides and must be equal.
* Kernel values.  Both sides sum the same |G| products conj(chi(g)) S(g z, w)
  in a different order, and each S takes n divisions computed by different
  code (Python and numpy complex division): at most (|G| + 3n) eps times
  the magnitude sum that group_sum_kernel returns; the test allows 2x that.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from group_sums import group_sum_kernel, group_sum_project, stabilizer_norm_sq
from hardyq.groups import GroupElement, builtin_characters, extend_from_generators, make_group
from hardyq.invariants import project, projection_norm_sq
from hardyq.kernels import KernelSpec, SingularPointError, quotient_kernel
from hardyq.laurent import LaurentPoly

EPS = 2.0 ** -52

GROUPS = ["G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(4,4,2)", "G(1,1,3)", "G(2,1,3)",
          "G(4,2,3)", "Z(3)@1^2", "Z(4)@2^3"]


def _custom(group, gens):
    """A character from generator turns: {(perm, phase): turn}."""
    assignments = {GroupElement(perm, phase, group.m): Fraction(t)
                   for (perm, phase), t in gens.items()}
    return extend_from_generators(group, assignments, name="custom")


# characters that no built-in name gives: the sign changes' character on A
# with the trivial one on S_n, and det^2 on Z(4)@2^3
CUSTOM = {
    "G(2,1,2)": {((0, 1), (1, 0)): "1/2", ((1, 0), (0, 0)): 0},
    "G(4,2,3)": {((0, 1, 2), (0, 0, 2)): "1/2", ((0, 1, 2), (1, 0, 3)): 0,
                 ((1, 0, 2), (0, 0, 0)): 0, ((0, 2, 1), (0, 0, 0)): 0},
    "Z(4)@2^3": {((0, 1, 2), (0, 1, 0)): "1/2"},
}


def _catalogue():
    out = []
    for spec in GROUPS:
        g = make_group(spec)
        chars = builtin_characters(g)
        if spec in CUSTOM:
            chars.append(_custom(g, CUSTOM[spec]))
        out += [(spec, ch) for ch in chars]
    return out


CHARS = _catalogue()
_KERNEL_SPECS = {}


def _kernel_spec(index: int, domain: str) -> KernelSpec:
    key = (index, domain)
    if key not in _KERNEL_SPECS:
        _, ch = CHARS[index]
        _KERNEL_SPECS[key] = KernelSpec(domain, ch.group, ch)
    return _KERNEL_SPECS[key]


characters = st.integers(0, len(CHARS) - 1)
coefficients = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)


@st.composite
def laurent_polys(draw, n):
    """One to four terms with exponents in [-3, 3]^n (negative entries
    included) and nonzero Gaussian-integer coefficients."""
    expo = st.tuples(*[st.integers(-3, 3)] * n)
    terms = draw(st.dictionaries(expo, coefficients, min_size=1, max_size=4))
    return LaurentPoly(n, terms)


@st.composite
def points(draw, n):
    """A point with |z_i| <= 0.9 / sqrt(n): inside the polydisc and the ball."""
    r = 0.9 / math.sqrt(n)
    z = []
    for _ in range(n):
        rad = draw(st.floats(0.0, r))
        ang = draw(st.floats(0.0, 2 * math.pi))
        z.append(complex(rad * math.cos(ang), rad * math.sin(ang)))
    return tuple(z)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), index=characters)
def test_project_matches_group_sum(data, index):
    _, ch = CHARS[index]
    f = data.draw(laurent_polys(ch.group.n))
    got, want = project(ch, f), group_sum_project(ch, f)
    l1 = sum(abs(c) for c in f.terms.values())
    tol = 2 * len(ch.group) * EPS * l1
    for e in set(got.terms) | set(want.terms):
        assert abs(got.coeff(e) - want.coeff(e)) <= tol, (e, got.coeff(e), want.coeff(e))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), index=characters)
def test_norm_matches_stabilizer_list(data, index):
    _, ch = CHARS[index]
    alpha = data.draw(st.tuples(*[st.integers(-4, 4)] * ch.group.n))
    assert projection_norm_sq(ch, alpha) == stabilizer_norm_sq(ch, alpha)


# ball quotients exist for the cyclic coordinate groups only
KERNEL_CHARS = {
    "polydisc": characters,
    "ball": st.sampled_from([i for i, (spec, _) in enumerate(CHARS) if spec.startswith("Z(")]),
}


@pytest.mark.parametrize("domain", sorted(KERNEL_CHARS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quotient_kernel_matches_group_sum(domain, data):
    index = data.draw(KERNEL_CHARS[domain])
    _, ch = CHARS[index]
    n = ch.group.n
    z, w = data.draw(points(n)), data.draw(points(n))
    spec = _kernel_spec(index, domain)
    try:
        got = quotient_kernel(spec, z, w)
    except SingularPointError:
        assume(False)
    want, mass = group_sum_kernel(spec, z, w)
    assert abs(got - want) <= 2 * (len(ch.group) + 3 * n) * EPS * mass, (got, want)
