"""Sparse multivariate Laurent polynomials, group actions, exact torus and
sphere inner products, and pluriharmonic extensions.

A LaurentPoly is a dict from integer exponent vectors to complex
coefficients.  Functions on the n-torus are Laurent polynomials; conjugation
there sends z^a to z^{-a}.  A function of z and conj(z) is a LaurentPoly
in 2n variables with non-negative exponents, coordinate n + i standing for
conj(z_i); the quotient route's (t, conj t) polynomials use the same
convention.

Coefficients keep the type they are given: ints and Fractions stay exact,
floats and complex doubles are rounded.  After every arithmetic operation,
inexact terms with |c| below CLEANUP_REL times the largest coefficient are
dropped, which keeps zero tests reliable for the finite root-of-unity sums
that arise here; exact terms are dropped only when exactly zero.

Every arithmetic result is built in one pass over its terms into a fresh
dict (`c - f` is `(-f) + c`), which gets exactly one cleanup and is handed
to the result without a copy (`LaurentPoly._fresh`); the cleanup returns
that dict itself when it keeps every term.  Two results skip the cleanup,
and `_wrap` takes their dict as it is: a negation, which keeps every
magnitude, and a sub-dict of clean terms (`toeplitz.hol_project`), whose
floor can only be lower.  The public constructor copies and cleans
whatever it is given.  So each result equals, to the bit and in term
order, the plain loops with a copy and a cleanup per step that
tests/group_sums.py keeps.

Exponents stay tuples.  Exponent vectors packed into one int key ran at
0.35-0.79x the speed of the tuple loop on the products the benchmarks run
(9 to 100 term pairs in dimension 2, most of them a monomial times a
polynomial): on products this small, converting keys at the API costs
more than the cheaper key saves.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable
from fractions import Fraction
from operator import add, itemgetter, mul

from .groups import Group, GroupElement, InputError, _invert_perm, root_of_unity

CLEANUP_REL = 1e-12

Expo = tuple[int, ...]
_EXACT = (int, Fraction)


def _clean(terms: dict[Expo, complex]) -> dict[Expo, complex]:
    """The cleanup of a fresh dict, one that no other object holds: `terms`
    itself when every term is kept, else the kept terms in a new dict, in
    their order.  One abs pass."""
    if not terms:
        return terms
    mags = list(map(abs, terms.values()))
    top = max(mags)
    if top == 0:
        return {}
    floor = CLEANUP_REL * top
    # a NaN magnitude is never kept, but min and max pass over it unless it
    # comes first: the sum is NaN exactly when some magnitude is
    if min(mags) >= floor and (total := sum(mags)) == total:
        return terms
    return {e: c for (e, c), m in zip(terms.items(), mags)
            if m >= floor or (c and isinstance(c, _EXACT))}


class LaurentPoly:
    """Sum of c * z^e over exponent vectors e in Z^n."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[Expo, complex] | None = None):
        self.dim = dim
        self.terms = _clean(dict(terms) if terms else {})

    # -- constructors --------------------------------------------------

    @classmethod
    def _wrap(cls, dim: int, terms: dict[Expo, complex]) -> "LaurentPoly":
        """`terms` as they are, neither copied nor cleaned: for callers that
        know the cleanup would keep every term."""
        poly = cls.__new__(cls)
        poly.dim, poly.terms = dim, terms
        return poly

    @classmethod
    def _fresh(cls, dim: int, terms: dict[Expo, complex]) -> "LaurentPoly":
        """`terms` after their one cleanup, not copied: for a dict that the
        caller has just built and hands over."""
        return cls._wrap(dim, _clean(terms))

    @classmethod
    def zero(cls, dim: int) -> "LaurentPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, c: complex) -> "LaurentPoly":
        return cls._fresh(dim, {(0,) * dim: c})

    @classmethod
    def monomial(cls, dim: int, expo: Expo, c: complex = 1) -> "LaurentPoly":
        if len(expo) != dim:
            raise ValueError("exponent length does not match dim")
        return cls(dim, {tuple(int(e) for e in expo): c})

    # -- queries --------------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def is_analytic(self) -> bool:
        return all(min(e) >= 0 for e in self.terms) if self.terms else True

    def degree_radius(self) -> int:
        """Sup-norm of the exponent support."""
        if not self.terms:
            return 0
        return max(max(abs(x) for x in e) for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeff(self, expo: Expo) -> complex:
        return self.terms.get(tuple(expo), 0j)

    def same_terms(self, other: "LaurentPoly") -> bool:
        """Exact term-mapping equality (meaningful for exact coefficients,
        such as the basic maps' integers)."""
        return self.dim == other.dim and self.terms == other.terms

    def approx_eq(self, other: "LaurentPoly", tol: float = 1e-10) -> bool:
        diff = self - other
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1.0)
        return diff.max_abs_coeff() <= tol * scale

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"({complex(c):.6g})*z^{e}" for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- arithmetic -------------------------------------------------------

    def _check_dim(self, other: "LaurentPoly"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return LaurentPoly._fresh(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        # every magnitude is kept, so the clean terms stay clean
        return LaurentPoly._wrap(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        """self + (-other) in one pass: x - c is x + (-c) to the bit."""
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + -c
        return LaurentPoly._fresh(self.dim, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly._fresh(self.dim, {e: c * other for e, c in self.terms.items()})
        self._check_dim(other)
        out: dict[Expo, complex] = {}
        get = out.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._fresh(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPoly.constant(self.dim, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conj_torus(self) -> "LaurentPoly":
        """Conjugate as a function on the torus: sum conj(c) z^{-e}."""
        return LaurentPoly._fresh(
            self.dim,
            {tuple(-x for x in e): c.conjugate() for e, c in self.terms.items()},
        )

    def dz(self, i: int) -> "LaurentPoly":
        """Formal z_i derivative, valid for Laurent exponents."""
        out: dict[Expo, complex] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            f = list(e)
            f[i] -= 1
            out[tuple(f)] = out.get(tuple(f), 0) + c * e[i]
        return LaurentPoly._fresh(self.dim, out)

    def eval(self, z: tuple[complex, ...]) -> complex:
        total = 0j
        for e in sorted(self.terms):
            c = self.terms[e]
            v = c
            for zi, ei in zip(z, e):
                if ei:
                    v *= zi ** ei
            total += v
        return total

    def substitute(self, polys: list["LaurentPoly"]) -> "LaurentPoly":
        """Composition f(p_1, ..., p_dim); requires analytic f."""
        if len(polys) != self.dim:
            raise ValueError("need one polynomial per variable")
        if not self.is_analytic():
            raise ValueError("substitution requires an analytic polynomial")
        powers: dict[tuple[int, int], LaurentPoly] = {}

        def power(k: int, e: int) -> LaurentPoly:
            got = powers.get((k, e))
            if got is None:
                got = powers[(k, e)] = polys[k] ** e
            return got

        return _compose(polys[0].dim, self.terms, power)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"c": [float(c.real), float(c.imag)], "e": list(e)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        """The inverse of to_json.  A NaN or infinite coefficient is an
        InputError: the cleanup compares every term with the largest, so
        one such term would drop or swamp the finite ones."""
        terms = {
            tuple(t["e"]): complex(t["c"][0], t["c"][1]) for t in data["terms"]
        }
        if not all(map(cmath.isfinite, terms.values())):
            e, c = next((e, c) for e, c in terms.items() if not cmath.isfinite(c))
            raise InputError(f"coefficient {c} of exponent {list(e)} is not finite")
        return cls(int(data["dim"]), terms)


def _compose(dim: int, terms: dict[Expo, complex], power) -> LaurentPoly:
    """The one composition loop: sum of c * prod_k power(k, e_k) over the
    sorted exponent vectors e of `terms`, with power(k, e_k) the k-th
    substituted polynomial raised to e_k.  Factor order is fixed (constant,
    then k ascending), so results are reproducible to the bit."""
    total = LaurentPoly.zero(dim)
    for e in sorted(terms):
        mono = LaurentPoly.constant(dim, terms[e])
        for k, ek in enumerate(e):
            if ek:
                mono = mono * power(k, ek)
        total = total + mono
    return total


# -- group action ------------------------------------------------------------


@functools.cache
def _roots(m: int) -> tuple[complex, ...]:
    """root_of_unity(k/m) for k = 0..m-1, built once per m."""
    return tuple(root_of_unity(Fraction(k, m)) for k in range(m))


def act(g: GroupElement, f: LaurentPoly) -> LaurentPoly:
    """(R_g f)(z) = f(g z), composition with the monomial matrix itself.

    Monomials transform exactly: z^a -> zeta^(sum_i phase_i a_i) z^b with
    b_j = a_{perm(j)}; the turn is reduced mod m as an integer and its root
    read from a per-m table.  With this composition the Jacobian of the
    basic map transforms by det(g)^{-1}, i.e. by the sign character, which
    is what ties the relative invariant ell_sgn to the Jacobian.
    """
    if len(g.perm) != f.dim:
        raise ValueError("element dimension does not match polynomial")
    perm, phase, m = g.perm, g.phase, g.mod
    roots = _roots(m)
    out: dict[Expo, complex] = {}
    for e, c in f.terms.items():
        b = tuple([e[j] for j in perm])
        out[b] = out.get(b, 0j) + c * roots[sum([p * x for p, x in zip(phase, e)]) % m]
    return LaurentPoly._fresh(f.dim, out)


def invariance_residual(g: GroupElement, f: LaurentPoly) -> float:
    """max_b |(R_g f - f)_b|, the largest coefficient of act(g, f) - f, in
    one pass over f's terms with no polynomial built.  It equals
    (act(g, f) - f).max_abs_coeff() except for terms that act's
    1e-12-relative cleanup drops.

    R_g f carries c_a zeta^(phase . a) at a o perm for each term c_a z^a of
    f.  A diagonal g (perm the identity) keeps every exponent, so a term
    c z^e contributes |c zeta^(phase . e) - c|.  For any other g the
    residual at an exponent b of f is |c_a zeta^(phase . a) - c_b| with a
    the preimage of b (c_a = 0 off f's support), and at an image a o perm
    outside f's support it is |c_a zeta^(phase . a)|.  A zero-phase
    transposition sigma is its own inverse, so its term c z^e contributes
    |f_(sigma e) - c| alone."""
    if len(g.perm) != f.dim:
        raise ValueError("element dimension does not match polynomial")
    perm, phase, m = g.perm, g.phase, g.mod
    roots = _roots(m)
    terms = f.terms
    if perm == tuple(range(f.dim)):
        res = [abs(c * roots[sum(map(mul, phase, e)) % m] - c) for e, c in terms.items()]
    else:
        inv = _invert_perm(perm)
        turned = any(phase)
        # a zero-phase involution's images are its preimages, at the same |c|
        images = turned or perm != inv
        res = []
        for b, c in terms.items():
            a = tuple([b[k] for k in inv])
            src = terms.get(a)
            if src is None:
                r = abs(c)
            else:
                r = abs((src * roots[sum(map(mul, phase, a)) % m] if turned else src) - c)
            if images and tuple([b[j] for j in perm]) not in terms:
                r = max(r, abs(c * roots[sum(map(mul, phase, b)) % m]))
            res.append(r)
    # NaN if some residual is: max passes over a NaN unless it comes first
    return max(res, default=0.0) if (total := sum(res)) == total else math.nan


Template = tuple[tuple[tuple[Callable[[Expo], Expo], int], ...], int]


def tie_pattern(expo: Expo) -> Expo:
    """expo with each value replaced by the index of its first occurrence:
    (5, 2, 5) -> (0, 1, 0), and (0, 1, ..., n-1) exactly when the values
    are distinct.  Exponents share their permutation orbit's structure
    (orbit_template) exactly when they share this pattern."""
    return tuple(map(expo.index, expo))


def orbit_template(group: Group, pattern: Expo) -> Template:
    """(images, stab) for the permutation orbit of any exponent tuple expo
    with this tie_pattern: one (image, parity) per distinct image sigma .
    expo = (expo[sigma(0)], ..., expo[sigma(n-1)]), image an itemgetter
    (tuple when n = 1) and parity 0 for even sigma, 1 for odd, in the order
    in which the lexicographic loop over S first reaches each image; and
    stab = |Stab_S(expo)|, the product of the factorials of expo's value
    multiplicities (a Young subgroup).

    Group.derived keeps one template per pattern: at most Bell(n) of them,
    each with |orbit| = |S|/stab entries.  On Z(m)@k^n, S is the identity
    alone, and so is every template."""
    try:
        return group.derived["orbit_templates"][pattern]
    except KeyError:
        pass
    if group.spec.kind == "Gmpn":
        got = _build_template(pattern)
    else:
        got = ((_getter(group.identity.perm), 0),), 1
    return group.derived.setdefault("orbit_templates", {}).setdefault(pattern, got)


def _getter(index) -> Callable[[Expo], Expo]:
    """alpha -> (alpha[index[0]], ...) as a tuple, also for one index."""
    return itemgetter(*index) if len(index) > 1 else tuple


def _build_template(pattern: Expo) -> Template:
    """The template of a tie pattern (see orbit_template), by recursion over
    the unused indices in increasing order: at each depth only the first
    unused index of each value is tried, since a later one with the same
    value reaches only images that the first already reached.  So every
    leaf is a new image and the first sigma of the lexicographic loop to
    reach it; the parity grows by the number of unused indices below each
    choice."""
    n = len(pattern)
    images: list[tuple[Callable[[Expo], Expo], int]] = []

    def walk(prefix: Expo, unused: Expo, parity: int):
        if not unused:
            images.append((_getter(prefix), parity))
            return
        tried = set()
        for k, i in enumerate(unused):
            if pattern[i] not in tried:
                tried.add(pattern[i])
                walk(prefix + (i,), unused[:k] + unused[k + 1:], parity ^ (k & 1))

    walk((), tuple(range(n)), 0)
    return tuple(images), _young_order(pattern)


def _young_order(expo: Expo) -> int:
    """prod_i m_i! over the multiplicities m_i of expo's values: the order
    of the Young subgroup of S_n that fixes expo."""
    return math.prod(math.factorial(expo.count(v)) for v in set(expo))


def orbit_exponents(group: Group, expo: Expo) -> list[Expo]:
    """Distinct images of an exponent vector under the permutation parts,
    sorted: one per entry of its orbit_template."""
    expo = tuple(expo)
    return sorted([image(expo) for image, _ in orbit_template(group, tie_pattern(expo))[0]])


def canonical_exponent(group: Group, expo: Expo) -> Expo:
    """Lexicographic minimum over the permutation orbit: the weakly
    increasing sort on G(m,p,n), expo itself on Z(m)@k^n, where S is
    trivial."""
    return tuple(sorted(expo)) if group.spec.kind == "Gmpn" else tuple(expo)


def sort_sign(expo: Expo) -> int:
    """The sign of the permutation that sorts expo into increasing order,
    +1 or -1, and 0 when a value repeats: z^expo = sort_sign(expo) z^s in
    an alternating polynomial, s = sorted(expo), whose coefficient at a
    repeated value is 0."""
    if len(set(expo)) < len(expo):
        return 0
    inversions = sum(x > y for i, x in enumerate(expo) for y in expo[i + 1:])
    return -1 if inversions & 1 else 1


# -- inner products ----------------------------------------------------------


def torus_inner(f: LaurentPoly, g: LaurentPoly) -> complex:
    """L^2 pairing on the torus under normalized Lebesgue measure.

    Distinct monomials are orthonormal, so this is the coefficient pairing
    sum_a f_a conj(g_a), computed exactly.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    small, big = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    total = 0j
    for e in sorted(small):
        if e in big:
            total += f.terms[e] * g.terms[e].conjugate()
    return total


def torus_norm(f: LaurentPoly) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in f.terms.values()))


def sphere_monomial_weight(a: Expo) -> Fraction:
    """Exact squared norm of z^a in L^2 of the unit sphere in C^n:
    a! (n-1)! / (n-1+|a|)!.  Equals 1/k_a^2 for the usual normalization."""
    n = len(a)
    num = math.factorial(n - 1)
    for x in a:
        if x < 0:
            raise ValueError("sphere monomials need non-negative exponents")
        num *= math.factorial(x)
    return Fraction(num, math.factorial(n - 1 + sum(a)))


def sphere_inner(f: LaurentPoly, g: LaurentPoly) -> complex:
    """L^2 pairing on the unit sphere for analytic polynomials."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if not (f.is_analytic() and g.is_analytic()):
        raise ValueError("sphere pairing requires analytic polynomials")
    total = 0j
    for e in sorted(f.terms):
        if e in g.terms:
            total += f.terms[e] * g.terms[e].conjugate() * float(sphere_monomial_weight(e))
    return total


def sphere_norm(f: LaurentPoly) -> float:
    return math.sqrt(max(sphere_inner(f, f).real, 0.0))


# -- pluriharmonic side ------------------------------------------------------


def harmonic_extension(f: LaurentPoly) -> LaurentPoly:
    """Pluriharmonic extension of a torus function, monomial by monomial:
    z^a -> z^(a+) conj(z)^(a-) with a+ = max(a,0), a- = max(-a,0), as a
    (z, conj z) polynomial of dimension 2n.  The result has
    min(a+_i, a-_i) = 0 termwise (the extension of a torus function is
    unique in that form); products of Wirtinger derivatives may carry mixed
    terms."""
    return LaurentPoly._fresh(2 * f.dim, {
        tuple(max(x, 0) for x in e) + tuple(max(-x, 0) for x in e): c
        for e, c in f.terms.items()})


def wirtinger_D(f: LaurentPoly, g: LaurentPoly, which: str) -> LaurentPoly:
    """The two-variable derivative products used by the bidisc
    semi-commutator criterion, on (z, conj z) polynomials of dimension 4:

        D1(f,g) = df/dz1 * dg/dzbar1,
        D2(f,g) = df/dz2 * dg/dzbar2,
        D12(f,g) = d^2 f/dz1 dz2 * d^2 g/dzbar1 dzbar2.
    """
    if f.dim != 4 or g.dim != 4:
        raise ValueError("wirtinger_D is defined for (z, conj z) polynomials on C^2")
    if which == "D1":
        return f.dz(0) * g.dz(2)
    if which == "D2":
        return f.dz(1) * g.dz(3)
    if which == "D12":
        return f.dz(0).dz(1) * g.dz(2).dz(3)
    raise ValueError(f"unknown derivative tag {which!r}")
