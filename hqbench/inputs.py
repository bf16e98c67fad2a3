"""Seeded benchmark inputs and the independent oracles the checks use.

Nothing here imports hardyq: inputs are generated as plain data (polynomial
JSON, points, exponent lists) before timing starts, and the oracles are
closed forms or direct enumerations that do not share code with the library.

G(m,p,n) conventions used below: an element is a permutation combined with
m-th root-of-unity phases whose exponents sum to 0 mod p, and q = m/p.  A
monomial orbit sum  sum_{distinct perms s} z^{s(a)}  is G-invariant exactly
when all a_i agree mod m and a_1 = 0 mod q; those orbit sums span the
invariant Laurent polynomials, so random combinations of them are the
seeded symbols (no call to the library's projection is needed).
"""

from __future__ import annotations

import cmath
import math
import random
import re
from itertools import combinations_with_replacement, permutations, product

import numpy as np

SPEC_RE = re.compile(r"^G\((\d+),(\d+),(\d+)\)$")


def parse_spec(spec: str) -> tuple[int, int, int]:
    mt = SPEC_RE.match(spec)
    if mt is None:
        raise ValueError(f"benchmark groups are G(m,p,n), got {spec!r}")
    return tuple(int(x) for x in mt.groups())


def group_order(spec: str) -> int:
    m, p, n = parse_spec(spec)
    return m ** n * math.factorial(n) // p


def reflection_count(spec: str) -> int:
    """m * n(n-1)/2 transposition-type reflections plus n(q-1) diagonal ones."""
    m, p, n = parse_spec(spec)
    return m * n * (n - 1) // 2 + n * (m // p - 1)


def invariant_reps(spec: str, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Weakly increasing exponent vectors in [lo, hi]^n whose orbit sum is
    invariant, ordered by (total degree, lex) like the library's index sets."""
    m, p, n = parse_spec(spec)
    q = m // p
    reps = [
        a for a in combinations_with_replacement(range(lo, hi + 1), n)
        if len({x % m for x in a}) == 1 and a[0] % q == 0
    ]
    reps.sort(key=lambda a: (sum(a), a))
    return reps


def _poly_json(n: int, terms: dict[tuple[int, ...], complex]) -> dict:
    return {
        "dim": n,
        "terms": [{"c": [c.real, c.imag], "e": list(e)} for e, c in sorted(terms.items())],
    }


def _coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def symbol_json(rng: random.Random, spec: str, radius: int, terms: int,
                side: str = "both") -> dict:
    """Random invariant Laurent polynomial: `terms` distinct orbit sums with
    exponents in [-radius, radius] ('both'), [0, radius] ('analytic') or
    [-radius, 0] ('coanalytic'), each with a random complex coefficient."""
    _, _, n = parse_spec(spec)
    lo, hi = {"both": (-radius, radius), "analytic": (0, radius),
              "coanalytic": (-radius, 0)}[side]
    reps = invariant_reps(spec, lo, hi)
    out: dict[tuple[int, ...], complex] = {}
    for rep in rng.sample(reps, min(terms, len(reps))):
        c = _coeff(rng)
        for e in set(permutations(rep)):
            out[e] = out.get(e, 0j) + c
    return _poly_json(n, out)


def quotient_poly_json(rng: random.Random, n: int, degree: int, terms: int) -> dict:
    """Random analytic polynomial in quotient (theta) coordinates."""
    exps = list(product(range(degree + 1), repeat=n))
    return _poly_json(n, {e: _coeff(rng) for e in rng.sample(exps, terms)})


def random_point(rng: random.Random, n: int, rmax: float) -> tuple[complex, ...]:
    return tuple(
        rng.uniform(0.05, rmax) * cmath.exp(2j * math.pi * rng.random())
        for _ in range(n)
    )


def theta(spec: str, z: tuple[complex, ...]) -> tuple[complex, ...]:
    """Basic invariants of G(m,p,n): e_i(z_1^m, ..., z_n^m) for i < n and
    (z_1 ... z_n)^q, evaluated directly."""
    m, p, n = parse_spec(spec)
    powers = [x ** m for x in z]
    elem = [1.0 + 0j] + [0j] * n
    for x in powers:
        for i in range(n, 0, -1):
            elem[i] += elem[i - 1] * x
    return tuple(elem[1:n]) + (math.prod(z) ** (m // p),)


def eval_terms(terms: dict[tuple[int, ...], complex], z: tuple[complex, ...]) -> complex:
    return sum(c * math.prod(x ** k for x, k in zip(z, e)) for e, c in terms.items())


def sgn_kernel_closed_form(z: tuple[complex, ...], w: tuple[complex, ...]) -> complex:
    """Quotient Szego kernel of G(1,1,n) for the sign character, in base
    coordinates: prod_{i,j} 1 / (1 - z_i conj(w_j))."""
    out = 1.0 + 0j
    for a in z:
        for b in w:
            out /= 1.0 - a * b.conjugate()
    return out


class TrivialKernelOracle:
    """Group-averaged polydisc Szego kernel for the trivial character,
    (1/|G|) sum_g prod_i 1/(1 - (g z)_i conj(w_i)), summed over an
    enumeration of G(m,p,n) built here with numpy."""

    def __init__(self, spec: str):
        m, p, n = parse_spec(spec)
        self.perms = np.array(list(permutations(range(n))), dtype=np.intp)
        phases = np.array([ph for ph in product(range(m), repeat=n) if sum(ph) % p == 0])
        self.roots = np.exp(2j * np.pi * phases / m)

    def __call__(self, z, w) -> complex:
        gz = np.asarray(z)[self.perms][:, None, :] * self.roots[None, :, :]
        vals = np.prod(1.0 / (1.0 - gz * np.conj(np.asarray(w))), axis=-1)
        return complex(vals.mean())


def gram_deviation(polys) -> float:
    """max |<f_i, f_j> - delta_ij| for torus inner products, computed from
    the coefficient dictionaries (monomials are orthonormal on the torus)."""
    index: dict[tuple[int, ...], int] = {}
    for f in polys:
        for e in f.terms:
            index.setdefault(e, len(index))
    a = np.zeros((len(polys), len(index)), dtype=complex)
    for i, f in enumerate(polys):
        for e, c in f.terms.items():
            a[i, index[e]] = c
    gram = a @ a.conj().T
    return float(np.max(np.abs(gram - np.eye(len(polys))))) if len(polys) else 0.0


def shift_deviation(windows, q: int) -> float:
    """Largest |entry(b + q r, a + q r) - entry(b, a)| over every window of a
    family and every shift that stays inside it, relative to the family's
    largest entry: the diagonal-shift relation, read straight off the
    entry arrays."""
    scale = max([1.0] + [float(np.max(np.abs(w.entries))) for w in windows if w.entries.size])
    base = windows[0]
    worst = 0.0
    for w in windows:
        pos = {tuple(r): i for i, r in enumerate(w.reps)}
        for j, a in enumerate(base.reps):
            for i, b in enumerate(base.reps):
                v0 = base.entries[i, j]
                r = 1
                while True:
                    ii = pos.get(tuple(x + q * r for x in b))
                    jj = pos.get(tuple(x + q * r for x in a))
                    if ii is None or jj is None:
                        break
                    worst = max(worst, abs(w.entries[ii, jj] - v0) / scale)
                    r += 1
    return worst
