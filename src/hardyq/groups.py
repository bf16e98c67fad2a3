"""Monomial reflection groups G(m,p,n), coordinate cyclic groups, and their
one-dimensional characters.

Elements are monomial matrices: a permutation combined with m-th root of
unity phases.  The element g acts on points by

    (g z)_i = zeta_m^(phase_i) * z_{perm^{-1}(i)},

and on functions by composition, (R_g f)(z) = f(g z).  All phase arithmetic
is exact: phases are integers mod m, and a one-dimensional character is
stored as integer turns over the group's turn_den = lcm(2, m) on the
diagonal generators and on one transposition.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product


def root_of_unity(turn: Fraction | int) -> complex:
    """exp(2*pi*i*turn), exact at quarter turns so +-1 and +-i carry no noise."""
    t = Fraction(turn) % 1
    if t == 0:
        return complex(1.0, 0.0)
    if t == Fraction(1, 2):
        return complex(-1.0, 0.0)
    if t == Fraction(1, 4):
        return complex(0.0, 1.0)
    if t == Fraction(3, 4):
        return complex(0.0, -1.0)
    return cmath.exp(2j * math.pi * (t.numerator / t.denominator))


class InputError(ValueError):
    """A fault in what the caller asked for, not in the program: the CLI
    reports it with exit code 2."""


class GroupSpecError(InputError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """Which group to build: G(m,p,n) or the cyclic group Z_m acting on one
    coordinate of C^n (spec strings "G(m,p,n)" and "Z(m)@k^n")."""

    kind: str  # "Gmpn" | "CyclicCoord"
    m: int
    p: int
    n: int
    coord: int = 1  # 1-based, CyclicCoord only

    def __post_init__(self):
        if self.kind not in ("Gmpn", "CyclicCoord"):
            raise GroupSpecError(f"unknown group kind {self.kind!r}")
        if self.m < 1 or self.p < 1 or self.n < 1:
            raise GroupSpecError("m, p, n must be positive")
        if self.m % self.p != 0:
            raise GroupSpecError(f"p={self.p} does not divide m={self.m}")
        if self.kind == "Gmpn" and self.n < 2:
            raise GroupSpecError("G(m,p,n) requires n >= 2")
        if self.kind == "CyclicCoord":
            if self.p != 1:
                raise GroupSpecError("cyclic coordinate groups take p = 1")
            if not (1 <= self.coord <= self.n):
                raise GroupSpecError(f"coord={self.coord} out of range 1..{self.n}")

    def __str__(self) -> str:
        if self.kind == "Gmpn":
            return f"G({self.m},{self.p},{self.n})"
        return f"Z({self.m})@{self.coord}^{self.n}"


_GMPN_RE = re.compile(r"^G\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$")
_CYC_RE = re.compile(r"^Z\(\s*(\d+)\s*\)@(\d+)\^(\d+)$")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse "G(m,p,n)" or "Z(m)@k^n"."""
    s = text.strip()
    mo = _GMPN_RE.match(s)
    if mo:
        m, p, n = map(int, mo.groups())
        return GroupSpec("Gmpn", m, p, n)
    mo = _CYC_RE.match(s)
    if mo:
        m, k, n = map(int, mo.groups())
        return GroupSpec("CyclicCoord", m, 1, n, coord=k)
    raise GroupSpecError(f"cannot parse group spec {text!r}")


@dataclass(frozen=True)
class GroupElement:
    """perm[j] is the 0-based image of coordinate j; phase[i] is the phase
    exponent attached to row i, taken mod `mod`."""

    perm: tuple[int, ...]
    phase: tuple[int, ...]
    mod: int

    @property
    def n(self) -> int:
        return len(self.perm)

    def matrix(self) -> list[list[complex]]:
        """Dense monomial matrix: M[i][j] = zeta^phase_i if perm[j] == i."""
        n = self.n
        mat = [[0j] * n for _ in range(n)]
        for j in range(n):
            i = self.perm[j]
            mat[i][j] = root_of_unity(Fraction(self.phase[i], self.mod))
        return mat


def _invert_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for j, i in enumerate(perm):
        inv[i] = j
    return tuple(inv)


def _perm_parity(perm: tuple[int, ...]) -> int:
    """0 for even, 1 for odd."""
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


class Group:
    """G(m,p,n) or Z(m)@k^n in closed form from its spec.

    Both kinds split as G = A x| S: A is the diagonal-phase subgroup and S
    the zero-phase permutation elements (all of S_n for G(m,p,n), the
    identity for Z(m)@k^n), and every element is g = D_phase * P_perm.  The
    order, generators, hyperplanes and characters come from (m, p, n); no
    package path sums over all of G.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m = spec.m
        self.p = spec.p
        self.n = spec.n
        self.q = spec.m // spec.p
        self.identity = GroupElement(tuple(range(spec.n)), (0,) * spec.n, spec.m)
        # objects other modules derive from the group and its characters
        # (the basic map, the permanent's subset recursion), built on first use
        # and kept as long as the group
        self.derived: dict[object, object] = {}

    def __len__(self) -> int:
        if self.spec.kind == "Gmpn":
            return self.m ** self.n * math.factorial(self.n) // self.p
        return self.m

    def __str__(self) -> str:
        return str(self.spec)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Matrix product: perm composes, phases permute.

        (ab).perm(j) = a.perm(b.perm(j)),
        (ab).phase_i = a.phase_i + b.phase_{a.perm^{-1}(i)} (mod m).
        """
        if a.mod != self.m or b.mod != self.m:
            raise ValueError("element modulus does not match group")
        perm = tuple(a.perm[b.perm[j]] for j in range(self.n))
        a_inv = _invert_perm(a.perm)
        phase = tuple((a.phase[i] + b.phase[a_inv[i]]) % self.m for i in range(self.n))
        return GroupElement(perm, phase, self.m)

    def inv(self, g: GroupElement) -> GroupElement:
        perm = _invert_perm(g.perm)
        phase = tuple((-g.phase[g.perm[j]]) % self.m for j in range(self.n))
        return GroupElement(perm, phase, self.m)

    def perm_images(self) -> tuple[tuple[int, ...], ...]:
        """Distinct permutation parts, sorted: all of S_n for G(m,p,n), the
        identity for Z(m)@k^n; built once per group."""
        return self._perm_images

    @cached_property
    def _perm_images(self) -> tuple[tuple[int, ...], ...]:
        if self.spec.kind == "Gmpn":
            return tuple(permutations(range(self.n)))  # lexicographic, so sorted
        return (tuple(range(self.n)),)

    @cached_property
    def perm_order(self) -> int:
        """|S|, the number of permutation parts: n! for G(m,p,n), 1 for
        Z(m)@k^n."""
        return math.factorial(self.n) if self.spec.kind == "Gmpn" else 1

    @cached_property
    def diagonal_generators(self) -> tuple[GroupElement, ...]:
        """Generators of the diagonal-phase subgroup A: e_i - e_n (i < n) and
        p*e_n for G(m,p,n), e_k for Z(m)@k^n; reduced mod m, identities
        dropped."""
        n, m = self.n, self.m

        def unit(i: int, k: int = 1) -> list[int]:
            return [k if j == i else 0 for j in range(n)]

        if self.spec.kind == "Gmpn":
            vecs = [[a - b for a, b in zip(unit(i), unit(n - 1))] for i in range(n - 1)]
            vecs.append(unit(n - 1, self.p))
        else:
            vecs = [unit(self.spec.coord - 1)]
        phases = [tuple(x % m for x in v) for v in vecs]
        return tuple(GroupElement(tuple(range(n)), ph, m) for ph in phases if any(ph))

    def diagonal_coords(self, phase: tuple[int, ...]) -> tuple[int, ...]:
        """Exponents of D_phase in diagonal_generators: (phi_1, ...,
        phi_{n-1}, sum(phi)/p) for G(m,p,n), phi_k for Z(m)@k^n, with phases
        in 0..m-1."""
        if self.spec.kind == "Gmpn":
            coords = (*phase[:-1], sum(phase) // self.p)
        else:
            coords = (phase[self.spec.coord - 1],)
        # identities are dropped only from the end: all of them when m = 1,
        # p*e_n when p = m
        return coords[:len(self.diagonal_generators)]

    def phase_vectors(self):
        """The phase vectors of the diagonal subgroup A, lexicographic:
        those with sum divisible by p for G(m,p,n), the multiples of e_k for
        Z(m)@k^n.  Elements run perm-major over perm_images(), and inside
        each permutation over these."""
        if self.spec.kind == "CyclicCoord":
            k = self.spec.coord - 1
            return [tuple(a if i == k else 0 for i in range(self.n)) for a in range(self.m)]
        return [ph for ph in product(range(self.m), repeat=self.n) if sum(ph) % self.p == 0]

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        """A generating set of G: diagonal_generators, plus the n-1 adjacent
        zero-phase transpositions (i i+1) for G(m,p,n)."""
        if self.spec.kind != "Gmpn":
            return self.diagonal_generators
        zero = (0,) * self.n
        swaps = []
        for i in range(self.n - 1):
            perm = list(range(self.n))
            perm[i], perm[i + 1] = i + 1, i
            swaps.append(GroupElement(tuple(perm), zero, self.m))
        return self.diagonal_generators + tuple(swaps)

    @cached_property
    def turn_den(self) -> int:
        """N = lcm(2, m).  The abelianisation of G is generated by the images
        of a transposition (order 2) and the diagonal phases (order | m), so
        every one-dimensional character takes its values among the N-th
        roots of unity."""
        return math.lcm(2, self.m)

    # -- reflections -------------------------------------------------------

    def reflections(self) -> list["Hyperplane"]:
        """The reflecting hyperplanes in closed form, sorted by repr(key).

        G(m,p,n): z_i = zeta^t z_j for i < j and t mod m, fixed by the one
        reflection (i j) with phases t at i and -t at j (order 2); and, when
        q = m/p > 1, z_i = 0, fixed by the diagonal phases p*k at i for
        k = 1..q-1 (order q).  Z(m)@k^n: z_k = 0, of order m.  Each plane
        carries its key, the cyclic order m_i of its pointwise stabilizer,
        and the generator whose determinant is exp(2*pi*i/m_i).
        """
        n, m = self.n, self.m
        ident = tuple(range(n))

        def element(perm: tuple[int, ...], at: dict[int, int]) -> GroupElement:
            return GroupElement(perm, tuple(at.get(i, 0) % m for i in range(n)), m)

        def axis(i: int, step: int) -> Hyperplane:
            members = [element(ident, {i: a}) for a in range(step, m, step)]
            return Hyperplane(self, ("axis", i), members, m // step, members[0])

        if self.spec.kind == "CyclicCoord":
            planes = [axis(self.spec.coord - 1, 1)] if m > 1 else []
        else:
            planes = [axis(i, self.p) for i in range(n)] if self.q > 1 else []
            for i, j in combinations(range(n), 2):
                swap = list(ident)
                swap[i], swap[j] = j, i
                for t in range(m):
                    g = element(tuple(swap), {i: t, j: -t})
                    planes.append(Hyperplane(self, ("diff", i, j, t), [g], 2, g))
        return sorted(planes, key=lambda h: repr(h.key))


@dataclass
class Hyperplane:
    """One reflecting hyperplane with its cyclic pointwise stabilizer."""

    group: Group
    key: tuple
    members: list[GroupElement]  # the m_i - 1 reflections fixing it
    order: int  # m_i
    generator: GroupElement  # det = exp(2*pi*i/m_i)

    def coeffs(self) -> dict[int, complex]:
        """Linear form coefficients; first nonzero coefficient normalized to 1."""
        if self.key[0] == "axis":
            return {self.key[1]: 1.0 + 0j}
        _, i, j, t = self.key
        return {i: 1.0 + 0j, j: -root_of_unity(Fraction(t, self.group.m))}


def make_group(spec: GroupSpec | str) -> Group:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    elif not isinstance(spec, GroupSpec):
        raise GroupSpecError(f"cannot parse group spec {spec!r}")
    return Group(spec)


# -- characters -------------------------------------------------------------

# sgn before det so dedup keeps sgn when the two coincide (e.g. G(1,1,n))
BUILTIN_CHARACTERS = ("trivial", "sgn", "det", "rho1", "rho2")


class CharacterError(InputError):
    pass


class Character:
    """One-dimensional character stored as its turns on the generators.

    A character of S_n is trivial or the sign, so chi is fixed by integer
    turns over N = turn_den on Group.diagonal_generators (`diag`) and on
    one transposition (`swap`: 0 or N/2; 0 on Z(m)@k^n, which has none):
    turn(D_phase P_perm) = coords(phase) . diag + parity(perm) * swap mod N.
    Built-in forms are characters by construction; extend_from_generators
    checks every other one.
    """

    def __init__(self, group: Group, name: str, diag, swap: int):
        if len(diag) != len(group.diagonal_generators):
            raise CharacterError("one turn per diagonal generator required")
        self.group = group
        self.name = name
        self.den = group.turn_den
        self.diag = tuple(int(k) % self.den for k in diag)
        self.swap = int(swap) % self.den

    def _num(self, phase: tuple[int, ...], parity: int) -> int:
        """Turn numerator of D_phase P from the phase vector and P's parity."""
        coords = self.group.diagonal_coords(phase)
        return (sum(c * k for c, k in zip(coords, self.diag)) + parity * self.swap) % self.den

    def turn(self, g: GroupElement) -> Fraction:
        return Fraction(self._num(g.phase, _perm_parity(g.perm)), self.den)

    def value(self, g: GroupElement) -> complex:
        return root_of_unity(self.turn(g))

    def element_nums(self) -> list[int]:
        """Turn numerators for every element, perm-major over perm_images()
        and phase_vectors() inside: each permutation's parity * swap shifts
        one block of diagonal numerators."""
        block = [self._num(phase, 0) for phase in self.group.phase_vectors()]
        return [(k + _perm_parity(perm) * self.swap) % self.den
                for perm in self.group.perm_images() for k in block]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.group is other.group
            and self.diag == other.diag
            and self.swap == other.swap
        )

    def __hash__(self):
        return hash((id(self.group), self.diag, self.swap))

    def to_json(self) -> dict:
        """Turns as reduced fractions [index, numerator, denominator]."""
        values = []
        for i, k in enumerate(self.element_nums()):
            d = math.gcd(k, self.den)
            values.append([i, k // d, self.den // d])
        return {"group": str(self.group.spec), "name": self.name, "values": values}


def extend_from_generators(
    group: Group, assignments: dict[GroupElement, Fraction], name="custom"
) -> Character:
    """Extend generator turn assignments multiplicatively over the group.

    Each turn must be a multiple of 1/turn_den, the only values a character
    of the group can take.  Breadth-first closure from the identity; any
    conflicting product is reported with the violating pair, and generators
    that fail to generate the whole group are rejected.  The closure checks
    chi(g s) = chi(g) chi(s) for every element g and every given generator
    s, which by induction on word length is multiplicativity: this is the
    one character check.  The character's form is then read off the closure
    at the diagonal generators and at the transposition (0 1).
    """
    den = group.turn_den
    gens = []
    for s, t in assignments.items():
        k = Fraction(t) * den
        if k.denominator != 1:
            raise CharacterError(
                f"inconsistent generator value: turn {Fraction(t)} of "
                f"({s.perm},{s.phase}) is not a multiple of 1/{den}, so no "
                f"character of {group.spec} takes it"
            )
        gens.append((s, int(k) % den))
    nums: dict[GroupElement, int] = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, ks in gens:
                h = group.mul(g, s)
                k = (nums[g] + ks) % den
                if h in nums:
                    if nums[h] != k:
                        raise CharacterError(
                            f"inconsistent generator values: element reached with "
                            f"turns {Fraction(nums[h], den)} and {Fraction(k, den)} via "
                            f"({g.perm},{g.phase})*({s.perm},{s.phase})"
                        )
                else:
                    nums[h] = k
                    nxt.append(h)
        frontier = nxt
    if len(nums) != len(group):
        raise CharacterError("generators do not generate the group")
    swaps = group.generators[len(group.diagonal_generators):]  # (0 1) first, if any
    return Character(group, name, [nums[d] for d in group.diagonal_generators],
                     nums[swaps[0]] if swaps else 0)


def make_character(group: Group, source: str | dict[GroupElement, Fraction]) -> Character:
    """Built-in characters by name, or a custom one from generator values.

    Built-ins: trivial, det, sgn = det^{-1}; rho1 and rho2 exist on G(k,k,2)
    with k even (delta = diag(zeta_k, zeta_k^{-1}), the one diagonal
    generator there, -> -1, with sigma -> +1 resp. delta*sigma -> +1).
    """
    if isinstance(source, dict):
        return extend_from_generators(group, source)
    name = source
    den = group.turn_den
    half = den // 2 if group.spec.kind == "Gmpn" else 0  # Z(m)@k^n has no transposition
    det = [sum(d.phase) * (den // group.m) for d in group.diagonal_generators]
    if name == "trivial":
        return Character(group, name, [0] * len(det), 0)
    if name == "det":
        return Character(group, name, det, half)
    if name == "sgn":
        return Character(group, name, [-k for k in det], -half)
    if name in ("rho1", "rho2"):
        spec = group.spec
        if spec.kind != "Gmpn" or spec.n != 2 or spec.p != spec.m or spec.m % 2:
            raise CharacterError(f"{name} requires G(k,k,2) with k even")
        # rho2(delta*sigma) = 1 forces rho2(sigma) = -1
        return Character(group, name, [den // 2], 0 if name == "rho1" else half)
    raise CharacterError(f"unknown character {source!r}")


def builtin_characters(group: Group) -> list[Character]:
    """All built-in characters that exist on this group, deduplicated."""
    chars: list[Character] = []
    for name in BUILTIN_CHARACTERS:
        try:
            c = make_character(group, name)
        except CharacterError:
            continue
        if all(c != d for d in chars):
            chars.append(c)
    return chars
