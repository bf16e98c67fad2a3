"""Szego kernels: closed forms on the polydisc, ball and the rank-2 type-III
Cartan domain; quotient kernels in closed form; the tetrablock kernel; and
truncated series kernels in quotient coordinates.  The pushforward-measure
integral is BasicMap.gram_block, one key join per Gram block, read by the
quotient windows and, one entry at a time, by QuotientRealization.moment
(toeplitz).

numpy is imported only in SeriesKernel, so every closed form, and
`hardyq kernel eval` on each of them, runs without it.
"""

from __future__ import annotations

import cmath
import math

from .groups import Character, Group, InputError, make_character, make_group
from .invariants import (
    BasicMap,
    EllPoly,
    basic_map,
    ell,
    index_set,
    lowered,
)

Point = tuple[complex, ...]


class DomainError(InputError):
    pass


# -- domains -----------------------------------------------------------------


def in_polydisc(z: Point) -> bool:
    return max(abs(x) for x in z) < 1.0


def in_ball(z: Point) -> bool:
    return sum(abs(x) ** 2 for x in z) < 1.0


def _sym2(z: Point) -> list[list[complex]]:
    """Identify (z1, z2, z3) with the symmetric matrix [[z1, z3], [z3, z2]]."""
    return [[z[0], z[2]], [z[2], z[1]]]


def in_cartan3_rank2(z: Point) -> bool:
    """I - Z Z* positive definite for the symmetric 2x2 matrix Z."""
    if len(z) != 3:
        return False
    Z = _sym2(z)
    # H = I - Z conj(Z)^T, Hermitian 2x2
    h11 = 1.0 - (Z[0][0] * Z[0][0].conjugate() + Z[0][1] * Z[0][1].conjugate())
    h22 = 1.0 - (Z[1][0] * Z[1][0].conjugate() + Z[1][1] * Z[1][1].conjugate())
    h12 = -(Z[0][0] * Z[1][0].conjugate() + Z[0][1] * Z[1][1].conjugate())
    det = h11.real * h22.real - abs(h12) ** 2
    return h11.real > 0 and det > 0


DOMAIN_PREDICATES = {
    "polydisc": in_polydisc,
    "ball": in_ball,
    "cartan3rank2": in_cartan3_rank2,
}


def check_point(domain: str, z: Point):
    pred = DOMAIN_PREDICATES.get(domain)
    if pred is None:
        raise DomainError(f"unknown domain tag {domain!r}")
    if not pred(tuple(z)):
        raise DomainError(f"point {z} is not in the {domain}")


# -- kernel specification ----------------------------------------------------


class KernelSpec:
    """Base kernel (no group) or quotient kernel (group + character + map).

    ell_rho is built on the first read of `ellp`: the series kernel and the
    reproducing check read it, quotient_kernel never does."""

    def __init__(self, domain: str, group: Group | None = None,
                 character: Character | None = None, bmap: BasicMap | None = None,
                 ellp: EllPoly | None = None):
        if domain not in DOMAIN_PREDICATES:
            raise DomainError(f"unknown domain tag {domain!r}")
        has_group = group is not None
        if has_group != (character is not None):
            raise DomainError("group and character must be given together")
        if has_group:
            if domain == "cartan3rank2":
                raise DomainError(
                    "quotient kernels are supported on the polydisc and ball; "
                    "the tetrablock case is hard-coded as tetrablock_kernel"
                )
            if domain == "ball" and group.spec.kind != "CyclicCoord":
                raise DomainError("ball quotients are provided for cyclic coordinate groups")
            if bmap is None:
                bmap = basic_map(group)
        self.domain = domain
        self.group = group
        self.character = character
        self.bmap = bmap
        self._ellp = ellp

    @property
    def ellp(self) -> EllPoly | None:
        if self._ellp is None and self.is_quotient:
            self._ellp = ell(self.character, domain=self.domain, bmap=self.bmap)
        return self._ellp

    @property
    def is_quotient(self) -> bool:
        return self.group is not None


def make_kernel_spec(domain: str, group_text: str | None = None,
                     character_name: str = "sgn") -> KernelSpec:
    group = make_group(group_text) if group_text else None
    char = make_character(group, character_name) if group else None
    return KernelSpec(domain, group, char)


# -- base kernels ------------------------------------------------------------


def base_kernel(spec: KernelSpec | str, z: Point, w: Point) -> complex:
    """Szego kernel of the base domain.

    polydisc: prod 1/(1 - z_j conj(w_j)); ball: (1 - <z, w>)^(-n);
    cartan3rank2: principal branch of det(I - Z W*)^(-3/2), guarded so the
    determinant stays in the right half plane.
    """
    domain = spec.domain if isinstance(spec, KernelSpec) else spec
    z, w = tuple(z), tuple(w)
    check_point(domain, z)
    check_point(domain, w)
    if domain == "polydisc":
        out = 1.0 + 0j
        for a, b in zip(z, w):
            out /= 1.0 - a * b.conjugate()
        return out
    if domain == "ball":
        s = sum(a * b.conjugate() for a, b in zip(z, w))
        return (1.0 - s) ** (-len(z))
    # cartan3rank2
    Z, W = _sym2(z), _sym2(w)
    Wst = [[W[j][i].conjugate() for j in range(2)] for i in range(2)]
    prod = [
        [sum(Z[i][k] * Wst[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    det = (1.0 - prod[0][0]) * (1.0 - prod[1][1]) - prod[0][1] * prod[1][0]
    if det.real <= 0:
        raise DomainError(
            f"branch guard violated: Re det(I - ZW*) = {det.real:.3g} <= 0"
        )
    return cmath.exp(-1.5 * cmath.log(det))


# -- quotient kernels --------------------------------------------------------


def quotient_kernel(spec: KernelSpec, z: Point, w: Point) -> complex:
    """Group-averaged kernel on the quotient, evaluated at base points:

        K(z, w) = (c^2/|G|) * (1/(ell(z) conj(ell(w)))) * sum_g conj(chi(g)) S(g z, w).

    It depends on (z, w) only through (theta(z), theta(w)) and extends
    holomorphically across the zeros of ell.  Every case is a closed form
    with no group sum and no division by ell: _polydisc_kernel (with
    _split_residue_kernel for the n = 2 split characters) and _ball_kernel.
    None reads spec.ellp, and the only error is DomainError for a point
    outside the domain.
    """
    if not spec.is_quotient:
        raise DomainError("quotient_kernel needs a group and character")
    z, w = tuple(z), tuple(w)
    # G acts by unitary monomial matrices, so g z is in the domain iff z is
    check_point(spec.domain, z)
    check_point(spec.domain, w)
    if spec.domain == "polydisc":
        return _polydisc_kernel(spec, z, w)
    return _ball_kernel(spec, z, w)


def _permanent_steps(group: Group) -> tuple:
    """The subset recursion of _permanent for n = group.n, built once per
    group: one (S, |S|, ((j, S | 2^j) for each column j not in S)) per
    column subset S < 2^n - 1, in increasing order of S."""
    got = group.derived.get("permanent_steps")
    if got is None:
        n = group.n
        got = group.derived["permanent_steps"] = tuple(
            (s, s.bit_count(), tuple((j, s | 1 << j) for j in range(n) if not s >> j & 1))
            for s in range((1 << n) - 1))
    return got


def _permanent(group: Group, rows: list[list[complex]]) -> complex:
    """perm M = sum_sigma prod_i M[i][sigma(i)] for the n x n matrix `rows`,
    in O(2^n n) complex operations instead of the O(n! n) of the sum over
    S_n.  f[S] is the sum, over the bijections of rows 0..|S|-1 onto the
    column subset S, of their products; f[{}] = 1 and

        f[S | {j}] += f[S] * M[|S|][j]      (j not in S),

    run over S in increasing order, so each f[S] is complete before it is
    read, and perm M = f[all columns].  Plain complex arithmetic, no numpy."""
    f = [0j] * (1 << group.n)
    f[0] = 1.0 + 0j
    for s, i, steps in _permanent_steps(group):
        v, row = f[s], rows[i]
        for j, t in steps:
            f[t] += v * row[j]
    return f[-1]


def _polydisc_kernel(spec: KernelSpec, z: Point, w: Point) -> complex:
    """The polydisc quotient kernel in closed form, at O(2^n n) cost for the
    permanent (_permanent) and O(n^2) otherwise, whatever |G|.

    Write g = D_phi P_sigma, x_ij = z_i conj(w_j) and s = prod_i x_ii.
    Summing over A first: sum_{phi in A} conj(chi(D_phi)) prod_i
    1/(1 - zeta^phi_i y_i) = (1/p) sum_t prod_i m y_i^r_i(t) / (1 - y_i^m),
    since each coordinate sum over Z_m is the filtered geometric series.
    The residues are r_i(t) = (b_i + q t) mod m for t = 0..p-1, with b the
    exponents of one extension phi -> zeta_m^(b . phi) of chi from A to
    (Z_m)^n; the p twists pick out A inside (Z_m)^n.  With
    |G| = m^n n!/p the group sum becomes

        K = (c^2/n!) sum_sigma chi(P_sigma)^-1 sum_t prod_j
            x_{j,sigma j}^r_{sigma j}(t) / (1 - x_{j,sigma j}^m)
            / (ell(z) conj(ell(w))).

    Uniform residues (r_i(t) = r(t) for every i; always so for n >= 3,
    since chi|_A is S_n-invariant) take the power s^r(t) out of the S_n sum.
    What is left is det M (chi(P) = sgn P) or perm M (chi(P) = 1), with
    M_ij = 1/(1 - z_i^m conj(w_j)^m).  Write V(a) = prod_{i<j} (a_i - a_j).
    ell is kappa (z_1...z_n)^a V(z^m) or kappa (z_1...z_n)^a, where
    a = min_t r(t) (the reflecting hyperplanes' exponents), and so
    c^2 = kappa^2 n! or kappa^2.  By Cauchy's determinant
    det M = V(z^m) conj(V(w^m)) / prod_ij (1 - z_i^m conj(w_j)^m), so ell
    cancels exactly and

        K = sum_t s^(q t) / prod_ij (1 - z_i^m conj(w_j)^m)     (chi(P) = sgn P),
        K = (1/n!) sum_t s^(q t) perm M                         (chi(P) = 1),

    since {r(t) - a} = {0, q, ..., (p-1) q}.  Neither form divides by ell,
    so neither has a singular point; both are independent of kappa.  Split
    residues occur for n = 2 only (rho1, rho2 on G(m,m,2) and custom
    characters with chi = -1 on diag(zeta, zeta^-1)): _split_residue_kernel.

    Z(m)@k^n: the coordinate-k sum is m x^r / (1 - x^m), ell = z_k^r and
    c^2 = 1 with r = the exponent of chi, so K = 1/(1 - x_kk^m) *
    prod_{j != k} 1/(1 - x_jj) for every character.
    """
    group = spec.group
    n, m = group.n, group.m
    if group.spec.kind == "CyclicCoord":
        k = group.spec.coord - 1
        out = 1.0 + 0j
        for i, (a, b) in enumerate(zip(z, w)):
            x = a * b.conjugate()
            out /= 1.0 - (x ** m if i == k else x)
        return out
    char = spec.character
    if any(char.diag[:n - 1]):
        return _split_residue_kernel(spec, z, w)
    s = 1.0 + 0j
    for a, b in zip(z, w):
        s *= a * b.conjugate()
    twist = sum(s ** (group.q * t) for t in range(group.p))
    zm = [a ** m for a in z]
    wm = [b.conjugate() ** m for b in w]
    if char.swap:
        out = twist
        for a in zm:
            for b in wm:
                out /= 1.0 - a * b
        return out
    cauchy = [[1.0 / (1.0 - a * b) for b in wm] for a in zm]
    return twist * _permanent(group, cauchy) / math.factorial(n)


def _split_residue_kernel(spec: KernelSpec, z: Point, w: Point) -> complex:
    """The n = 2 polydisc kernel with split residues in closed form.

    Split means chi(diag(zeta, zeta^-1)) = -1, so m is even; write h = m/2,
    X = z_1 conj(w_1), Y = z_2 conj(w_2), U = z_1 conj(w_2),
    V = z_2 conj(w_1), s = XY = UV and e = chi((1 2)) = +-1.  A split
    character extends to G(m,p,2) only for even p, and then the residues
    of the 2 x 2 twisted sum of _polydisc_kernel pair up as (rho, rho + h)
    and (rho + h, rho), rho = a + q j for j < p/2, with ell = kappa
    (z_1 z_2)^a (z_1^h + e z_2^h) and c_rho^2 = 2 kappa^2.  With
    A = X^h + Y^h and B = U^h + V^h the sum is

        s^a T (A (1 - U^m)(1 - V^m) + e B (1 - X^m)(1 - Y^m)) / prod (1 - x^m),

    T = sum_{j<p/2} s^(q j).  Since X^h Y^h = U^h V^h = s^h the numerator
    is (A + e B) ((1 + s^h)^2 - e A B), and A + e B = ellhat(z)
    conj(ellhat(w)), so ell cancels exactly and

        K = T ((1 + s^h)^2 - e A B) / ((1 - X^m)(1 - Y^m)(1 - U^m)(1 - V^m)).

    No term divides by ell, and the value is independent of kappa.
    """
    group = spec.group
    m, h, q = group.m, group.m // 2, group.q
    (z1, z2), (w1, w2) = z, (w[0].conjugate(), w[1].conjugate())
    xs = (z1 * w1, z2 * w2, z1 * w2, z2 * w1)
    x, y, u, v = (t ** h for t in xs)
    s = xs[0] * xs[1]
    sign = -1.0 if spec.character.swap else 1.0
    twist = sum(s ** (q * j) for j in range(group.p // 2))
    out = twist * ((1.0 + x * y) ** 2 - sign * (x + y) * (u + v))
    for t in xs:
        out /= 1.0 - t ** m
    return out


def _ball_coefficients(n: int, m: int, c: int) -> tuple[tuple[int, ...], int]:
    """(A_0, ..., A_{n-1}) and C(n-1+c, n-1) for _ball_kernel: A(u) / (1-u)^n
    = sum_i P(i) u^i with P(i) = C(n-1+c+m i, n-1) of degree n-1 in i, so
    A_j = sum_{i<=j} (-1)^(j-i) C(n, j-i) P(i), in exact integers."""
    P = [math.comb(n - 1 + c + m * i, n - 1) for i in range(n)]
    A = tuple(sum((-1) ** (j - i) * math.comb(n, j - i) * P[i] for i in range(j + 1))
              for j in range(n))
    return A, math.comb(n - 1 + c, n - 1)


def _ball_kernel(spec: KernelSpec, z: Point, w: Point) -> complex:
    """The ball quotient kernel of Z(m)@k^n in closed form.

    With a = z_k conj(w_k) and b = sum_{j != k} z_j conj(w_j), expand
    S(g z, w) = (1 - zeta^t a - b)^-n = sum_j C(n-1+j, j) zeta^(t j) a^j
    (1 - b)^(-n-j).  The character sum keeps j = c + m i, c the exponent of
    chi (chi(e_k) = zeta_m^c, 0 <= c < m), and ell = kappa z_k^c with
    c_rho^2 = kappa^2 / C(n-1+c, n-1) (the sphere norm of z_k^c), so a^c
    and kappa cancel:

        K = (1-b)^(-n-c) sum_i C(n-1+c+m i, n-1) u^i / C(n-1+c, n-1)
          = A(u) / (C(n-1+c, n-1) (1-b)^(n+c) (1-u)^n),   u = (a/(1-b))^m,

    with the integer coefficients of _ball_coefficients.  On the ball
    |a| + |b| < 1, so |u| < 1; nothing divides by ell.
    """
    group = spec.group
    n, m, k = group.n, group.m, group.spec.coord - 1
    char = spec.character
    c = char.diag[0] * m // char.den if char.diag else 0
    coeffs, scale = _ball_coefficients(n, m, c)
    a = z[k] * w[k].conjugate()
    b = sum(x * y.conjugate() for i, (x, y) in enumerate(zip(z, w)) if i != k)
    u = (a / (1.0 - b)) ** m
    num = 0j
    for coeff in reversed(coeffs):
        num = num * u + coeff
    return num / (scale * (1.0 - b) ** (n + c) * (1.0 - u) ** n)


def tetrablock_kernel(z: Point, w: Point, tol: float = 1e-12) -> complex:
    """Szego kernel of the image of the rank-2 type-III domain under
    (z1, z2, z3) -> (z1, z2, z3^2 - z1 z2), via the two-term average

        [S(z, w) - S((z1, z2, -z3), w)] / (4 z3 conj(w3)).

    Points with |z3| or |w3| <= tol lie on the branch locus of the map and
    are refused as input (DomainError).
    """
    z, w = tuple(z), tuple(w)
    check_point("cartan3rank2", z)
    check_point("cartan3rank2", w)
    if abs(z[2]) <= tol or abs(w[2]) <= tol:
        raise DomainError("z3 and w3 must stay away from the branch locus")
    flipped = (z[0], z[1], -z[2])
    num = base_kernel("cartan3rank2", z, w) - base_kernel("cartan3rank2", flipped, w)
    return num / (4.0 * z[2] * w[2].conjugate())


# -- series kernels in quotient coordinates ----------------------------------


class SeriesKernel:
    """Truncated expansion sum_m e_m(x) conj(e_m(y)) over the lowered
    orthonormal basis e_m = lower(gamma_m) (invariants.lowered), for points
    x = theta(z) in quotient coordinates; row r is e_{reps[r]}.

    The basis is flattened at build into a sparse table over the distinct
    exponents ("slots"): term k is coeffs[k] times the monomial of slot
    slots[k], and the terms of row r run from starts[r] to starts[r + 1]
    (each row is nonzero, so no run is empty).  A slot's exponent is kept as
    one flat index per coordinate, expo_i + i W, into the (n, W) table of
    powers x_i^k, k < W.  The table stays sparse: at D = 40 the sgn basis
    of G(1,1,2) has 820 elements over 820 exponents but 5,950 terms.
    Evaluation at a point is whole-array work with no loop over rows,
    terms or powers: one cumprod for the power table, a gather and product
    for the monomials, a gather by slot times the coefficients, and one
    reduceat that sums each row's terms in order."""

    def __init__(self, spec: KernelSpec, bound: int):
        if not spec.is_quotient:
            raise DomainError("series kernels need a group and character")
        import numpy as np

        self.spec = spec
        self.bound = bound
        self.reps = index_set(spec.character, bound, holomorphic=True).reps
        self.basis_down = [lowered(spec.ellp, spec.bmap, r) for r in self.reps]
        n = spec.group.n
        slot_of: dict[tuple[int, ...], int] = {}
        starts, slots, coeffs = [], [], []
        for e in self.basis_down:
            starts.append(len(slots))
            for expo, c in e.terms.items():
                slots.append(slot_of.setdefault(expo, len(slot_of)))
                coeffs.append(c)
        expos = np.array(list(slot_of), dtype=np.intp).reshape(-1, n)
        self._width = int(expos.max(initial=0)) + 1
        self._flat = np.ascontiguousarray(expos.T + self._width * np.arange(n)[:, None])
        self._starts = np.array(starts, dtype=np.intp)
        self._slots = np.array(slots, dtype=np.intp)
        self._coeffs = np.array(coeffs, dtype=complex)

    def _values(self, x: Point) -> np.ndarray:
        """e_m(x) for every basis element, in row order."""
        import numpy as np

        table = np.empty((len(self._flat), self._width), dtype=complex)
        table[:, 0] = 1.0
        table[:, 1:] = np.array(x, dtype=complex)[:, None]
        powers = table.cumprod(axis=1).ravel()
        monos = powers[self._flat].prod(axis=0)
        return np.add.reduceat(self._coeffs * monos[self._slots], self._starts)

    def eval(self, x: Point, y: Point) -> complex:
        return complex(self._values(x) @ self._values(y).conj())


# -- ellipsoid constants (reported, not asserted) ------------------------------


def ellipsoid_constants(m: int, n: int) -> dict:
    """Hardy-space norm of ell_sgn on the ball for the cyclic quotient
    z1 -> z1^m, recomputed from exact sphere monomial norms, next to the
    previously published values (c_{m,2} = 1, c_{m,3} = 2/(m+1)).  The two
    disagree; the recomputed value is what this package uses."""
    group = make_group(f"Z({m})@1^{n}")
    bmap = basic_map(group)
    char = make_character(group, "sgn")
    ellp = ell(char, domain="ball", bmap=bmap)
    recomputed_sq = float(ellp.cnorm_sq)
    published = {2: 1.0, 3: 2.0 / (m + 1)}.get(n)
    return {
        "m": m,
        "n": n,
        "c_squared_recomputed": recomputed_sq,
        "c_recomputed": ellp.cnorm,
        "c_published": published,
        "discrepancy": (
            published is not None
            and abs(recomputed_sq - published**2) > 1e-12 * max(recomputed_sq, 1.0)
        ),
        "note": "package uses the recomputed value; published constant kept for reference",
    }
