"""Exact Toeplitz computations on the quotient Hardy spaces of the polydisc,
plus verifiers for the operator identities: shift relations, product and
commuting correspondences across realizations, bidisc semi-commutator
criteria, symbol recovery from far-out entries checked on stabilized
windows, and the compactness probe.

Everything here is a finite Laurent-polynomial pairing; no quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct

import numpy as np

from .groups import Character, Group, GroupSpecError, InputError, make_character
from .invariants import (
    BasicMap,
    GammaBasis,
    _projects_nonzero,
    _signed_orbit,
    basic_map,
    ell,
    index_set,
    lowered,
    rewrite_in_theta,
)
from .laurent import (
    Expo,
    LaurentPoly,
    harmonic_extension,
    invariance_residual,
    orbit_exponents,
    sort_sign,
    torus_inner,
    wirtinger_D,
)

RESIDUAL_TOL = 1e-10


class SymbolError(InputError):
    pass


class WindowMarginError(InputError):
    """Window too small for the requested comparison; message names the
    required bound."""


class RecoveryError(InputError):
    pass


# -- symbols -----------------------------------------------------------------


@dataclass
class SymbolPair:
    """A bounded symbol on the quotient boundary, stored through its
    pullback u o theta: a G-invariant Laurent polynomial on the torus.  The
    representation in quotient coordinates (a polynomial in t and conj t) is
    computed on demand and cached.

    Invariance is checked on Group.generators only: a symbol fixed by every
    generator is fixed by G.  R_g permutes coefficients and multiplies them
    by roots of unity, so it preserves the coefficient sup-norm, and
    R_{gh} u - u = R_h (R_g u - u) + (R_h u - u): the residual of a word of
    length L in the generators (G is finite, so no inverses are needed) is
    at most L times the largest generator residual.  Each generator
    residual, max |(R_g u - u)_b| read off u's coefficients in one pass by
    laurent.invariance_residual (no polynomial is built), must stay within
    1e-9 * scale."""

    group: Group
    pullback: LaurentPoly
    _theta_form: LaurentPoly | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.pullback.dim != self.group.n:
            raise SymbolError("symbol dimension does not match the group")
        scale = max(self.pullback.max_abs_coeff(), 1.0)
        for g in self.group.generators:
            if not invariance_residual(g, self.pullback) <= 1e-9 * scale:
                raise SymbolError("pullback symbol is not G-invariant")

    def radius(self) -> int:
        return self.pullback.degree_radius()

    def theta_form(self, bmap: BasicMap) -> LaurentPoly:
        """u as a polynomial in (t, conj t) of dimension 2n: clear torus
        denominators with the monomial components theta_j (unimodular on the
        torus), rewrite in theta coordinates, then restore conj(t_j)^K_j."""
        if self._theta_form is not None:
            return self._theta_form
        gbar = [0] * self.group.n
        cleared = self.pullback
        for j, comp in enumerate(bmap.components):
            if len(comp.terms) == 1:
                shift, = comp.terms
                worst = max([0] + [-x for e in cleared.terms for x, y in zip(e, shift) if y])
                gbar[j] = -(-worst // max(shift))  # ceil
                cleared = cleared * bmap.power(j, gbar[j])
        analytic_t = rewrite_in_theta(bmap, cleared)
        self._theta_form = LaurentPoly(2 * len(gbar), {e + tuple(gbar): c
                                                       for e, c in analytic_t.terms.items()})
        return self._theta_form


# -- Hardy projections and the operator action --------------------------------


def hol_project(f: LaurentPoly) -> LaurentPoly:
    """Hardy projection on the polydisc: drop every term with a negative
    exponent.  The kept terms need no cleanup: a sub-dict of clean terms is
    clean, since its floor can only drop."""
    return LaurentPoly._wrap(f.dim, {e: c for e, c in f.terms.items() if min(e) >= 0})


def apply_toeplitz(symbol: SymbolPair, f: LaurentPoly) -> LaurentPoly:
    """T_u f = P(u f) on the full Hardy space, P the negative-exponent cut;
    exact.  On an isotypic f the product u f stays isotypic (u is
    G-invariant), so this is also T_u on the component."""
    return hol_project(symbol.pullback * f)


# -- windows ------------------------------------------------------------------


def _fill(items: list, column, pair) -> np.ndarray:
    """out[i, j] = pair(column(items[j]), items[i]), with column evaluated
    once per item.  The square-window loop of the recovery's base and
    stabilized windows, and of the test oracles' column routes.  Ambient
    symbol windows and the isotypic product route read WindowTable
    instead, the monomial route pairs by an owner map, the quotient route
    reads MomentWindows."""
    out = np.zeros((len(items), len(items)), dtype=complex)
    for j, a in enumerate(items):
        col = column(a)
        for i, b in enumerate(items):
            out[i, j] = pair(col, b)
    return out


@dataclass
class ToeplitzWindow:
    character: Character
    bound: int
    reps: list[Expo]
    entries: np.ndarray  # entries[i, j] = <T gamma_reps[j], gamma_reps[i]>

    def __post_init__(self):
        self.pos = {r: i for i, r in enumerate(self.reps)}

    @property
    def group(self) -> Group:
        return self.character.group

    def entry(self, row: Expo, col: Expo):
        i = self.pos.get(tuple(row))
        j = self.pos.get(tuple(col))
        if i is None or j is None:
            return None
        return complex(self.entries[i, j])

    def scale(self) -> float:
        """max(largest |entry|, 1), the scale the checks judge a window
        against.  Raises InputError on a NaN or infinite entry: no
        violation measured against it would be reported."""
        top = float(np.max(np.abs(self.entries))) if self.entries.size else 0.0
        if not math.isfinite(top):  # np.max propagates NaN
            raise InputError("window entries must be finite; found NaN or inf")
        return max(top, 1.0)

    def to_json(self) -> dict:
        return {
            "character": self.character.name,
            "group": str(self.group.spec),
            "bound": self.bound,
            "rows": [list(r) for r in self.reps],
            "cols": [list(r) for r in self.reps],
            "entries": [
                [[self.entries[i, j].real, self.entries[i, j].imag]
                 for j in range(len(self.reps))]
                for i in range(len(self.reps))
            ],
        }


class WindowTable:
    """Exact integer tables for the ambient windows of one (character value,
    bound).  gamma_r = F_r P~z^r with P~ = |S| P_chi (`_signed_orbit`, integer
    weights) and F_r = GammaBasis.factor(r), and gamma_i is analytic and
    isotypic, so the Hardy projection is absorbed and

        <T_u gamma_j, gamma_i> = F_i F_j sum_e c_e W_e[i, j],
        W_e[i, j] = <z^e P~z^{r_j}, P~z^{r_i}>,

    an integer.  The table holds the window reps, each rep's signed orbit
    (read from its orbit template, so O(|orbit|) to build, not O(|S|)),
    the owner map b -> (row, weight) (the reps' orbits are disjoint) and, on
    first use of each symbol exponent e, W_e as sorted flat indices i k + j
    with int64 weights: one nonzero at most per column and image of the
    column's orbit, so at most k |S| for k reps.  One table per
    exponent, not per orbit, so a symbol whose coefficients differ within an
    orbit (SymbolPair accepts invariance to 1e-9) is still paired exactly.
    A permutation sigma in S scales every signed-orbit weight at sigma b by
    the same chi(sigma) = +-1, so W_{sigma e} = W_e: one build serves e's
    whole orbit.  shared() keeps one table per (character value, bound) in
    Group.derived."""

    def __init__(self, character: Character, bound: int):
        self.group = character.group
        self.reps = list(index_set(character, bound, holomorphic=True).reps)
        basis = GammaBasis.shared(character)
        factor = np.array([basis.factor(r) for r in self.reps], dtype=float)
        self.factors = np.outer(factor, factor).ravel()
        self.orbits = [_signed_orbit(character, r) for r in self.reps]
        self.owner = {b: (i, w) for i, orbit in enumerate(self.orbits) for b, w in orbit.items()}
        self.tables: dict[Expo, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def shared(cls, character: Character, bound: int) -> WindowTable:
        key = ("window_table", character.diag, character.swap, bound)
        derived = character.group.derived
        got = derived.get(key)
        if got is None:
            got = derived[key] = cls(character, bound)
        return got

    def table(self, e: Expo) -> tuple[np.ndarray, np.ndarray]:
        """W_e as (flat indices i k + j, ascending; int64 weights), built once
        per orbit of e."""
        got = self.tables.get(e)
        if got is None:
            k = len(self.reps)
            acc: dict[int, int] = {}
            for j, orbit in enumerate(self.orbits):
                for b, w in orbit.items():
                    hit = self.owner.get(tuple(x + y for x, y in zip(b, e)))
                    if hit is not None:
                        flat = hit[0] * k + j
                        acc[flat] = acc.get(flat, 0) + w * hit[1]
            flat = sorted(f for f, v in acc.items() if v)
            got = (np.array(flat, dtype=np.intp), np.array([acc[f] for f in flat], dtype=np.int64))
            for image in orbit_exponents(self.group, e):
                self.tables[image] = got
        return got

    def entries(self, terms: dict[Expo, complex]) -> np.ndarray:
        """The window of the symbol with these torus terms: one bincount of
        the real parts and one of the imaginary parts over the concatenated
        tables, in ascending exponent order, scaled by F (x) F.  Each entry's
        sum runs in an order fixed by the symbol alone."""
        k = len(self.reps)
        index, real, imag = [], [], []
        for e in sorted(terms):
            flat, weight = self.table(e)
            c = complex(terms[e])
            index.append(flat)
            real.append(weight * c.real)
            imag.append(weight * c.imag)
        out = np.zeros(k * k, dtype=complex)
        if index:
            index = np.concatenate(index)
            out.real = np.bincount(index, np.concatenate(real), k * k) * self.factors
            out.imag = np.bincount(index, np.concatenate(imag), k * k) * self.factors
        return out.reshape(k, k)


def _check_basis(basis: GammaBasis | None, character: Character) -> None:
    if basis is not None and (basis.domain != "polydisc" or basis.character != character):
        raise ValueError("basis must be the polydisc gamma basis of the window's character")


def toeplitz_window(symbol: SymbolPair, character: Character, bound: int,
                    basis: GammaBasis | None = None) -> ToeplitzWindow:
    """Matrix of <T_u gamma_p, gamma_m> over the canonical index set with
    sup-norm <= bound, read from the exact integer WindowTable of
    (character, bound).  `basis`, if given, must be the polydisc gamma basis
    of `character` (ValueError otherwise); the table's factors are its
    factors."""
    _check_basis(basis, character)
    table = WindowTable.shared(character, bound)
    if bound < symbol.radius():
        warnings.warn(
            f"window bound {bound} is below the symbol degree radius "
            f"{symbol.radius()}; edge entries will not determine the symbol",
            stacklevel=2,
        )
    return ToeplitzWindow(character, bound, list(table.reps), table.entries(symbol.pullback.terms))


# -- Brown-Halmos window verification -----------------------------------------


@dataclass
class BHReport:
    max_violation: float
    worst_pair: tuple | None
    checked_pairs: int
    relation_max: dict[str, float]

    @property
    def ok(self) -> bool:
        return self.max_violation <= RESIDUAL_TOL

    def to_json(self) -> dict:
        return {
            "max_violation": self.max_violation,
            "worst_pair": repr(self.worst_pair),
            "checked_pairs": self.checked_pairs,
            "relation_max": self.relation_max,
            "ok": self.ok,
        }


def _shift(rep: Expo, k: int) -> Expo:
    return tuple(x + k for x in rep)


def _theta_gamma(basis: GammaBasis, u: LaurentPoly, rep: Expo) -> dict[Expo, float]:
    """u * gamma_rep over `basis` for an invariant u = sum_e c_e z^e, by the
    G-module identity u * |S| P_chi z^r = sum_e c_e |S| P_chi z^(r+e) and
    |S| P_chi z^(tau s) = chi(tau) |S| P_chi z^s: with gamma_r = F_r |S| P_chi z^r
    (F = basis.factor), the coefficient of gamma_s, s = sorted(r + e), is
    (F_r / F_s) sum_e c_e chi(tau_e), chi(tau_e) the sign of sorting r + e
    when swap is nonzero.  A term drops when, swap nonzero, s repeats a
    value (its projection vanishes).  z^s passes the diagonal test exactly
    when z^rep does, since the diagonal subgroup fixes every z^e of the
    invariant u, and basis.factor(rep) raises KeyError when z^rep fails it.
    No polynomial product; keys in increasing order."""
    swap = basis.character.swap
    counts: dict[Expo, int] = {}
    for e, c in u.terms.items():
        v = tuple(x + y for x, y in zip(rep, e))
        sign = sort_sign(v) if swap else 1
        if sign:
            s = tuple(sorted(v))
            counts[s] = counts.get(s, 0) + c * sign
    factor = basis.factor(rep)
    return {s: k * (factor / basis.factor(s)) for s, k in sorted(counts.items()) if k}


class _ShiftRelation:
    """Gather plan of relation (a): the reps whose shift by q stays inside
    the window (rows b and columns a alike) and the np.ix_ grids of the
    shifted and unshifted pairs."""

    name = "shift"

    def __init__(self, shift_q: np.ndarray):
        live = np.flatnonzero(shift_q >= 0)
        self.rows = self.cols = live
        self._shifted = np.ix_(shift_q[live], shift_q[live])
        self._pairs = np.ix_(live, live)

    def residual(self, entries: np.ndarray) -> np.ndarray:
        return entries[self._shifted] - entries[self._pairs]


class _CrossRelation:
    """Gather plan of relation (b) for one i: the rows b whose expansion of
    theta_{i+1} gamma_b stays inside the window, the columns a whose
    expansion of theta_{n-i-1} gamma_a and shift by m stay inside, the
    shifted columns, and each side's expansion terms as a (width x rows)
    resp. (width x columns) index and coefficient array: term k of a row or
    column sits in array row k, in increasing order of rep, index 0 and
    coefficient 0 past the expansion's size.  The left coefficients are
    conjugated.  O(width k) memory for k reps, width the most terms of one
    expansion (at most the terms of theta_j)."""

    def __init__(self, name: str, left: tuple, right: tuple, shift_m: np.ndarray):
        (l_index, l_coef, l_inside), (r_index, r_coef, r_inside) = left, right
        self.name = name
        self.rows = np.flatnonzero(l_inside)
        self.cols = np.flatnonzero(r_inside & (shift_m >= 0))
        self._shifted = shift_m[self.cols]
        self._left = list(zip(l_index[:, self.rows], np.conj(l_coef[:, self.rows])))
        self._right = list(zip(r_index[:, self.cols], r_coef[:, self.cols]))

    def residual(self, entries: np.ndarray) -> np.ndarray:
        """lhs - rhs over rows x columns from one gather of the shifted
        columns and one of the rows.  Each side adds one term per k, in
        increasing k, to a zero start, so each entry rounds as the scalar
        sum over its terms does; on finite entries a padded term adds a
        signed zero, which leaves every magnitude unchanged."""
        shifted = entries[:, self._shifted]
        lhs = np.zeros((self.rows.size, self.cols.size), dtype=complex)
        for index, coef in self._left:
            lhs += coef[:, None] * shifted[index]
        inner = entries[self.rows]
        rhs = np.zeros_like(lhs)
        for index, coef in self._right:
            rhs += coef * inner[:, index]
        return lhs - rhs


class ShiftTable:
    """The index side of the shift relations and of the compactness probe
    on one window's reps, shared by every symbol.  Built with the table:
    the position of each rep shifted by q (theta_n) and by m (theta_n^p),
    -1 where the shifted rep leaves the window.  Built on the first
    bh_check, with the expansions of theta_{i+1} gamma_r and
    theta_{n-i-1} gamma_r for i in 0..n-2 (_theta_gamma, one per component
    and rep): the gather plan of each relation (_ShiftRelation,
    _CrossRelation), O(width k) memory for k reps.  Built on the first
    compactness_probe against each base window's reps: the probe plan
    (probe()), at most k_base^2 floor(D / q) pairs of flat indices for
    this window's bound D, 16 bytes a pair.  A warm call only gathers.
    shared() keeps one table per (character, reps) on the basic map."""

    def __init__(self, character: Character, reps: list[Expo], bmap: BasicMap):
        self.character = character
        self.bmap = bmap
        self.reps = list(reps)
        self.pos = {r: i for i, r in enumerate(self.reps)}
        group = character.group
        self.shift_q = self.positions(self.reps, group.q)
        self.shift_m = self.positions(self.reps, group.m)  # theta_n^p: q * p = m
        self._relations: list | None = None
        self._probes: dict[tuple[Expo, ...], tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def shared(cls, window: ToeplitzWindow, bmap: BasicMap) -> ShiftTable:
        key = (window.character, tuple(window.reps))
        got = bmap.shift_tables.get(key)
        if got is None:
            got = bmap.shift_tables[key] = cls(window.character, window.reps, bmap)
        return got

    def positions(self, reps: list[Expo], k: int) -> np.ndarray:
        """Position of each rep + k in this window, -1 when outside."""
        return np.array([self.pos.get(_shift(r, k), -1) for r in reps], dtype=np.intp)

    def relations(self, basis: GammaBasis | None = None) -> list:
        """Relation (a), then one cross relation per i (reported as
        cross_{i+1}), as gather plans, built once."""
        if self._relations is None:
            basis = basis or GammaBasis.shared(self.character)
            n = self.character.group.n
            packed = [self._pack([_theta_gamma(basis, theta, r) for r in self.reps])
                      for theta in self.bmap.components[:n - 1]]
            self._relations = [_ShiftRelation(self.shift_q)] + [
                _CrossRelation(f"cross_{i + 1}", packed[i], packed[n - i - 2], self.shift_m)
                for i in range(n - 1)]
        return self._relations

    def _pack(self, expansions: list[dict[Expo, float]]) -> tuple:
        """The expansions of every rep as (width x reps) index and
        coefficient arrays, zero past each expansion's size, and the mask
        of the reps whose expansion stays inside the window."""
        width = max(map(len, expansions), default=0)
        index = np.zeros((width, len(self.reps)), dtype=np.intp)
        coef = np.zeros((width, len(self.reps)), dtype=complex)
        inside = np.zeros(len(self.reps), dtype=bool)
        for r, terms in enumerate(expansions):
            if all(s in self.pos for s in terms):
                index[:len(terms), r] = [self.pos[s] for s in terms]
                coef[:len(terms), r] = list(terms.values())
                inside[r] = True
        return index, coef, inside

    def probe(self, reps: list[Expo]) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices (into the square window over `reps`, into this
        window) of every pair (a, b) of `reps` against (a + rq, b + rq) in
        this window, for r = 1, 2, ... while both stay inside; built once
        per reps."""
        key = tuple(reps)
        got = self._probes.get(key)
        if got is None:
            empty = np.zeros(0, dtype=np.intp)
            src, dst = [empty], [empty]
            at = self.positions(reps, self.character.group.q)
            while (live := np.flatnonzero(at >= 0)).size:
                src.append((live[:, None] * len(reps) + live).ravel())
                dst.append((at[live][:, None] * len(self.reps) + at[live]).ravel())
                at = np.where(at >= 0, self.shift_q[at], -1)
            got = self._probes[key] = (np.concatenate(src), np.concatenate(dst))
        return got


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, equal to Python's abs() to the last bit (np.abs is
    not on complex input)."""
    return np.hypot(z.real, z.imag)


def bh_check(window: ToeplitzWindow, bmap: BasicMap,
             basis: GammaBasis | None = None) -> BHReport:
    """Verify the shift relations of a window against the basic map of
    G(m,p,n), restricted to pairs whose shifted and expanded indices stay
    inside the window:

        (a)  <T theta_n g_a, theta_n g_b> = <T g_a, g_b>
        (b)  <T theta_n^p g_a, theta_i g_b> = <T theta_{n-i} g_a, g_b>

    The expansions gamma -> theta_j gamma come from the G-module identity
    (_theta_gamma), with no polynomial product.  The first call on a
    window's reps builds them into the gather plans of its ShiftTable
    (O(width k) memory for k reps); every call then reads the entries with
    a few gathers per relation.  `basis`, if given, must be the polydisc
    gamma basis of the window's character (ValueError otherwise); it
    supplies the expansions' gamma factors.  The cross sums add one
    expansion term at a time in increasing order of rep, so each entry
    rounds as the scalar sum over its terms does.  Reports the worst
    violation, the first in the order (relation, a, b) on ties; never
    raises on one.  A window with a NaN or infinite entry raises
    InputError (ToeplitzWindow.scale) before any table is read.
    """
    group = window.group
    if group.spec.kind != "Gmpn":
        raise GroupSpecError("the shift relations are stated for G(m,p,n) quotients")
    _check_basis(basis, window.character)
    scale = window.scale()
    table = ShiftTable.shared(window, bmap)
    worst = 0.0
    worst_pair = None
    checked = 0
    rel_max = {"shift": 0.0}
    for rel in table.relations(basis):
        diff = rel.residual(window.entries)
        if not diff.size:
            continue
        v = _magnitude(diff) / scale
        checked += v.size
        top = float(v.max())
        rel_max[rel.name] = max(0.0, top)
        if top > worst:
            a, b = divmod(int(v.T.argmax()), rel.rows.size)  # a outer, b inner
            worst, worst_pair = top, (rel.name, table.reps[rel.cols[a]], table.reps[rel.rows[b]])
    return BHReport(worst, worst_pair, checked, rel_max)


# -- products, commutators, correspondences ------------------------------------


@dataclass
class CompareReport:
    mode: str
    verdict: bool
    max_residual: float
    reps: list[Expo]
    residuals: np.ndarray
    scale: float

    @classmethod
    def _judge(cls, mode: str, reps: list[Expo], residuals: np.ndarray,
               scale: float) -> CompareReport:
        """Verdict: the largest residual entry is at most RESIDUAL_TOL * scale."""
        max_res = float(np.max(np.abs(residuals))) if residuals.size else 0.0
        return cls(mode, max_res <= RESIDUAL_TOL * scale, max_res, reps, residuals, scale)

    def to_json(self) -> dict:
        """The verdict with what it was judged against: the scale, the
        tolerance RESIDUAL_TOL * scale and the [row, col] reps of the first
        largest residual entry (None for an empty window)."""
        worst = None
        if self.residuals.size:
            i, j = np.unravel_index(np.argmax(np.abs(self.residuals)), self.residuals.shape)
            worst = [list(self.reps[i]), list(self.reps[j])]
        return {
            "mode": self.mode,
            "verdict": bool(self.verdict),
            "max_residual": self.max_residual,
            "scale": self.scale,
            "tolerance": RESIDUAL_TOL * self.scale,
            "worst": worst,
            "reps": [list(r) for r in self.reps],
        }


def _check_margin(symbols: list[SymbolPair], bound: int) -> None:
    radius = sum(s.radius() for s in symbols)
    if bound < radius:
        raise WindowMarginError(
            f"window bound {bound} is below the combined symbol radius; "
            f"need D >= {radius}"
        )


def product_compare(u: SymbolPair, v: SymbolPair | None, mode: str,
                    character: Character, bound: int,
                    chain: list[SymbolPair] | None = None) -> CompareReport:
    """Entries of T_u T_v - T_{uv} (semi), T_u T_v - T_v T_u (commute), or
    of the product chain T_{s_1} ... T_{s_k} (zeroProduct)
    over the window of reps with sup-norm <= bound, as products of the
    WindowTable windows A_s of one wider table.

    Every gamma_k is analytic and isotypic, so T_v gamma_j = sum_k
    A_v[k, j] gamma_k and <T_u T_v gamma_j, gamma_i> = sum_k A_u[i, k]
    A_v[k, j].  A term needs k reachable from j through v and from i
    through conj(u), so |k| <= bound + min(r_u, r_v).  In a chain the k
    between s_t and s_{t+1} is reachable from j through the factors to its
    right and from i through the conjugates of those to its left, so
    |k| <= bound + min(r_1 + ... + r_t, r_{t+1} + ... + r_k); the table's
    width is the largest of these over the cuts t (min(r_u, r_v) for two
    factors).  At that width every sum is complete, and any wider table
    gives the same entries.  The inner reps are the table's reps with
    sup-norm <= bound, in the (total degree, lex) order of
    index_set(character, bound).  The margin requirement keeps the window
    verdict meaningful for the symbols' degree range."""
    if mode == "zeroProduct":
        symbols = [s for s in (chain if chain is not None else [u, v]) if s is not None]
        if not symbols:
            raise ValueError("a product chain needs at least one symbol")
    elif mode in ("semi", "commute"):
        symbols = [u, v]
    else:
        raise ValueError(f"unknown comparison mode {mode!r}")
    radii = [s.radius() for s in symbols]
    width = max((min(sum(radii[:t]), sum(radii[t:])) for t in range(1, len(radii))), default=0)
    _check_margin(symbols, bound)
    table = WindowTable.shared(character, bound + width)
    inner = np.array([i for i, r in enumerate(table.reps) if max(r) <= bound], dtype=np.intp)
    windows = [table.entries(s.pullback.terms) for s in symbols]
    if mode == "semi":
        uv = table.entries((u.pullback * v.pullback).terms)
        res = windows[0][inner] @ windows[1][:, inner] - uv[np.ix_(inner, inner)]
    elif mode == "commute":
        a, b = windows
        res = a[inner] @ b[:, inner] - b[inner] @ a[:, inner]
    else:
        cols = windows[-1][:, inner]
        for a in reversed(windows[:-1]):
            cols = a @ cols
        res = cols[inner]
    reps = [table.reps[i] for i in inner]
    return CompareReport._judge(mode, reps, res, _verdict_scale(symbols))


def _verdict_scale(symbols: list[SymbolPair]) -> float:
    """max(prod of the symbols' largest coefficients, 1): the one scale every
    route and the derivative criterion judge a product residual against."""
    return max(math.prod(s.pullback.max_abs_coeff() for s in symbols), 1.0)


# -- quotient-realization entries via the pushforward measure ------------------


class QuotientRealization:
    """Operator entries computed on the quotient side: functions live in
    theta coordinates and inner products go through the pushforward measure
    (torus integrals against |ell|^2), never through the lift unitary.
    Agreement with the ambient windows is the unitary-equivalence check.

    Functions are (t, conj t) polynomials of dimension 2n.  The measure
    enters only through its moments, memoised: the package's one pushforward
    integral, a torus pairing once pushed through theta, so the moment of
    t^b conj(t)^c is the integer Gram entry BasicMap.gram.  Operator windows
    on the lowered basis e_r = basis_down(r) are read from MomentWindows,
    one per (wide bound, inner bound), built from the moments and the
    lowered basis alone.  Use shared() to reuse the moments, the lowered
    basis and the windows' blocks across comparisons."""

    def __init__(self, character: Character, bmap: BasicMap):
        self.character = character
        self.group = character.group
        self.bmap = bmap
        self.ellp = ell(character, bmap=bmap)
        self._down: dict[Expo, LaurentPoly] = {}
        self._reps: dict[int, list[Expo]] = {}
        self._moments: dict[Expo, complex] = {}
        self._windows: dict[tuple[int, int], MomentWindows] = {}

    @classmethod
    def shared(cls, character: Character, bmap: BasicMap) -> QuotientRealization:
        """The realisation of `character` kept on `bmap`: one per (group,
        character), since basic_map keeps one map per group."""
        got = bmap.quotients.get(character)
        if got is None:
            got = bmap.quotients[character] = cls(character, bmap)
        return got

    def basis_down(self, rep: Expo) -> LaurentPoly:
        got = self._down.get(tuple(rep))
        if got is None:
            n = self.group.n
            low = lowered(self.ellp, self.bmap, rep)
            got = LaurentPoly(2 * n, {e + (0,) * n: c for e, c in low.terms.items()})
            self._down[tuple(rep)] = got
        return got

    def reps(self, bound: int) -> list[Expo]:
        """index_set(character, bound).reps, listed once per bound."""
        got = self._reps.get(bound)
        if got is None:
            got = self._reps[bound] = list(index_set(self.character, bound).reps)
        return got

    def moment(self, key: Expo) -> complex:
        """mu(key) for key = b + c, the moment of t^b conj(t)^c: the integer
        Gram entry <theta^b ell, theta^c ell> of BasicMap.gram."""
        got = self._moments.get(key)
        if got is None:
            n = self.group.n
            got = self._moments[key] = complex(self.bmap.gram(self.character, key[:n], key[n:]))
        return got

    def windows(self, wide: int, inner: int) -> MomentWindows:
        """The MomentWindows of (wide, inner), built once."""
        got = self._windows.get((wide, inner))
        if got is None:
            got = self._windows[(wide, inner)] = MomentWindows(self, wide, inner)
        return got


class MomentWindows:
    """Quotient-side windows M_s[i, k] = <s e_k, e_i> in L^2 of the
    pushforward measure, scaled by 1/c^2 so the lowered basis is
    orthonormal, for theta-form symbols s = sum s_(alpha beta) t^alpha
    conj(t)^beta.  With E the lowered basis as a matrix (one row per theta
    exponent of its elements, one column per rep; real, since each element
    is an integer row times a real scale),

        M_s = (1/c^2) sum_(alpha beta) s_(alpha beta) E_rows^T G E_cols,
        G[l, j] = mu(alpha + j, beta + l),

    the moments of realisation.moment: the pairing of t^(alpha + j)
    conj(t)^beta with t^l.  Each theta_i is homogeneous, so theta^b ell is
    homogeneous of degree deg ell + sum_i b_i deg theta_i, and mu(b, c) = 0
    unless b and c have the same weighted degree: G is read from the
    moments only there, which skips most entries, and is exactly zero
    elsewhere.  On Z(m)@k^n each theta^b ell is one monomial, so only the
    mu(b, b) are read.  The inner reps are index_set(character, inner),
    the wide reps index_set(character, wide).  Each side keeps one real block
    E_rows^T G E_cols / c^2 per theta exponent, built on first use from
    the moments and the lowered basis alone, and only over the reps that
    side pairs: "left" is inner x wide (the left factor of a product),
    "right" wide x inner (the right factor), "inner" inner x inner.  A warm
    window is a sum of scaled blocks; the blocks saturate, since the
    symbols of one radius reach finitely many theta exponents."""

    SIDES = {"left": ("inner", "wide"), "right": ("wide", "inner"), "inner": ("inner", "inner")}

    def __init__(self, realization: QuotientRealization, wide: int, inner: int):
        self.realization = realization
        self.bounds = {"inner": inner, "wide": wide}
        self._bases: dict[str, tuple] = {}
        self.blocks: dict[tuple[Expo, str], np.ndarray] = {}

    @cached_property
    def _weights(self) -> list[int]:
        return [comp.total_degree() for comp in self.realization.bmap.components]

    def _degree(self, b: Expo) -> int:
        return sum(x * w for x, w in zip(b, self._weights))

    def reps(self, name: str) -> list[Expo]:
        """The inner or the wide reps."""
        return self.realization.reps(self.bounds[name])

    def _basis(self, name: str) -> tuple[list[Expo], dict[int, list[int]], np.ndarray]:
        """The theta exponents of the lowered elements of the reps of `name`
        (t halves, sorted), their positions grouped by weighted degree, and
        E: E[l, k] the coefficient of t^l in e_k; built once."""
        got = self._bases.get(name)
        if got is None:
            qr = self.realization
            n = qr.group.n
            down = [qr.basis_down(r).terms for r in self.reps(name)]
            exps = sorted({a[:n] for terms in down for a in terms})
            pos = {a: l for l, a in enumerate(exps)}
            matrix = np.zeros((len(exps), len(down)))
            for k, terms in enumerate(down):
                for a, c in terms.items():
                    matrix[pos[a[:n]], k] = c
            by_degree: dict[int, list[int]] = {}
            for l, a in enumerate(exps):
                by_degree.setdefault(self._degree(a), []).append(l)
            got = self._bases[name] = (exps, by_degree, matrix)
        return got

    def block(self, key: Expo, side: str) -> np.ndarray:
        """E_rows^T G E_cols / c^2 of the theta exponent key on `side`."""
        got = self.blocks.get((key, side))
        if got is None:
            qr = self.realization
            n = qr.group.n
            alpha, beta = key[:n], key[n:]
            (rows, row_degree, e_rows), (cols, col_degree, e_cols) = (
                self._basis(name) for name in self.SIDES[side])
            gram = np.zeros((len(rows), len(cols)))
            if qr.group.spec.kind == "CyclicCoord":
                # theta^b ell is one monomial, so mu(b, c) = 0 unless b = c
                row_of = {a: l for l, a in enumerate(rows)}
                for j, col in enumerate(cols):
                    a = tuple(x + y for x, y in zip(alpha, col))
                    l = row_of.get(tuple(x - y for x, y in zip(a, beta)))
                    if l is not None:
                        gram[l, j] = qr.moment(a + a).real
            else:
                offset = self._degree(alpha) - self._degree(beta)
                for d, ls in row_degree.items():
                    for j in col_degree.get(d - offset, ()):
                        a = tuple(x + y for x, y in zip(alpha, cols[j]))
                        for l in ls:
                            gram[l, j] = qr.moment(
                                a + tuple(x + y for x, y in zip(beta, rows[l]))).real
            got = self.blocks[(key, side)] = e_rows.T @ gram @ e_cols / float(qr.ellp.cnorm_sq)
        return got

    def window(self, terms: dict[Expo, complex], side: str) -> np.ndarray:
        """M_s on `side` for the theta form with these terms, summed in
        ascending exponent order."""
        rows, cols = (len(self.reps(name)) for name in self.SIDES[side])
        out = np.zeros((rows, cols), dtype=complex)
        for key in sorted(terms):
            out += terms[key] * self.block(key, side)
        return out


def _monomial_route_compare(u: SymbolPair, v: SymbolPair, mode: str,
                            character: Character, bound: int) -> CompareReport:
    """Same comparison computed on the full-Hardy monomial window restricted
    to the isotypic basis: each column is the polynomial (compared
    operator) gamma_j, built by products and the plain negative-exponent
    cut with no isotypic projection step (multiplication by invariant
    symbols keeps the component invariant, so the verdicts must match
    product_compare), and paired with every gamma_i in one sorted pass over
    the column: the gamma_i have disjoint supports (distinct orbits), so an
    owner map sends each exponent to its row and the conjugate coefficient,
    and each entry gets torus_inner's additions in torus_inner's order."""
    if mode not in ("semi", "commute"):
        raise ValueError("monomial route supports semi and commute modes")
    _check_margin([u, v], bound)
    if mode == "semi":
        uv = SymbolPair(u.group, u.pullback * v.pullback)

        def column(g: LaurentPoly) -> LaurentPoly:
            return apply_toeplitz(u, apply_toeplitz(v, g)) - apply_toeplitz(uv, g)
    else:

        def column(g: LaurentPoly) -> LaurentPoly:
            return apply_toeplitz(u, apply_toeplitz(v, g)) - apply_toeplitz(v, apply_toeplitz(u, g))

    basis = GammaBasis.shared(character)
    reps = list(index_set(character, bound, holomorphic=True).reps)
    gammas = [basis(r) for r in reps]
    owner = {e: (i, c.conjugate()) for i, g in enumerate(gammas) for e, c in g.terms.items()}
    res = np.zeros((len(reps), len(reps)), dtype=complex)
    for j, g in enumerate(gammas):
        terms = column(g).terms
        acc = [0j] * len(reps)
        for e in sorted(terms):
            hit = owner.get(e)
            if hit is not None:
                acc[hit[0]] += terms[e] * hit[1]
        res[:, j] = acc
    return CompareReport._judge(mode, reps, res, _verdict_scale([u, v]))


def _quotient_route_compare(u: SymbolPair, v: SymbolPair, mode: str,
                            character: Character, bmap: BasicMap,
                            bound: int) -> CompareReport:
    """Same comparison computed entirely on the quotient side: functions in
    theta coordinates, inner products through the pushforward measure.
    T_v e_a projected onto the lowered basis up to bound + r_v is
    sum_k M_v[k, a] e_k, so <T_u T_v e_a, e_b> = sum_k M_u[b, k] M_v[k, a]
    over the MomentWindows of (bound + r_v, bound): semi subtracts
    M_uv[b, a], commute the same product over (bound + r_u, bound) with u
    and v swapped."""
    if mode not in ("semi", "commute"):
        raise ValueError("quotient route supports semi and commute modes")
    qr = QuotientRealization.shared(character, bmap)
    reps = qr.reps(bound)
    if not reps:  # an empty window: skip listing and lowering the wide reps
        return CompareReport._judge(mode, reps, np.zeros((0, 0)), _verdict_scale([u, v]))
    uh = u.theta_form(bmap)
    vh = v.theta_form(bmap)
    table = qr.windows(bound + v.radius(), bound)
    res = table.window(uh.terms, "left") @ table.window(vh.terms, "right")
    if mode == "semi":
        res -= table.window((uh * vh).terms, "inner")
    else:
        swapped = qr.windows(bound + u.radius(), bound)
        res -= swapped.window(vh.terms, "left") @ swapped.window(uh.terms, "right")
    return CompareReport._judge(mode, reps, res, _verdict_scale([u, v]))


@dataclass
class CorrespondenceReport:
    mode: str
    verdicts: dict  # (character name, route) -> bool
    residuals: dict  # (character name, route) -> float
    agree: bool

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "verdicts": {f"{k[0]}/{k[1]}": bool(v) for k, v in self.verdicts.items()},
            "max_residuals": {f"{k[0]}/{k[1]}": v for k, v in self.residuals.items()},
            "agree": self.agree,
        }


def correspondence_check(u: SymbolPair, v: SymbolPair, characters: list[Character],
                         bound: int, mode: str = "semi",
                         quotient_bound: int | None = None) -> CorrespondenceReport:
    """Run the product comparison on every listed isotypic component and in
    three realizations (isotypic windows, the restricted full-Hardy monomial
    window, and quotient-side pushforward windows); the product and
    commuting correspondences say all verdicts agree.  The quotient route
    judges the same window bound as the other two unless quotient_bound is
    given: on a smaller window an operator can vanish where it does not at
    `bound`.

    A disagreement is reported in detail, never raised: it would indicate a
    computation bug, not a property of the symbols.
    """
    bmap = basic_map(u.group)
    qb = quotient_bound if quotient_bound is not None else bound
    verdicts: dict = {}
    residuals: dict = {}
    for char in characters:
        amb = product_compare(u, v, mode, char, bound)
        mono = _monomial_route_compare(u, v, mode, char, bound)
        quo = _quotient_route_compare(u, v, mode, char, bmap, qb)
        for route, rep in (("isotypic", amb), ("monomial", mono), ("quotient", quo)):
            verdicts[(char.name, route)] = rep.verdict
            residuals[(char.name, route)] = rep.max_residual
    agree = len(set(verdicts.values())) <= 1
    return CorrespondenceReport(mode, verdicts, residuals, agree)


# -- bidisc semi-commutator criterion ------------------------------------------


@dataclass
class Semd2Report:
    d1_zero: bool
    d2_zero: bool
    d12_zero: bool
    window_verdict: bool

    @property
    def symbolic_verdict(self) -> bool:
        return self.d1_zero and self.d2_zero and self.d12_zero

    @property
    def consistent(self) -> bool:
        return self.symbolic_verdict == self.window_verdict

    def to_json(self) -> dict:
        return {
            "D1_zero": self.d1_zero,
            "D2_zero": self.d2_zero,
            "D12_zero": self.d12_zero,
            "symbolic_verdict": self.symbolic_verdict,
            "window_verdict": self.window_verdict,
            "consistent": self.consistent,
        }


def semd2_check(u: SymbolPair, v: SymbolPair, character: Character,
                bound: int | None = None) -> Semd2Report:
    """Symbolic test of the three derivative conditions for T_u T_v = T_{uv}
    on quotients of the bidisc, cross-checked against the exact window
    residual.

    D1 is tested on disc x torus (coordinate 2 reduced to the torus), D2 on
    torus x disc, D12 on the bidisc; each must vanish identically.
    """
    group = u.group
    if group.n != 2:
        raise GroupSpecError("the derivative criterion applies to bidisc quotients")
    uh = harmonic_extension(u.pullback)
    vh = harmonic_extension(v.pullback)
    tol = RESIDUAL_TOL * _verdict_scale([u, v])

    def reduced_zero(p: LaurentPoly, coords: tuple[int, ...]) -> bool:
        """p is zero with conj(z_i) folded into z_i^-1 for i in coords."""
        folded: dict[Expo, complex] = {}
        for e, c in p.terms.items():
            f = list(e)
            for i in coords:
                f[i], f[group.n + i] = e[i] - e[group.n + i], 0
            folded[tuple(f)] = folded.get(tuple(f), 0) + c
        return LaurentPoly(p.dim, folded).is_zero(tol=tol)

    d1 = wirtinger_D(uh, vh, "D1")
    d2 = wirtinger_D(uh, vh, "D2")
    d12 = wirtinger_D(uh, vh, "D12")
    d1_zero = reduced_zero(d1, (1,))
    d2_zero = reduced_zero(d2, (0,))
    d12_zero = reduced_zero(d12, ())

    if bound is None:
        bound = 2 * (u.radius() + v.radius()) + 2
    window = product_compare(u, v, "semi", character, bound)
    return Semd2Report(d1_zero, d2_zero, d12_zero, window.verdict)


# -- symbol recovery ------------------------------------------------------------


@dataclass
class RecoveryResult:
    symbol: SymbolPair
    coefficients: dict[Expo, complex]
    residual: float
    stabilization_shifts: int

    def to_json(self) -> dict:
        return {
            "coefficients": [
                {"rep": list(k), "c": [c.real, c.imag]}
                for k, c in sorted(self.coefficients.items())
            ],
            "residual": self.residual,
            "stabilization_shifts": self.stabilization_shifts,
        }


def symbol_recover(entry_fn, character: Character, bmap: BasicMap,
                   base_bound: int = 4, max_shifts: int = 8) -> RecoveryResult:
    """Recover the symbol of an operator from its entries on the gamma
    basis: every invariant symbol u of sup-norm radius <= base_bound is
    recovered from T_u.  entry_fn(col_rep, row_rep) must return
    <T gamma_col, gamma_row> for holomorphic canonical reps.

    On G(m,p,n) the window of reps of sup-norm <= D = base_bound must
    satisfy the shift relations (bh_check); on Z(m)@k^n, where they are not
    stated, the window check below is the gate.  The window is stabilized
    along the diagonal shift.  Each coefficient is then one entry far out,
    at the anchor p of _spread_anchor (p >= D, sorted gaps > 2D).  For u = sum_b c_b z^b with |b| <= D and canonical e
    with |e| <= D (so p + e is canonical), gamma_p and gamma_{p+e} are
    signed sums of z^(sigma p) and z^(tau (p+e)) over S, and sigma p + b =
    tau (p+e) means p_{sigma^-1 i} - p_{tau^-1 i} = e_{tau^-1 i} - b_i, at
    most 2D in size, so sigma = tau and b = sigma e.  p and p + e have
    distinct coordinates, so both weights are chi(sigma) = +-1 and F_p =
    F_{p+e} = 1/sqrt(|S|): <T_u gamma_p, gamma_{p+e}> = (1/|S|) sum_sigma
    c_{sigma e}, the orbit average of u's coefficient, c_e for invariant u.
    e runs over the trivial index set: an invariant u carries no other
    exponent, and z^e is fixed by the diagonal phases, so gamma_{p+e} is of
    p's character.  u = sum_e c_e sum_{b in orbit(e)} z^b, less the c_e of
    size <= 1e-12 * scale.  The window is then a check: `residual` is
    max |stabilized - u's window|, and above RESIDUAL_TOL * scale it raises
    RecoveryError naming the worst entry."""
    group = character.group
    q = group.q
    table = WindowTable.shared(character, base_bound)
    reps = list(table.reps)
    if not reps:
        raise RecoveryError("empty index window; increase base_bound")

    window = ToeplitzWindow(character, base_bound, reps, _fill(reps, lambda a: a, entry_fn))
    if group.spec.kind == "Gmpn":
        report = bh_check(window, bmap)
        if not report.ok:
            raise RecoveryError(
                f"entries violate the shift relations (max violation "
                f"{report.max_violation:.3g} at {report.worst_pair}); "
                "not a Toeplitz window"
            )

    scale = window.scale()
    shifts: list[int] = []

    def stabilize(a: Expo, b: Expo) -> complex:
        prev = window.entry(b, a)
        r = 0
        while True:
            r += 1
            sa, sb = _shift(a, q * r), _shift(b, q * r)
            cur = window.entry(sb, sa)
            if cur is None:
                cur = entry_fn(sa, sb)
            if abs(cur - prev) < RESIDUAL_TOL * scale:
                shifts.append(r)
                return cur
            if r >= max_shifts:
                raise RecoveryError(
                    f"entry at ({a}, {b}) does not stabilize along the "
                    f"diagonal shift after {max_shifts} steps"
                )
            prev = cur

    stabilized = _fill(reps, lambda a: a, stabilize)

    anchor = _spread_anchor(character, base_bound)
    coefficients: dict[Expo, complex] = {}
    for e in index_set(make_character(group, "trivial"), base_bound, holomorphic=False).reps:
        c = complex(entry_fn(anchor, tuple(x + y for x, y in zip(anchor, e))))
        if abs(c) > 1e-12 * scale:
            coefficients[e] = c
    terms = {b: c for e, c in coefficients.items() for b in orbit_exponents(group, e)}

    deviation = _magnitude(stabilized - table.entries(terms))
    i, j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    residual = float(deviation[i, j])
    if residual > RESIDUAL_TOL * scale:
        raise RecoveryError(f"recovered symbol misses the stabilized window by {residual:.3g}"
                            f" at ({reps[j]}, {reps[i]}); not T_u with radius <= {base_bound}")
    return RecoveryResult(SymbolPair(group, LaurentPoly(group.n, terms)), coefficients,
                          residual, max(shifts, default=0))


def _spread_anchor(character: Character, bound: int) -> Expo:
    """A holomorphic canonical rep of the character's component, >= bound in
    every coordinate, with gaps > 2 * bound: coordinates bound + i * spread
    plus offsets below 2m, found by a small offset search."""
    spread = 2 * bound + 2 * character.group.m
    base = tuple(bound + i * spread for i in range(character.group.n))
    for off in iproduct(range(2 * character.group.m), repeat=len(base)):
        cand = tuple(b + o for b, o in zip(base, off))
        if _projects_nonzero(character, cand):
            return cand
    raise RecoveryError("no spread anchor index found for this character")


def window_entry_fn(symbol: SymbolPair, character: Character):
    """Exact Toeplitz entry oracle for symbol_recover round trips."""
    basis = GammaBasis.shared(character)

    def fn(col: Expo, row: Expo) -> complex:
        return torus_inner(symbol.pullback * basis(col), basis(row))

    return fn


# -- compactness probe -----------------------------------------------------------


@dataclass
class CompactnessReport:
    max_shift_deviation: float
    persistent_entries: list[tuple]
    zero_window: bool

    @property
    def compatible_with_compact(self) -> bool:
        """Nonzero entries persist along every shift, so only the zero
        window is compatible with compactness."""
        return self.zero_window

    def to_json(self) -> dict:
        return {
            "max_shift_deviation": self.max_shift_deviation,
            "persistent_entries": [repr(t) for t in self.persistent_entries],
            "zero_window": self.zero_window,
            "compatible_with_compact": self.compatible_with_compact,
        }


def compactness_probe(windows: list[ToeplitzWindow], bmap: BasicMap) -> CompactnessReport:
    """Check entry constancy along the diagonal shift inside and across a
    family of windows; persistent nonzero entries rule out compactness.
    Each pair (a, b) of the first window is compared with (a + rq, b + rq)
    of every window for r = 1, 2, ... while both stay inside it.  The
    pairs come from the probe plan on each window's ShiftTable, built on
    the first call per base reps (ShiftTable.probe); a warm call is one
    gather, one subtraction and one max per window.  A window with a NaN
    or infinite entry raises InputError (ToeplitzWindow.scale) before any
    gather."""
    max_dev = 0.0
    scale = max(w.scale() for w in windows)
    base = windows[0]
    v0 = base.entries
    for w in windows:
        src, dst = ShiftTable.shared(w, bmap).probe(base.reps)
        if dst.size:
            dev = np.take(w.entries, dst) - np.take(v0, src)
            max_dev = max(max_dev, float(_magnitude(dev).max()) / scale)
    keep = np.argwhere((_magnitude(v0) > RESIDUAL_TOL * scale).T)  # a outer, b inner
    persistent = [(base.reps[a], base.reps[b], complex(v0[b, a])) for a, b in keep.tolist()]
    return CompactnessReport(max_dev, persistent, not persistent)
