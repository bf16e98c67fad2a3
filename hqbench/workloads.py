"""The four benchmark workloads: seeded inputs, set-up, operations and checks.

An operation ("op") is one user-level query that ends in a checked verdict
or value.  A round is one pass over a workload's fixed list of ops; every
round has the same op kinds and sizes, and only the seeded inputs change
from round to round, so runs with different seeds do the same amount of
work.  Each op records a span around every call it makes into a hardyq
module; checks run after the op and use the oracles in inputs.py.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

import inputs as inp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RESIDUAL_TOL = 1e-10    # BH / compactness / Gram residuals, relative to scale
ROUNDTRIP_TOL = 1e-9    # lower(lift(f)) - f, relative to max |coefficient|
KERNEL_TOL = 1e-8       # kernel values against the oracles, relative
CLI_TIMEOUT_S = 120


class Op(NamedTuple):
    kind: str                          # span name suffix, e.g. "window"
    label: str                         # kind plus group and size
    run: Callable[[object], object]    # tracer -> output
    check: Callable[[object], str | None]  # output -> problem or None


class CliFailure(RuntimeError):
    pass


class Flagged(str):
    """A check problem the library reported itself (a route disagreement or
    a violated relation in its own report).  Like an exception, it counts as
    a failed op; a problem of plain type is a wrong output the library did
    not flag, which makes the run incorrect."""


class WrongOutput(RuntimeError):
    """A known-failure probe found its defect fixed, but the output it now
    produces contradicts an oracle."""


class KnownFailure(NamedTuple):
    """A call that fails today, made once per run after timing and kept out
    of every op and timing, so the timed loop has no failing op while the
    defect stays visible.  `run` returns the failure if it is still there,
    None once it is fixed (the output is then checked; a wrong one raises
    WrongOutput)."""
    label: str
    run: Callable[[], str | None]


def import_hardyq():
    """Import hardyq from this checkout's src/ and nowhere else."""
    if not (SRC / "hardyq" / "__init__.py").is_file():
        raise ImportError(f"no hardyq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hardyq
    if Path(hardyq.__file__).resolve().parent != SRC / "hardyq":
        raise ImportError(f"hardyq was imported from {hardyq.__file__}, not {SRC}")
    return hardyq


def _coeff_deviation(a, b) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(e, 0j) - b.terms.get(e, 0j)) for e in keys), default=0.0)


def _rel(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def _pair_points(rng, spec, count, rmax, separated=False):
    """(z, w) base points; `separated` keeps z and w off the zero set of
    ell_sgn for G(1,1,n), where coordinates coincide."""
    _, _, n = inp.parse_spec(spec)
    out = []
    while len(out) < count:
        z = inp.random_point(rng, n, rmax)
        w = inp.random_point(rng, n, rmax)
        if separated and min(abs(a - b) for p in (z, w) for a, b in combinations(p, 2)) < 0.05:
            continue
        out.append((z, w))
    return out


# -- shared set-up ---------------------------------------------------------------


def build_groups(tr, specs, characters, kernel_chars=()):
    """Group, character and basic-map construction for every spec; kernel
    specs for the (spec, character) pairs whose kernels are evaluated."""
    hq = import_hardyq()
    from hardyq.invariants import basic_map, ell
    from hardyq.kernels import KernelSpec

    ctx = {}
    for spec in specs:
        with tr.span("groups.build", spec):
            g = hq.make_group(spec)
        tr.count("groups.elements", len(g))
        with tr.span("groups.characters", spec):
            chars = {name: hq.make_character(g, name) for name in characters}
        with tr.span("invariants.basic_map", spec):
            bm = basic_map(g)
        with tr.span("invariants.ell", spec):
            ells = {name: ell(ch, bmap=bm) for name, ch in chars.items()}
        ctx[spec] = {"group": g, "chars": chars, "bmap": bm, "ell": ells, "kspec": {}}
    for spec, name in kernel_chars:
        c = ctx[spec]
        with tr.span("kernels.spec", spec):
            c["kspec"][name] = KernelSpec("polydisc", c["group"], c["chars"][name],
                                          bmap=c["bmap"], ellp=c["ell"][name])
    return ctx


# -- windows -----------------------------------------------------------------------


class Windows:
    """Window fill, bh_check and the compactness probe on |G| <= 8."""

    groups = ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)")
    # G(1,1,2) twice so the median op is a G(1,1,2) op, not a boundary
    # between two op kinds of different cost
    slots = ("G(1,1,2)", "G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)")
    bounds = (4, 6, 8)
    round_s = 0.35   # about one round's wall time on a 2-vCPU Xeon VM

    def inputs(self, rng):
        return [inp.symbol_json(rng, spec, radius=2, terms=4) for spec in self.slots]

    def setup(self, tr):
        return build_groups(tr, self.groups, ("sgn",))

    def round_ops(self, ctx, symbols, r):
        return [self._op(ctx[spec], spec, sym) for spec, sym in zip(self.slots, symbols)]

    def _op(self, c, spec, sym_json):
        from hardyq.laurent import LaurentPoly
        from hardyq.toeplitz import (GammaBasis, SymbolPair, bh_check,
                                     compactness_probe, toeplitz_window)
        g, ch, bm = c["group"], c["chars"]["sgn"], c["bmap"]

        def run(tr):
            with tr.span("laurent.from_json", spec):
                poly = LaurentPoly.from_json(sym_json)
            with tr.span("toeplitz.symbol", spec):
                sym = SymbolPair(g, poly)
            basis = GammaBasis(ch)
            wins = []
            for d in self.bounds:
                with tr.span("toeplitz.window", f"{spec}/D{d}"):
                    wins.append(toeplitz_window(sym, ch, d, basis=basis))
                tr.count("toeplitz.window_entries", len(wins[-1].reps) ** 2)
            with tr.span("toeplitz.bh_check", f"{spec}/D{self.bounds[-1]}"):
                bh = bh_check(wins[-1], bm, basis=basis)
            tr.count("toeplitz.bh_pairs", bh.checked_pairs)
            tr.count("toeplitz.bh_window_pairs", g.n * len(wins[-1].reps) ** 2)
            with tr.span("toeplitz.compactness", spec):
                comp = compactness_probe(wins, bm)
            return wins, bh, comp, [basis(r) for r in wins[-1].reps]

        def check(out):
            wins, bh, comp, gammas = out
            for name, v in (("bh_check", bh.max_violation),
                            ("compactness", comp.max_shift_deviation)):
                if not v <= RESIDUAL_TOL:
                    return Flagged(f"{name} residual {v:.3g} > {RESIDUAL_TOL}")
            own = max(inp.shift_deviation(wins, g.q), inp.shift_deviation(wins[-1:], g.q))
            for name, v in (("shift relation", own), ("gram", inp.gram_deviation(gammas))):
                if not v <= RESIDUAL_TOL:
                    return f"{name} residual {v:.3g} > {RESIDUAL_TOL}"
            if bh.checked_pairs == 0:
                return "bh_check checked no pairs"
            return None

        return Op("window", f"window {spec}", run, check)


# -- quotient ------------------------------------------------------------------------


TH1 = {(1, 0): 1.0, (0, 1): 1.0}  # theta_1 = z_1 + z_2 on G(1,1,2)


def _poly2(terms):
    return {"dim": 2, "terms": [{"c": [c, 0.0], "e": list(e)} for e, c in sorted(terms.items())]}


CURATED = (
    # (label, u, v, verdict of every route for T_u T_v = T_uv)
    ("coanalytic*analytic", _poly2({(-a, -b): c for (a, b), c in TH1.items()}), _poly2(TH1), True),
    ("mixed*mixed", _poly2({**TH1, **{(-a, -b): c for (a, b), c in TH1.items()}}),
     _poly2({**TH1, **{(-a, -b): c for (a, b), c in TH1.items()}}), False),
)


class Quotient:
    """Theta-coordinate work: correspondence routes, lift/lower, series kernels.

    The series kernel is built once per timed phase, in its first round,
    and then evaluated at fresh points in every round.  Two calls that fail
    today are known-failure probes, outside the timed ops: the G(1,1,3)
    series build at D=12, and correspondence_check's default quotient
    window (D-1) on a G(2,2,2) commute pair whose commutator vanishes on the
    smaller window only.  The timed correspondence ops judge all three
    routes on the same window, D=3: at D=4 with a D=4 quotient window one
    G(1,1,2) check takes seconds and its cost varies with the seeded
    symbols, which would leave a run few ops and a noisy tail."""

    groups = ("G(1,1,2)", "G(2,1,2)", "G(2,2,2)", "G(1,1,3)")
    corr_groups = ("G(1,1,2)", "G(2,1,2)", "G(2,2,2)")
    # one lift/lower op per (group, character), each round-tripping a batch
    # of polynomials
    lift_batch = 6
    lift_slots = tuple((spec, ch) for spec in corr_groups for ch in ("sgn", "trivial"))
    corr_bound = 3
    # (group, window bound, point radius): the radius keeps the truncation
    # error far below KERNEL_TOL (it falls like r^(2D))
    series = (("G(1,1,2)", 40, 0.5),)
    failing_series = ("G(1,1,3)", 12, 0.15)
    # the inputs of this seed hold a G(2,2,2) sgn commute pair whose routes
    # disagree under the default quotient window (isotypic and monomial
    # False at D=4, quotient True at D=3)
    disagreeing_inputs, disagreeing_bound = "quotient:7", 4
    # Series evaluations cost the same for any points, and a round has as
    # many ops below them (lift/lower batches, the G(2,*) sgn checks) as
    # above them (the other checks): twelve of them put the median op in
    # their middle in every run.  Sub-millisecond ops such as a single
    # lift/lower are too close to the host's noise for a median.
    eval_ops, eval_points = 12, 6   # per round
    # a round takes about 2.5 s on a 2-vCPU Xeon VM; with seven rounds the
    # tail (the 11th slowest op) lies inside the cluster of fourteen seeded
    # G(1,1,2) trivial checks
    round_s = 2.8

    def inputs(self, rng):
        lifts = [[inp.quotient_poly_json(rng, inp.parse_spec(spec)[2], 2, 3)
                  for _ in range(self.lift_batch)] for spec, _ in self.lift_slots]
        corr = []
        for spec in self.corr_groups:
            corr.append((spec, "semi", inp.symbol_json(rng, spec, 1, 3),
                         inp.symbol_json(rng, spec, 2, 3, side="analytic"), True))
            corr.append((spec, "commute", inp.symbol_json(rng, spec, 1, 3),
                         inp.symbol_json(rng, spec, 1, 3), None))
        points = {spec: [[(z, w, inp.theta(spec, z), inp.theta(spec, w))
                          for z, w in _pair_points(rng, spec, self.eval_points, r, True)]
                         for _ in range(self.eval_ops)]
                  for spec, _, r in self.series + (self.failing_series,)}
        return lifts, corr, points

    def setup(self, tr):
        kernel_chars = [(spec, "sgn") for spec, _, _ in self.series + (self.failing_series,)]
        ctx = build_groups(tr, self.groups, ("trivial", "sgn"), kernel_chars=kernel_chars)
        ctx["series"] = {}
        return ctx

    def known_failures(self, ctx, data):
        from hardyq.invariants import NotInIsotypicError
        from hardyq.kernels import SeriesKernel
        from hardyq.laurent import LaurentPoly
        from hardyq.toeplitz import SymbolPair, correspondence_check
        spec, bound, _ = self.failing_series
        points = data[2][spec][0]

        def series_build():
            try:
                sk = SeriesKernel(ctx[spec]["kspec"]["sgn"], bound)
            except NotInIsotypicError as exc:
                return f"NotInIsotypicError: {exc}"
            problem = (self._build_op(ctx, spec, bound).check(sk)
                       or self._eval_op(sk, spec, bound, points).check(
                           [sk.eval(x, y) for _, _, x, y in points]))
            if problem:
                raise WrongOutput(problem)
            return None

        _, corr, _ = self.inputs(random.Random(self.disagreeing_inputs))
        _, _, u_json, v_json, _ = next(x for x in corr if x[:2] == ("G(2,2,2)", "commute"))
        c = ctx["G(2,2,2)"]

        def default_window():
            u, v = (SymbolPair(c["group"], LaurentPoly.from_json(j)) for j in (u_json, v_json))
            rep = correspondence_check(u, v, [c["chars"]["sgn"]], self.disagreeing_bound,
                                       mode="commute")
            return None if rep.agree else f"routes disagree: {rep.to_json()['verdicts']}"

        return [KnownFailure(f"SeriesKernel({spec}, sgn, D={bound})", series_build),
                KnownFailure(f"correspondence_check G(2,2,2) sgn commute "
                             f"D={self.disagreeing_bound}, default quotient window, "
                             f"pair from inputs {self.disagreeing_inputs!r}",
                             default_window)]

    def round_ops(self, ctx, data, r):
        lifts, corr, points = data
        if r == 0:
            ctx["series"].clear()
            for spec, bound, _ in self.series:
                yield self._build_op(ctx, spec, bound)
        for (spec, ch), batch in zip(self.lift_slots, lifts):
            yield self._lift_op(ctx[spec], spec, ch, batch)
        # one op per isotypic component: each ends in one three-route verdict
        for ch in ("trivial", "sgn"):
            for spec, mode, u, v, expect in corr:
                yield self._corr_op(ctx[spec], spec, ch, mode, u, v, expect, "seeded")
            for label, u, v, expect in CURATED:
                yield self._corr_op(ctx["G(1,1,2)"], "G(1,1,2)", ch, "semi", u, v, expect, label)
        # only kernels whose build succeeded are evaluated
        for spec, bound, _ in self.series:
            if spec in ctx["series"]:
                for pts in points[spec]:
                    yield self._eval_op(ctx["series"][spec], spec, bound, pts)

    def _lift_op(self, c, spec, chname, batch):
        from hardyq.invariants import lift, lower
        from hardyq.laurent import LaurentPoly
        bm, ellp = c["bmap"], c["ell"][chname]
        z = (0.31 + 0.12j, -0.27 + 0.2j, 0.15 - 0.33j)[: c["group"].n]

        def run(tr):
            out = []
            for f_json in batch:
                with tr.span("laurent.from_json", spec):
                    f = LaurentPoly.from_json(f_json)
                with tr.span("laurent.substitute", spec):
                    pulled = f.substitute(list(bm.components))
                tr.count("laurent.substitute_terms", len(pulled.terms))
                with tr.span("invariants.lift", f"{spec}/{chname}"):
                    big = lift(ellp, bm, f)
                with tr.span("invariants.lower", f"{spec}/{chname}"):
                    back = lower(ellp, bm, big)
                tr.count("invariants.lowered")
                out.append((f, pulled, back))
            return out

        def check(out):
            for f, pulled, back in out:
                scale = max(f.max_abs_coeff(), 1.0)
                dev = _coeff_deviation(back, f)
                if not dev <= ROUNDTRIP_TOL * scale:
                    return f"lower(lift(f)) differs from f by {dev:.3g}"
                ref = inp.eval_terms(f.terms, inp.theta(spec, z))
                if not _rel(inp.eval_terms(pulled.terms, z), ref) <= KERNEL_TOL:
                    return "f o theta does not match f evaluated at theta(z)"
            return None

        return Op("liftlower", f"liftlower {spec} {chname}", run, check)

    def _corr_op(self, c, spec, chname, mode, u_json, v_json, expect, label):
        from hardyq.laurent import LaurentPoly
        from hardyq.toeplitz import SymbolPair, correspondence_check
        g = c["group"]
        chars = [c["chars"][chname]]

        def run(tr):
            with tr.span("laurent.from_json", spec):
                polys = [LaurentPoly.from_json(j) for j in (u_json, v_json)]
            with tr.span("toeplitz.symbol", spec):
                u, v = (SymbolPair(g, p) for p in polys)
            with tr.span("toeplitz.correspondence", f"{spec}/{chname}/{mode}"):
                rep = correspondence_check(u, v, chars, self.corr_bound, mode=mode,
                                           quotient_bound=self.corr_bound)
            tr.count("toeplitz.correspondence_routes", len(rep.verdicts))
            return rep

        def check(rep):
            if len(rep.verdicts) != 3 * len(chars):
                return f"expected {3 * len(chars)} route verdicts, got {len(rep.verdicts)}"
            if not rep.agree:
                return Flagged(f"routes disagree: {rep.to_json()['verdicts']}")
            if len(set(rep.verdicts.values())) != 1:
                return f"routes disagree but the report says they agree: {rep.to_json()}"
            if expect is not None and set(rep.verdicts.values()) != {expect}:
                return f"verdict {not expect}, expected {expect}"
            return None

        return Op("correspondence", f"correspondence {spec} {chname} {mode} {label}", run, check)

    @staticmethod
    def _build_op(ctx, spec, bound):
        from hardyq.kernels import SeriesKernel
        kspec = ctx[spec]["kspec"]["sgn"]
        expected = math.comb(bound + 1, ctx[spec]["group"].n)  # strictly increasing reps

        def run(tr):
            with tr.span("kernels.series_build", f"{spec}/D{bound}"):
                sk = SeriesKernel(kspec, bound)
            tr.count("kernels.series_basis_size", len(sk.basis_down))
            ctx["series"][spec] = sk
            return sk

        def check(sk):
            if len(sk.basis_down) != expected:
                return f"series basis has {len(sk.basis_down)} elements, expected {expected}"
            return None

        return Op("series_build", f"series build {spec} sgn D={bound}", run, check)

    @staticmethod
    def _eval_op(sk, spec, bound, points):
        def run(tr):
            with tr.span("kernels.series_eval", f"{spec}/D{bound}"):
                return [sk.eval(x, y) for _, _, x, y in points]

        def check(vals):
            worst = max(_rel(v, inp.sgn_kernel_closed_form(z, w))
                        for v, (z, w, _, _) in zip(vals, points))
            if not worst <= KERNEL_TOL:
                return f"series kernel differs from the closed form by {worst:.3g} (relative)"
            return None

        return Op("series_eval", f"series eval {spec} sgn D={bound}", run, check)


# -- large-group -----------------------------------------------------------------------


class LargeGroup:
    """O(|G|) group sums on |G| = 48 ... 3072, plus one small set of ops on
    G(3,1,5) (|G| = 29160).  Each group contributes four ops per round:
    characters and index set, basis elements, symbol with window and
    bh_check, and a batch of quotient-kernel values.  Splitting the group's
    work into four checked queries gives enough samples per run for a
    latency tail."""

    # (group, index-set / window bound); G(3,1,5) gets no window: its index
    # set at D=3 alone takes seconds
    slots = (("G(2,1,3)", 3), ("G(4,2,3)", 3), ("G(2,1,4)", 3), ("G(3,3,4)", 3),
             ("G(4,4,4)", 3), ("G(4,2,4)", 3), ("G(3,1,5)", 1))
    window_max_order = 5000
    # two kernel batches per group, each of about KERNEL_TERMS / |G| points,
    # so every kernel op sums about the same number of group terms and the
    # ops around the median latency are mostly kernel ops of equal cost
    kernel_terms = 2048
    kernel_ops = 2
    # a round takes 8-10 s on a 2-vCPU Xeon VM; three rounds in 20 s give
    # enough ops for the latency tail
    round_s = 6.5

    def inputs(self, rng):
        out = []
        for spec, _ in self.slots:
            order = inp.group_order(spec)
            sym = (inp.symbol_json(rng, spec, radius=2, terms=3)
                   if order <= self.window_max_order else None)
            npts = max(1, round(self.kernel_terms / order))
            batches = self.kernel_ops if order <= self.window_max_order else 1
            out.append((sym, [_pair_points(rng, spec, npts, 0.8) for _ in range(batches)]))
        return out

    def setup(self, tr):
        specs = [s for s, _ in self.slots]
        return build_groups(tr, specs, ("trivial",), kernel_chars=[(s, "trivial") for s in specs])

    def round_ops(self, ctx, data, r):
        ops = []
        for (spec, bound), (sym, batches) in zip(self.slots, data):
            c = ctx[spec]
            ops += [self._structure_op(c, spec, bound), self._basis_op(c, spec, bound)]
            if sym is not None:
                ops.append(self._window_op(c, spec, bound, sym))
            ops += [self._kernel_op(c, spec, pts) for pts in batches]
        return ops

    @staticmethod
    def _structure_op(c, spec, bound):
        import hardyq as hq
        from hardyq.invariants import index_set
        g = c["group"]
        expected = inp.invariant_reps(spec, 0, bound)

        def run(tr):
            with tr.span("groups.characters", spec):
                chars = hq.builtin_characters(g)
            triv = next(ch for ch in chars if ch.name == "trivial")
            with tr.span("invariants.index_set", f"{spec}/D{bound}"):
                iset = index_set(triv, bound)
            tr.count("invariants.index_set_candidates", math.comb(bound + g.n, g.n))
            tr.count("invariants.index_set_kept", len(iset))
            return chars, iset

        def check(out):
            chars, iset = out
            if not {"trivial", "sgn"} <= {ch.name for ch in chars}:
                return "builtin characters miss trivial or sgn"
            if sorted(iset.reps) != sorted(expected):
                return f"index set {list(iset.reps)} != {expected}"
            return None

        return Op("structure", f"structure {spec}", run, check)

    @staticmethod
    def _basis_op(c, spec, bound):
        from hardyq.toeplitz import GammaBasis
        triv, order = c["chars"]["trivial"], len(c["group"])
        reps = inp.invariant_reps(spec, 0, bound)

        def run(tr):
            # GammaBasis lives in toeplitz, but its cost is the group-sum
            # projection of invariants, which is the layer it is booked to
            basis = GammaBasis(triv)
            with tr.span("invariants.basis", spec):
                gammas = [basis(r) for r in reps]
            tr.count("invariants.basis_elements", len(gammas))
            tr.count("invariants.basis_group_terms", len(gammas) * order)
            return gammas

        def check(gammas):
            dev = inp.gram_deviation(gammas)
            return None if dev <= RESIDUAL_TOL else f"gram deviation {dev:.3g}"

        return Op("basis", f"basis {spec}", run, check)

    @staticmethod
    def _window_op(c, spec, bound, sym_json):
        from hardyq.laurent import LaurentPoly
        from hardyq.toeplitz import GammaBasis, SymbolPair, bh_check, toeplitz_window
        g, bm, triv = c["group"], c["bmap"], c["chars"]["trivial"]

        def run(tr):
            with tr.span("laurent.from_json", spec):
                poly = LaurentPoly.from_json(sym_json)
            with tr.span("toeplitz.symbol", spec):
                sym = SymbolPair(g, poly)
            basis = GammaBasis(triv)
            with tr.span("toeplitz.window", f"{spec}/D{bound}"):
                win = toeplitz_window(sym, triv, bound, basis=basis)
            tr.count("toeplitz.window_entries", len(win.reps) ** 2)
            with tr.span("toeplitz.bh_check", f"{spec}/D{bound}"):
                bh = bh_check(win, bm, basis=basis)
            tr.count("toeplitz.bh_pairs", bh.checked_pairs)
            tr.count("toeplitz.bh_window_pairs", g.n * len(win.reps) ** 2)
            return win, bh

        def check(out):
            win, bh = out
            if not bh.max_violation <= RESIDUAL_TOL:
                return Flagged(f"bh_check violation {bh.max_violation:.3g}")
            own = inp.shift_deviation([win], g.q)
            if not own <= RESIDUAL_TOL:
                return f"shift relation violated by {own:.3g} though bh_check passed"
            return None

        return Op("window", f"window {spec}", run, check)

    @staticmethod
    def _kernel_op(c, spec, points):
        from hardyq.kernels import quotient_kernel
        kspec, order = c["kspec"]["trivial"], len(c["group"])

        def run(tr):
            with tr.span("kernels.quotient_kernel", spec):
                vals = [quotient_kernel(kspec, z, w) for z, w in points]
            tr.count("kernels.group_sum_len", len(points) * order)
            return vals

        def check(vals):
            if "oracle" not in c:
                c["oracle"] = inp.TrivialKernelOracle(spec)
            worst = max(_rel(v, c["oracle"](z, w)) for v, (z, w) in zip(vals, points))
            if not worst <= KERNEL_TOL:
                return f"quotient kernel differs from the group average by {worst:.3g}"
            return None

        return Op("kernel", f"kernel {spec}", run, check)


# -- cli ----------------------------------------------------------------------------------


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "hardyq.cli", *args], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def _pts_json(z):
    return [[x.real, x.imag] for x in z]


class Cli:
    """One `python -m hardyq.cli` subprocess per op."""

    info_groups = ("G(1,1,2)", "G(4,2,3)")
    index_queries = (("G(4,2,3)", "trivial", 6), ("G(1,1,3)", "sgn", 6))
    bh_groups = ("G(1,1,3)", "G(2,2,2)")
    bh_bound = 6
    kernel_group = "G(1,1,2)"
    round_s = 3.3    # about one round's wall time on a 2-vCPU Xeon VM

    def inputs(self, rng):
        syms = [inp.symbol_json(rng, spec, radius=2, terms=4) for spec in self.bh_groups]
        (z, w), (z2, _) = _pair_points(rng, self.kernel_group, 2, 0.5, True)
        # z1 = z2 is the zero set of ell_sgn, where eval falls back to the series
        on_zero = (z2[0], z2[0])
        return syms, rng.randrange(1 << 30), [(z, w), (on_zero, w)]

    def setup(self, tr):
        # the benchmark process itself only needs the package importable;
        # every op pays its own import in the subprocess
        return build_groups(tr, (self.kernel_group,), ("sgn",))

    def round_ops(self, ctx, data, r):
        syms, seed, points = data
        ops = [self._op("group_info", f"group info {s}", ["group", "info", s],
                        self._check_info(s)) for s in self.info_groups]
        ops += [self._op("invariant_index", f"invariant index {s} {ch}",
                         ["invariant", "index", s, "--character", ch, "-D", str(d)],
                         self._check_index(s, ch, d)) for s, ch, d in self.index_queries]
        ops += [self._op("toeplitz_bh", f"toeplitz bh {s}",
                         ["toeplitz", "bh", "--group", s, "--symbol", json.dumps(sym),
                          "-D", str(self.bh_bound)], self._check_bh)
                for s, sym in zip(self.bh_groups, syms)]
        ops.append(self._op("verify_kernel_identity", "verify kernel-identity",
                            ["verify", "kernel-identity", "--pairs", "50", "--seed", str(seed)],
                            self._check_verify))
        spec = json.dumps({"domain": "polydisc", "group": self.kernel_group, "character": "sgn"})
        pts = json.dumps([{"z": _pts_json(z), "w": _pts_json(w)} for z, w in points])
        ops.append(self._op("kernel_eval", "kernel eval (series fallback)",
                            ["kernel", "eval", "--spec", spec, "--points", pts],
                            self._check_kernel(points)))
        return ops

    @staticmethod
    def _op(verb, label, args, check):
        def run(tr):
            with tr.span(f"cli.{verb}", label):
                proc = run_cli(args)
                if proc.returncode != 0:
                    raise CliFailure(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            tr.count("cli.stdout_bytes", len(proc.stdout.encode()))
            return json.loads(proc.stdout)

        return Op("cli", label, run, check)

    @staticmethod
    def _check_info(spec):
        def check(rep):
            if rep["order"] != inp.group_order(spec):
                return f"order {rep['order']} != {inp.group_order(spec)}"
            if rep["reflections"] != inp.reflection_count(spec):
                return f"reflections {rep['reflections']} != {inp.reflection_count(spec)}"
            if not {"trivial", "sgn"} <= set(rep["characters"]):
                return f"characters {rep['characters']} miss trivial or sgn"
            return None
        return check

    @staticmethod
    def _check_index(spec, ch, bound):
        if ch == "trivial":
            expected = inp.invariant_reps(spec, 0, bound)
        else:  # sgn on G(1,1,n): strictly increasing exponents
            expected = sorted(combinations(range(bound + 1), inp.parse_spec(spec)[2]),
                              key=lambda a: (sum(a), a))

        def check(rep):
            got = sorted(tuple(r) for r in rep["reps"])
            return None if got == sorted(expected) else f"index set {got} != {expected}"
        return check

    @staticmethod
    def _check_bh(rep):
        if not (rep["ok"] and rep["max_violation"] <= RESIDUAL_TOL and rep["checked_pairs"] > 0):
            return f"bh report {rep}"
        return None

    @staticmethod
    def _check_verify(rep):
        if not (rep["ok"] and rep["max_rel_error"] <= KERNEL_TOL):
            return f"kernel-identity report {rep}"
        return None

    @staticmethod
    def _check_kernel(points):
        def check(rep):
            recs = rep["records"]
            if len(recs) != len(points):
                return f"kernel eval returned {len(recs)} records for {len(points)} points"
            for r, (z, w) in zip(recs, points):
                v = complex(*r["value"])
                if not _rel(v, inp.sgn_kernel_closed_form(z, w)) <= KERNEL_TOL:
                    return f"kernel value {v} differs from the closed form"
            return None
        return check


WORKLOADS = {"windows": Windows(), "quotient": Quotient(),
             "large-group": LargeGroup(), "cli": Cli()}
