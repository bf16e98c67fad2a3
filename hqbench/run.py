"""Benchmark for hardyq.

    python3 hqbench/run.py --workload windows --seed 1 --seconds 20 --trace 0
    python3 hqbench/run.py --workload all --seed 1 --seconds 20

A run generates its inputs from --seed, sets up (import, groups, characters,
basic maps), then runs whole rounds of the workload's ops in one process, one
op at a time (a closed loop with one client): as many whole rounds as fit in
--seconds at the workload's nominal time per round.
Every op output is checked.  Times are scaled to a reference machine speed
(speed.py) because the host's speed drifts.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  Lines
before it describe the machine, the failures and, when traced, the layer
shares and the comparison with the re-anchor baselines in ROADMAP.md.

With --trace 1 the run measures half of --seconds untraced and half with
spans recorded (same inputs), and reports the difference in ops/s as the
tracing overhead; spans are written to .hqbench/ in the checkout.

Nothing in a single process waits on a queue or a lock, so the benchmark
reports busy time and counts only; it has no wait metrics.

`--workload all` runs every workload in fresh processes, untraced and
traced, prints every metric by name with its unit, and exits nonzero if any
output check failed.  Exit codes: 0 all outputs correct, 1 an output
contradicted an oracle, 2 the benchmark could not run (no hardyq under src/,
bad arguments, a fault in the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import LAYERS, NullTracer, Tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("windows", "quotient", "large-group", "cli")
POOL_ROUNDS = 64      # seeded rounds generated up front; runs cycle through them
SETUP_REPEATS = 5     # fresh-process set-ups per run; setup_s is their median
COLD_STARTS = 15      # `hardyq group info "G(1,1,2)"` subprocesses per run
IMPORT_PROBES = 3     # `import hardyq.cli` subprocesses per traced run
MIN_OPS = 20
MAX_STRETCH = 4       # a phase starts no new round after this many times --seconds

# ROADMAP.md re-anchor baselines (wall clock, +-25 %), compared in traced
# runs: (what, ROADMAP figure, why the traced figure can differ)
_HOST = "both are wall clock, so the host's slowdown (printed) scales the traced figure"
BASELINES = {
    "windows": [("check_brown_halmos (80 windows D=8 + bh_check)", "3.6-4.8 s",
                 "the suite shares one basis cache per group over its 20 symbols, an op "
                 "here starts a fresh one; " + _HOST)],
    "quotient": [("check_correspondence (15 checks on G(1,1,2), D=4)", "6.0-7.5 s",
                  "symbols of the same radii, seeded differently; here D=3 with the quotient "
                  "route on the same window, the suite uses D=4 and a D=3 quotient window; "
                  + _HOST),
                 ("SeriesKernel(G(1,1,2), sgn, D=40) build", "2.0 s", _HOST)],
    "large-group": [("project on G(3,1,5), per monomial", "0.53 s",
                     "one basis element is one project plus its norm; " + _HOST)],
    "cli": [("cold start, hardyq group info G(1,1,2)", "0.37 s",
             "this process is pinned to one CPU and bytecode is cached; " + _HOST),
            ("import hardyq", "0.22 s", _HOST)],
}

CLI_VERBS = ("group_info", "invariant_index", "toeplitz_bh", "verify_kernel_identity",
             "kernel_eval")

# which end-to-end metric, on which workload, each per-layer metric should move
MOVES = {
    "groups.build_s": "setup_s on large-group",
    "groups.elements": "setup_s on large-group",
    "laurent.substitute_s": "ops_per_s on quotient",
    "laurent.substitute_terms": "ops_per_s on quotient",
    "invariants.index_set_s": "ops_per_s on large-group",
    "invariants.index_set.kept_ratio": "ops_per_s on large-group",
    "invariants.basis_s": "op_p50_ms on large-group (about 0 share on windows)",
    "invariants.basis_elements": "op_p50_ms on large-group",
    "invariants.basis_us_per_element": "op_p50_ms on large-group",
    "invariants.lower_s": "ops_per_s on quotient",
    "invariants.lift_s": "ops_per_s on quotient",
    "invariants.lowered": "ops_per_s on quotient",
    "kernels.quotient_kernel_s": "ops_per_s on large-group",
    "kernels.group_sum_len": "ops_per_s on large-group",
    # on quotient the build is the one op beyond the tail percentile and the
    # series evaluations are the median op
    "kernels.series_build_s": "ops_per_s on quotient",
    "kernels.series_eval_s": "op_p50_ms on quotient",
    "kernels.series_basis_size": "op_p50_ms and ops_per_s on quotient",
    "toeplitz.symbol_s": "ops_per_s on large-group",
    "toeplitz.window_s": "ops_per_s on windows",
    "toeplitz.window_entries": "ops_per_s on windows",
    "toeplitz.bh_check_s": "ops_per_s on windows (secondary on large-group)",
    "toeplitz.bh_pairs": "ops_per_s on windows",
    "toeplitz.bh.checked_ratio": "ops_per_s on windows",
    "toeplitz.compactness_s": "ops_per_s on windows",
    "toeplitz.correspondence_s": "ops_per_s and op_tail_ms on quotient",
    "toeplitz.correspondence_routes": "ops_per_s on quotient",
    "cli.import_s": "cold_start_s on cli",
    "cli.stdout_bytes": "op_p50_ms on cli",
    **{f"cli.{verb}_s": "op_p50_ms on cli" for verb in CLI_VERBS},
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit 2, no result printed)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpu": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def say(text: str) -> None:
    print(f"# {text}", flush=True)


# -- timing loop -------------------------------------------------------------------


class Phase:
    """Outcome of one timed loop: per-op intervals and latencies (at
    reference speed, see speed.py), failures and problems."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.rounds = 0
        self.failed = 0
        self.counted: Counter = Counter()   # counted op failures by cause
        self.problems: list[str] = []       # wrong outputs the library did not flag

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.intervals) / sum(e - s for s, e in self.intervals)

    def tail(self) -> tuple[float, float]:
        """(latency, percentile) of the highest percentile that has at least
        ten samples beyond it."""
        lat = sorted(self.latencies)
        idx = max(len(lat) - 11, 0)
        return lat[idx], 100.0 * (idx + 1) / len(lat)


def phase_rounds(wl, seconds: float) -> int:
    """Rounds in a timed phase.  They follow from --seconds, not from the
    host's speed, so every run of a workload does the same ops and its tail
    percentile has the same rank."""
    return max(1, round(seconds / wl.round_s))


def run_phase(wl, ctx, pool, seconds: float, tr, probe: SpeedProbe) -> Phase:
    from workloads import Flagged
    ph = Phase()
    rounds = phase_rounds(wl, seconds)
    start = time.perf_counter()
    while ((ph.rounds < rounds or len(ph.intervals) < MIN_OPS)
           and not (ph.rounds and time.perf_counter() - start > MAX_STRETCH * seconds)):
        for op in wl.round_ops(ctx, pool[ph.rounds % len(pool)], ph.rounds):
            probe.maybe_sample()
            tr.op_id = len(ph.intervals)
            t0 = time.perf_counter()
            try:
                with tr.span(f"op.{op.kind}", op.label):
                    out = op.run(tr)
            except Exception as exc:  # a counted op failure, reported by cause
                ph.intervals.append((t0, time.perf_counter()))
                ph.failed += 1
                ph.counted[f"{op.label}: {type(exc).__name__}: {exc}"[:400]] += 1
                continue
            ph.intervals.append((t0, time.perf_counter()))
            with tr.span(f"check.{op.kind}", op.label):
                try:
                    problem = op.check(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                ph.failed += 1
                if isinstance(problem, Flagged):
                    ph.counted[f"{op.label}: {problem}"[:400]] += 1
                else:
                    ph.problems.append(f"{op.label}: {problem}"[:400])
        ph.rounds += 1
    probe.sample()
    ph.latencies = [probe.normalize(s, e) for s, e in ph.intervals]
    return ph


def report_failures(ph: Phase, phase: str) -> None:
    for cause, k in sorted(ph.counted.items()):
        say(f"{phase}counted op failure x{k}: {cause}")
    for problem in ph.problems:
        say(f"{phase}OUTPUT CHECK FAILED: {problem}")


def run_known_failures(wl, ctx, data) -> tuple[int, list[str]]:
    """Make the workload's known-failure calls once, after timing; return
    how many still fail and the wrong outputs of those that no longer do."""
    from workloads import WrongOutput
    present, problems = 0, []
    for kf in wl.known_failures(ctx, data) if hasattr(wl, "known_failures") else ():
        try:
            failure = kf.run()
        except WrongOutput as exc:
            problems.append(f"{kf.label}: {exc}"[:400])
            say(f"OUTPUT CHECK FAILED: {problems[-1]}")
            continue
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure:
            present += 1
            say(f"known failure, not a timed op: {kf.label}: {failure}"[:500])
        else:
            say(f"known failure fixed: {kf.label}")
    return present, problems


# -- subprocess probes ---------------------------------------------------------------


def _timed_runs(cmd: list[str], repeats: int, env: dict, probe: SpeedProbe,
                inner: bool) -> float:
    """Median over `repeats` subprocess runs of their time at reference
    speed: the command's own last stdout line in seconds when `inner`, else
    the wall time of the whole subprocess."""
    vals = []
    for _ in range(repeats):
        probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=170)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[1:4])} failed: {proc.stderr.strip()[-400:]}")
        seconds = float(proc.stdout.strip().splitlines()[-1]) if inner else t1 - t0
        vals.append((t0, t1, seconds))
    probe.sample()
    return statistics.median(s / probe.slowdown(t0, t1) for t0, t1, s in vals)


def setup_seconds(workload: str, probe: SpeedProbe) -> float:
    return _timed_runs([sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
                        workload], SETUP_REPEATS, dict(os.environ), probe, inner=True)


def import_seconds(env: dict, probe: SpeedProbe) -> float:
    code = ("import time; t = time.perf_counter(); import hardyq.cli; "
            "print(time.perf_counter() - t)")
    return _timed_runs([sys.executable, "-c", code], IMPORT_PROBES, env, probe, inner=True)


def cold_start_seconds(env: dict, probe: SpeedProbe) -> float:
    return _timed_runs([sys.executable, "-m", "hardyq.cli", "group", "info", "G(1,1,2)"],
                       COLD_STARTS, env, probe, inner=False)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any process it started (Linux KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# -- per-layer metrics from spans -------------------------------------------------------


SPAN_METRICS = {  # per-layer metric -> span name, in seconds per round
    "laurent.substitute_s": "laurent.substitute",
    "invariants.index_set_s": "invariants.index_set",
    "invariants.basis_s": "invariants.basis",
    "invariants.lower_s": "invariants.lower",
    "invariants.lift_s": "invariants.lift",
    "kernels.quotient_kernel_s": "kernels.quotient_kernel",
    "kernels.series_build_s": "kernels.series_build",
    "kernels.series_eval_s": "kernels.series_eval",
    "toeplitz.symbol_s": "toeplitz.symbol",
    "toeplitz.window_s": "toeplitz.window",
    "toeplitz.bh_check_s": "toeplitz.bh_check",
    "toeplitz.compactness_s": "toeplitz.compactness",
    "toeplitz.correspondence_s": "toeplitz.correspondence",
    **{f"cli.{v}_s": f"cli.{v}" for v in CLI_VERBS},
}
COUNT_METRICS = ("laurent.substitute_terms", "invariants.basis_elements", "invariants.lowered",
                 "kernels.group_sum_len", "kernels.series_basis_size", "toeplitz.window_entries",
                 "toeplitz.bh_pairs", "toeplitz.correspondence_routes", "cli.stdout_bytes")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(setup_tr: Tracer, tr: Tracer, traced: Phase, untraced: Phase,
                  import_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (per round of the traced phase unless named
    otherwise) and, for the report, busy time per span name and tag."""
    rounds = traced.rounds
    busy: Counter = Counter()
    by_tag: dict[tuple[str, str | None], list[float]] = {}
    self_by_layer: Counter = Counter()
    failed_by_layer: Counter = Counter()
    for name, dur, self_t, tag, err in tr.durations():
        layer = name.split(".", 1)[0]
        busy[name] += dur
        busy[f"{layer}.*"] += dur
        self_by_layer[layer] += self_t
        by_tag.setdefault((name, tag), []).append(dur)
        if err:
            failed_by_layer[layer] += 1
    setup_groups = sum(d for name, d, *_ in setup_tr.durations() if name.startswith("groups."))
    c = tr.counts
    m = {
        "groups.build_s": setup_groups,
        "groups.elements": setup_tr.counts["groups.elements"],
        "invariants.index_set.kept_ratio": _ratio(c["invariants.index_set_kept"],
                                                  c["invariants.index_set_candidates"]),
        "invariants.basis_us_per_element": 1e6 * _ratio(busy["invariants.basis"],
                                                        c["invariants.basis_group_terms"]),
        "toeplitz.bh.checked_ratio": _ratio(c["toeplitz.bh_pairs"], c["toeplitz.bh_window_pairs"]),
        "cli.import_s": import_s,
        "op.busy_s": busy["op.*"] / rounds,
        "op.self_s": self_by_layer["op"] / rounds,
        "op.samples": len(untraced.latencies),
        "op.tail_percentile": untraced.tail()[1],
        "trace.overhead_ops_per_s": traced.ops_per_s - untraced.ops_per_s,
        "trace.spans": len(tr.spans) / rounds,
    }
    for metric, span in SPAN_METRICS.items():
        m[metric] = busy[span] / rounds
    for metric in COUNT_METRICS:
        m[metric] = c[metric] / rounds
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[f"{layer}.*"] / rounds
        m[f"{layer}.self_s"] = self_by_layer[layer] / rounds
        m[f"{layer}.failed"] = failed_by_layer[layer] / rounds
    return m, by_tag


def _mean(vals) -> float:
    return statistics.fmean(vals) if vals else float("nan")


def baseline_lines(workload: str, by_tag: dict, metrics: dict) -> list[str]:
    """The traced numbers that correspond to the ROADMAP re-anchor figures,
    scaled to the size of the suite each figure timed."""
    def tagged(name, pred):
        return [d for (n, tag), ds in by_tag.items() if n == name and tag and pred(tag) for d in ds]

    if workload == "windows":
        per_group = [_mean(tagged("toeplitz.window", lambda t, s=s: t == f"{s}/D8"))
                     + _mean(tagged("toeplitz.bh_check", lambda t, s=s: t.startswith(s)))
                     for s in ("G(1,1,2)", "G(2,2,2)", "G(2,1,2)", "G(1,1,3)")]
        got = {BASELINES[workload][0][0]: 20 * sum(per_group)}
    elif workload == "quotient":
        got = {BASELINES[workload][0][0]:
               # the suite checks both characters per call; here each is an op
               30 * _mean(tagged("toeplitz.correspondence", lambda t: t.startswith("G(1,1,2)"))),
               BASELINES[workload][1][0]:
               _mean(tagged("kernels.series_build", lambda t: t == "G(1,1,2)/D40"))}
    elif workload == "large-group":
        # the G(3,1,5) op builds exactly one basis element, one full project
        got = {BASELINES[workload][0][0]: _mean(tagged("invariants.basis",
                                                      lambda t: t == "G(3,1,5)"))}
    else:
        got = {BASELINES[workload][0][0]: _mean(tagged("cli.group_info",
                                                      lambda t: t.endswith("G(1,1,2)"))),
               BASELINES[workload][1][0]: metrics["cli.import_s"]}
    return [f"baseline {what}: ROADMAP {ref}, traced here {got[what]:.3f} s ({note})"
            for what, ref, note in BASELINES[workload]]


# -- one workload ---------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Run this process and the ones it starts on one CPU of its affinity
    set: a single-client loop needs one, and a fixed CPU keeps the speed
    probe and the timed code on the same core."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def run_workload(args, spec: dict) -> int:
    import workloads
    workloads.import_hardyq()
    pin_to_one_cpu()
    wl = workloads.WORKLOADS[args.workload]
    say("machine: " + json.dumps(machine(), sort_keys=True))
    rng = random.Random(f"{args.workload}:{args.seed}")
    pool = [wl.inputs(rng) for _ in range(POOL_ROUNDS)]
    probe = SpeedProbe()

    if not args.trace:
        setup_s = setup_seconds(args.workload, probe)
        ctx = wl.setup(NullTracer())
        ph = run_phase(wl, ctx, pool, args.seconds, NullTracer(), probe)
        tail, pct = ph.tail()
        cold = cold_start_seconds(workloads.cli_env(), probe)
        values = {"setup_s": setup_s, "ops_per_s": ph.ops_per_s,
                  "op_p50_ms": 1e3 * statistics.median(ph.latencies), "op_tail_ms": 1e3 * tail,
                  "peak_rss_mb": peak_rss_mb(), "cold_start_s": cold}
        entries = spec["end_to_end"]
        phases = [ph]
        say(f"{len(ph.latencies)} ops in {ph.rounds} rounds; op_tail_ms is p{pct:.1f} of "
            f"{len(ph.latencies)} samples; failed_ratio {ph.failed / len(ph.latencies):.4f} "
            f"({ph.failed}/{len(ph.latencies)})")
        raw = sorted(e - s for s, e in ph.intervals)
        say(f"times are at reference speed; median slowdown {probe.median_slowdown():.3f} "
            f"over {len(probe.durations)} probes; wall clock: ops_per_s {ph.raw_ops_per_s:.4g}, "
            f"op_p50_ms {1e3 * statistics.median(raw):.4g}, "
            f"op_tail_ms {1e3 * raw[max(len(raw) - 11, 0)]:.4g}")
    else:
        setup_tr = Tracer()
        ctx = wl.setup(setup_tr)
        untraced = run_phase(wl, ctx, pool, args.seconds / 2, NullTracer(), probe)
        tr = Tracer()
        ph = run_phase(wl, ctx, pool, args.seconds / 2, tr, probe)
        values, by_tag = layer_metrics(setup_tr, tr, ph, untraced,
                                       import_seconds(workloads.cli_env(), probe))
        values["machine.slowdown"] = probe.median_slowdown()
        entries = spec["per_layer"]
        phases = [untraced, ph]
        op_busy = values["op.busy_s"]
        say(f"traced {len(ph.latencies)} ops in {ph.rounds} rounds ({len(tr.spans)} spans); "
            f"untraced {untraced.ops_per_s:.4g} ops/s, traced {ph.ops_per_s:.4g} ops/s "
            f"(at reference speed); span times are wall clock, median slowdown "
            f"{values['machine.slowdown']:.3f}")
        for layer in LAYERS + ("op",):
            say(f"layer {layer}: busy {values[f'{layer}.busy_s']:.4g} s/round, self "
                f"{values[f'{layer}.self_s']:.4g} s/round, "
                f"{100 * _ratio(values[f'{layer}.self_s'], op_busy):.1f}% of op time")
        for name in SPAN_METRICS:
            if values[name]:
                say(f"{name}: {100 * values[name] / op_busy:.1f}% of op time; "
                    f"moves {MOVES.get(name, '-')}")
        for line in baseline_lines(args.workload, by_tag, values):
            say(line)
        out_dir = ROOT / ".hqbench"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "machine": machine()})
    for phase, name in zip(phases, ("untraced phase: ", "traced phase: ") if args.trace else ("",)):
        report_failures(phase, name)
    values["known_failures"], known_problems = run_known_failures(wl, ctx, pool[0])

    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    correct = not known_problems and not any(phase.problems for phase in phases)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ph.latencies),
        "failed": ph.failed,
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries},
    }))
    return 0 if correct else 1


def setup_probe(workload: str) -> int:
    """Time import plus set-up in this fresh process; print the seconds."""
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload].setup(NullTracer())
    print(time.perf_counter() - t0)
    return 0


# -- all workloads -----------------------------------------------------------------------------


def run_all(args) -> int:
    code = 0
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"## {name} --trace {trace} (exit {proc.returncode})")
            for line in lines[:-1]:
                print(line)
            if proc.returncode not in (0, 1) or not lines:
                print(proc.stderr.strip()[-2000:])
                code = 2
                continue
            code = max(code, proc.returncode)
            res = json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = res
            print(f"   correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, v in res["metrics"].items():
                moves = f"  -> {MOVES[metric]}" if metric in MOVES else ""
                print(f"   {metric:34s} {v['value']:>14.6g} {v['unit']}{moves}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, load_spec())
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"hqbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in the benchmark itself: no result, exit 2
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
