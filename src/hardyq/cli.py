"""Command-line front end: group/invariant/kernel/toeplitz queries and the
bundled verification suites.  All computation is delegated to the library
modules; output is deterministic, strict JSON (or CSV) for a fixed seed.  The
kernel, toeplitz and verify verbs import their module when they run, so the
group and invariant verbs start without numpy; so does `kernel eval` on
every closed form, since kernels loads numpy only for SeriesKernel.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import traceback
import warnings
from contextlib import contextmanager

from .groups import (
    InputError,
    builtin_characters,
    make_character,
    make_group,
)
from .invariants import (
    basic_map,
    ell,
    hyperplane_form,
    index_set,
    jacobian,
)
from .laurent import LaurentPoly

USAGE_EXIT = 2
FAIL_EXIT = 1
FAULT_EXIT = 3


class UsageError(InputError):
    """Malformed input: bad JSON, a missing key, a flag the verb does not
    take."""


# the suites `verify` runs, in suites.ALL_SUITES order; kept here so the
# parser is built without importing the suites
SUITE_NAMES = ("group-orders", "jacobian", "c-sgn", "torus-relation", "kernel-identity",
               "projections", "gram", "bh", "recovery", "correspondence", "semd2",
               "compactness", "ellipsoid-constants")


@contextmanager
def _reading_input():
    """Report what goes wrong while parsing arguments as a UsageError."""
    try:
        yield
    except InputError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def _finite_report(obj, path="report"):
    """`obj` without its wall-clock fields, so fixed seed and flags give
    identical bytes.  A NaN or infinity anywhere in it is a program fault
    (ValueError): JSON has no token for either."""
    if isinstance(obj, dict):
        return {k: _finite_report(v, f"{path}.{k}") for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_finite_report(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{path} is {obj}, which JSON cannot hold")
    return obj


def _render(report: dict, fmt: str) -> str:
    report = _finite_report(report)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=str, allow_nan=False) + "\n"
    # csv: flatten one level deep, deterministic column order
    buf = io.StringIO()
    rows = report.get("records")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        cols = sorted({k for r in rows for k in r})
        writer = csv.DictWriter(buf, fieldnames=cols)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in cols})
    else:
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for k in sorted(report):
            writer.writerow([k, json.dumps(report[k], sort_keys=True, default=str,
                                           allow_nan=False)])
    return buf.getvalue()


def _refuse_constant(token: str):
    raise UsageError(f"{token} is not a JSON number")


def _read_json_arg(text: str):
    """Strict JSON (no NaN or Infinity) from a literal, @file, or '-' for
    stdin."""
    if text == "-":
        return json.load(sys.stdin, parse_constant=_refuse_constant)
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    return json.loads(text, parse_constant=_refuse_constant)


def _load_poly(text: str) -> LaurentPoly:
    with _reading_input():
        return LaurentPoly.from_json(_read_json_arg(text))


def _complex_pairs(vals) -> tuple:
    return tuple(complex(a, b) for a, b in vals)


def _pairs_complex(z: tuple) -> list:
    return [[x.real, x.imag] for x in z]


# -- verb handlers -------------------------------------------------------------


def cmd_group(args) -> tuple[int, dict]:
    group = make_group(args.spec)
    if args.group_verb == "info":
        planes = group.reflections()
        report = {
            "group": str(group.spec),
            "order": len(group),
            "reflections": sum(p.order - 1 for p in planes),
            "hyperplanes": [
                {
                    "form": hyperplane_form(group, p).to_json(),
                    "order": p.order,
                }
                for p in planes
            ],
            "characters": [c.name for c in builtin_characters(group)],
        }
        return 0, report
    if args.group_verb == "character":
        char = make_character(group, args.name)
        return 0, char.to_json()
    raise argparse.ArgumentTypeError(f"unknown group verb {args.group_verb}")


def cmd_invariant(args) -> tuple[int, dict]:
    group = make_group(args.spec)
    bm = basic_map(group)
    if args.invariant_verb == "map":
        return 0, {
            "group": str(group.spec),
            "components": [c.to_json() for c in bm.components],
        }
    if args.invariant_verb == "jacobian":
        return 0, {"group": str(group.spec), "jacobian": jacobian(bm).to_json()}
    if args.invariant_verb == "ell":
        char = make_character(group, args.character)
        ep = ell(char, domain=args.domain, bmap=bm)
        return 0, {
            "group": str(group.spec),
            "character": char.name,
            "domain": args.domain,
            "ell": ep.poly.to_json(),
            "cnorm": ep.cnorm,
        }
    if args.invariant_verb == "index":
        char = make_character(group, args.character)
        iset = index_set(char, args.bound, holomorphic=not args.full)
        return 0, {
            "group": str(group.spec),
            "character": char.name,
            "bound": args.bound,
            "holomorphic": not args.full,
            "reps": [list(r) for r in iset.reps],
        }
    raise argparse.ArgumentTypeError(f"unknown invariant verb {args.invariant_verb}")


def cmd_kernel(args) -> tuple[int, dict]:
    from .kernels import base_kernel, make_kernel_spec, quotient_kernel

    with _reading_input():
        data = _read_json_arg(args.spec)
        domain, group_text = data["domain"], data.get("group")
        character = data.get("character", "sgn")
        points = [(_complex_pairs(item["z"]), _complex_pairs(item["w"]))
                  for item in _read_json_arg(args.points)]
    spec = make_kernel_spec(domain, group_text, character)
    kernel, method = (quotient_kernel, "quotient") if spec.is_quotient else (base_kernel, "base")
    records = []
    for z, w in points:
        value = kernel(spec, z, w)
        records.append({
            "z": _pairs_complex(z),
            "w": _pairs_complex(w),
            "value": [value.real, value.imag],
            "method": method,
        })
    return 0, {"records": records}


def cmd_toeplitz(args) -> tuple[int, dict]:
    from .toeplitz import (SymbolPair, bh_check, product_compare, semd2_check,
                           symbol_recover, toeplitz_window, window_entry_fn)

    group = make_group(args.group)
    char = make_character(group, args.character)
    bm = basic_map(group)
    symbol = SymbolPair(group, _load_poly(args.symbol))
    verb = args.toeplitz_verb
    if verb == "window":
        win = toeplitz_window(symbol, char, args.bound)
        return 0, win.to_json()
    if verb == "bh":
        win = toeplitz_window(symbol, char, args.bound)
        rep = bh_check(win, bm)
        return (0 if rep.ok else FAIL_EXIT), rep.to_json()
    if verb == "product":
        other = SymbolPair(group, _load_poly(args.symbol2))
        rep = product_compare(symbol, other, args.mode, char, args.bound)
        # either verdict is an informative answer for a comparison query
        return 0, rep.to_json()
    if verb == "recover":
        res = symbol_recover(window_entry_fn(symbol, char), char, bm,
                             base_bound=args.bound)
        report = res.to_json()
        report["roundtrip_deviation"] = (
            res.symbol.pullback - symbol.pullback
        ).max_abs_coeff()
        ok = report["roundtrip_deviation"] <= 1e-9 * max(
            symbol.pullback.max_abs_coeff(), 1.0
        )
        return (0 if ok else FAIL_EXIT), report
    if verb == "semd2":
        other = SymbolPair(group, _load_poly(args.symbol2))
        rep = semd2_check(symbol, other, char)
        return (0 if rep.consistent else FAIL_EXIT), rep.to_json()
    raise argparse.ArgumentTypeError(f"unknown toeplitz verb {verb}")


_SEEDED_SUITES = ("kernel-identity", "projections", "bh", "recovery",
                 "correspondence", "compactness")


def cmd_verify(args) -> tuple[int, dict]:
    """Run one suite; --seed and --pairs are usage errors on a suite that
    does not take them ("all" takes neither)."""
    from .suites import run_suite

    kwargs = {}
    if args.seed is not None:
        if args.suite not in _SEEDED_SUITES:
            raise UsageError(f"--seed does not apply to suite {args.suite!r}; "
                             f"seeded suites: {', '.join(_SEEDED_SUITES)}")
        kwargs["seed"] = args.seed
    if args.pairs is not None:
        if args.suite != "kernel-identity":
            raise UsageError(f"--pairs does not apply to suite {args.suite!r}; "
                             "only kernel-identity takes it")
        kwargs["pairs"] = args.pairs
    report = run_suite(args.suite, **kwargs)
    return (0 if report["ok"] else FAIL_EXIT), report


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyq",
        description="Hardy spaces, Szego kernels and Toeplitz operators on "
                    "reflection-group quotients of the polydisc",
    )
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("group", help="group structure queries")
    gsub = g.add_subparsers(dest="group_verb", required=True)
    gi = gsub.add_parser("info")
    gi.add_argument("spec", help='e.g. "G(4,2,3)" or "Z(3)@1^2"')
    gc = gsub.add_parser("character")
    gc.add_argument("spec")
    gc.add_argument("--name", default="sgn")

    inv = sub.add_parser("invariant", help="basic maps and relative invariants")
    isub = inv.add_subparsers(dest="invariant_verb", required=True)
    for name in ("map", "jacobian"):
        p = isub.add_parser(name)
        p.add_argument("spec")
    ie = isub.add_parser("ell")
    ie.add_argument("spec")
    ie.add_argument("--character", default="sgn")
    ie.add_argument("--domain", choices=("polydisc", "ball"), default="polydisc")
    ii = isub.add_parser("index")
    ii.add_argument("spec")
    ii.add_argument("--character", default="sgn")
    ii.add_argument("-D", "--bound", type=int, default=4)
    ii.add_argument("--full", action="store_true",
                    help="include non-holomorphic representatives")

    k = sub.add_parser("kernel", help="kernel evaluation")
    ksub = k.add_subparsers(dest="kernel_verb", required=True)
    ke = ksub.add_parser("eval")
    ke.add_argument("--spec", required=True,
                    help='JSON: {"domain": ..., "group": ..., "character": ...}')
    ke.add_argument("--points", required=True,
                    help='JSON list of {"z": [[re,im],...], "w": [[re,im],...]}')

    t = sub.add_parser("toeplitz", help="Toeplitz windows and verifiers")
    tsub = t.add_subparsers(dest="toeplitz_verb", required=True)
    for name in ("window", "bh", "product", "recover", "semd2"):
        p = tsub.add_parser(name)
        p.add_argument("--group", required=True)
        p.add_argument("--character", default="sgn")
        p.add_argument("--symbol", required=True,
                       help="polynomial JSON (literal, @file, or - for stdin)")
        p.add_argument("-D", "--bound", type=int, default=6)
        if name in ("product", "semd2"):
            p.add_argument("--symbol2", required=True)
        if name == "product":
            p.add_argument("--mode", default="semi",
                           choices=("semi", "commute", "zeroProduct"))

    v = sub.add_parser("verify", help="bundled verification suites")
    v.add_argument("suite", choices=sorted(SUITE_NAMES) + ["all"])
    v.add_argument("--pairs", type=int, help="kernel-identity pairs (default: 100)")
    v.add_argument("--seed", type=int,
                   help="seed for randomized point and symbol sampling "
                        "(default: the suite's own)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    handlers = {
        "group": cmd_group,
        "invariant": cmd_invariant,
        "kernel": cmd_kernel,
        "toeplitz": cmd_toeplitz,
        "verify": cmd_verify,
    }
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                code, report = handlers[args.verb](args)
            finally:  # each warning as one JSON line, outside the report
                for w in caught:
                    sys.stderr.write(json.dumps({"warning": str(w.message)}) + "\n")
        text = _render(report, args.output)
    except InputError as exc:
        sys.stderr.write(_render({"error": str(exc)}, args.output))
        return USAGE_EXIT
    except Exception as exc:  # a program fault, not an input error
        sys.stderr.write(_render({"error": f"{type(exc).__name__}: {exc}",
                                  "traceback": traceback.format_exc()}, args.output))
        return FAULT_EXIT
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
