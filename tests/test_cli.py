import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hardyq
from hardyq import cli, groups, invariants, kernels, suites, toeplitz
from hardyq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroupVerb:
    def test_info_order_and_reflections(self, capsys):
        code, out, _ = run_cli(capsys, "group", "info", "G(4,2,3)")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 192
        assert data["reflections"] == sum(
            h["order"] - 1 for h in data["hyperplanes"]
        )

    def test_character_json(self, capsys):
        code, out, _ = run_cli(capsys, "group", "character", "G(1,1,2)", "--name", "sgn")
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "sgn"
        assert len(data["values"]) == 2

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "group", "info", "G(4,3,2)")
        assert code == 2
        assert "error" in err


class TestInvariantVerb:
    def test_jacobian(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "jacobian", "G(1,1,2)")
        assert code == 0
        data = json.loads(out)
        terms = {tuple(t["e"]): t["c"][0] for t in data["jacobian"]["terms"]}
        assert terms == {(1, 0): 1.0, (0, 1): -1.0}

    def test_index_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariant", "index", "G(1,1,2)", "--character", "sgn", "-D", "2"
        )
        data = json.loads(out)
        assert data["reps"] == [[0, 1], [0, 2], [1, 2]]

    def test_ell_cnorm(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "ell", "G(1,1,2)")
        data = json.loads(out)
        assert abs(data["cnorm"] - 2**0.5) < 1e-12


class TestKernelVerb:
    SPEC = '{"domain": "polydisc", "group": "G(1,1,2)", "character": "sgn"}'

    def test_eval_regular_point(self, capsys):
        points = '[{"z": [[0.3, 0.0], [0.0, 0.1]], "w": [[0.2, 0.0], [-0.4, 0.0]]}]'
        code, out, _ = run_cli(
            capsys, "kernel", "eval", "--spec", self.SPEC, "--points", points
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["method"] == "quotient"
        z = [complex(*p) for p in rec["z"]]
        w = [complex(*p) for p in rec["w"]]
        want = 1.0
        for zi in z:
            for wj in w:
                want /= 1 - zi * wj.conjugate()
        assert abs(complex(*rec["value"]) - want) < 1e-9 * abs(want)

    # rho1 on G(4,4,2) has split residues, with ell_rho1 = z_1^2 + z_2^2;
    # on the ball Z(3)@1^2, ell_sgn = 3 z_1^2
    SPLIT_SPEC = '{"domain": "polydisc", "group": "G(4,4,2)", "character": "rho1"}'
    BALL_SPEC = '{"domain": "ball", "group": "Z(3)@1^2", "character": "sgn"}'

    # kernel eval once fell back to a series kernel at zeros of ell; the
    # closed form now evaluates those points itself
    def test_eval_singular_point_falls_back_to_series(self, capsys):
        points = '[{"z": [[0.0, 0.0], [0.0, 0.0]], "w": [[0.2, 0.0], [0.1, 0.0]]}]'
        code, out, _ = run_cli(
            capsys, "kernel", "eval", "--spec", self.SPLIT_SPEC, "--points", points
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["method"] == "quotient"
        assert abs(complex(*rec["value"]) - 1.0) < 1e-12

    def test_series_fallback_built_once_per_call(self, capsys, monkeypatch):
        from hardyq.kernels import SeriesKernel

        builds = []

        class Counting(SeriesKernel):
            def __init__(self, spec, bound):
                builds.append(bound)
                super().__init__(spec, bound)

        monkeypatch.setattr("hardyq.kernels.SeriesKernel", Counting)
        # both z lie on ell_rho1's zero set z_1 = i z_2
        points = ('[{"z": [[0.0, 0.0], [0.0, 0.0]], "w": [[0.2, 0.0], [0.1, 0.0]]},'
                  ' {"z": [[0.0, 0.1], [0.1, 0.0]], "w": [[0.2, 0.0], [0.1, 0.0]]}]')
        code, out, _ = run_cli(capsys, "kernel", "eval", "--spec", self.SPLIT_SPEC,
                               "--points", points)
        assert code == 0
        assert [r["method"] for r in json.loads(out)["records"]] == ["quotient"] * 2
        assert builds == []

    def test_sign_kernel_on_ell_zero_set_needs_no_series(self, capsys, monkeypatch):
        def no_series(spec, bound):
            raise AssertionError("series kernel built")

        monkeypatch.setattr("hardyq.kernels.SeriesKernel", no_series)
        # z_1 = z_2 is the zero set of ell_sgn = z_1 - z_2
        points = '[{"z": [[0.3, 0.1], [0.3, 0.1]], "w": [[0.2, 0.0], [-0.4, 0.2]]}]'
        code, out, _ = run_cli(capsys, "kernel", "eval", "--spec", self.SPEC,
                               "--points", points)
        assert code == 0
        (rec,) = json.loads(out)["records"]
        assert rec["method"] == "quotient"
        z, w = (0.3 + 0.1j, 0.3 + 0.1j), (0.2, -0.4 + 0.2j)
        want = 1.0
        for zi in z:
            for wj in w:
                want /= 1 - zi * wj.conjugate()
        assert abs(complex(*rec["value"]) - want) <= 1e-15 * abs(want)

    # at zeros of ell_rho1 (the origin and z_1 = i z_2) and of the ball's
    # ell_sgn (z_1 = 0) every record is the quotient kernel, equal to the
    # D=30 series kernel, and no series kernel is built
    @pytest.mark.parametrize("spec_json, zs, w", [
        (SPLIT_SPEC, [(0.0, 0.0), (0.1j, 0.1)], (0.2, 0.1)),
        (BALL_SPEC, [(0.0, 0.2), (0.0, -0.3 + 0.4j)], (0.3, 0.1)),
    ], ids=["G(4,4,2)-rho1", "ball-Z(3)@1^2-sgn"])
    def test_split_and_ball_kernels_on_ell_zero_set_need_no_series(
            self, capsys, monkeypatch, spec_json, zs, w):
        data = json.loads(spec_json)
        spec = kernels.make_kernel_spec(data["domain"], data["group"], data["character"])
        series = kernels.SeriesKernel(spec, 30)
        wants = [series.eval(spec.bmap.eval(z), spec.bmap.eval(w)) for z in zs]

        def no_series(spec, bound):
            raise AssertionError("series kernel built")

        monkeypatch.setattr("hardyq.kernels.SeriesKernel", no_series)
        points = json.dumps([{"z": [[x.real, x.imag] for x in map(complex, z)],
                              "w": [[x.real, x.imag] for x in map(complex, w)]} for z in zs])
        code, out, _ = run_cli(capsys, "kernel", "eval", "--spec", spec_json,
                               "--points", points)
        assert code == 0
        records = json.loads(out)["records"]
        assert [r["method"] for r in records] == ["quotient"] * len(zs)
        for rec, want in zip(records, wants):
            assert abs(complex(*rec["value"]) - want) <= 1e-12 * abs(want)


SYMBOL_MIXED = json.dumps(
    {"dim": 2, "terms": [
        {"c": [1, 0], "e": [1, 0]}, {"c": [1, 0], "e": [0, 1]},
        {"c": [1, 0], "e": [-1, 0]}, {"c": [1, 0], "e": [0, -1]},
    ]}
)


class TestToeplitzVerb:
    def test_bh_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "toeplitz", "bh", "--group", "G(1,1,2)",
            "--symbol", SYMBOL_MIXED, "-D", "6",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_bh_rejects_non_finite_window(self):
        # an infinite coefficient makes inf and NaN window entries, which bh
        # reported as ok: true; run as a user would, numpy's overflow and
        # invalid-value warnings on stderr as JSON lines
        sym = json.dumps({"dim": 2, "terms": [
            {"c": [1e308, 0], "e": [1, 0]}, {"c": [1e308, 0], "e": [0, 1]},
            {"c": [1e308, 0], "e": [1, 1]},
        ]})
        src = str(Path(hardyq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "hardyq.cli", "toeplitz", "bh", "--group", "G(1,1,2)",
             "--symbol", sym, "-D", "3"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        warned = [json.loads(line) for line in lines if line.startswith('{"warning"')]
        error = json.loads("\n".join(line for line in lines if not line.startswith('{"warning"')))
        assert warned and all(set(w) == {"warning"} for w in warned)
        assert error == {"error": "window entries must be finite; found NaN or inf"}

    def test_bh_pass_g212(self, capsys):
        # conj(theta_1) theta_2 pulled back for G(2,1,2)
        sym = json.dumps({"dim": 2, "terms": [
            {"c": [1, 0], "e": [-2, 0]}, {"c": [1, 0], "e": [0, -2]},
        ]})
        code, out, _ = run_cli(
            capsys, "toeplitz", "bh", "--group", "G(2,1,2)",
            "--symbol", sym, "-D", "6",
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True and data["max_violation"] <= 1e-10

    def test_window_identity(self, capsys):
        one = '{"dim": 2, "terms": [{"c": [1, 0], "e": [0, 0]}]}'
        code, out, _ = run_cli(
            capsys, "toeplitz", "window", "--group", "G(1,1,2)",
            "--symbol", one, "-D", "3",
        )
        data = json.loads(out)
        k = len(data["rows"])
        for i in range(k):
            for j in range(k):
                want = 1.0 if i == j else 0.0
                assert abs(data["entries"][i][j][0] - want) < 1e-12

    def test_recover_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "toeplitz", "recover", "--group", "G(1,1,2)",
            "--symbol", SYMBOL_MIXED, "-D", "4",
        )
        assert code == 0
        assert json.loads(out)["roundtrip_deviation"] < 1e-9

    def test_semd2_consistent(self, capsys):
        v = json.dumps({"dim": 2, "terms": [{"c": [1, 0], "e": [1, 1]}]})
        code, out, _ = run_cli(
            capsys, "toeplitz", "semd2", "--group", "G(1,1,2)",
            "--symbol", SYMBOL_MIXED, "--symbol2", v,
        )
        assert code == 0
        assert json.loads(out)["consistent"] is True

    def test_product_reports_scale_tolerance_and_worst(self, capsys):
        u = json.dumps({"dim": 2, "terms": [{"c": [3, 0], "e": [1, 0]}, {"c": [3, 0], "e": [0, 1]},
                                            {"c": [3, 0], "e": [-1, 0]},
                                            {"c": [3, 0], "e": [0, -1]}]})
        code, out, _ = run_cli(
            capsys, "toeplitz", "product", "--group", "G(1,1,2)",
            "--symbol", u, "--symbol2", SYMBOL_MIXED, "--mode", "semi", "-D", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] is False
        assert data["scale"] == 3.0 and data["tolerance"] == 1e-10 * 3.0
        # u = 3v: three times the semi-commutator of theta_1 + conj theta_1
        # with itself, whose largest entry, 1, is the diagonal one at (0, 2)
        assert abs(data["max_residual"] - 3.0) < 1e-12
        assert data["worst"] == [[0, 2], [0, 2]]
        assert data["worst"][0] in data["reps"]

    @pytest.mark.parametrize("verb", ["window", "bh"])
    def test_small_window_warning_is_one_json_line(self, capsys, verb):
        argv = ["toeplitz", verb, "--group", "G(1,1,2)", "--symbol", SYMBOL_MIXED, "-D", "0"]
        code, out, err = run_cli(capsys, *argv)
        assert err.splitlines() == [json.dumps({"warning": (
            "window bound 0 is below the symbol degree radius 1; "
            "edge entries will not determine the symbol")})]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli(capsys, *argv) == (0, out, "")
        assert code == 0

    def test_symbol_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SYMBOL_MIXED))
        code, out, _ = run_cli(
            capsys, "toeplitz", "bh", "--group", "G(1,1,2)", "--symbol", "-", "-D", "5"
        )
        assert code == 0


SYMBOL_FLOAT = json.dumps(
    {"dim": 2, "terms": [
        {"c": [0.3, -1.1], "e": [1, 0]}, {"c": [0.3, -1.1], "e": [0, 1]},
        {"c": [-0.7, 0.2], "e": [-1, 0]}, {"c": [-0.7, 0.2], "e": [0, -1]},
        {"c": [0.1, 0.9], "e": [2, -1]}, {"c": [0.1, 0.9], "e": [-1, 2]},
        {"c": [1.3, 0.0], "e": [0, 0]},
    ]}
)


class TestWindowTableBytes:
    """The window tables are built lazily and kept on the group, but a
    window's sums run in an order fixed by its symbol: the same query prints
    the same bytes cold, again, and after other windows warmed the tables."""

    WINDOW = ("toeplitz", "window", "--group", "G(1,1,2)", "--symbol", SYMBOL_FLOAT, "-D", "5")
    BH = ("toeplitz", "bh", "--group", "G(1,1,2)", "--symbol", SYMBOL_FLOAT, "-D", "5")

    @staticmethod
    def share_groups(monkeypatch, module):
        """Make `module` reuse one group object per spec, so its tables stay
        warm from one call to the next."""
        monkeypatch.setattr(module, "make_group", functools.cache(groups.make_group))

    @pytest.mark.parametrize("argv", [WINDOW, BH, ("verify", "bh")])
    def test_same_bytes_twice_in_one_process(self, capsys, argv):
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first

    def test_toeplitz_bytes_after_warm_tables(self, capsys, monkeypatch):
        cold = [run_cli(capsys, *argv) for argv in (self.WINDOW, self.BH)]
        self.share_groups(monkeypatch, cli)
        # tables for the exponents that sort last are built first
        late = json.dumps({"dim": 2, "terms": [{"c": [1, 0], "e": [2, -1]},
                                               {"c": [1, 0], "e": [-1, 2]}]})
        for symbol, bound in ((late, "5"), (SYMBOL_MIXED, "3"), (SYMBOL_MIXED, "7")):
            run_cli(capsys, "toeplitz", "window", "--group", "G(1,1,2)",
                    "--symbol", symbol, "-D", bound)
        assert [run_cli(capsys, *argv) for argv in (self.WINDOW, self.BH)] == cold

    def test_verify_bh_bytes_after_warm_tables(self, capsys, monkeypatch):
        cold = run_cli(capsys, "verify", "bh")
        self.share_groups(monkeypatch, suites)
        warmed = run_cli(capsys, "verify", "bh")
        assert run_cli(capsys, "verify", "bh") == warmed == cold


class TestPinnedBytes:
    """The deterministic stdout of four queries, pinned by sha256: a change
    that moves any of these bytes changes a published result and must say
    so.  The float window and Brown-Halmos report run through the gamma
    factors, the index listing through the projection norms.  `verify all`
    is hashed without the recovery fields that come from LAPACK's lstsq,
    whose last bits depend on the numpy build and the CPU."""

    PINNED = {
        ("verify", "all"):
            "76c45e108863de9c794dd7a6f4431120abec2e64c5097d666b8c77e59f9dd21a",
        TestWindowTableBytes.WINDOW:
            "e451ce7bf3aa847b5bfdb7b9e4d12d4dcaf0c524187ec3c633602e4f9d7d99ae",
        TestWindowTableBytes.BH:
            "66d4db8097c46357526968e3ae4887535dd47aa15a5536606ee7a4c0a90ca12f",
        ("invariant", "index", "G(4,2,3)", "--character", "trivial", "-D", "6"):
            "6e681493e1c116e951886b43da6eb2acf2d8218d4214277536122468bb228a71",
    }
    LAPACK_FIELDS = ("coeff_deviation", "lstsq_residual")

    @classmethod
    def pinned_text(cls, argv, out: str) -> str:
        if argv != ("verify", "all"):
            return out
        report = json.loads(out)
        for case in report["suites"]["recovery"]["cases"]:
            for key in cls.LAPACK_FIELDS:
                del case[key]
        return json.dumps(report, sort_keys=True, indent=2)

    @pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: " ".join(argv[:2]))
    def test_stdout_sha256(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        text = self.pinned_text(argv, out)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[argv]


class TestVerify:
    def test_kernel_identity_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "kernel-identity", "--pairs", "20", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_deterministic_bytes_for_fixed_seed(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "kernel-identity", "--pairs", "10", "--seed", "3"
        )
        _, out2, _ = run_cli(
            capsys, "verify", "kernel-identity", "--pairs", "10", "--seed", "3"
        )
        assert out1 == out2

    def test_csv_output_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "csv", "verify", "kernel-identity", "--pairs", "5"
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"

    def test_seed_and_pairs_passed_only_when_given(self, capsys, monkeypatch):
        # without --seed each suite runs its own default seed; a flag the
        # suite does not take is a usage error that names flag and suite
        seen = []

        def fake_run_suite(name, **kwargs):
            seen.append((name, kwargs))
            return {"ok": True}

        monkeypatch.setattr("hardyq.suites.run_suite", fake_run_suite)
        for argv in (["bh"], ["bh", "--seed", "5"], ["kernel-identity", "--pairs", "3"]):
            assert run_cli(capsys, "verify", *argv)[0] == 0
        assert seen == [("bh", {}), ("bh", {"seed": 5}), ("kernel-identity", {"pairs": 3})]
        for argv in (["gram", "--seed", "5"], ["all", "--seed", "5"],
                     ["bh", "--pairs", "3"], ["all", "--pairs", "3"]):
            code, _, err = run_cli(capsys, "verify", *argv)
            assert code == 2, argv
            message = json.loads(err)["error"]
            assert argv[1] in message and repr(argv[0]) in message, message
        assert len(seen) == 3

    def test_unknown_verb_usage_exit(self, capsys):
        assert main(["frobnicate"]) == 2


class TestExitCodes:
    def test_non_invariant_symbol_is_usage_error(self, capsys):
        # z_3 is fixed by the swap (1 2) but not by (2 3)
        sym = json.dumps({"dim": 3, "terms": [{"c": [1, 0], "e": [0, 0, 1]}]})
        code, out, err = run_cli(capsys, "toeplitz", "window", "--group", "G(1,1,3)",
                                 "--symbol", sym, "-D", "2")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "pullback symbol is not G-invariant"}

    def test_program_fault_has_its_own_exit_code_and_traceback(self, capsys, monkeypatch):
        from hardyq.invariants import NotInIsotypicError

        def broken(spec, z, w):
            raise NotInIsotypicError("leading exponent is incompatible")

        monkeypatch.setattr("hardyq.kernels.quotient_kernel", broken)
        points = '[{"z": [[0.3, 0.0], [0.0, 0.1]], "w": [[0.2, 0.0], [-0.4, 0.0]]}]'
        code, out, err = run_cli(capsys, "kernel", "eval", "--spec", TestKernelVerb.SPEC,
                                 "--points", points)
        assert code == 3 and out == ""
        report = json.loads(err)
        assert report["error"] == "NotInIsotypicError: leading exponent is incompatible"
        assert "Traceback" in report["traceback"] and "broken" in report["traceback"]

    @pytest.mark.parametrize("argv, message", [
        (["invariant", "index", "G(1,1,2)", "-D", "-1"], "degree bound must be >= 0"),
        (["toeplitz", "window", "--group", "G(1,1,2)", "--symbol", SYMBOL_MIXED, "-D", "-1"],
         "degree bound must be >= 0"),
        (["toeplitz", "bh", "--group", "G(1,1,2)", "--symbol", SYMBOL_MIXED, "-D", "-1"],
         "degree bound must be >= 0"),
        (["toeplitz", "bh", "--group", "Z(2)@1^2", "--symbol",
          '{"dim": 2, "terms": [{"c": [1, 0], "e": [2, 0]}]}', "-D", "4"],
         "the shift relations are stated for G(m,p,n) quotients"),
        (["toeplitz", "semd2", "--group", "G(1,1,3)", "--symbol",
          '{"dim": 3, "terms": [{"c": [1, 0], "e": [1, 1, 1]}]}', "--symbol2",
          '{"dim": 3, "terms": [{"c": [1, 0], "e": [0, 0, 0]}]}'],
         "the derivative criterion applies to bidisc quotients"),
    ])
    def test_out_of_range_requests_are_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": message}

    def test_malformed_kernel_request_is_usage_error(self, capsys):
        points = '[{"z": [[0.3, 0.0], [0.0, 0.1]]}]'
        code, _, err = run_cli(capsys, "kernel", "eval", "--spec", TestKernelVerb.SPEC,
                               "--points", points)
        assert code == 2 and json.loads(err) == {"error": "'w'"}
        code, _, err = run_cli(capsys, "kernel", "eval", "--spec",
                               '{"domain": "polydisc", "group": 5}', "--points", "[]")
        assert code == 2 and json.loads(err) == {"error": "cannot parse group spec 5"}


class TestNumpyFreeCore:
    """`import hardyq` and the group and invariant verbs run with numpy
    blocked; kernels, toeplitz and suites load it when first used."""

    GROUPS = ("G(1,1,2)", "G(4,2,3)", "Z(3)@1^2")
    CALLS = [argv for g in GROUPS for argv in (
        ["group", "info", g], ["group", "character", g],
        ["invariant", "index", g], ["invariant", "ell", g],
        ["invariant", "map", g], ["invariant", "jacobian", g])] + [
        ["invariant", "ell", "G(3,1,3)", "--character", "det"],
        ["invariant", "ell", "G(4,4,2)", "--character", "rho1"]]

    # a None entry in sys.modules makes every import of numpy raise
    BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import hardyq
from hardyq import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, buf.getvalue()])
gamma = hardyq.GammaBasis(hardyq.make_character(hardyq.make_group("G(1,1,2)"), "sgn"))((0, 1))
out.append(gamma.to_json())
g = hardyq.make_group("G(1,1,3)")
ep = hardyq.ell(hardyq.make_character(g, "sgn"))
out.append(hardyq.lower(ep, hardyq.basic_map(g), hardyq.GammaBasis.shared(ep.character)((1, 2, 5))).to_json())
try:
    hardyq.quotient_kernel
except ImportError:
    out.append("deferred")
print(json.dumps(out))
"""

    def test_group_and_invariant_verbs_run_without_numpy(self):
        src = str(Path(hardyq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", self.BLOCKED, json.dumps(self.CALLS)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *got, gamma, low, deferred = json.loads(proc.stdout)
        assert deferred == "deferred"
        sgn = groups.make_character(groups.make_group("G(1,1,2)"), "sgn")
        assert gamma == invariants.GammaBasis(sgn)((0, 1)).to_json()
        g = groups.make_group("G(1,1,3)")
        ep = invariants.ell(groups.make_character(g, "sgn"))
        basis = invariants.GammaBasis.shared(ep.character)
        assert low == invariants.lower(ep, invariants.basic_map(g), basis((1, 2, 5))).to_json()
        want = []
        for argv in self.CALLS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            want.append([code, buf.getvalue()])
        assert [code for code, _ in want] == [0] * len(self.CALLS)
        assert got == want

    def test_deferred_names_resolve(self):
        assert hardyq.quotient_kernel is kernels.quotient_kernel
        assert hardyq.bh_check is toeplitz.bh_check
        # hqbench imports the basis from hardyq.toeplitz
        assert toeplitz.GammaBasis is invariants.GammaBasis is hardyq.GammaBasis

    def test_suite_names_match_the_suites(self):
        assert cli.SUITE_NAMES == tuple(suites.ALL_SUITES)

    def test_seed_and_pairs_lists_match_the_suites(self, capsys, monkeypatch):
        # --seed and --pairs are accepted exactly where the suite function
        # takes that parameter
        takes = {name: inspect.signature(fn).parameters
                 for name, fn in suites.ALL_SUITES.items()}
        assert cli._SEEDED_SUITES == tuple(n for n, p in takes.items() if "seed" in p)
        monkeypatch.setattr("hardyq.suites.run_suite", lambda name, **kwargs: {"ok": True})
        for name, params in takes.items():
            code = run_cli(capsys, "verify", name, "--pairs", "1")[0]
            assert code == (0 if "pairs" in params else 2), name

    def test_input_errors_share_one_base(self):
        for exc in (groups.GroupSpecError, groups.CharacterError, kernels.DomainError,
                    toeplitz.SymbolError, toeplitz.WindowMarginError, toeplitz.RecoveryError,
                    invariants.BoundError, cli.UsageError):
            assert issubclass(exc, groups.InputError)
