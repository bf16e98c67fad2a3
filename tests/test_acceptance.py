"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Runtime budgets are asserted where the criterion states one.  The criteria
reuse the bundled verification suites so the CLI `verify` verb runs the
same computations.
"""

import time

from hardyq import suites


def _report(num, label, rep, started=None, budget=None):
    ok = rep["ok"]
    extra = ""
    if started is not None:
        elapsed = time.time() - started
        extra = f" [{elapsed:.2f}s"
        if budget is not None:
            extra += f" / budget {budget:.0f}s"
            ok = ok and elapsed < budget
        extra += "]"
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}{extra}")
    return ok


def test_criterion_01_group_orders():
    t0 = time.time()
    rep = suites.check_group_orders()
    assert _report(1, "group orders m<=4 n<=4", rep, t0, budget=5.0)


def test_criterion_02_jacobian_closed_form():
    rep = suites.check_jacobian_forms()
    assert _report(2, "jacobian closed form + factorization", rep)


def test_criterion_03_c_sgn_norm():
    rep = suites.check_c_sgn()
    assert _report(3, "torus norm of the jacobian", rep)


def test_criterion_04_torus_relation():
    rep = suites.check_torus_relation()
    assert _report(4, "conj(theta_i) theta_n^p = theta_(n-i)", rep)


def test_criterion_05_kernel_identity():
    t0 = time.time()
    rep = suites.check_kernel_identity()
    assert _report(5, "symmetrized polydisc kernel", rep, t0, budget=10.0)


def test_criterion_06_projection_algebra():
    rep = suites.check_projection_algebra()
    assert _report(6, "projection algebra", rep)


def test_criterion_07_basis_orthonormality():
    rep = suites.check_gram()
    assert _report(7, "gamma basis Gram identity", rep)


def test_criterion_08_brown_halmos_forward():
    t0 = time.time()
    rep = suites.check_brown_halmos()
    assert _report(8, "shift relations on exact windows", rep, t0, budget=60.0)


def test_criterion_09_symbol_recovery():
    rep = suites.check_recovery()
    assert _report(9, "symbol recovery round trip", rep)


def test_criterion_10_correspondence():
    rep = suites.check_correspondence()
    assert _report(10, "product correspondence across realizations", rep)


def test_criterion_11_semd2_consistency():
    rep = suites.check_semd2()
    assert _report(11, "bidisc derivative criterion vs windows", rep)


def test_criterion_12_compactness_mechanism():
    rep = suites.check_compactness()
    ok = rep["ok"] and rep["nonzero_windows_persist"]
    print(f"criterion 12 (shift-constant entries persist): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_13_reported_discrepancies():
    rep = suites.check_ellipsoid_constants()
    assert _report(13, "ellipsoid constants reported, not asserted", rep)
