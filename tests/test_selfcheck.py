import json
import math
from pathlib import Path

import numpy as np
import pytest

import centrokdv.backlund as bk
import centrokdv.curve_core as cc
import centrokdv.riccati_monodromy as rm
from centrokdv import selfcheck
from centrokdv.errors import BranchSingular

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_suite(name, n=128, seed=7):
    tol, fn = next((tol, fn) for suite, tol, fn in selfcheck._SUITES if suite == name)
    return selfcheck.SuiteResult(name, fn(n, np.random.default_rng(seed)), tol)


def test_registry_matches_the_benchmark_suite_metrics():
    per_layer = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    timed = [
        m[len("selfcheck.") : -len(".ms")]
        for m in per_layer
        if m.startswith("selfcheck.") and m.endswith(".ms")
    ]
    assert [name for name, _, _ in selfcheck._SUITES] == timed
    for entry in selfcheck._SUITES:
        name, tol, fn = entry
        assert isinstance(entry, tuple) and isinstance(name, str)
        assert type(tol) is float and callable(fn)


def test_matching_identity_just_over_its_tighter_bound_fails_permutability(monkeypatch):
    monkeypatch.setattr(bk, "matching_identity_residual", lambda *args: 2e-10)
    assert not run_suite("permutability").passed


def test_discriminant_just_over_its_tighter_bound_fails_transform_integrals(monkeypatch):
    # determinant 1 + 8e-10 passes the unimodular and unit-Wronskian gates
    # (both 1e-9) but moves I K - J^2 of the anchor by 1.6e-9 relative
    random_sl2 = cc.random_sl2
    monkeypatch.setattr(cc, "random_sl2", lambda rng: np.diag([1.0 + 8e-10, 1.0]) @ random_sl2(rng))
    result = run_suite("transform_integrals")
    assert not result.passed
    assert result.residual < 1e-7  # the drift alone passes the suite's own 1e-8 tolerance


def test_hamiltonian_drift_just_over_its_bound_fails_kdv_conservation(monkeypatch):
    monkeypatch.setattr(selfcheck, "_hamiltonian_drift", lambda G, s: 1.01e-7)
    assert not run_suite("kdv_conservation").passed


def test_report_prints_margin_in_decades():
    results = [
        selfcheck.SuiteResult("near", 1e-12, 1e-8),
        selfcheck.SuiteResult("exact", 0.0, 1e-10),
        selfcheck.SuiteResult("over", 2e-8, 1e-8),
    ]
    assert [r.margin for r in results[:2]] == [pytest.approx(4.0), math.inf]
    lines = selfcheck.format_report(results, 64, 3).splitlines()
    assert lines[0] == "selfcheck n=64 seed=3"
    assert lines[1] == "near    1.00000e-12  tol  1.0e-08  margin   4.00  PASS"
    assert lines[2] == "exact   0.00000e+00  tol  1.0e-10  margin    inf  PASS"
    assert lines[3] == "over    2.00000e-08  tol  1.0e-08  margin  -0.30  FAIL"
    assert lines[4] == "FAILURES PRESENT"


def _raising(exc):
    def suite(n, rng):
        raise exc

    return suite


def test_documented_failure_is_a_fail_and_the_run_goes_on(monkeypatch):
    ok = ("fine", 1e-8, lambda n, rng: 1e-12)
    monkeypatch.setattr(
        selfcheck,
        "_SUITES",
        (("singular", 1e-6, _raising(BranchSingular("u vanishes"))), ok),
    )
    first, second = selfcheck.run_all(64, 7)
    assert (first.name, first.residual, first.error, first.passed) == ("singular", math.inf, "BranchSingular", False)
    assert first.margin == -math.inf
    assert second == selfcheck.SuiteResult("fine", 1e-12, 1e-8)
    lines = selfcheck.format_report([first, second], 64, 7).splitlines()
    assert lines[1] == "singular           inf  tol  1.0e-06  margin   -inf  FAIL  BranchSingular"


def test_lift_miss_inside_a_suite_is_an_off_unity_fail(monkeypatch):
    def rough_lift(n, rng):
        # the strength-0.6 curve of default_rng(7) is too rough for n = 64: its lift misses the gate
        cc.lift(cc.random_projective(rng, n))

    monkeypatch.setattr(selfcheck, "_SUITES", (("gate", 1e-6, rough_lift),))
    (result,) = selfcheck.run_all(64, 7)
    assert result.error == "OffUnity" and not result.passed


def _caller_samples_off_unity(n, rng):
    g = cc.lift(cc.make_circle(n))
    cc.CentroAffineCurve(g.gamma1, 1.1 * g.gamma2)  # Wronskian 1.1


@pytest.mark.parametrize(
    "suite",
    [
        _raising(RuntimeError("defect")),
        _raising(ValueError("raised outside the package")),
        # numpy's broadcast ValueError, raised inside package arithmetic
        lambda n, rng: rm.conjugator_affine(np.ones(3), np.ones(4), 0.5),
        # argument checks raised by the package itself: a bad strength, and
        # caller samples off unit Wronskian
        pytest.param(lambda n, rng: cc.random_projective(rng, n, strength=1.5), id="package_argument_check"),
        pytest.param(_caller_samples_off_unity, id="caller_samples_off_unity"),
    ],
)
def test_undocumented_exception_propagates(monkeypatch, suite):
    monkeypatch.setattr(selfcheck, "_SUITES", (("broken", 1e-6, suite),))
    with pytest.raises((RuntimeError, ValueError)):
        selfcheck.run_all(64, 7)
