import json
import math
from pathlib import Path

import numpy as np
import pytest

import centrokdv.backlund as bk
import centrokdv.curve_core as cc
from centrokdv import selfcheck

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
