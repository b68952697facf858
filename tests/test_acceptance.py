"""Acceptance suite: the package's headline guarantees, one printed line per check.

C01-C10 are selfcheck suites: `centrokdv.selfcheck._SUITES` holds their
inputs and tolerances, and this file runs `run_all(128, 7)` once and asserts
each criterion's suites pass.  C11, convergence hygiene, is checked here.
Run with `pytest -v -s tests/test_acceptance.py` to see every line.
"""

import numpy as np
import pytest

import centrokdv.periodic_fn as pf
import centrokdv.curve_core as cc
import centrokdv.invariants as iv
import centrokdv.kdv_flow as kf
from centrokdv import selfcheck


# criterion -> the selfcheck suites that check it; each keeps its test id
CRITERIA = (
    ("c01_circle_anchors", "circle_anchors"),
    ("c02_circle_spectral_closed_form", "circle_spectrum"),
    ("c03_forms_invariant_under_transformation", "symplectic_invariance"),
    ("c04_transformation_commutes_with_flow", "flow_commutation", "kdv_conservation"),
    ("c05_integrals_of_transformation", "transform_integrals"),
    ("c06_period_maps_conjugate", "conjugacy"),
    ("c07_fourth_curve_closes_square", "permutability"),
    ("c08_pairing_relations_and_kernels", "form_relations"),
    ("c09_hamiltonian_ladder_recursion", "recursion_ladder"),
    ("c10_cross_ratio_limit", "cross_ratio_limit"),
)


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in selfcheck.run_all(128, 7)}


def criterion_test(label, suites):
    """A test printing each suite's selfcheck report line; all must pass."""

    def test(results):
        checked = [results[name] for name in suites]
        for line in selfcheck.format_report(checked, 128, 7).splitlines()[1:-1]:
            print(label[:3].upper(), line)
        failed = [f"{r.name} {r.residual!r} > {r.tol!r}" for r in checked if not r.passed]
        assert not failed, f"{label}: {', '.join(failed)}"

    return test


for _label, *_suites in CRITERIA:
    globals()[f"test_{_label}"] = criterion_test(_label, _suites)


def test_c11_convergence_hygiene():
    def doubled_report_gap(psi128):
        a = iv.invariant_report(cc.lift(cc.ProjectiveCurve(psi128)))
        b = iv.invariant_report(cc.lift(cc.ProjectiveCurve(pf.upsample(psi128, 256))))
        return max(abs(b[k] - a[k]) / max(1.0, abs(a[k])) for k in a)

    t = pf.grid(128)
    gap = doubled_report_gap(pf.PeriodicFn(0.1 * np.sin(2 * t), "periodic"))
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        psi = 0.05 * pf.random_band_limited(rng, 128, max_mode=3, parity="periodic")
        gap = max(gap, doubled_report_gap(psi))

    p0 = pf.PeriodicFn(-1.0 + 0.8 * np.cos(2 * t) + 0.4 * np.sin(4 * t), "periodic")
    ref = kf.evolve_potential(p0, 0.05, ds=6.25e-5)
    errs = [
        float(np.max(np.abs(kf.evolve_potential(p0, 0.05, ds=ds).samples - ref.samples)))
        for ds in (2e-3, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    factor = max(ratio, 16.0) / min(ratio, 16.0)
    ok = gap <= 1e-9 and factor <= 2.0
    detail = f"{gap:.3e} <= 1.0e-09, {factor:.3e} <= 2.0e+00"
    print(f"C11 convergence hygiene: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"C11 convergence hygiene: {detail}"
