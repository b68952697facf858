"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import workloads as wl  # noqa: E402
from centrokdv import backlund as bk  # noqa: E402
from centrokdv import curve_core as cc  # noqa: E402
from centrokdv import kdv_flow as kf  # noqa: E402
from centrokdv import periodic_fn as pf  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _metrics_match(result, listed):
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_short_run_prints_every_end_to_end_metric(workload):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("env: ") and "OPENBLAS_NUM_THREADS" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    _metrics_match(result, SPEC["end_to_end"])


def test_traced_run_prints_every_per_layer_metric():
    out = _run("--workload", "spectrum", "--seed", "5", "--seconds", "0.5", "--trace", "1")
    assert out.returncode == 0, out.stderr
    assert "overhead" in out.stdout
    _metrics_match(json.loads(out.stdout.strip().splitlines()[-1]), SPEC["per_layer"])


def _perturbed(fn, change):
    def wrapper(*args, **kwargs):
        return change(fn(*args, **kwargs))

    return wrapper


@pytest.mark.parametrize(
    "workload, module, name, change",
    [
        (
            "transform",
            bk,
            "permutability_square",
            lambda sq: dataclasses.replace(sq, both_orders_distance=sq.both_orders_distance + 2e-6),
        ),
        (
            "flow",
            kf,
            "evolve_potential",
            lambda p: pf.PeriodicFn(p.samples * (1.0 + 1e-6), p.parity),
        ),
    ],
)
def test_output_perturbed_past_tolerance_counts_as_failed(monkeypatch, workload, module, name, change):
    w = wl.WORKLOADS[workload]
    x = w.make_input(3, 0)
    clean = wl.Ledger()
    w.task(x, clean)
    monkeypatch.setattr(module, name, _perturbed(getattr(module, name), change))
    led = wl.Ledger()
    w.task(x, led)
    fn = f"{module.__name__.split('.')[-1]}.{name}"
    missed = [f for f in led.failures if f.fn == fn and f.error == "CheckFailed"]
    assert len(missed) == 1
    assert led.attempted == clean.attempted
    assert led.failed == clean.failed + 1
    assert min(led.margins()) < 0.0


def test_raise_is_recorded_with_class_and_message():
    led = wl.Ledger()

    def boom():
        raise wl.NumericalFailure("no branch")

    assert led.call("backlund.apply_tc", boom) is None
    (f,) = led.failures
    assert (f.fn, f.error, f.message, f.expected) == ("backlund.apply_tc", "NumericalFailure", "no branch", True)
    assert led.correct
    led.call("backlund.apply_tc", lambda: [][1])
    assert not led.correct


def test_result_failed_counts_crashed_calls_only():
    led = wl.Ledger()
    led.call("curve_core.lift", _off_unity_curve)
    led.check("backlund.permutability_square", "both_orders_distance", 1.0)
    led.call("backlund.apply_tc", lambda: [][1])
    assert (led.attempted, led.failed, led.crashed) == (2, 3, 1)
    metrics = {m["name"]: (1.0, m["unit"]) for m in SPEC["end_to_end"]}
    assert json.loads(run.result_line(led, metrics, SPEC["end_to_end"]))["failed"] == 1


def test_times_are_divided_by_host_slowness():
    led = wl.Ledger()
    led.call("curve_core.lift", lambda: None)
    metrics = run.end_to_end(led, tasks=[(1.0, 2.0), (3.0, 2.0)], setups=[(1.0, 0.5), (2.0, 0.5), (9.0, 1.0)])
    assert metrics["tasks_per_s"][0] == pytest.approx(1.0)
    assert metrics["setup_s"][0] == pytest.approx(4.0)
    assert metrics["task_ms.p50"][0] == pytest.approx(1000.0)


def _off_unity_curve():
    """A plane curve with Wronskian 2: the construction gate raises."""
    return cc.CentroAffineCurve(
        pf.from_callable(lambda t: 2.0 * np.cos(t), 128, "antiperiodic"),
        pf.from_callable(np.sin, 128, "antiperiodic"),
    )


def _broadcast_error_in_package():
    """numpy raises a ValueError from C inside the package's own arithmetic."""
    broken = pf.PeriodicFn(np.ones(128))
    object.__setattr__(broken, "samples", np.ones((128, 3)))
    return broken + pf.PeriodicFn(np.ones(128))


@pytest.mark.parametrize(
    "thunk, error, documented",
    [
        (_off_unity_curve, "ValueError", True),
        (lambda: np.linalg.solve(np.zeros((2, 2)), np.ones(2)), "LinAlgError", False),
        (_broadcast_error_in_package, "ValueError", False),
    ],
)
def test_only_the_package_own_value_errors_are_documented(thunk, error, documented):
    led = wl.Ledger()
    assert led.call("backlund.apply_tc", thunk) is None
    (f,) = led.failures
    assert (f.error, f.expected, led.correct) == (error, documented, documented)


@pytest.mark.parametrize("workload", ["transform", "flow"])
def test_same_seed_same_tasks_and_outcomes(workload):
    w = wl.WORKLOADS[workload]
    pools = [wl.make_pool(w, 11, size=4) for _ in range(2)]
    assert _arrays(pools[0]) and all(np.array_equal(a, b) for a, b in zip(_arrays(pools[0]), _arrays(pools[1])))
    outcomes = []
    for pool in pools:
        led = wl.Ledger()
        run.run_tasks(w, pool, led, count=4)
        share = led.failed / led.attempted
        outcomes.append((share, led.accuracy_margin(), [(f.fn, f.error) for f in led.failures]))
    assert outcomes[0] == outcomes[1]
    other = wl.make_pool(w, 12, size=4)
    assert not all(np.array_equal(a, b) for a, b in zip(_arrays(pools[0]), _arrays(other)))


def _arrays(pool):
    """Every sample array of every input in the pool, in order."""
    return [a for x in pool for a in _samples(x)]


def _samples(x):
    if isinstance(x, pf.PeriodicFn):
        return [x.samples]
    return [a for f in dataclasses.fields(x) for a in _samples(getattr(x, f.name))]


def test_tail_has_ten_tasks_beyond_it():
    lat = [float(i) for i in range(40)]
    value, level = run.tail(lat)
    assert sum(v > value for v in lat) == 10
    assert level == 75.0


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "transform", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
