"""Spans around the package's public functions, and the per-layer metrics
derived from them.

The traced run rebinds each traced function, in every package module that
holds a reference to it, to a wrapper that records a span: name, start,
end, parent span and task id.  Spans are kept in memory and written out at
the end of the run.  The package source is not changed; the original
bindings are restored when tracing stops.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from centrokdv import backlund, cli, curve_core, invariants, kdv_flow, periodic_fn, riccati_monodromy, selfcheck
from centrokdv.errors import NumericalFailure, StepUnstable

import workloads as wl

PACKAGE_MODULES = (periodic_fn, curve_core, riccati_monodromy, backlund, invariants, kdv_flow, selfcheck, cli)


def _n_suffix(name):
    """Span name carrying the grid size of the first argument."""
    return lambda first, *a, **kw: f"{name}.n{first.n}"


def _traj_suffix(name, position):
    """Span name marking the trajectory mode of a monodromy routine."""

    def namer(*a, **kw):
        traj = kw.get("keep_trajectory", a[position] if len(a) > position else False)
        return f"{name}_traj" if traj else name

    return namer


# (module, function name, span namer); a plain string names the span
TRACED = (
    (periodic_fn, "differentiate", "periodic_fn.differentiate"),
    (periodic_fn, "upsample", "periodic_fn.upsample"),
    (periodic_fn, "solve_linear_periodic", _n_suffix("periodic_fn.solve_linear_periodic")),
    (curve_core, "curvature", "curve_core.curvature"),
    (curve_core, "lift", "curve_core.lift"),
    (curve_core, "project", "curve_core.project"),
    (riccati_monodromy, "hill_fundamental", _traj_suffix("riccati_monodromy.hill_fundamental", 2)),
    (riccati_monodromy, "moebius_monodromy", _traj_suffix("riccati_monodromy.moebius_monodromy", 3)),
    (riccati_monodromy, "spectral_scan", "riccati_monodromy.spectral_scan"),
    (riccati_monodromy, "riccati_periodic_solutions", "riccati_monodromy.riccati_periodic_solutions"),
    (riccati_monodromy, "_rk4_transfer", "riccati_monodromy.transfer"),
    (backlund, "apply_tc", _n_suffix("backlund.apply_tc")),
    (backlund, "apply_tc_projective", "backlund.apply_tc_projective"),
    (backlund, "pushforward_tangent", "backlund.pushforward_tangent"),
    (backlund, "permutability_square", "backlund.permutability_square"),
    (kdv_flow, "evolve_potential", _n_suffix("kdv_flow.evolve_potential")),
    (kdv_flow, "evolve_curve", "kdv_flow.evolve_curve"),
    (kdv_flow, "flow_trace", "kdv_flow.flow_trace"),
    (kdv_flow, "commutation_check", "kdv_flow.commutation_check"),
    (invariants, "invariant_report", "invariants.invariant_report"),
)


class Tracer:
    """In-memory span recorder; install() rebinds, remove() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, task id, error class]
        self.stack = []
        self.task = -1
        self.work = {}  # span index -> RK4 steps x batch of a transfer call
        self.riccati = []  # (potential, c, branches) of every Riccati solve
        self.cli_start = None  # first span of the CLI probe
        self._undo = []

    def span(self, name):
        """Context manager recording one span under the current parent."""
        return _Span(self, name)

    def _wrap(self, fn, namer):
        tracer = self
        is_transfer = namer == "riccati_monodromy.transfer"
        is_riccati = namer == "riccati_monodromy.riccati_periodic_solutions"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(*args, **kwargs)
            with tracer.span(name) as idx:
                out = fn(*args, **kwargs)
            if is_transfer:
                b_half = args[0]
                tracer.work[idx] = (b_half.shape[0] - 1) // 2 * int(np.prod(b_half.shape[1:-2]))
            elif is_riccati:
                tracer.riccati.append((args[0], args[1], out))
            return out

        return wrapper

    def install(self):
        for module, attr, namer in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(original, namer)
            for mod in PACKAGE_MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        gate = curve_core.CentroAffineCurve.__post_init__
        self._undo.append((curve_core.CentroAffineCurve, "__post_init__", gate))
        curve_core.CentroAffineCurve.__post_init__ = self._wrap(gate, "curve_core.wronskian_gate")

    def remove(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def durations(self, name):
        """Durations of the named spans.

        Layer spans are taken only from the workload tasks and the probes:
        the CLI probe runs on other curves (circles, the selfcheck inputs).
        """
        probe_only = name.startswith(("cli.", "selfcheck."))
        spans = self.spans if probe_only else self.spans[: self.cli_start]
        return [s[2] - s[1] for s in spans if s[0] == name]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "task", "error"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, t.stack[-1] if t.stack else -1, t.task, None])
        t.stack.append(self.idx)
        return self.idx

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        t.stack.pop()
        record = t.spans[self.idx]
        record[2] = time.perf_counter()
        if exc_type is not None:
            record[5] = exc_type.__name__
        return False


# -- probes: direct calls to the inner layers and the CLI ---------------------


# Pool entries a probe may try per workload before giving up on a check.
PROBE_TRIES = 4


def probe_layers(seed: int, led: wl.Ledger) -> None:
    """One task of every workload, plus the layers no task calls directly.

    Runs on the first pool entries of each workload (strength 0.35 first),
    moving to the next entry until every check has produced a residual, so
    that each traced run reports every per-layer metric.
    """
    for workload in wl.WORKLOADS.values():
        for i in range(PROBE_TRIES):
            workload.task(workload.make_input(seed, i), led)
            if all(name in led.residuals for name in workload.checks):
                break
    x = wl.transform_input(seed, 0)
    for gamma in (x.gamma128, x.gamma512):
        G = led.call("curve_core.lift", lambda: curve_core.lift(gamma))
        if G is None:
            continue
        led.call("curve_core.project", lambda: curve_core.project(G))
        pot = led.call("curve_core.curvature", lambda: curve_core.curvature(G))
        if pot is None:
            continue
        pair = led.call(
            "riccati_monodromy.riccati_periodic_solutions",
            lambda: riccati_monodromy.riccati_periodic_solutions(pot, 0.5),
        )
        if pair is not None:
            kappa = 4.0 * pair[1].solution
            rhs = periodic_fn.differentiate(kappa)
            led.call("periodic_fn.solve_linear_periodic", lambda: periodic_fn.solve_linear_periodic(kappa, rhs))
        if gamma.n == 128:
            led.call("kdv_flow.evolve_potential", lambda: kdv_flow.evolve_potential(pot, wl.FLOW_S))


CLI_SUBCOMMANDS = ("gen", "lift", "project", "backlund", "scan", "kdv", "permutability", "selfcheck")


def probe_cli(tracer: Tracer, workdir: Path, seed: int):
    """Every subcommand in-process through cli.main.

    Returns the exit code of each subcommand and the margin of each
    selfcheck suite, in decades below its tolerance.

    The selfcheck suites are timed one by one while `centrokdv selfcheck`
    runs, by rebinding selfcheck._SUITES for the duration of that call.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    proj, plane = workdir / "curve.json", workdir / "plane.json"
    argv = {
        "gen": ["gen", "--preset", "trig", "--n", "128", "--seed", str(seed), "--output", str(proj)],
        "lift": ["lift", "--input", str(proj), "--output", str(plane)],
        "project": ["project", "--input", str(plane), "--output", str(workdir / "back.json")],
        "backlund": ["backlund", "--input", str(proj), "--c", "0.5", "--output", str(workdir / "image.json")],
        "scan": [
            "scan", "--input", str(proj), "--c", "4", "--output", str(workdir / "scan.csv"),
            "--delta-output", str(workdir / "delta.csv"),
        ],
        "kdv": ["kdv", "--input", str(proj), "--s-end", "0.02", "--output", str(workdir / "flow.csv")],
        "permutability": ["permutability", "--input", str(proj), "--c", "5", "--c2", "3"],
        "selfcheck": ["selfcheck"],
    }
    suites = selfcheck._SUITES
    suite_results = {}

    def timed(name, fn):
        def run(n, rng):
            with tracer.span(f"selfcheck.{name}"):
                residual = fn(n, rng)
            suite_results[name] = residual
            return residual

        return run

    codes = {}
    tracer.cli_start = len(tracer.spans)
    for sub in CLI_SUBCOMMANDS:
        if sub == "selfcheck":
            selfcheck._SUITES = tuple((name, tol, timed(name, fn)) for name, tol, fn in suites)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with tracer.span(f"cli.{sub}"):
                    codes[sub] = cli.main(argv[sub])
        finally:
            selfcheck._SUITES = suites
    margins = {name: wl.margin(suite_results.get(name, math.inf), tol) for name, tol, _ in suites}
    return codes, margins


# -- per-layer metrics --------------------------------------------------------


def _median_ms(tracer, name, scale=1e3):
    d = tracer.durations(name)
    return statistics.median(d) * scale if d else math.nan


def _riccati_defect(entry) -> float:
    potential, c, branches = entry
    worst = 0.0
    for b in branches:
        w = b.solution
        defect = periodic_fn.differentiate(w) - (w * w - 1.0) / c + c * potential
        worst = max(worst, float(np.max(np.abs(defect.samples))))
    return worst


def _fail_count(led, fn, cls):
    """Documented failures of `fn` whose class is `cls` or a subclass."""
    return sum(1 for f in led.failures if f.fn == fn and f.expected and f.kind is not None and issubclass(f.kind, cls))


def layer_metrics(tracer: Tracer, led: wl.Ledger, cli_codes: dict, suite_margins: dict, overhead: float) -> dict:
    """Every per-layer metric, name -> (value, unit)."""

    def ms(name):
        return _median_ms(tracer, name), "ms"

    def us(name):
        return _median_ms(tracer, name, 1e6), "us"

    def worst(check):
        return max(led.residuals.get(check, [math.nan])), "abs"

    transfer = [i for i, s in enumerate(tracer.spans[: tracer.cli_start]) if s[0] == "riccati_monodromy.transfer"]
    busy = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in transfer)
    steps = sum(tracer.work[i] for i in transfer)
    m = {
        "riccati_monodromy.hill_fundamental_traj.ms": ms("riccati_monodromy.hill_fundamental_traj"),
        "riccati_monodromy.moebius_monodromy_traj.ms": ms("riccati_monodromy.moebius_monodromy_traj"),
        "riccati_monodromy.spectral_scan.ms": ms("riccati_monodromy.spectral_scan"),
        "riccati_monodromy.hill_fundamental.ms": ms("riccati_monodromy.hill_fundamental"),
        "riccati_monodromy.transfer.steps_per_s": (steps / busy if busy else math.nan, "1/s"),
        "riccati_monodromy.riccati_periodic_solutions.ms": ms("riccati_monodromy.riccati_periodic_solutions"),
        "riccati_monodromy.riccati_defect.max": (
            max((_riccati_defect(e) for e in tracer.riccati), default=math.nan),
            "abs",
        ),
        "riccati_monodromy.isospectral_deviation.max": worst("isospectral_deviation"),
    }
    for n in (128, 512):
        d = tracer.durations(f"periodic_fn.solve_linear_periodic.n{n}")
        m[f"periodic_fn.solve_linear_periodic.n{n}.ms_p50"] = (statistics.median(d) * 1e3 if d else math.nan, "ms")
        m[f"periodic_fn.solve_linear_periodic.n{n}.ms_max"] = (max(d) * 1e3 if d else math.nan, "ms")
    m["periodic_fn.differentiate.us"] = us("periodic_fn.differentiate")
    m["periodic_fn.upsample.us"] = us("periodic_fn.upsample")
    for name in ("curvature", "lift", "project", "wronskian_gate"):
        m[f"curve_core.{name}.us"] = us(f"curve_core.{name}")
    m["backlund.apply_tc.n128.ms"] = ms("backlund.apply_tc.n128")
    m["backlund.apply_tc.n512.ms"] = ms("backlund.apply_tc.n512")
    for name in ("apply_tc_projective", "pushforward_tangent", "permutability_square"):
        m[f"backlund.{name}.ms"] = ms(f"backlund.{name}")
    m["backlund.apply_tc.failed.ValueError"] = (_fail_count(led, "backlund.apply_tc", ValueError), "count")
    m["backlund.apply_tc.failed.NumericalFailure"] = (
        _fail_count(led, "backlund.apply_tc", NumericalFailure),
        "count",
    )
    m["backlund.image_wronskian_defect.max"] = worst("image_wronskian")
    m["backlund.both_orders_distance.max"] = worst("both_orders_distance")
    m["kdv_flow.evolve_potential.n128.ms"] = ms("kdv_flow.evolve_potential.n128")
    m["kdv_flow.evolve_potential.n2048.ms"] = ms("kdv_flow.evolve_potential.n2048")
    for name in ("evolve_curve", "flow_trace", "commutation_check"):
        m[f"kdv_flow.{name}.ms"] = ms(f"kdv_flow.{name}")
    m["kdv_flow.commutation_check.failed.StepUnstable"] = (
        _fail_count(led, "kdv_flow.commutation_check", StepUnstable),
        "count",
    )
    m["kdv_flow.commutation_check.failed.NumericalFailure"] = (
        _fail_count(led, "kdv_flow.commutation_check", NumericalFailure),
        "count",
    )
    m["kdv_flow.commutation_distance.max"] = worst("commutation_distance")
    m["invariants.drift.max"] = worst("conservation_drift")
    m["invariants.invariant_report.us"] = us("invariants.invariant_report")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = ms(f"cli.{sub}")
        m[f"cli.{sub}.exit"] = (cli_codes[sub], "code")
    for name, _, _ in selfcheck._SUITES:
        m[f"selfcheck.{name}.ms"] = ms(f"selfcheck.{name}")
        m[f"selfcheck.{name}.margin"] = (suite_margins[name], "decades")
    m["checks.accuracy_margin.min"] = (min(led.margins(), default=math.nan), "decades")
    m["trace.overhead.share"] = (overhead, "ratio")
    return m


# Which end-to-end metric each per-layer metric should move, and on which
# workloads; written down before any optimisation is measured.  The first
# prefix that matches a metric's name applies.  A traced run prints this
# beside every metric; it is the only copy of the mapping.
MOVES = (
    ("riccati_monodromy.hill_fundamental_traj", "tasks_per_s, task_ms.p50", "transform (flow slightly)"),
    ("riccati_monodromy.moebius_monodromy_traj", "tasks_per_s, task_ms.p50", "transform (flow slightly)"),
    ("riccati_monodromy.spectral_scan", "tasks_per_s", "spectrum"),
    ("riccati_monodromy.hill_fundamental.", "tasks_per_s", "spectrum"),
    ("riccati_monodromy.transfer", "tasks_per_s", "transform, spectrum"),
    ("riccati_monodromy.riccati_periodic_solutions", "task_ms.tail", "transform, flow"),
    ("riccati_monodromy.riccati_defect", "accuracy_margin", "transform"),
    ("riccati_monodromy.isospectral_deviation", "accuracy_margin", "spectrum"),
    ("periodic_fn.solve_linear_periodic", "task_ms.tail, setup_s", "transform (flow slightly; spectrum none)"),
    ("periodic_fn.", "task_ms.p50", "transform, spectrum"),
    ("curve_core.", "task_ms.p50", "transform, flow"),
    ("backlund.apply_tc.failed", "ok_share", "transform"),
    ("backlund.image_wronskian_defect", "accuracy_margin", "transform"),
    ("backlund.both_orders_distance", "accuracy_margin", "transform"),
    ("backlund.", "tasks_per_s", "transform"),
    ("kdv_flow.commutation_check.failed", "ok_share", "flow"),
    ("kdv_flow.commutation_distance", "accuracy_margin", "flow"),
    ("kdv_flow.", "tasks_per_s", "flow"),
    ("invariants.drift", "accuracy_margin", "flow"),
    ("invariants.", "task_ms.p50", "flow"),
    ("cli.backlund", "tasks_per_s", "transform"),
    ("cli.permutability", "tasks_per_s", "transform"),
    ("cli.scan", "tasks_per_s", "spectrum"),
    ("cli.kdv", "tasks_per_s", "flow"),
    ("cli.", "none directly (setup and I/O only)", "-"),
    ("selfcheck.circle_spectrum", "tasks_per_s", "spectrum"),
    ("selfcheck.kdv_conservation", "tasks_per_s", "flow"),
    ("selfcheck.flow_commutation", "tasks_per_s", "flow"),
    ("selfcheck.recursion_ladder", "tasks_per_s", "flow"),
    ("selfcheck.", "tasks_per_s", "transform"),
    ("checks.", "accuracy_margin", "all"),
    ("trace.", "none (tracing cost)", "-"),
)


def moves(name: str):
    """(end-to-end metric, workloads) that the per-layer metric `name` should move."""
    for prefix, metric, on in MOVES:
        if name.startswith(prefix):
            return metric, on
    return "-", "-"
