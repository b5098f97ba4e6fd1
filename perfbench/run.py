#!/usr/bin/env python3
"""eitsim benchmark: end-to-end CLI workloads with oracle-checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble_fig5 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # every workload

Each workload is a closed loop, one ``eitsim.cli.main`` call (or pair of
calls) at a time, in this process, with ``--workers 1`` and BLAS/OpenMP
pinned to one thread.  After each operation the files it wrote are read back
and compared with the stored references in ``perfbench/data`` (see
``oracle.py``); the comparison is not timed.

Workloads (why each exists):

* ``ensemble_fig5`` - ``simulate --config`` of the fig5-power 1 mW spectrum:
  five-level double-EIT model (25x25 generator), 140 GHz FWHM, 801 coarse
  shift samples plus the dense tier, 226 detuning points.  Most of its time is
  the batched LAPACK solve; solve, fill and quadrature changes show here, and
  its ``max_rel_err`` carries the known error of the default quadrature.
* ``homogeneous_fig3`` - ``simulate --preset fig3b`` then ``--preset fig3c``:
  46 single-shift Lambda spectra (9x9 generators) and 46 CSV + sidecar
  writes.  No ensemble average runs, so an ensemble-only change should leave
  it unchanged; its time is per-spectrum overhead.  It is not in
  ``BENCHMARK.json``'s workload list: on a shared two-vCPU machine only two
  workloads fit the repeated-run budget at a run length (50 s) long enough to
  time the fit steadily, and the other two cover every layer.
* ``fit_lambda_power`` - ``fit --config`` of four Lambda traces (0.25, 1, 4,
  16 mW; 41 detuning points each) with three shared parameters and sqrt(P)
  Rabi scaling.  It runs the finite-difference fit loop, the identifiability
  pass and the rebuild of the optimum's curves, with 9x9 solves.  41 points
  keep an operation to about 4-6 s, so a run's median rests on six to eight
  operations.  Its inputs are the stored oracle curves without noise.
  Seeded noise, even at 1e-4 of each trace's maximum, changed the
  optimizer's path (8 to 12 function evaluations) and so the work per
  operation by about 10 % from seed to seed; at the 1 % of acceptance
  criterion 7 the estimates scatter by up to 4.7 % (1 sigma), which would
  swamp the ~5 % quadrature bias this workload tracks.  No workload's inputs
  therefore depend on ``--seed``; it is recorded with the result.

End-to-end metrics (``--trace 0``):

* ``setup_s`` - median over fresh interpreters of importing ``eitsim.cli`` and
  building its parser, which every CLI invocation pays.  One interpreter is
  started per ``SETUP_EVERY_S`` of the run, between operations, so the samples
  spread over the whole run like the operations do, rather than falling into
  one busy or quiet stretch of a shared machine, and their number does not
  depend on how long an operation takes.
* ``op_s`` - median wall time of one operation.
* ``max_rel_err`` - simulate: max |A - A_ref| / max |A_ref| over every CSV the
  operation wrote; fit: max over the fitted rates of |estimate - truth| /
  truth.  Values below the reference's own resolution (``RESOLUTION``) are
  reported as that resolution, so rounding noise is not read as a change.
* ``peak_rss_mb`` - peak resident memory of this process.

An operation fails on a nonzero exit, a missing or non-finite output, a wrong
shape, an error above the workload's stated ceiling, or, for the fit,
non-convergence.  ``failed`` counts them against ``attempted``.

Per-layer metrics (``--trace 1``) come from spans installed around the calls
into each eitsim module (see ``tracing.py``).  Traced and untraced operations
alternate; ``trace.overhead_s`` is their median difference.
``trace.covered_frac`` is the share of the traced operation time that the
layer spans cover, the rest being ``cli.main``'s own self time;
``selfcheck.py`` requires at least ``COVERAGE_MIN``.

Deliberately not measured:

* ``eitsim map``: a 16-field scan spent 85 % of its time in the same batched
  solve as ``ensemble_fig5`` and under 0.1 % in ``spin``.
* Worker scaling: two shared cores cannot time it steadily.
* The five-level criterion-7 fit: about 187 s per operation.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
WORK = ROOT / ".perfbench_work"
AFFINITY_AT_START = sorted(os.sched_getaffinity(0))

SETUP_EVERY_S = 4.0  # one set-up sample per this many seconds of the run
SETUP_CODE = (
    "import time; t = time.perf_counter(); import eitsim.cli as c; "
    "c.build_parser(); print(repr(time.perf_counter() - t))"
)
# Stated accuracy of each reference: quad_vec to 1e-9 for ensemble spectra,
# and the single-point steady-state solve for homogeneous ones.
RESOLUTION = {"ensemble_fig5": 1e-9, "homogeneous_fig3": 1e-12, "fit_lambda_power": 1e-9}
# Sanity ceilings above which an operation counts as failed.  The fig5
# ceiling sits above the known 2.9e-2 error of the default quadrature.
CEILING = {"ensemble_fig5": 0.1, "homogeneous_fig3": 1e-6, "fit_lambda_power": 0.1}
# Least share of a traced operation the layer spans must cover.  cli.main's
# own self time (argument handling, presets, output paths) is the rest: about
# 6 % of homogeneous_fig3 and under 0.2 % of the other workloads.
COVERAGE_MIN = 0.9


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, work: Path):
        self.work = work
        self.out = work / "out"

    def operation(self) -> list[list[str]]:
        """CLI argument lists of one operation."""
        raise NotImplementedError

    def check(self) -> float:
        """Relative error of the outputs; raises BenchError on a failure."""
        raise NotImplementedError


def _read_trace(path: Path) -> tuple[list[float], list[float]]:
    if not path.exists():
        raise BenchError(f"missing output {path.name}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["delta_hz", "absorbance"]:
        raise BenchError(f"{path.name}: unexpected header {rows[0]}")
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def _compare(path: Path, delta_ref, a_ref) -> float:
    import numpy as np

    delta, a = (np.array(v) for v in _read_trace(path))
    if a.shape != a_ref.shape:
        raise BenchError(f"{path.name}: {a.size} points, expected {a_ref.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(delta))):
        raise BenchError(f"{path.name}: non-finite values")
    if np.abs(delta - delta_ref).max() > 1e-6 * np.abs(delta_ref).max():
        raise BenchError(f"{path.name}: detuning grid differs from the reference")
    return float(np.abs(a - a_ref).max() / np.abs(a_ref).max())


class EnsembleFig5(Workload):
    name = "ensemble_fig5"

    def __init__(self, work):
        super().__init__(work)
        import numpy as np
        from oracle import FIG5_FWHM, FIG5_GRID, FIG5_SAMPLES

        ref = np.load(DATA / "fig5_1mW.npz")
        self.delta_ref, self.a_ref = ref["delta_hz"], ref["absorbance"]
        shutil.copy(DATA / "fig5_model.json", work / "model.json")
        start, stop, points = FIG5_GRID
        self.config = work / "simulate.json"
        self.config.write_text(json.dumps({
            "units": "Hz",
            "model": "model.json",
            "mode": "inhomogeneous",
            "delta_grid": {"start": start, "stop": stop, "points": points},
            "inhomogeneity": {"fwhm": FIG5_FWHM, "n_samples": FIG5_SAMPLES},
            "output_prefix": "fig5_power_1.0mW",
        }))

    def operation(self):
        return [["simulate", "--config", str(self.config), "--out", str(self.out),
                 "--workers", "1"]]

    def check(self):
        return _compare(self.out / "fig5_power_1.0mW.csv", self.delta_ref, self.a_ref)


class HomogeneousFig3(Workload):
    name = "homogeneous_fig3"

    def __init__(self, work):
        super().__init__(work)
        import numpy as np
        from oracle import fig3_rows

        ref = np.load(DATA / "fig3.npz")
        self.rows = [(stem, grid, ref[stem]) for stem, _, grid in fig3_rows()]

    def operation(self):
        return [["simulate", "--preset", p, "--out", str(self.out), "--workers", "1"]
                for p in ("fig3b", "fig3c")]

    def check(self):
        return max(_compare(self.out / f"{stem}.csv", grid, a_ref)
                   for stem, grid, a_ref in self.rows)


class FitLambdaPower(Workload):
    name = "fit_lambda_power"

    def __init__(self, work):
        super().__init__(work)
        import numpy as np
        from oracle import LAMBDA_FWHM, LAMBDA_POWERS_MW, LAMBDA_START, LAMBDA_TRUTH

        self.truth = LAMBDA_TRUTH
        ref = np.load(DATA / "lambda_power.npz")
        delta = ref["delta_hz"]
        shutil.copy(DATA / "lambda_model.json", work / "model.json")
        traces = []
        for power in LAMBDA_POWERS_MW:
            name = f"trace_{power}mW.csv"
            with open(work / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["delta_hz", "signal"])
                for d, s in zip(delta, ref[f"{power}mW"]):
                    writer.writerow([repr(float(d)), repr(float(s))])
            traces.append({"csv": name, "power_mw": power})
        self.n_points = len(traces) * len(delta)
        bounds = {"gamma_e": (5e5, 5e7), "gamma_g_star": (1e3, 2e6), "omega_c": (1e5, 5e7)}
        self.config = work / "fit.json"
        self.config.write_text(json.dumps({
            "units": "Hz",
            "model": "model.json",
            "inhomogeneity": {"fwhm": LAMBDA_FWHM, "n_samples": 101},
            "traces": traces,
            "parameters": [
                {"name": n, "initial": LAMBDA_START[n], "lower": lo, "upper": hi}
                for n, (lo, hi) in bounds.items()
            ],
            "rabi_power_scaling": True,
            "power_ref_mw": 1.0,
        }))

    def operation(self):
        return [["fit", "--config", str(self.config), "--out", str(self.out),
                 "--workers", "1"]]

    def check(self):
        path = self.out / "fit.json"
        if not path.exists():
            raise BenchError("missing fit.json")
        doc = json.loads(path.read_text())
        if not doc["converged"]:
            raise BenchError(f"fit did not converge: {doc['message']}")
        with open(self.out / "residuals.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != self.n_points or not all(
            math.isfinite(float(v)) for r in rows for v in r[1:]
        ):
            raise BenchError("residuals.csv has the wrong shape or non-finite values")
        errs = []
        for name, truth in self.truth.items():
            est = doc["estimates_hz"][name]
            if not math.isfinite(est):
                raise BenchError(f"non-finite estimate for {name}")
            errs.append(abs(est - truth) / truth)
        return max(errs)


WORKLOADS = {w.name: w for w in (EnsembleFig5, HomogeneousFig3, FitLambdaPower)}


# ---------------------------------------------------------------------------
# Measurement


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import eitsim.cli and build its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing eitsim.cli failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_at_start": AFFINITY_AT_START,
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "loadavg_at_start": load_at_start,
    }


def run_operation(cli, wl: Workload) -> float:
    if wl.out.exists():
        shutil.rmtree(wl.out)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in wl.operation()]
    elapsed = time.perf_counter() - start
    if any(codes):
        raise BenchError(f"exit codes {codes}: {sink.getvalue().strip()[-300:]}")
    return elapsed


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def pin_to_fastest_cpu() -> dict[int, float]:
    """Pin this process, and so its children, to the CPU that runs a fixed
    solve fastest right now.  On a shared two-vCPU machine the two CPUs ran
    the same solve up to 20 % apart, and which one was faster changed within
    minutes; a process left to land on either one times as unsteadily."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(400, 25, 25)) + 1j * rng.normal(size=(400, 25, 25))
    b = np.ones((400, 25, 1), complex)
    probe = {}
    for cpu in AFFINITY_AT_START:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(15):
            start = time.perf_counter()
            np.linalg.solve(a, b)
            times.append(time.perf_counter() - start)
        probe[cpu] = statistics.median(times)
    os.sched_setaffinity(0, {min(probe, key=probe.get)})
    return probe


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_at_start = list(os.getloadavg())
    cpu_probe = pin_to_fastest_cpu()
    measure_setup()  # unmeasured: compiles bytecode and warms the file cache
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import eitsim.cli as cli

    work = WORK / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](work)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()

    times, traced_times, errors, failures, setup = [], [], [], [], []
    attempted = 0
    loop_start = time.perf_counter()
    # Operations, their checks and the set-up samples fill `seconds` of wall
    # time.  A traced run alternates untraced and traced operations, so it
    # makes two operations at least, and takes no set-up samples.
    while attempted < (2 if trace else 1) or time.perf_counter() - loop_start < seconds:
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            if traced:
                tracer.op_id = attempted
                tracer.install()
                try:
                    elapsed = run_operation(cli, wl)
                finally:
                    tracer.uninstall()
            else:
                elapsed = run_operation(cli, wl)
            err = wl.check()
            if not err <= CEILING[name]:
                raise BenchError(f"error {err:.3g} above the ceiling {CEILING[name]}")
        except Exception as exc:  # any failure of one operation is counted, not fatal
            failures.append(f"operation {attempted}: {type(exc).__name__}: {exc}")
        else:
            errors.append(max(err, RESOLUTION[name]))
            (traced_times if traced else times).append((attempted, elapsed))
        while not trace and len(setup) * SETUP_EVERY_S <= time.perf_counter() - loop_start:
            setup.append(measure_setup())
    if not times or (trace and not traced_times):
        raise BenchError("no operation succeeded: " + "; ".join(failures[:3]))

    result = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "ops": len(times),
        "op_times_s": [t for _, t in times],
        "env": dict(environment(load_at_start), cpu_probe_s=cpu_probe),
        "setup_runs_s": setup,
    }
    op_times = [t for _, t in times]
    if trace:
        metrics, consistent = layer_metrics(tracer, traced_times, op_times)
        result["correct"] = not failures and consistent
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s": (statistics.median(op_times), "s"),
            "max_rel_err": (max(errors), "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result["correct"] = not failures
        if len(op_times) >= 100:
            result["op_s_p90"] = percentile(op_times, 0.9)
        if name == "fit_lambda_power":
            result["fit_rel_err"] = max(errors)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


COUNTS = ("linalg.systems", "spectra.shifts", "fitting.nfev", "fitting.model_evals",
          "linalg.calls", "spectra.calls", "model.calls", "lindblad.build_calls",
          "fitting.njev", "fitting.ident_evals", "cli.rebuild_evals")


def layer_metrics(tracer, traced_times, untraced_times):
    """Median per-layer metrics over the traced operations, and whether their
    counts agree."""
    from tracing import METRIC_UNITS

    per_op = [tracer.op_metrics(op, t) for op, t in traced_times]
    consistent = all(all(m[c] == per_op[0][c] for c in COUNTS) for m in per_op)
    out = {}
    for key, unit in METRIC_UNITS.items():
        if key != "layers_s":
            out[key] = (statistics.median(m[key] for m in per_op), unit)
    traced_op = statistics.median(t for _, t in traced_times)
    out["trace.op_s"] = (traced_op, "s")
    out["trace.overhead_s"] = (traced_op - statistics.median(untraced_times), "s")
    out["trace.covered_frac"] = (statistics.median(m["covered_frac"] for m in per_op), "1")
    return out, consistent


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        summary = json.loads(done.stdout.splitlines()[-2])
        results[name] = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: ops={summary['ops']} attempted={summary['attempted']} "
              f"failed={summary['failed']} failed_ops={summary['failed'] / summary['attempted']}")
        for key, m in results[name]["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        for key in ("op_s_p90", "fit_rel_err"):
            if key in summary:
                print(f"  {key} = {summary[key]:.6g} {'s' if key == 'op_s_p90' else '1'}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eitsim" / "cli.py").is_file():
        print(f"perfbench: no eitsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
