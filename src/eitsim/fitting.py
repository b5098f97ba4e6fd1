"""Bounded nonlinear least-squares extraction of decay/dephasing parameters
from observed probe-absorption traces, with joint fits across power and
temperature series.

Per-trace linear scale and constant offset are always profiled out
analytically (observed signals come in arbitrary units on a background), so
the optimizer only sees the physical parameters.  The optimizer,
scipy.optimize.least_squares, is imported by the first fit() call, so
importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import Coupling, DecayChannel, Dephasing, DriveField, LevelSystemSpec
from .spectra import (
    InhomogeneitySpec,
    homogeneous_linewidth,
    inhomogeneous_spectrum,
    shift_samples,
)

CORRELATION_FLAG = 0.99
# scipy.optimize.least_squares once fit() has imported it.  A module global,
# not a local, because perfbench's tracer wraps the optimizer where this
# module binds it.
least_squares = None


@dataclass(frozen=True)
class ObservedTrace:
    delta_grid: np.ndarray  # Hz, strictly increasing
    signal: np.ndarray  # arbitrary units
    sigma: np.ndarray | None = None  # per-point noise
    power: float | None = None  # W
    temperature: float | None = None  # K

    def __post_init__(self):
        object.__setattr__(self, "delta_grid", np.asarray(self.delta_grid, float))
        object.__setattr__(self, "signal", np.asarray(self.signal, float))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, float))
        if np.any(np.diff(self.delta_grid) <= 0):
            raise ValueError("delta_grid must be strictly increasing")
        if len(self.signal) != len(self.delta_grid):
            raise ValueError("signal length mismatch")
        if self.sigma is not None and len(self.sigma) != len(self.delta_grid):
            raise ValueError("sigma length mismatch")


@dataclass(frozen=True)
class FreeParameter:
    name: str
    initial: float
    lower: float
    upper: float
    per_trace: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"{self.name}: bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower bound must be below upper")
        if not self.lower <= self.initial <= self.upper:
            raise ValueError(f"{self.name}: initial value outside bounds")


@dataclass(frozen=True)
class FitProblem:
    template: LevelSystemSpec
    inhom: InhomogeneitySpec
    parameters: tuple[FreeParameter, ...]
    rabi_power_scaling: bool = False  # per-trace rabi = value * sqrt(P/P_ref)
    power_ref: float = 1e-3  # W
    workers: int = 1


@dataclass
class FitResult:
    parameter_names: list[str]
    estimates: dict[str, float]
    uncertainties: dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    scales: np.ndarray  # per-trace linear nuisance
    offsets: np.ndarray  # per-trace constant nuisance
    converged: bool
    message: str = ""
    warnings: list[str] = field(default_factory=list)
    curves: list[np.ndarray] = field(default_factory=list)  # per-trace fitted model


@dataclass
class IdentifiabilityReport:
    parameter_names: list[str]
    sensitivities: dict[str, float]  # norm of the model derivative
    correlations: np.ndarray
    degenerate_pairs: list[tuple[str, str]]


def apply_parameter(spec: LevelSystemSpec, name: str, value: float) -> LevelSystemSpec:
    """Set one named physical parameter on a model spec.

    Supported names:
      gamma_e        total decay per excited level, split equally over its
                     existing decay targets
      gamma_g        rate of every ground->ground relaxation channel
      gamma_g_star   rate of every dephasing entry on a ground level
      gamma_e_deph   dephasing on every excited level (created if absent)
      omega_c / omega_p   drive amplitudes, scaled so the largest coupling
                     of that field equals the value (ratios preserved)
      energy:<label>       level energy in Hz
      decay:<src>-><tgt>   one decay channel rate
      dephasing:<label>    one dephasing rate (created if absent)
    """
    grounds = set(spec.ground_labels())
    excited = set(spec.excited_labels())

    if name == "gamma_e":
        counts: dict[str, int] = {}
        for ch in spec.decays:
            if ch.source in excited:
                counts[ch.source] = counts.get(ch.source, 0) + 1
        decays = tuple(
            replace(ch, rate=value / counts[ch.source]) if ch.source in excited else ch
            for ch in spec.decays
        )
        return replace(spec, decays=decays)

    if name == "gamma_g":
        decays = tuple(
            replace(ch, rate=value) if ch.source in grounds else ch for ch in spec.decays
        )
        return replace(spec, decays=decays)

    if name == "gamma_g_star":
        deph = tuple(
            replace(dp, rate=value) if dp.level in grounds else dp
            for dp in spec.dephasings
        )
        return replace(spec, dephasings=deph)

    if name == "gamma_e_deph":
        present = {dp.level for dp in spec.dephasings}
        deph = [
            replace(dp, rate=value) if dp.level in excited else dp
            for dp in spec.dephasings
        ]
        deph += [Dephasing(lbl, value) for lbl in sorted(excited - present)]
        return replace(spec, dephasings=tuple(deph))

    if name in ("omega_c", "omega_p"):
        field_id = "control" if name == "omega_c" else "probe"
        drives = []
        for d in spec.drives:
            if d.field_id == field_id:
                top = max(c.rabi for c in d.couplings)
                d = DriveField(
                    d.field_id,
                    tuple(replace(c, rabi=value * c.rabi / top) for c in d.couplings),
                )
            drives.append(d)
        return replace(spec, drives=tuple(drives))

    if name.startswith("energy:"):
        lbl = name.split(":", 1)[1]
        spec.index(lbl)  # KeyError on unknown label
        return spec.with_levels(
            replace(lv, energy=value) if lv.label == lbl else lv for lv in spec.levels
        )

    if name.startswith("decay:"):
        src, _, tgt = name.split(":", 1)[1].partition("->")
        if not any((ch.source, ch.target) == (src, tgt) for ch in spec.decays):
            raise KeyError(f"fit parameter {name!r}: no such decay channel")
        decays = tuple(
            replace(ch, rate=value) if (ch.source, ch.target) == (src, tgt) else ch
            for ch in spec.decays
        )
        return replace(spec, decays=decays)

    if name.startswith("dephasing:"):
        lbl = name.split(":", 1)[1]
        spec.index(lbl)  # KeyError on unknown label
        if any(dp.level == lbl for dp in spec.dephasings):
            deph = tuple(
                replace(dp, rate=value) if dp.level == lbl else dp
                for dp in spec.dephasings
            )
        else:
            deph = spec.dephasings + (Dephasing(lbl, value),)
        return replace(spec, dephasings=deph)

    raise KeyError(f"unknown fit parameter {name!r}")


class _Objective:
    """Maps the optimizer vector to per-trace model spectra, with caching."""

    def __init__(self, traces: list[ObservedTrace], problem: FitProblem):
        self.traces = traces
        self.problem = problem
        self.names: list[str] = []
        self.slots: list[list[int]] = [[] for _ in traces]  # vector slots per trace
        self.param_of_slot: list[FreeParameter] = []
        for p in problem.parameters:
            if p.per_trace:
                for t in range(len(traces)):
                    self.names.append(f"{p.name}[{t}]")
                    self.slots[t].append(len(self.param_of_slot))
                    self.param_of_slot.append(p)
            else:
                for t in range(len(traces)):
                    self.slots[t].append(len(self.param_of_slot))
                self.names.append(p.name)
                self.param_of_slot.append(p)
        self.x0 = np.array([p.initial for p in self.param_of_slot])
        self.lower = np.array([p.lower for p in self.param_of_slot])
        self.upper = np.array([p.upper for p in self.param_of_slot])
        self._cache: dict[tuple, np.ndarray] = {}
        self.scales = np.ones(len(traces))
        self.offsets = np.zeros(len(traces))
        # Freeze the ensemble integration grid at the template's linewidth so
        # the objective stays smooth while decay rates vary (the automatic
        # dense tier would otherwise re-grid at every gamma_e step).
        self.shift_grid = shift_samples(
            problem.inhom, homogeneous_linewidth(problem.template)
        )

    def spec_for_trace(self, t: int, x: np.ndarray) -> LevelSystemSpec:
        spec = self.problem.template
        for slot in self.slots[t]:
            spec = apply_parameter(spec, self.param_of_slot[slot].name, x[slot])
        if self.problem.rabi_power_scaling and self.traces[t].power is not None:
            factor = np.sqrt(self.traces[t].power / self.problem.power_ref)
            top = max(c.rabi for c in spec.control.couplings)
            spec = apply_parameter(spec, "omega_c", top * factor)
        return spec

    def model(self, t: int, x: np.ndarray) -> np.ndarray:
        key = (t,) + tuple(float(x[s]) for s in self.slots[t])
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        trace = self.traces[t]
        out = inhomogeneous_spectrum(
            self.spec_for_trace(t, x),
            self.problem.inhom,
            trace.delta_grid,
            workers=self.problem.workers,
            shift_grid=self.shift_grid,
        ).absorbance
        self._cache[key] = out
        return out

    def residuals(self, x: np.ndarray) -> np.ndarray:
        parts = []
        for t, trace in enumerate(self.traces):
            m = self.model(t, x)
            w = 1.0 / trace.sigma if trace.sigma is not None else np.ones_like(m)
            # Profile the linear nuisances: minimize ||w*(signal - a*m - b)||.
            design = np.column_stack([m * w, w])
            coef, *_ = np.linalg.lstsq(design, trace.signal * w, rcond=None)
            self.scales[t], self.offsets[t] = coef
            parts.append(w * (trace.signal - coef[0] * m - coef[1]))
        return np.concatenate(parts)


def fit(traces, problem: FitProblem) -> FitResult:
    """Joint trust-region least-squares fit over one or more traces.

    Non-convergence is flagged on the result rather than raised; near-singular
    Jacobian directions are reported per parameter in the warnings list.
    """
    global least_squares
    if least_squares is None:
        from scipy.optimize import least_squares
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace required")
    obj = _Objective(traces, problem)
    # The absorbance observable is dimensionless but tiny (weak probe), so
    # raw residuals would trip the optimizer's absolute gtol immediately.
    # A uniform residual scaling cancels exactly in the estimates and in the
    # covariance (cost and Jacobian scale together), so it is safe.
    norm = float(
        np.sqrt(
            np.mean(
                np.concatenate(
                    [
                        (t.signal / t.sigma if t.sigma is not None else t.signal) ** 2
                        for t in traces
                    ]
                )
            )
        )
    )
    if not norm > 0:
        norm = 1.0
    res = least_squares(
        lambda x: obj.residuals(x) / norm,
        obj.x0,
        bounds=(obj.lower, obj.upper),
        method="trf",
        diff_step=1e-4,  # rates are O(1e5..1e7) Hz; the default sqrt(eps)
        # relative step lands below the linear-solver noise floor
        x_scale="jac",
        xtol=1e-10,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=200 * (len(obj.x0) + 1),
    )
    obj.residuals(res.x)  # refresh the profiled nuisances at the optimum
    m, n = res.fun.size, obj.x0.size
    s2 = 2.0 * res.cost / (m - n) if m > n and res.cost > 0 else 1.0

    warnings: list[str] = []
    u, s, vt = np.linalg.svd(res.jac, full_matrices=False)
    tiny = s < 1e-8 * s.max() if s.max() > 0 else s == s
    for k in np.nonzero(tiny)[0]:
        involved = [obj.names[i] for i in np.nonzero(np.abs(vt[k]) > 0.3)[0]]
        warnings.append(f"singular Jacobian direction involving {involved}")
    s_inv = np.where(tiny, 0.0, 1.0 / np.maximum(s, 1e-300))
    cov = (vt.T * s_inv**2) @ vt * s2

    # Vector slots are in name order: a shared parameter has a single slot.
    return FitResult(
        parameter_names=list(obj.names),
        estimates=dict(zip(obj.names, map(float, res.x))),
        uncertainties=dict(zip(obj.names, map(float, np.sqrt(np.diag(cov))))),
        covariance=cov,
        residual_norm=float(norm * np.linalg.norm(res.fun)),
        scales=obj.scales.copy(),
        offsets=obj.offsets.copy(),
        converged=res.status > 0,
        message=res.message,
        warnings=warnings,
        curves=[
            obj.scales[t] * obj.model(t, res.x) + obj.offsets[t] for t in range(len(traces))
        ],
    )


def identifiability_report(problem: FitProblem, traces=None) -> IdentifiabilityReport:
    """Finite-difference sensitivity of the model at the initial point.

    Parameter pairs whose model derivatives are collinear beyond |corr| >
    0.99 cannot be determined independently from the given data and are
    flagged.  Without observed traces the template's default grid is used.
    """
    from .spectra import default_delta_grid

    if traces is None:
        grid = default_delta_grid(problem.template)
        traces = [ObservedTrace(grid, np.zeros_like(grid))]
    else:
        traces = list(traces)
    obj = _Objective(traces, problem)

    cols = []
    for k in range(len(obj.x0)):
        step = max(abs(obj.x0[k]) * 1e-4, 1e-6)
        hi, lo = obj.x0.copy(), obj.x0.copy()
        hi[k] += step
        lo[k] -= step
        col = np.concatenate(
            [(obj.model(t, hi) - obj.model(t, lo)) / (2 * step) for t in range(len(traces))]
        )
        cols.append(col)
    jac = np.array(cols).T

    norms = np.linalg.norm(jac, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    corr = (jac / safe).T @ (jac / safe)
    pairs = []
    for i in range(len(obj.names)):
        for j in range(i + 1, len(obj.names)):
            if norms[i] > 0 and norms[j] > 0 and abs(corr[i, j]) > CORRELATION_FLAG:
                pairs.append((obj.names[i], obj.names[j]))
    return IdentifiabilityReport(
        parameter_names=list(obj.names),
        sensitivities=dict(zip(obj.names, norms.tolist())),
        correlations=corr,
        degenerate_pairs=pairs,
    )
