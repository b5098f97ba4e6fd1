"""Bounded nonlinear least-squares extraction of decay/dephasing parameters
from observed probe-absorption traces, fitted jointly across a series.  A
power series scales the control Rabi frequency with sqrt(P) from each trace's
power; in any other series, a temperature series for one, the rates that
change from trace to trace are per_trace parameters.

Per-trace linear scale and constant offset are always profiled out
analytically (observed signals come in arbitrary units on a background), so
the optimizer only sees the physical parameters.  Its Jacobian is exact: the
sweep kernel returns each model spectrum's gradient with the spectrum, its
adjoint rows formed from the same factors as the states, and the profiled
nuisances enter by the variable-projection derivative (Golub & Pereyra 1973,
SIAM J. Numer. Anal. 10:413).  One pseudo-inverse per trace and evaluation
forms that projection, and the residual, the Jacobian and the identifiability
report all read it.  No finite differences are taken.  The optimizer,
scipy.optimize.least_squares, is imported by the first fit() call, so
importing this module loads no scipy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Dephasing, LevelSystemSpec
from .spectra import (
    InhomogeneitySpec,
    _check_workers,
    _sweep,
    _SweepKernel,
    homogeneous_linewidth,
    rabi_from_power,
    shift_samples,
)

CORRELATION_FLAG = 0.99
# Share of a parameter's model derivative that must survive the projection
# off the profiled scale and offset for the report not to flag it.
_SCALE_SHARE = 1e-3
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

    def __post_init__(self):
        object.__setattr__(self, "delta_grid", np.asarray(self.delta_grid, float))
        object.__setattr__(self, "signal", np.asarray(self.signal, float))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, float))
        for name, low in (("delta_grid", -np.inf), ("signal", -np.inf),
                          ("sigma", 0), ("power", 0)):
            value = getattr(self, name)
            if value is not None and not np.all((low < value) & (value < np.inf)):
                raise ValueError(f"{name} must be finite" + (" and > 0" if low == 0 else ""))
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

    def __post_init__(self):
        _check_workers(self.workers)
        if not 0 < self.power_ref < np.inf:
            raise ValueError("power_ref must be finite and > 0")
        if self.rabi_power_scaling and self.template.control is None:
            raise ValueError("rabi_power_scaling: the template has no 'control' field to scale")
        names = [p.name for p in self.parameters]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValueError(f"fit parameter {name!r} is listed twice")


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
    nfev: int = 0  # optimizer's residual evaluations
    njev: int = 0  # optimizer's Jacobian evaluations
    # identifiability_report's flagged pairs at the initial point
    degenerate_pairs: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class IdentifiabilityReport:
    parameter_names: list[str]
    sensitivities: dict[str, float]  # norm of the profiled model derivative
    correlations: np.ndarray
    degenerate_pairs: list[tuple[str, str]]


def apply_parameter(spec: LevelSystemSpec, name: str, value: float) -> LevelSystemSpec:
    """Set one named physical parameter on a model spec.

    Supported names, by the kind of model quantity they set:
      decay rates      gamma_e: total decay per excited level, split equally
                       over its existing decay targets; gamma_g: every
                       ground->ground channel; decay:<src>-><tgt>: one channel
      dephasing rates  gamma_g_star: every dephasing entry on a ground level;
                       gamma_e_deph: every excited level; dephasing:<label>:
                       one level.  The last two create missing entries.
      field amplitude  omega_c / omega_p: the largest coupling of the field
                       takes the value, ratios preserved; a field whose
                       couplings are all zero takes only 0
      level energy     energy:<label>, in Hz
    A name that selects nothing in the model raises KeyError.
    """
    head, colon, label = name.partition(":")
    kind = head + colon  # a shorthand name, or "decay:", "dephasing:", "energy:"
    grounds = set(spec.ground_labels())
    excited = set(spec.excited_labels())

    if kind in ("gamma_e", "gamma_g", "decay:"):
        if kind == "decay:":
            src, _, tgt = label.partition("->")
            chosen = [(ch.source, ch.target) == (src, tgt) for ch in spec.decays]
        else:
            sources = excited if kind == "gamma_e" else grounds
            chosen = [ch.source in sources for ch in spec.decays]
        channels = Counter(ch.source for ch, c in zip(spec.decays, chosen) if c)
        if not channels:
            raise KeyError(f"fit parameter {name!r}: selects no decay channel")
        split = kind == "gamma_e"  # a total per source, shared by its channels
        return replace(spec, decays=tuple(
            replace(ch, rate=value / channels[ch.source] if split else value) if c else ch
            for ch, c in zip(spec.decays, chosen)))

    if kind in ("gamma_g_star", "gamma_e_deph", "dephasing:"):
        present = {dp.level for dp in spec.dephasings}
        if kind == "dephasing:":
            spec.index(label)  # KeyError on unknown label
            levels = {label}
        else:  # gamma_g_star sets only the entries that exist
            levels = grounds & present if kind == "gamma_g_star" else excited
            if not levels:
                raise KeyError(f"fit parameter {name!r}: selects no dephasing entry")
        deph = tuple(
            replace(dp, rate=value) if dp.level in levels else dp for dp in spec.dephasings
        )
        created = tuple(Dephasing(lbl, value) for lbl in sorted(levels - present))
        return replace(spec, dephasings=deph + created)

    if kind in ("omega_c", "omega_p"):
        field_id = "control" if kind == "omega_c" else "probe"
        drives = []
        for d in spec.drives:
            if d.field_id == field_id:
                top = max((c.rabi for c in d.couplings), default=0.0)
                if top != 0.0:
                    d = replace(d, couplings=tuple(
                        replace(c, rabi=value * c.rabi / top) for c in d.couplings))
                elif value != 0.0:
                    # No nonzero coupling has a ratio to keep; zero stays zero.
                    raise ValueError(f"{name}: cannot scale all-zero couplings to {value!r}")
            drives.append(d)
        return replace(spec, drives=tuple(drives))

    if kind == "energy:":
        spec.index(label)  # KeyError on unknown label
        return spec.with_levels(
            replace(lv, energy=value) if lv.label == label else lv for lv in spec.levels
        )

    raise KeyError(f"unknown fit parameter {name!r}")


class _Objective:
    """Maps the optimizer vector to per-trace model spectra and their
    gradients, with caching."""

    def __init__(self, traces: list[ObservedTrace], problem: FitProblem):
        if problem.rabi_power_scaling:
            for t, trace in enumerate(traces):
                if trace.power is None:
                    raise ValueError(f"traces[{t}]: no power, and rabi_power_scaling "
                                     "scales the control by each trace's power")
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
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Freeze the ensemble integration grid at the template's linewidth so
        # the objective stays smooth while decay rates vary (the automatic
        # dense tier would otherwise re-grid at every gamma_e step).
        self.shift_grid = shift_samples(
            problem.inhom, homogeneous_linewidth(problem.template)
        )
        # Every fit and report evaluates every trace, so build them all now.
        self.blocks = [self._derivatives(t) for t in range(len(traces))]
        # A slot whose blocks are all zero moves nothing in the generator (the
        # energy of a level that is its own frame reference, say), so refuse
        # it as apply_parameter refuses a name that selects nothing.
        moved = np.zeros(len(self.x0), bool)
        for t, block in enumerate(self.blocks):
            moved[self.slots[t]] |= block.any(axis=(1, 2))
        for p, moves in zip(self.param_of_slot, moved):
            if not moves:
                raise KeyError(f"fit parameter {p.name!r}: moves nothing in the model")

    def spec_for_trace(self, t: int, x: np.ndarray) -> LevelSystemSpec:
        spec = self.problem.template
        for slot in self.slots[t]:
            spec = apply_parameter(spec, self.param_of_slot[slot].name, x[slot])
        if self.problem.rabi_power_scaling:
            top = max((c.rabi for c in spec.control.couplings), default=0.0)
            rabi = rabi_from_power(self.traces[t].power, top, self.problem.power_ref)
            spec = apply_parameter(spec, "omega_c", rabi)
        return spec

    def _derivatives(self, t: int) -> np.ndarray:
        """Derivative of the sweep kernel's a0 with respect to each of trace
        t's slots, shape (len(slots), m, m).

        Every value apply_parameter sets enters the bordered generator
        affinely, the sqrt(P) scaling included, and the kernel's real basis
        depends only on the rotating frame; so one difference of two kernel
        builds, a bound's width apart, is the exact derivative up to rounding.
        """
        base = _SweepKernel(self.spec_for_trace(t, self.x0)).a0
        rows = []
        for slot in self.slots[t]:
            x = self.x0.copy()
            x[slot] += self.upper[slot] - self.lower[slot]
            step = x[slot] - self.x0[slot]
            rows.append((_SweepKernel(self.spec_for_trace(t, x)).a0 - base) / step)
        return np.array(rows).reshape((len(rows),) + base.shape)

    def model(self, t: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Model spectrum of trace t at x, bit-equal to inhomogeneous_spectrum's
        on the frozen shift grid, and its gradient over trace t's slots,
        shape (len(slots), points)."""
        key = (t,) + tuple(float(x[s]) for s in self.slots[t])
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = _sweep(
                _SweepKernel(self.spec_for_trace(t, x)), self.shift_grid,
                self.traces[t].delta_grid, self.problem.workers, self.blocks[t])
        return hit

    def _profile(self, t: int, x: np.ndarray):
        """Trace t's variable projection at x, formed here only: weights w, the
        spread ws = w (s - s_bar) about the w^2-weighted mean s_bar (centred so
        that a large offset costs no digits), design D = [w m, w], its
        pseudo-inverse D^+, (scale, offset) = D^+ ws + (0, s_bar), the residual
        r = ws - D D^+ ws, and w dm with its projection (I - D D^+) w dm."""
        trace = self.traces[t]
        m, dm = self.model(t, x)
        w = 1.0 / trace.sigma if trace.sigma is not None else np.ones_like(m)
        mean = np.average(trace.signal, weights=w**2)
        ws = w * (trace.signal - mean)
        design = np.column_stack([m * w, w])
        pinv = np.linalg.pinv(design)
        coef = pinv @ ws
        ddm = dm.T * w[:, None]
        r = ws - design @ coef
        return ws, pinv, coef + (0.0, mean), r, ddm, ddm - design @ (pinv @ ddm)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self._profile(t, x)[3] for t in range(len(self.traces))])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of residuals(x) with the nuisances profiled out.

        With design D, coef = D^+ w s and r = w s - D coef, a change dD = [w
        dm, 0] of the design gives dr = -(I - D D^+) dD coef - D^+T dD^T r
        (Golub & Pereyra 1973): per trace -(scale (I - D D^+) w dm + D^+[0]
        (r^T w dm)), both terms read from _profile.  D^+ rather than (D^T
        D)^-1, whose condition number is that of D squared.
        """
        jac = np.zeros((sum(len(tr.signal) for tr in self.traces), len(x)))
        row = 0
        for t in range(len(self.traces)):
            _, pinv, coef, r, ddm, projected = self._profile(t, x)
            jac[row : row + len(r), self.slots[t]] = -(
                coef[0] * projected + np.outer(pinv[0], r @ ddm))
            row += len(r)
        return jac


def _stuck_start(p: FreeParameter) -> str | None:
    """Why a fit cannot leave p's initial value, or None."""
    if p.name in ("omega_c", "omega_p") and p.initial == 0.0:
        return (f"{p.name} cannot start at 0: the absorbance is even in the Rabi "
                "frequency, so its gradient there is 0 and the fit would not move")
    return None


def _flat_series(traces) -> str | None:
    """Why a series of traces determines nothing, or None."""
    if all(np.ptp(t.signal) == 0 for t in traces):
        return ("every signal is constant, and the profiled offset fits a constant "
                "exactly, so the series determines nothing")
    return None


def fit(traces, problem: FitProblem) -> FitResult:
    """Joint trust-region least-squares fit over one or more traces, with the
    exact Jacobian of the profiled residuals (see the module docstring).

    Non-convergence is flagged on the result rather than raised; near-singular
    Jacobian directions are reported per parameter in the warnings list, and
    identifiability_report's degenerate pairs come from the fit's own model
    evaluation at the initial point.  An omega_c or omega_p that starts at 0
    raises ValueError: the fit could not leave it.  So does a series whose
    every signal is constant, and, under rabi_power_scaling, one with a
    trace without a power.
    """
    global least_squares
    for p in problem.parameters:
        why = _stuck_start(p)
        if why:
            raise ValueError(why)
    if least_squares is None:
        from scipy.optimize import least_squares
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace required")
    obj = _Objective(traces, problem)
    why = _flat_series(traces)
    if why:
        raise ValueError(why)
    # The absorbance observable is dimensionless but tiny (weak probe), so
    # raw residuals would trip the optimizer's absolute gtol immediately.
    # A uniform residual scaling cancels exactly in the estimates and in the
    # covariance (cost and Jacobian scale together), so it is safe.  It is
    # the RMS of the spread each trace's profiled offset leaves, so no offset
    # can shrink it; the model at x0 is the optimizer's first evaluation.
    spread = np.concatenate([obj._profile(t, obj.x0)[0] for t in range(len(traces))])
    norm = float(np.sqrt(np.mean(spread**2)))
    res = least_squares(
        lambda x: obj.residuals(x) / norm,
        obj.x0,
        jac=lambda x: obj.jacobian(x) / norm,
        bounds=(obj.lower, obj.upper),
        method="trf",
        x_scale="jac",
        xtol=1e-10,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=200 * (len(obj.x0) + 1),
    )
    # Each trace's profiled scale and offset use up two degrees of freedom too.
    dof = res.fun.size - obj.x0.size - 2 * len(traces)
    s2 = 2.0 * res.cost / dof if dof > 0 and res.cost > 0 else 1.0

    warnings: list[str] = []
    u, s, vt = np.linalg.svd(res.jac, full_matrices=False)
    tiny = s < 1e-8 * s.max() if s.max() > 0 else s == s
    for k in np.nonzero(tiny)[0]:
        involved = [obj.names[i] for i in np.nonzero(np.abs(vt[k]) > 0.3)[0]]
        warnings.append(f"singular Jacobian direction involving {involved}")
    s_inv = np.where(tiny, 0.0, 1.0 / np.maximum(s, 1e-300))
    cov = (vt.T * s_inv**2) @ vt * s2

    # The profiled (scale, offset) of each trace at the returned estimates.
    coefs = [obj._profile(t, res.x)[2] for t in range(len(traces))]
    # Vector slots are in name order: a shared parameter has a single slot.
    return FitResult(
        parameter_names=list(obj.names),
        estimates=dict(zip(obj.names, map(float, res.x))),
        uncertainties=dict(zip(obj.names, map(float, np.sqrt(np.diag(cov))))),
        covariance=cov,
        residual_norm=float(norm * np.linalg.norm(res.fun)),
        scales=np.array([a for a, _ in coefs]),
        offsets=np.array([b for _, b in coefs]),
        converged=res.status > 0,
        message=res.message,
        warnings=warnings,
        curves=[a * obj.model(t, res.x)[0] + b for t, (a, b) in enumerate(coefs)],
        nfev=int(res.nfev),
        njev=int(res.njev),
        degenerate_pairs=_sensitivity(obj)[2],
    )


def _sensitivity(obj: _Objective):
    """Norms and correlations at obj.x0 of the derivatives the fit sees,
    (I - D D^+) w dm per trace with design D = [w m, w]: the fit's Jacobian
    at unit scale, free of the data.  Flags the pairs collinear beyond
    |corr| > CORRELATION_FLAG, and (name, "scale") for a parameter keeping
    less than _SCALE_SHARE of its raw norm.  The model at x0 is a cache hit
    once a fit has evaluated it."""
    raw = np.zeros((sum(len(tr.delta_grid) for tr in obj.traces), len(obj.x0)))
    jac = np.zeros_like(raw)
    row = 0
    for t in range(len(obj.traces)):
        *_, ddm, projected = obj._profile(t, obj.x0)
        raw[row : row + len(ddm), obj.slots[t]] = ddm
        jac[row : row + len(ddm), obj.slots[t]] = projected
        row += len(ddm)

    norms = np.linalg.norm(jac, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    corr = (jac / safe).T @ (jac / safe)
    pairs = []
    for i in range(len(obj.names)):
        for j in range(i + 1, len(obj.names)):
            if norms[i] > 0 and norms[j] > 0 and abs(corr[i, j]) > CORRELATION_FLAG:
                pairs.append((obj.names[i], obj.names[j]))
    shares = zip(obj.names, norms, np.linalg.norm(raw, axis=0))
    return norms, corr, pairs + [(n, "scale") for n, p, r in shares if p < _SCALE_SHARE * r]


def identifiability_report(problem: FitProblem, traces=None) -> IdentifiabilityReport:
    """Sensitivity of the model at the initial point, from the same exact
    model gradient the fit uses, with each trace's profiled scale and offset
    projected out as the fit's Jacobian does.

    Parameter pairs whose projected derivatives are collinear beyond |corr|
    > 0.99 cannot be determined independently from the given data and are
    flagged, and so is (name, "scale") for a parameter that mostly rescales
    the spectrum.  Only the traces' grids, sigmas and powers enter.  Without
    observed traces the template's default grid is used, at power_ref.
    """
    from .spectra import default_delta_grid

    if traces is None:
        grid = default_delta_grid(problem.template)
        traces = [ObservedTrace(grid, np.zeros_like(grid), power=problem.power_ref)]
    else:
        traces = list(traces)
    obj = _Objective(traces, problem)
    norms, corr, pairs = _sensitivity(obj)
    return IdentifiabilityReport(
        parameter_names=list(obj.names),
        sensitivities=dict(zip(obj.names, norms.tolist())),
        correlations=corr,
        degenerate_pairs=pairs,
    )
