"""Probe-absorption observables: homogeneous and ensemble-averaged spectra,
magneto-spectroscopy maps, and the control-intensity threshold utilities.

The steady-state sweep exploits the fact that the rotating-frame Hamiltonian
is affine in the detuning point: the Liouvillian is precomputed once, and the
optical shift (control_detuning) and the two-photon detuning each move a few
of its coherences.  The sweep works in the real basis (rho_ii, Re rho_ij,
Im rho_ij), where the generator of a Hermitian state is a real matrix of the
same size and each detuning acts by 2x2 rotation blocks on one contiguous
range of coordinates.  It factorises the generator once per value of one of
the two axes and evaluates the other, a low-rank update, in closed form over
the whole grid.  It factorises per shift for homogeneous spectra and per
two-photon point when an ensemble has enough shift samples to make that
cheaper, by a cost read from the model's and the grid's sizes (see
_SweepKernel).  It sweeps the grid in tiles of at most _POINTS points (see
_sweep_rows) and averages ensembles by a fixed-order weighted reduction, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    CONTROL,
    DetuningPoint,
    LevelSystemSpec,
    assemble_hamiltonian,
    assign_rotating_frame,
    detuning_derivatives,
)
from .lindblad import (
    TWO_PI,
    Liouvillian,
    _bordered_system,
    dissipator_superoperator,
    hamiltonian_superoperator,
    steady_state,
)

_POINTS = 2560  # (shift, two-photon) points per tile of the sweep, see
                # _sweep_rows; fixed so tiling does not depend on the worker count
_MAX_COND_W = 1e4  # beyond this a near-defective pole basis costs accuracy that
                   # one refinement step does not restore; such lines are
                   # solved point by point
_MAX_IMAG = 1e-13  # share of max|A| that T A T^-1 may keep as imaginary part


class NonConvergedSampling(RuntimeError):
    """Doubling the ensemble sample count moved the spectrum by > 0.5%."""


@dataclass(frozen=True)
class InhomogeneitySpec:
    """Gaussian distribution of the shared optical shift.

    fwhm is the full width at half maximum of the distribution.  n_samples
    must be odd so the zero-shift subensemble is always sampled.  When the
    width exceeds ~100 homogeneous linewidths a dense sampling tier is added
    around zero shift, where the EIT structure lives.
    """

    fwhm: float  # Hz
    n_samples: int = 801
    truncation: float = 4.0  # multiples of sigma
    dense_halfwidth: float = 50.0  # multiples of the homogeneous linewidth
    dense_step: float = 0.5  # multiples of the homogeneous linewidth
    auto_dense: bool = True

    def __post_init__(self):
        for name in ("fwhm", "truncation", "dense_halfwidth", "dense_step"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float, np.integer, np.floating))
                    or isinstance(value, bool)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.auto_dense, (bool, np.bool_)):
            raise ValueError(f"auto_dense must be a bool, got {self.auto_dense!r}")
        if not 0.0 <= self.fwhm < np.inf:
            raise ValueError("fwhm must be finite and >= 0")
        if (not isinstance(self.n_samples, (int, np.integer)) or isinstance(self.n_samples, bool)
                or self.n_samples < 1 or self.n_samples % 2 == 0):
            raise ValueError("n_samples must be an odd integer >= 1")
        for name in ("truncation", "dense_halfwidth", "dense_step"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def sigma(self) -> float:
        return self.fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class SpectrumTrace:
    delta_grid: np.ndarray  # Hz, strictly increasing
    absorbance: np.ndarray  # dimensionless
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "delta_grid", np.asarray(self.delta_grid, dtype=float))
        object.__setattr__(self, "absorbance", np.asarray(self.absorbance, dtype=float))
        if np.any(np.diff(self.delta_grid) <= 0):
            raise ValueError("delta_grid must be strictly increasing")
        if self.delta_grid.shape != self.absorbance.shape:
            raise ValueError("grid/absorbance length mismatch")


@dataclass(frozen=True)
class MagnetoMap:
    delta_grid: np.ndarray  # Hz
    b_grid: np.ndarray  # Tesla
    absorbance: np.ndarray  # shape (len(b_grid), len(delta_grid))

    def __post_init__(self):
        object.__setattr__(self, "delta_grid", np.asarray(self.delta_grid, dtype=float))
        object.__setattr__(self, "b_grid", np.asarray(self.b_grid, dtype=float))
        object.__setattr__(self, "absorbance", np.asarray(self.absorbance, dtype=float))
        if self.absorbance.shape != (len(self.b_grid), len(self.delta_grid)):
            raise ValueError("absorbance shape inconsistent with grids")


@dataclass(frozen=True)
class ThresholdReport:
    satisfied: bool
    min_omega_c: float  # Hz
    margin: float  # omega_c^2 / (delta_i * gamma_g)


def model_hash(spec: LevelSystemSpec) -> str:
    return hashlib.sha1(repr(spec).encode()).hexdigest()[:12]


def homogeneous_linewidth(spec: LevelSystemSpec) -> float:
    """Largest total radiative decay rate of any excited level (Hz)."""
    totals: dict[str, float] = {}
    excited = set(spec.excited_labels())
    for ch in spec.decays:
        if ch.source in excited:
            totals[ch.source] = totals.get(ch.source, 0.0) + ch.rate
    return max(totals.values(), default=0.0)


def _probe_readout(spec: LevelSystemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked indices of the probe coherences rho[g, e] and of their
    mirror rho[e, g], and the weights rabi / max rabi; all empty without
    probe couplings.

    The absorbance is weights @ (Im vec[idx] - Im vec[idx_t]), twice the
    probe coherence of the Hermitian part of vec: a computed steady state
    is Hermitian only to rounding, and its Hermitian part is the closer one.
    """
    probe = spec.probe
    if probe is None or not probe.couplings:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    n = spec.n_levels
    g = np.array([spec.index(c.ground) for c in probe.couplings])
    e = np.array([spec.index(c.excited) for c in probe.couplings])
    rabis = np.array([c.rabi for c in probe.couplings])
    return g + n * e, e + n * g, rabis / rabis.max()


def probe_absorption(rho: np.ndarray, spec: LevelSystemSpec) -> float:
    """Normalized rate of energy absorption from the probe field.

    A = (2 / max rabi) * sum over probe couplings of rabi * Im(rho[g, e]),
    which is Rabi-scale-free and positive for an absorbing steady state; it
    is read from the Hermitian part of rho.
    """
    idx, idx_t, weights = _probe_readout(spec)
    vec = rho.ravel(order="F")
    return float((vec[idx].imag - vec[idx_t].imag) @ weights)


def _real_basis(d_delta: np.ndarray, d_tp: np.ndarray):
    """Change of basis T from column-stacked vec(rho) to real coordinates, and
    T^-1, for the per-level detuning derivatives d_delta and d_tp.

    The coordinates are rho_ii (i = 0 first), then Re rho_ij and Im rho_ij
    for each pair i < j, the pairs ordered [neither | P only | P and Q |
    Q only], where P holds the pairs the two-photon detuning moves (d_tp
    differs) and Q those the optical shift moves (d_delta differs).  P and Q
    are then the contiguous ranges returned with T.  A Hermitian rho has real
    coordinates, and T A T^-1 is real for a generator A that preserves
    Hermiticity.  The entries of T and T^-1 are 1, 1/2, +-i and +-i/2:
    multiplying by them is exact, and each entry of T A T^-1 sums at most
    four entries of A.
    """
    n = len(d_delta)
    i, j = np.triu_indices(n, 1)
    in_p, in_q = d_tp[i] != d_tp[j], d_delta[i] != d_delta[j]
    group = np.where(in_q, 3 - in_p, in_p)  # 0 neither, 1 P only, 2 both, 3 Q only
    order = np.argsort(group, kind="stable")
    i, j = i[order], j[order]
    m = n * n
    t = np.zeros((m, m), dtype=complex)
    tinv = np.zeros((m, m), dtype=complex)
    diag = np.arange(n)
    t[diag, diag * (n + 1)] = tinv[diag * (n + 1), diag] = 1.0
    re = n + 2 * np.arange(len(i))
    ij, ji = i + n * j, j + n * i
    t[re, ij] = t[re, ji] = 0.5
    t[re + 1, ij], t[re + 1, ji] = -0.5j, 0.5j
    tinv[ij, re] = tinv[ji, re] = 1.0
    tinv[ij, re + 1], tinv[ji, re + 1] = 1j, -1j
    ends = n + 2 * np.cumsum(np.bincount(group, minlength=4))
    return t, tinv, range(ends[0], ends[2]), range(ends[1], ends[3])


class _SweepKernel:
    """Steady-state solver for a fixed model over (shift, two-photon) points.

    The kernel works in the real basis of _real_basis: T maps the column-
    stacked vec(rho) to (rho_ii, Re rho_ij, Im rho_ij), and a0 = T A T^-1,
    the bordered generator at zero detuning, is a real matrix.  Its trace row
    stays row 0 and its right-hand side e_0.  A detuning adds -i w_ij rho_ij
    to each coherence, which in the real basis is the rotation block
    [[0, w_ij], [-w_ij, 0]] on (Re rho_ij, Im rho_ij).  So the bordered
    generator at shift d and two-photon detuning t is B(d, t) = a0 +
    d*delta_block + t*tp_block, each block acting on one contiguous range:
    the two-photon detuning on the coherences P of the probe-driven ground
    levels (tp_idx), the shift on the optical coherences Q (delta_idx).
    Either axis can therefore be the one that is factorised.

    Write B(u, v) = a0 + u*U + v*V, with V supported on the range S.  Along v
    each B is a rank-|S| update of A_u = B(u, 0).  One LU of A_u gives A_u^-1
    and, for y = A_u^-1 b, the Woodbury identity with the real |S| x |S|
    matrix V_SS (A_u^-1)_SS = W diag(lam) W^-1 gives every point of the line
    in closed form,

        B(u, v)^-1 b = y - (A_u^-1)_:S Re q,   q = W [v / (1 + v lam)] W^-1 V_SS y_S.

    The poles lam come in conjugate pairs, so q is real up to rounding; only
    the S-space terms are complex, and a line costs one factorisation plus
    O(|S|^2 + m |S|) real work per point.  One step of iterative refinement
    follows (it applies A_u^-1 to the residuals), and every point's residual
    against its own B(u, v) is checked.  A line that fails the check or has
    an ill-conditioned W, and every line of a call whose factorisation fails,
    is solved point by point by steady_state.  The absorbance is read from
    the Im rho_ge coordinate of each probe coupling.

    The two orientations are per shift (u = d, v = t, S = P) and per
    two-photon point (u = t, v = d, S = Q).  For m = len(a0), n_d shifts and
    n_t two-photon points, a factorisation costs about m^3 and a point's pole
    terms about m |S|; refinement and the residual check cost the same either
    way.  per_delta picks the orientation with the lower
    (factorisations) * m^2 + n_d * n_t * |S|, ties going per shift.
    """

    def __init__(self, spec: LevelSystemSpec):
        self.spec = spec
        n = spec.n_levels
        # The fallback rebuilds only the Hamiltonian part per point.
        self.frame = assign_rotating_frame(spec)
        self.dissipator = dissipator_superoperator(n, spec.labels, spec.decays,
                                                   spec.dephasings)
        a, _ = _bordered_system(self._liouvillian(DetuningPoint(0.0, 0.0)).matrix, n)
        d_delta, d_tp = detuning_derivatives(spec, self.frame)
        t, tinv, self.tp_idx, self.delta_idx = _real_basis(d_delta, d_tp)

        a0 = t @ a @ tinv
        if not np.abs(a0.imag).max() <= _MAX_IMAG * np.abs(a).max():
            raise ValueError("generator does not preserve Hermiticity")
        self.a0 = a0.real.copy()

        def block(deriv, idx):
            """The real update of one detuning on its range idx."""
            # -i 2pi (deriv_i - deriv_j) on vec index i + n j
            diag = -1j * TWO_PI * np.subtract.outer(deriv, deriv).ravel(order="F")
            s = slice(idx.start, idx.stop)
            return (t[s] @ (diag[:, None] * tinv[:, s])).real

        self.delta_block = block(d_delta, self.delta_idx)
        self.tp_block = block(d_tp, self.tp_idx)

        # The probe read-out weights @ (Im vec[idx] - Im vec[idx_t]) is real
        # linear in the real coordinates and touches one per coupling.
        idx, idx_t, weights = _probe_readout(spec)
        c = np.zeros(n * n)
        np.add.at(c, idx, weights)
        np.add.at(c, idx_t, -weights)
        readout = (c @ tinv).imag
        self.probe_idx = np.flatnonzero(readout)
        self.probe_w = readout[self.probe_idx]

    def _liouvillian(self, point: DetuningPoint) -> Liouvillian:
        """build_liouvillian's generator at point, from the kernel's frame and
        dissipator."""
        h = assemble_hamiltonian(self.spec, self.frame, point)
        return Liouvillian(hamiltonian_superoperator(h) + self.dissipator)

    def per_delta(self, n_shifts: int, n_tp: int) -> bool:
        """Whether one factorisation per two-photon point is cheaper than one
        per shift for an n_shifts x n_tp grid (see the class docstring)."""
        m2, points = len(self.a0) ** 2, n_shifts * n_tp
        return (n_tp * m2 + points * len(self.delta_idx)
                < n_shifts * m2 + points * len(self.tp_idx))

    def _resolvent(self, a: np.ndarray, s: slice, block: np.ndarray):
        """A_u^-1 and the pole form of each line: W, W^-1 V_SS, lam and the
        1-norm condition number of W, where block @ (A_u^-1)_SS =
        W diag(lam) W^-1 and block is V_SS."""
        eye = np.eye(a.shape[-1])
        ainv = np.linalg.solve(a, eye)
        lam, w = np.linalg.eig(block @ ainv[:, s, s])
        winv = np.linalg.solve(w, eye[: len(block), : len(block)])
        cond = np.linalg.norm(w, 1, axis=(1, 2)) * np.linalg.norm(winv, 1, axis=(1, 2))
        return ainv, w, winv @ block, lam, cond

    def _point_row(self, deltas, two_photons) -> np.ndarray:
        """One line by single-point solves, over whichever argument is an
        array; steady_state's SVD fallback either finds the unique steady
        state or raises DegenerateSteadyState."""
        return np.array([
            probe_absorption(steady_state(self._liouvillian(DetuningPoint(d, t))), self.spec)
            for d, t in np.broadcast(deltas, two_photons)
        ])

    def absorbance(self, deltas: np.ndarray, two_photons: np.ndarray,
                   per_delta: bool | None = None) -> np.ndarray:
        """Absorbance on the grid deltas x two_photons, shape (nd, nt),
        factorised per two-photon point if per_delta, else per shift; None
        picks the cheaper orientation for this grid."""
        deltas = np.asarray(deltas, dtype=float)
        two_photons = np.asarray(two_photons, dtype=float)
        if per_delta is None:
            per_delta = self.per_delta(len(deltas), len(two_photons))
        if per_delta:
            return self._lines(two_photons, deltas, True).T
        return self._lines(deltas, two_photons, False)

    def _lines(self, us: np.ndarray, vs: np.ndarray, per_delta: bool) -> np.ndarray:
        """Absorbance of B(u, v) for u in us (factorised) and v in vs (closed
        form), shape (len(us), len(vs))."""
        if per_delta:
            u_block, u_idx, v_block, v_idx = (self.tp_block, self.tp_idx,
                                              self.delta_block, self.delta_idx)
        else:
            u_block, u_idx, v_block, v_idx = (self.delta_block, self.delta_idx,
                                              self.tp_block, self.tp_idx)
        su, s = slice(u_idx.start, u_idx.stop), slice(v_idx.start, v_idx.stop)

        def point_line(k):
            return (self._point_row(vs, us[k]) if per_delta
                    else self._point_row(us[k], vs))

        a = np.broadcast_to(self.a0, (len(us),) + self.a0.shape).copy()
        a[:, su, su] += us[:, None, None] * u_block
        try:
            ainv, w, winv_v, lam, cond = self._resolvent(a, s, v_block)
        except np.linalg.LinAlgError:
            return np.array([point_line(k) for k in range(len(us))])
        v = vs[:, None]
        poles = v * lam[:, None, :]  # v / (1 + v lam), (nu, nv, |S|), in place
        poles += 1.0
        np.divide(v, poles, out=poles)
        # Contiguous transposes, so that each per-point product is one
        # batched matmul, and real forms of the complex S-space factors: a
        # complex array viewed as float interleaves (Re, Im), so y_S @ c_form
        # is W^-1 V_SS y_S in that layout, and p @ re_form is Re(W p).
        a_t, ainv_t = (np.ascontiguousarray(b.swapaxes(1, 2)) for b in (a, ainv))
        g_t = ainv_t[:, s]  # ((A_u^-1)_:S)^T
        c_form = np.ascontiguousarray(winv_v.swapaxes(1, 2), complex).view(float)
        re_form = np.ascontiguousarray(
            np.ascontiguousarray(w.conj(), complex).view(float).swapaxes(1, 2))
        v_t = v_block.T

        def solve(y):
            """B(u, v)^-1 b at every point, from y = A_u^-1 b."""
            p = (y[..., s] @ c_form).view(complex) * poles
            z = (p.view(float) @ re_form) @ g_t  # Re q @ ((A_u^-1)_:S)^T
            return np.subtract(y, z, out=z)

        def residual(x):
            """B(u, v) x - e_0 at every point."""
            res = x @ a_t
            update = x[..., s] @ v_t
            update *= v
            res[..., s] += update
            res[..., 0] -= 1.0
            return res

        x = solve(ainv[:, None, :, 0])  # A_u^-1 e_0
        # One step of iterative refinement: where the pole terms cancel, it
        # brings x back to the accuracy of a direct solve.
        x -= solve(residual(x) @ ainv_t)
        tol = 1e-10 * np.linalg.norm(a, np.inf, axis=(1, 2))
        # NaN-safe: max propagates a NaN residual, and a NaN residual or
        # condition number fails the comparison.
        ok = np.abs(residual(x)).reshape(len(us), -1).max(axis=1) <= tol
        ok &= cond <= _MAX_COND_W
        out = x[..., self.probe_idx] @ self.probe_w
        for k in np.flatnonzero(~ok):
            out[k] = point_line(k)
        return out


def _sweep_rows(kernel: _SweepKernel, deltas: np.ndarray, tp_grid: np.ndarray,
                workers: int) -> np.ndarray:
    """Absorbance rows for each shift sample, computed tile by tile.

    A tile takes up to _POINTS values of the closed-form axis and
    max(1, _POINTS // its length) values of the factorised axis, so it holds
    at most _POINTS points and its memory does not grow with the grid.  Tile
    boundaries are independent of the worker count, and results are written
    back by index, so the output is bit-identical for any number of workers.
    """
    deltas = np.asarray(deltas, dtype=float)
    per_delta = kernel.per_delta(len(deltas), len(tp_grid))
    closed = len(deltas) if per_delta else len(tp_grid)
    factored = max(1, _POINTS // max(closed, 1))
    sd, st = (_POINTS, factored) if per_delta else (factored, _POINTS)
    out = np.empty((len(deltas), len(tp_grid)))

    def run(tile):
        a, b = tile
        out[a : a + sd, b : b + st] = kernel.absorbance(
            deltas[a : a + sd], tp_grid[b : b + st], per_delta)

    tiles = [(a, b) for a in range(0, len(deltas), sd) for b in range(0, len(tp_grid), st)]
    if workers > 1 and len(tiles) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, tiles))
    else:
        for tile in tiles:
            run(tile)
    return out


def homogeneous_spectrum(
    spec: LevelSystemSpec,
    control_detuning: float,
    delta_grid: np.ndarray,
    workers: int = 1,
) -> SpectrumTrace:
    """Steady-state probe absorption vs two-photon detuning at one shift."""
    kernel = _SweepKernel(spec)
    rows = _sweep_rows(kernel, np.array([control_detuning]), np.asarray(delta_grid, float), workers)
    return SpectrumTrace(
        delta_grid=np.asarray(delta_grid, float),
        absorbance=rows[0],
        metadata={
            "model": model_hash(spec),
            "kind": "homogeneous",
            "control_detuning_hz": control_detuning,
        },
    )


def shift_samples(
    inhom: InhomogeneitySpec, linewidth_hint: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sample grid and normalized Gaussian weights for the optical shift.

    A dense tier (step dense_step * linewidth over +-dense_halfwidth *
    linewidth) is merged into the coarse grid when the distribution is much
    broader than the homogeneous linewidth, where a uniform grid would miss
    the narrow EIT structure near zero shift.
    """
    if inhom.fwhm == 0.0 or inhom.n_samples == 1:
        return np.array([0.0]), np.array([1.0])
    sigma = inhom.sigma
    half = inhom.truncation * sigma
    grid = np.linspace(-half, half, inhom.n_samples)
    if (
        inhom.auto_dense
        and linewidth_hint > 0
        and inhom.fwhm / linewidth_hint > 100.0
    ):
        dense_half = min(inhom.dense_halfwidth * linewidth_hint, half)
        n_dense = 2 * int(round(dense_half / (inhom.dense_step * linewidth_hint))) + 1
        dense = np.linspace(-dense_half, dense_half, n_dense)
        grid = np.union1d(grid, dense)
    pdf = np.exp(-0.5 * (grid / sigma) ** 2)
    # Trapezoidal cell widths for the (possibly non-uniform) grid.
    dx = np.empty_like(grid)
    dx[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    dx[0] = grid[1] - grid[0]
    dx[-1] = grid[-1] - grid[-2]
    w = pdf * dx
    return grid, w / w.sum()


def inhomogeneous_spectrum(
    spec: LevelSystemSpec,
    inhom: InhomogeneitySpec,
    delta_grid: np.ndarray,
    workers: int = 1,
    check_convergence: bool = False,
    shift_grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> SpectrumTrace:
    """Gaussian-weighted average of homogeneous spectra over the shift grid.

    shift_grid overrides the automatic (samples, weights) choice; fits use
    this to keep the integration grid fixed while decay rates vary, since the
    automatic dense tier scales with the homogeneous linewidth.
    """
    tp_grid = np.asarray(delta_grid, dtype=float)
    kernel = _SweepKernel(spec)
    linewidth = homogeneous_linewidth(spec)

    def average(shifts, weights) -> np.ndarray:
        return np.asarray(weights, float) @ _sweep_rows(kernel, shifts, tp_grid, workers)

    if shift_grid is None:
        shift_grid = shift_samples(inhom, linewidth)
    absorbance = average(*shift_grid)
    if check_convergence:
        refined = average(*shift_samples(
            replace(inhom, n_samples=2 * inhom.n_samples + 1), linewidth))
        tol = 0.005 * np.abs(absorbance).max()
        if np.abs(refined - absorbance).max() > tol:
            raise NonConvergedSampling(
                "spectrum changed by more than 0.5% of peak when doubling "
                "the ensemble sample count"
            )
    return SpectrumTrace(
        delta_grid=tp_grid,
        absorbance=absorbance,
        metadata={
            "model": model_hash(spec),
            "kind": "inhomogeneous",
            "fwhm_hz": inhom.fwhm,
            "n_samples": inhom.n_samples,
            "truncation": inhom.truncation,
        },
    )


def eit_threshold(omega_c: float, delta_i: float, gamma_g: float) -> ThresholdReport:
    """Minimum control Rabi frequency for complete transparency.

    The broadened-ensemble condition is omega_c^2 > delta_i * gamma_g
    (strict); margin is the ratio of the two sides.
    """
    if omega_c < 0 or delta_i < 0 or gamma_g < 0:
        raise ValueError("inputs must be nonnegative")
    product = delta_i * gamma_g
    min_omega = np.sqrt(product)
    margin = np.inf if product == 0 else omega_c**2 / product
    return ThresholdReport(
        satisfied=omega_c > min_omega,
        min_omega_c=min_omega,
        margin=margin,
    )


def rabi_from_power(power: float, omega_ref: float, power_ref: float) -> float:
    """Square-root intensity scaling from a (rabi, power) calibration point."""
    if power <= 0 or power_ref <= 0:
        raise ValueError("powers must be > 0")
    return omega_ref * np.sqrt(power / power_ref)


def power_from_rabi(omega: float, omega_ref: float, power_ref: float) -> float:
    """Inverse of rabi_from_power."""
    if omega < 0 or omega_ref <= 0 or power_ref <= 0:
        raise ValueError("invalid calibration")
    return power_ref * (omega / omega_ref) ** 2


def default_delta_grid(spec: LevelSystemSpec) -> np.ndarray:
    """201-point two-photon grid spanning +-6x the feature width estimate."""
    rabi_c = max((c.rabi for d in spec.drives for c in d.couplings
                  if d.field_id == CONTROL), default=0.0)
    width = max(homogeneous_linewidth(spec), rabi_c)
    if width == 0.0:
        width = 1.0
    return np.linspace(-6.0 * width, 6.0 * width, 201)


def _spin_index(label: str) -> int:
    """Eigenvalue index of a magneto-map level: g<k>/e<k> takes the k-th lowest."""
    if label[1:] not in ("1", "2", "3"):
        raise ValueError(f"level {label!r}: a magneto map needs labels g1..g3 and e1..e3")
    return int(label[1:]) - 1


def magneto_map(
    template: LevelSystemSpec,
    ground_model,
    excited_model,
    b_values,
    delta_grid: np.ndarray,
    inhom: InhomogeneitySpec,
    workers: int = 1,
) -> MagnetoMap:
    """Stack inhomogeneous spectra over a magnetic-field magnitude scan.

    Template levels must be labeled g1..g3 / e1..e3; their energies are
    replaced per field value by the eigenvalues of the two spin Hamiltonians
    (ascending order within each manifold).
    """
    from .spin import level_structure

    b_values = np.atleast_1d(np.asarray(b_values, dtype=float))
    if b_values.size == 0:
        b_values = np.array([ground_model.b_field])
    tp_grid = np.asarray(delta_grid, dtype=float)
    rows = []
    for b in b_values:
        ts = level_structure(
            replace(ground_model, b_field=b), replace(excited_model, b_field=b)
        )
        levels = []
        for lv in template.levels:
            k = _spin_index(lv.label)
            energy = ts.ground[k] if lv.manifold == "ground" else ts.excited[k]
            levels.append(replace(lv, energy=energy))
        spec_b = template.with_levels(levels)
        rows.append(
            inhomogeneous_spectrum(spec_b, inhom, tp_grid, workers=workers).absorbance
        )
    return MagnetoMap(delta_grid=tp_grid, b_grid=b_values, absorbance=np.array(rows))


# ---------------------------------------------------------------------------
# Trace analysis helpers (dip/feature metrics used by tests and fits)

def local_minima(trace: SpectrumTrace) -> np.ndarray:
    """Indices of interior local minima lying inside the absorption feature.

    Minima are kept when their prominence (depth below the surrounding
    shoulders) exceeds 2% of the trace maximum, which rejects numerical
    ripple in the far-detuned background.
    """
    from scipy.signal import find_peaks

    a = trace.absorbance
    idx, _ = find_peaks(-a, prominence=0.02 * a.max())
    return idx


def feature_centroid(trace: SpectrumTrace) -> float:
    """Centroid (Hz) of the absorption feature above its half height.

    The far-detuned background (median of the outermost points) is
    subtracted first, so broad ensemble offsets do not bias the centroid.
    """
    a = trace.absorbance
    x = trace.delta_grid
    edge = max(3, len(a) // 20)
    background = np.median(np.concatenate([a[:edge], a[-edge:]]))
    height = a.max() - background
    mask = a > background + 0.5 * height
    w = a[mask] - background
    return float((x[mask] * w).sum() / w.sum())


def dip_metrics(trace: SpectrumTrace) -> dict:
    """Peak/dip positions, contrast, and dip FWHM of a single-feature trace.

    The dip is the deepest interior local minimum; its FWHM is measured at
    the midpoint between dip depth and the surrounding shoulder height.
    """
    a = trace.absorbance
    x = trace.delta_grid
    mins = local_minima(trace)
    if mins.size == 0:
        return {
            "peak": float(a.max()),
            "peak_delta": float(x[np.argmax(a)]),
            "dip": None,
            "dip_delta": None,
            "contrast": 0.0,
            "dip_fwhm": None,
        }
    k = mins[np.argmin(a[mins])]
    left = a[:k].max()
    right = a[k + 1 :].max()
    shoulder = min(left, right)
    dip = a[k]
    contrast = (shoulder - dip) / shoulder if shoulder > 0 else 0.0
    half = dip + 0.5 * (shoulder - dip)
    # Walk out from the dip to the half level on both sides.
    i = k
    while i > 0 and a[i] < half:
        i -= 1
    xl = np.interp(half, [a[i], a[i + 1]], [x[i], x[i + 1]]) if a[i] >= half else x[0]
    j = k
    while j < len(a) - 1 and a[j] < half:
        j += 1
    xr = np.interp(half, [a[j], a[j - 1]], [x[j], x[j - 1]]) if a[j] >= half else x[-1]
    return {
        "peak": float(max(left, right)),
        "peak_delta": float(x[np.argmax(a)]),
        "dip": float(dip),
        "dip_delta": float(x[k]),
        "contrast": float(contrast),
        "dip_fwhm": float(xr - xl),
    }
