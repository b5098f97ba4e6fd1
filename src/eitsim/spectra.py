"""Probe-absorption observables: homogeneous and ensemble-averaged spectra,
magneto-spectroscopy maps, and the control-intensity threshold utilities.

The steady-state sweep exploits the fact that the rotating-frame Hamiltonian
is affine in the detuning point: the Liouvillian is precomputed once, and the
optical shift (control_detuning) and the two-photon detuning each move a few
of its coherences.  The sweep works in the real basis (rho_ii, Re rho_ij,
Im rho_ij), where the generator of a Hermitian state is a real matrix of the
same size and each detuning acts by 2x2 rotation blocks on one contiguous
range of coordinates.  Along either detuning axis a line of points is then a
low-rank update of one matrix, whose pole form one routine factorises
(_SweepKernel._line_factors), and every spectrum takes one of two routes
through it.  Rows: per optical shift, every point of the two-photon axis in
closed form (see _SweepKernel.absorbance).  Reduction: per two-photon point
the state is rational in the shift, so an ensemble average over at least
_MIN_REDUCED_SHIFTS shifts is taken over the poles before any state is
formed, a few complex divides per shift instead of a solve (see
_SweepKernel._average).  A line that either route cannot take is redone by
one batched dense solve, and point by point by steady_state where that fails
too (see _SweepKernel._redo_line).  The sweep takes the grid in tiles of a
fixed number of points (a reduced tile factors _GROUPS times as many lines
at once, and sums over the shifts a group of lines at a time) and reduces
each tile to its weighted partial at once, added in tile order (see _sweep),
so memory does not grow with the shift count and results are bit-identical
for any worker count.  For a fit the same pass also gives the gradient of
the average with respect to parameters that enter the generator affinely,
from the same factors and the value's own shift terms: their weighted
products among a line's poles with Im lam >= 0, the rest by conjugation and
partial fractions per line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    CONTROL,
    DetuningPoint,
    LevelSystemSpec,
    assign_rotating_frame,
    detuning_derivatives,
)
from .lindblad import TWO_PI, _bordered_system, liouvillian_for, steady_state

_POINTS = 2560  # (shift, two-photon) points per tile of rows, and m / |Q|
                # times as many per shift-sum group of a reduced tile (see
                # _sweep); fixed so tiling does not depend on the worker count
_GROUPS = 4  # shift-sum groups per reduced tile, factored by one _line_factors
             # call, whose overhead dominated a tile of one group (fig5: 5 lines)
_MAX_COND_W = 1e4  # beyond this a near-defective pole basis costs accuracy that
                   # the Newton step on the eigenpairs does not restore; such a
                   # line is redone by a dense solve (see _redo_line)
_MAX_IMAG = 1e-13  # share of max|A| that T A T^-1 may keep as imaginary part
_POLE_GAP = 1e-6  # relative distance below which a pole and the conjugate of
                  # another fail the gradient's divided differences (about
                  # 2e-10 accurate at it; see _pole_products)
_MIN_REDUCED_SHIFTS = 100  # below this many shifts rows beat _average; a line's
                           # factors (eig, Newton step, checks) cost about as
                           # much as 50-150 row points (Lambda, fig5)


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
    probe couplings, and zero weights when every probe Rabi frequency is 0,
    as such a probe absorbs nothing.

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
    top = rabis.max()
    return g + n * e, e + n * g, rabis / top if top > 0 else np.zeros(len(rabis))


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

    A line holds one detuning fixed and varies the other, u, whose block V
    acts on the range S: B = A + u E_S V E_S^T, with A the line's matrix at
    u = 0 and E_S the columns of S.  With [y | G] = A^-1 [e_0 | E_S] and the
    real |S| x |S| matrix M = G_SS V = W diag(lam) W^-1 (_line_factors), the
    Woodbury identity gives every state of the line in closed form,

        x(u) = B^-1 e_0 = y - u G Re(V W D(u) W^-1 y_S),   D(u) = diag(1 / (1 + u lam)),

    and, with H = E_S^T A^-1, rows S of B(u)^-1 = W D(u) W^-1 H.  The poles
    lam come in conjugate pairs, so the terms are real up to rounding, and
    only the S-space terms are complex.  Rows (absorbance) take each shift's
    line along t, S = P, and form every state; the reduction (_average)
    takes each two-photon point's line along d, S = Q, and sums the weights
    over the poles of the read-out without forming any state.  An ensemble
    of at least _MIN_REDUCED_SHIFTS shifts is reduced (see reduces); a
    line's factors cost more than a row point's, so fewer shifts go as rows.

    The absorbance c x is read from the Im rho_ge coordinate of each probe
    coupling, which both detunings move, so c lies in S on either route
    (__init__ refuses a model where it does not).  Given the derivatives of
    a0 with respect to some parameters, both routes also return the gradient
    of a weighted average over the shifts, by the adjoint row c B(u)^-1 =
    zeta D(u) R with zeta = c_S W and R = W^-1 H, which subtracts nothing.
    On either route a line whose factors fail their checks (the refined
    residual of [y | G] and cond(W)), whose states fail theirs, and every
    line of a call whose factorisation fails, is redone by _redo_line.
    """

    def __init__(self, spec: LevelSystemSpec):
        self.spec = spec
        n = spec.n_levels
        a, _ = _bordered_system(liouvillian_for(spec, DetuningPoint(0.0, 0.0)).matrix, n)
        d_delta, d_tp = detuning_derivatives(spec, assign_rotating_frame(spec))
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
        self.readout = (c @ tinv).imag
        self.probe_idx = np.flatnonzero(self.readout)
        self.probe_w = self.readout[self.probe_idx]
        # Both routes read the probe from the range they vary, so it must lie
        # in P and Q, [delta_idx.start, tp_idx.stop).
        inside = (self.probe_idx >= self.delta_idx.start) & (self.probe_idx < self.tp_idx.stop)
        if not (len(self.delta_idx) and inside.all()):
            raise ValueError("the probe read-out must lie in coherences both detunings move: "
                             "the model needs an excited level and ground-excited probe couplings")

    def _point_row(self, deltas, two_photons) -> np.ndarray:
        """One line by single-point solves, over whichever argument is an
        array; steady_state's SVD fallback either finds the unique steady
        state or raises DegenerateSteadyState."""
        return np.array([
            probe_absorption(steady_state(liouvillian_for(self.spec, DetuningPoint(d, t))), self.spec)
            for d, t in np.broadcast(deltas, two_photons)
        ])

    def _dense_line(self, deltas, two_photons, blocks: np.ndarray | None = None):
        """The read-out c x at every point of one line, over whichever
        argument is an array, by batched dense solves of B; NaN throughout
        unless every x passes absorbance's residual check.  With blocks also
        -adj A_k x at every point, shape (K, n), with adj = c B^-1 from a
        solve of B^T.  The solves go in slices of max(1, _POINTS // m) points,
        so at most one slice of m x m matrices is held."""
        d, t = np.broadcast_arrays(deltas, two_photons)
        p, q = (slice(r.start, r.stop) for r in (self.tp_idx, self.delta_idx))
        m = len(self.a0)
        e_0 = np.zeros(m)
        e_0[0] = 1.0
        values = np.empty(d.size)
        terms = None if blocks is None else np.empty((len(blocks), d.size))
        ok = True
        step = max(1, _POINTS // m)
        for j in range(0, d.size, step):
            k = slice(j, j + step)
            b = np.broadcast_to(self.a0, (len(d[k]), m, m)).copy()
            b[:, q, q] += d[k, None, None] * self.delta_block
            b[:, p, p] += t[k, None, None] * self.tp_block
            x = np.linalg.solve(b, np.broadcast_to(e_0, (len(b), m))[..., None])
            res = b @ x
            res[:, 0] -= 1.0
            x = x[..., 0]
            # NaN-safe as in absorbance.
            ok &= (np.abs(res).max(axis=(1, 2))
                   <= 1e-10 * np.linalg.norm(b, np.inf, axis=(1, 2))).all()
            values[k] = x[:, self.probe_idx] @ self.probe_w
            if blocks is not None:
                # A second factorisation of B, as solve keeps no LU, costs
                # less than one inverse: 2.2 against 3.1 ms at m = 25, 226 points.
                adj = np.linalg.solve(b.swapaxes(1, 2), np.broadcast_to(
                    self.readout, (len(b), m))[..., None])[..., 0]
                terms[:, k] = -((adj @ blocks) * x).sum(axis=2)
        if not ok:
            values[:] = np.nan
        return values, terms

    def _redo_line(self, deltas, two_photons, blocks: np.ndarray | None = None):
        """One line that the pole form did not take, as (values, terms) of
        _dense_line; where the dense solve raises (B is singular) or fails
        its check, the values come from _point_row.  No verified gradient
        exists there, so with blocks LinAlgError is raised once _point_row
        has returned (a degenerate model raises DegenerateSteadyState there
        first)."""
        try:
            values, terms = self._dense_line(deltas, two_photons, blocks)
            failed = not np.isfinite(values).all()
        except np.linalg.LinAlgError:
            failed, terms = True, None
        if failed:
            values = self._point_row(deltas, two_photons)
            if blocks is not None:
                raise np.linalg.LinAlgError(
                    "a line's dense solve is singular or failed its residual check")
        return values, terms

    def absorbance(self, deltas: np.ndarray, two_photons: np.ndarray,
                   blocks: np.ndarray | None = None, weights: np.ndarray | None = None):
        """Absorbance on the grid deltas x two_photons, shape (nd, nt), as
        rows per shift: the pole form of each shift's line along the
        two-photon detuning (S = P), and every state x(t) from it; each point's
        residual against its own B(d, t) is checked.

        With blocks, the derivatives (K, m, m) of a0 with respect to K
        parameters, and weights over deltas, it returns (absorbance,
        gradient), where gradient (K, nt) is the derivative of weights @
        absorbance; the absorbance is the same either way.  The derivative
        of one point's absorbance c x, B x = e_0, along a block A_k is
        -adj A_k x, with the adjoint row adj(d, t) = zeta D(t) R of the class
        docstring.  So the weighted gradient at two-photon point t is
        -<G(t), A_k>, with G(t) = sum_d w_d adj(d, t)^T x(d, t).
        """
        deltas = np.asarray(deltas, dtype=float)
        two_photons = np.asarray(two_photons, dtype=float)
        p, q = (slice(r.start, r.stop) for r in (self.tp_idx, self.delta_idx))
        v = self.tp_block

        def redo(out, grad, failed):
            """The failed lines by _redo_line, their terms added to grad."""
            for k in failed:
                out[k], terms = self._redo_line(deltas[k], two_photons, blocks)
                if blocks is not None:
                    grad += weights[k] * terms
            return out if blocks is None else (out, grad)

        a = np.broadcast_to(self.a0, (len(deltas),) + self.a0.shape).copy()
        a[:, q, q] += deltas[:, None, None] * self.delta_block
        try:
            y, g, lam, w, winv, _, resid, cond, r_s = self._line_factors(
                a, self.tp_idx, v, blocks is not None)
        except np.linalg.LinAlgError:
            return redo(np.empty((len(deltas), len(two_photons))),
                        None if blocks is None else np.zeros((len(blocks), len(two_photons))),
                        range(len(deltas)))
        t = two_photons[:, None]
        poles = t * lam[:, None, :]  # t D(t), (nd, nt, |P|), in place
        poles += 1.0
        np.divide(t, poles, out=poles)
        # Real forms of the complex P-space factors, so that each per-point
        # product is one real batched matmul: a complex array viewed as float
        # interleaves (Re, Im), so r @ re_form is Re(V W r).
        re_form = np.ascontiguousarray((v @ w).conj().view(float).swapaxes(1, 2))
        r = poles * (winv @ y[:, p, None])[..., 0][:, None]  # t D(t) W^-1 y_P
        x = (r.view(float) @ re_form) @ np.ascontiguousarray(g.swapaxes(1, 2))
        np.subtract(y[:, None], x, out=x)
        res = x @ np.ascontiguousarray(a.swapaxes(1, 2))  # B(d, t) x - e_0
        update = x[..., p] @ np.ascontiguousarray(v.T)
        update *= t
        res[..., p] += update
        res[..., 0] -= 1.0
        tol = 1e-10 * np.linalg.norm(a, np.inf, axis=(1, 2))
        # NaN-safe: max propagates a NaN residual, and a NaN residual or
        # condition number fails the comparison.
        ok = np.abs(res).reshape(len(deltas), -1).max(axis=1) <= tol
        ok &= (resid <= tol) & (cond <= _MAX_COND_W)
        out = x[..., self.probe_idx] @ self.probe_w
        failed = np.flatnonzero(~ok)
        if blocks is None:
            return redo(out, None, failed)
        # The adjoint rows zeta D(t) R, formed in place as poles is; r @
        # row_form is Re(r R), written over the spent residual to keep a
        # tile's peak memory down.
        r = t * lam[:, None, :]
        r += 1.0
        np.divide((self.readout[p] @ w)[:, None], r, out=r)
        row_form = np.ascontiguousarray(np.ascontiguousarray(
            r_s.swapaxes(1, 2).conj()).view(float).swapaxes(1, 2))
        adj = np.matmul(r.view(float), row_form, out=res)
        adj *= weights[:, None, None]
        x[failed] = adj[failed] = 0.0  # their terms come from _redo_line
        core = adj.transpose(1, 2, 0) @ x.swapaxes(0, 1)
        return redo(out, -(blocks.reshape(len(blocks), -1) @ core.reshape(len(core), -1).T),
                    failed)

    def reduces(self, n_shifts: int) -> bool:
        """Whether _sweep reduces the weighted average over n_shifts shifts
        by _average: for at least _MIN_REDUCED_SHIFTS of them.  The rule does
        not read whether a gradient is asked for, so a fit and
        inhomogeneous_spectrum take the same route and agree bit for bit."""
        return n_shifts >= _MIN_REDUCED_SHIFTS

    def _reduced_points(self) -> int:
        """N, the points of one shift-sum group of _average: m / |Q| times
        _POINTS, as a reduced point holds about |Q| complex numbers where a
        row point holds a few times m floats."""
        return _POINTS * len(self.a0) // len(self.delta_idx)

    def _line_factors(self, a: np.ndarray, idx: range, v_block: np.ndarray, adjoint: bool):
        """The pole form of each line A = a[k] along the detuning whose block
        v_block acts on the range idx, S (see the class docstring).

        [y | G] = A^-1 [e_0 | E_S] is refined once, and M = G_SS V = W
        diag(lam) W^-1 takes one Newton step on the computed eigenpairs
        (Dongarra, Moler & Wilkinson 1983).  Returns y, G, lam, W, W^-1,
        count (see below), the max |A [y | G] - [e_0 | E_S]| and cond_1(W);
        with adjoint also R = W^-1 H, H = E_S^T A^-1 refined once.
        """
        s = slice(idx.start, idx.stop)
        eye = np.eye(a.shape[-1])
        cols = np.concatenate(([0], np.arange(idx.start, idx.stop)))
        e_cols = eye[:, cols]
        ainv = np.linalg.solve(a, eye)
        x = ainv[..., cols]
        x -= ainv @ (a @ x - e_cols)
        resid = np.abs(a @ x - e_cols).max(axis=(1, 2))
        y, g = x[..., 0], x[..., 1:]
        m_s = g[:, s] @ v_block
        # eig rejects a non-finite batch; such a line has failed already.
        m_s[~np.isfinite(m_s).all(axis=(1, 2))] = 0.0
        lam, w = np.linalg.eig(m_s)
        # A real M has real poles and conjugate pairs, whose terms in a real
        # sum are conjugate too.  Order each line's poles so that those with
        # Im lam >= 0 lead, and count such a pair member twice, a real pole
        # once and the member with Im lam < 0 not at all.
        order = np.argsort(lam.imag < 0, axis=1, kind="stable")
        lines = np.arange(len(lam))[:, None]
        lam, w = lam[lines, order], w.swapaxes(1, 2)[lines, order].swapaxes(1, 2)
        count = np.sign(lam.imag) + 1.0
        # eig gives real arrays to a batch whose eigenvalues are all real.
        lam, w = lam.astype(complex), w.astype(complex)
        small = np.eye(len(idx))
        e = np.linalg.solve(w, small) @ (m_s @ w - w * lam[:, None, :])
        gap = lam[:, None, :] - lam[:, :, None] + small  # lam_j - lam_i off the diagonal
        lam = lam + np.diagonal(e, axis1=1, axis2=2)
        # A repeated eigenvalue makes W non-finite, and cond(W) fails the line.
        with np.errstate(divide="ignore", invalid="ignore"):
            w = w + w @ (e * (1.0 - small) / gap)
        winv = np.linalg.solve(w, small)
        cond = (np.abs(w).sum(axis=1).max(axis=1, initial=0.0)
                * np.abs(winv).sum(axis=1).max(axis=1, initial=0.0))
        if not adjoint:
            return y, g, lam, w, winv, count, resid, cond, None
        h = ainv[:, s].copy()
        h -= (h @ a - eye[s]) @ ainv
        return y, g, lam, w, winv, count, resid, cond, winv @ h

    def _average(self, deltas: np.ndarray, two_photons: np.ndarray,
                 weights: np.ndarray, blocks: np.ndarray | None = None):
        """weights @ absorbance(deltas, two_photons), shape (nt,), reduced over
        the shifts in pole space; with blocks also its gradient (K, nt) as
        absorbance gives it.

        Per two-photon line, with the factors of _line_factors, beta =
        W^-1 y_S, D(d) = diag(1 / (1 + d lam)) and zeta = c_S W (the class
        docstring), x_S(d) = W D(d) beta and

            sum_d w_d c x(d) = Re sum_j count_j zeta_j beta_j sum_d w_d / (1 + d lam_j),

        about |S| / 2 complex divides per point.  The shift sums go in
        groups of max(1, N // len(deltas)) lines, N = _reduced_points(), so
        that their arrays hold at most N points (or one line) whatever the
        number of lines.  With the adjoint row
        adj(d) = zeta D(d) R, x(d) = y - d P D(d) beta and P = G V W,
        absorbance's G(t) = sum_d w_d adj^T x becomes

            R^T (s0 o zeta) (x) y - R^T diag(zeta) S1 diag(beta) P^T,

        s0_j = sum_d w_d / (1 + d lam_j), S1_ij = sum_d w_d d / ((1 + d
        lam_i)(1 + d lam_j)), from the value's own terms 1 / (1 + d lam)
        over the k poles with Im lam >= 0: weights @ them is both the value's
        sum and s0 there, and one weighted product of them S1 among them,
        its diagonal included.  A pole with Im lam < 0 is its partner's
        conjugate and takes the conjugates of its sums, and S1 between the
        two halves comes by partial fractions, S1_ij = (s0_j - s0_i) /
        (lam_i - lam_j) (_pole_products).  So the gradient adds k^2 products
        per shift to the value's k divides, and the rest of the formula is
        per line, not per shift.

        A line whose refined residual or cond(W) fails, whose state x(d)
        fails the residual check at the largest weight or either end of
        deltas, whose summed value there strays from x(d)'s read-out, or
        whose value is not finite, and every line of a call whose
        factorisation fails, is redone by _redo_line: its value is weights @
        the line's values, and its gradient the weighted sum of its terms.  A
        line whose gradient alone fails, as it is not finite, its poles do
        not pair as conjugates, or a pole lies within _POLE_GAP of the
        conjugate of another, has only its gradient redone, so its value
        stays the one _average(..., blocks=None) gives.
        """
        v_block, s = self.delta_block, slice(self.delta_idx.start, self.delta_idx.stop)
        p = slice(self.tp_idx.start, self.tp_idx.stop)
        a = np.broadcast_to(self.a0, (len(two_photons),) + self.a0.shape).copy()
        a[:, p, p] += two_photons[:, None, None] * self.tp_block
        out = np.zeros(len(two_photons))
        grad = None if blocks is None else np.zeros((len(blocks), len(two_photons)))
        try:
            y, g, lam, w, winv, count, resid, cond, r_s = self._line_factors(
                a, self.delta_idx, v_block, blocks is not None)
        except np.linalg.LinAlgError:
            ok = grad_ok = np.zeros(len(two_photons), dtype=bool)
        else:
            norm = np.linalg.norm(a, np.inf, axis=(1, 2))
            beta = (winv @ y[:, s, None])[..., 0]

            def poles(d, lam):
                """1 / (1 + d lam) for poles lam, (len(lam), len(d), lam.shape[1])."""
                r = d[:, None] * lam[:, None]
                r += 1.0
                return np.divide(1.0, r, out=r)

            zeta = self.readout[s] @ w
            alpha = zeta * beta * count
            step = max(1, self._reduced_points() // len(deltas))
            if blocks is not None:
                s0 = np.zeros(lam.shape, complex)
                s1 = np.zeros(lam.shape + lam.shape[1:], complex)
            for j in range(0, len(two_photons), step):
                lines = slice(j, j + step)
                k = int((count[lines] > 0).sum(axis=1).max())
                r = poles(deltas, lam[lines, :k])
                sums = weights @ r
                out[lines] = (alpha[lines, :k] * sums).sum(axis=1).real
                if blocks is not None:
                    s0[lines, :k] = sums
                    s1[lines, :k, :k] = (r * (weights * deltas)[:, None]).swapaxes(1, 2) @ r
                del r  # so that the next group's array is not held with it
            # x(d) at three shifts; NaN-safe as in absorbance.
            d3 = deltas[[np.argmax(weights), 0, len(deltas) - 1]]
            vw = v_block @ w
            pw = g @ vw  # P = G V W
            r3 = poles(d3, lam)
            x3 = y[:, None] - (((d3[:, None] * beta[:, None]) * r3)
                               @ pw.swapaxes(1, 2)).real
            res = x3 @ a.swapaxes(1, 2)
            res[..., s] += d3[:, None] * (x3[..., s] @ v_block.T)
            res[..., 0] -= 1.0
            ok = (resid <= 1e-10 * norm) & (cond <= _MAX_COND_W)
            ok &= np.abs(res).max(axis=(1, 2)) <= 1e-10 * norm
            # The value's own sum, its counted poles and zeta, against the
            # read-out of x(d) there: over the presets and 200 random_model
            # draws they differ by at most 6.5e-11 of their magnitude.
            probe = x3[..., self.probe_idx]
            gap = np.abs((alpha[:, None] * r3).sum(axis=2).real - probe @ self.probe_w)
            scale = (np.abs(zeta * beta)[:, None] * np.abs(r3)).sum(axis=2)
            scale += np.abs(probe) @ np.abs(self.probe_w)
            ok &= (gap <= 1e-8 * scale).all(axis=1)
            ok &= np.isfinite(out)
            grad_ok = ok
            if blocks is not None:
                s1, apart = _pole_products(lam, count, s0, s1)
                s1 *= zeta[:, :, None] * beta[:, None, :]  # diag(zeta) S1 diag(beta)
                r_t = r_s.swapaxes(1, 2)  # R^T
                # Re(X P^T) as one real product: a complex array viewed as
                # float interleaves (Re, Im), so conj(X) against P is it.
                x = r_t @ s1
                np.conjugate(x, out=x)
                core = x.view(float) @ pw.view(float).swapaxes(1, 2)
                del x  # before the (L, m, m) temporary below
                core -= (r_t @ (s0 * zeta)[..., None]).real * y[:, None, :]
                # One product per line, so that a line's gradient does not
                # depend on the other lines of the call.
                grad = (core.reshape(len(core), 1, -1)
                        @ blocks.reshape(len(blocks), -1).T)[:, 0].T
                grad_ok = ok & apart & np.isfinite(grad).all(axis=0)
        for k in np.flatnonzero(~grad_ok):
            values, terms = self._redo_line(deltas, two_photons[k], blocks)
            if not ok[k]:
                out[k] = weights @ values
            if blocks is not None:
                grad[:, k] = terms @ weights
        return out if blocks is None else (out, grad)


def _pole_products(lam, count, s0, s1):
    """S1 of _SweepKernel._average over every pole of each line, and whether
    the line may use it, from s0 and S1 among its poles with Im lam >= 0
    (zero elsewhere); s0 is completed over every pole in place.

    The i-th pole with Im lam < 0 of a line (count 0) is the conjugate of its
    i-th with Im lam > 0 (count 2): eig gives each pair adjacent, and
    _line_factors orders them stably.  The shifts are real, so its sums are
    the conjugates of its partner's.  Between the halves the poles lie at
    least Im lam_i + Im lam_j apart, so partial fractions lose little there
    (a conjugate pair's entry is -Im s0_j / Im lam_j, as accurate as its
    sums).  Within a half they can lie close, 3.7 % apart on the Lambda
    preset's line at t = 0, where the identity loses digits as 1 / gap (6e-13
    of the gradient's max from a long-double reference, against 3e-14 from
    the direct sums); hence the caller sums that block directly.  A line may
    not use S1 where its poles do not pair so, within _POLE_GAP of their
    magnitude, or where a pole lies within _POLE_GAP of the conjugate of
    another.
    """
    neg, pos = count == 0, count == 2
    paired = neg.sum(axis=1) == pos.sum(axis=1)
    neg &= paired[:, None]
    pos &= paired[:, None]
    src = np.broadcast_to(np.arange(lam.shape[1]), lam.shape).copy()  # partners
    src[neg] = np.nonzero(pos)[1]
    lam_all = lam.copy()
    for a in (lam_all, s0):
        a[neg] = a[pos].conj()
    s1 = s1[np.arange(len(lam))[:, None, None], src[:, :, None], src[:, None, :]]
    both = neg[:, :, None] & neg[:, None, :]
    s1[both] = s1[both].conj()
    across = neg[:, :, None] != neg[:, None, :]
    diff = lam_all[:, :, None] - lam_all[:, None, :]  # lam_i - lam_j
    with np.errstate(divide="ignore", invalid="ignore"):
        s1[across] = ((s0[:, None, :] - s0[:, :, None]) / diff)[across]
    size = np.abs(lam_all)
    paired &= (np.abs(lam_all - lam) <= _POLE_GAP * size).all(axis=1)
    near = np.abs(diff) <= _POLE_GAP * np.maximum(size[:, :, None], size[:, None, :])
    near &= across & (src[:, :, None] != src[:, None, :])
    return s1, paired & ~near.any(axis=(1, 2))


def _check_workers(workers) -> None:
    """Raise ValueError unless workers is an integer >= 1 (not a bool)."""
    if (not isinstance(workers, (int, np.integer)) or isinstance(workers, bool)
            or workers < 1):
        raise ValueError(f"workers must be a whole number >= 1, got {workers!r}")


def _sweep(kernel: _SweepKernel, shift_grid, tp_grid: np.ndarray, workers: int,
           blocks: np.ndarray | None = None):
    """weights @ absorbance over shift_grid = (shifts, weights), reduced tile
    by tile; with blocks, (average, gradient) as _SweepKernel.absorbance
    gives them.

    Where kernel.reduces says so, each tile is reduced per two-photon point
    by _SweepKernel._average; otherwise it is absorbance's rows per shift,
    weighted.  A tile takes up to N values of the closed-form axis (shifts
    when reduced, else two-photon points) and max(1, N // its length) values
    of the other, N = _POINTS for rows and _POINTS m / |Q| for a reduction,
    so a tile of rows holds at most N points.  A reduced tile takes _GROUPS
    times as many two-photon points, which one _line_factors call factors,
    and sums over its shifts in groups of lines that hold at most N points
    (see _SweepKernel._average), so its memory stays near a tile of rows'.
    Only a tile's weighted partial leaves it: no array holds a row per
    shift.  Tile boundaries are independent of the worker count and the
    partials are added in tile order, so the output is bit-identical for
    any number of workers.  A shift_grid other than two 1-D arrays of one
    non-zero length, or a non-finite shift, weight or two-photon point,
    raises ValueError: no route can solve it.
    """
    shifts, weights = (np.asarray(a, dtype=float) for a in shift_grid)
    if shifts.ndim != 1 or shifts.shape != weights.shape or not len(shifts):
        raise ValueError("shift_grid (or control_detuning) must be two 1-D arrays of one "
                         f"non-zero length, got shapes {shifts.shape} and {weights.shape}")
    for grid, name in ((shifts, "shift_grid (or control_detuning)"),
                       (weights, "shift_grid weights"), (tp_grid, "delta_grid")):
        if not np.isfinite(grid).all():
            raise ValueError(f"{name} must be finite")
    reduce = kernel.reduces(len(shifts))
    points = kernel._reduced_points() if reduce else _POINTS
    closed = len(shifts) if reduce else len(tp_grid)
    factored = max(1, points // max(closed, 1))
    sd, st = (points, _GROUPS * factored) if reduce else (factored, points)

    def run(tile):
        a, b = tile
        d, t, w = shifts[a : a + sd], tp_grid[b : b + st], weights[a : a + sd]
        if reduce:
            out = kernel._average(d, t, w, blocks)
            return (out, None) if blocks is None else out
        if blocks is None:
            return w @ kernel.absorbance(d, t), None
        rows, grad = kernel.absorbance(d, t, blocks, w)
        return w @ rows, grad

    tiles = [(a, b) for a in range(0, len(shifts), sd) for b in range(0, len(tp_grid), st)]
    # glibc returns freed heap to the OS whenever the free space at its top
    # exceeds twice the largest block it has unmapped, so without a block
    # that large every tile pages in its temporaries (a few of _POINTS x m
    # floats) afresh: a six-field fig5 map took 433k minor page faults,
    # against 82k with a row per shift and 7k with this line.  An untouched
    # block costs no page.
    np.empty(4 * _POINTS * len(kernel.a0))
    out = np.zeros(len(tp_grid))
    grad = None if blocks is None else np.zeros((len(blocks), len(tp_grid)))

    def add(partials):
        for (_, b), (part, g) in zip(tiles, partials):
            out[b : b + st] += part
            if g is not None:
                grad[:, b : b + st] += g

    if workers > 1 and len(tiles) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            add(pool.map(run, tiles))
    else:
        add(map(run, tiles))
    return out if blocks is None else (out, grad)


def homogeneous_spectrum(
    spec: LevelSystemSpec,
    control_detuning: float,
    delta_grid: np.ndarray,
    workers: int = 1,
) -> SpectrumTrace:
    """Steady-state probe absorption vs two-photon detuning at one shift."""
    _check_workers(workers)
    kernel = _SweepKernel(spec)
    tp_grid = np.asarray(delta_grid, float)
    return SpectrumTrace(
        delta_grid=tp_grid,
        absorbance=_sweep(kernel, ([control_detuning], [1.0]), tp_grid, workers),
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
    # Gaussian times trapezoidal cell widths, for the (possibly non-uniform) grid.
    w = np.exp(-0.5 * (grid / sigma) ** 2) * np.gradient(grid)
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

    shift_grid overrides the automatic (samples, weights) choice, to keep
    the integration grid fixed while decay rates vary (as a fit does), since
    the automatic dense tier scales with the homogeneous linewidth.  It
    cannot be combined with check_convergence, which refines the automatic
    grid.
    """
    _check_workers(workers)
    if shift_grid is not None and check_convergence:
        raise ValueError("shift_grid and check_convergence cannot be combined: "
                         "the check refines the automatic grid, not the given one")
    tp_grid = np.asarray(delta_grid, dtype=float)
    kernel = _SweepKernel(spec)
    linewidth = homogeneous_linewidth(spec)
    if shift_grid is None:
        shift_grid = shift_samples(inhom, linewidth)
    absorbance = _sweep(kernel, shift_grid, tp_grid, workers)
    if check_convergence:
        refined = _sweep(kernel, shift_samples(
            replace(inhom, n_samples=2 * inhom.n_samples + 1), linewidth), tp_grid, workers)
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
    if not all(0 <= v < np.inf for v in (omega_c, delta_i, gamma_g)):
        raise ValueError("inputs must be finite and nonnegative")
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
    if not (0 < power < np.inf and 0 < power_ref < np.inf and abs(omega_ref) < np.inf):
        raise ValueError("powers must be finite and > 0, and omega_ref finite")
    return omega_ref * np.sqrt(power / power_ref)


def power_from_rabi(omega: float, omega_ref: float, power_ref: float) -> float:
    """Inverse of rabi_from_power."""
    if not (0 <= omega < np.inf and 0 < omega_ref < np.inf and 0 < power_ref < np.inf):
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
    Raises ValueError for a trace that nowhere rises above that background.
    """
    a = trace.absorbance
    x = trace.delta_grid
    edge = max(3, len(a) // 20)
    background = np.median(np.concatenate([a[:edge], a[-edge:]]))
    height = a.max() - background
    if not height > 0:
        raise ValueError("no absorption feature above the background")
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
    # Walk out from the dip to the half level on both sides, then interpolate
    # the crossing (np.interp wants its abscissae, here absorbances, rising).
    i = k
    while i > 0 and a[i] < half:
        i -= 1
    xl = np.interp(half, [a[i + 1], a[i]], [x[i + 1], x[i]]) if a[i] >= half else x[0]
    j = k
    while j < len(a) - 1 and a[j] < half:
        j += 1
    xr = np.interp(half, [a[j - 1], a[j]], [x[j - 1], x[j]]) if a[j] >= half else x[-1]
    return {
        "peak": float(max(left, right)),
        "peak_delta": float(x[np.argmax(a)]),
        "dip": float(dip),
        "dip_delta": float(x[k]),
        "contrast": float(contrast),
        "dip_fwhm": float(xr - xl),
    }
