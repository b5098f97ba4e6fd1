"""Lindblad superoperator construction, steady states, and the exact propagator.

Column-stacking convention throughout: vec(rho)[i + N*j] = rho[i, j], so
vec(A rho B) = kron(B.T, A) vec(rho).  Rates are in Hz; the 2*pi conversion
to angular units happens here and only here.

The steady state is a numpy LU solve (np.linalg), so importing this module
loads no scipy; only evolve, the time-domain oracle exp(L t), imports
scipy.linalg, when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    DecayChannel,
    Dephasing,
    DetuningPoint,
    LevelSystemSpec,
    assemble_hamiltonian,
    assign_rotating_frame,
)

TWO_PI = 2.0 * np.pi
# LU solutions whose residual exceeds this share of max|L| go to the SVD path.
_RESIDUAL_TOL = 1e-10


class DegenerateSteadyState(RuntimeError):
    """Null space of the Liouvillian has dimension > 1 (disconnected system)."""


@dataclass
class Liouvillian:
    """N^2 x N^2 generator acting on the column-stacked density matrix."""

    matrix: np.ndarray

    @property
    def n_levels(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """-i*2pi*(H rho - rho H) in kron form, H in Hz.

    kron(I, H) and kron(H^T, I) are formed by broadcasting, entry [i n + k,
    j n + l] = a[i, j] b[k, l]: the products np.kron takes, at a quarter of
    its cost at n = 3."""
    n = h.shape[0]
    eye = np.eye(n)
    left = (eye[:, None, :, None] * h[None, :, None, :]).reshape(n * n, n * n)
    right = (h.T[:, None, :, None] * eye[None, :, None, :]).reshape(n * n, n * n)
    return -1j * TWO_PI * (left - right)


def dissipator_superoperator(
    n: int,
    labels: Sequence[str],
    decays: Sequence[DecayChannel] = (),
    dephasings: Sequence[Dephasing] = (),
) -> np.ndarray:
    """Sum of all jump-operator dissipators, rates in Hz.

    Decay (source -> target, rate G): jump sqrt(2pi*G) |target><source|, so
    the source population decays at G and its coherences at G/2.
    Dephasing (level l, rate g): jump sqrt(2pi*2*g) |l><l|, so any coherence
    rho_lm with m undephased decays at exactly g.
    By index: each nonzero-rate channel s -> t at rate r (a dephasing is
    s = t = l, r = 2g) adds 2pi*r to the feed entry [t(n+1), s(n+1)] and to
    level s's outflow out_s; each diagonal entry i + n*j loses (out_i + out_j)/2.
    """
    idx = {lbl: k for k, lbl in enumerate(labels)}
    channels = [(ch.source, ch.target, ch.rate) for ch in decays]
    channels += [(dp.level, dp.level, 2.0 * dp.rate) for dp in dephasings]
    out = np.zeros((n * n, n * n), dtype=complex)
    outflow = np.zeros(n)
    for source, target, rate in channels:
        if rate != 0.0:
            s = idx[source]
            out[idx[target] * (n + 1), s * (n + 1)] += TWO_PI * rate
            outflow[s] += TWO_PI * rate
    out[np.diag_indices(n * n)] -= 0.5 * np.add.outer(outflow, outflow).ravel()
    return out


def build_liouvillian(
    h: np.ndarray,
    decays: Sequence[DecayChannel] = (),
    dephasings: Sequence[Dephasing] = (),
    labels: Sequence[str] | None = None,
) -> Liouvillian:
    """Assemble the full generator from a Hamiltonian (Hz) and channels."""
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    if labels is None:
        labels = tuple(str(k) for k in range(n))
    if len(labels) != n:
        raise ValueError("label count does not match Hamiltonian dimension")
    mat = hamiltonian_superoperator(h) + dissipator_superoperator(
        n, labels, decays, dephasings
    )
    return Liouvillian(matrix=mat)


def liouvillian_for(spec: LevelSystemSpec, point: DetuningPoint) -> Liouvillian:
    """The generator of spec at point: the one composition of a Liouvillian
    from a model spec and a detuning point, which steady_state's callers and
    the sweep kernel both use."""
    frame = assign_rotating_frame(spec)
    h = assemble_hamiltonian(spec, frame, point)
    return build_liouvillian(h, spec.decays, spec.dephasings, spec.labels)


def _trace_indices(n: int) -> np.ndarray:
    return np.arange(n) * (n + 1)


def _bordered_system(mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator with row 0 replaced by the trace constraint, and its rhs e_0.

    Its solution is the unit-trace steady state whenever it is nonsingular.
    """
    a = mat.copy()
    a[0, :] = 0.0
    a[0, _trace_indices(n)] = 1.0
    b = np.zeros(n * n, dtype=complex)
    b[0] = 1.0
    return a, b


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Unique unit-trace null vector of the generator.

    Solves the bordered linear system (one generator row replaced by the
    trace constraint) by dense LU (np.linalg.solve); falls back to an SVD
    null-space solve and raises DegenerateSteadyState when the null space is
    not one-dimensional.
    """
    mat = liouv.matrix
    n = liouv.n_levels
    a, b = _bordered_system(mat, n)

    scale = np.abs(mat).max()
    vec = None
    try:
        cand = np.linalg.solve(a, b)
        resid = np.abs(mat @ cand).max()
        if resid < _RESIDUAL_TOL * scale:
            vec = cand
    except np.linalg.LinAlgError:
        pass

    if vec is None:
        # Rank-deficient bordered system or poor residual: inspect the null
        # space directly.
        _, s, vh = np.linalg.svd(mat)
        null_dim = int(np.sum(s < 1e-9 * scale))
        if null_dim != 1:
            raise DegenerateSteadyState(
                f"null space dimension {null_dim}; system disconnected or undriven"
            )
        vec = vh[-1].conj()
        tr = vec[_trace_indices(n)].sum()
        vec = vec / tr

    rho = vec.reshape((n, n), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return rho


def evolve(rho0: np.ndarray, liouv: Liouvillian, t: float) -> np.ndarray:
    """Propagate rho0 for t seconds under the generator.

    Independent oracle for steady_state: the exact propagator exp(L t),
    by scaling and squaring (scipy.linalg.expm), applied to vec(rho0), with
    no solve of the bordered system that steady_state relies on.  One call
    at any stiffness ||L|| t; its rounding error grows with ||L|| t.
    Hermiticity is enforced by symmetrization at readout.
    """
    from scipy.linalg import expm

    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and >= 0")
    n = liouv.n_levels
    if rho0.shape != (n, n):
        raise ValueError("rho0 dimension mismatch")
    if t == 0.0:
        return rho0.copy()

    vec = expm(liouv.matrix * t) @ rho0.flatten(order="F")
    rho = vec.reshape((n, n), order="F")
    return 0.5 * (rho + rho.conj().T)


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError if rho violates Hermiticity, unit trace or positivity,
    each to within 1e-10."""
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"trace {np.trace(rho)} != 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-10:
        raise ValueError(f"negative eigenvalue {w.min()}")
