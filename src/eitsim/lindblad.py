"""Lindblad superoperator construction, steady states, and a time-evolution oracle.

Column-stacking convention throughout: vec(rho)[i + N*j] = rho[i, j], so
vec(A rho B) = kron(B.T, A) vec(rho).  Rates are in Hz; the 2*pi conversion
to angular units happens here and only here.

The steady state is a numpy LU solve (np.linalg), so importing this module
loads no scipy; only the evolve oracle imports scipy.integrate, when called.
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


def _basis_op(n: int, i: int, j: int) -> np.ndarray:
    op = np.zeros((n, n))
    op[i, j] = 1.0
    return op


def _dissipator(jump: np.ndarray) -> np.ndarray:
    """kron-form dissipator L rho Ld - (Ld L rho + rho Ld L)/2."""
    n = jump.shape[0]
    eye = np.eye(n)
    ldl = jump.conj().T @ jump
    return (
        np.kron(jump.conj(), jump)
        - 0.5 * np.kron(eye, ldl)
        - 0.5 * np.kron(ldl.T, eye)
    )


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """-i*2pi*(H rho - rho H) in kron form, H in Hz."""
    n = h.shape[0]
    eye = np.eye(n)
    return -1j * TWO_PI * (np.kron(eye, h) - np.kron(h.T, eye))


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
    """
    idx = {lbl: k for k, lbl in enumerate(labels)}
    out = np.zeros((n * n, n * n), dtype=complex)
    for ch in decays:
        if ch.rate == 0.0:
            continue
        jump = np.sqrt(TWO_PI * ch.rate) * _basis_op(n, idx[ch.target], idx[ch.source])
        out += _dissipator(jump)
    for dp in dephasings:
        if dp.rate == 0.0:
            continue
        jump = np.sqrt(TWO_PI * 2.0 * dp.rate) * _basis_op(n, idx[dp.level], idx[dp.level])
        out += _dissipator(jump)
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
    """Convenience: model spec + detuning point -> Liouvillian."""
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

    Independent oracle for steady_state.  Mildly stiff problems use
    adaptive-step embedded Runge-Kutta (DOP853); when the dimensionless
    stiffness ||L||*t makes explicit stepping hopeless (optical detunings of
    hundreds of linewidths integrated to many ground-state lifetimes) the
    exact spectral propagator V exp(diag(lambda) t) V^-1 is used instead.
    Both routes avoid the bordered linear solve that steady_state relies on.
    Hermiticity is enforced by symmetrization at readout.
    """
    from scipy.integrate import solve_ivp

    if t < 0:
        raise ValueError("t must be >= 0")
    n = liouv.n_levels
    if rho0.shape != (n, n):
        raise ValueError("rho0 dimension mismatch")
    if t == 0.0:
        return rho0.copy()

    mat = liouv.matrix
    v0 = rho0.flatten(order="F")

    if np.abs(mat).max() * t <= 1e4:
        sol = solve_ivp(
            lambda _t, y: mat @ y,
            (0.0, t),
            v0,
            method="DOP853",
            rtol=1e-10,
            atol=1e-12,
        )
        if not sol.success:
            raise RuntimeError(f"time evolution failed: {sol.message}")
        vec = sol.y[:, -1]
    else:
        lam, v = np.linalg.eig(mat)
        vec = v @ (np.exp(lam * t) * np.linalg.solve(v, v0))

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
