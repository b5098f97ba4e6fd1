"""Effective spin-1 Hamiltonians for ground and excited manifolds in a tilted
magnetic field, and the transition-overlap condition used to drive two
optical transitions with a single control laser."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

MU_B_HZ_PER_T = 13.996e9  # Bohr magneton / h

# Spin-1 operators in the Sz eigenbasis (m = +1, 0, -1).
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)


class NoSignChange(ValueError):
    """The transition mismatch does not change sign inside the angle window."""


@dataclass(frozen=True)
class SpinModel:
    """Zero-field splittings plus Zeeman term for one S=1 manifold.

    d, e: axial and transverse zero-field splittings (Hz); b_field in Tesla;
    angle_deg is the polar angle of B from the defect symmetry axis.
    """

    d: float
    e: float = 0.0
    g_factor: float = 2.0
    b_field: float = 0.0
    angle_deg: float = 0.0

    def __post_init__(self):
        if self.b_field < 0:
            raise ValueError("field magnitude must be >= 0")
        if not 0.0 <= self.angle_deg <= 180.0:
            raise ValueError("angle must be in [0, 180] degrees")
        for name in ("d", "e", "g_factor", "b_field", "angle_deg"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class TransitionSet:
    """Sorted manifold energies and the matrix of optical transition offsets.

    offsets[i, j] = excited[j] - ground[i], relative to the zero-phonon line.
    Labels g1..g3 / e1..e3 follow ascending energy within each manifold.
    """

    ground: np.ndarray  # (3,), Hz, ascending
    excited: np.ndarray  # (3,), Hz, ascending
    offsets: np.ndarray  # (3, 3), Hz


def spin_hamiltonian(m: SpinModel) -> np.ndarray:
    """H = d*Sz^2 + e*(Sx^2 - Sy^2) + g*muB*B.S, in Hz."""
    zeeman = m.g_factor * MU_B_HZ_PER_T * m.b_field
    phi = np.deg2rad(m.angle_deg)
    h = (
        m.d * (SZ @ SZ)
        + m.e * (SX @ SX - SY @ SY)
        + zeeman * (np.cos(phi) * SZ + np.sin(phi) * SX)
    )
    return 0.5 * (h + h.conj().T)


def level_structure(ground: SpinModel, excited: SpinModel) -> TransitionSet:
    """Eigenvalues of both manifolds and the transition-offset matrix."""
    eg = np.linalg.eigvalsh(spin_hamiltonian(ground))
    ee = np.linalg.eigvalsh(spin_hamiltonian(excited))
    return TransitionSet(
        ground=eg,
        excited=ee,
        offsets=ee[None, :] - eg[:, None],
    )


def delta_k(
    ts: TransitionSet,
    first: tuple[int, int] = (1, 1),
    second: tuple[int, int] = (2, 2),
) -> float:
    """Mismatch a single control laser sees between two optical transitions.

    first/second are 0-based (ground, excited) index pairs; the default is
    the (g2 -> e2, g3 -> e3) pair.  Antisymmetric under swapping the pairs.
    """
    return float(ts.offsets[second] - ts.offsets[first])


def find_overlap_angle(
    ground: SpinModel,
    excited: SpinModel,
    b_field: float,
    angle_window: tuple[float, float],
) -> float:
    """Field angle (degrees) where g2 -> e2 and g3 -> e3 coincide.

    Bisects delta_k(angle) over the window; refines past 0.01 degrees until
    the residual mismatch drops below 1 kHz.
    """

    def mismatch(angle: float) -> float:
        ts = level_structure(
            replace(ground, b_field=b_field, angle_deg=angle),
            replace(excited, b_field=b_field, angle_deg=angle),
        )
        return delta_k(ts)

    lo, hi = angle_window
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoSignChange(
            f"transition mismatch has the same sign at both window edges "
            f"({f_lo:.3g} Hz at {lo} deg, {f_hi:.3g} Hz at {hi} deg)"
        )
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        f_mid = mismatch(mid)
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        mid = 0.5 * (lo + hi)
        if hi - lo < 0.01 and abs(f_mid) < 1e3:
            break
    return mid
