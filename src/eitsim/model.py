"""Declarative multi-level model: levels, laser couplings, dissipation channels.

All energies, rates and Rabi amplitudes are plain frequencies in Hz. The
factor 2*pi is applied once, inside the Lindblad engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

GROUND = "ground"
EXCITED = "excited"

PROBE = "probe"
CONTROL = "control"


class NoConsistentFrame(ValueError):
    """The drive couplings admit no time-independent rotating frame."""


@dataclass(frozen=True)
class Level:
    label: str
    manifold: str  # "ground" | "excited"
    energy: float = 0.0  # Hz, relative within the manifold


@dataclass(frozen=True)
class Coupling:
    ground: str
    excited: str
    rabi: float  # Hz


@dataclass(frozen=True)
class DriveField:
    field_id: str  # "probe" | "control"
    couplings: tuple[Coupling, ...]


@dataclass(frozen=True)
class DecayChannel:
    source: str
    target: str
    rate: float  # Hz


@dataclass(frozen=True)
class Dephasing:
    level: str
    rate: float  # Hz


@dataclass(frozen=True)
class DetuningPoint:
    """One point of the two-laser detuning plane.

    control_detuning: shared optical shift of the excited manifold relative to
        the control laser (the quantity that is inhomogeneously distributed).
    two_photon: probe detuning from the two-laser (Raman) resonance of the
        primary Lambda scheme.  The EIT dip of the primary scheme sits at 0.
    """

    control_detuning: float = 0.0  # Hz
    two_photon: float = 0.0  # Hz


@dataclass(frozen=True)
class LevelSystemSpec:
    levels: tuple[Level, ...]
    drives: tuple[DriveField, ...]
    decays: tuple[DecayChannel, ...] = ()
    dephasings: tuple[Dephasing, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "drives", tuple(self.drives))
        object.__setattr__(self, "decays", tuple(self.decays))
        object.__setattr__(self, "dephasings", tuple(self.dephasings))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    def index(self, label: str) -> int:
        for i, lv in enumerate(self.levels):
            if lv.label == label:
                return i
        raise KeyError(label)

    def level(self, label: str) -> Level:
        return self.levels[self.index(label)]

    def drive(self, field_id: str) -> DriveField | None:
        for d in self.drives:
            if d.field_id == field_id:
                return d
        return None

    @property
    def probe(self) -> DriveField | None:
        return self.drive(PROBE)

    @property
    def control(self) -> DriveField | None:
        return self.drive(CONTROL)

    def ground_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels if lv.manifold == GROUND)

    def excited_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels if lv.manifold == EXCITED)

    def with_levels(self, levels: Iterable[Level]) -> "LevelSystemSpec":
        return replace(self, levels=tuple(levels))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


def validate_system(spec: LevelSystemSpec) -> ValidationReport:
    """Check a LevelSystemSpec against its structural invariants.

    Returns a report rather than raising, so callers can collect all
    violations at once (the CLI prints them line by line).
    """
    v: list[str] = []
    labels = [lv.label for lv in spec.levels]
    if len(set(labels)) != len(labels):
        v.append("level labels must be unique")
    manifolds = {lv.label: lv.manifold for lv in spec.levels}
    for lv in spec.levels:
        if lv.manifold not in (GROUND, EXCITED):
            v.append(f"level {lv.label!r}: unknown manifold {lv.manifold!r}")
        if not np.isfinite(lv.energy):
            v.append(f"level {lv.label!r}: non-finite energy")
    if not any(lv.manifold == GROUND for lv in spec.levels):
        v.append("at least one ground level required")
    if not any(lv.manifold == EXCITED for lv in spec.levels):
        v.append("at least one excited level required")

    ids = [d.field_id for d in spec.drives]
    for want in (PROBE, CONTROL):
        if ids.count(want) != 1:
            v.append(f"exactly one {want} field required, found {ids.count(want)}")
    for d in spec.drives:
        if d.field_id not in (PROBE, CONTROL):
            v.append(f"unknown field id {d.field_id!r}")
        for c in d.couplings:
            for lbl, want in ((c.ground, GROUND), (c.excited, EXCITED)):
                if lbl not in manifolds:
                    v.append(f"{d.field_id} coupling references unknown level {lbl!r}")
                elif manifolds[lbl] != want:
                    v.append(
                        f"{d.field_id} coupling ({c.ground}, {c.excited}) "
                        f"must be ground-excited"
                    )
            if not 0 < c.rabi < np.inf:
                v.append(f"{d.field_id} coupling ({c.ground}, {c.excited}): "
                         f"rabi must be finite and > 0")

    for ch in spec.decays:
        if ch.source not in manifolds or ch.target not in manifolds:
            v.append(f"decay ({ch.source} -> {ch.target}) references unknown level")
        else:
            src, tgt = manifolds[ch.source], manifolds[ch.target]
            ok = (src == EXCITED and tgt == GROUND) or (src == GROUND and tgt == GROUND)
            if not ok:
                v.append(
                    f"decay ({ch.source} -> {ch.target}) must be excited->ground "
                    f"or ground->ground"
                )
        if not 0 <= ch.rate < np.inf:
            v.append(f"decay ({ch.source} -> {ch.target}): rate must be finite and >= 0")

    for dp in spec.dephasings:
        if dp.level not in manifolds:
            v.append(f"dephasing references unknown level {dp.level!r}")
        if not 0 <= dp.rate < np.inf:
            v.append(f"dephasing on {dp.level!r}: rate must be finite and >= 0")

    # Couplings and nonzero-rate decays join two levels (the dissipator skips
    # zero rates); a level outside the largest joined group has its own
    # steady state, so the model's is not unique.
    group = {lbl: {lbl} for lbl in labels}
    links = [(c.ground, c.excited) for d in spec.drives for c in d.couplings]
    links += [(ch.source, ch.target) for ch in spec.decays if ch.rate != 0.0]
    for a, b in links:
        if a in group and b in group and group[a] is not group[b]:
            joined = group[a] | group[b]
            group.update(dict.fromkeys(joined, joined))
    largest = max(group.values(), key=len, default=set())
    loose = [lbl for lbl in labels if lbl not in largest]
    if loose:
        v.append(f"levels not joined to the rest by a coupling or decay: {', '.join(loose)}")

    try:
        assign_rotating_frame(spec)
    except NoConsistentFrame as exc:
        v.append(str(exc))

    return ValidationReport(ok=not v, violations=tuple(v))


def assign_rotating_frame(spec: LevelSystemSpec) -> dict[str, str]:
    """Assign each level the frequency class of its rotating frame.

    Returns {label: "static" | "probe" | "control"}.  Excited and undriven
    levels get the static (excited-manifold) class; every ground level takes
    the class of the laser driving it.  A ground level addressed by both
    lasers over-constrains the frame equations.
    """
    manifolds = {lv.label: lv.manifold for lv in spec.levels}
    classes = {lv.label: "static" for lv in spec.levels}
    for d in spec.drives:
        for c in d.couplings:
            g = c.ground
            if manifolds.get(g) != GROUND or manifolds.get(c.excited) != EXCITED:
                continue  # validate_system reports these
            if classes[g] not in ("static", d.field_id):
                raise NoConsistentFrame(
                    f"no consistent rotating frame: level {g!r} is driven by both "
                    f"probe and control"
                )
            classes[g] = d.field_id
    return classes


def assemble_hamiltonian(
    spec: LevelSystemSpec,
    frame: dict[str, str],
    point: DetuningPoint,
) -> np.ndarray:
    """Static rotating-frame Hamiltonian (N x N, Hz) at one detuning point.

    Diagonal entries are rotating-frame detunings: each level's energy less
    its frame's reference energy, plus detuning_derivatives' response to the
    point.  The reference is the control's first excited partner for a level
    control_detuning moves, the probe's first ground partner for one
    two_photon moves, and the control's first ground partner otherwise.
    Off-diagonal entries are rabi/2 on each driven pair.
    """
    n = spec.n_levels
    h = np.zeros((n, n), dtype=complex)

    ctrl, prb = spec.control, spec.probe
    ctrl = ctrl.couplings[0] if ctrl and ctrl.couplings else None
    prb = prb.couplings[0] if prb and prb.couplings else None
    e_ref = spec.level(ctrl.excited).energy if ctrl else 0.0
    g_ref_c = spec.level(ctrl.ground).energy if ctrl else 0.0
    g_ref_p = spec.level(prb.ground).energy if prb else 0.0

    d_delta, d_tp = detuning_derivatives(spec, frame)
    for i, (lv, dd, dt) in enumerate(zip(spec.levels, d_delta.tolist(), d_tp.tolist())):
        ref = e_ref if dd else g_ref_p if dt else g_ref_c
        h[i, i] = lv.energy - ref + dd * point.control_detuning + dt * point.two_photon

    for d in spec.drives:
        for c in d.couplings:
            i, j = spec.index(c.ground), spec.index(c.excited)
            h[i, j] += c.rabi / 2.0
            h[j, i] += c.rabi / 2.0
    return h


def detuning_derivatives(spec: LevelSystemSpec, frame: dict[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal derivatives dH/d(control_detuning) and dH/d(two_photon).

    The one statement of how each level moves with the detunings: excited
    levels by -control_detuning, probe-frame ground levels by -two_photon,
    other ground levels by neither.  The Hamiltonian is affine in the
    detuning point; assemble_hamiltonian writes its diagonal from these, and
    the spectra layer uses them to update precomputed Liouvillians cheaply.
    """
    n = spec.n_levels
    d_delta = np.zeros(n)
    d_twophoton = np.zeros(n)
    for i, lv in enumerate(spec.levels):
        if lv.manifold == EXCITED:
            d_delta[i] = -1.0
        elif frame[lv.label] == PROBE:
            d_twophoton[i] = -1.0
    return d_delta, d_twophoton
