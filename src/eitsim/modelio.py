"""Serialization: model JSON documents, trace/map CSV files, and metadata
sidecars.  Frequencies in a document are scaled by its mandatory units field
("Hz", "MHz", "GHz"); internally everything is Hz."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .model import (
    Coupling,
    DecayChannel,
    Dephasing,
    DriveField,
    Level,
    LevelSystemSpec,
)
from .spectra import MagnetoMap, SpectrumTrace
from .spin import SpinModel

UNIT_SCALES = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}


class ModelFormatError(ValueError):
    """Malformed model or config document."""


def unit_scale(units) -> float:
    if not isinstance(units, str) or units not in UNIT_SCALES:
        raise ModelFormatError(f"units must be one of {sorted(UNIT_SCALES)}, got {units!r}")
    return UNIT_SCALES[units]


def _name(d: dict, key: str) -> str:
    """d[key], which names a level, manifold or field and must be a string."""
    value = d[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def _float(value) -> float:
    """A JSON number as a float; true and false are not numbers."""
    if isinstance(value, bool):
        raise TypeError(f"{json.dumps(value)} is not a number")
    return float(value)


def spec_from_dict(doc: dict) -> LevelSystemSpec:
    """Build a LevelSystemSpec from its JSON document form."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"model document must be an object, got {type(doc).__name__}")
    try:
        scale = unit_scale(doc.get("units"))
        levels = tuple(
            Level(_name(d, "label"), _name(d, "manifold"),
                  _float(d.get("energy", 0.0)) * scale)
            for d in doc["levels"]
        )
        drives = tuple(
            DriveField(
                _name(d, "field_id"),
                tuple(
                    Coupling(_name(c, "ground"), _name(c, "excited"),
                             _float(c["rabi"]) * scale)
                    for c in d["couplings"]
                ),
            )
            for d in doc["drives"]
        )
        decays = tuple(
            DecayChannel(_name(d, "from"), _name(d, "to"), _float(d["rate"]) * scale)
            for d in doc.get("decays", [])
        )
        dephasings = tuple(
            Dephasing(_name(d, "level"), _float(d["rate"]) * scale)
            for d in doc.get("dephasings", [])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    return LevelSystemSpec(levels, drives, decays, dephasings)


def spec_to_dict(spec: LevelSystemSpec, units: str = "Hz") -> dict:
    scale = unit_scale(units)
    return {
        "units": units,
        "levels": [
            {"label": lv.label, "manifold": lv.manifold, "energy": lv.energy / scale}
            for lv in spec.levels
        ],
        "drives": [
            {
                "field_id": d.field_id,
                "couplings": [
                    {"ground": c.ground, "excited": c.excited, "rabi": c.rabi / scale}
                    for c in d.couplings
                ],
            }
            for d in spec.drives
        ],
        "decays": [
            {"from": ch.source, "to": ch.target, "rate": ch.rate / scale}
            for ch in spec.decays
        ],
        "dephasings": [
            {"level": dp.level, "rate": dp.rate / scale} for dp in spec.dephasings
        ],
    }


def load_model(path) -> LevelSystemSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ModelFormatError(f"model file {path}: {exc}") from exc
    return spec_from_dict(doc)


def save_model(path, spec: LevelSystemSpec, units: str = "Hz") -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec, units), fh, indent=2)


def spin_from_dict(doc: dict, units: str) -> SpinModel:
    """Spin config block: {D, E, g, B_mT, phi_deg}; D and E in document units."""
    scale = unit_scale(units)
    try:
        return SpinModel(
            d=_float(doc["D"]) * scale,
            e=_float(doc.get("E", 0.0)) * scale,
            g_factor=_float(doc.get("g", 2.0)),
            b_field=_float(doc.get("B_mT", 0.0)) * 1e-3,
            angle_deg=_float(doc.get("phi_deg", 0.0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed spin block: {exc}") from exc


def config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def write_trace_csv(path, trace: SpectrumTrace, meta: dict | None = None) -> None:
    """CSV (delta_hz, absorbance) plus a .meta.json metadata sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_hz", "absorbance"])
        for x, a in zip(trace.delta_grid, trace.absorbance):
            writer.writerow([repr(float(x)), repr(float(a))])
    sidecar = dict(trace.metadata)
    sidecar.update(meta or {})
    with open(path.with_suffix(".meta.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, default=str)


def read_trace_csv(path):
    """Observed-trace CSV: header delta_hz, signal[, sigma].  Every value must
    be finite, sigma > 0, and delta_hz strictly increasing."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ModelFormatError(f"{path}: empty CSV")
        ncol = len(header)
        if ncol not in (2, 3):
            raise ModelFormatError(f"{path}: expected 2 or 3 columns, got {ncol}")
        delta, signal, sigma = [], [], []
        for k, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncol:
                raise ModelFormatError(f"{path}: row {k}: expected {ncol} fields")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ModelFormatError(f"{path}: row {k}: {exc}") from exc
            for name, v in zip(("delta_hz", "signal", "sigma"), values):
                if not np.isfinite(v) or (name == "sigma" and v <= 0):
                    bound = "finite and > 0" if name == "sigma" else "finite"
                    raise ModelFormatError(f"{path}: row {k}: {name} must be {bound}, "
                                           f"got {v!r}")
            delta.append(values[0])
            signal.append(values[1])
            sigma += values[2:]
    if not delta:
        raise ModelFormatError(f"{path}: no data rows")
    if np.any(np.diff(delta) <= 0):
        raise ModelFormatError(f"{path}: delta_hz must be strictly increasing")
    return (
        np.array(delta),
        np.array(signal),
        np.array(sigma) if sigma else None,
    )


def write_map_csv(path, mmap: MagnetoMap, meta: dict | None = None) -> None:
    """Matrix CSV: first row the two-photon axis, first column the field axis."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b_tesla\\delta_hz"] + [repr(float(x)) for x in mmap.delta_grid])
        for b, row in zip(mmap.b_grid, mmap.absorbance):
            writer.writerow([repr(float(b))] + [repr(float(a)) for a in row])
    with open(path.with_suffix(".meta.json"), "w") as fh:
        json.dump(meta or {}, fh, indent=2, default=str)
