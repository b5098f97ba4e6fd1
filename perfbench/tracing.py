"""Spans around the calls into eitsim's layers, for the traced benchmark run.

Wrappers are installed on the public functions named in ``BOUNDARIES`` and on
the dense linear-algebra entry points, only while a traced run is going on.
Every eitsim module global bound to a wrapped function is redirected, so calls
made through ``from .x import f`` and through ``module.f`` are both seen.
Spans are kept in memory (name, layer, start, end, parent, operation id, info)
and written out once at the end of the run.

Linear-algebra wrappers record a span only when the direct caller is eitsim
code; calls that numpy or scipy make internally (for example inside
``least_squares``) stay part of the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (layer, module, function): the public functions each layer is entered by.
BOUNDARIES = (
    ("cli", "eitsim.cli", "main"),
    ("modelio", "eitsim.modelio", "write_trace_csv"),
    ("modelio", "eitsim.modelio", "save_model"),
    ("modelio", "eitsim.modelio", "read_trace_csv"),
    ("modelio", "eitsim.modelio", "load_model"),
    ("model", "eitsim.model", "validate_system"),
    ("model", "eitsim.model", "assign_rotating_frame"),
    ("model", "eitsim.model", "assemble_hamiltonian"),
    ("lindblad", "eitsim.lindblad", "build_liouvillian"),
    ("spectra", "eitsim.spectra", "homogeneous_spectrum"),
    ("spectra", "eitsim.spectra", "inhomogeneous_spectrum"),
    ("spectra", "eitsim.spectra", "shift_samples"),
    ("fitting", "eitsim.fitting", "fit"),
    ("fitting", "eitsim.fitting", "identifiability_report"),
)
# The optimizer is scipy code; it is wrapped where eitsim.fitting binds it.
OPTIMIZER = ("fitting", "scipy.optimize", "least_squares")
LINALG = (
    ("numpy.linalg", ("solve", "eig", "svd", "lstsq")),
    ("scipy.linalg", ("solve", "eig", "svd", "lstsq", "lu_factor", "lu_solve")),
)
_LU_LIKE = {"solve", "lu_factor"}

WRITERS = {"write_trace_csv", "save_model"}
ENSEMBLE = "inhomogeneous_spectrum"


def _written_bytes(args, kwargs, result):
    path = Path(args[0] if args else kwargs["path"])
    size = path.stat().st_size
    sidecar = path.with_suffix(".meta.json")
    if sidecar.exists():
        size += sidecar.stat().st_size
    return {"bytes": size}


def _shift_count(args, kwargs, result):
    return {"shifts": int(len(result[0]))}


def _optimizer_counts(args, kwargs, result):
    return {"nfev": int(result.nfev), "njev": int(result.njev or 0)}


def _linalg_work(args, kwargs, result):
    """Number of systems in the call, their order m and whether complex."""
    import numpy as np

    a = np.asarray(args[0] if args else kwargs["a"])
    if a.ndim < 2:
        return {"systems": 1}
    systems = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    return {"systems": systems, "m": int(a.shape[-1]),
            "complex": bool(np.iscomplexobj(a))}


class Tracer:
    """In-memory span recorder. Not thread-safe: the benchmark runs --workers 1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------
    def _wrap(self, layer, name, fn, info=None, eitsim_callers_only=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if eitsim_callers_only:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if not caller.startswith("eitsim"):
                    return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return wrapper

    def _redirect(self, original, wrapper, module=None, attr=None):
        """Point every eitsim global bound to original, and module.attr when
        given, at wrapper."""
        targets = [(module, attr)] if module is not None else []
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "eitsim" or mod_name.startswith("eitsim.")):
                targets += [(mod, k) for k, v in list(vars(mod).items()) if v is original]
        for mod, key in targets:
            self._restore.append((mod, key, getattr(mod, key)))
            setattr(mod, key, wrapper)

    def install(self):
        import importlib

        for layer, mod_name, fn_name in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, fn_name)
            info = _written_bytes if fn_name in WRITERS else (
                _shift_count if fn_name == "shift_samples" else None)
            self._redirect(original, self._wrap(layer, fn_name, original, info), mod, fn_name)

        layer, mod_name, fn_name = OPTIMIZER
        original = getattr(importlib.import_module(mod_name), fn_name)
        self._redirect(original, self._wrap(layer, fn_name, original, _optimizer_counts))

        for mod_name, names in LINALG:
            mod = importlib.import_module(mod_name)
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self._wrap("linalg", f"{mod_name}.{fn_name}", original,
                                     _linalg_work, eitsim_callers_only=True)
                self._redirect(original, wrapper, mod, fn_name)

    def uninstall(self):
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "info": info}) + "\n")

    # -- analysis ----------------------------------------------------------
    def op_metrics(self, op_id: int, op_wall_s: float) -> dict:
        """Per-layer self times and counts of one operation."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == op_id]
        children: dict[int, list[tuple[float, float]]] = {}
        for i, s in spans:
            children.setdefault(s[4], []).append((s[2], s[3]))

        def self_time(i, s):
            covered, cursor = 0.0, s[2]
            for start, end in sorted(children.get(i, ())):
                start, end = max(start, cursor), min(end, s[3])
                if end > start:
                    covered += end - start
                    cursor = end
            return (s[3] - s[2]) - covered

        def ancestors(i):
            names = set()
            parent = self.spans[i][4]
            while parent >= 0:
                names.add(self.spans[parent][0])
                parent = self.spans[parent][4]
            return names

        m = {k: 0.0 for k in METRIC_UNITS}
        shift_calls = 0
        ran_fit = any(s[0] == "fit" for _, s in spans)
        for i, s in spans:
            name, layer, info = s[0], s[1], s[6] or {}
            st = self_time(i, s)
            if layer != "cli":
                m["layers_s"] += st
            if layer == "cli":
                m["cli.self_s"] += st
            elif layer == "modelio":
                if name in WRITERS:
                    m["modelio.write_s"] += st
                    m["modelio.write_bytes"] += info.get("bytes", 0)
                else:
                    m["modelio.read_s"] += st
            elif layer == "model":
                m["model.self_s"] += st
                m["model.calls"] += 1
            elif layer == "lindblad":
                m["lindblad.build_s"] += st
                m["lindblad.build_calls"] += 1
            elif layer == "spectra":
                m["spectra.self_s"] += st
                if name == "shift_samples":
                    m["spectra.shifts"] += info["shifts"]
                    shift_calls += 1
                else:
                    m["spectra.calls"] += 1
                if name == ENSEMBLE:
                    up = ancestors(i)
                    if "fit" in up:
                        m["fitting.model_evals"] += 1
                    elif "identifiability_report" in up:
                        m["fitting.ident_evals"] += 1
                    elif ran_fit:
                        m["cli.rebuild_evals"] += 1
            elif layer == "linalg":
                m["linalg.self_s"] += st
                m["linalg.calls"] += 1
                systems = info.get("systems", 1)
                m["linalg.systems"] += systems
                # Computed from matrix sizes, for LU factorisations only:
                # (8/3)m^3 flops and 16m^2 bytes per complex system, a quarter
                # of the flops and half the bytes per real one.
                if name.rsplit(".", 1)[1] in _LU_LIKE and "m" in info:
                    mm = info["m"]
                    c = info["complex"]
                    m["linalg.gflops_computed"] += systems * (8 if c else 2) / 3 * mm**3 / 1e9
                    m["linalg.bytes_computed"] += systems * (16 if c else 8) * mm**2
            elif layer == "fitting":
                if name == "least_squares":
                    m["fitting.optimizer_self_s"] += st
                    m["fitting.nfev"] += info.get("nfev", 0)
                    m["fitting.njev"] += info.get("njev", 0)
                else:
                    m["fitting.self_s"] += st
        if shift_calls:
            m["spectra.shifts"] /= shift_calls
        # The share of the operation the layer spans cover; cli.main's own
        # self time is the rest, so work that escapes every span lowers it.
        m["covered_frac"] = m.pop("layers_s") / op_wall_s
        return m


# Per-layer metric name -> unit, in the order they are reported.
METRIC_UNITS = {
    "cli.self_s": "s",
    "cli.rebuild_evals": "count",
    "modelio.write_s": "s",
    "modelio.write_bytes": "B",
    "modelio.read_s": "s",
    "model.self_s": "s",
    "model.calls": "count",
    "lindblad.build_s": "s",
    "lindblad.build_calls": "count",
    "spectra.self_s": "s",
    "spectra.calls": "count",
    "spectra.shifts": "count",  # mean samples per shift_samples grid
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.systems": "count",
    "linalg.gflops_computed": "GFLOP",
    "linalg.bytes_computed": "B",
    "fitting.self_s": "s",
    "fitting.optimizer_self_s": "s",
    "fitting.nfev": "count",
    "fitting.njev": "count",
    "fitting.model_evals": "count",
    "fitting.ident_evals": "count",
    "layers_s": "s",
}
