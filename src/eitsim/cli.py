"""Command-line front end: steady-state spectra, magneto maps, threshold
checks, and spectrum fits driven by JSON config files.

Exit codes: 0 success, 2 malformed config, model or trace file, 3 engine
failure, 4 fit did not converge (results still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, presets
from .fitting import (
    FitProblem,
    FreeParameter,
    ObservedTrace,
    _flat_series,
    _stuck_start,
    apply_parameter,
    fit,
)
from .model import validate_system
from .modelio import (
    ModelFormatError,
    config_hash,
    load_model,
    read_trace_csv,
    spec_from_dict,
    spin_from_dict,
    unit_scale,
    write_map_csv,
    write_trace_csv,
)
from .spectra import (
    InhomogeneitySpec,
    _spin_index,
    eit_threshold,
    homogeneous_spectrum,
    inhomogeneous_spectrum,
    magneto_map,
    model_hash,
    power_from_rabi,
)
from .spin import MU_B_HZ_PER_T

EXIT_CONFIG = 2
EXIT_ENGINE = 3
EXIT_NONCONVERGED = 4
_MAX_COUNT = 10**6  # ceiling of a config count (grid points, ensemble samples)


class ConfigError(ValueError):
    """Malformed config file or value."""


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ConfigError(f"config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return cfg


def _number(block, key, where, default=None, low=-np.inf, above=False, scale=1.0) -> float:
    """block[key] (or default if the key is missing) times scale, as a float
    that is finite and >= low (> low if above) once scaled; where is block's
    dotted path in the config, "" at top level."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be an object, got {type(block).__name__}")
    name = f"{where}.{key}" if where else key
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"{name}: missing or null")
    try:
        raw = np.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge JSON int
        raw = np.nan
    x = raw * scale
    if not (np.isfinite(x) and (x > low if above else x >= low)):
        bound = f" {'>' if above else '>='} {low / scale:g}" if low > -np.inf else ""
        hint = " (overflows once scaled to Hz)" if np.isfinite(raw) and np.isinf(x) else ""
        raise ConfigError(f"{name}: must be a finite number{bound}, got {value!r}{hint}")
    return x


def _count(block, key, where, default=None, low=-np.inf) -> int:
    """_number's value, which must also be a whole number (201.0 is 201) and
    at most _MAX_COUNT."""
    x = _number(block, key, where, default, low=low)
    if not x.is_integer():
        raise ConfigError(f"{where}.{key}: must be a whole number, got {block[key]!r}")
    if x > _MAX_COUNT:
        raise ConfigError(f"{where}.{key}: must be at most {_MAX_COUNT}, got {block[key]!r}")
    return int(x)


def _flag(block: dict, key: str, where: str) -> bool:
    """block[key] as a JSON true or false; a missing key is false."""
    value = block.get(key, False)
    if not isinstance(value, bool):
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name}: must be true or false, got {value!r}")
    return value


def _list(cfg: dict, key: str) -> list:
    value = cfg.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key}: must be a list, got {type(value).__name__}")
    return value


def _model_from_config(cfg: dict, base: Path):
    """The config's model, loaded and validated; every violation becomes one
    line of the ConfigError."""
    model = cfg.get("model")
    spec = load_model(base / model) if isinstance(model, str) else spec_from_dict(model)
    report = validate_system(spec)
    if not report.ok:
        raise ConfigError("\n".join(f"model: {line}" for line in report.violations))
    return spec


def _grid_from_config(cfg: dict, scale: float) -> np.ndarray:
    g = cfg.get("delta_grid")
    start = _number(g, "start", "delta_grid", scale=scale)
    stop = _number(g, "stop", "delta_grid", low=start, above=True, scale=scale)
    return np.linspace(start, stop, _count(g, "points", "delta_grid", low=1))


def _inhom_from_config(cfg: dict, scale: float) -> InhomogeneitySpec:
    """The ensemble block; keys it leaves out take InhomogeneitySpec's defaults."""
    block = cfg.get("inhomogeneity")
    fwhm = _number(block, "fwhm", "inhomogeneity", scale=scale)
    n = _count(block, "n_samples", "inhomogeneity", InhomogeneitySpec.n_samples)
    cut = _number(block, "truncation", "inhomogeneity", InhomogeneitySpec.truncation)
    try:
        return InhomogeneitySpec(fwhm=fwhm, n_samples=n, truncation=cut)
    except ValueError as exc:
        raise ConfigError(f"inhomogeneity: {exc}")


def _simulation_from_config(cfg: dict, base: Path):
    """One (stem, spec, grid, shift) row, like a preset's; see cmd_simulate."""
    scale = unit_scale(cfg.get("units", "Hz"))
    spec = _model_from_config(cfg, base)
    grid = _grid_from_config(cfg, scale)
    mode = cfg.get("mode", "inhomogeneous")
    if mode == "homogeneous":
        shift = _number(cfg, "control_detuning", "", default=0.0, scale=scale)
    elif mode == "inhomogeneous":
        shift = _inhom_from_config(cfg, scale)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return _output_prefix(cfg, "trace"), spec, grid, shift


def _output_prefix(cfg: dict, default: str) -> str:
    """The stem of the file a simulate or map run writes, inside --out."""
    prefix = cfg.get("output_prefix", default)
    if not isinstance(prefix, str) or not prefix:
        raise ConfigError(f"output_prefix: must be a non-empty string, got {prefix!r}")
    if prefix in (".", "..") or "\0" in prefix or Path(prefix).name != prefix:
        raise ConfigError(f"output_prefix: must be a file name with no directory part, "
                          f"got {prefix!r}")
    return prefix


def _meta(doc: dict, args) -> dict:
    return {
        "artifact_version": __version__,
        "config_hash": config_hash(doc),
        "workers": args.workers,
    }


def cmd_simulate(args) -> int:
    """Compute each (stem, spec, grid, shift) row of a preset or a config.

    shift is a control detuning (Hz) for one homogeneous spectrum, or an
    InhomogeneitySpec for the Gaussian ensemble average.
    """
    if args.preset and args.config:
        raise ConfigError("simulate takes --config or --preset, not both")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        rows = PRESETS[args.preset]()
        meta = dict(_meta({"preset": args.preset}, args), preset=args.preset)
    elif args.config:
        cfg = _load_config(args.config)
        rows = [_simulation_from_config(cfg, Path(args.config).parent)]
        meta = _meta(cfg, args)
    else:
        raise ConfigError("simulate needs --config or --preset")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, spec, grid, shift in rows:
        if isinstance(shift, InhomogeneitySpec):
            trace = inhomogeneous_spectrum(
                spec, shift, grid, workers=args.workers,
                check_convergence=args.check_convergence,
            )
        else:
            trace = homogeneous_spectrum(spec, shift, grid, workers=args.workers)
        path = out / f"{stem}.csv"
        write_trace_csv(path, trace, meta)
        print(path)
    return 0


def cmd_map(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    scale = unit_scale(cfg.get("units", "Hz"))
    template = _model_from_config(cfg, base)
    try:
        for lv in template.levels:
            _spin_index(lv.label)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}")
    spin = cfg.get("spin")
    if not isinstance(spin, dict) or "ground" not in spin or "excited" not in spin:
        raise ConfigError("map config needs a 'spin' block with ground and excited")
    ground = spin_from_dict(spin["ground"], cfg.get("units", "Hz"))
    excited = spin_from_dict(spin["excited"], cfg.get("units", "Hz"))
    # each field is read as the lone key of a block, so errors start "b_values_mT: "
    b_values = np.array([_number({"b_values_mT": b}, "b_values_mT", "", low=0.0)
                         for b in _list(cfg, "b_values_mT")]) * 1e-3
    for b in b_values.tolist() or [ground.b_field]:  # the fields magneto_map uses
        for name, model in (("ground", ground), ("excited", excited)):
            if not np.isfinite(model.g_factor * MU_B_HZ_PER_T * b):
                raise ConfigError(f"b_values_mT: the Zeeman term of spin.{name} (g = "
                                  f"{model.g_factor:g}) overflows at {b * 1e3:g} mT")
    grid = _grid_from_config(cfg, scale)
    inhom = _inhom_from_config(cfg, scale)
    prefix = _output_prefix(cfg, "map")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mmap = magneto_map(template, ground, excited, b_values, grid, inhom,
                       workers=args.workers)
    path = out / f"{prefix}.csv"
    # the keys inhomogeneous_spectrum gives a simulate sidecar, for the template
    meta = {"model": model_hash(template), "fwhm_hz": inhom.fwhm,
            "n_samples": inhom.n_samples, "truncation": inhom.truncation,
            **_meta(cfg, args)}
    write_map_csv(path, mmap, meta)
    print(path)
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    scale = unit_scale(cfg.get("units", "Hz"))
    template = _model_from_config(cfg, base)
    inhom = _inhom_from_config(cfg, scale)
    scaling = _flag(cfg, "rabi_power_scaling", "")
    traces = []
    for k, block in enumerate(_list(cfg, "traces")):
        where = f"traces[{k}]"
        try:
            delta, signal, sigma = read_trace_csv(base / block["csv"])
        except (KeyError, TypeError, OSError) as exc:
            raise ConfigError(f"{where}.csv: missing or unreadable: {exc}")
        except ModelFormatError as exc:
            raise ConfigError(f"{where}.csv: {exc}")
        if scaling and "power_mw" not in block:
            raise ConfigError(f"{where}.power_mw: missing, and rabi_power_scaling scales "
                              "the control by each trace's power")
        power = (_number(block, "power_mw", where, low=0.0, above=True) * 1e-3
                 if "power_mw" in block else None)
        traces.append(ObservedTrace(delta, signal, sigma, power))
    if not traces:
        raise ConfigError("fit config lists no traces")
    why = _flat_series(traces)
    if why:
        raise ConfigError(f"traces: {why}")
    params = []
    for k, block in enumerate(_list(cfg, "parameters")):
        where = f"parameters[{k}]"
        initial, lower, upper = (_number(block, key, where, scale=scale)
                                 for key in ("initial", "lower", "upper"))
        name, per_trace = block.get("name"), _flag(block, "per_trace", where)
        if name in (p.name for p in params):
            raise ConfigError(f"{where}.name: {name!r} is listed twice")
        try:
            apply_parameter(template, name, initial)
            params.append(FreeParameter(name, initial, lower, upper, per_trace=per_trace))
        except (AttributeError, KeyError):
            raise ConfigError(f"{where}.name: {name!r} is not a parameter of the model")
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}")
        why = _stuck_start(params[-1])
        if why:
            raise ConfigError(f"{where}.initial: {why}")
    if not params:
        raise ConfigError("fit config lists no free parameters")
    problem = FitProblem(
        template=template,
        inhom=inhom,
        parameters=tuple(params),
        rabi_power_scaling=scaling,
        power_ref=_number(cfg, "power_ref_mw", "", 1.0, low=0.0, above=True) * 1e-3,
        workers=args.workers,
    )
    try:
        result = fit(traces, problem)
    except KeyError as exc:  # a listed name that moves nothing in the generator
        k = next((k for k, p in enumerate(params)
                  if str(exc.args[0]).startswith(f"fit parameter {p.name!r}:")), None)
        if k is None:
            raise
        raise ConfigError(f"parameters[{k}].name: {params[k].name!r} is not a parameter "
                          "of the model")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "converged": result.converged,
        "message": result.message,
        "estimates_hz": result.estimates,
        "uncertainties_hz": result.uncertainties,
        "covariance_hz2": result.covariance.tolist(),
        "parameter_names": result.parameter_names,
        "residual_norm": result.residual_norm,
        "scales": result.scales.tolist(),
        "offsets": result.offsets.tolist(),
        "warnings": result.warnings,
        "degenerate_pairs": result.degenerate_pairs,
        "nfev": result.nfev,
        "njev": result.njev,
    }
    doc.update(_meta(cfg, args))
    with open(out / "fit.json", "w") as fh:
        json.dump(doc, fh, indent=2)
    # Residuals at the optimum, per trace point.
    with open(out / "residuals.csv", "w", newline="") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(["trace", "delta_hz", "signal", "model"])
        for t, (trace, m) in enumerate(zip(traces, result.curves)):
            for d, s, mv in zip(trace.delta_grid, trace.signal, m):
                writer.writerow([t, repr(float(d)), repr(float(s)), repr(float(mv))])
    print(out / "fit.json")
    return 0 if result.converged else EXIT_NONCONVERGED


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    scale = unit_scale(cfg.get("units", "Hz"))
    omega_c, delta_i, gamma_g = (_number(cfg, key, "", low=0.0, scale=scale)
                                 for key in ("omega_c", "delta_i", "gamma_g"))
    calib = cfg.get("calibration")
    if calib is not None:
        omega_ref = _number(calib, "omega_ref", "calibration", low=0.0, above=True,
                            scale=scale)
        power_ref = _number(calib, "power_ref_mw", "calibration", 1.0,
                            low=0.0, above=True) * 1e-3
    report = eit_threshold(omega_c, delta_i, gamma_g)
    if gamma_g == 0.0 or delta_i == 0.0:
        print("threshold 0; any power suffices")
    print(f"minimum control rabi: {report.min_omega_c:.6g} Hz")
    print(f"margin: {report.margin:.6g}")
    print(f"satisfied: {'yes' if report.satisfied else 'no'}")
    if calib is not None and report.min_omega_c > 0:
        required = power_from_rabi(report.min_omega_c, omega_ref, power_ref)
        print(f"required control power: {required * 1e3:.6g} mW")
    return 0


def cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        print(name)
    return 0


# ---------------------------------------------------------------------------
# Figure-reproduction presets

def _preset_fig3a():
    spec = presets.three_level_lambda()
    grid = np.linspace(-2e7, 2e7, 201)
    yield "fig3a_homogeneous", spec, grid, 0.0
    yield "fig3a_inhomogeneous", spec, grid, InhomogeneitySpec(fwhm=presets.SIM_FWHM)


def _preset_fig3b():
    spec = presets.three_level_lambda()
    grid = np.linspace(-2.5e8, 2.5e8, 501)
    for detuning in (0.0, 5e6, 2e7, 5e7, 2e8):
        yield f"fig3b_detuning_{int(detuning / 1e6)}MHz", spec, grid, detuning


def _preset_fig3c():
    spec = presets.three_level_lambda()
    grid = np.linspace(-6e7, 6e7, 241)
    for detuning in np.linspace(-5e7, 5e7, 41):
        stem = f"fig3c_row_{detuning / 1e6:+.1f}MHz".replace("+", "p").replace("-", "m")
        yield stem, spec, grid, float(detuning)


def _preset_fig4():
    gamma_e = presets.GAMMA_E
    inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM)
    for mult in (0, 1, 3, 10):
        spec = presets.five_level_mismatch(delta_k=mult * gamma_e)
        grid = np.linspace(-5e7, 5e7 + mult * gamma_e * 1.5, 301)
        yield f"fig4_mismatch_{mult}x", spec, grid, inhom


def _preset_fig5_power():
    inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM)
    grid = np.linspace(-2e7, 2.5e7, 226)
    for power_mw in (0.25, 1.0, 4.0, 16.0):
        omega_c = presets.OMEGA_C_PER_MW * np.sqrt(power_mw)
        spec = presets.five_level_double_eit(
            delta_k=11.1e6, delta_54=3e6, omega_c=omega_c
        )
        yield f"fig5_power_{power_mw}mW", spec, grid, inhom


def _preset_fig5_temperature():
    inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM)
    grid = np.linspace(-2e7, 2.5e7, 226)
    for temp_k, gamma_e_deph in ((2, 0.0), (6, 2e6), (9, 7e6), (12, 14e6)):
        spec = presets.five_level_double_eit(
            delta_k=11.1e6, delta_54=3e6, gamma_e_deph=gamma_e_deph
        )
        yield f"fig5_temperature_{temp_k}K", spec, grid, inhom


PRESETS = {
    "fig3a": _preset_fig3a,
    "fig3b": _preset_fig3b,
    "fig3c": _preset_fig3c,
    "fig4": _preset_fig4,
    "fig5-power": _preset_fig5_power,
    "fig5-temperature": _preset_fig5_temperature,
}


def _worker_count(text: str) -> int:
    """--workers: a whole number of threads, at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return value


_FLAGS = {
    "--config": {"help": "JSON config file"},
    "--preset": {"help": "named figure-reproduction bundle"},
    "--out": {"default": ".", "help": "output directory"},
    "--workers": {"type": _worker_count, "default": 1},
    "--check-convergence": {"action": "store_true"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitsim",
        description="Steady-state EIT spectra and fits for multi-level defect ensembles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags in (
        ("simulate", cmd_simulate,
         ("--config", "--preset", "--out", "--workers", "--check-convergence")),
        ("map", cmd_map, ("--config", "--out", "--workers")),
        ("fit", cmd_fit, ("--config", "--out", "--workers")),
        ("check", cmd_check, ("--config",)),
        ("presets", cmd_presets, ()),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        for flag in flags:
            # simulate may take --preset instead; cmd_simulate checks the pair
            required = flag == "--config" and name != "simulate"
            p.add_argument(flag, required=required, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelFormatError) as exc:  # malformed input
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # engine failures
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
