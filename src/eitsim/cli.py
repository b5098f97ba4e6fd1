"""Command-line front end: steady-state spectra, magneto maps, threshold
checks, and spectrum fits driven by JSON config files.

Exit codes: 0 success, 2 config validation failure, 3 engine failure,
4 fit did not converge (results still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, presets
from .fitting import FitProblem, FreeParameter, ObservedTrace, fit, identifiability_report
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
    eit_threshold,
    homogeneous_spectrum,
    inhomogeneous_spectrum,
    magneto_map,
    power_from_rabi,
)

EXIT_CONFIG = 2
EXIT_ENGINE = 3
EXIT_NONCONVERGED = 4


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}")


def _model_from_config(cfg: dict, base: Path):
    """The config's model, loaded and validated; every violation becomes one
    line of the ConfigError."""
    if "model" not in cfg:
        raise ConfigError("config missing 'model'")
    model = cfg["model"]
    try:
        spec = load_model(base / model) if isinstance(model, str) else spec_from_dict(model)
    except (ModelFormatError, FileNotFoundError) as exc:
        raise ConfigError(str(exc))
    report = validate_system(spec)
    if not report.ok:
        raise ConfigError("\n".join(f"model: {line}" for line in report.violations))
    return spec


def _grid_from_config(cfg: dict, scale: float) -> np.ndarray:
    g = cfg.get("delta_grid")
    if not isinstance(g, dict):
        raise ConfigError("config missing 'delta_grid' block")
    try:
        n = int(g["points"])
        start, stop = float(g["start"]), float(g["stop"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"delta_grid: {exc}")
    if n < 1 or not stop > start or not np.isfinite([start, stop]).all():
        raise ConfigError("delta_grid must be non-empty and finite with stop > start")
    return np.linspace(start * scale, stop * scale, n)


def _inhom_from_config(cfg: dict, scale: float) -> InhomogeneitySpec:
    block = cfg.get("inhomogeneity")
    if block is None:
        raise ConfigError("config missing 'inhomogeneity' block")
    try:
        return InhomogeneitySpec(
            fwhm=float(block["fwhm"]) * scale,
            n_samples=int(block.get("n_samples", 801)),
            truncation=float(block.get("truncation", 4.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"inhomogeneity: {exc}")


def _meta(cfg: dict, args) -> dict:
    return {
        "artifact_version": __version__,
        "config_hash": config_hash(cfg),
        "seed": args.seed,
        "workers": args.workers,
    }


def cmd_simulate(args) -> int:
    if args.preset:
        return _run_preset(args)
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    scale = unit_scale(cfg.get("units", "Hz"))
    spec = _model_from_config(cfg, base)
    grid = _grid_from_config(cfg, scale)
    mode = cfg.get("mode", "inhomogeneous")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prefix = cfg.get("output_prefix", "trace")
    if mode == "homogeneous":
        detuning = float(cfg.get("control_detuning", 0.0)) * scale
        trace = homogeneous_spectrum(spec, detuning, grid, workers=args.workers)
    elif mode == "inhomogeneous":
        inhom = _inhom_from_config(cfg, scale)
        trace = inhomogeneous_spectrum(
            spec, inhom, grid, workers=args.workers,
            check_convergence=args.check_convergence,
        )
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    write_trace_csv(out / f"{prefix}.csv", trace, _meta(cfg, args))
    print(out / f"{prefix}.csv")
    return 0


def cmd_map(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    scale = unit_scale(cfg.get("units", "Hz"))
    template = _model_from_config(cfg, base)
    spin = cfg.get("spin")
    if not isinstance(spin, dict) or "ground" not in spin or "excited" not in spin:
        raise ConfigError("map config needs a 'spin' block with ground and excited")
    try:
        ground = spin_from_dict(spin["ground"], cfg.get("units", "Hz"))
        excited = spin_from_dict(spin["excited"], cfg.get("units", "Hz"))
    except ModelFormatError as exc:
        raise ConfigError(str(exc))
    b_values = np.asarray(cfg.get("b_values_mT", []), dtype=float) * 1e-3
    grid = _grid_from_config(cfg, scale)
    inhom = _inhom_from_config(cfg, scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mmap = magneto_map(template, ground, excited, b_values, grid, inhom,
                       workers=args.workers)
    path = out / f"{cfg.get('output_prefix', 'map')}.csv"
    write_map_csv(path, mmap, _meta(cfg, args))
    print(path)
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    base = Path(args.config).parent
    scale = unit_scale(cfg.get("units", "Hz"))
    template = _model_from_config(cfg, base)
    inhom = _inhom_from_config(cfg, scale)
    traces = []
    for block in cfg.get("traces", []):
        try:
            delta, signal, sigma = read_trace_csv(base / block["csv"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"traces: {exc}")
        except ModelFormatError as exc:
            raise ConfigError(str(exc))
        power = block.get("power_mw")
        traces.append(
            ObservedTrace(
                delta_grid=delta,
                signal=signal,
                sigma=sigma,
                power=None if power is None else float(power) * 1e-3,
                temperature=block.get("temperature_k"),
            )
        )
    if not traces:
        raise ConfigError("fit config lists no traces")
    params = []
    for block in cfg.get("parameters", []):
        try:
            params.append(
                FreeParameter(
                    name=block["name"],
                    initial=float(block["initial"]) * scale,
                    lower=float(block["lower"]) * scale,
                    upper=float(block["upper"]) * scale,
                    per_trace=bool(block.get("per_trace", False)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"parameters: {exc}")
    if not params:
        raise ConfigError("fit config lists no free parameters")
    problem = FitProblem(
        template=template,
        inhom=inhom,
        parameters=tuple(params),
        rabi_power_scaling=bool(cfg.get("rabi_power_scaling", False)),
        power_ref=float(cfg.get("power_ref_mw", 1.0)) * 1e-3,
        workers=args.workers,
    )
    ident = identifiability_report(problem, traces)
    result = fit(traces, problem)

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
        "degenerate_pairs": ident.degenerate_pairs,
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
    try:
        omega_c = float(cfg["omega_c"]) * scale
        delta_i = float(cfg["delta_i"]) * scale
        gamma_g = float(cfg["gamma_g"]) * scale
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"check config: {exc}")
    report = eit_threshold(omega_c, delta_i, gamma_g)
    if gamma_g == 0.0 or delta_i == 0.0:
        print("threshold 0; any power suffices")
    print(f"minimum control rabi: {report.min_omega_c:.6g} Hz")
    print(f"margin: {report.margin:.6g}")
    print(f"satisfied: {'yes' if report.satisfied else 'no'}")
    calib = cfg.get("calibration")
    if calib and report.min_omega_c > 0:
        omega_ref = float(calib["omega_ref"]) * scale
        power_ref = float(calib.get("power_ref_mw", 1.0)) * 1e-3
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
    yield "fig3a_homogeneous", ("homogeneous", spec, 0.0, grid, None)
    inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=801)
    yield "fig3a_inhomogeneous", ("inhomogeneous", spec, None, grid, inhom)


def _preset_fig3b():
    spec = presets.three_level_lambda()
    grid = np.linspace(-2.5e8, 2.5e8, 501)
    for detuning in (0.0, 5e6, 2e7, 5e7, 2e8):
        yield (
            f"fig3b_detuning_{int(detuning / 1e6)}MHz",
            ("homogeneous", spec, detuning, grid, None),
        )


def _preset_fig3c():
    spec = presets.three_level_lambda()
    grid = np.linspace(-6e7, 6e7, 241)
    for detuning in np.linspace(-5e7, 5e7, 41):
        yield (
            f"fig3c_row_{detuning / 1e6:+.1f}MHz".replace("+", "p").replace("-", "m"),
            ("homogeneous", spec, float(detuning), grid, None),
        )


def _preset_fig4():
    gamma_e = presets.GAMMA_E
    inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=801)
    for mult in (0, 1, 3, 10):
        spec = presets.five_level_mismatch(delta_k=mult * gamma_e)
        grid = np.linspace(-5e7, 5e7 + mult * gamma_e * 1.5, 301)
        yield f"fig4_mismatch_{mult}x", ("inhomogeneous", spec, None, grid, inhom)


def _preset_fig5_power():
    inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM, n_samples=801)
    grid = np.linspace(-2e7, 2.5e7, 226)
    for power_mw in (0.25, 1.0, 4.0, 16.0):
        omega_c = presets.OMEGA_C_PER_MW * np.sqrt(power_mw)
        spec = presets.five_level_double_eit(
            delta_k=11.1e6, delta_54=3e6, omega_c=omega_c
        )
        yield f"fig5_power_{power_mw}mW", ("inhomogeneous", spec, None, grid, inhom)


def _preset_fig5_temperature():
    inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM, n_samples=801)
    grid = np.linspace(-2e7, 2.5e7, 226)
    for temp_k, gamma_e_deph in ((2, 0.0), (6, 2e6), (9, 7e6), (12, 14e6)):
        spec = presets.five_level_double_eit(
            delta_k=11.1e6, delta_54=3e6, gamma_e_deph=gamma_e_deph
        )
        yield f"fig5_temperature_{temp_k}K", ("inhomogeneous", spec, None, grid, inhom)


PRESETS = {
    "fig3a": _preset_fig3a,
    "fig3b": _preset_fig3b,
    "fig3c": _preset_fig3c,
    "fig4": _preset_fig4,
    "fig5-power": _preset_fig5_power,
    "fig5-temperature": _preset_fig5_temperature,
}


def _run_preset(args) -> int:
    name = args.preset
    if name not in PRESETS:
        print(f"config error: unknown preset {name!r}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "artifact_version": __version__,
        "config_hash": config_hash({"preset": name}),
        "seed": args.seed,
        "workers": args.workers,
    }
    for stem, (mode, spec, detuning, grid, inhom) in PRESETS[name]():
        if mode == "homogeneous":
            trace = homogeneous_spectrum(spec, detuning, grid, workers=args.workers)
        else:
            trace = inhomogeneous_spectrum(
                spec, inhom, grid, workers=args.workers,
                check_convergence=args.check_convergence,
            )
        write_trace_csv(out / f"{stem}.csv", trace, dict(meta, preset=name))
        print(out / f"{stem}.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitsim",
        description="Steady-state EIT spectra and fits for multi-level defect ensembles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_config in (
        ("simulate", cmd_simulate, False),
        ("map", cmd_map, True),
        ("fit", cmd_fit, True),
        ("check", cmd_check, True),
        ("presets", cmd_presets, False),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file", required=needs_config)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--check-convergence", action="store_true")
        if name == "simulate":
            p.add_argument("--preset", help="named figure-reproduction bundle")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate" and not args.preset and not args.config:
        print("config error: simulate needs --config or --preset", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # engine failures
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
