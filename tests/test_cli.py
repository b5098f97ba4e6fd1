"""Command-line front end: configs, exit codes, artifacts, determinism."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import eitsim
from eitsim import (ObservedTrace, check_density_matrix, cli, default_delta_grid, evolve,
                    find_overlap_angle, fitting, local_minima, presets)
from eitsim.modelio import config_hash, read_trace_csv, save_model, spec_to_dict
from eitsim.spectra import InhomogeneitySpec, _SweepKernel, inhomogeneous_spectrum
from make_preset_references import BUNDLES, REFERENCES, homogeneous_rows
from test_fitting import duplicated_jacobian_column


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, presets.three_level_lambda(), units="MHz")
    return path


def simulate_config(tmp_path, model_file, **over):
    doc = {
        "units": "MHz",
        "model": model_file.name,
        "mode": "homogeneous",
        "control_detuning": 0.0,
        "delta_grid": {"start": -20.0, "stop": 20.0, "points": 41},
        "output_prefix": "trace",
    }
    doc.update(over)
    return write_json(tmp_path / "sim.json", doc)


class TestSimulate:
    def test_homogeneous_run(self, tmp_path, model_file):
        cfg = simulate_config(tmp_path, model_file)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        delta, absorbance, _ = read_trace_csv(out / "trace.csv")
        assert len(delta) == 41
        meta = json.loads((out / "trace.meta.json").read_text())
        assert meta["artifact_version"]
        assert len(meta["config_hash"]) == 16

    def test_inhomogeneous_run_matches_library(self, tmp_path, model_file):
        cfg = simulate_config(
            tmp_path,
            model_file,
            mode="inhomogeneous",
            inhomogeneity={"fwhm": 2000.0, "n_samples": 101},
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, absorbance, _ = read_trace_csv(out / "trace.csv")
        direct = inhomogeneous_spectrum(
            presets.three_level_lambda(),
            InhomogeneitySpec(fwhm=2e9, n_samples=101),
            np.linspace(-2e7, 2e7, 41),
        )
        assert np.array_equal(absorbance, direct.absorbance)

    def test_worker_count_identical_output(self, tmp_path, model_file):
        cfg = simulate_config(
            tmp_path, model_file, mode="inhomogeneous",
            inhomogeneity={"fwhm": 2000.0, "n_samples": 101},
        )
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        cli.main(["simulate", "--config", cfg, "--out", str(out1), "--workers", "1"])
        cli.main(["simulate", "--config", cfg, "--out", str(out8), "--workers", "8"])
        assert (out1 / "trace.csv").read_bytes() == (out8 / "trace.csv").read_bytes()

    def test_empty_grid_is_config_error(self, tmp_path, model_file):
        inf = float("inf")
        for start, stop, points in ((0.0, 0.0, 0), (-inf, 20.0, 41), (-20.0, inf, 41)):
            cfg = simulate_config(
                tmp_path, model_file,
                delta_grid={"start": start, "stop": stop, "points": points},
            )
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_non_finite_inhomogeneity_is_config_error(self, tmp_path, model_file, capsys):
        for block in ({"fwhm": float("nan")}, {"fwhm": 2000.0, "truncation": float("inf")}):
            cfg = simulate_config(
                tmp_path, model_file, mode="inhomogeneous", inhomogeneity=block
            )
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
            assert "config error: inhomogeneity" in capsys.readouterr().err

    @pytest.mark.parametrize("detuning", ["x", [1.0], float("nan"), float("inf")])
    def test_bad_control_detuning_is_config_error(self, tmp_path, model_file, capsys, detuning):
        cfg = simulate_config(tmp_path, model_file, control_detuning=detuning)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: control_detuning" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "units": "MHz",\n')
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config(self, tmp_path):
        assert cli.main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 2

    def test_invalid_model_lists_violations(self, tmp_path, capsys):
        doc = spec_to_dict(presets.three_level_lambda(), "MHz")
        doc["drives"] = doc["drives"][:1]  # drop the control field
        doc["decays"][0]["rate"] = -1.0
        model = tmp_path / "broken.json"
        write_json(model, doc)
        # every command validates its model before any other config block
        for command, cfg in (
            ("simulate", simulate_config(tmp_path, model)),
            ("map", write_json(tmp_path / "map.json", {"units": "MHz", "model": model.name})),
            ("fit", write_json(tmp_path / "fit.json", {"units": "MHz", "model": model.name})),
        ):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2, err  # one line per violation
            assert all(line.startswith("config error: model: ") for line in err)
            assert "control" in err[0] and "rate" in err[1]

    def test_engine_failure_exit_code(self, tmp_path, capsys):
        # a disconnected extra ground level fails validation
        doc = spec_to_dict(presets.three_level_lambda(), "MHz")
        doc["levels"].append({"label": "g9", "manifold": "ground", "energy": 5.0})
        model = tmp_path / "degenerate.json"
        write_json(model, doc)
        cfg = simulate_config(tmp_path, model)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model: ") and "g9" in err, err
        # connected but without dissipation: a valid model, singular steady state
        doc = spec_to_dict(presets.three_level_lambda(), "MHz")
        doc["decays"], doc["dephasings"] = [], []
        write_json(model, doc)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "engine error: null space dimension 3" in capsys.readouterr().err

    def test_unknown_preset(self, tmp_path):
        assert cli.main(
            ["simulate", "--preset", "fig99", "--out", str(tmp_path)]
        ) == 2

    def test_no_config_no_preset(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path)]) == 2

    def test_config_and_preset_is_config_error(self, tmp_path, model_file, capsys):
        cfg = simulate_config(tmp_path, model_file)
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg, "--preset", "fig3a", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "config error: simulate takes --config or --preset" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    # every option a subcommand accepts is read by that command
    OPTIONS = {
        "simulate": {"--config", "--preset", "--out", "--workers", "--check-convergence"},
        "map": {"--config", "--out", "--workers"},
        "fit": {"--config", "--out", "--workers"},
        "check": {"--config"},
        "presets": set(),
    }

    def test_option_sets(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if a.choices and "simulate" in a.choices]
        assert set(sub.choices) == set(self.OPTIONS)
        for name, sp in sub.choices.items():
            flags = {f for a in sp._actions for f in a.option_strings} - {"-h", "--help"}
            assert flags == self.OPTIONS[name], name
        assert sum(map(len, self.OPTIONS.values())) == 12

    @pytest.mark.parametrize("argv", [
        ["check", "--config", "c.json", "--workers", "2"],
        ["presets", "--out", "x"],
        ["map", "--config", "c.json", "--check-convergence"],
        ["fit", "--config", "c.json", "--seed", "1"],
        ["simulate", "--preset", "fig3a", "--seed", "1"],
    ])
    def test_unread_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3", "x"])
    def test_workers_below_one_rejected(self, workers, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--preset", "fig3a", "--out", str(out), "--workers", workers])
        assert exc.value.code == 2
        assert f"argument --workers: must be a whole number >= 1, got '{workers}'" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestPresets:
    def test_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        names = capsys.readouterr().out.split()
        for expected in ("fig3a", "fig3b", "fig3c", "fig4",
                         "fig5-power", "fig5-temperature"):
            assert expected in names

    def test_fig3a_bundle(self, tmp_path, model_file):
        out = tmp_path / "fig3a"
        assert cli.main(["simulate", "--preset", "fig3a", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["fig3a_homogeneous.csv", "fig3a_inhomogeneous.csv"]
        meta = json.loads((out / "fig3a_homogeneous.meta.json").read_text())
        assert meta["preset"] == "fig3a"
        # a config run of the same row writes the same sidecar keys, bar "preset"
        cfg = simulate_config(tmp_path, model_file)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "cfg")]) == 0
        cfg_meta = json.loads((tmp_path / "cfg" / "trace.meta.json").read_text())
        assert set(meta) - {"preset"} == set(cfg_meta)
        assert "seed" not in meta and "seed" not in cfg_meta
        assert meta["config_hash"] == config_hash({"preset": "fig3a"})

    def test_no_bundle_falls_back(self, tmp_path, capsys):
        # Every line of every bundle is solved in pole form.  A line redone
        # by the dense solve or point by point is correct but 7-40 times
        # slower, so a change that sends a shipped preset there fails here.
        with mock.patch.object(_SweepKernel, "_dense_line", side_effect=AssertionError), \
                mock.patch.object(_SweepKernel, "_point_row", side_effect=AssertionError):
            for name in cli.PRESETS:
                assert cli.main(["simulate", "--preset", name, "--out",
                                 str(tmp_path / name)]) == 0, capsys.readouterr().err

    def test_homogeneous_spectra_match_their_references(self, tmp_path):
        # Every homogeneous CSV of the bundles against the point-by-point
        # steady_state reference of tests/make_preset_references.py, to 1e-12
        # of its peak.
        with np.load(REFERENCES) as npz:
            refs = {stem: npz[stem] for stem in npz.files}
        stems = [stem for stem, *_ in homogeneous_rows()]
        assert sorted(stems) == sorted(refs)
        for name in BUNDLES:
            assert cli.main(["simulate", "--preset", name, "--out", str(tmp_path)]) == 0
        for stem in stems:
            a = np.loadtxt(tmp_path / f"{stem}.csv", delimiter=",", skiprows=1)[:, 1]
            ref = refs[stem]
            assert a.shape == ref.shape, stem
            assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max(), stem


class TestCheck:
    def test_600mw_power_requirement(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "check.json",
            {
                "units": "MHz",
                "omega_c": 180.0,
                "delta_i": 140e3,
                "gamma_g": 0.23,
                "calibration": {"omega_ref": 7.4, "power_ref_mw": 1.0},
            },
        )
        assert cli.main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "satisfied: yes" in out
        power = float(out.split("required control power:")[1].split("mW")[0])
        assert power == pytest.approx(600.0, rel=0.05)

    @pytest.mark.parametrize("calibration", [
        {"omega_ref": "x"}, {"omega_ref": 7.4, "power_ref_mw": "x"}, {"power_ref_mw": 1.0},
        {"omega_ref": -7.4}, {"omega_ref": 7.4, "power_ref_mw": float("inf")}, [7.4],
    ])
    def test_bad_calibration_is_config_error(self, tmp_path, capsys, calibration):
        cfg = write_json(
            tmp_path / "check.json",
            {"units": "MHz", "omega_c": 180.0, "delta_i": 140e3, "gamma_g": 0.23,
             "calibration": calibration},
        )
        assert cli.main(["check", "--config", cfg]) == 2
        assert "config error: calibration" in capsys.readouterr().err

    def test_zero_dephasing_message(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "check.json",
            {"units": "MHz", "omega_c": 1.0, "delta_i": 140e3, "gamma_g": 0.0},
        )
        assert cli.main(["check", "--config", cfg]) == 0
        assert "any power suffices" in capsys.readouterr().out

    def test_boundary_not_satisfied(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "check.json",
            {"units": "Hz", "omega_c": 2.0, "delta_i": 2.0, "gamma_g": 2.0},
        )
        assert cli.main(["check", "--config", cfg]) == 0
        assert "satisfied: no" in capsys.readouterr().out


class TestMap:
    def map_config(self, tmp_path, **over):
        model = tmp_path / "five.json"
        save_model(model, presets.five_level_double_eit(5e6, 3e6), units="MHz")
        doc = {
            "units": "MHz",
            "model": model.name,
            "spin": {
                "ground": {"D": 20.0, "E": 2.0, "g": 2.0, "phi_deg": 30.0},
                "excited": {"D": 10.0, "E": 0.0, "g": 2.0, "phi_deg": 30.0},
            },
            "b_values_mT": [0.1, 0.2],
            "delta_grid": {"start": -15.0, "stop": 15.0, "points": 31},
            "inhomogeneity": {"fwhm": 1000.0, "n_samples": 101},
        }
        doc.update(over)
        return write_json(tmp_path / "map.json", doc)

    def test_small_map(self, tmp_path):
        cfg = self.map_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["map", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "map.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 field values
        assert len(lines[1].split(",")) == 32

    def test_sidecar_names_model_and_ensemble(self, tmp_path):
        # the keys a simulate sidecar gets from inhomogeneous_spectrum, for the template
        cfg = self.map_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["map", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "map.meta.json").read_text())
        expected = inhomogeneous_spectrum(
            presets.five_level_double_eit(5e6, 3e6),
            InhomogeneitySpec(fwhm=1e9, n_samples=101), np.zeros(1),
        ).metadata
        for key in ("model", "fwhm_hz", "n_samples", "truncation"):
            assert meta[key] == expected[key], key
        assert meta["config_hash"] == config_hash(json.loads(Path(cfg).read_text()))

    @pytest.mark.parametrize("b_values", [["x"], [float("nan")], [0.1, -0.2], 0.1, "0.1", True])
    def test_bad_b_values_is_config_error(self, tmp_path, capsys, b_values):
        cfg = self.map_config(tmp_path, b_values_mT=b_values)
        assert cli.main(["map", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: b_values_mT: "), err

    def test_missing_spin_block(self, tmp_path):
        model = tmp_path / "five.json"
        save_model(model, presets.five_level_double_eit(5e6, 3e6), units="MHz")
        cfg = write_json(
            tmp_path / "map.json",
            {
                "units": "MHz",
                "model": model.name,
                "delta_grid": {"start": -15.0, "stop": 15.0, "points": 31},
                "inhomogeneity": {"fwhm": 1000.0, "n_samples": 101},
            },
        )
        assert cli.main(["map", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestFit:
    def make_fixture(self, tmp_path, noise=0.002):
        grid = np.linspace(-2e7, 2e7, 81)
        inhom = InhomogeneitySpec(fwhm=2e9, n_samples=101)
        tr = inhomogeneous_spectrum(presets.three_level_lambda(), inhom, grid)
        rng = np.random.default_rng(7)
        sig = 2.0 * tr.absorbance + rng.normal(0, noise * tr.absorbance.max(), grid.size)
        import csv

        with open(tmp_path / "obs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delta_hz", "signal"])
            for d, s in zip(grid, sig):
                w.writerow([repr(float(d)), repr(float(s))])
        model = tmp_path / "model.json"
        save_model(model, presets.three_level_lambda(), units="MHz")
        return write_json(
            tmp_path / "fit.json",
            {
                "units": "MHz",
                "model": model.name,
                "inhomogeneity": {"fwhm": 2000.0, "n_samples": 101},
                "traces": [{"csv": "obs.csv"}],
                "parameters": [
                    {"name": "gamma_e", "initial": 7.0, "lower": 1.0, "upper": 30.0},
                    {"name": "gamma_g_star", "initial": 0.05, "lower": 0.001, "upper": 1.0},
                ],
            },
        )

    def test_singular_direction_is_written(self, tmp_path):
        cfg = self.make_fixture(tmp_path)
        out = tmp_path / "out"
        with duplicated_jacobian_column():
            assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["warnings"] == [
            "singular Jacobian direction involving ['gamma_e', 'gamma_g_star']"]
        assert np.isfinite(doc["covariance_hz2"]).all()
        assert np.isfinite(list(doc["uncertainties_hz"].values())).all()

    def test_round_trip_fixture(self, tmp_path):
        cfg = self.make_fixture(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"]
        assert doc["estimates_hz"]["gamma_e"] == pytest.approx(1e7, rel=0.05)
        assert doc["estimates_hz"]["gamma_g_star"] == pytest.approx(1e5, rel=0.05)
        # the optimizer's counts: one Jacobian per accepted step at most
        assert isinstance(doc["nfev"], int) and isinstance(doc["njev"], int)
        assert 1 <= doc["njev"] <= doc["nfev"]
        assert (out / "residuals.csv").exists()
        rows = (out / "residuals.csv").read_text().strip().splitlines()
        assert len(rows) == 82  # header + 81 points

    def test_degenerate_pair_reported(self, tmp_path):
        cfg_path = self.make_fixture(tmp_path)
        doc = json.loads(open(cfg_path).read())
        doc["parameters"] = [
            {"name": "gamma_e", "initial": 10.0, "lower": 1.0, "upper": 30.0},
            {"name": "gamma_e_deph", "initial": 1.0, "lower": 0.01, "upper": 30.0},
        ]
        cfg = write_json(tmp_path / "fit2.json", doc)
        out = tmp_path / "out2"
        code = cli.main(["fit", "--config", cfg, "--out", str(out)])
        assert code in (0, 4)
        result = json.loads((out / "fit.json").read_text())
        assert ["gamma_e", "gamma_e_deph"] in [
            list(p) for p in result["degenerate_pairs"]
        ]

    def test_one_objective_per_fit(self, tmp_path, monkeypatch):
        # fit.json's degenerate pairs come from the fit's own objective, so
        # the initial point's spectra are computed once
        built = []
        init = fitting._Objective.__init__
        monkeypatch.setattr(fitting._Objective, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        cfg = self.make_fixture(tmp_path)
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

    def test_malformed_trace_csv(self, tmp_path, capsys):
        cfg = self.make_fixture(tmp_path)
        (tmp_path / "obs.csv").write_text("delta_hz,signal\n0.0,1.0\n1.0\n")
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_header_only_trace_csv(self, tmp_path, capsys):
        cfg = self.make_fixture(tmp_path)
        (tmp_path / "obs.csv").write_text("delta_hz,signal\n")
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: traces[0].csv: " in err and "no data rows" in err
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        cfg = self.make_fixture(tmp_path)
        import eitsim.cli as climod

        real_fit = climod.fit

        def flagged(traces, problem):
            result = real_fit(traces, problem)
            result.converged = False
            return result

        monkeypatch.setattr(climod, "fit", flagged)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 4
        # the result is still written, flagged
        assert json.loads((out / "fit.json").read_text())["converged"] is False

    @pytest.mark.parametrize("extra, key", [
        ({"name": "gamma_e", "initial": 9.0, "lower": 1.0, "upper": 30.0}, "name"),
        ({"name": "omega_c", "initial": 0.0, "lower": 0.0, "upper": 30.0}, "initial"),
    ], ids=["duplicate", "zero_rabi"])
    def test_unfittable_parameter_is_config_error(self, tmp_path, capsys, extra, key):
        doc = json.loads(open(self.make_fixture(tmp_path)).read())
        doc["parameters"].append(extra)
        cfg = write_json(tmp_path / "fit4.json", doc)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: parameters[2].{key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_parameter_that_selects_nothing_is_config_error(self, tmp_path, capsys):
        # gamma_g on a model without ground relaxation would set nothing, and
        # the fit would report converged with only a singular-Jacobian warning.
        doc = json.loads(open(self.make_fixture(tmp_path)).read())
        spec = presets.three_level_lambda()
        excited_only = tuple(ch for ch in spec.decays if ch.source == "e2")
        save_model(tmp_path / doc["model"], dataclasses.replace(spec, decays=excited_only),
                   units="MHz")
        doc["parameters"].append({"name": "gamma_g", "initial": 0.01, "lower": 0.001,
                                  "upper": 1.0})
        cfg = write_json(tmp_path / "fit5.json", doc)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert ("config error: parameters[2].name: 'gamma_g' is not a parameter of the model"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_parameter_that_moves_nothing_is_config_error(self, tmp_path, capsys):
        # In a Lambda the rotating frame subtracts every level energy, so
        # energy:g2 moves nothing; the fit used to report it converged at its
        # initial value with only a singular-Jacobian warning.
        doc = json.loads(open(self.make_fixture(tmp_path)).read())
        doc["parameters"].append({"name": "energy:g2", "initial": 1000.0, "lower": 990.0,
                                  "upper": 1010.0})
        cfg = write_json(tmp_path / "fit6.json", doc)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert ("config error: parameters[2].name: 'energy:g2' is not a parameter of the model"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_other_key_error_is_engine_error(self, tmp_path, capsys, monkeypatch):
        def failing(traces, problem):
            raise KeyError("g9")

        monkeypatch.setattr(cli, "fit", failing)
        cfg = self.make_fixture(tmp_path)
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "engine error: 'g9'" in capsys.readouterr().err

    def test_no_traces_is_config_error(self, tmp_path, capsys):
        doc = json.loads(open(self.make_fixture(tmp_path)).read())
        doc["traces"] = []
        cfg = write_json(tmp_path / "fit7.json", doc)
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: fit config lists no traces" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["0.0", "2.5"])
    def test_flat_traces_are_config_error(self, tmp_path, capsys, level):
        # Such a fit used to exit 0, converged at its start values.
        cfg = self.make_fixture(tmp_path)
        rows = (tmp_path / "obs.csv").read_text().splitlines()
        flat = [rows[0]] + [row.split(",")[0] + "," + level for row in rows[1:]]
        (tmp_path / "obs.csv").write_text("\n".join(flat) + "\n")
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert ("config error: traces: every signal is constant"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_power_series_trace_without_power_is_config_error(self, tmp_path, capsys):
        # Such a trace used to be fitted at the reference power, silently.
        doc = json.loads(open(self.make_fixture(tmp_path)).read())
        doc["rabi_power_scaling"] = True
        cfg = write_json(tmp_path / "fit_power.json", doc)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: traces[0].power_mw: missing" in capsys.readouterr().err
        assert not out.exists()

    def test_no_parameters_is_config_error(self, tmp_path):
        cfg_path = self.make_fixture(tmp_path)
        doc = json.loads(open(cfg_path).read())
        doc["parameters"] = []
        cfg = write_json(tmp_path / "fit3.json", doc)
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


def reader_configs(tmp_path):
    """One valid config per command, and the files they name."""
    save_model(tmp_path / "lambda.json", presets.three_level_lambda(), units="MHz")
    save_model(tmp_path / "five.json", presets.five_level_double_eit(5e6, 3e6), units="MHz")
    (tmp_path / "bad.json").write_text("{\n")
    (tmp_path / "obs.csv").write_text("delta_hz,signal\n-1e7,1.0\n0.0,0.5\n1e7,1.0\n")
    (tmp_path / "nonfinite.csv").write_text("delta_hz,signal\n-1e7,1.0\n0.0,nan\n1e7,1.0\n")
    grid = {"start": -20.0, "stop": 20.0, "points": 41}
    inhom = {"fwhm": 2000.0, "n_samples": 3, "truncation": 4.0}
    return {
        "homogeneous": {
            "units": "MHz", "model": "lambda.json", "mode": "homogeneous",
            "control_detuning": 0.0, "delta_grid": grid, "output_prefix": "trace",
        },
        "inhomogeneous": {
            "units": "MHz", "model": "lambda.json", "mode": "inhomogeneous",
            "delta_grid": grid, "inhomogeneity": inhom, "output_prefix": "trace",
        },
        "map": {
            "units": "MHz", "model": "five.json", "delta_grid": grid, "inhomogeneity": inhom,
            "spin": {"ground": {"D": 20.0}, "excited": {"D": 10.0}}, "b_values_mT": [0.1],
        },
        "fit": {
            "units": "MHz", "model": "lambda.json", "inhomogeneity": inhom,
            "traces": [{"csv": "obs.csv", "power_mw": 1.0}], "power_ref_mw": 1.0,
            "parameters": [{"name": "gamma_e", "initial": 7.0, "lower": 1.0, "upper": 30.0}],
        },
        "check": {
            "units": "MHz", "omega_c": 180.0, "delta_i": 140e3, "gamma_g": 0.23,
            "calibration": {"omega_ref": 7.4, "power_ref_mw": 1.0},
        },
    }


def paths(doc, prefix=()):
    """Every key path of a config: blocks, their keys and list items."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def relabeled(model_doc, old, new):
    return json.loads(json.dumps(model_doc).replace(f'"{old}"', f'"{new}"'))


LAMBDA_DOC = spec_to_dict(presets.three_level_lambda(), "MHz")
FIVE_DOC = spec_to_dict(presets.five_level_double_eit(5e6, 3e6), "MHz")
COMMAND = {"homogeneous": "simulate", "inhomogeneous": "simulate"}
OVERFLOWS = [
    ("homogeneous", ("delta_grid", "start"), "delta_grid.start: "),
    ("homogeneous", ("delta_grid", "stop"), "delta_grid.stop: "),
    ("homogeneous", ("control_detuning",), "control_detuning: "),
    ("inhomogeneous", ("inhomogeneity", "fwhm"), "inhomogeneity.fwhm: "),
    ("fit", ("parameters", 0, "initial"), "parameters[0].initial: "),
    ("fit", ("parameters", 0, "lower"), "parameters[0].lower: "),
    ("fit", ("parameters", 0, "upper"), "parameters[0].upper: "),
    ("check", ("calibration", "omega_ref"), "calibration.omega_ref: "),
    ("check", ("omega_c",), "omega_c: "),
    ("check", ("delta_i",), "delta_i: "),
    ("check", ("gamma_g",), "gamma_g: "),
    ("homogeneous", ("model", "drives", 0, "couplings", 0, "rabi"), "model: probe coupling"),
    ("homogeneous", ("model", "decays", 0, "rate"), "model: decay"),
    ("homogeneous", ("model", "dephasings", 0, "rate"), "model: dephasing"),
]
BAD_VALUES = ["x", [1.0], {}, None, float("nan"), float("inf"), float("-inf"), -1, 0, True]
HUGE = 10**400  # a JSON integer that no float can hold


class TestConfigReader:
    def run(self, tmp_path, kind, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        command = COMMAND.get(kind, kind)
        argv = [command, "--config", cfg] + (["--out", str(tmp_path / "out")]
                                              if command != "check" else [])
        return cfg, cli.main(argv)

    @pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
    @pytest.mark.parametrize("kind", ["homogeneous", "inhomogeneous", "check", "map", "fit"])
    def test_any_bad_value_is_config_error_or_accepted(self, tmp_path, capsys, kind, value):
        # every key of a valid config, replaced in turn: the run either
        # accepts the value or rejects it as a config error, never exit 3
        base = reader_configs(tmp_path)[kind]
        for path in paths(base):
            _, code = self.run(tmp_path, kind, replaced(base, path, value))
            err = capsys.readouterr().err
            assert code in (0, 2), (path, code, err)
            assert code == 0 or err.startswith("config error: "), (path, err)

    @pytest.mark.parametrize("kind, path, value, prefix", [
        *[(kind, ("units",), "furlongs", "units") for kind in
          ("homogeneous", "map", "fit", "check")],
        ("homogeneous", (), [1, 2], "config file {cfg}: top level must be an object"),
        ("homogeneous", ("model",), 5, "model document must be an object, got int"),
        ("homogeneous", ("model",), None, "model document must be an object, got NoneType"),
        ("homogeneous", ("model",), replaced(LAMBDA_DOC, ("levels", 0, "energy"), "x"),
         "malformed model document: could not convert"),
        ("homogeneous", ("model",), "bad.json", "model file "),
        ("fit", ("traces", 0, "power_mw"), "x", "traces[0].power_mw: "),
        ("fit", ("traces", 0, "power_mw"), -1, "traces[0].power_mw: "),
        ("fit", ("power_ref_mw",), "x", "power_ref_mw: "),
        ("fit", ("traces", 0, "csv"), "missing.csv", "traces[0].csv: "),
        ("fit", ("parameters", 0, "name"), "nope", "parameters[0].name: "),
        ("fit", ("parameters", 0, "name"), "decay:e2->g9", "parameters[0].name: "),
        ("fit", ("parameters", 0, "name"), "decay:foo", "parameters[0].name: "),
        ("check", ("omega_c",), -1, "omega_c: "),
        ("check", ("delta_i",), -1, "delta_i: "),
        ("check", ("gamma_g",), -1, "gamma_g: "),
        ("map", ("model",), relabeled(FIVE_DOC, "g3", "g0"), "model: level 'g0'"),
        ("map", ("model",), relabeled(FIVE_DOC, "g3", "g4"), "model: level 'g4'"),
        ("map", ("spin", "ground", "g"), 1e308, "b_values_mT: the Zeeman term of spin.ground"),
        # booleans are JSON true or false: the strings "false" and "no" are truthy
        ("fit", ("rabi_power_scaling",), "false", "rabi_power_scaling: must be true or false"),
        ("fit", ("rabi_power_scaling",), 0, "rabi_power_scaling: must be true or false"),
        ("fit", ("parameters", 0, "per_trace"), "no",
         "parameters[0].per_trace: must be true or false"),
        ("fit", ("parameters", 0, "per_trace"), None,
         "parameters[0].per_trace: must be true or false"),
        # counts are whole numbers, never truncated
        ("homogeneous", ("delta_grid", "points"), 2.7, "delta_grid.points: must be a whole number"),
        ("map", ("delta_grid", "points"), 41.5, "delta_grid.points: must be a whole number"),
        ("inhomogeneous", ("inhomogeneity", "n_samples"), 801.5,
         "inhomogeneity.n_samples: must be a whole number"),
        ("fit", ("traces", 0, "csv"), "nonfinite.csv", "traces[0].csv: "),
        pytest.param("homogeneous", ("control_detuning",), HUGE, "control_detuning: ",
                     id="homogeneous-control_detuning-huge-int"),
        pytest.param("homogeneous", ("model",), replaced(LAMBDA_DOC, ("decays", 0, "rate"), HUGE),
                     "malformed model document: ", id="homogeneous-model-rate-huge-int"),
        pytest.param("map", ("spin", "ground", "D"), HUGE, "malformed spin block: ",
                     id="map-spin.ground.D-huge-int"),
        # counts have a ceiling: 1e15 points would not fit in any memory
        pytest.param("homogeneous", ("delta_grid", "points"), 1e15,
                     "delta_grid.points: must be at most 1000000, got 1000000000000000.0",
                     id="homogeneous-delta_grid.points-above-ceiling"),
        pytest.param("map", ("delta_grid", "points"), 10**6 + 1,
                     "delta_grid.points: must be at most 1000000, got 1000001",
                     id="map-delta_grid.points-above-ceiling"),
        pytest.param("inhomogeneous", ("inhomogeneity", "n_samples"), 10**6 + 1,
                     "inhomogeneity.n_samples: must be at most 1000000, got 1000001",
                     id="inhomogeneous-inhomogeneity.n_samples-above-ceiling"),
        # true is not a number, in a model document or a spin block either
        pytest.param("homogeneous", ("model",),
                     replaced(LAMBDA_DOC, ("drives", 1, "couplings", 0, "rabi"), True),
                     "malformed model document: true is not a number",
                     id="homogeneous-model-rabi-true"),
        pytest.param("map", ("spin", "ground", "D"), True,
                     "malformed spin block: true is not a number", id="map-spin.ground.D-true"),
    ])
    def test_malformed_input_names_its_key(self, tmp_path, capsys, kind, path, value, prefix):
        doc = replaced(reader_configs(tmp_path)[kind], path, value)
        cfg, code = self.run(tmp_path, kind, doc)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error: " + prefix.format(cfg=cfg)), err

    @pytest.mark.parametrize("kind, path, value", [
        ("homogeneous", ("delta_grid", "points"), 41.0),
        ("inhomogeneous", ("inhomogeneity", "n_samples"), 3.0),
    ])
    def test_whole_number_count_may_be_written_as_float(self, tmp_path, kind, path, value):
        base = reader_configs(tmp_path)[kind]
        assert self.run(tmp_path, kind, base)[1] == 0
        expected = (tmp_path / "out" / "trace.csv").read_bytes()
        assert self.run(tmp_path, kind, replaced(base, path, value))[1] == 0
        assert (tmp_path / "out" / "trace.csv").read_bytes() == expected

    def test_count_ceiling_is_inclusive(self):
        # Read without running: a million points is allowed, one more is not.
        assert cli._count({"points": 10**6}, "points", "delta_grid", low=1) == 10**6
        assert cli._count({"points": 1e6}, "points", "delta_grid", low=1) == 10**6
        with pytest.raises(cli.ConfigError, match="must be at most 1000000"):
            cli._count({"points": 1e6 + 1}, "points", "delta_grid", low=1)

    def test_options_that_nothing_sets_are_gone(self, tmp_path, capsys):
        removed = {
            evolve: {"rtol", "atol"},
            check_density_matrix: {"herm_tol", "trace_tol", "eig_floor"},
            local_minima: {"prominence_fraction"},
            default_delta_grid: {"n_points"},
            find_overlap_angle: {"first", "second", "angle_tol", "mismatch_tol"},
        }
        for func, names in removed.items():
            assert not names & set(inspect.signature(func).parameters), func.__name__
        assert "temperature" not in {f.name for f in dataclasses.fields(ObservedTrace)}
        # the reader ignores temperature_k, like any key it does not know
        doc = replaced(reader_configs(tmp_path)["fit"], ("traces", 0, "temperature_k"), "x")
        assert self.run(tmp_path, "fit", doc)[1] == 0, capsys.readouterr().err

    # a prefix with a directory part would write beside or outside --out
    @pytest.mark.parametrize("value", [[1.0], None, "", 5, True, {}, "sub/trace", "../x",
                                       "trace/", ".", "..", "x\0y"], ids=repr)
    @pytest.mark.parametrize("kind", ["homogeneous", "inhomogeneous", "map"])
    def test_bad_output_prefix_is_config_error(self, tmp_path, capsys, kind, value):
        doc = replaced(reader_configs(tmp_path)[kind], ("output_prefix",), value)
        _, code = self.run(tmp_path, kind, doc)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error: output_prefix: "), err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "x.csv").exists()

    def test_non_string_level_label_is_config_error(self, tmp_path, capsys):
        model = replaced(LAMBDA_DOC, ("levels", 0, "label"), ["g1"])
        doc = replaced(reader_configs(tmp_path)["homogeneous"], ("model",), model)
        _, code = self.run(tmp_path, "homogeneous", doc)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error: malformed model document: "), err
        assert "label" in err

    # Each value is finite as written but overflows once scaled from MHz to
    # Hz (1e305 MHz = 1e311 Hz); the check must see the scaled value.
    @pytest.mark.parametrize("kind, path, prefix", OVERFLOWS,
                             ids=[f"{k}-{'.'.join(map(str, p))}" for k, p, _ in OVERFLOWS])
    def test_value_that_overflows_once_scaled_is_config_error(self, tmp_path, capsys,
                                                              kind, path, prefix):
        doc = reader_configs(tmp_path)[kind]
        if path[0] == "model":
            doc = replaced(doc, ("model",), LAMBDA_DOC)
        sign = -1 if path[-1] == "start" else 1
        cfg, code = self.run(tmp_path, kind, replaced(doc, path, sign * 1e305))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error: " + prefix), err


# Run in a fresh interpreter: argv[1] holds reader_configs' files, argv[2] is --out.
# Prints the exit codes and, after each stage, the scipy modules loaded so far
# and whether the thread pool module is.
COLD_START = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def pool_loaded():
    return "concurrent.futures" in sys.modules

import eitsim
import eitsim.cli as cli
cli.build_parser()
loaded, pools, codes = {"import": scipy_modules()}, {"import": pool_loaded()}, []
cfg, out = sys.argv[1], ["--out", sys.argv[2]]
for stage, runs in (
    ("simulate, check", [["simulate", "--config", cfg + "/homogeneous.json", *out],
                         ["simulate", "--config", cfg + "/inhomogeneous.json", *out],
                         ["check", "--config", cfg + "/check.json"]]),
    ("map, presets", [["map", "--config", cfg + "/map.json", *out], ["presets"]]),
    ("fit", [["fit", "--config", cfg + "/fit.json", *out]]),
):
    codes += [cli.main(argv) for argv in runs]
    loaded[stage] = scipy_modules()
    pools[stage] = pool_loaded()
print(json.dumps({"codes": codes, "loaded": loaded, "pools": pools}))
"""


def cold_start_report(tmp_path):
    """The report COLD_START prints, run on reader_configs' files."""
    for kind, doc in reader_configs(tmp_path).items():
        write_json(tmp_path / f"{kind}.json", doc)
    src = str(Path(eitsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 6, done.stderr
    return report


class TestColdStart:
    def test_only_fit_loads_scipy(self, tmp_path):
        # importing scipy costs most of a CLI run's start-up; only fit needs it
        for kind, doc in reader_configs(tmp_path).items():
            write_json(tmp_path / f"{kind}.json", doc)
        src = str(Path(eitsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path),
                               str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["codes"] == [0] * 6, done.stderr
        loaded = report["loaded"]
        for stage in ("import", "simulate, check", "map, presets"):
            assert loaded[stage] == [], (stage, loaded[stage])
        assert "scipy.optimize" in loaded["fit"]

    def test_one_worker_loads_no_thread_pool(self, tmp_path):
        # concurrent.futures pulls in logging, queue and traceback; a sweep
        # imports it only to run its tiles on more than one worker
        pools = cold_start_report(tmp_path)["pools"]
        for stage in ("import", "simulate, check", "map, presets"):
            assert not pools[stage], stage
