"""Parameter mapping, least-squares fits, and identifiability diagnostics."""

import numpy as np
import pytest
from dataclasses import replace

from eitsim import presets
from eitsim.fitting import (
    FitProblem,
    FreeParameter,
    ObservedTrace,
    _Objective,
    apply_parameter,
    fit,
    identifiability_report,
)
from eitsim.spectra import InhomogeneitySpec, inhomogeneous_spectrum

INHOM = InhomogeneitySpec(fwhm=2e9, n_samples=101)
GRID = np.linspace(-2e7, 2e7, 81)


def generate(spec, grid=GRID, inhom=INHOM, scale=1.0, offset=0.0, noise=0.0, seed=0):
    tr = inhomogeneous_spectrum(spec, inhom, grid)
    sig = scale * tr.absorbance + offset
    if noise > 0:
        rng = np.random.default_rng(seed)
        sig = sig + rng.normal(0.0, noise * tr.absorbance.max(), grid.size)
    return ObservedTrace(delta_grid=grid, signal=sig)


class TestApplyParameter:
    def test_gamma_e_split_over_targets(self, lambda_spec):
        out = apply_parameter(lambda_spec, "gamma_e", 4e6)
        rates = {(c.source, c.target): c.rate for c in out.decays}
        assert rates[("e2", "g1")] == rates[("e2", "g2")] == 2e6

    def test_gamma_g_star_hits_ground_dephasings_only(self, lambda_spec):
        spec = presets.three_level_lambda(gamma_e_deph=5e6)
        out = apply_parameter(spec, "gamma_g_star", 7e4)
        by_level = {d.level: d.rate for d in out.dephasings}
        assert by_level["g2"] == 7e4
        assert by_level["e2"] == 5e6

    def test_gamma_e_deph_created_if_absent(self, lambda_spec):
        out = apply_parameter(lambda_spec, "gamma_e_deph", 2e6)
        assert {d.level: d.rate for d in out.dephasings}["e2"] == 2e6

    def test_omega_c_preserves_ratios(self):
        spec = presets.five_level_double_eit(delta_k=2e6, delta_54=5e6)
        halved = replace(
            spec,
            drives=(
                spec.probe,
                replace(
                    spec.control,
                    couplings=tuple(
                        replace(c, rabi=c.rabi * (0.5 if k == 0 else 1.0))
                        for k, c in enumerate(spec.control.couplings)
                    ),
                ),
            ),
        )
        out = apply_parameter(halved, "omega_c", 10e6)
        rabis = sorted(c.rabi for c in out.control.couplings)
        assert rabis[-1] == pytest.approx(10e6)
        assert rabis[0] == pytest.approx(5e6)

    def test_targeted_paths(self, lambda_spec):
        out = apply_parameter(lambda_spec, "energy:g2", 2e9)
        assert out.level("g2").energy == 2e9
        out = apply_parameter(lambda_spec, "decay:e2->g1", 9e6)
        assert {(c.source, c.target): c.rate for c in out.decays}[("e2", "g1")] == 9e6
        out = apply_parameter(lambda_spec, "dephasing:g1", 1e3)
        assert {d.level: d.rate for d in out.dephasings}["g1"] == 1e3

    def test_unknown_parameter(self, lambda_spec):
        with pytest.raises(KeyError):
            apply_parameter(lambda_spec, "gamma_q", 1.0)
        with pytest.raises(KeyError):
            apply_parameter(lambda_spec, "energy:nope", 1.0)
        # a targeted path must name something the model has
        for name in ("decay:e2->g9", "decay:foo", "dephasing:nope"):
            with pytest.raises(KeyError, match=name.split(":")[1]):
                apply_parameter(lambda_spec, name, 1.0)


class TestFreeParameter:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FreeParameter("gamma_e", 1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            FreeParameter("gamma_e", 1.0, 5.0, 2.0)
        with pytest.raises(ValueError):
            FreeParameter("gamma_e", 1.0, 0.0, float("inf"))


class TestFit:
    def problem(self, **kw):
        return FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", 7e6, 1e6, 3e7),
                FreeParameter("gamma_g_star", 5e4, 1e3, 1e6),
            ),
            **kw,
        )

    def test_noise_free_truth_start(self):
        trace = generate(presets.three_level_lambda())
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", presets.GAMMA_E, 1e6, 3e7),
                FreeParameter("gamma_g_star", presets.GAMMA_G_STAR, 1e3, 1e6),
            ),
        )
        result = fit([trace], problem)
        assert result.converged
        assert result.residual_norm < 1e-10
        assert result.estimates["gamma_e"] == pytest.approx(presets.GAMMA_E, rel=1e-6)

    def test_noisy_round_trip(self):
        trace = generate(
            presets.three_level_lambda(), scale=3.0, offset=0.01, noise=0.002, seed=1
        )
        result = fit([trace], self.problem())
        assert result.converged
        assert result.estimates["gamma_e"] == pytest.approx(presets.GAMMA_E, rel=0.05)
        assert result.estimates["gamma_g_star"] == pytest.approx(
            presets.GAMMA_G_STAR, rel=0.05
        )
        assert result.scales[0] == pytest.approx(3.0, rel=0.05)
        assert result.offsets[0] == pytest.approx(0.01, rel=0.05)
        # the returned curve is the scaled, offset model the residual measures
        assert len(result.curves) == 1
        assert np.linalg.norm(trace.signal - result.curves[0]) == pytest.approx(
            result.residual_norm, rel=1e-9
        )
        # 1-sigma claims should bracket within a few sigma
        for name, truth in (("gamma_e", presets.GAMMA_E),
                            ("gamma_g_star", presets.GAMMA_G_STAR)):
            pull = abs(result.estimates[name] - truth) / result.uncertainties[name]
            assert pull < 4.0

    def test_scale_offset_invariance(self):
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=3)
        r1 = fit([trace], self.problem())
        boosted = ObservedTrace(trace.delta_grid, 250.0 * trace.signal)
        r2 = fit([boosted], self.problem())
        for name in r1.estimates:
            assert r2.estimates[name] == pytest.approx(r1.estimates[name], rel=1e-6)
        assert r2.scales[0] == pytest.approx(250.0 * r1.scales[0], rel=1e-6)

    def test_bit_reproducible(self):
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=4)
        r1 = fit([trace], self.problem())
        r2 = fit([trace], self.problem())
        assert r1.estimates == r2.estimates
        assert np.array_equal(r1.covariance, r2.covariance)

    def test_covariance_shape_and_symmetry(self):
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=5)
        r = fit([trace], self.problem())
        assert r.covariance.shape == (2, 2)
        assert np.allclose(r.covariance, r.covariance.T)
        assert np.all(np.linalg.eigvalsh(r.covariance) >= -1e-20)
        for k, name in enumerate(r.parameter_names):
            assert r.uncertainties[name] == pytest.approx(
                np.sqrt(r.covariance[k, k])
            )

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            fit([], self.problem())

    def test_per_trace_monotone_dephasing(self):
        # temperature series: only the excited dephasing varies per trace
        truths = [0.0, 4e6, 12e6]
        traces = [
            generate(presets.three_level_lambda(gamma_e_deph=g), noise=0.001, seed=10 + k)
            for k, g in enumerate(truths)
        ]
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e_deph", 2e6, 1e3, 3e7, per_trace=True),
            ),
        )
        result = fit(traces, problem)
        est = [result.estimates[f"gamma_e_deph[{k}]"] for k in range(3)]
        assert [c.shape for c in result.curves] == [t.signal.shape for t in traces]
        assert est[0] < est[1] < est[2]
        assert est[1] == pytest.approx(4e6, rel=0.15)
        assert est[2] == pytest.approx(12e6, rel=0.15)

    def test_power_scaling_law(self):
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(FreeParameter("omega_c", 3e6, 1e5, 1e8),),
            rabi_power_scaling=True,
            power_ref=1e-3,
        )
        grid = np.linspace(-1e6, 1e6, 11)
        traces = [
            ObservedTrace(grid, np.zeros(11), power=1e-3),
            ObservedTrace(grid, np.zeros(11), power=4e-3),
        ]
        obj = _Objective(traces, problem)
        x = np.array([5e6])
        s0 = obj.spec_for_trace(0, x)
        s1 = obj.spec_for_trace(1, x)
        assert s0.control.couplings[0].rabi == pytest.approx(5e6)
        assert s1.control.couplings[0].rabi == pytest.approx(10e6)


class TestIdentifiability:
    def test_decay_vs_dephasing_degenerate(self):
        # a single EIT trace cannot separate excited decay from excited
        # dephasing: both only broaden the optical line
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", 1e7, 1e6, 3e7),
                FreeParameter("gamma_e_deph", 1e6, 1e4, 3e7),
            ),
        )
        report = identifiability_report(problem)
        assert ("gamma_e", "gamma_e_deph") in report.degenerate_pairs

    def test_single_parameter_no_flags(self):
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(FreeParameter("gamma_e", 1e7, 1e6, 3e7),),
        )
        report = identifiability_report(problem)
        assert report.degenerate_pairs == []
        assert report.sensitivities["gamma_e"] > 0.0

    def test_distinct_parameters_not_flagged(self):
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", 1e7, 1e6, 3e7),
                FreeParameter("gamma_g_star", 1e5, 1e3, 1e6),
            ),
        )
        report = identifiability_report(problem)
        assert report.degenerate_pairs == []
