"""Parameter mapping, least-squares fits, and identifiability diagnostics."""

import numpy as np
import pytest
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from eitsim import presets, spectra
from eitsim.fitting import (
    FitProblem,
    FreeParameter,
    ObservedTrace,
    _Objective,
    apply_parameter,
    fit,
    identifiability_report,
)
from eitsim.model import DriveField
from eitsim.spectra import (
    InhomogeneitySpec,
    _frame,
    _SweepKernel,
    homogeneous_spectrum,
    inhomogeneous_spectrum,
)
from test_spectra import random_model

INHOM = InhomogeneitySpec(fwhm=2e9, n_samples=101)
GRID = np.linspace(-2e7, 2e7, 81)


def generate(spec, grid=GRID, inhom=INHOM, scale=1.0, offset=0.0, noise=0.0, seed=0):
    tr = inhomogeneous_spectrum(spec, inhom, grid)
    sig = scale * tr.absorbance + offset
    if noise > 0:
        rng = np.random.default_rng(seed)
        sig = sig + rng.normal(0.0, noise * tr.absorbance.max(), grid.size)
    return ObservedTrace(delta_grid=grid, signal=sig)


FIVE = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
GROUNDS, EXCITED = set(FIVE.ground_labels()), set(FIVE.excited_labels())
# The spec field each name sets on FIVE and the entries of it that it selects.
SELECTED = {
    "gamma_e": ("decays", lambda ch: ch.source in EXCITED),
    "gamma_g": ("decays", lambda ch: ch.source in GROUNDS),
    "decay:e2->g1": ("decays", lambda ch: (ch.source, ch.target) == ("e2", "g1")),
    "gamma_g_star": ("dephasings", lambda dp: dp.level in GROUNDS),
    "gamma_e_deph": ("dephasings", lambda dp: dp.level in EXCITED),
    "dephasing:g1": ("dephasings", lambda dp: dp.level == "g1"),
    "dephasing:g2": ("dephasings", lambda dp: dp.level == "g2"),
    "omega_c": ("drives", lambda d: d.field_id == "control"),
    "omega_p": ("drives", lambda d: d.field_id == "probe"),
    "energy:g3": ("levels", lambda lv: lv.label == "g3"),
    "energy:e3": ("levels", lambda lv: lv.label == "e3"),
}


class TestApplyParameter:
    @pytest.mark.parametrize("name", SELECTED)
    def test_only_the_named_quantity_changes(self, name):
        field, selects = SELECTED[name]
        out = apply_parameter(FIVE, name, 2.5e6)
        for f in ("levels", "drives", "decays", "dephasings"):
            if f != field:
                assert getattr(out, f) == getattr(FIVE, f), f
        before, after = getattr(FIVE, field), getattr(out, field)
        # Existing entries keep their place; only selected ones may change.
        assert all(a == b for a, b in zip(after, before) if not selects(b))
        assert after != before
        # Only gamma_e_deph and dephasing:<label> add entries, and only ones
        # they select (g1 has no dephasing entry on FIVE; g2 has one).
        created = after[len(before):]
        assert all(selects(item) for item in created)
        assert bool(created) == (name in ("gamma_e_deph", "dephasing:g1"))

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

    def test_all_zero_field_takes_only_zero(self, lambda_spec):
        # No ratios to keep: zero stays zero, any other value is an error
        # naming the parameter (it used to divide by zero and give NaN).
        off = apply_parameter(lambda_spec, "omega_c", 0.0)
        assert [c.rabi for c in off.control.couplings] == [0.0]
        assert apply_parameter(off, "omega_c", 0.0) == off
        dark = apply_parameter(lambda_spec, "omega_p", 0.0)
        bare = replace(lambda_spec, drives=(lambda_spec.probe, DriveField("control", ())))
        assert apply_parameter(bare, "omega_c", 0.0) == bare
        for name, spec in (("omega_c", off), ("omega_p", dark), ("omega_c", bare)):
            with pytest.raises(ValueError, match=name):
                apply_parameter(spec, name, 1e6)

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

    @pytest.mark.parametrize("name", ["gamma_e", "gamma_g", "gamma_g_star"])
    def test_empty_selection_is_a_key_error(self, lambda_spec, name):
        # A shorthand that set nothing would give the fit a flat direction.
        bare = replace(lambda_spec, decays=(), dephasings=())
        with pytest.raises(KeyError, match=f"{name!r}: selects no"):
            apply_parameter(bare, name, 1e6)


class TestFreeParameter:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FreeParameter("gamma_e", 1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            FreeParameter("gamma_e", 1.0, 5.0, 2.0)
        with pytest.raises(ValueError):
            FreeParameter("gamma_e", 1.0, 0.0, float("inf"))


class TestObservedTrace:
    @pytest.mark.parametrize("field, value", [
        ("delta_grid", [0.0, np.nan, 2.0]), ("delta_grid", [0.0, 1.0, np.inf]),
        ("signal", [1.0, np.nan, 1.0]), ("sigma", [1.0, 0.0, 1.0]),
        ("sigma", [1.0, -1.0, 1.0]), ("sigma", [1.0, np.nan, 1.0]),
        ("power", 0.0), ("power", -1e-3), ("power", np.nan), ("power", np.inf),
    ])
    def test_invalid_field_rejected(self, field, value):
        # These reached fit() as a ZeroDivisionError, a non-Hermitian
        # generator, a LAPACK SVD failure or scipy's non-finite residuals.
        trace = dict(delta_grid=[0.0, 1.0, 2.0], signal=[1.0, 2.0, 1.0], sigma=None, power=1e-3)
        trace[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ObservedTrace(**trace)

    @pytest.mark.parametrize("field, value, message", [
        ("delta_grid", [0.0, 2.0, 1.0], "delta_grid must be strictly increasing"),
        ("delta_grid", [0.0, 1.0, 1.0], "delta_grid must be strictly increasing"),
        ("signal", [1.0, 2.0], "signal length mismatch"),
        ("sigma", [1.0, 1.0, 1.0, 1.0], "sigma length mismatch"),
    ])
    def test_inconsistent_grid_rejected(self, field, value, message):
        trace = dict(delta_grid=[0.0, 1.0, 2.0], signal=[1.0, 2.0, 1.0], sigma=None)
        trace[field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            ObservedTrace(**trace)


def duplicated_jacobian_column():
    """A patch under which fit's optimizer returns a Jacobian whose second
    column repeats its first: a singular direction of the first two slots."""
    from scipy.optimize import least_squares

    def optimizer(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        res.jac[:, 1] = res.jac[:, 0]
        return res

    return mock.patch("eitsim.fitting.least_squares", optimizer)


def rescaled_jacobian(eps, ftol=None):
    """A patch under which fit's optimizer sees the Jacobian times (1 +
    eps), a change at the level of rounding, and stops by ftol if given."""
    from scipy.optimize import least_squares

    def optimizer(fun, x0, jac, **kwargs):
        if ftol is not None:
            kwargs["ftol"] = ftol
        return least_squares(fun, x0, jac=lambda x: jac(x) * (1.0 + eps), **kwargs)

    return mock.patch("eitsim.fitting.least_squares", optimizer)


def power_series(n_samples):
    """Four Lambda traces at 0.25, 1, 4 and 16 mW on 41 points over +-20
    MHz, from a finer ensemble of n_samples shifts than the fit's 101, with
    gamma_e = 10 MHz, gamma_g* = 100 kHz and Omega_c = 3 MHz at 1 mW; and the
    problem that fits all three, the control by sqrt(P), from 10-25 % off."""
    grid = np.linspace(-2e7, 2e7, 41)
    truth = presets.three_level_lambda()
    for name, value in (("gamma_e", 1e7), ("gamma_g_star", 1e5)):
        truth = apply_parameter(truth, name, value)
    traces = []
    for power_mw in (0.25, 1.0, 4.0, 16.0):
        spec = apply_parameter(truth, "omega_c", 3e6 * np.sqrt(power_mw))
        absorbance = inhomogeneous_spectrum(
            spec, InhomogeneitySpec(100e9, n_samples=n_samples), grid).absorbance
        traces.append(ObservedTrace(grid, absorbance, power=power_mw * 1e-3))
    problem = FitProblem(
        template=presets.three_level_lambda(),
        inhom=InhomogeneitySpec(100e9, n_samples=101),
        parameters=(
            FreeParameter("gamma_e", 8e6, 5e5, 5e7),
            FreeParameter("gamma_g_star", 7.5e4, 1e3, 2e6),
            FreeParameter("omega_c", 2.7e6, 1e5, 5e7),
        ),
        rabi_power_scaling=True,
    )
    return traces, problem


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
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", presets.GAMMA_E, 1e6, 3e7),
                FreeParameter("gamma_g_star", presets.GAMMA_G_STAR, 1e3, 1e6),
            ),
        )
        for offset in (0.0, 2.5):
            result = fit([generate(presets.three_level_lambda(), offset=offset)], problem)
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
        assert 1 <= result.njev <= result.nfev
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

    def test_covariance_counts_the_profiled_nuisances(self):
        # The covariance is (J^T J)^-1 |r|^2 / (m - n - 2T): m points, n
        # parameters and T traces, each with a profiled scale and offset.
        # With m - n = 79 here, the 2 nuisances widen each uncertainty by
        # sqrt(79 / 77), 1.3 %.  With m <= n + 2T the residual says nothing
        # of the noise, and nothing is divided by that count.
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=6)
        problem = self.problem()
        result = fit([trace], problem)
        x = np.array([result.estimates[name] for name in result.parameter_names])
        jac = _Objective([trace], problem).jacobian(x)
        r = trace.signal - result.curves[0]
        m, n = len(r), len(x)
        assert (m, n) == (81, 2)
        inverse = np.linalg.inv(jac.T @ jac)
        expected = inverse * (r @ r) / (m - n - 2)
        assert np.abs(result.covariance - expected).max() <= 1e-6 * np.abs(expected).max()
        for points in ([10, 30, 50, 70], [10, 40, 70]):  # m - n - 2T = 0, -1
            few = ObservedTrace(trace.delta_grid[points], trace.signal[points])
            assert np.isfinite(list(fit([few], problem).uncertainties.values())).all()

    def test_scale_offset_invariance(self):
        # The profiled scale and offset absorb both, and so must the residual
        # scaling: one that counted the offset stopped the fit early at 2.5
        # (gamma_e off by 14 %) and at its start values at 100, converged.
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=3)
        r1 = fit([trace], self.problem())
        boosted = ObservedTrace(trace.delta_grid, 250.0 * trace.signal)
        r2 = fit([boosted], self.problem())
        for name in r1.estimates:
            assert r2.estimates[name] == pytest.approx(r1.estimates[name], rel=1e-6)
        assert r2.scales[0] == pytest.approx(250.0 * r1.scales[0], rel=1e-6)
        for offset in (0.1, 2.5, 100.0):
            shifted = fit([ObservedTrace(trace.delta_grid, trace.signal + offset)], self.problem())
            assert shifted.converged
            for name in r1.estimates:
                assert shifted.estimates[name] == pytest.approx(r1.estimates[name], rel=1e-6)
            assert shifted.offsets[0] == pytest.approx(r1.offsets[0] + offset, rel=1e-6)

    def test_bit_reproducible(self):
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=4)
        r1 = fit([trace], self.problem())
        r2 = fit([trace], self.problem())
        assert r1.estimates == r2.estimates
        assert np.array_equal(r1.covariance, r2.covariance)

    def test_one_frame_per_fit(self):
        # Every kernel of a fit shares the level structure, so the real-basis
        # frame is made once and read from the cache after that.
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=4)
        _frame.cache_clear()
        fit([trace], self.problem())
        info = _frame.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits > 0

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

    def test_singular_direction_is_reported(self):
        # The warning names both parameters of the duplicated direction, and
        # the pseudo-inverse keeps the covariance finite.
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=5)
        with duplicated_jacobian_column():
            r = fit([trace], self.problem())
        assert r.warnings == ["singular Jacobian direction involving ['gamma_e', 'gamma_g_star']"]
        assert np.isfinite(r.covariance).all()
        assert np.isfinite(list(r.uncertainties.values())).all()

    def test_duplicate_parameter_names_rejected(self):
        # Two slots of one name used to fit with a 2x2 covariance, a one-key
        # estimates dict and a spurious singular-Jacobian warning.
        twice = (FreeParameter("gamma_e", 1e7, 1e6, 3e7), FreeParameter("gamma_e", 9e6, 1e6, 3e7))
        with pytest.raises(ValueError, match="'gamma_e' is listed twice"):
            FitProblem(presets.three_level_lambda(), INHOM, twice)

    @pytest.mark.parametrize("name", ["omega_c", "omega_p"])
    def test_zero_rabi_start_rejected(self, name):
        # The absorbance is even in a Rabi frequency, so its gradient at 0 is
        # exactly 0 and the optimizer ran to max_nfev without moving.
        problem = FitProblem(presets.three_level_lambda(), INHOM,
                             (FreeParameter(name, 0.0, 0.0, 1e7),))
        with pytest.raises(ValueError, match=f"{name} cannot start at 0"):
            fit([generate(presets.three_level_lambda())], problem)

    @pytest.mark.parametrize("power_ref", [0.0, -1e-3, np.nan, np.inf])
    def test_invalid_power_ref_rejected(self, power_ref):
        # power_ref 0 raised ZeroDivisionError in the fit, and a negative
        # one a non-Hermitian generator.
        with pytest.raises(ValueError, match="^power_ref must be finite and > 0"):
            self.problem(rabi_power_scaling=True, power_ref=power_ref)

    def test_empty_traces_rejected(self):
        # The report used to raise a KeyError that blamed the first parameter.
        problem = self.problem()
        for call in (lambda: fit([], problem), lambda: identifiability_report(problem, [])):
            with pytest.raises(ValueError, match="at least one trace required"):
                call()

    def test_no_parameters_rejected(self):
        # fit and the report used to fail in numpy, reshaping an empty array.
        with pytest.raises(ValueError, match="at least one free parameter required"):
            FitProblem(presets.three_level_lambda(), INHOM, ())

    def test_one_projection_per_trace_and_point(self):
        # Each trace's model and projection are formed once per point: the
        # residual scale reads the data alone, and the residual, the Jacobian,
        # the curves and the report read one cached record.
        traces = [generate(presets.three_level_lambda(), scale=s, offset=0.01, noise=0.002,
                           seed=s) for s in (1, 2)]
        problem = self.problem()
        with mock.patch.object(np.linalg, "pinv", wraps=np.linalg.pinv) as pinv, \
                mock.patch.object(_Objective, "model", autospec=True,
                                  side_effect=_Objective.model) as model:
            result = fit(traces, problem)
        assert 0 < pinv.call_count == model.call_count <= len(traces) * result.nfev
        x = np.array([result.estimates[name] for name in result.parameter_names])
        obj = _Objective(traces, problem)
        for t, curve in enumerate(result.curves):
            m = obj.model(t, x)[0]
            assert np.array_equal(curve, result.scales[t] * m + result.offsets[t])

    def test_one_factorisation_per_point(self):
        # The benchmark's shape, 4 traces x 41 points reduced over 301 shifts:
        # each point's one pass factors the lines of every trace in one
        # _line_factors call, where each trace used to make its own.
        traces, problem = power_series(801)
        shifts, _ = _Objective(traces, problem).shift_grid
        assert _SweepKernel(problem.template).reduces(len(shifts))
        factors, lines = _SweepKernel._line_factors, []

        def counted(self, a, *args):
            lines.append(len(a))
            return factors(self, a, *args)

        with mock.patch.object(_SweepKernel, "_line_factors", counted):
            result = fit(traces, problem)
        assert result.converged
        assert lines == [4 * 41] * result.nfev

    @pytest.mark.parametrize("level", [0.0, 2.5])
    def test_flat_series_rejected(self, level):
        # The profiled offset fits a constant exactly, so the fit used to stop
        # at its start values after one evaluation, converged, with zero
        # uncertainties.  One varying trace is enough.
        trace = generate(presets.three_level_lambda(), noise=0.002, seed=6)
        flat = ObservedTrace(trace.delta_grid, np.full(trace.delta_grid.size, level))
        with mock.patch("eitsim.fitting.least_squares") as optimizer:
            with pytest.raises(ValueError, match="every signal is constant"):
                fit([flat, flat], self.problem())
        optimizer.assert_not_called()
        paired = fit([trace, flat], self.problem())
        assert paired.converged
        assert paired.scales[1] == pytest.approx(0.0, abs=1e-9)
        assert paired.offsets[1] == pytest.approx(level, abs=1e-12)

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


class TestStoppingRule:
    @pytest.mark.parametrize("n_samples", [801, 2001, 4001])
    def test_stopping_point_does_not_depend_on_rounding(self, n_samples):
        # With ftol = 1e-12 the last steps gained about 1e-15 of the cost,
        # and 1e-15 of the Jacobian turned 8/8 evaluations into 10/7 on the
        # series at 801 shifts and 10/7 into 8/8 at 4001.
        traces, problem = power_series(n_samples)
        counts = set()
        for eps in (0.0, 1e-15, -1e-15, 3e-15, -3e-15):
            with rescaled_jacobian(eps):
                result = fit(traces, problem)
            assert result.converged
            counts.add((result.nfev, result.njev))
        assert len(counts) == 1, counts

    def test_earlier_stop_costs_under_a_thousandth_sigma(self):
        noisy = generate(presets.three_level_lambda(), scale=3.0, offset=0.01, noise=0.002,
                         seed=1)
        for traces, problem in (([noisy], TestFit().problem()), power_series(2001)):
            result = fit(traces, problem)
            with rescaled_jacobian(0.0, ftol=1e-12):
                tight = fit(traces, problem)
            for name, value in result.estimates.items():
                gap = abs(value - tight.estimates[name])
                assert gap <= 1e-3 * result.uncertainties[name], name


def test_zero_control_under_power_scaling():
    # omega_c at its lower bound 0 with sqrt(P) scaling evaluates as the
    # zero-control spectrum (it used to raise on a NaN Rabi frequency).
    problem = FitProblem(presets.three_level_lambda(), INHOM,
                         (FreeParameter("omega_c", 0.0, 0.0, 1e7),), rabi_power_scaling=True)
    obj = _Objective([ObservedTrace(GRID, np.zeros(GRID.size), power=4e-3)], problem)
    value, grad = obj.model(0, obj.x0)
    off = apply_parameter(presets.three_level_lambda(), "omega_c", 0.0)
    assert np.array_equal(value, inhomogeneous_spectrum(
        off, INHOM, GRID, shift_grid=obj.shift_grid).absorbance)
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))


def test_power_scaling_needs_a_control_field():
    # A fit of such a problem used to die inside spec_for_trace with
    # AttributeError: 'NoneType' object has no attribute 'couplings'.
    spec = presets.three_level_lambda()
    probe_only = replace(spec, drives=tuple(d for d in spec.drives if d.field_id != "control"))
    parameters = (FreeParameter("gamma_e", 7e6, 1e6, 3e7),)
    with pytest.raises(ValueError, match="no 'control' field"):
        FitProblem(probe_only, INHOM, parameters, rabi_power_scaling=True)
    assert not FitProblem(probe_only, INHOM, parameters).rabi_power_scaling


def test_power_series_refuses_a_trace_without_a_power():
    # Under sqrt(P) scaling a trace without a power was fitted at the
    # reference power, silently: refused before any optimizer step, naming
    # the trace.
    problem = FitProblem(presets.three_level_lambda(), INHOM,
                         (FreeParameter("gamma_e", 7e6, 1e6, 3e7),), rabi_power_scaling=True)
    trace = generate(presets.three_level_lambda(), grid=GRID[::8])
    traces = [replace(trace, power=16e-3), trace]
    with mock.patch("eitsim.fitting.least_squares") as optimizer:
        with pytest.raises(ValueError, match=r"traces\[1\]: no power"):
            fit(traces, problem)
    optimizer.assert_not_called()


@pytest.mark.parametrize("template, name", [
    (presets.three_level_lambda(), "energy:g1"),
    (presets.three_level_lambda(), "energy:g2"),
    (presets.three_level_lambda(), "energy:e2"),
    (FIVE, "energy:g1"),
], ids=["lambda_g1", "lambda_g2", "lambda_e2", "five_g1"])
def test_parameter_that_moves_nothing_is_refused(template, name):
    # The rotating frame subtracts these levels' energies, so the generator
    # never sees them: refused before any optimizer step, as a name that
    # selects nothing is.
    energy = template.level(name.partition(":")[2]).energy
    problem = FitProblem(template, INHOM, (
        FreeParameter("gamma_e", 1e7, 1e6, 3e7),
        FreeParameter(name, energy, energy - 1e6, energy + 1e6),
    ))
    traces = [ObservedTrace(GRID[::8], np.zeros(GRID[::8].size))]
    with mock.patch("eitsim.fitting.least_squares") as optimizer:
        with pytest.raises(KeyError, match=f"fit parameter '{name}': moves nothing"):
            fit(traces, problem)
        with pytest.raises(KeyError, match=f"fit parameter '{name}': moves nothing"):
            identifiability_report(problem, traces)
    optimizer.assert_not_called()


class TestIdentifiability:
    def test_fit_reports_the_report_pairs(self):
        # fit() takes the pairs from its own evaluation at the initial point
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", 1e7, 1e6, 3e7),
                FreeParameter("gamma_e_deph", 1e6, 1e4, 3e7),
            ),
        )
        traces = [generate(presets.three_level_lambda())]
        report = identifiability_report(problem, traces)
        assert report.degenerate_pairs == [("gamma_e", "gamma_e_deph")]
        assert fit(traces, problem).degenerate_pairs == report.degenerate_pairs

    def test_report_and_jacobian_share_one_projection(self):
        # At the truth of a noise-free trace the residual is 0, so each column
        # of the fit's Jacobian is the scale times the projected derivative
        # whose norm the report gives.
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("gamma_e", presets.GAMMA_E, 1e6, 3e7),
                FreeParameter("gamma_g_star", presets.GAMMA_G_STAR, 1e3, 1e6),
                FreeParameter("omega_c", presets.OMEGA_C, 1e5, 5e7),
            ),
        )
        trace = generate(presets.three_level_lambda(), scale=3.0, offset=0.01)
        obj = _Objective([trace], problem)
        columns = np.linalg.norm(obj.jacobian(obj.x0), axis=0) / 3.0
        report = identifiability_report(problem, [trace])
        sensitivities = [report.sensitivities[name] for name in report.parameter_names]
        assert np.abs(columns / sensitivities - 1.0).max() <= 1e-9

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

    def test_probe_rabi_degenerate_with_scale(self):
        # In the weak-probe limit the absorbance is linear in omega_p: its raw
        # derivative is the largest, but the profiled scale absorbs it.
        problem = FitProblem(
            template=presets.three_level_lambda(),
            inhom=INHOM,
            parameters=(
                FreeParameter("omega_p", presets.OMEGA_P, 1e3, 1e5),
                FreeParameter("gamma_e", 1e7, 1e6, 3e7),
            ),
            rabi_power_scaling=True,
        )
        traces = [replace(generate(presets.three_level_lambda()), power=1e-3)]
        report = identifiability_report(problem, traces)
        assert report.degenerate_pairs == [("omega_p", "scale")]

    def test_default_grid_under_power_scaling(self):
        # The report's own trace on the default grid is at the reference
        # power, so the sqrt(P) scaling leaves the control as the template
        # has it: the same report as without the scaling.
        parameters = (FreeParameter("gamma_e", 1e7, 1e6, 3e7),
                      FreeParameter("omega_c", presets.OMEGA_C, 1e5, 5e7))
        plain = identifiability_report(
            FitProblem(presets.three_level_lambda(), INHOM, parameters))
        scaled = identifiability_report(FitProblem(
            presets.three_level_lambda(), INHOM, parameters, rabi_power_scaling=True))
        assert scaled.sensitivities == plain.sensitivities
        assert np.array_equal(scaled.correlations, plain.correlations)

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


def central_gradient(obj, t, x):
    """Richardson-extrapolated central differences of trace t's model over
    its slots, steps of 1e-3 and 5e-4 of each value."""

    def diff(k, h):
        hi, lo = x.copy(), x.copy()
        hi[k] += h
        lo[k] -= h
        return (obj.model(t, hi)[0] - obj.model(t, lo)[0]) / (2.0 * h)

    rows = []
    for k in obj.slots[t]:
        h = 1e-3 * abs(x[k])
        rows.append((4.0 * diff(k, h / 2) - diff(k, h)) / 3.0)
    return np.array(rows)


def assert_gradient_matches(obj, x, per_slot=True, tol=1e-6):
    """The gradient agrees with central differences on every trace, to tol of
    each slot's own max |dA| if per_slot, else to tol of the largest
    x_k |dA/dx_k| (a random model may have a parameter the spectrum does not
    see); the value is inhomogeneous_spectrum's."""
    for t, trace in enumerate(obj.traces):
        value, grad = obj.model(t, x)
        reference = inhomogeneous_spectrum(
            obj.spec_for_trace(t, x), obj.problem.inhom, trace.delta_grid,
            shift_grid=obj.shift_grid).absorbance
        assert np.array_equal(value, reference)
        cd = central_gradient(obj, t, x)
        if per_slot:
            for k in range(len(cd)):
                assert np.abs(cd[k]).max() > 0.0, (t, k)
                assert np.abs(grad[k] - cd[k]).max() <= tol * np.abs(cd[k]).max(), (t, k)
        else:
            scale = np.abs(x[obj.slots[t]])[:, None]
            assert (np.abs(grad - cd) * scale).max() <= tol * (np.abs(cd) * scale).max()


LAMBDA_PARAMETERS = (
    FreeParameter("gamma_e", 1.1 * presets.GAMMA_E, 1e6, 3e7),
    FreeParameter("gamma_g_star", 0.8 * presets.GAMMA_G_STAR, 1e3, 1e6),
    FreeParameter("omega_c", 0.9 * presets.OMEGA_C, 1e5, 5e7),
)


class TestGradient:
    """The model gradient the fit passes as jac=, against central
    differences of the model itself, on each sweep route: rows per shift
    with the reduction ruled out, and the reduction (also of a single
    shift)."""

    @pytest.fixture(params=["per_shift", "reduced"])
    def route(self, request, monkeypatch):
        monkeypatch.setattr(_SweepKernel, "reduces", lambda self, nd: request.param == "reduced")
        return request.param

    @pytest.mark.parametrize("inhom", [INHOM, InhomogeneitySpec(fwhm=0.0, n_samples=1)],
                             ids=["ensemble", "fwhm0"])
    def test_lambda(self, route, inhom):
        problem = FitProblem(presets.three_level_lambda(), inhom, LAMBDA_PARAMETERS)
        obj = _Objective([ObservedTrace(GRID, np.zeros(GRID.size))], problem)
        assert_gradient_matches(obj, obj.x0)

    def test_criterion_7_five_level(self, route):
        # Criterion 7's model, ensemble and grid, one trace at 4 mW.
        inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM, n_samples=201,
                                  dense_halfwidth=30.0, dense_step=1.0)
        grid = np.linspace(-1.5e7, 2.0e7, 141)
        problem = FitProblem(
            template=presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6),
            inhom=inhom,
            parameters=(
                FreeParameter("gamma_e", 3.0e6, 0.5e6, 2e7),
                FreeParameter("gamma_g_star", 0.3e6, 1e3, 2e6),
                FreeParameter("omega_c", 8.0e6, 1e6, 5e7),
            ),
            rabi_power_scaling=True,
        )
        obj = _Objective([ObservedTrace(grid, np.zeros(grid.size), power=4e-3)], problem)
        assert_gradient_matches(obj, obj.x0)

    def test_per_trace_scaling_and_targeted_names(self, route):
        # A per_trace rate, the sqrt(P) Rabi scaling on two powers, and the
        # energy:, decay: and dephasing: paths (the last one created), on
        # the five-level model: in a Lambda every level energy is a frame
        # reference, which the generator does not see.
        grid = np.linspace(-1.5e7, 2e7, 21)
        problem = FitProblem(
            template=presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6),
            inhom=InhomogeneitySpec(fwhm=2e9, n_samples=31),
            parameters=(
                FreeParameter("gamma_e_deph", 2e6, 1e3, 3e7, per_trace=True),
                FreeParameter("omega_c", 6e6, 1e5, 5e7),
                FreeParameter("energy:g3", -8e6, -2e7, 0.0),
                FreeParameter("energy:e3", 3e6, 0.0, 1e7),
                FreeParameter("decay:e2->g1", 1e6, 1e5, 3e7),
                FreeParameter("dephasing:g1", 3e4, 1e2, 1e6),
            ),
            rabi_power_scaling=True,
        )
        traces = [ObservedTrace(grid, np.zeros(grid.size), power=p) for p in (1e-3, 4e-3)]
        obj = _Objective(traces, problem)
        x = obj.x0 * np.linspace(0.97, 1.03, len(obj.x0))
        assert_gradient_matches(obj, x)

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), route=st.sampled_from(["per_shift", "reduced"]))
    def test_random_models(self, seed, route):
        spec = random_model(np.random.default_rng(seed))
        decay = spec.decays[0]
        names = ["gamma_e", f"decay:{decay.source}->{decay.target}", "dephasing:e0"]
        names += ["omega_c"] if spec.control.couplings else ["omega_p"]
        values = np.random.default_rng(seed).uniform(1e6, 1e7, len(names))
        problem = FitProblem(
            spec, InhomogeneitySpec(fwhm=1e9, n_samples=9, auto_dense=False),
            tuple(FreeParameter(n, v, 1e2, 1e8) for n, v in zip(names, values)))
        obj = _Objective([ObservedTrace(np.linspace(-1e8, 1e8, 7), np.zeros(7))], problem)
        with mock.patch.object(_SweepKernel, "reduces", lambda self, nd: route == "reduced"):
            assert_gradient_matches(obj, obj.x0, per_slot=False)

    def test_residual_jacobian(self):
        # The profiled residuals' Jacobian against central differences of
        # residuals(): two noisy traces with sigma, scale and offset, away
        # from the optimum, so every variable-projection term counts.
        spec = presets.three_level_lambda()
        traces = []
        for k, power in enumerate((1e-3, 4e-3)):
            clean = generate(apply_parameter(spec, "omega_c", presets.OMEGA_C * 2**k),
                             scale=3.0 - k, offset=0.01, noise=0.01, seed=k)
            sigma = np.linspace(1.0, 2.0, GRID.size) * 1e-3
            traces.append(ObservedTrace(GRID, clean.signal, sigma, power))
        problem = FitProblem(spec, INHOM, LAMBDA_PARAMETERS, rabi_power_scaling=True)
        obj = _Objective(traces, problem)
        x = obj.x0 * 1.2
        jac = obj.jacobian(x)
        cols = []
        for k in range(len(x)):
            def diff(h):
                hi, lo = x.copy(), x.copy()
                hi[k] += h
                lo[k] -= h
                return (obj.residuals(hi) - obj.residuals(lo)) / (2.0 * h)
            h = 1e-3 * x[k]
            cols.append((4.0 * diff(h / 2) - diff(h)) / 3.0)
        cd = np.array(cols).T
        assert (np.abs(jac - cd).max(axis=0) <= 1e-6 * np.abs(cd).max(axis=0)).all()

    def test_worker_count_bit_identical(self):
        # Tiles of 12 points: 31 shifts x 9 points span 31 tiles of one shift
        # as rows per shift (the reduction ruled out), so the gradient is a
        # sum over shift tiles; reduced, 3 tiles of 27 shifts and 3 of 4,
        # by 4, 4 and 1 points (12 m / |Q| = 27 shifts to a tile, _GROUPS = 4
        # lines).
        inhom = InhomogeneitySpec(fwhm=2e9, n_samples=31, auto_dense=False)
        grid = np.linspace(-2e7, 2e7, 9)
        grads = {}
        routes = ("per_shift", "reduced")
        for route in routes:
            for workers in (1, 3, 8):
                problem = FitProblem(presets.three_level_lambda(), inhom, LAMBDA_PARAMETERS,
                                     workers=workers)
                obj = _Objective([ObservedTrace(grid, np.zeros(grid.size))], problem)
                with mock.patch.object(spectra, "_POINTS", 12), mock.patch.object(
                        _SweepKernel, "reduces", lambda self, nd: route == "reduced"):
                    grads[route, workers] = obj.model(0, obj.x0)
        for route in routes:
            value, grad = grads[route, 1]
            for workers in (3, 8):
                assert np.array_equal(grads[route, workers][0], value)
                assert np.array_equal(grads[route, workers][1], grad)
            assert np.abs(grad - grads["per_shift", 1][1]).max() <= (
                1e-9 * np.abs(grads["per_shift", 1][1]).max())


class TestAffinity:
    # Every name apply_parameter supports, on the five-level model (g3 and e3
    # are the levels whose energies are not frame references); omega_c also
    # through the sqrt(P) scaling of a 4 mW trace, and gamma_e_deph and
    # dephasing:g1 where they are created.
    @pytest.mark.parametrize("name,scaled", [
        ("gamma_e", False), ("gamma_g", False), ("gamma_g_star", False),
        ("gamma_e_deph", False), ("omega_c", False), ("omega_c", True), ("omega_p", False),
        ("energy:g3", False), ("energy:e3", False), ("decay:e2->g1", False),
        ("dephasing:g2", False), ("dephasing:g1", False),
    ])
    def test_generator_is_affine(self, name, scaled):
        template = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        problem = FitProblem(template, INHOM,
                             (FreeParameter(name, 1.0, 0.0, 1e10),),
                             rabi_power_scaling=scaled)
        obj = _Objective([ObservedTrace(GRID, np.zeros(GRID.size), power=4e-3)], problem)
        a0 = [_SweepKernel(obj.spec_for_trace(0, np.array([v]))).a0
              for v in (3e6, 7e6, 2.3e7)]
        assert np.abs(a0[2] - a0[0]).max() > 0.0
        predicted = (2.3e7 - 3e6) / (7e6 - 3e6) * (a0[1] - a0[0])
        assert np.abs(a0[2] - a0[0] - predicted).max() <= 1e-14 * np.abs(a0[2]).max()


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True, None])
def test_workers_must_be_a_whole_number(lambda_spec, workers):
    grid = np.linspace(-1e7, 1e7, 5)
    calls = [
        lambda: homogeneous_spectrum(lambda_spec, 0.0, grid, workers=workers),
        lambda: inhomogeneous_spectrum(lambda_spec, INHOM, grid, workers=workers),
        lambda: FitProblem(lambda_spec, INHOM, LAMBDA_PARAMETERS, workers=workers),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="workers"):
            call()
    assert FitProblem(lambda_spec, INHOM, LAMBDA_PARAMETERS, workers=np.int64(2)).workers == 2
