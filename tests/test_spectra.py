"""Spectrum layer: absorption observable, ensemble averaging, thresholds,
magneto maps, and the dip metrics."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st

from eitsim import presets
from eitsim import spectra
from eitsim.fitting import apply_parameter
from eitsim.lindblad import _bordered_system, build_liouvillian, liouvillian_for, steady_state
from eitsim.model import (
    Coupling,
    DecayChannel,
    Dephasing,
    DetuningPoint,
    DriveField,
    Level,
    LevelSystemSpec,
    assign_rotating_frame,
    detuning_derivatives,
)
from eitsim.spectra import (
    InhomogeneitySpec,
    NonConvergedSampling,
    SpectrumTrace,
    _frame,
    _probe_readout,
    _real_basis,
    _SweepKernel,
    default_delta_grid,
    dip_metrics,
    eit_threshold,
    feature_centroid,
    homogeneous_linewidth,
    homogeneous_spectrum,
    inhomogeneous_spectrum,
    local_minima,
    magneto_map,
    power_from_rabi,
    probe_absorption,
    rabi_from_power,
    shift_samples,
)
from eitsim.spin import SpinModel, level_structure


class TestProbeAbsorption:
    def test_diagonal_state_gives_zero(self, lambda_spec, rng):
        p = rng.dirichlet(np.ones(3))
        assert probe_absorption(np.diag(p).astype(complex), lambda_spec) == 0.0

    def test_weak_probe_two_level_limit(self):
        # steady two-level absorption A = 2 Omega / Gamma in the weak limit
        from eitsim.model import Coupling, Level, LevelSystemSpec

        gamma, omega = 1e7, 1e3
        spec = LevelSystemSpec(
            levels=(Level("g1", "ground"), Level("e2", "excited")),
            drives=(
                DriveField("probe", (Coupling("g1", "e2", omega),)),
                DriveField("control", ()),
            ),
            decays=(DecayChannel("e2", "g1", gamma),),
        )
        rho = steady_state(liouvillian_for(spec, DetuningPoint(0.0, 0.0)))
        assert probe_absorption(rho, spec) == pytest.approx(2 * omega / gamma, rel=1e-3)

    def test_dark_state_absorption(self):
        spec = presets.three_level_lambda(gamma_g_star=0.0, gamma_g=0.0)
        rho = steady_state(liouvillian_for(spec, DetuningPoint(0.0, 0.0)))
        assert probe_absorption(rho, spec) < 1e-6

    def test_linear_in_weak_probe_rabi(self):
        # in the weak-probe regime the coherence, and hence A, scales
        # linearly with the probe Rabi frequency
        a = []
        for omega_p in (1e3, 1e4):
            spec = presets.three_level_lambda(omega_p=omega_p)
            rho = steady_state(liouvillian_for(spec, DetuningPoint(0.0, 3e6)))
            a.append(probe_absorption(rho, spec))
        assert 10.0 * a[0] == pytest.approx(a[1], rel=1e-3)


class TestHomogeneous:
    def test_zero_probe_absorbs_nothing(self, lambda_spec):
        # Every probe Rabi frequency 0 gives zero read-out weights, not
        # 0 / 0: the spectrum is zero as rows and reduced.
        spec = apply_parameter(lambda_spec, "omega_p", 0.0)
        grid = np.linspace(-1e7, 1e7, 3)
        inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=101)
        assert _SweepKernel(spec).reduces(101)
        assert np.array_equal(homogeneous_spectrum(spec, 0.0, grid).absorbance, np.zeros(3))
        assert np.array_equal(inhomogeneous_spectrum(spec, inhom, grid).absorbance, np.zeros(3))

    def test_resonant_dip_at_zero(self, lambda_spec):
        grid = np.linspace(-2e7, 2e7, 201)
        tr = homogeneous_spectrum(lambda_spec, 0.0, grid)
        mins = local_minima(tr)
        assert mins.size == 1
        assert abs(tr.delta_grid[mins[0]]) <= grid[1] - grid[0]
        # symmetric about zero
        assert np.abs(tr.absorbance - tr.absorbance[::-1]).max() < 1e-10

    def test_detuned_linear_peak_plus_raman_feature(self, lambda_spec):
        # far-detuned subensemble: the broad single-photon peak sits at
        # |delta| = Delta and a narrow two-laser feature survives near zero
        delta_c = 2e8
        grid = np.linspace(-2.5e8, 2.5e8, 501)
        tr = homogeneous_spectrum(lambda_spec, delta_c, grid)
        peak = tr.delta_grid[np.argmax(tr.absorbance)]
        assert abs(abs(peak) - delta_c) <= grid[1] - grid[0]
        zoom = np.linspace(-5e6, 5e6, 201)
        tz = homogeneous_spectrum(lambda_spec, delta_c, zoom)
        k = np.argmax(tz.absorbance)
        assert 0 < k < len(zoom) - 1  # a genuine local feature, not an edge
        assert abs(zoom[k]) < 1e6
        # the feature is weak this far out but clearly above the wings
        assert tz.absorbance[k] > 1.05 * min(tz.absorbance[0], tz.absorbance[-1])

    @pytest.mark.parametrize("shift", [np.nan, np.inf])
    def test_non_finite_shift_is_rejected(self, lambda_spec, shift):
        with pytest.raises(ValueError, match="control_detuning"):
            homogeneous_spectrum(lambda_spec, shift, np.linspace(-1e7, 1e7, 5))

    def test_non_finite_two_photon_point_is_rejected(self, lambda_spec):
        grid = np.linspace(-1e7, 1e7, 5)
        grid[2] = np.nan
        with pytest.raises(ValueError, match="delta_grid"):
            homogeneous_spectrum(lambda_spec, 0.0, grid)

    def test_non_finite_weight_is_rejected(self, lambda_spec):
        with pytest.raises(ValueError, match="shift_grid weights"):
            inhomogeneous_spectrum(
                lambda_spec, InhomogeneitySpec(fwhm=1e8, n_samples=3),
                np.linspace(-1e7, 1e7, 5),
                shift_grid=(np.array([-3e7, 0.0, 5e7]), np.array([0.25, np.nan, 0.25])))

    @pytest.mark.parametrize("shifts, weights", [
        ([], []),
        ([-3e7, 0.0, 5e7], [0.5, 0.5]),
        ([[-3e7, 0.0, 5e7]], [[0.25, 0.5, 0.25]]),
    ], ids=["empty", "lengths", "two_d"])
    def test_malformed_shift_grid_is_rejected(self, lambda_spec, shifts, weights):
        with pytest.raises(ValueError, match=r"shift_grid \(or control_detuning\) must be"):
            inhomogeneous_spectrum(
                lambda_spec, InhomogeneitySpec(fwhm=1e8, n_samples=3),
                np.linspace(-1e7, 1e7, 5), shift_grid=(np.array(shifts), np.array(weights)))

    def test_no_drive_zero_trace(self, lambda_spec):
        bare = replace(
            lambda_spec, drives=(DriveField("probe", ()), DriveField("control", ()))
        )
        grid = np.linspace(-1e7, 1e7, 21)
        tr = homogeneous_spectrum(bare, 0.0, grid)
        assert np.all(tr.absorbance == 0.0)

    def test_contrast_monotone_in_control_power(self):
        contrasts = []
        for omega_c in (1e6, 2e6, 4e6, 8e6):
            spec = presets.three_level_lambda(omega_c=omega_c)
            tr = homogeneous_spectrum(spec, 0.0, np.linspace(-3e7, 3e7, 301))
            contrasts.append(dip_metrics(tr)["contrast"])
        assert all(b >= a for a, b in zip(contrasts, contrasts[1:]))

    def test_sweep_matches_single_point_solve_five_level(self):
        # Relative to the resonant peak: 100 GHz out the absorbance is ~1e-10
        # of it, and two LU solves of one generator already differ by ~1e-11
        # of that tiny value (the system's conditioning), hence 1e-10 there.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        grid = np.linspace(-2e7, 2.5e7, 46)
        peak = np.abs(homogeneous_spectrum(spec, 0.0, grid).absorbance).max()
        for shift in (0.0, 1e11, -1e11):
            swept = homogeneous_spectrum(spec, shift, grid).absorbance
            single = point_by_point(spec, shift, grid)
            assert np.abs(swept - single).max() <= 1e-12 * peak
            assert np.abs(swept - single).max() <= 1e-10 * np.abs(single).max()

    def test_weak_probe_lambda_matches_the_analytic_coherence(self):
        # The weak-probe Lambda coherence with all population in g1
        # (Fleischhauer, Imamoglu & Marangos, Rev. Mod. Phys. 77, 633
        # (2005)), from the model's conventions alone and none of the code
        # that builds the kernel's generator.  The Hamiltonian (Hz) has
        # diagonal h_i = d_delta_i d + d_tp_i t (detuning_derivatives; every
        # level of the preset sits at its frame reference) and rabi / 2 on
        # each driven pair.  With gamma_g = 0 the control pumps g2 empty, so
        # to first order in Omega_p, with rho_g1g1 = 1,
        #   rho_eg = (Omega_p / 2) / (D_p + i gamma_e / 2
        #                             - (Omega_c / 2)^2 / (D_2 + i gamma_g*)),
        # D_p = h_g1 - h_e (here d - t) and D_2 = h_g1 - h_g2 (here -t).  The
        # absorbance reads rho_eg and its mirror by _probe_readout.  The terms
        # left out are second order in Omega_p: 7.6e-9 of peak here, 100
        # times that at 1 kHz.  Either detuning's sign flipped is off by 0.7.
        spec = presets.three_level_lambda(omega_p=100.0, gamma_g=0.0)
        n = spec.n_levels
        g1, g2, e = (spec.index(label) for label in ("g1", "g2", "e2"))
        d_delta, d_tp = detuning_derivatives(spec, assign_rotating_frame(spec))
        gamma_e = sum(ch.rate for ch in spec.decays if ch.source == "e2")
        gamma_star = sum(dp.rate for dp in spec.dephasings if dp.level == "g2")
        omega_p, omega_c = spec.probe.couplings[0].rabi, spec.control.couplings[0].rabi
        assert not any(ch.rate for ch in spec.decays if ch.source != "e2")
        idx, idx_t, weights = _probe_readout(spec)
        grid = np.linspace(-1e7, 1e7, 81)
        for shift in (-2e7, -3e6, 0.0, 3e6, 2e7):
            h = d_delta[:, None] * shift + d_tp[:, None] * grid
            rho_eg = (omega_p / 2) / (h[g1] - h[e] + 0.5j * gamma_e
                                      - (omega_c / 2) ** 2 / (h[g1] - h[g2] + 1j * gamma_star))
            vec = np.zeros((n * n, len(grid)), dtype=complex)
            vec[e + n * g1], vec[g1 + n * e] = rho_eg, rho_eg.conj()
            expected = weights @ (vec[idx].imag - vec[idx_t].imag)
            swept = homogeneous_spectrum(spec, shift, grid).absorbance
            assert np.abs(swept - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_worker_count_bit_identical(self, lambda_spec):
        for grid in (np.linspace(-2e7, 2e7, 101), np.array([])):
            a = homogeneous_spectrum(lambda_spec, 0.0, grid, workers=1)
            b = homogeneous_spectrum(lambda_spec, 0.0, grid, workers=4)
            assert a.absorbance.shape == grid.shape
            assert np.array_equal(a.absorbance, b.absorbance)

    def test_memory_of_a_long_line(self):
        # 100000 points at one shift go in tiles of _POINTS points, about
        # 3 MiB at the peak.  A sweep of the whole line at once needs about
        # 0.9 KiB per point, 89 MiB.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        grid = np.linspace(-2e7, 2.5e7, 100_000)
        homogeneous_spectrum(spec, 0.0, grid[:10])
        tracemalloc.start()
        try:
            homogeneous_spectrum(spec, 0.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def random_model(rng) -> LevelSystemSpec:
    """A random model in the style of acceptance criterion 8: 1-3 ground
    and 1-3 excited levels, random rates and energies, and a control
    coupling whenever it can drive a ground level other than the probe's."""

    def rate():
        return float(10.0 ** rng.uniform(2.0, 8.0))

    n_g, n_e = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    grounds = [Level(f"g{i}", "ground", float(rng.uniform(0, 1e9))) for i in range(n_g)]
    excited = [Level(f"e{i}", "excited", float(rng.uniform(0, 1e9))) for i in range(n_e)]
    probe = [Coupling("g0", f"e{int(rng.integers(n_e))}", rate())]
    ctrl_ground = f"g{int(rng.integers(n_g))}"
    control = [] if ctrl_ground == "g0" else [
        Coupling(ctrl_ground, f"e{int(rng.integers(n_e))}", rate())
    ]
    decays = [DecayChannel(e.label, g.label, rate()) for e in excited for g in grounds]
    decays += [DecayChannel(a.label, b.label, rate())
               for a in grounds for b in grounds if a is not b]
    dephasings = [Dephasing(lv.label, rate())
                  for lv in grounds + excited if rng.random() < 0.5]
    return LevelSystemSpec(
        levels=tuple(grounds + excited),
        drives=(DriveField("probe", tuple(probe)), DriveField("control", tuple(control))),
        decays=tuple(decays),
        dephasings=tuple(dephasings),
    )


def point_by_point(spec, shift, grid):
    return np.array([
        probe_absorption(steady_state(liouvillian_for(spec, DetuningPoint(shift, d))), spec)
        for d in grid
    ])


def failing_line_one(poison):
    """A patch under which line 1 of every call to absorbance or _average
    fails the pole form's check named by poison, and under "singular" the
    factorisation of every line fails."""
    factors = _SweepKernel._line_factors

    def poisoned(self, *args):
        if poison == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        out = factors(self, *args)
        if poison == "condition":
            out[7][1] = np.inf  # cond(W)
        elif poison == "refinement":
            out[6][1] = np.inf  # the refined residual of [y | G]
        elif poison == "count":
            out[5][1, 0] += 1.0  # the value sums one pole term too many
        else:  # "residual"
            out[0][1] += 1e-6  # every x off by 1e-6, and nothing else
        return out

    return mock.patch.object(_SweepKernel, "_line_factors", poisoned)


def failing_dense_solve(how):
    """A patch under which _dense_line raises LinAlgError ("raise") or reads
    out a NaN state ("nan")."""
    dense = _SweepKernel._dense_line

    def poisoned(self, deltas, two_photons, blocks=None):
        if how == "raise":
            raise np.linalg.LinAlgError("Singular matrix")
        values, terms = dense(self, deltas, two_photons, blocks)
        return np.full_like(values, np.nan), terms

    return mock.patch.object(_SweepKernel, "_dense_line", poisoned)


def wrong_dense_state():
    """A patch under which the first batched solve of B in each call to
    _dense_line returns every x off by 1e-6: a real wrong state, for the
    residual check to catch."""
    dense, solve = _SweepKernel._dense_line, np.linalg.solve

    def poisoned(self, deltas, two_photons, blocks=None):
        errors = iter([1e-6])

        def off(b, rhs):
            return solve(b, rhs) + next(errors, 0.0)

        with mock.patch.object(np.linalg, "solve", off):
            return dense(self, deltas, two_photons, blocks)

    return mock.patch.object(_SweepKernel, "_dense_line", poisoned)


class TestSweepKernel:
    def test_matches_single_point_solve_on_random_models(self, monkeypatch):
        # Same tolerances as test_sweep_matches_single_point_solve_five_level.
        rng = np.random.default_rng(8)
        grid = np.linspace(-1e8, 1e8, 21)
        fallbacks = []
        redo = _SweepKernel._redo_line
        monkeypatch.setattr(
            _SweepKernel, "_redo_line",
            lambda self, d, t, blocks=None: fallbacks.append(d) or redo(self, d, t, blocks),
        )
        sizes = set()
        for _ in range(30):
            spec = random_model(rng)
            sizes.add(len(_SweepKernel(spec).tp_idx))
            peak = np.abs(point_by_point(spec, 0.0, grid)).max()
            for shift in (0.0, 1e11, -1e11):
                swept = homogeneous_spectrum(spec, shift, grid).absorbance
                single = point_by_point(spec, shift, grid)
                assert np.abs(swept - single).max() <= 1e-12 * peak
                assert np.abs(swept - single).max() <= 1e-10 * np.abs(single).max()
        assert len(sizes) >= 3  # |P| = 2 (n - 1) varies with the level count
        assert fallbacks == []  # every shift went through its pole form

    @pytest.mark.parametrize("poison", ["refinement", "residual", "condition", "singular"])
    def test_failed_shift_is_redone_by_a_dense_solve(self, lambda_spec, poison):
        # Line 1 fails a check of the pole form (or the factorisation fails,
        # and every line with it): it is the dense solve's bit for bit, and
        # within 1e-12 of peak of point-wise steady_state; the other lines
        # keep their values.
        grid = np.linspace(-1e7, 1e7, 21)
        shifts = np.array([-3e7, 0.0, 5e7])
        kernel = _SweepKernel(lambda_spec)
        clean = kernel.absorbance(shifts, grid)
        with failing_line_one(poison):
            rows = kernel.absorbance(shifts, grid)
        redone = range(3) if poison == "singular" else [1]
        for k in range(3):
            if k in redone:
                assert np.array_equal(rows[k], kernel._dense_line(shifts[k], grid)[0])
                single = point_by_point(lambda_spec, shifts[k], grid)
                assert np.abs(rows[k] - single).max() <= 1e-12 * np.abs(single).max()
            else:
                assert np.array_equal(rows[k], clean[k])

    @pytest.mark.parametrize("poison", ["refinement", "residual", "condition", "singular"])
    def test_failed_shift_is_solved_point_by_point(self, lambda_spec, poison):
        # As test_failed_shift_is_redone_by_a_dense_solve, but the dense
        # solve fails too, by LinAlgError or by a NaN state: the line is then
        # _point_row's, bit for bit.  The few-shift _sweep refuses a
        # gradient: B is singular where the dense solve raised, and its
        # terms are unverified where its check failed.
        grid = np.linspace(-1e7, 1e7, 21)
        shifts = np.array([-3e7, 0.0, 5e7])
        weights = np.array([0.25, 0.5, 0.25])
        kernel = _SweepKernel(lambda_spec)
        blocks = parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
        clean = kernel.absorbance(shifts, grid)
        redone = range(3) if poison == "singular" else [1]
        for how in ("raise", "nan"):
            with failing_line_one(poison), failing_dense_solve(how):
                rows = kernel.absorbance(shifts, grid)
                with pytest.raises(np.linalg.LinAlgError):
                    spectra._sweep(kernel, (shifts, weights), grid, 1, blocks)
            for k in range(3):
                if k in redone:
                    assert np.array_equal(rows[k], kernel._point_row(shifts[k], grid))
                    assert np.array_equal(rows[k], point_by_point(lambda_spec, shifts[k], grid))
                else:
                    assert np.array_equal(rows[k], clean[k])

    def test_wrong_dense_state_is_caught_by_its_residual(self, lambda_spec):
        # Line 1's pole form fails, and its dense solve returns a state off
        # by 1e-6: the residual check sends the line to _point_row, bit for
        # bit, and a gradient is refused.
        grid = np.linspace(-1e7, 1e7, 21)
        shifts = np.array([-3e7, 0.0, 5e7])
        weights = np.array([0.25, 0.5, 0.25])
        kernel = _SweepKernel(lambda_spec)
        blocks = parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
        with failing_line_one("residual"), wrong_dense_state():
            rows = kernel.absorbance(shifts, grid)
            with pytest.raises(np.linalg.LinAlgError):
                spectra._sweep(kernel, (shifts, weights), grid, 1, blocks)
        assert np.array_equal(rows[1], kernel._point_row(shifts[1], grid))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           shifts=st.lists(st.floats(-1e11, 1e11), min_size=1, max_size=3))
    def test_rows_match_single_point_solve(self, seed, shifts):
        # The tolerances of test_matches_single_point_solve_on_random_models.
        spec = random_model(np.random.default_rng(seed))
        grid = np.linspace(-1e8, 1e8, 21)
        shifts = np.array([0.0] + shifts)
        kernel = _SweepKernel(spec)
        # No line may fall back: the rows must come from the pole form.
        with mock.patch.object(_SweepKernel, "_redo_line", side_effect=AssertionError):
            rows = kernel.absorbance(shifts, grid)
        assert rows.shape == (len(shifts), len(grid))
        single = np.array([point_by_point(spec, d, grid) for d in shifts])
        peak = np.abs(single[0]).max()
        assert np.abs(rows - single).max() <= 1e-12 * peak
        assert (np.abs(rows - single).max(axis=1)
                <= 1e-10 * np.abs(single).max(axis=1)).all()

    @pytest.mark.parametrize("poison", ["residual", "condition", "singular"])
    def test_failed_two_photon_point_is_solved_point_by_point(self, lambda_spec, poison):
        # The reduction's lines are the two-photon points.  Line 1 fails a
        # check of _average (or the factorisation fails, and every line with
        # it), and the dense solve fails too: the line's value is the
        # weighted sum of _point_row's, bit for bit.  A gradient is refused:
        # B is singular where the dense solve raised, and its terms are
        # unverified where its check failed.
        grid = np.array([-1e7, 2e6, 1e7])
        shifts = np.linspace(-1e8, 1e8, 21)
        weights = np.exp(-0.5 * (shifts / 6e7) ** 2)
        kernel = _SweepKernel(lambda_spec)
        blocks = parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
        clean = kernel._average(shifts, grid, weights)
        redone = range(3) if poison == "singular" else [1]
        for how in ("raise", "nan"):
            with failing_line_one(poison), failing_dense_solve(how):
                value = kernel._average(shifts, grid, weights)
                with pytest.raises(np.linalg.LinAlgError):
                    kernel._average(shifts, grid, weights, blocks)
            for k in range(3):
                if k in redone:
                    single = np.array([probe_absorption(steady_state(liouvillian_for(
                        lambda_spec, DetuningPoint(d, grid[k]))), lambda_spec) for d in shifts])
                    assert value[k] == weights @ single
                else:
                    assert value[k] == clean[k]

    @pytest.mark.parametrize("route", ["per_shift", "reduced"])
    @pytest.mark.parametrize("poison", ["residual", "condition", "singular"])
    def test_failed_line_gradient(self, lambda_spec, poison, route):
        # Line 1 fails as in the *_is_redone_by_a_dense_solve tests: its
        # value is the dense solve's bit for bit, and its gradient, from the
        # same solves of B and B^T, matches central differences.
        reduced = route == "reduced"
        lines, points = np.array([-1e7, 2e6, 1e7]), np.linspace(-1e8, 1e8, 21)
        shifts, grid = (points, lines) if reduced else (lines * 3, points / 10)
        weights = np.exp(-0.5 * (shifts / 6e7) ** 2)
        names, x0 = ("gamma_e", "omega_c"), np.array([9e6, 4e6])

        def kernel_at(x):
            spec = lambda_spec
            for name, value in zip(names, x):
                spec = apply_parameter(spec, name, value)
            return _SweepKernel(spec)

        def average(kernel, blocks=None):
            if reduced:
                return kernel._average(shifts, grid, weights, blocks)
            out = kernel.absorbance(shifts, grid, blocks, weights)
            return weights @ out if blocks is None else (weights @ out[0], out[1])

        kernel = kernel_at(x0)
        blocks = np.array([(kernel_at(x0 + 1e6 * np.eye(2)[k]).a0 - kernel.a0) / 1e6
                           for k in range(2)])
        clean = average(kernel, blocks)
        with failing_line_one(poison):
            if reduced:
                value, grad = kernel._average(shifts, grid, weights, blocks)
                assert value[1] == weights @ kernel._dense_line(shifts, grid[1])[0]
            else:
                rows, grad = kernel.absorbance(shifts, grid, blocks, weights)
                assert np.array_equal(rows[1], kernel._dense_line(shifts[1], grid)[0])
        for k in range(2):
            h = 1e-3 * x0[k]

            def diff(h):
                step = h * np.eye(2)[k]
                return (average(kernel_at(x0 + step)) - average(kernel_at(x0 - step))) / (2 * h)

            cd = (4 * diff(h / 2) - diff(h)) / 3
            assert np.abs(grad[k] - cd).max() <= 1e-6 * np.abs(cd).max()
            assert np.abs(grad[k] - clean[1][k]).max() <= 1e-9 * np.abs(cd).max()

    def test_dense_line_runs_in_slices(self, lambda_spec, monkeypatch):
        # At 16 points to a tile a slice holds 16 // 9 = 1 point: the line's
        # values and terms are those of one dense solve of the whole line.
        shifts = np.linspace(-1e8, 1e8, 7)
        kernel = _SweepKernel(lambda_spec)
        blocks = parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
        whole = kernel._dense_line(shifts, 2e6, blocks)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(spectra, "_POINTS", 16)
        monkeypatch.setattr(spectra.np.linalg, "solve",
                            lambda a, b: solves.append(len(a)) or solve(a, b))
        values, terms = kernel._dense_line(shifts, 2e6, blocks)
        assert solves == [1] * 14  # B and B^T at each of the 7 points
        assert np.abs(values - whole[0]).max() <= 1e-14 * np.abs(whole[0]).max()
        assert np.abs(terms - whole[1]).max() <= 1e-14 * np.abs(whole[1]).max()

    def test_two_photon_chunks_match_shift_chunks(self, lambda_spec):
        # 101 samples plus the dense tier: 301 shifts x 41 points, which
        # _sweep reduces per two-photon point in tiles of all 301 shifts (the
        # closed-form axis) by _GROUPS max(1, _POINTS m / |Q| // 301)
        # two-photon points: at 4, 2560, m = 9 and |Q| = 4, 76, so one tile
        # of all 41 points.
        grid = np.linspace(-1e7, 1e7, 41)
        shifts, weights = shift_samples(
            InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=101),
            homogeneous_linewidth(lambda_spec))
        kernel = _SweepKernel(lambda_spec)
        assert (len(kernel.a0), len(kernel.delta_idx)) == (9, 4)
        assert kernel.reduces(len(shifts))
        ref = weights @ kernel.absorbance(shifts, grid)
        chunks = []
        average = _SweepKernel._average

        def recorded(self, d, t, w, blocks=None):
            chunks.append((len(d), len(t)))
            return average(self, d, t, w, blocks)

        with mock.patch.object(_SweepKernel, "_average", recorded):
            tr = inhomogeneous_spectrum(lambda_spec, InhomogeneitySpec(
                fwhm=presets.SIM_FWHM, n_samples=101), grid)
        step = spectra._GROUPS * max(1, spectra._POINTS * 9 // 4 // 301)
        full, rest = divmod(41, step)
        assert chunks == [(301, step)] * full + [(301, rest)] * (rest > 0)
        assert np.abs(tr.absorbance - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_line_groups_change_no_value(self):
        # fig5 at 1 mW: 1001 shifts x 226 points, reduced in tiles of
        # _GROUPS groups of N // 1001 = 5 lines, N = 2560 m / |Q|.  Each
        # tile factors its lines at once but sums over the shifts a group at
        # a time, so the spectrum and its gradient are those of one _average
        # call per group, bit for bit.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)
        shifts, weights = shift_samples(InhomogeneitySpec(fwhm=presets.INHOM_FWHM),
                                        homogeneous_linewidth(spec))
        blocks = parameter_blocks(spec, ("gamma_e", "omega_c", "gamma_g_star"), (5e6, 8e6, 3e5))
        step = max(1, kernel._reduced_points() // len(shifts))
        assert (len(shifts), step) == (1001, 5) and kernel.reduces(len(shifts))
        groups = [kernel._average(shifts, grid[j : j + step], weights, blocks)
                  for j in range(0, len(grid), step)]
        tiles = []
        average = _SweepKernel._average

        def recorded(self, d, t, w, blocks=None):
            tiles.append(len(t))
            return average(self, d, t, w, blocks)

        with mock.patch.object(_SweepKernel, "_average", recorded):
            value, grad = spectra._sweep(kernel, (shifts, weights), grid, 1, blocks)
        assert tiles == [spectra._GROUPS * step] * 11 + [6]
        assert np.array_equal(value, np.concatenate([v for v, _ in groups]))
        assert np.array_equal(grad, np.concatenate([g for _, g in groups], axis=1))
        assert np.array_equal(value, spectra._sweep(kernel, (shifts, weights), grid, 1))

    def test_criterion_9_workload_splits_for_eight_workers(self):
        # Criterion 9's 201 points x 801 shifts go in 9 reduced tiles (8 of
        # 24 points and one of 9), so 8 workers each have one to take, and
        # the tiles are the same at 1 and at 8 workers.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        grid = np.linspace(-2e7, 2.5e7, 201)
        inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM, n_samples=801, auto_dense=False)
        average = _SweepKernel._average
        tiles = {1: [], 8: []}
        for workers in tiles:
            def recorded(self, d, t, w, blocks=None, calls=tiles[workers]):
                calls.append((d[0], len(d), t[0], len(t)))
                return average(self, d, t, w, blocks)

            with mock.patch.object(_SweepKernel, "_average", recorded):
                inhomogeneous_spectrum(spec, inhom, grid, workers=workers)
        assert len(tiles[1]) >= 8
        assert sorted(tiles[1]) == sorted(tiles[8])
        assert [n for *_, n in tiles[1]] == [24] * 8 + [9]

    def test_memory_of_one_two_photon_chunk(self):
        # A chunk of the fig5 sweep reduced per two-photon point with three
        # parameters' gradient: 3 points x 1001 shifts, no more points than
        # the 16 shifts x 226 points of test_memory_of_one_chunk, about 1.3
        # MiB at the peak (3.2 MiB as rows per two-photon point, without
        # the gradient).
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)[:3]
        shifts = np.linspace(-3e11, 3e11, 1001)
        weights = np.full(len(shifts), 1.0 / len(shifts))
        blocks = parameter_blocks(spec, ("gamma_e", "omega_c", "gamma_g_star"), (5e6, 8e6, 3e5))
        kernel._average(shifts, grid, weights, blocks)
        tracemalloc.start()
        try:
            kernel._average(shifts, grid, weights, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_memory_of_one_chunk(self):
        # 16 shifts x 226 points of the fig5 sweep.  A batched LU of every point
        # fills a (16, 226, 25, 25) array, about 37 MB.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)
        shifts = np.linspace(-3e11, 3e11, 16)
        kernel.absorbance(shifts, grid)
        tracemalloc.start()
        try:
            kernel.absorbance(shifts, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("shifts, points, reduced", [(1, 41, False), (301, 3, True)])
    def test_tiles_split_a_long_line(self, lambda_spec, monkeypatch, shifts, points, reduced):
        # At 16 points to a tile, one shift x 41 points goes as rows per
        # shift in tiles of 16, 16 and 9 points, and 301 shifts x 3 points
        # is reduced per two-photon point in tiles of all 3 points (up to
        # _GROUPS = 4) by up to 16 m / |Q| = 36 shifts.
        monkeypatch.setattr(spectra, "_POINTS", 16)
        kernel = _SweepKernel(lambda_spec)
        deltas = np.linspace(-3e7, 5e7, shifts)
        grid = np.linspace(-1e7, 1e7, points)
        assert kernel.reduces(shifts) == reduced
        weights = np.linspace(1.0, 2.0, shifts) / (1.5 * shifts)
        whole = (kernel._average(deltas, grid, weights) if reduced
                 else weights @ kernel.absorbance(deltas, grid))
        tiles = []
        absorbance, average = _SweepKernel.absorbance, _SweepKernel._average

        def recorded(self, d, t, blocks=None, w=None):
            tiles.append((len(d), len(t), "rows"))
            return absorbance(self, d, t, blocks, w)

        def recorded_average(self, d, t, w, blocks=None):
            tiles.append((len(d), len(t), "reduced"))
            return average(self, d, t, w, blocks)

        with mock.patch.object(_SweepKernel, "absorbance", recorded), mock.patch.object(
                _SweepKernel, "_average", recorded_average):
            swept = spectra._sweep(kernel, (deltas, weights), grid, workers=1)
        if reduced:
            assert tiles == [(36, 3, "reduced")] * 8 + [(13, 3, "reduced")]
        else:
            assert tiles == [(1, 16, "rows"), (1, 16, "rows"), (1, 9, "rows")]
        # The same steps per point, but a matrix product may round one
        # point differently at another batch size.
        assert np.abs(swept - whole).max() <= 1e-13 * np.abs(whole).max()
        assert np.array_equal(swept, spectra._sweep(kernel, (deltas, weights), grid, workers=3))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n_shifts=st.integers(1, 9),
           points=st.integers(1, 9))
    def test_sweep_is_the_weighted_average(self, seed, n_shifts, points):
        # At 5 points to a tile every shape spans several tiles; the partials
        # are added in tile order whatever the worker count.
        rng = np.random.default_rng(seed)
        kernel = _SweepKernel(random_model(rng))
        shifts = np.sort(rng.uniform(-1e9, 1e9, n_shifts))
        weights = rng.dirichlet(np.ones(n_shifts))
        grid = np.linspace(-1e8, 1e8, points)
        whole = weights @ kernel.absorbance(shifts, grid)
        with mock.patch.object(spectra, "_POINTS", 5):
            one = spectra._sweep(kernel, (shifts, weights), grid, workers=1)
            three = spectra._sweep(kernel, (shifts, weights), grid, workers=3)
        assert np.abs(one - whole).max() <= 1e-13 * np.abs(whole).max()
        assert np.array_equal(one, three)

    @pytest.mark.parametrize("shifts, points, reduced", [(16, 226, False), (1001, 3, True)])
    def test_memory_of_one_real_basis_chunk(self, shifts, points, reduced):
        # The chunk of test_memory_of_one_chunk as rows, in real arithmetic
        # about 3.5 MiB against 5.5 MiB in the complex basis, and the points
        # of test_memory_of_one_two_photon_chunk reduced without a gradient,
        # about 0.5 MiB.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)[:points]
        shifts = np.linspace(-3e11, 3e11, shifts)
        weights = np.full(len(shifts), 1.0 / len(shifts))

        def run():
            if reduced:
                return kernel._average(shifts, grid, weights)
            return kernel.absorbance(shifts, grid)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("spec", [
        presets.three_level_lambda(),
        presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6),
        *[random_model(np.random.default_rng(seed)) for seed in range(12)],
    ], ids=["lambda", "fig5", *[f"random-{seed}" for seed in range(12)]])
    def test_real_basis_reproduces_the_bordered_generator(self, spec):
        n = spec.n_levels
        kernel = _SweepKernel(spec)
        assert kernel.a0.dtype == np.float64
        d_delta, d_tp = detuning_derivatives(spec, assign_rotating_frame(spec))
        t, tinv, p, q = _real_basis(d_delta, d_tp)
        assert np.array_equal(t @ tinv, np.eye(n * n))
        assert (p, q) == (kernel.tp_idx, kernel.delta_idx)
        # P and Q overlap on the coherences of probe ground and excited levels.
        assert p.start <= q.start < p.stop <= q.stop == n * n
        for point in (DetuningPoint(0.0, 0.0), DetuningPoint(3e9, -2e6)):
            a, _ = _bordered_system(liouvillian_for(spec, point).matrix, n)
            b = kernel.a0.copy()
            b[q.start:q.stop, q.start:q.stop] += point.control_detuning * kernel.delta_block
            b[p.start:p.stop, p.start:p.stop] += point.two_photon * kernel.tp_block
            assert np.abs(tinv @ b @ t - a).max() <= 1e-15 * np.abs(a).max()
        # The read-out is one real coordinate per probe coupling, and
        # agrees with probe_absorption on the state mapped back.
        assert len(kernel.probe_idx) == len(spec.probe.couplings)
        rho = steady_state(liouvillian_for(spec, DetuningPoint(0.0, 0.0)))
        x = (t @ rho.ravel(order="F")).real
        assert np.isclose(x[kernel.probe_idx] @ kernel.probe_w,
                          probe_absorption(rho, spec), rtol=1e-14, atol=0.0)

    def test_cached_frame_changes_no_bit(self):
        # A kernel whose frame was made for another model of the same level
        # structure equals one that made its own, bit for bit.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        _frame.cache_clear()
        fresh = _SweepKernel(spec)
        _frame.cache_clear()
        _SweepKernel(apply_parameter(spec, "gamma_e", 2 * presets.GAMMA_E))
        cached = _SweepKernel(spec)
        assert (_frame.cache_info().misses, _frame.cache_info().hits) == (1, 1)
        for name in ("a0", "delta_block", "tp_block", "readout"):
            assert np.array_equal(getattr(fresh, name), getattr(cached, name)), name
        assert (fresh.tp_idx, fresh.delta_idx) == (cached.tp_idx, cached.delta_idx)
        # The shared arrays refuse writes; a0 is the kernel's own.
        d_delta, d_tp = detuning_derivatives(spec, assign_rotating_frame(spec))
        t, tinv, *_ = _frame(tuple(d_delta.tolist()), tuple(d_tp.tolist()))
        for array in (t, tinv, cached.delta_block, cached.tp_block):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        assert cached.a0.flags.writeable

    def test_worker_counts_bit_identical(self):
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        grid = np.linspace(-2e7, 2.5e7, 46)
        inhom = InhomogeneitySpec(fwhm=presets.INHOM_FWHM, n_samples=101)
        ref = inhomogeneous_spectrum(spec, inhom, grid, workers=1).absorbance
        for workers in (2, 4, 8):
            other = inhomogeneous_spectrum(spec, inhom, grid, workers=workers).absorbance
            assert np.array_equal(ref, other)

    @given(seed=st.integers(0, 2**32 - 1), few=st.integers(0, 6), many=st.integers(0, 22),
           fwhm=st.floats(1e8, 1e10), workers=st.sampled_from([2, 3, 8]))
    def test_worker_count_bit_identical_on_random_models(self, seed, few, many, fwhm, workers):
        # Two ensembles per model, one per sweep route: with the reduction
        # ruled out, 17-21 shifts by at least as many two-photon points go
        # as rows per shift, and 17-61 shifts by 2-8 points are reduced.  At
        # 12 points to a row tile and 6 to a reduced one (which takes 2-2.7
        # times as many, by m / |Q|, and 2 shift-sum groups of lines) each
        # spans several tiles, with its closed-form axis (two-photon points
        # per shift, shifts per point) split.  Small, because a model whose
        # lines fall back is solved by dense solves.
        spec = random_model(np.random.default_rng(seed))
        n_shift = 17 + 2 * (many % 3)
        sizes = {"rows": (n_shift, n_shift + few), "reduced": (17 + 2 * many, 2 + few)}
        absorbance, average = _SweepKernel.absorbance, _SweepKernel._average
        for route, (n_samples, n_tp) in sizes.items():
            inhom = InhomogeneitySpec(fwhm=fwhm, n_samples=n_samples, auto_dense=False)
            grid = np.linspace(-1e8, 1e8, n_tp)
            chunks, closed = [], []

            def recorded(self, d, t, blocks=None, w=None):
                chunks.append("rows")
                closed.append(len(t))
                return absorbance(self, d, t, blocks, w)

            def recorded_average(self, d, t, w, blocks=None):
                chunks.append("reduced")
                closed.append(len(d))
                return average(self, d, t, w, blocks)

            if route == "reduced":
                tiles, entry = 6, mock.patch.object(_SweepKernel, "_average", recorded_average)
            else:
                tiles, entry = 12, mock.patch.object(_SweepKernel, "absorbance", recorded)
            with mock.patch.object(spectra, "_POINTS", tiles), mock.patch.object(
                    spectra, "_GROUPS", 2), mock.patch.object(
                    _SweepKernel, "reduces", lambda self, nd: route == "reduced"):
                with entry:
                    ref = inhomogeneous_spectrum(spec, inhom, grid, workers=1).absorbance
                other = inhomogeneous_spectrum(spec, inhom, grid, workers=workers).absorbance
            assert len(chunks) > 1 and set(chunks) == {route}
            assert max(closed) < (n_tp if route == "rows" else n_samples)
            assert np.array_equal(ref, other)


def extended_solve(a, b):
    """a^-1 b by Gaussian elimination with partial pivoting in long double,
    a reference about 2000 times finer than a double LU where long double is
    the x87 format."""
    a, b = a.astype(np.longdouble), b.astype(np.longdouble)
    n = len(a)
    for i in range(n):
        k = i + np.argmax(np.abs(a[i:, i]))
        a[[i, k]], b[[i, k]] = a[[k, i]], b[[k, i]]
        f = a[i + 1:, i] / a[i, i]
        a[i + 1:] -= f[:, None] * a[i]
        b[i + 1:] -= f * b[i]
    x = np.zeros(n, np.longdouble)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def parameter_blocks(spec, names, values):
    """The derivatives of _SweepKernel(spec).a0 along named parameters at
    values, as fitting._Objective.blocks takes them."""
    def a0(name, value):
        return _SweepKernel(apply_parameter(spec, name, value)).a0

    return np.array([(a0(n, 2 * v) - a0(n, v)) / v for n, v in zip(names, values)])


class TestTracePass:
    """spectra._sweep_traces: the traces of one frame in one pass, every line
    of a reduced tile factored together, each trace bit for bit its own
    _sweep."""

    NAMES = ("gamma_e", "gamma_g_star", "omega_c")

    def series(self, n_shifts):
        # Three Lambda traces at control Rabi frequencies of 1.5, 3 and 6 MHz
        # (0.25, 1 and 4 mW at sqrt(P)) on grids of 41, 9 and 100 points.
        kernels, blocks = [], []
        for omega in (1.5e6, 3e6, 6e6):
            spec = apply_parameter(presets.three_level_lambda(), "omega_c", omega)
            kernels.append(_SweepKernel(spec))
            blocks.append(parameter_blocks(spec, self.NAMES, (1e7, 1e5, omega)))
        grids = [np.linspace(-2e7, 2e7, n) for n in (41, 9, 100)]
        shifts = np.linspace(-3e9, 3e9, n_shifts)
        weights = np.exp(-0.5 * (shifts / 1e9) ** 2)
        return kernels, grids, blocks, (shifts, weights / weights.sum())

    @pytest.mark.parametrize("n_shifts", [101, 7], ids=["reduced", "rows"])
    @pytest.mark.parametrize("points", [16, 100])
    def test_each_trace_is_its_own_sweep(self, monkeypatch, n_shifts, points):
        # At 16 points to a tile a reduced tile takes 36 of the 101 shifts
        # and 4 lines of each trace; at 100, all the shifts and 8 lines in
        # groups of 2, so the 41- and 9-point traces end in a part group.
        # Rows keep a tile per trace.
        monkeypatch.setattr(spectra, "_POINTS", points)
        kernels, grids, blocks, shift_grid = self.series(n_shifts)
        assert kernels[0].reduces(n_shifts) == (n_shifts == 101)
        own = [spectra._sweep(k, shift_grid, g, 1, b) for k, g, b in zip(kernels, grids, blocks)]
        bare = [spectra._sweep(k, shift_grid, g, 1) for k, g in zip(kernels, grids)]
        factors = _SweepKernel._line_factors
        calls = []
        monkeypatch.setattr(_SweepKernel, "_line_factors",
                            lambda self, a, *args: calls.append(len(a)) or factors(self, a, *args))
        for workers in (1, 3):
            passed = spectra._sweep_traces(kernels, shift_grid, grids, workers, blocks)
            for (value, grad), (ref_value, ref_grad) in zip(passed, own):
                assert np.array_equal(value, ref_value)
                assert np.array_equal(grad, ref_grad)
            passed = spectra._sweep_traces(kernels, shift_grid, grids, workers, [None] * 3)
            for (value, grad), ref_value in zip(passed, bare):
                assert grad is None and np.array_equal(value, ref_value)
        if n_shifts == 101:
            # A reduced tile factors the lines of every trace it reaches at once.
            step = spectra._GROUPS * max(1, points * 9 // 4 // n_shifts)
            assert max(calls) == 3 * step

    @pytest.mark.parametrize("n_shifts", [101, 7], ids=["reduced", "rows"])
    def test_every_line_redone_by_its_own_kernel(self, monkeypatch, n_shifts):
        # With _MAX_COND_W at 0 every line fails its check and is redone
        # by _redo_line, each with its own trace's kernel and blocks.
        monkeypatch.setattr(spectra, "_POINTS", 16)
        monkeypatch.setattr(spectra, "_MAX_COND_W", 0.0)
        kernels, grids, blocks, shift_grid = self.series(n_shifts)
        own = [spectra._sweep(k, shift_grid, g, 1, b) for k, g, b in zip(kernels, grids, blocks)]
        redo, redone = _SweepKernel._redo_line, []

        def recorded(self, deltas, two_photons, grad_blocks=None):
            trace = next(i for i, k in enumerate(kernels) if k is self)
            assert grad_blocks is blocks[trace]
            points = np.atleast_1d(two_photons) if n_shifts == 101 else two_photons
            redone.extend((trace, float(t)) for t in points)
            return redo(self, deltas, two_photons, grad_blocks)

        monkeypatch.setattr(_SweepKernel, "_redo_line", recorded)
        passed = spectra._sweep_traces(kernels, shift_grid, grids, 3, blocks)
        for (value, grad), (ref_value, ref_grad) in zip(passed, own):
            assert np.array_equal(value, ref_value)
            assert np.array_equal(grad, ref_grad)
        # Each point once per tile of shifts: 3 of up to 36 when reduced, and
        # as rows, once per shift.
        lines = 3 if n_shifts == 101 else n_shifts
        expected = sorted((i, float(t)) for i, g in enumerate(grids) for t in g for _ in range(lines))
        assert sorted(redone) == expected

    def test_kernels_of_different_frames_are_refused(self):
        kernels, grids, blocks, shift_grid = self.series(101)
        five = _SweepKernel(presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6))
        with pytest.raises(ValueError, match="share one frame"):
            spectra._sweep_traces([kernels[0], five], shift_grid, grids[:2], 1, [None, None])


class TestReduction:
    """_SweepKernel._average: the weighted average over the shifts, reduced
    in pole space per two-photon point."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n_shifts=st.integers(2, 9),
           points=st.integers(1, 7))
    @example(seed=62, n_shifts=4, points=6)
    def test_matches_point_wise_averages(self, seed, n_shifts, points):
        # The value against point-wise steady_state, to 1e-12 of peak.  The
        # gradient, of the reduction and of rows per shift, in units of each
        # parameter's value, against the average of states and adjoint rows
        # solved in long double: over seeds 0-199, sizes drawn from
        # default_rng(10_000 + seed), the reduction came within 1e-12 of peak
        # on 192 and within 2.5e-11 on all, and the rows within 1e-12 on 193
        # and within 1.2e-11 on all.  Seed 62 (rates from 134 Hz to 9.8 MHz,
        # cond(B) about 5e9) took the rows to 1.3e-8 while their adjoint row
        # was c A^-1 less a pole term.
        rng = np.random.default_rng(seed)
        spec = random_model(rng)
        kernel = _SweepKernel(spec)
        shifts = np.sort(rng.uniform(-1e9, 1e9, n_shifts))
        weights = rng.dirichlet(np.ones(n_shifts))
        grid = np.linspace(-1e8, 1e8, points)
        names = ("gamma_e", "omega_p")
        values = np.array([sum(c.rate for c in spec.decays if c.source == "e0"),
                           spec.probe.couplings[0].rabi])
        blocks = parameter_blocks(spec, names, values)
        value, grad = kernel._average(shifts, grid, weights, blocks)
        assert np.array_equal(value, kernel._average(shifts, grid, weights))
        single = weights @ np.array([point_by_point(spec, d, grid) for d in shifts])
        peak = np.abs(single).max()
        assert np.abs(value - single).max() <= 1e-12 * peak

        p, q = (slice(r.start, r.stop) for r in (kernel.tp_idx, kernel.delta_idx))
        c = np.zeros(len(kernel.a0))
        c[kernel.probe_idx] = kernel.probe_w
        exact = np.zeros(grad.shape, np.longdouble)
        for j, t in enumerate(grid):
            for d, w in zip(shifts, weights):
                b = kernel.a0.astype(np.longdouble)
                b[p, p] += np.longdouble(t) * kernel.tp_block
                b[q, q] += np.longdouble(d) * kernel.delta_block
                x = extended_solve(b, np.eye(len(b))[0])
                adj = extended_solve(b.T, c)
                exact[:, j] -= w * (blocks.astype(np.longdouble) @ x @ adj)
        rows_grad = kernel.absorbance(shifts, grid, blocks, weights)[1]
        for g in (grad, rows_grad):
            assert (np.abs(g - exact.astype(float)) * values[:, None]).max() <= 1e-9 * peak

    @pytest.mark.parametrize("gradient", [False, True], ids=["value", "gradient"])
    @pytest.mark.parametrize("poison", ["refinement", "residual", "condition", "count",
                                        "singular"])
    def test_failed_line_is_redone_as_rows(self, lambda_spec, poison, gradient):
        # Line 1 fails one check (or the factorisation fails, and every
        # line with it): it is redone as a row of point values by the dense
        # solve, whose weighted sums are its value and gradient bit for bit;
        # the value is within 1e-12 of peak of point-wise steady_state, and
        # the other lines keep their values and gradients.
        grid = np.array([-1e7, 2e6, 1e7])
        shifts = np.linspace(-1e8, 1e8, 21)
        weights = np.exp(-0.5 * (shifts / 6e7) ** 2)
        kernel = _SweepKernel(lambda_spec)
        blocks = (parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
                  if gradient else None)

        def run():
            out = kernel._average(shifts, grid, weights, blocks)
            return (out, None) if blocks is None else out

        clean = run()
        with failing_line_one(poison):
            value, grad = run()
        redone = [0, 1, 2] if poison == "singular" else [1]
        for k in redone:
            values, terms = kernel._dense_line(shifts, grid[k], blocks)
            assert value[k] == weights @ values
            single = [probe_absorption(steady_state(liouvillian_for(
                lambda_spec, DetuningPoint(d, grid[k]))), lambda_spec) for d in shifts]
            assert abs(value[k] - weights @ single) <= 1e-12 * np.abs(single).max()
            if gradient:
                assert np.array_equal(grad[:, k], terms @ weights)
        kept = [k for k in range(3) if k not in redone]
        assert np.array_equal(value[kept], clean[0][kept])
        if gradient:
            assert np.array_equal(grad[:, kept], clean[1][:, kept])

    def test_gradient_only_failure_keeps_the_value(self, lambda_spec, monkeypatch):
        # A line whose gradient alone is not finite has its gradient redone
        # by the dense solve, and keeps the value the reduction without
        # blocks gives.
        grid = np.array([-1e7, 2e6, 1e7])
        shifts = np.linspace(-1e8, 1e8, 21)
        weights = np.exp(-0.5 * (shifts / 6e7) ** 2)
        kernel = _SweepKernel(lambda_spec)
        blocks = parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
        clean = kernel._average(shifts, grid, weights, blocks)
        factors = _SweepKernel._line_factors

        def poisoned(self, a, idx, v_block, adjoint):
            out = factors(self, a, idx, v_block, adjoint)
            if adjoint:
                out[8][1] = np.nan  # H, which only the gradient reads
            return out

        monkeypatch.setattr(_SweepKernel, "_line_factors", poisoned)
        value, grad = kernel._average(shifts, grid, weights, blocks)
        assert np.array_equal(value, kernel._average(shifts, grid, weights))
        assert np.array_equal(value, clean[0])
        assert np.array_equal(grad[:, 1], kernel._dense_line(shifts, grid[1], blocks)[1] @ weights)
        assert np.array_equal(grad[:, [0, 2]], clean[1][:, [0, 2]])

    def test_gradient_of_poles_that_are_not_exact_conjugates(self):
        # On random_model seed 24 the Newton step leaves a pole with Im lam
        # < 0 that is not its partner's bit-exact conjugate: its real part,
        # about 7e-40 beside Im lam = -3.2e-8, is twice the partner's.  The
        # two pair within _POLE_GAP, so its sums are taken as the conjugates
        # of its partner's: the line is not redone, its value is the
        # value-only route's, and its gradient, in units of each parameter's
        # value, is within test_matches_point_wise_averages's 1e-9 of peak
        # of the average of states and adjoint rows solved in long double.
        rng = np.random.default_rng(24)
        spec = random_model(rng)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-1e8, 1e8, 5)
        p, q = (slice(r.start, r.stop) for r in (kernel.tp_idx, kernel.delta_idx))
        a = np.broadcast_to(kernel.a0, (len(grid),) + kernel.a0.shape).copy()
        a[:, p, p] += grid[:, None, None] * kernel.tp_block
        factors = kernel._line_factors(a, kernel.delta_idx, kernel.delta_block, False)
        lam, count = factors[2], factors[5]
        assert any((line[c == 0] != line[c == 2].conj()).any() for line, c in zip(lam, count))

        shifts = np.sort(rng.uniform(-1e9, 1e9, 9))
        weights = rng.dirichlet(np.ones(9))
        values = np.array([sum(c.rate for c in spec.decays if c.source == "e0"),
                           spec.probe.couplings[0].rabi])
        blocks = parameter_blocks(spec, ("gamma_e", "omega_p"), values)
        with mock.patch.object(_SweepKernel, "_redo_line", side_effect=AssertionError):
            value, grad = kernel._average(shifts, grid, weights, blocks)
        assert np.array_equal(value, kernel._average(shifts, grid, weights))
        c = np.zeros(len(kernel.a0))
        c[kernel.probe_idx] = kernel.probe_w
        exact = np.zeros(grad.shape, np.longdouble)
        for j, t in enumerate(grid):
            for d, w in zip(shifts, weights):
                b = kernel.a0.astype(np.longdouble)
                b[p, p] += np.longdouble(t) * kernel.tp_block
                b[q, q] += np.longdouble(d) * kernel.delta_block
                x = extended_solve(b, np.eye(len(b))[0])
                exact[:, j] -= w * (blocks.astype(np.longdouble) @ x @ extended_solve(b.T, c))
        peak = np.abs(value).max()
        assert (np.abs(grad - exact.astype(float)) * values[:, None]).max() <= 1e-9 * peak

    @pytest.mark.parametrize("poison", ["close", "misordered"])
    def test_close_or_unpaired_poles_have_their_gradient_redone(self, lambda_spec, monkeypatch,
                                                                poison):
        # S1's divided differences lose accuracy as a pole and the conjugate
        # of another close in, and its conjugate sums are wrong for a pole
        # paired with one that is not its conjugate, so such a line has its
        # gradient redone by the dense solve and keeps its value.  A pole
        # moved into the gap would fail the line's own residual check first,
        # so the guard is met by widening the gap: across the real axis the
        # Lambda line's poles lie 121 % of their magnitude apart at t = 2e6
        # and 171 % at t = +-1e5, so a gap of 1.5 holds line 1's ("close").
        # Swapping line 1's two poles with Im lam <
        # 0, consistently in every factor, changes no value but pairs each
        # with the other's partner ("misordered").
        grid = np.array([-1e5, 2e6, 1e5])
        shifts = np.linspace(-1e8, 1e8, 21)
        weights = np.exp(-0.5 * (shifts / 6e7) ** 2)
        kernel = _SweepKernel(lambda_spec)
        blocks = parameter_blocks(lambda_spec, ("gamma_e", "omega_c"), (1e7, 3e6))
        clean = kernel._average(shifts, grid, weights, blocks)
        factors, redo, redone = _SweepKernel._line_factors, _SweepKernel._redo_line, []

        def misordered(self, *args):
            y, g, lam, w, winv, count, resid, cond, r_s = factors(self, *args)
            assert (count[1] == [2, 2, 0, 0]).all()
            swap = [0, 1, 3, 2]
            lam[1], w[1], winv[1] = lam[1, swap], w[1][:, swap], winv[1, swap]
            if r_s is not None:
                r_s[1] = r_s[1, swap]
            return y, g, lam, w, winv, count, resid, cond, r_s

        if poison == "close":
            monkeypatch.setattr(spectra, "_POLE_GAP", 1.5)
        else:
            monkeypatch.setattr(_SweepKernel, "_line_factors", misordered)
        monkeypatch.setattr(_SweepKernel, "_redo_line",
                            lambda self, d, t, b=None: redone.append(t) or redo(self, d, t, b))
        value, grad = kernel._average(shifts, grid, weights, blocks)
        assert redone == [2e6]
        assert np.array_equal(grad[:, 1], kernel._dense_line(shifts, 2e6, blocks)[1] @ weights)
        assert np.array_equal(value, kernel._average(shifts, grid, weights))
        assert np.array_equal(value, clean[0])
        assert np.array_equal(grad[:, [0, 2]], clean[1][:, [0, 2]])

    def test_non_hermitian_generator_is_rejected(self, lambda_spec):
        # A complex Rabi frequency puts H off its Hermitian form, so the
        # generator maps Hermitian states to non-Hermitian ones and has no
        # real form in the (rho_ii, Re rho_ij, Im rho_ij) basis.
        control = DriveField("control", (Coupling("g2", "e2", 3e6 + 1e6j),))
        spec = replace(lambda_spec, drives=(lambda_spec.probe, control))
        with pytest.raises(ValueError, match="generator does not preserve Hermiticity"):
            homogeneous_spectrum(spec, 0.0, np.linspace(-1e6, 1e6, 5))

    @pytest.mark.parametrize("excited", [False, True], ids=["no_excited", "ground_probe"])
    def test_read_out_outside_p_and_q_is_rejected(self, excited):
        # Both routes read the probe from the coherences both detunings move.
        # A model without excited levels has none, and a probe between two
        # ground levels reads outside them: validate_system rejects both,
        # and the kernel and both spectra raise ValueError.
        levels = (Level("g1", "ground"), Level("g2", "ground", 1e9))
        probe, control, decays = (), (), (DecayChannel("g2", "g1", 1e6),)
        if excited:
            levels += (Level("e", "excited"),)
            probe, control = (Coupling("g1", "g2", 1e4),), (Coupling("g2", "e", 1e6),)
            decays = (DecayChannel("e", "g1", 1e7), DecayChannel("e", "g2", 1e7))
        spec = LevelSystemSpec(
            levels=levels, decays=decays,
            drives=(DriveField("probe", probe), DriveField("control", control)))
        grid = np.linspace(-1e6, 1e6, 5)
        inhom = InhomogeneitySpec(fwhm=1e8, n_samples=101)
        for call in (lambda: _SweepKernel(spec), lambda: homogeneous_spectrum(spec, 0.0, grid),
                     lambda: inhomogeneous_spectrum(spec, inhom, grid)):
            with pytest.raises(ValueError, match="probe read-out must lie"):
                call()

    def test_memory_of_a_gradient_reduction(self):
        # The fig5 spectrum with three parameters' gradient, 5001 shifts x
        # 226 points, reduced per two-photon point: about 2.2 MiB at the
        # peak (2.0 MiB in tiles of one shift-sum group), most of it _sweep's
        # untouched heap block.  Rows per shift took 3.4 MiB.  With one line
        # that fails its checks, redone by the dense solve in slices, about
        # 2.0 MiB for the value and 2.25 MiB with the gradient (5.2 and 6.2
        # MiB when it was redone as one batch of rows per two-photon point).
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)
        shifts, weights = shift_samples(
            InhomogeneitySpec(fwhm=presets.INHOM_FWHM, n_samples=5001, auto_dense=False), 0.0)
        blocks = parameter_blocks(spec, ("gamma_e", "omega_c", "gamma_g_star"), (5e6, 8e6, 3e5))
        assert kernel.reduces(len(shifts))
        factors, redo = _SweepKernel._line_factors, _SweepKernel._redo_line
        redone = []
        # The line at grid[99], found by its matrix, built as _average builds it.
        p = slice(kernel.tp_idx.start, kernel.tp_idx.stop)
        line_99 = kernel.a0.copy()
        line_99[p, p] += grid[99] * kernel.tp_block

        def poisoned(self, a, idx, v_block, adjoint):
            out = factors(self, a, idx, v_block, adjoint)
            out[7][(a == line_99).all(axis=(1, 2))] = np.inf  # cond(W)
            return out

        def peak(blocks):
            tracemalloc.start()
            try:
                spectra._sweep(kernel, (shifts, weights), grid, 1, blocks)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spectra._sweep(kernel, (shifts[:3], weights[:3]), grid, 1, blocks)
        assert peak(blocks) < 3 * 2**20
        with mock.patch.object(_SweepKernel, "_line_factors", poisoned), mock.patch.object(
                _SweepKernel, "_redo_line",
                lambda self, d, t, b=None: redone.append(t) or redo(self, d, t, b)):
            assert peak(None) < 3 * 2**20
            assert peak(blocks) < 3 * 2**20
        assert redone == [grid[99]] * 2


class TestInhomogeneous:
    def test_zero_width_equals_homogeneous(self, lambda_spec):
        grid = np.linspace(-2e7, 2e7, 101)
        hom = homogeneous_spectrum(lambda_spec, 0.0, grid)
        inh = inhomogeneous_spectrum(
            lambda_spec, InhomogeneitySpec(fwhm=0.0, n_samples=1), grid
        )
        assert np.array_equal(hom.absorbance, inh.absorbance)

    def test_linearity_in_weights(self, lambda_spec):
        grid = np.linspace(-1e7, 1e7, 41)
        shifts = np.array([-3e7, 0.0, 5e7])
        weights = np.array([0.25, 0.5, 0.25])
        inh = inhomogeneous_spectrum(
            lambda_spec,
            InhomogeneitySpec(fwhm=1e8, n_samples=3),
            grid,
            shift_grid=(shifts, weights),
        )
        manual = sum(
            w * homogeneous_spectrum(lambda_spec, s, grid).absorbance
            for s, w in zip(shifts, weights)
        )
        assert np.abs(inh.absorbance - manual).max() < 1e-14

    def test_shallower_and_narrower_than_homogeneous(self, lambda_spec):
        grid = np.linspace(-2e7, 2e7, 201)
        hom = dip_metrics(homogeneous_spectrum(lambda_spec, 0.0, grid))
        inh = dip_metrics(
            inhomogeneous_spectrum(
                lambda_spec,
                InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=401),
                grid,
            )
        )
        assert inh["contrast"] < hom["contrast"]
        assert inh["dip_fwhm"] < hom["dip_fwhm"]

    def test_symmetric_about_zero(self, lambda_spec):
        grid = np.linspace(-2e7, 2e7, 161)
        tr = inhomogeneous_spectrum(
            lambda_spec, InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=401), grid
        )
        assert np.abs(tr.absorbance - tr.absorbance[::-1]).max() < 0.01 * tr.absorbance.max()

    def test_mismatched_five_level_two_features(self):
        # large mismatch: an EIT-dipped feature near zero plus a plain peak
        # near delta = Delta_k with no dip
        dk = 3e7
        spec = presets.five_level_mismatch(delta_k=dk)
        grid = np.linspace(-2e7, 5e7, 281)
        tr = inhomogeneous_spectrum(
            spec, InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=401), grid
        )
        step = grid[1] - grid[0]
        mins = local_minima(tr)
        near_zero = [m for m in mins if abs(tr.delta_grid[m]) < 0.3 * dk]
        in_far_peak = [m for m in mins if abs(tr.delta_grid[m] - dk) < 0.3 * dk]
        assert len(near_zero) >= 1
        assert abs(tr.delta_grid[near_zero[0]]) <= step
        assert not in_far_peak
        # the far feature is a genuine second hump
        far = np.argmax(np.where(np.abs(grid - dk) < 0.3 * dk, tr.absorbance, -np.inf))
        assert abs(tr.delta_grid[far] - dk) < 0.3 * dk

    def test_convergence_check_flags_undersampling(self, lambda_spec):
        inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=3, auto_dense=False)
        grid = np.linspace(-1e7, 1e7, 11)
        with pytest.raises(NonConvergedSampling):
            inhomogeneous_spectrum(lambda_spec, inhom, grid, check_convergence=True)

    def test_convergence_check_rejects_a_given_shift_grid(self, lambda_spec):
        # The check refines the automatic grid, which says nothing of this one.
        with pytest.raises(ValueError, match="shift_grid.*check_convergence"):
            inhomogeneous_spectrum(
                lambda_spec, InhomogeneitySpec(fwhm=1e8, n_samples=3),
                np.linspace(-1e7, 1e7, 11), check_convergence=True,
                shift_grid=(np.array([0.0]), np.array([1.0])))

    @pytest.mark.parametrize("five_level, n_shifts, points, bound", [
        (False, 20001, 101, 4), (True, 5001, 226, 4.5)])
    def test_memory_does_not_grow_with_the_shift_count(self, five_level, n_shifts, points,
                                                       bound):
        # A row per shift would take 15.4 MiB (Lambda) and 8.6 MiB (fig5)
        # here; reduced tile by tile, the peak is one tile's work, about 1.0
        # and 2.5 MiB.
        spec = (presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6) if five_level
                else presets.three_level_lambda())
        inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=n_shifts, auto_dense=False)
        grid = np.linspace(-2e7, 2.5e7, points)
        assert _SweepKernel(spec).reduces(n_shifts)
        tracemalloc.start()
        try:
            inhomogeneous_spectrum(spec, inhom, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20

    def test_worker_count_bit_identical(self, lambda_spec):
        grid = np.linspace(-1e7, 1e7, 41)
        inhom = InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=101)
        a = inhomogeneous_spectrum(lambda_spec, inhom, grid, workers=1)
        b = inhomogeneous_spectrum(lambda_spec, inhom, grid, workers=8)
        assert np.array_equal(a.absorbance, b.absorbance)

    def test_spec_rejects_invalid_values(self):
        nan, inf = float("nan"), float("inf")
        for kw in ({"fwhm": -1.0}, {"fwhm": nan}, {"fwhm": inf},
                   {"fwhm": 1e9, "n_samples": 2}, {"fwhm": 1e9, "truncation": 0.0},
                   {"fwhm": 1e9, "truncation": nan}, {"fwhm": 1e9, "truncation": inf},
                   {"fwhm": 1e9, "dense_step": 0.0}, {"fwhm": 1e9, "dense_step": -0.5},
                   {"fwhm": 1e9, "dense_step": inf}, {"fwhm": 1e9, "dense_halfwidth": nan},
                   {"fwhm": 1e9, "dense_halfwidth": 0.0}, {"fwhm": 1e9, "dense_halfwidth": inf},
                   {"fwhm": 1e9, "n_samples": 3.0}, {"fwhm": 1e9, "n_samples": True},
                   {"fwhm": True}, {"fwhm": "1e9"}, {"fwhm": None},
                   {"fwhm": 1e9, "truncation": True}, {"fwhm": 1e9, "truncation": "4"},
                   {"fwhm": 1e9, "dense_halfwidth": np.bool_(True)},
                   {"fwhm": 1e9, "dense_halfwidth": [50.0]}, {"fwhm": 1e9, "dense_step": True},
                   {"fwhm": 1e9, "dense_step": "0.5"}, {"fwhm": 1e9, "auto_dense": "no"},
                   {"fwhm": 1e9, "auto_dense": 0}, {"fwhm": 1e9, "auto_dense": None}):
            with pytest.raises(ValueError):
                InhomogeneitySpec(**kw)
        assert InhomogeneitySpec(fwhm=1e9, n_samples=np.int64(3)).n_samples == 3
        ok = InhomogeneitySpec(fwhm=np.float64(1e9), truncation=4, dense_halfwidth=np.int64(50),
                               dense_step=np.float64(0.5), auto_dense=np.bool_(False))
        assert (ok.fwhm, ok.truncation, ok.dense_halfwidth, ok.dense_step) == (1e9, 4, 50, 0.5)
        assert InhomogeneitySpec(fwhm=0).sigma == 0.0

    def test_shift_weights_normalized(self, lambda_spec):
        for fwhm in (0.0, 1e8, 140e9):
            shifts, w = shift_samples(
                InhomogeneitySpec(fwhm=fwhm, n_samples=201), 1e7
            )
            assert w.sum() == pytest.approx(1.0)
            assert np.all(np.diff(shifts) > 0)
            assert 0.0 in shifts


class TestThreshold:
    def test_marginal_boundary_case(self):
        rep = eit_threshold(180e6, 140e9, 0.23e6)
        assert rep.min_omega_c == pytest.approx(179.44e6, rel=1e-3)
        assert 0.95 <= rep.margin <= 1.05
        assert rep.satisfied

    def test_table_regime_far_below(self):
        rep = eit_threshold(3e6, 100e9, 0.1e6)
        assert not rep.satisfied
        assert rep.margin == pytest.approx(9e-4, rel=1e-6)

    def test_zero_dephasing(self):
        rep = eit_threshold(1.0, 140e9, 0.0)
        assert rep.satisfied
        assert rep.min_omega_c == 0.0

    def test_boundary_is_strict(self):
        rep = eit_threshold(2.0, 2.0, 2.0)
        assert rep.min_omega_c == 2.0
        assert not rep.satisfied

    def test_power_scaling(self):
        assert rabi_from_power(1e-3, 7.4e6, 1e-3) == pytest.approx(7.4e6)
        assert rabi_from_power(4e-3, 7.4e6, 1e-3) == pytest.approx(14.8e6)
        assert rabi_from_power(0.6, 7.4e6, 1e-3) == pytest.approx(181e6, rel=0.02)
        assert power_from_rabi(14.8e6, 7.4e6, 1e-3) == pytest.approx(4e-3)

    def test_invalid_inputs(self):
        # A non-finite argument used to return nan, or satisfied=True for an
        # infinite omega_c.
        for call, args in [
            (rabi_from_power, (-1.0, 7.4e6, 1e-3)), (eit_threshold, (-1.0, 1.0, 1.0)),
            (eit_threshold, (np.nan, 1e6, 1e4)), (eit_threshold, (1e6, np.nan, 1e4)),
            (eit_threshold, (1e6, 1e6, np.nan)), (eit_threshold, (np.inf, 1e6, 1e4)),
            (rabi_from_power, (np.nan, 1e6, 1e-3)), (rabi_from_power, (1e-3, np.nan, 1e-3)),
            (rabi_from_power, (1e-3, 1e6, np.inf)),
        ]:
            with pytest.raises(ValueError):
                call(*args)

    @pytest.mark.parametrize("omega, omega_ref, power_ref", [
        (-1.0, 7.4e6, 1e-3), (1e6, 0.0, 1e-3), (1e6, 7.4e6, 0.0),
        (np.nan, 7.4e6, 1e-3), (1e6, np.inf, 1e-3), (1e6, 7.4e6, np.nan),
    ])
    def test_invalid_calibration(self, omega, omega_ref, power_ref):
        with pytest.raises(ValueError, match="invalid calibration"):
            power_from_rabi(omega, omega_ref, power_ref)

    @pytest.mark.parametrize("make, message", [
        (lambda: SpectrumTrace([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]), "strictly increasing"),
        (lambda: SpectrumTrace([0.0, 1.0, 2.0], [1.0, 1.0]), "length mismatch"),
        (lambda: spectra.MagnetoMap([0.0, 1.0], [0.0, 1e-3], np.zeros((2, 3))),
         "inconsistent with grids"),
    ], ids=["grid_order", "trace_length", "map_shape"])
    def test_result_shapes_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestMagnetoMap:
    GROUND = SpinModel(d=2e7, e=2e6, g_factor=2.0, angle_deg=30.0)
    EXCITED = SpinModel(d=1e7, e=0.0, g_factor=2.0, angle_deg=30.0)

    def test_empty_b_range_single_row(self):
        template = presets.five_level_double_eit(delta_k=5e6, delta_54=3e6)
        grid = np.linspace(-1e7, 1e7, 41)
        inhom = InhomogeneitySpec(fwhm=1e9, n_samples=201)
        g = replace(self.GROUND, b_field=2e-4)
        e = replace(self.EXCITED, b_field=2e-4)
        mp = magneto_map(template, g, e, [], grid, inhom)
        assert mp.absorbance.shape == (1, 41)
        # equals the spectrum of the template with energies replaced by the
        # spin-model eigenvalues at the model's own field
        ts = level_structure(g, e)
        levels = []
        for lv in template.levels:
            k = int(lv.label[1:]) - 1
            levels.append(
                replace(lv, energy=ts.ground[k] if lv.manifold == "ground" else ts.excited[k])
            )
        direct = inhomogeneous_spectrum(template.with_levels(levels), inhom, grid)
        assert np.array_equal(mp.absorbance[0], direct.absorbance)

    @pytest.mark.parametrize("label", ["g0", "g4"])
    def test_label_outside_g1_g3_rejected(self, label):
        # g0 would read index -1 (g3's energy), g4 index 3 (past the end)
        template = presets.five_level_double_eit(delta_k=5e6, delta_54=3e6)
        renamed = template.with_levels(
            replace(lv, label=label) if lv.label == "g3" else lv for lv in template.levels
        )
        with pytest.raises(ValueError, match=label):
            magneto_map(renamed, self.GROUND, self.EXCITED, [1e-4],
                        np.linspace(-1e7, 1e7, 5), InhomogeneitySpec(fwhm=1e9, n_samples=3))

    def test_secondary_dip_tracks_spin_splitting(self):
        # the g1-g3 dark resonance sits at delta = Delta_k - Delta_54
        # = E(g2) - E(g3) of the spin model, whatever B does to the levels
        template = presets.five_level_double_eit(delta_k=5e6, delta_54=3e6)
        grid = np.linspace(-1.5e7, 1.5e7, 151)
        step = grid[1] - grid[0]
        inhom = InhomogeneitySpec(fwhm=1e9, n_samples=201)
        for b in (1e-4, 2e-4):
            mp = magneto_map(template, self.GROUND, self.EXCITED, [b], grid, inhom)
            ts = level_structure(
                replace(self.GROUND, b_field=b), replace(self.EXCITED, b_field=b)
            )
            expect = float(ts.ground[1] - ts.ground[2])
            tr = SpectrumTrace(grid, mp.absorbance[0])
            mins = tr.delta_grid[local_minima(tr)]
            assert mins.size >= 2
            assert np.abs(mins - expect).min() <= step
            assert np.abs(mins - 0.0).min() <= step


class TestTraceMetrics:
    def test_dip_metrics_on_synthetic_dip(self):
        x = np.linspace(-10, 10, 401)
        a = np.exp(-0.5 * (x / 4.0) ** 2) * (1.0 - 0.6 * np.exp(-0.5 * (x / 0.5) ** 2))
        m = dip_metrics(SpectrumTrace(x, a))
        assert abs(m["dip_delta"]) <= x[1] - x[0]
        # notch floor 0.4, shoulders ~0.93 (envelope where the notch fades):
        # contrast = (0.93 - 0.4) / 0.93
        assert m["contrast"] == pytest.approx(0.57, abs=0.03)
        assert 0.8 < m["dip_fwhm"] < 1.6

    def test_dip_fwhm_interpolates_the_half_level(self):
        # A coarse grid (step 0.5) puts no point on the half level; the width
        # comes from interpolating both crossings, not from the grid points.
        x = np.linspace(-10, 10, 41)
        a = 1.0 - 0.8 * np.exp(-0.5 * (x / 1.3) ** 2)
        exact = 2.0 * 1.3 * np.sqrt(2.0 * np.log(2.0))
        assert dip_metrics(SpectrumTrace(x, a))["dip_fwhm"] == pytest.approx(exact, rel=5e-3)

    def test_no_dip(self):
        x = np.linspace(-10, 10, 101)
        m = dip_metrics(SpectrumTrace(x, np.exp(-0.5 * x**2)))
        assert m["dip"] is None and m["contrast"] == 0.0

    def test_feature_centroid_of_shifted_peak(self):
        x = np.linspace(-10, 10, 801)
        a = 0.2 + np.exp(-0.5 * ((x - 1.5) / 2.0) ** 2)
        assert feature_centroid(SpectrumTrace(x, a)) == pytest.approx(1.5, abs=0.05)

    def test_feature_centroid_of_flat_trace_is_refused(self):
        x = np.linspace(-10, 10, 41)
        with pytest.raises(ValueError, match="no absorption feature"):
            feature_centroid(SpectrumTrace(x, np.full_like(x, 0.3)))

    def test_default_grid_spans_feature(self, lambda_spec):
        grid = default_delta_grid(lambda_spec)
        assert len(grid) == 201
        assert grid[0] == -6.0 * homogeneous_linewidth(lambda_spec)

    def test_default_grid_without_a_width(self):
        # No excited decay and no control coupling: the width falls back to 1 Hz.
        spec = LevelSystemSpec(
            levels=(Level("g1", "ground"), Level("e2", "excited")),
            drives=(DriveField("probe", (Coupling("g1", "e2", 1e4),)), DriveField("control", ())),
        )
        assert np.array_equal(default_delta_grid(spec), np.linspace(-6.0, 6.0, 201))

    def test_trace_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3))
