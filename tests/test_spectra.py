"""Spectrum layer: absorption observable, ensemble averaging, thresholds,
magneto maps, and the dip metrics."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from eitsim import presets
from eitsim import spectra
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


class TestSweepKernel:
    def test_matches_single_point_solve_on_random_models(self, monkeypatch):
        # Same tolerances as test_sweep_matches_single_point_solve_five_level.
        rng = np.random.default_rng(8)
        grid = np.linspace(-1e8, 1e8, 21)
        fallbacks = []
        point_row = _SweepKernel._point_row
        monkeypatch.setattr(
            _SweepKernel, "_point_row",
            lambda self, d, t: fallbacks.append(d) or point_row(self, d, t),
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
        assert fallbacks == []  # every shift went through the resolvent

    @pytest.mark.parametrize("poison", ["residual", "condition", "singular"])
    def test_failed_shift_is_solved_point_by_point(self, lambda_spec, monkeypatch, poison):
        grid = np.linspace(-1e7, 1e7, 21)
        shifts = np.array([-3e7, 0.0, 5e7])
        kernel = _SweepKernel(lambda_spec)
        clean = kernel.absorbance(shifts, grid)
        resolvent = _SweepKernel._resolvent

        def poisoned(self, a, *axis):
            if poison == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            ainv, gw, winv, lam, cond = resolvent(self, a, *axis)
            if poison == "residual":
                ainv[1] = np.nan
            else:
                cond[1] = np.inf
            return ainv, gw, winv, lam, cond

        monkeypatch.setattr(_SweepKernel, "_resolvent", poisoned)
        rows = kernel.absorbance(shifts, grid)
        redone = range(3) if poison == "singular" else [1]
        for k in range(3):
            if k in redone:
                assert np.array_equal(rows[k], point_by_point(lambda_spec, shifts[k], grid))
            else:
                assert np.array_equal(rows[k], clean[k])

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           shifts=st.lists(st.floats(-1e11, 1e11), min_size=1, max_size=3),
           per_delta=st.booleans())
    def test_rows_match_single_point_solve_in_both_orientations(self, seed, shifts, per_delta):
        # The tolerances of test_matches_single_point_solve_on_random_models.
        spec = random_model(np.random.default_rng(seed))
        grid = np.linspace(-1e8, 1e8, 21)
        shifts = np.array([0.0] + shifts)
        kernel = _SweepKernel(spec)
        # No line may fall back: the rows must come from the pole form.
        with mock.patch.object(_SweepKernel, "_point_row", side_effect=AssertionError):
            rows = kernel.absorbance(shifts, grid, per_delta)
        assert rows.shape == (len(shifts), len(grid))
        single = np.array([point_by_point(spec, d, grid) for d in shifts])
        peak = np.abs(single[0]).max()
        assert np.abs(rows - single).max() <= 1e-12 * peak
        assert (np.abs(rows - single).max(axis=1)
                <= 1e-10 * np.abs(single).max(axis=1)).all()

    @pytest.mark.parametrize("poison", ["residual", "condition", "singular"])
    def test_failed_two_photon_point_is_solved_point_by_point(self, lambda_spec,
                                                               monkeypatch, poison):
        # Per two-photon point the factorised lines are the columns.
        grid = np.array([-1e7, 2e6, 1e7])
        shifts = np.linspace(-1e8, 1e8, 21)
        kernel = _SweepKernel(lambda_spec)
        clean = kernel.absorbance(shifts, grid, per_delta=True)
        resolvent = _SweepKernel._resolvent

        def poisoned(self, a, *axis):
            if poison == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            ainv, gw, winv, lam, cond = resolvent(self, a, *axis)
            if poison == "residual":
                ainv[1] = np.nan
            else:
                cond[1] = np.inf
            return ainv, gw, winv, lam, cond

        monkeypatch.setattr(_SweepKernel, "_resolvent", poisoned)
        cols = kernel.absorbance(shifts, grid, per_delta=True)
        redone = range(3) if poison == "singular" else [1]
        for k in range(3):
            if k in redone:
                single = [probe_absorption(steady_state(liouvillian_for(
                    lambda_spec, DetuningPoint(d, grid[k]))), lambda_spec) for d in shifts]
                assert np.array_equal(cols[:, k], single)
            else:
                assert np.array_equal(cols[:, k], clean[:, k])

    def test_cost_rule_picks_the_cheaper_orientation(self):
        lam = _SweepKernel(presets.three_level_lambda())
        fig5 = _SweepKernel(presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6))
        assert (len(lam.a0), len(lam.tp_idx), len(lam.delta_idx)) == (9, 4, 4)
        assert (len(fig5.a0), len(fig5.tp_idx), len(fig5.delta_idx)) == (25, 8, 12)
        # The Lambda power-series fit: 301 shifts x 41 points, 52.7k against
        # 73.7k; the fig5 spectrum: 1001 shifts x 226 points, 2.86M against 2.44M.
        assert lam.per_delta(301, 41)
        assert not fig5.per_delta(1001, 226)
        # One shift (a homogeneous spectrum) always goes per shift, and so
        # does criterion 9's 801 x 201 sweep.
        assert not lam.per_delta(1, 41) and not fig5.per_delta(1, 226)
        assert not fig5.per_delta(801, 201)

    def test_two_photon_chunks_match_shift_chunks(self, lambda_spec):
        # 101 samples plus the dense tier: 301 shifts x 41 points, which
        # _sweep_rows splits into tiles of all 301 shifts (the closed-form
        # axis) by max(1, _POINTS // 301) two-photon points: at 2560, five
        # tiles of 8 points and one of 1.
        grid = np.linspace(-1e7, 1e7, 41)
        shifts, weights = shift_samples(
            InhomogeneitySpec(fwhm=presets.SIM_FWHM, n_samples=101),
            homogeneous_linewidth(lambda_spec))
        kernel = _SweepKernel(lambda_spec)
        assert kernel.per_delta(len(shifts), len(grid))
        ref = weights @ kernel.absorbance(shifts, grid, per_delta=False)
        chunks = []
        absorbance = _SweepKernel.absorbance

        def recorded(self, d, t, per_delta=None):
            chunks.append((len(d), len(t), per_delta))
            return absorbance(self, d, t, per_delta)

        with mock.patch.object(_SweepKernel, "absorbance", recorded):
            tr = inhomogeneous_spectrum(lambda_spec, InhomogeneitySpec(
                fwhm=presets.SIM_FWHM, n_samples=101), grid)
        step = max(1, spectra._POINTS // 301)
        full, rest = divmod(41, step)
        assert chunks == [(301, step, True)] * full + [(301, rest, True)] * (rest > 0)
        assert np.abs(tr.absorbance - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_memory_of_one_two_photon_chunk(self):
        # A chunk of the fig5 sweep factorised per two-photon point: 3 points
        # x 1001 shifts, no more points than the 16 shifts x 226 points of
        # test_memory_of_one_chunk.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)[:3]
        shifts = np.linspace(-3e11, 3e11, 1001)
        kernel.absorbance(shifts, grid, per_delta=True)
        tracemalloc.start()
        try:
            kernel.absorbance(shifts, grid, per_delta=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

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

    @pytest.mark.parametrize("shifts, points, per_delta", [(1, 41, False), (301, 3, True)])
    def test_tiles_split_a_long_line(self, lambda_spec, monkeypatch, shifts, points, per_delta):
        # At 16 points to a tile, one shift x 41 points goes per shift in
        # tiles of 16, 16 and 9 points, and 301 shifts x 3 points per
        # two-photon point in tiles of one point by up to 16 shifts.
        monkeypatch.setattr(spectra, "_POINTS", 16)
        kernel = _SweepKernel(lambda_spec)
        deltas = np.linspace(-3e7, 5e7, shifts)
        grid = np.linspace(-1e7, 1e7, points)
        assert kernel.per_delta(shifts, points) == per_delta
        whole = kernel.absorbance(deltas, grid, per_delta)
        tiles = []
        absorbance = _SweepKernel.absorbance

        def recorded(self, d, t, orientation=None):
            tiles.append((len(d), len(t), orientation))
            return absorbance(self, d, t, orientation)

        with mock.patch.object(_SweepKernel, "absorbance", recorded):
            rows = spectra._sweep_rows(kernel, deltas, grid, workers=1)
        if per_delta:
            assert tiles == [(16, 1, True)] * 54 + [(13, 1, True)] * 3
        else:
            assert tiles == [(1, 16, False), (1, 16, False), (1, 9, False)]
        # The same steps per point, but a matrix product may round one
        # point differently at another batch size.
        assert np.abs(rows - whole).max() <= 1e-13 * np.abs(whole).max()
        assert np.array_equal(rows, spectra._sweep_rows(kernel, deltas, grid, workers=3))

    @pytest.mark.parametrize("shifts, points, per_delta", [(16, 226, False), (1001, 3, True)])
    def test_memory_of_one_real_basis_chunk(self, shifts, points, per_delta):
        # The chunks of test_memory_of_one_chunk and of
        # test_memory_of_one_two_photon_chunk, in real arithmetic: about
        # 3.5 and 3.2 MiB, against 5.5 and 5.0 MiB in the complex basis.
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        kernel = _SweepKernel(spec)
        grid = np.linspace(-2e7, 2.5e7, 226)[:points]
        shifts = np.linspace(-3e11, 3e11, shifts)
        kernel.absorbance(shifts, grid, per_delta)
        tracemalloc.start()
        try:
            kernel.absorbance(shifts, grid, per_delta)
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

    def test_fallback_builds_the_dissipator_once(self, lambda_spec, monkeypatch):
        grid = np.linspace(-1e7, 1e7, 5)
        shifts = np.array([-3e7, 0.0, 5e7])
        built = []
        dissipator = spectra.dissipator_superoperator
        monkeypatch.setattr(spectra, "dissipator_superoperator",
                            lambda *args: built.append(args) or dissipator(*args))

        def singular(self, *args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(_SweepKernel, "_resolvent", singular)
        kernel = _SweepKernel(lambda_spec)
        rows = kernel.absorbance(shifts, grid)
        cols = kernel.absorbance(shifts, grid, per_delta=True)
        assert len(built) == 1  # 30 fallback points, one dissipator
        single = np.array([point_by_point(lambda_spec, d, grid) for d in shifts])
        assert np.array_equal(rows, single) and np.array_equal(cols, single)

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
        # Two ensembles per model, sized so that each runs in its own sweep
        # orientation: 17-21 shifts by at least as many two-photon points
        # goes per shift, and 17-61 shifts by 2-8 points per point.  At 12
        # points to a tile each spans several tiles, with its closed-form
        # axis (two-photon points per shift, shifts per point) split.
        # Small, because a model whose lines fall back is solved point by
        # point.
        spec = random_model(np.random.default_rng(seed))
        n_shift = 17 + 2 * (many % 3)
        sizes = {False: (n_shift, n_shift + few), True: (17 + 2 * many, 2 + few)}
        absorbance = _SweepKernel.absorbance
        for per_delta, (n_samples, n_tp) in sizes.items():
            inhom = InhomogeneitySpec(fwhm=fwhm, n_samples=n_samples, auto_dense=False)
            grid = np.linspace(-1e8, 1e8, n_tp)
            chunks, closed = [], []

            def recorded(self, d, t, orientation=None):
                chunks.append(orientation)
                closed.append(len(d) if orientation else len(t))
                return absorbance(self, d, t, orientation)

            with mock.patch.object(spectra, "_POINTS", 12):
                with mock.patch.object(_SweepKernel, "absorbance", recorded):
                    ref = inhomogeneous_spectrum(spec, inhom, grid, workers=1).absorbance
                other = inhomogeneous_spectrum(spec, inhom, grid, workers=workers).absorbance
            assert len(chunks) > 1 and set(chunks) == {per_delta}
            assert max(closed) < (n_samples if per_delta else n_tp)
            assert np.array_equal(ref, other)


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
        with pytest.raises(ValueError):
            rabi_from_power(-1.0, 7.4e6, 1e-3)
        with pytest.raises(ValueError):
            eit_threshold(-1.0, 1.0, 1.0)


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

    def test_no_dip(self):
        x = np.linspace(-10, 10, 101)
        m = dip_metrics(SpectrumTrace(x, np.exp(-0.5 * x**2)))
        assert m["dip"] is None and m["contrast"] == 0.0

    def test_feature_centroid_of_shifted_peak(self):
        x = np.linspace(-10, 10, 801)
        a = 0.2 + np.exp(-0.5 * ((x - 1.5) / 2.0) ** 2)
        assert feature_centroid(SpectrumTrace(x, a)) == pytest.approx(1.5, abs=0.05)

    def test_default_grid_spans_feature(self, lambda_spec):
        grid = default_delta_grid(lambda_spec)
        assert len(grid) == 201
        assert grid[0] == -6.0 * homogeneous_linewidth(lambda_spec)

    def test_trace_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3))
