"""Liouvillian construction, steady states, and the time-evolution oracle."""

from unittest import mock

import numpy as np
import pytest

from eitsim import presets
from eitsim.lindblad import (
    TWO_PI,
    DegenerateSteadyState,
    build_liouvillian,
    check_density_matrix,
    dissipator_superoperator,
    evolve,
    hamiltonian_superoperator,
    liouvillian_for,
    steady_state,
)
from eitsim.model import (
    Coupling,
    DecayChannel,
    Dephasing,
    DetuningPoint,
    DriveField,
    Level,
    LevelSystemSpec,
)
from eitsim.spectra import InhomogeneitySpec, homogeneous_spectrum, inhomogeneous_spectrum
from test_spectra import random_model


class TestBuild:
    def test_two_level_decay_rates(self):
        # Damped two-level structure read off the generator directly:
        # d rho_ee/dt = -2pi*Gamma rho_ee, d rho_ge/dt = -pi*Gamma rho_ge.
        gamma = 3.0
        h = np.zeros((2, 2), dtype=complex)
        liouv = build_liouvillian(h, decays=[DecayChannel("e", "g", gamma)],
                                  labels=("g", "e"))
        m = liouv.matrix
        # vec index i + 2j: rho_ee -> 3, rho_ge -> 2 (i=0, j=1)
        assert m[3, 3].real == pytest.approx(-TWO_PI * gamma)
        assert m[2, 2].real == pytest.approx(-TWO_PI * gamma / 2.0)
        # population feeds the ground state
        assert m[0, 3].real == pytest.approx(TWO_PI * gamma)

    def test_dephasing_coherence_rate(self):
        gamma = 0.7
        liouv = build_liouvillian(
            np.zeros((2, 2), dtype=complex),
            dephasings=[Dephasing("e", gamma)],
            labels=("g", "e"),
        )
        # convention: the g-e coherence decays at exactly gamma (Hz)
        assert liouv.matrix[2, 2].real == pytest.approx(-TWO_PI * gamma)
        assert liouv.matrix[3, 3].real == pytest.approx(0.0)

    def test_lambda_is_nine_by_nine(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 0.0))
        assert liouv.matrix.shape == (9, 9)

    def test_trace_preserving(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(1e8, 3e6))
        n = liouv.n_levels
        # the trace-of-rho row block must vanish: sum over populations of
        # each column of the generator restricted to trace components
        tr_rows = liouv.matrix[np.arange(n) * (n + 1), :].sum(axis=0)
        assert np.abs(tr_rows).max() < 1e-6 * np.abs(liouv.matrix).max()

    def test_unique_zero_eigenvalue(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 0.0))
        lam = np.linalg.eigvals(liouv.matrix)
        near_zero = np.abs(lam.real) < 1e-3
        assert int(near_zero.sum()) == 1
        assert np.all(lam.real[~near_zero] < 0.0)

    def test_dissipators_add(self, rng):
        n = 3
        labels = ("g1", "g2", "e2")
        a = [DecayChannel("e2", "g1", 5e6)]
        b = [DecayChannel("e2", "g2", 5e6), DecayChannel("g1", "g2", 1e4)]
        full = dissipator_superoperator(n, labels, decays=a + b)
        split = dissipator_superoperator(n, labels, decays=a) + dissipator_superoperator(
            n, labels, decays=b
        )
        assert np.allclose(full, split)

    @staticmethod
    def jump_form(n, labels, decays, dephasings, rho):
        """sum_k L_k rho L_k^dag - {L_k^dag L_k, rho}/2 by n x n products."""
        idx = {lbl: k for k, lbl in enumerate(labels)}
        jumps = [(ch.target, ch.source, ch.rate) for ch in decays if ch.rate]
        jumps += [(dp.level, dp.level, 2.0 * dp.rate) for dp in dephasings if dp.rate]
        out = np.zeros((n, n), dtype=complex)
        for t, s, rate in jumps:
            jump = np.zeros((n, n))
            jump[idx[t], idx[s]] = np.sqrt(TWO_PI * rate)
            ldl = jump.T @ jump
            out += jump @ rho @ jump.T - 0.5 * (ldl @ rho + rho @ ldl)
        return out

    def test_dissipator_matches_jump_operators(self):
        lam = presets.three_level_lambda()  # g2 both decays and dephases
        models = [lam, presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)]
        models += [random_model(np.random.default_rng(seed)) for seed in range(12)]
        # zero-rate channels add nothing and name no level that is looked up
        cases = [(m.n_levels, m.labels, m.decays, m.dephasings) for m in models] + [(
            3, lam.labels,
            lam.decays + (DecayChannel("g1", "e2", 0.0), DecayChannel("x", "y", 0.0)),
            lam.dephasings + (Dephasing("e2", 0.0), Dephasing("g1", 3e5), Dephasing("x", 0.0)),
        )]
        rng = np.random.default_rng(11)
        for n, labels, decays, dephasings in cases:
            d = dissipator_superoperator(n, labels, decays, dephasings)
            for _ in range(3):
                a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
                rho = 0.5 * (a + a.conj().T)
                want = self.jump_form(n, labels, decays, dephasings, rho)
                got = (d @ rho.ravel(order="F")).reshape((n, n), order="F")
                assert np.abs(got - want).max() <= 1e-15 * np.abs(d).max(), labels

    def test_hamiltonian_part_antihermitian_in_superspace(self):
        h = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
        sup = hamiltonian_superoperator(h)
        # pure commutator part conserves purity: eigenvalues all imaginary
        lam = np.linalg.eigvals(sup)
        assert np.abs(lam.real).max() < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_liouvillian(np.zeros((2, 3)))

    def test_default_labels_are_level_indices(self):
        h = np.array([[0.0, 1e5], [1e5, -3e6]], dtype=complex)
        named = build_liouvillian(h, [DecayChannel("e", "g", 1e6)], [Dephasing("e", 2e5)],
                                  labels=("g", "e"))
        default = build_liouvillian(h, [DecayChannel("1", "0", 1e6)], [Dephasing("1", 2e5)])
        assert np.array_equal(default.matrix, named.matrix)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            build_liouvillian(np.zeros((2, 2)), labels=("g", "e", "x"))


class TestSteadyState:
    def test_undriven_two_level_decays_to_ground(self):
        liouv = build_liouvillian(
            np.zeros((2, 2), dtype=complex),
            decays=[DecayChannel("e", "g", 1e6)],
            labels=("g", "e"),
        )
        rho = steady_state(liouv)
        assert rho[0, 0].real == pytest.approx(1.0)
        assert abs(rho[1, 1]) < 1e-12

    def test_saturation_closed_form(self, rng):
        # resonantly driven two-level: rho_ee = s / (2(1+s)), s = 2 Omega^2/Gamma^2
        for _ in range(20):
            gamma = float(10.0 ** rng.uniform(4, 8))
            omega = float(10.0 ** rng.uniform(4, 8))
            h = np.array([[0, omega / 2], [omega / 2, 0]], dtype=complex)
            liouv = build_liouvillian(h, decays=[DecayChannel("e", "g", gamma)],
                                      labels=("g", "e"))
            rho = steady_state(liouv)
            s = 2.0 * omega**2 / gamma**2
            assert rho[1, 1].real == pytest.approx(s / (2.0 * (1.0 + s)), rel=1e-8)

    def test_weak_probe_coherence_lorentzian(self):
        # Im rho_ge = (Omega/2)(Gamma/2) / ((Gamma/2)^2 + Delta^2 + Omega^2/2)
        gamma, omega, delta = 1e6, 1e4, 3e5
        h = np.array([[0, omega / 2], [omega / 2, -delta]], dtype=complex)
        liouv = build_liouvillian(h, decays=[DecayChannel("e", "g", gamma)],
                                  labels=("g", "e"))
        rho = steady_state(liouv)
        expect = (omega / 2) * (gamma / 2) / ((gamma / 2) ** 2 + delta**2 + omega**2 / 2)
        assert rho[0, 1].imag == pytest.approx(expect, rel=1e-6)

    def test_residual_bound(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(2e8, 1e5))
        rho = steady_state(liouv)
        resid = np.abs(liouv.matrix @ rho.flatten(order="F")).max()
        assert resid < 1e-10 * np.abs(liouv.matrix).max()

    def test_dark_state_coherence(self, lambda_spec):
        # At two-photon resonance with no ground dephasing the system is
        # trapped in the dark superposition: probe coherence collapses by
        # more than three orders of magnitude relative to peak absorption.
        from dataclasses import replace

        spec = presets.three_level_lambda(gamma_g_star=0.0, gamma_g=0.0)
        rho0 = steady_state(liouvillian_for(spec, DetuningPoint(0.0, 0.0)))
        dark = abs(rho0[spec.index("g1"), spec.index("e2")].imag)
        rho1 = steady_state(liouvillian_for(spec, DetuningPoint(0.0, 2e6)))
        bright = abs(rho1[spec.index("g1"), spec.index("e2")].imag)
        assert dark < 1e-3 * bright

    def test_degenerate_disconnected(self):
        # two disconnected undriven two-level atoms -> 2-dim null space
        spec = LevelSystemSpec(
            levels=(
                Level("g1", "ground"),
                Level("g2", "ground", 1e9),
                Level("e2", "excited"),
            ),
            drives=(DriveField("probe", ()), DriveField("control", ())),
            decays=(DecayChannel("e2", "g1", 1e6),),
        )
        liouv = liouvillian_for(spec, DetuningPoint(0.0, 0.0))
        with pytest.raises(DegenerateSteadyState):
            steady_state(liouv)
        # the batched sweeps fall back to the same single-point solve
        grid = np.linspace(-1e6, 1e6, 5)
        with pytest.raises(DegenerateSteadyState):
            homogeneous_spectrum(spec, 0.0, grid)
        # as rows per shift and reduced over the shifts
        for n_samples in (11, 101):
            with pytest.raises(DegenerateSteadyState):
                inhomogeneous_spectrum(spec, InhomogeneitySpec(fwhm=1e8, n_samples=n_samples),
                                       grid)

    def test_scaling_invariance(self, rng):
        # multiplying all rates, Rabi amplitudes and detunings by s rescales
        # the generator by s and leaves the steady state unchanged
        for s in (10.0, 0.01):
            spec = presets.three_level_lambda()
            point = DetuningPoint(5e6, 2e5)
            rho_a = steady_state(liouvillian_for(spec, point))
            scaled = presets.three_level_lambda(
                omega_p=1e4 * s, omega_c=3e6 * s, gamma_e=1e7 * s,
                gamma_g=1e4 * s, gamma_g_star=1e5 * s, ground_splitting=1e9,
            )
            rho_b = steady_state(
                liouvillian_for(scaled, DetuningPoint(5e6 * s, 2e5 * s))
            )
            assert np.abs(rho_a - rho_b).max() < 1e-8

    def test_invariants_over_random_detunings(self, lambda_spec, rng):
        for _ in range(25):
            point = DetuningPoint(
                float(rng.uniform(-1e9, 1e9)), float(rng.uniform(-1e7, 1e7))
            )
            rho = steady_state(liouvillian_for(lambda_spec, point))
            check_density_matrix(rho)

    @pytest.mark.parametrize("spec", [
        presets.three_level_lambda(),
        presets.five_level_mismatch(delta_k=presets.GAMMA_E),
        presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6),
    ], ids=["lambda", "fig4", "fig5"])
    def test_svd_fallback_matches_lu(self, spec):
        # With the LU solve refused, the SVD null vector is the same state.
        for point in (DetuningPoint(0.0, 0.0), DetuningPoint(3e7, -2e6),
                      DetuningPoint(-1e8, 5e6)):
            liouv = liouvillian_for(spec, point)
            lu = steady_state(liouv)
            with mock.patch.object(np.linalg, "solve",
                                   side_effect=np.linalg.LinAlgError) as solve:
                svd = steady_state(liouv)
            assert solve.called
            assert np.abs(svd - lu).max() <= 1e-11 * np.abs(lu).max()

    @pytest.mark.parametrize("rho, message", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([0.5, 0.6]), "trace"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
    ], ids=["hermitian", "trace", "positive"])
    def test_density_matrix_check_failures(self, rho, message):
        with pytest.raises(ValueError, match=message):
            check_density_matrix(rho.astype(complex))


class TestEvolve:
    def test_t_zero_identity(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 0.0))
        rho0 = np.eye(3, dtype=complex) / 3.0
        assert np.array_equal(evolve(rho0, liouv, 0.0), rho0)

    def test_analytic_two_level_decay(self):
        gamma = 2e5
        liouv = build_liouvillian(
            np.zeros((2, 2), dtype=complex),
            decays=[DecayChannel("e", "g", gamma)],
            labels=("g", "e"),
        )
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        for t in (1e-7, 1e-6, 5e-6):
            rho = evolve(rho0, liouv, t)
            assert rho[1, 1].real == pytest.approx(np.exp(-TWO_PI * gamma * t), abs=1e-9)

    def test_trace_preserved(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(1e7, 1e5))
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rho = evolve(rho0, liouv, 1e-4)
        assert abs(np.trace(rho) - 1.0) < 1e-8

    def test_matches_steady_state(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 1e5))
        target = steady_state(liouv)
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho = evolve(rho0, liouv, 10.0 / presets.GAMMA_G)
        assert np.abs(rho - target).max() < 1e-8

    def test_negative_time_rejected(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 0.0))
        with pytest.raises(ValueError):
            evolve(np.eye(3) / 3.0, liouv, -1.0)

    def test_rho0_shape_rejected(self, lambda_spec):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 0.0))
        with pytest.raises(ValueError, match="rho0 dimension mismatch"):
            evolve(np.eye(2) / 2.0, liouv, 1e-6)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, lambda_spec, t):
        liouv = liouvillian_for(lambda_spec, DetuningPoint(0.0, 0.0))
        with pytest.raises(ValueError, match="t must be finite"):
            evolve(np.eye(3) / 3.0, liouv, t)

    def test_matches_steady_state_on_random_models(self):
        # 40 e-folds of the generator's slowest mode, at a random detuning
        # point of each of 200 random models, take rho0 to steady_state's
        # state; the worst of the 200 reads 4.9e-9.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            spec = random_model(rng)
            point = DetuningPoint(float(rng.uniform(-1e8, 1e8)), float(rng.uniform(-1e8, 1e8)))
            liouv = liouvillian_for(spec, point)
            # The largest real part is the steady state's 0.
            slowest = -np.sort(np.linalg.eigvals(liouv.matrix).real)[-2]
            rho0 = np.zeros((spec.n_levels, spec.n_levels), dtype=complex)
            rho0[0, 0] = 1.0
            rho = evolve(rho0, liouv, 40.0 / slowest)
            assert np.abs(rho - steady_state(liouv)).max() < 1e-8, seed
