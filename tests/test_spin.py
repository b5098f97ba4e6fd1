"""Spin-1 manifold Hamiltonians, transition sets, and the overlap-angle root."""

import numpy as np
import pytest
from dataclasses import replace

from eitsim.spin import (
    MU_B_HZ_PER_T,
    NoSignChange,
    SpinModel,
    delta_k,
    find_overlap_angle,
    level_structure,
    spin_hamiltonian,
)


class TestHamiltonian:
    def test_zero_field_eigenvalues(self):
        m = SpinModel(d=1.336e9, e=0.0)
        w = np.linalg.eigvalsh(spin_hamiltonian(m))
        assert np.allclose(np.sort(w), [0.0, 1.336e9, 1.336e9])

    def test_axial_zeeman(self):
        d, g, b = 1.336e9, 2.0, 3e-3
        m = SpinModel(d=d, e=0.0, g_factor=g, b_field=b, angle_deg=0.0)
        w = np.sort(np.linalg.eigvalsh(spin_hamiltonian(m)))
        z = g * MU_B_HZ_PER_T * b
        assert np.allclose(w, np.sort([0.0, d - z, d + z]))

    def test_transverse_quadratic_shift(self):
        # perpendicular field: the m=0 level shifts down quadratically,
        # -(g muB B)^2 / D to leading order
        d, g = 1.0e9, 2.0
        for b in (1e-4, 2e-4):
            m = SpinModel(d=d, e=0.0, g_factor=g, b_field=b, angle_deg=90.0)
            w0 = np.sort(np.linalg.eigvalsh(spin_hamiltonian(m)))[0]
            z = g * MU_B_HZ_PER_T * b
            assert w0 == pytest.approx(-z**2 / d, rel=0.02)

    def test_hermitian_and_trace(self, rng):
        for _ in range(100):
            m = SpinModel(
                d=float(rng.uniform(-2e9, 2e9)),
                e=float(rng.uniform(-1e8, 1e8)),
                g_factor=float(rng.uniform(1.0, 3.0)),
                b_field=float(rng.uniform(0.0, 0.01)),
                angle_deg=float(rng.uniform(0.0, 180.0)),
            )
            h = spin_hamiltonian(m)
            assert np.abs(h - h.conj().T).max() == 0.0
            # Zeeman and transverse terms are traceless: tr H = 2D always
            assert np.trace(h).real == pytest.approx(2.0 * m.d, abs=1e-3 * max(abs(m.d), 1.0))

    def test_eigenvalue_continuity_in_field(self):
        m = SpinModel(d=1.4e9, e=5e7, g_factor=2.0, angle_deg=57.0)
        b = np.linspace(0.0, 6e-3, 301)
        w = np.array(
            [np.linalg.eigvalsh(spin_hamiltonian(replace(m, b_field=bk))) for bk in b]
        )
        # step bound: |dE/dB| <= g muB, plus a margin
        bound = 1.5 * m.g_factor * MU_B_HZ_PER_T * (b[1] - b[0])
        assert np.abs(np.diff(w, axis=0)).max() < bound

    def test_invalid_models(self):
        with pytest.raises(ValueError):
            SpinModel(d=1e9, b_field=-1.0)
        with pytest.raises(ValueError):
            SpinModel(d=1e9, angle_deg=200.0)
        with pytest.raises(ValueError):
            SpinModel(d=float("nan"))


class TestLevelStructure:
    def test_offsets_identity(self, rng):
        for _ in range(20):
            g = SpinModel(d=float(rng.uniform(0, 2e9)), e=float(rng.uniform(0, 1e8)),
                          b_field=float(rng.uniform(0, 5e-3)), angle_deg=30.0)
            x = SpinModel(d=float(rng.uniform(0, 2e9)), e=float(rng.uniform(0, 1e8)),
                          b_field=g.b_field, angle_deg=30.0)
            ts = level_structure(g, x)
            assert np.all(np.diff(ts.ground) >= 0)
            assert np.all(np.diff(ts.excited) >= 0)
            expect = ts.excited[None, :] - ts.ground[:, None]
            assert np.array_equal(ts.offsets, expect)

    def test_degenerate_zero_field_pair(self):
        ts = level_structure(SpinModel(d=1e9), SpinModel(d=5e8))
        assert ts.ground[1] == ts.ground[2] == 1e9

    def test_delta_k_arithmetic(self):
        ts = level_structure(SpinModel(d=1e9), SpinModel(d=5e8))
        # offsets: e_j - g_i; mismatch of (g2->e2, g3->e3) vs hand arithmetic
        expect = (ts.excited[2] - ts.ground[2]) - (ts.excited[1] - ts.ground[1])
        assert delta_k(ts) == expect

    def test_delta_k_antisymmetric(self):
        ts = level_structure(
            SpinModel(d=1.3e9, e=2e7, b_field=2e-3, angle_deg=40.0),
            SpinModel(d=0.9e9, e=0.0, b_field=2e-3, angle_deg=40.0),
        )
        assert delta_k(ts, (1, 1), (2, 2)) == -delta_k(ts, (2, 2), (1, 1))

    def test_coincident_transitions_zero(self):
        # identical manifolds: every offset pair matches exactly
        m = SpinModel(d=1e9, e=3e7, b_field=1e-3, angle_deg=30.0)
        assert delta_k(level_structure(m, m)) == 0.0


class TestOverlapAngle:
    # Distinct D, E and g between the manifolds make the control-transition
    # mismatch angle-dependent with a root inside (0, 90).
    GROUND = SpinModel(d=1.336e9, e=1.87e7, g_factor=2.0)
    EXCITED = SpinModel(d=0.97e9, e=0.0, g_factor=2.3)

    def _root_by_scan(self, b):
        angles = np.linspace(1.0, 89.0, 4001)
        vals = [
            delta_k(
                level_structure(
                    replace(self.GROUND, b_field=b, angle_deg=a),
                    replace(self.EXCITED, b_field=b, angle_deg=a),
                )
            )
            for a in angles
        ]
        vals = np.array(vals)
        sign_change = np.nonzero(np.diff(np.sign(vals)))[0]
        assert sign_change.size >= 1
        k = sign_change[0]
        return float(np.interp(0.0, [vals[k + 1], vals[k]][:: int(np.sign(vals[k] - vals[k + 1]))],
                               [angles[k + 1], angles[k]][:: int(np.sign(vals[k] - vals[k + 1]))]))

    def test_root_matches_dense_scan(self):
        b = 6e-3
        dense = self._root_by_scan(b)
        found = find_overlap_angle(self.GROUND, self.EXCITED, b, (1.0, 89.0))
        assert found == pytest.approx(dense, abs=0.02)

    def test_root_residual_below_tolerance(self):
        b = 6e-3
        a = find_overlap_angle(self.GROUND, self.EXCITED, b, (1.0, 89.0))
        ts = level_structure(
            replace(self.GROUND, b_field=b, angle_deg=a),
            replace(self.EXCITED, b_field=b, angle_deg=a),
        )
        assert abs(delta_k(ts)) < 1e3

    def test_window_end_that_is_an_exact_root(self):
        # Identical manifolds give identical transitions: the mismatch is
        # 0.0 at every angle, so the window's first end is returned as found.
        assert find_overlap_angle(self.GROUND, self.GROUND, 6e-3, (1.0, 89.0)) == 1.0

    def test_window_without_root(self):
        b = 6e-3
        root = find_overlap_angle(self.GROUND, self.EXCITED, b, (1.0, 89.0))
        with pytest.raises(NoSignChange):
            find_overlap_angle(
                self.GROUND, self.EXCITED, b, (max(root - 10.0, 1.0), root - 5.0)
            )
