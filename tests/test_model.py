"""Model declaration, validation, frame assignment and Hamiltonian assembly."""

import numpy as np
import pytest
from dataclasses import replace

from eitsim import presets
from eitsim.model import (
    Coupling,
    DecayChannel,
    Dephasing,
    DetuningPoint,
    DriveField,
    Level,
    LevelSystemSpec,
    NoConsistentFrame,
    assemble_hamiltonian,
    assign_rotating_frame,
    detuning_derivatives,
    validate_system,
)


def minimal_lambda(omega_p=1e4, omega_c=3e6):
    return LevelSystemSpec(
        levels=(
            Level("g1", "ground", 0.0),
            Level("g2", "ground", 1e9),
            Level("e2", "excited", 0.0),
        ),
        drives=(
            DriveField("probe", (Coupling("g1", "e2", omega_p),)),
            DriveField("control", (Coupling("g2", "e2", omega_c),)),
        ),
    )


class TestValidation:
    def test_minimal_lambda_ok(self):
        assert validate_system(minimal_lambda()).ok

    def test_preset_lambda_ok(self, lambda_spec):
        assert validate_system(lambda_spec).ok

    def test_ground_ground_coupling_rejected(self):
        spec = minimal_lambda()
        bad = replace(
            spec,
            drives=(
                spec.drives[0],
                DriveField("control", (Coupling("g2", "g1", 3e6),)),
            ),
        )
        report = validate_system(bad)
        assert not report.ok
        assert any("ground-excited" in v for v in report.violations)

    def test_non_finite_rates_rejected(self, lambda_spec):
        spec = lambda_spec
        inf = float("inf")
        probe = spec.drives[0]
        bad_rabi = replace(spec, drives=(
            DriveField(probe.field_id, (replace(probe.couplings[0], rabi=inf),)),
            spec.drives[1],
        ))
        bad_decay = replace(spec, decays=(replace(spec.decays[0], rate=inf),) + spec.decays[1:])
        bad_dephasing = replace(spec, dephasings=(Dephasing("g1", inf),))
        for bad, text in ((bad_rabi, "rabi"), (bad_decay, "decay"),
                          (bad_dephasing, "dephasing")):
            report = validate_system(bad)
            assert not report.ok
            assert any(text in v and "finite" in v for v in report.violations), report

    def test_duplicate_labels(self):
        spec = minimal_lambda()
        bad = spec.with_levels(list(spec.levels) + [Level("g1", "ground", 0.0)])
        report = validate_system(bad)
        assert not report.ok
        assert any("unique" in v for v in report.violations)

    def test_missing_control_field(self):
        spec = minimal_lambda()
        bad = replace(spec, drives=(spec.drives[0],))
        report = validate_system(bad)
        assert any("control" in v for v in report.violations)

    def test_negative_rate(self):
        spec = minimal_lambda()
        bad = replace(spec, decays=(DecayChannel("e2", "g1", -1.0),))
        assert not validate_system(bad).ok

    def test_dangling_decay_label(self):
        spec = minimal_lambda()
        bad = replace(spec, decays=(DecayChannel("e9", "g1", 1.0),))
        report = validate_system(bad)
        assert any("unknown level" in v for v in report.violations)

    def test_disconnected_level(self):
        spec = minimal_lambda()
        extra = spec.with_levels(list(spec.levels) + [Level("g9", "ground", 0.0)])
        # a zero-rate decay drops out of the dissipator, so it joins nothing
        for decays in ((), (DecayChannel("e2", "g9", 0.0),)):
            report = validate_system(replace(extra, decays=decays))
            assert [v for v in report.violations if "g9" in v] == [
                "levels not joined to the rest by a coupling or decay: g9"
            ]
        assert validate_system(replace(extra, decays=(DecayChannel("e2", "g9", 1e6),))).ok

    def test_no_ground_level(self):
        bad = LevelSystemSpec(
            levels=(Level("e1", "excited"), Level("e2", "excited")),
            drives=(
                DriveField("probe", ()),
                DriveField("control", ()),
            ),
        )
        report = validate_system(bad)
        assert any("ground level required" in v for v in report.violations)

    @pytest.mark.parametrize("change, violation", [
        (lambda s: s.with_levels(s.levels[:2] + (Level("e2", "orbital"),)),
         "level 'e2': unknown manifold 'orbital'"),
        (lambda s: s.with_levels((Level("g1", "ground", np.nan),) + s.levels[1:]),
         "level 'g1': non-finite energy"),
        (lambda s: replace(s.with_levels(s.levels[:2]), decays=(),
                           drives=(DriveField("probe", ()), DriveField("control", ()))),
         "at least one excited level required"),
        (lambda s: replace(s, drives=s.drives + (DriveField("pump", ()),)),
         "unknown field id 'pump'"),
        (lambda s: replace(s, drives=(DriveField("probe", (Coupling("g1", "e9", 1e4),)),
                                      s.drives[1])),
         "probe coupling references unknown level 'e9'"),
        (lambda s: replace(s, decays=(DecayChannel("g1", "e2", 1e6),)),
         "decay (g1 -> e2) must be excited->ground or ground->ground"),
        (lambda s: replace(s, dephasings=(Dephasing("x9", 1e5),)),
         "dephasing references unknown level 'x9'"),
    ], ids=["manifold", "energy", "no_excited", "field_id", "coupling_label",
            "decay_direction", "dephasing_label"])
    def test_violation_is_named(self, change, violation):
        report = validate_system(change(minimal_lambda()))
        assert not report.ok
        assert violation in report.violations

    def test_overconstrained_frame_reported(self):
        # One ground level addressed by both lasers: the frame equations
        # demand two different rotation frequencies for it at once.
        spec = minimal_lambda()
        bad = replace(
            spec,
            drives=(
                DriveField("probe", (Coupling("g1", "e2", 1e4),)),
                DriveField("control", (Coupling("g1", "e2", 3e6),)),
            ),
        )
        report = validate_system(bad)
        assert not report.ok
        assert any("no consistent rotating frame" in v for v in report.violations)


class TestFrameAssignment:
    def test_three_level(self):
        frame = assign_rotating_frame(minimal_lambda())
        assert frame["e2"] == "static"
        assert frame["g1"] == "probe"
        assert frame["g2"] == "control"

    def test_six_coupling_config(self):
        # probe: g1->e2, g1->e3; control: g2->e2, g2->e3, g3->e2, g3->e3
        spec = presets.five_level_double_eit(delta_k=2e6, delta_54=5e6)
        probe = DriveField(
            "probe", spec.probe.couplings + (Coupling("g1", "e3", 1e4),)
        )
        frame = assign_rotating_frame(replace(spec, drives=(probe, spec.control)))
        assert frame["e2"] == "static"
        assert frame["e3"] == "static"
        assert frame["g1"] == "probe"
        assert frame["g2"] == "control"
        assert frame["g3"] == "control"

    def test_undriven_levels_static(self):
        spec = LevelSystemSpec(
            levels=(Level("g1", "ground"), Level("e1", "excited")),
            drives=(DriveField("probe", ()), DriveField("control", ())),
        )
        frame = assign_rotating_frame(spec)
        assert all(frame[l] == "static" for l in ("g1", "e1"))

    def test_double_drive_raises(self):
        spec = minimal_lambda()
        bad = replace(
            spec,
            drives=(
                DriveField("probe", (Coupling("g2", "e2", 1e4),)),
                DriveField("control", (Coupling("g2", "e2", 3e6),)),
            ),
        )
        with pytest.raises(NoConsistentFrame):
            assign_rotating_frame(bad)


class TestHamiltonian:
    def test_resonant_three_level(self):
        spec = minimal_lambda(omega_p=1e4, omega_c=3e6)
        h = assemble_hamiltonian(
            spec, assign_rotating_frame(spec), DetuningPoint(0.0, 0.0)
        )
        assert np.allclose(np.diag(h), 0.0)
        assert h[spec.index("g1"), spec.index("e2")] == pytest.approx(5e3)
        assert h[spec.index("g2"), spec.index("e2")] == pytest.approx(1.5e6)

    def test_control_detuning_on_excited_diagonal(self):
        spec = minimal_lambda()
        h0 = assemble_hamiltonian(
            spec, assign_rotating_frame(spec), DetuningPoint(0.0, 0.0)
        )
        h = assemble_hamiltonian(
            spec, assign_rotating_frame(spec), DetuningPoint(5e9, 0.0)
        )
        k = spec.index("e2")
        assert h[k, k] == pytest.approx(-5e9)
        h[k, k] = 0.0
        assert np.allclose(h, h0)

    def test_five_level_diagonal_splittings(self):
        # Hand-computed diagonal: e3 sits delta_54 above e2; g3 sits
        # delta_54 - delta_k above g2 (both relative to the control-driven
        # reference pair g2/e2).
        dk, d54 = 2e6, 5e6
        spec = presets.five_level_mismatch(delta_k=dk, delta_54=d54)
        h = assemble_hamiltonian(
            spec, assign_rotating_frame(spec), DetuningPoint(0.0, 0.0)
        )
        d = np.real(np.diag(h))
        assert d[spec.index("e3")] - d[spec.index("e2")] == pytest.approx(d54)
        assert d[spec.index("g3")] - d[spec.index("g2")] == pytest.approx(d54 - dk)
        assert d[spec.index("g1")] == pytest.approx(0.0)

    def test_hermitian_random_models(self, rng):
        for _ in range(50):
            spec = minimal_lambda(
                omega_p=float(rng.uniform(1e3, 1e7)),
                omega_c=float(rng.uniform(1e3, 1e7)),
            )
            point = DetuningPoint(*rng.uniform(-1e9, 1e9, size=2))
            h = assemble_hamiltonian(spec, assign_rotating_frame(spec), point)
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_gauge_freedom(self):
        # Shifting every excited-level energy by a constant leaves the
        # Hamiltonian untouched: only intra-manifold splittings matter.
        spec = presets.five_level_mismatch(delta_k=3e6, delta_54=7e6)
        point = DetuningPoint(1e8, 2e6)
        h0 = assemble_hamiltonian(spec, assign_rotating_frame(spec), point)
        shifted = spec.with_levels(
            replace(lv, energy=lv.energy + 4.2e9) if lv.manifold == "excited" else lv
            for lv in spec.levels
        )
        h1 = assemble_hamiltonian(shifted, assign_rotating_frame(shifted), point)
        assert np.allclose(h0, h1)

    def test_zero_rabi_diagonal(self):
        spec = minimal_lambda()
        bare = replace(
            spec,
            drives=(DriveField("probe", ()), DriveField("control", ())),
        )
        h = assemble_hamiltonian(
            bare, assign_rotating_frame(bare), DetuningPoint(1e8, 1e6)
        )
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_detuning_derivatives_affine(self):
        spec = presets.five_level_double_eit(delta_k=2e6, delta_54=5e6)
        frame = assign_rotating_frame(spec)
        d_delta, d_tp = detuning_derivatives(spec, frame)
        h00 = assemble_hamiltonian(spec, frame, DetuningPoint(0.0, 0.0))
        h = assemble_hamiltonian(spec, frame, DetuningPoint(3e8, -4e6))
        assert np.allclose(h, h00 + np.diag(3e8 * d_delta - 4e6 * d_tp))
