"""Model JSON documents, trace/map CSV files, and metadata sidecars."""

import json

import numpy as np
import pytest

from eitsim import presets
from eitsim.modelio import (
    ModelFormatError,
    config_hash,
    load_model,
    read_trace_csv,
    save_model,
    spec_from_dict,
    spec_to_dict,
    spin_from_dict,
    unit_scale,
    write_map_csv,
    write_trace_csv,
)
from eitsim.model import validate_system
from eitsim.spectra import MagnetoMap, SpectrumTrace


class TestModelDocuments:
    def test_round_trip(self, lambda_spec):
        for units in ("Hz", "kHz", "MHz", "GHz"):
            doc = spec_to_dict(lambda_spec, units)
            back = spec_from_dict(doc)
            assert back == lambda_spec

    def test_round_trip_through_file(self, tmp_path):
        spec = presets.five_level_double_eit(delta_k=11.1e6, delta_54=3e6)
        path = tmp_path / "model.json"
        save_model(path, spec, units="MHz")
        assert load_model(path) == spec
        # document is plain JSON with the documented sections
        doc = json.loads(path.read_text())
        assert set(doc) == {"units", "levels", "drives", "decays", "dephasings"}

    def test_units_scaling(self, lambda_spec):
        doc = spec_to_dict(lambda_spec, "MHz")
        assert doc["levels"][1]["energy"] == pytest.approx(1e3)  # 1 GHz in MHz
        assert unit_scale("GHz") == 1e9

    def test_units_mandatory(self, lambda_spec):
        doc = spec_to_dict(lambda_spec, "Hz")
        del doc["units"]
        with pytest.raises(ModelFormatError):
            spec_from_dict(doc)
        doc["units"] = "furlongs"
        with pytest.raises(ModelFormatError):
            spec_from_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(ModelFormatError):
            spec_from_dict({"units": "Hz", "levels": [{"label": "g1"}], "drives": []})

    @pytest.mark.parametrize("path", [
        ("levels", 0, "label"), ("levels", 0, "manifold"), ("drives", 0, "field_id"),
        ("drives", 0, "couplings", 0, "ground"), ("drives", 0, "couplings", 0, "excited"),
        ("decays", 0, "from"), ("decays", 0, "to"), ("dephasings", 0, "level"),
    ], ids=lambda path: ".".join(map(str, path)))
    @pytest.mark.parametrize("value", [["g1"], 3, None], ids=repr)
    def test_names_must_be_strings(self, lambda_spec, path, value):
        doc = spec_to_dict(lambda_spec, "MHz")
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ModelFormatError, match=path[-1]):
            spec_from_dict(doc)

    def test_loaded_model_validates(self, lambda_spec):
        assert validate_system(spec_from_dict(spec_to_dict(lambda_spec))).ok

    def test_spin_block(self):
        m = spin_from_dict({"D": 1336.0, "E": 18.7, "g": 2.0, "B_mT": 6.0,
                            "phi_deg": 57.0}, "MHz")
        assert m.d == pytest.approx(1.336e9)
        assert m.e == pytest.approx(18.7e6)
        assert m.b_field == pytest.approx(6e-3)
        assert m.angle_deg == 57.0
        with pytest.raises(ModelFormatError):
            spin_from_dict({"E": 1.0}, "MHz")


class TestConfigHash:
    def test_stable_under_key_order(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 16

    def test_sensitive_to_content(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})


class TestTraceCsv:
    def test_write_read_round_trip(self, tmp_path):
        grid = np.linspace(-1e6, 1e6, 11)
        trace = SpectrumTrace(grid, np.linspace(0.0, 1.0, 11), {"kind": "test"})
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, {"config_hash": "abc"})
        delta, signal, sigma = read_trace_csv(path)
        assert np.array_equal(delta, grid)
        assert np.array_equal(signal, trace.absorbance)
        assert sigma is None
        meta = json.loads((tmp_path / "trace.meta.json").read_text())
        assert meta["kind"] == "test" and meta["config_hash"] == "abc"

    def test_three_column_read(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("delta_hz,signal,sigma\n0.0,1.0,0.1\n1.0,2.0,0.1\n")
        delta, signal, sigma = read_trace_csv(path)
        assert sigma is not None and np.array_equal(sigma, [0.1, 0.1])

    def test_malformed_rows_are_row_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_hz,signal\n0.0,1.0\n1.0\n")
        with pytest.raises(ModelFormatError, match="row 3"):
            read_trace_csv(path)
        path.write_text("delta_hz,signal\n0.0,not-a-number\n")
        with pytest.raises(ModelFormatError, match="row 2"):
            read_trace_csv(path)

    def test_detuning_must_increase(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_hz,signal\n1.0,1.0\n0.0,2.0\n")
        with pytest.raises(ModelFormatError, match="strictly increasing"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("nan,2.0,0.1", "delta_hz must be finite, got nan"),
        ("inf,2.0,0.1", "delta_hz must be finite, got inf"),
        ("1.0,nan,0.1", "signal must be finite, got nan"),
        ("1.0,-inf,0.1", "signal must be finite, got -inf"),
        ("1.0,1e400,0.1", "signal must be finite, got inf"),
        ("1.0,2.0,nan", "sigma must be finite and > 0, got nan"),
        ("1.0,2.0,0", "sigma must be finite and > 0, got 0.0"),
        ("1.0,2.0,-0.1", "sigma must be finite and > 0, got -0.1"),
    ])
    def test_non_finite_value_or_bad_sigma_names_file_and_row(self, tmp_path, row, message):
        # a NaN delta_hz would also pass the strictly-increasing check
        path = tmp_path / "bad.csv"
        path.write_text(f"delta_hz,signal,sigma\n0.0,1.0,0.1\n{row}\n2.0,1.0,0.1\n")
        with pytest.raises(ModelFormatError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: row 3: {message}"

    def test_non_finite_value_in_two_column_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_hz,signal\n0.0,1.0\n1.0,NaN\n")
        with pytest.raises(ModelFormatError, match="row 3: signal must be finite"):
            read_trace_csv(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ModelFormatError, match="empty"):
            read_trace_csv(path)
        for text in ("delta_hz,signal\n", "delta_hz,signal,sigma\n\n"):
            path.write_text(text)
            with pytest.raises(ModelFormatError, match="no data rows"):
                read_trace_csv(path)


class TestMapCsv:
    def test_matrix_layout(self, tmp_path):
        mp = MagnetoMap(
            delta_grid=np.array([-1.0, 0.0, 1.0]),
            b_grid=np.array([0.0, 1e-3]),
            absorbance=np.arange(6.0).reshape(2, 3),
        )
        path = tmp_path / "map.csv"
        write_map_csv(path, mp, {"config_hash": "xy"})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[0] == "b_tesla\\delta_hz"
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert [float(v) for v in row[1:]] == [0.0, 1.0, 2.0]
        assert json.loads((tmp_path / "map.meta.json").read_text())["config_hash"] == "xy"
