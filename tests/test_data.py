import csv
import math
import re

import numpy as np
import pytest

from spikedrop.data import (
    DataFormatError,
    load_csv,
    save_csv,
    synth_combo,
    train_test_split,
)
from spikedrop.mcinfer import SampleSet, read_samples, write_samples
from spikedrop.snn import write_trace
from spikedrop.training import write_history


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,target\n1.5,2.0\n-3.25,0.5\n7,1\n")
        ds = load_csv(path, "target")
        assert len(ds) == 3
        assert ds.n_features == 1
        assert ds.feature_names == ["x"]
        assert np.array_equal(ds.features.ravel(), [1.5, -3.25, 7.0])
        assert np.array_equal(ds.targets, [2.0, 0.5, 1.0])

    def test_column_order_preserved(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("b,target,a\n1,9,2\n3,8,4\n")
        ds = load_csv(path, "target")
        assert ds.feature_names == ["b", "a"]
        assert np.array_equal(ds.features, [[1, 2], [3, 4]])

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DataFormatError, match="'growth' not found"):
            load_csv(path, "growth")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,target\n1,2\noops,3\n")
        with pytest.raises(DataFormatError, match="row 2, column 'x'"):
            load_csv(path, "target")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", ["x", "target"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        # the blank line still counts as a row, as in the non-numeric message
        path = tmp_path / "d.csv"
        row = f"{cell},3" if column == "x" else f"1,{cell}"
        path.write_text(f"x,target\n1,2\n\n{row}\n5,6\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, "target")
        value = repr(float(cell))
        assert str(exc.value) == f"{path}: row 3, column {column!r}: non-finite value {value}"

    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path):
        # a non-finite cell in row 1 comes before a non-numeric one in row 3
        path = tmp_path / "d.csv"
        path.write_text("x,target\ninf,2\n3,4\nabc,6\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, "target")
        assert str(exc.value) == f"{path}: row 1, column 'x': non-finite value inf"

    @pytest.mark.parametrize("header, column", [("a,target,target", "target"),
                                                ("a,target,a", "a")])
    def test_duplicate_column_names_file_and_column(self, tmp_path, header, column):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n1,2,3\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, "target")
        assert str(exc.value) == f"{path}: duplicate column {column!r}"

    @pytest.mark.parametrize("header, position", [("a,target,", 3), (" ,a,target", 1),
                                                  ("a,,target,", 2)])
    def test_empty_column_name_names_file_and_position(self, tmp_path, header, position):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, "target")
        assert str(exc.value) == f"{path}: column {position} has an empty name"

    def test_leading_meta_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# source=lab\n# note\nx,target\n1,2\n")
        ds = load_csv(path, "target")
        assert ds.feature_names == ["x"]
        assert np.array_equal(ds.features, [[1.0]]) and np.array_equal(ds.targets, [2.0])

    def test_byte_order_mark_is_skipped_before_the_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        path = tmp_path / "d.csv"
        path.write_bytes("\ufefftarget,x\n2,1\n".encode())
        ds = load_csv(path, "target")
        assert ds.feature_names == ["x"]
        assert np.array_equal(ds.features, [[1.0]]) and np.array_equal(ds.targets, [2.0])

    def test_byte_order_mark_is_skipped_before_the_meta_lines(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_bytes("\ufeff# seed=3\nobservation_id,draw_id,backend,prediction\n"
                         "0,0,analog,1.5\n".encode())
        meta, groups = read_samples(path)
        assert meta == {"seed": "3"}
        assert groups[0][0] == "analog" and np.array_equal(groups[0][1], [1.5])

    @pytest.mark.parametrize("read", [lambda p: load_csv(p, "target"), read_samples],
                             ids=["data", "samples"])
    def test_empty_file_is_refused(self, tmp_path, read):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: empty file"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,target\n1,2,3\n4,5\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path, "target")

    def test_round_trip_preserves_full_precision(self, tmp_path):
        ds = synth_combo(25, 3, 4, 0.2, seed=9)
        path = tmp_path / "rt.csv"
        save_csv(path, ds)
        back = load_csv(path, "target")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)
        assert back.feature_names == ds.feature_names


class TestTableWriters:
    def test_every_writer_ends_lines_in_newline_and_reads_back(self, tmp_path):
        ds = synth_combo(6, 2, 2, seed=1)
        save_csv(tmp_path / "data.csv", ds)
        back = load_csv(tmp_path / "data.csv", "target")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

        sets = [SampleSet(0, np.array([0.1, -2.5]), "spiking"),
                SampleSet(1, np.array([1 / 3, 7.0]), "spiking")]
        write_samples(tmp_path / "samples.csv", sets, {"backend": "spiking", "seed": 4})
        meta, groups = read_samples(tmp_path / "samples.csv")
        assert meta == {"backend": "spiking", "seed": "4"}
        assert all(np.array_equal(groups[s.observation_id][1], s.draws) for s in sets)

        trace = np.array([0.1, 1 / 3, -2.0])
        write_trace(tmp_path / "trace.csv", trace, 0.001, {"row": 2, "dt": 0.001})
        history = [(0, 0.5, 1 / 3), (1, 0.25, float("nan"))]
        write_history(tmp_path / "history.csv", history)

        for name, meta_lines, header in [
            ("data.csv", [], ds.feature_names + ["target"]),
            ("samples.csv", ["# backend=spiking", "# seed=4"],
             ["observation_id", "draw_id", "backend", "prediction"]),
            ("trace.csv", ["# row=2", "# dt=0.001"], ["tick", "time_s", "output_potential"]),
            ("history.csv", [], ["epoch", "train_mse", "test_mse"]),
        ]:
            text = (tmp_path / name).read_bytes().decode()
            assert "\r" not in text, name
            lines = text.split("\n")
            assert lines[-1] == "", name  # the last line ends in "\n" too
            assert lines[:len(meta_lines)] == meta_lines, name
            rows = list(csv.reader(lines[len(meta_lines):-1]))
            assert rows[0] == header, name
            if name == "trace.csv":
                assert [[int(t), float(s), float(v)] for t, s, v in rows[1:]] == [
                    [i, i * 0.001, v] for i, v in enumerate(trace.tolist())]
            elif name == "history.csv":
                assert np.array_equal(np.array(rows[1:], dtype=float), history, equal_nan=True)

    @pytest.mark.parametrize("meta", [{"note": "a\nb"}, {"note": "a\rb"}, {"a=b": "c"},
                                      {"a\nb": "c"}, {" k": "v"}, {"k ": "v"},
                                      {"k": " v"}, {"k": "v\t"}],
                             ids=["newline-in-value", "cr-in-value", "equals-in-key",
                                  "newline-in-key", "space-before-key", "space-after-key",
                                  "space-before-value", "tab-after-value"])
    def test_meta_that_cannot_be_read_back_is_refused_before_writing(self, tmp_path, meta):
        path = tmp_path / "samples.csv"
        (key,) = meta
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            write_samples(path, [SampleSet(0, np.array([1.0]), "analog")], meta)
        assert not path.exists()


class TestSynthCombo:
    def test_shapes_and_layout(self):
        ds = synth_combo(100, cell_dim=5, drug_dim=3, seed=0)
        assert ds.features.shape == (100, 11)
        # column layout [cell | drug_a | drug_b]
        assert [ds.feature_names[i] for i in (0, 5, 8)] == ["cell_0", "drug_a_0", "drug_b_0"]
        assert len(ds.feature_names) == 11

    def test_target_symmetric_in_drugs(self):
        ds = synth_combo(50, cell_dim=4, drug_dim=6, noise_std=0.0, seed=3)
        swapped = ds.features.copy()
        swapped[:, 4:10], swapped[:, 10:16] = (ds.features[:, 10:16].copy(),
                                               ds.features[:, 4:10].copy())
        # recompute the documented target composition on the swapped features
        def target(x):
            s_c = x[:, :4].sum(axis=1) / 2.0
            s_a = x[:, 4:10].sum(axis=1) / np.sqrt(6)
            s_b = x[:, 10:16].sum(axis=1) / np.sqrt(6)
            h = lambda s: 0.6 * s + 0.4 * np.sin(s)
            return 0.8 * s_c + 0.3 * (s_c ** 2 - 1) + h(s_a) + h(s_b) + 0.3 * s_a * s_b

        assert np.allclose(target(swapped), ds.targets, atol=1e-12)

    def test_deterministic(self):
        a = synth_combo(40, 2, 2, 0.5, seed=7)
        b = synth_combo(40, 2, 2, 0.5, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_variance_matches_analytic_value(self):
        # independent moment computation for the documented g, h, interaction:
        # Var(g) = 0.64 + 0.09*Var(s^2-1) = 0.64 + 0.18
        # Var(h) = 0.36 + 0.48*E[cos s] + 0.16*(1 - E[cos 2s])/2
        #        = 0.36 + 0.48*exp(-1/2) + 0.08*(1 - exp(-2))
        # Var(inter) = 0.09; all cross-covariances vanish
        noise = 0.1
        var_h = 0.36 + 0.48 * math.exp(-0.5) + 0.08 * (1 - math.exp(-2.0))
        analytic = 0.82 + 2 * var_h + 0.09 + noise ** 2
        ds = synth_combo(4000, 8, 8, noise_std=noise, seed=1)
        assert np.var(ds.targets) == pytest.approx(analytic, rel=0.2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            synth_combo(0, 1, 1)
        with pytest.raises(ValueError):
            synth_combo(10, 0, 1)


class TestTrainTestSplit:
    def test_partition(self):
        ds = synth_combo(101, 2, 2, seed=0)
        train, test = train_test_split(ds, test_fraction=0.3, seed=1)
        assert len(train) + len(test) == 101
        combined = np.vstack([train.features, test.features])
        assert np.array_equal(np.sort(combined, axis=0),
                              np.sort(ds.features, axis=0))

    def test_deterministic(self):
        ds = synth_combo(60, 2, 2, seed=0)
        a1, b1 = train_test_split(ds, 0.25, seed=9)
        a2, b2 = train_test_split(ds, 0.25, seed=9)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.targets, b2.targets)

    def test_bad_fraction(self):
        ds = synth_combo(10, 2, 2, seed=0)
        with pytest.raises(ValueError):
            train_test_split(ds, 0.0)
