import math

import numpy as np
import pytest

from spikedrop.data import (
    DataFormatError,
    load_csv,
    save_csv,
    synth_combo,
    train_test_split,
)


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
