import json

import numpy as np
import pytest

from spikedrop.cli import main
from spikedrop.mcinfer import read_samples


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data + network config + a quickly trained model."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    config = root / "net.json"
    model = root / "model.json"
    assert main(["synth", "--n", "200", "--cell-dim", "3", "--drug-dim", "3",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["init-spec", "--cell-dim", "3", "--drug-dim", "3",
                 "--cell-hidden", "6", "--drug-hidden", "6", "--head-hidden", "8",
                 "--keep-prob", "0.8", "--out", str(config)]) == 0
    assert main(["train", "--spec", str(config), "--data", str(data),
                 "--out", str(model), "--epochs", "3", "--seed", "0"]) == 0
    return root, data, config, model


class TestSynth:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--n", "10", "--cell-dim", "2", "--drug-dim", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        assert lines[0].split(",")[-1] == "target"

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "5"])
        assert exc.value.code == 2


class TestInitSpec:
    def test_config_is_valid_json(self, workspace):
        _, _, config, _ = workspace
        doc = json.loads(config.read_text())
        assert "spec" in doc and "neuron_params" in doc
        assert doc["spec"]["output_dim"] == 1


class TestTrain:
    def test_model_and_history_written(self, workspace):
        root, _, _, model = workspace
        assert model.exists()
        doc = json.loads(model.read_text())
        assert doc["kind"] == "analog"
        history = (root / "model.json.history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_mse,test_mse"
        assert len(history) == 4

    def test_deterministic_model_bytes(self, tmp_path, workspace):
        _, data, config, _ = workspace
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        for out in (out1, out2):
            assert main(["train", "--spec", str(config), "--data", str(data),
                         "--out", str(out), "--epochs", "2", "--seed", "5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_data_file_is_runtime_error(self, tmp_path, workspace):
        _, _, config, _ = workspace
        code = main(["train", "--spec", str(config), "--data",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")])
        assert code == 1

    @pytest.mark.parametrize("n, fraction, empty", [("2", "0.25", "test"),
                                                     ("1", "0.9", "training")])
    def test_split_leaving_an_empty_part_is_runtime_error(self, tmp_path, workspace, capsys,
                                                          n, fraction, empty):
        _, _, config, _ = workspace
        tiny = tmp_path / "tiny.csv"
        assert main(["synth", "--n", n, "--cell-dim", "3", "--drug-dim", "3",
                     "--out", str(tiny)]) == 0
        capsys.readouterr()
        assert main(["train", "--spec", str(config), "--data", str(tiny), "--test-fraction",
                     fraction, "--out", str(tmp_path / "m.json")]) == 1
        assert (f"{tiny} has {n} rows: --test-fraction {fraction} leaves the {empty} part empty"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--spec", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, message", [
        ('{"neuron_params": {}}', "missing field 'spec'"),
        ("spec", "Expecting value"),
    ], ids=["no-spec", "not-json"])
    def test_malformed_config_names_file(self, tmp_path, workspace, capsys, text, message):
        _, data, _, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["train", "--spec", str(config), "--data", str(data),
                     "--out", str(tmp_path / "m.json")]) == 1
        assert f"{config}: {message}" in capsys.readouterr().err

    def test_unknown_neuron_field_names_file(self, tmp_path, workspace, capsys):
        _, data, config, _ = workspace
        doc = json.loads(config.read_text())
        doc["neuron_params"] = {"tau-ref": 0.5}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["train", "--spec", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "m.json")]) == 1
        assert f"{bad}: unknown neuron_params field 'tau-ref'" in capsys.readouterr().err

    def test_config_neuron_fields_default_when_omitted(self, tmp_path, workspace):
        _, data, config, _ = workspace
        doc = json.loads(config.read_text())
        doc["neuron_params"] = {"tau_ref": 0.004}
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(doc))
        model = tmp_path / "m.json"
        assert main(["train", "--spec", str(partial), "--data", str(data),
                     "--out", str(model), "--epochs", "1"]) == 0
        assert json.loads(model.read_text())["neuron_params"] == {
            "tau_ref": 0.004, "tau_rc": 0.02, "v_th": 1.0, "gamma": 0.02}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["infer", "--draws", "0"], "--draws"),
        (["infer", "--steps", "100", "--burnin", "100"], "--burnin"),
        (["trace", "--row", "0", "--steps", "50"], "--burnin"),
        (["infer", "--steps", "0"], "--steps"),
        (["infer", "--dt", "0"], "--dt"),
        (["infer", "--tausyn", "-0.001"], "--tausyn"),
        (["train", "--epochs", "0"], "--epochs"),
        (["train", "--batch", "0"], "--batch"),
        (["train", "--lr", "0"], "--lr"),
        (["infer", "--dt", "0.01", "--tausyn", "0.005"], "--tausyn"),
        (["trace", "--row", "0", "--dt", "0.01", "--tausyn", "0.002"], "--dt"),
        (["init-spec", "--keep-prob", "0"], "--keep-prob"),
        (["train", "--test-fraction", "1.5"], "--test-fraction"),
        (["infer", "--seed", "-5"], "--seed"),
        (["infer", "--v0-seed", "-3"], "--v0-seed"),
        (["trace", "--row", "0", "--mask-seed", "-1"], "--mask-seed"),
        (["synth", "--seed", "-1"], "--seed"),
        (["train", "--seed", "-2"], "--seed"),
        (["synth", "--n", "0"], "--n"),
        (["synth", "--drug-dim", "0"], "--drug-dim"),
        (["init-spec", "--cell-hidden", "0"], "--cell-hidden"),
        (["init-spec", "--head-hidden", "-1"], "--head-hidden"),
        (["init-spec", "--tau-ref", "-1"], "--tau-ref"),
        (["init-spec", "--tau-rc", "0"], "--tau-rc"),
        (["init-spec", "--v-th", "-0.5"], "--v-th"),
        (["init-spec", "--gamma", "0"], "--gamma"),
        (["synth", "--noise-std", "-1"], "--noise-std"),
        (["trace", "--row", "-1"], "--row"),
    ], ids=["draws", "burnin-infer", "burnin-trace", "steps", "dt", "tausyn", "epochs",
            "batch", "lr", "dt-over-tausyn-infer", "dt-over-tausyn-trace", "keep-prob",
            "test-fraction", "seed-infer", "v0-seed", "mask-seed", "seed-synth", "seed-train",
            "n", "drug-dim", "cell-hidden", "head-hidden", "tau-ref", "tau-rc", "v-th",
            "gamma", "noise-std", "row"])
    def test_out_of_range_flag_exits_2_naming_it(self, argv, flag, capsys):
        files = {"infer": ["--model", "m.json", "--data", "d.csv"],
                 "trace": ["--model", "m.json", "--data", "d.csv"],
                 "train": ["--spec", "s.json", "--data", "d.csv"],
                 "synth": [], "init-spec": []}[argv[0]]
        with pytest.raises(SystemExit) as exc:
            main(argv + files + ["--out", "o"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestDataWidth:
    @pytest.mark.parametrize("command", ["infer", "trace", "train"])
    def test_mismatch_names_both_files(self, workspace, tmp_path, capsys, command):
        _, _, config, model = workspace
        narrow = tmp_path / "narrow.csv"
        assert main(["synth", "--n", "5", "--cell-dim", "2", "--drug-dim", "2",
                     "--out", str(narrow)]) == 0
        capsys.readouterr()
        if command == "train":
            argv, wanted_by = ["train", "--spec", str(config)], f"network config {config}"
        else:
            argv, wanted_by = [command, "--model", str(model)], f"model {model}"
        if command == "trace":
            argv += ["--row", "0"]
        assert main(argv + ["--data", str(narrow), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{narrow} has 6 features, {wanted_by} wants 9" in err
        assert not (tmp_path / "o.csv").exists()


    @pytest.mark.parametrize("command", ["infer", "trace", "train"])
    def test_non_finite_cell_names_file_row_and_column(self, workspace, tmp_path, capsys,
                                                       command):
        root, data, config, model = workspace
        rows = data.read_text().splitlines()
        cells = rows[3].split(",")
        cells[4] = "nan"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows[:3] + [",".join(cells)] + rows[4:]) + "\n")
        if command == "train":
            argv = ["train", "--spec", str(config)]
        else:
            argv = [command, "--model", str(model)] + (["--row", "0"] if command == "trace" else [])
        assert main(argv + ["--data", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
        column = rows[0].split(",")[4]
        assert f"{bad}: row 3, column {column!r}: non-finite value nan" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestInfer:
    def test_row_count_and_determinism(self, workspace, tmp_path):
        _, data, _, model = workspace
        out = tmp_path / "analog.csv"
        assert main(["infer", "--model", str(model), "--data", str(data),
                     "--backend", "analog", "--draws", "7", "--seed", "3",
                     "--out", str(out)]) == 0
        meta, groups = read_samples(out)
        assert meta["backend"] == "analog"
        assert len(groups) == 200
        assert all(len(draws) == 7 for _, draws in groups.values())
        # 200 observations x 7 draws data rows + header
        data_lines = [l for l in out.read_text().splitlines()
                      if l and not l.startswith("#")]
        assert len(data_lines) == 200 * 7 + 1

        out2 = tmp_path / "analog2.csv"
        main(["infer", "--model", str(model), "--data", str(data),
              "--backend", "analog", "--draws", "7", "--seed", "3",
              "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()

    def test_single_draw_without_dropout_equals_forward(self, tmp_path):
        # keep_prob 1 everywhere: one masked draw is the deterministic pass
        import spikedrop as sd

        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        model = tmp_path / "m.json"
        out = tmp_path / "s.csv"
        main(["synth", "--n", "40", "--cell-dim", "2", "--drug-dim", "2",
              "--seed", "4", "--out", str(data)])
        main(["init-spec", "--cell-dim", "2", "--drug-dim", "2",
              "--cell-hidden", "4", "--drug-hidden", "4", "--head-hidden", "4",
              "--keep-prob", "1.0", "--out", str(config)])
        main(["train", "--spec", str(config), "--data", str(data),
              "--out", str(model), "--epochs", "2", "--seed", "1"])
        main(["infer", "--model", str(model), "--data", str(data),
              "--backend", "analog", "--draws", "1", "--seed", "9",
              "--out", str(out)])
        loaded = sd.load_model(model)
        dataset = sd.load_csv(data, "target")
        _, groups = read_samples(out)
        for row in range(len(dataset)):
            expected, _ = sd.forward(loaded.spec, loaded.weights,
                                     dataset.features[row], None,
                                     loaded.neuron_params)
            assert groups[row][1][0] == expected[0]

    def test_spiking_backend_small_run(self, workspace, tmp_path):
        _, data, _, model = workspace
        out = tmp_path / "spiking.csv"
        # tiny slice of the data to keep the simulation cheap
        small = tmp_path / "small.csv"
        lines = data.read_text().splitlines()
        small.write_text("\n".join(lines[:4]) + "\n")
        assert main(["infer", "--model", str(model), "--data", str(small),
                     "--backend", "spiking", "--draws", "2", "--seed", "0",
                     "--steps", "120", "--burnin", "20", "--out", str(out)]) == 0
        meta, groups = read_samples(out)
        assert meta["backend"] == "spiking"
        assert meta["steps"] == "120"
        assert len(groups) == 3 and all(len(d) == 2 for _, d in groups.values())


class TestTrace:
    def test_header_echoes_masked_analog_output(self, workspace, tmp_path):
        _, data, _, model = workspace
        trace_out = tmp_path / "trace.csv"
        assert main(["trace", "--model", str(model), "--data", str(data),
                     "--row", "0", "--mask-seed", "3", "--steps", "150",
                     "--burnin", "30", "--out", str(trace_out)]) == 0
        lines = trace_out.read_text().splitlines()
        meta = dict(l.lstrip("# ").split("=", 1) for l in lines if l.startswith("#"))
        assert meta["mask_seed"] == "3"

        # the echoed value must equal the corresponding analog infer draw:
        # row 0 with --seed 3 puts mask seed 3 at draw 0
        samples_out = tmp_path / "s.csv"
        small = tmp_path / "one.csv"
        small.write_text("\n".join(data.read_text().splitlines()[:2]) + "\n")
        main(["infer", "--model", str(model), "--data", str(small),
              "--backend", "analog", "--draws", "1", "--seed", "3",
              "--out", str(samples_out)])
        _, groups = read_samples(samples_out)
        assert float(meta["dnn_output"]) == groups[0][1][0]

    def test_row_out_of_range(self, workspace, tmp_path, capsys):
        _, data, _, model = workspace
        code = main(["trace", "--model", str(model), "--data", str(data),
                     "--row", "200", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert f"{data}: row 200 out of range [0, 200)" in capsys.readouterr().err

    def test_tick_count(self, workspace, tmp_path):
        _, data, _, model = workspace
        out = tmp_path / "t.csv"
        main(["trace", "--model", str(model), "--data", str(data),
              "--row", "1", "--steps", "90", "--burnin", "10", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 91  # header + 90 ticks


class TestCompare:
    def make_samples(self, workspace, tmp_path, seed, name):
        _, data, _, model = workspace
        small = tmp_path / "sub.csv"
        lines = data.read_text().splitlines()
        small.write_text("\n".join(lines[:9]) + "\n")
        out = tmp_path / name
        main(["infer", "--model", str(model), "--data", str(small),
              "--backend", "analog", "--draws", "40", "--seed", str(seed),
              "--out", str(out)])
        return out

    def test_self_comparison_is_null(self, workspace, tmp_path):
        a = self.make_samples(workspace, tmp_path, 0, "a.csv")
        report_path = tmp_path / "report.json"
        assert main(["compare", "--a", str(a), "--b", str(a),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert all(row["d"] == 0.0 and row["p_value"] == 1.0
                   for row in report["per_observation"])

    def test_fraction_below_matches_recount(self, workspace, tmp_path):
        a = self.make_samples(workspace, tmp_path, 0, "fa.csv")
        b = self.make_samples(workspace, tmp_path, 999, "fb.csv")
        report_path = tmp_path / "r.json"
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        pvals = [row["p_value"] for row in report["per_observation"]]
        frac = report["uniformity"]["fraction_below_0.05"]
        assert frac == pytest.approx(np.mean([p < 0.05 for p in pvals]))
        hist = report["per_observation"][0]["histogram"]
        assert len(hist["bin_edges"]) == 21
        assert sum(hist["counts_analog"]) == 40

    @pytest.mark.parametrize("defect, message", [
        (lambda rows: rows[:2] + ["0,2,analog"] + rows[3:], "row 3: expected 4 fields, got 3"),
        (lambda rows: rows + [rows[44]], "row 321: duplicate draw 4 of observation 1"),
        (lambda rows: rows[:45] + rows[46:], "observation 1: missing draw 5"),
        (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0] + ",nan"] + rows[4:],
         "row 4: non-finite prediction 'nan'"),
        (lambda rows: rows[:6] + [rows[6].rsplit(",", 1)[0] + ",-inf"] + rows[7:],
         "row 7: non-finite prediction '-inf'"),
        (lambda rows: rows[:8] + [rows[8].replace(",analog,", ",quantum,")] + rows[9:],
         "row 9: unknown backend 'quantum'"),
        (lambda rows: [], "no data rows"),
    ], ids=["short-row", "duplicate-draw", "missing-draw", "nan", "inf", "unknown-backend",
            "header-only"])
    def test_malformed_samples_file_names_file_and_row(self, workspace, tmp_path, capsys,
                                                       defect, message):
        a = self.make_samples(workspace, tmp_path, 0, "good.csv")
        lines = a.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]  # header, then 8 x 40 draws
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(meta + [rows[0]] + defect(rows[1:])) + "\n")
        assert main(["compare", "--a", str(a), "--b", str(bad),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert f"{bad}: {message}" in capsys.readouterr().err

    def test_mismatched_observation_ids(self, workspace, tmp_path):
        a = self.make_samples(workspace, tmp_path, 0, "ma.csv")
        b = tmp_path / "mb.csv"
        content = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        # drop observation 0 from b
        kept = [content[0]] + [l for l in content[1:] if not l.startswith("0,")]
        b.write_text("\n".join(kept) + "\n")
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(tmp_path / "r.json")]) == 1
