import csv
import json
import hashlib
import os
import shutil

import numpy as np
import pytest

from olivenet import cli
from olivenet import data as dmod
from olivenet import evaluation as emod
from olivenet import nn


def run(argv):
    return cli.main([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def edited_run(run_dir, dest, edit):
    """A copy of ``run_dir`` at ``dest`` whose parsed summary.json ``edit`` changed."""
    shutil.copytree(run_dir, dest)
    summary = json.loads((dest / "summary.json").read_text())
    edit(summary)
    (dest / "summary.json").write_text(json.dumps(summary))
    return dest


def _set_cell(rows, line, column, value):
    """CSV ``rows`` with the cell at 1-based ``line`` and 0-based ``column`` replaced."""
    cells = rows[line - 1].split(",")
    cells[column] = value
    return rows[:line - 1] + [",".join(cells)] + rows[line:]


GEN_SMALL = ["generate", "--pixels", 96, "--repetitions", 2, "--seed", 7]
BUNDLED_GEN_CONFIG = dmod.bundled_labels_path().with_name("generator_default.cfg")
BUNDLED_THRESHOLDS = dmod.bundled_labels_path().with_name("thresholds_default.cfg")
LOOCV_QUICK = ["--epochs", 4, "--ksize1", 9, "--ksize2", 3, "--pool", 4,
               "--filters1", 2, "--filters2", 2, "--dense1", 6, "--dense2", 3,
               "--dropout", "0.0", "--jobs", 1]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert run(GEN_SMALL + ["--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def loocv_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("runs") / "acidity"
    code = run(["loocv", "--data", dataset_dir, "--parameter", "acidity",
                "--seed", 3, "--out", out] + LOOCV_QUICK)
    assert code == 0
    return out


class TestGenerate:
    def test_outputs_and_scale(self, dataset_dir):
        for name in ("spectra.csv", "grid.txt", "labels.csv",
                     "generator.cfg", "manifest.json"):
            assert (dataset_dir / name).exists()
        lines = (dataset_dir / "spectra.csv").read_text().splitlines()
        assert len(lines) == 1 + 22 * 2

    def test_default_repetitions_give_440(self, tmp_path):
        # header math only: 22 oils x 20 repetitions at the default
        out = tmp_path / "full"
        assert run(["generate", "--pixels", 64, "--seed", 7, "--out", out]) == 0
        lines = (out / "spectra.csv").read_text().splitlines()
        assert len(lines) == 1 + 440

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        again = tmp_path / "again"
        assert run(GEN_SMALL + ["--out", again]) == 0
        assert sha(again / "spectra.csv") == sha(dataset_dir / "spectra.csv")
        assert sha(again / "grid.txt") == sha(dataset_dir / "grid.txt")

    def test_zero_repetitions_exit_2(self, tmp_path, capsys):
        # a header-only spectra.csv is no dataset: every later command rejects it
        out = tmp_path / "empty"
        assert run(["generate", "--pixels", 64, "--repetitions", 0, "--out", out]) == 2
        assert "repetitions" in capsys.readouterr().err
        assert not (out / "spectra.csv").exists()

    def test_missing_labels_path_exit_2(self, tmp_path, capsys):
        code = run(["generate", "--labels", tmp_path / "nope.csv",
                    "--out", tmp_path / "x"])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_generator_config_missing_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(BUNDLED_GEN_CONFIG.read_text().replace("peak.0.width_nm = 12.0\n", ""))
        assert run(["generate", "--gen-config", cfg, "--pixels", 64,
                    "--out", tmp_path / "x"]) == 2
        assert "error: missing config keys ['peak.0.width_nm']" in capsys.readouterr().err

    def test_generator_config_seed_key_exit_2(self, tmp_path, capsys):
        # --seed is the one seed: a config file that sets another is rejected
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(BUNDLED_GEN_CONFIG.read_text() + "seed = 5\n")
        assert run(["generate", "--gen-config", cfg, "--pixels", 64,
                    "--out", tmp_path / "x"]) == 2
        assert "error: unknown config keys ['seed']" in capsys.readouterr().err

    def test_written_generator_config_holds_no_seed(self, dataset_dir, tmp_path):
        cfg = dataset_dir / "generator.cfg"
        assert not [l for l in cfg.read_text().splitlines() if l.startswith("seed")]
        again = tmp_path / "again"
        assert run(GEN_SMALL + ["--gen-config", cfg, "--out", again]) == 0
        assert sha(again / "spectra.csv") == sha(dataset_dir / "spectra.csv")

    def test_manifest_fields(self, dataset_dir):
        meta = json.loads((dataset_dir / "manifest.json").read_text())
        assert meta["command"] == "generate"
        assert meta["seed"] == 7
        assert meta["dataset_fingerprint"]["generator.cfg"] == sha(dataset_dir / "generator.cfg")


class TestTrain:
    def test_checkpoint_and_trace(self, dataset_dir, tmp_path):
        out = tmp_path / "model"
        code = run(["train", "--data", dataset_dir, "--parameter", "acidity",
                    "--seed", 1, "--out", out] + LOOCV_QUICK[:-2])
        assert code == 0
        assert (out / "model.ocnn").read_bytes()[:5] == b"OCNN1"
        assert (out / "trace.csv").read_text().startswith("epoch,train_mse")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_model_is_not_saved(self, dataset_dir, tmp_path, capsys):
        # 44 spectra make one batch per epoch: the reported loss is taken
        # before the update and stays finite, the updated model does not
        out = tmp_path / "model"
        argv = ["train", "--data", dataset_dir, "--parameter", "acidity",
                "--seed", 1, "--out", out, "--batch", 64, "--learning-rate", "1e300"]
        argv += LOOCV_QUICK[2:-2] + ["--epochs", 1]
        assert run(argv) == cli.EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err
        assert not (out / "model.ocnn").exists()


class TestLoocv:
    def test_fold_count_matches_oils(self, loocv_dir):
        lines = (loocv_dir / "folds.csv").read_text().splitlines()
        assert len(lines) == 1 + 22  # acidity keeps all oils

    def test_scatter_row_count(self, loocv_dir):
        lines = (loocv_dir / "scatter.csv").read_text().splitlines()
        assert len(lines) == 1 + 22 * 2

    def test_k270_filters_to_18_folds(self, dataset_dir, tmp_path):
        out = tmp_path / "k270"
        assert run(["loocv", "--data", dataset_dir, "--parameter", "k270",
                    "--seed", 3, "--out", out] + LOOCV_QUICK) == 0
        assert len((out / "folds.csv").read_text().splitlines()) == 1 + 18

    def test_epochs_zero_reports_untrained_baseline(self, dataset_dir, tmp_path):
        out = tmp_path / "e0"
        code = run(["loocv", "--data", dataset_dir, "--parameter", "acidity",
                    "--seed", 3, "--out", out, "--epochs", 0] + LOOCV_QUICK[2:])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_mae_val"] > 0  # untrained network error, reported

        # the reported fold MAE must equal the untrained network's MAE
        from olivenet import evaluation as emod
        from olivenet import nn
        from olivenet.seeding import derive_rng
        labels = dmod.load_labels(dataset_dir / "labels.csv")
        ds = dmod.load_spectra(dataset_dir / "spectra.csv",
                               dataset_dir / "grid.txt", labels)
        x, y, ids = emod.design_matrices(ds, dmod.ParameterId.ACIDITY)
        hold = summary["folds"][0]["held_out_oil"]
        hp = nn.HyperParams(filters1=2, filters2=2, ksize1=9, ksize2=3, pool=4,
                            dropout=0.0, epochs=0, dense1=6, dense2=3)
        net = nn.build_network(hp, x.shape[1], derive_rng(3, "fold", hold))
        va = ids == hold
        untrained = emod.mae(nn.forward(net, x[va]), y[va])
        assert summary["folds"][0]["mae_val"] == pytest.approx(untrained, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epochs, jobs", [(1, 1), (3, 2)])
    def test_diverged_run_exits_4(self, dataset_dir, tmp_path, capsys, epochs, jobs):
        # 42 training spectra make one batch per epoch.  With 1 epoch the
        # loss stays finite and the scored predictions are not; with 3 the
        # loss itself overflows inside a worker process.
        out = tmp_path / "diverged"
        argv = ["loocv", "--data", dataset_dir, "--parameter", "acidity",
                "--seed", 3, "--out", out, "--batch", 64, "--learning-rate", "1e300"]
        argv += LOOCV_QUICK[2:-2] + ["--epochs", epochs, "--jobs", jobs]
        assert run(argv) == cli.EXIT_DIVERGED == 4
        assert "diverged" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_empty_spectra_file_exit_2(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        (data / "spectra.csv").write_text("")
        assert run(["loocv", "--data", data, "--parameter", "acidity",
                    "--out", tmp_path / "r"] + LOOCV_QUICK) == 2
        assert "empty spectra file" in capsys.readouterr().err

    @pytest.mark.parametrize("affinity, cpus, jobs", [({0}, 2, 1), ({0, 2, 3}, 8, 3),
                                                      (None, 3, 3), (None, None, 1)],
                             ids=["pinned-to-one", "three-of-eight", "no-affinity",
                                  "unknown-count"])
    def test_jobs_zero_uses_the_usable_cores(self, dataset_dir, tmp_path, monkeypatch,
                                             affinity, cpus, jobs):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        seen = []
        real = emod.loocv

        def spy(*args, jobs, **kwargs):
            seen.append(jobs)
            return real(*args, jobs=1, **kwargs)

        monkeypatch.setattr(emod, "loocv", spy)
        argv = ["loocv", "--data", dataset_dir, "--parameter", "acidity", "--out",
                tmp_path / "r"] + LOOCV_QUICK[:LOOCV_QUICK.index("--jobs")] + ["--epochs", 0]
        assert run(argv + ["--jobs", 0]) == 0
        assert seen == [jobs]

    def test_rerun_reproduces_numerical_outputs(self, dataset_dir, loocv_dir, tmp_path):
        again = tmp_path / "again"
        assert run(["loocv", "--data", dataset_dir, "--parameter", "acidity",
                    "--seed", 3, "--out", again] + LOOCV_QUICK) == 0
        for name in ("summary.json", "folds.csv", "scatter.csv"):
            assert sha(again / name) == sha(loocv_dir / name)


class TestCompare:
    def test_self_comparison_recommends_no_difference(self, loocv_dir, capsys):
        assert run(["compare", "--run1", loocv_dir, "--run2", loocv_dir]) == 0
        out = capsys.readouterr().out
        assert "reject_equal_means = false" in out
        assert "recommendation" in out

    def test_fewer_parameters_recommended_when_tied(self, dataset_dir, loocv_dir,
                                                    tmp_path, capsys):
        smaller = tmp_path / "smaller"
        argv = ["loocv", "--data", dataset_dir, "--parameter", "acidity",
                "--seed", 3, "--out", smaller] + LOOCV_QUICK
        argv[argv.index("--filters1") + 1] = "1"  # fewer parameters, same data
        assert run(argv) == 0
        assert run(["compare", "--run1", loocv_dir, "--run2", smaller]) == 0
        out = capsys.readouterr().out
        if "not significantly different" in out and "fewer parameters" in out:
            assert "recommendation = run2" in out

    def test_recommendation_does_not_depend_on_cwd(self, dataset_dir, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(dataset_dir.parent)  # runs record a relative --data
        for name, filters1 in (("big", "2"), ("small", "1")):
            argv = ["loocv", "--data", dataset_dir.name, "--parameter", "acidity",
                    "--seed", 3, "--out", tmp_path / name] + LOOCV_QUICK
            argv[argv.index("--filters1") + 1] = filters1
            assert run(argv) == 0
        summary = json.loads((tmp_path / "small" / "summary.json").read_text())
        assert (summary["num_parameters"], summary["input_len"]) == (289, 96)

        argv = ["compare", "--run1", tmp_path / "big", "--run2", tmp_path / "small"]
        capsys.readouterr()
        assert run(argv) == 0
        here = capsys.readouterr().out
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run(argv) == 0
        assert capsys.readouterr().out == here
        assert "recommendation = run2 (means not significantly different; " \
               "fewer parameters: 289 vs 305)" in here

    def test_recommendation_does_not_depend_on_argument_order(self, tmp_path):
        # The smaller network has three times the error.  The one-sided
        # test must find that whichever run is named first, or the
        # fewer-parameters tie-break recommends the worse run.
        spread = np.linspace(-0.02, 0.02, 22)
        runs = {}
        for name, mean, n_params in (("good", 0.10, 1071), ("poor", 0.30, 839)):
            runs[name] = tmp_path / name
            runs[name].mkdir()
            folds = tuple(emod.FoldResult(f"oil{i:02d}", 1.0, mean, mean + d, (1.0,))
                          for i, d in enumerate(spread))
            emod.save_summary(emod.CvSummary(dmod.ParameterId.ACIDITY, "best_val_loss", folds),
                              runs[name] / "summary.json", num_parameters=n_params)

        chosen, texts = [], []
        for first, second in (("good", "poor"), ("poor", "good")):
            out = tmp_path / f"{first}-first"
            assert run(["compare", "--run1", runs[first], "--run2", runs[second],
                        "--out", out]) == 0
            texts.append((out / "ttest.txt").read_text())
            rec = texts[-1].split("recommendation = ")[1].split()[0]
            chosen.append({"run1": first, "run2": second}[rec])
        assert chosen == ["good", "good"]
        for text, poor in zip(texts, ("run2", "run1")):
            assert f"sample_1 = {poor} {runs['poor']} (higher mean MAE)\n" in text
            assert "reject_equal_means = true" in text

    def test_mismatched_oil_sets_exit_2(self, dataset_dir, loocv_dir, tmp_path):
        out = tmp_path / "k270b"
        assert run(["loocv", "--data", dataset_dir, "--parameter", "k270",
                    "--seed", 3, "--out", out] + LOOCV_QUICK) == 0
        assert run(["compare", "--run1", loocv_dir, "--run2", out]) == 2

    def test_summary_without_fold_mae_exit_2(self, loocv_dir, tmp_path, capsys):
        bad = edited_run(loocv_dir, tmp_path / "bad", lambda s: s["folds"][3].pop("mae_val"))
        assert run(["compare", "--run1", bad, "--run2", loocv_dir]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: malformed summary (KeyError: 'mae_val')\n"

    def test_non_integer_num_parameters_exit_2(self, loocv_dir, tmp_path, capsys):
        bad = edited_run(loocv_dir, tmp_path / "bad", lambda s: s.update(num_parameters="many"))
        assert run(["compare", "--run1", loocv_dir, "--run2", bad]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: num_parameters 'many' is not an integer\n"

    def test_ttest_does_not_read_folds_csv(self, dataset_dir, loocv_dir, tmp_path):
        small = tmp_path / "small"
        argv = ["loocv", "--data", dataset_dir, "--parameter", "acidity",
                "--seed", 3, "--out", small] + LOOCV_QUICK
        argv[argv.index("--filters1") + 1] = "1"
        assert run(argv) == 0
        big = tmp_path / "big"
        shutil.copytree(loocv_dir, big)
        compare = ["compare", "--run1", big, "--run2", small, "--out"]
        assert run(compare + [tmp_path / "with"]) == 0
        (big / "folds.csv").unlink()
        (small / "folds.csv").unlink()
        assert run(compare + [tmp_path / "without"]) == 0
        assert (tmp_path / "without" / "ttest.txt").read_bytes() == \
            (tmp_path / "with" / "ttest.txt").read_bytes()


class TestClassify:
    def test_bundled_labels_match_quality_column(self, tmp_path, capsys):
        assert run(["classify", "--input", dmod.bundled_labels_path()]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = dict(line.split(",")[:2] for line in out[1:])
        for rec in dmod.load_bundled_labels():
            assert rows[rec.oil_id] == rec.quality.value

    def test_misspelt_threshold_key_exit_2(self, tmp_path, capsys):
        # read as written, the file would drop the EVOO acidity limit
        cfg = tmp_path / "thresholds.cfg"
        cfg.write_text(BUNDLED_THRESHOLDS.read_text().replace("evoo.acidity", "evoo.acidty"))
        assert run(["classify", "--input", dmod.bundled_labels_path(),
                    "--thresholds", cfg]) == 2
        assert "error: unknown config keys ['evoo.acidty']" in capsys.readouterr().err

    def test_non_numeric_cell_exit_2_naming_file_line_column(self, tmp_path, capsys):
        rows = dmod.bundled_labels_path().read_text().splitlines()
        table = tmp_path / "table.csv"
        table.write_text("\n".join(_set_cell(rows, 3, 1, "abc")) + "\n")
        assert run(["classify", "--input", table]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {table}: line 3: acidity 'abc' is not a number\n")

    @pytest.mark.parametrize("rows, message", [
        (["D01,0.3"], "line 2: expected 6 fields, got 2"),
        (["D01,0.3,-,-,-,-", "D01,0.4,-,-,-,-"], "duplicate oil_id 'D01' at line 3"),
        ([",0.3,-,-,-,-"], "line 2: empty oil_id"),
    ], ids=["truncated-row", "duplicate-id", "empty-id"])
    def test_malformed_row_exit_2_naming_file_and_line(self, tmp_path, capsys, rows, message):
        table = tmp_path / "predictions.csv"
        table.write_text("\n".join(["oil_id,acidity,peroxide,k270,k232,ethyl_esters"] + rows)
                         + "\n")
        assert run(["classify", "--input", table]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {table}: {message}\n"

    def test_writes_verdicts_csv(self, tmp_path):
        out = tmp_path / "v"
        assert run(["classify", "--input", dmod.bundled_labels_path(),
                    "--out", out]) == 0
        text = (out / "verdicts.csv").read_text()
        assert text.startswith("oil_id,grade,")
        assert len(text.splitlines()) == 1 + 22

    def test_fingerprint_follows_thresholds_content(self, tmp_path):
        cfg = tmp_path / "thresholds.cfg"
        bundled = BUNDLED_THRESHOLDS.read_text()
        fingerprints = []
        for text in (bundled, bundled.replace("evoo.acidity = 0.8", "evoo.acidity = 0.7")):
            cfg.write_text(text)
            out = tmp_path / f"v{len(fingerprints)}"
            assert run(["classify", "--input", dmod.bundled_labels_path(),
                        "--thresholds", cfg, "--out", out]) == 0
            fingerprints.append(json.loads((out / "manifest.json").read_text())
                                ["dataset_fingerprint"])
        assert fingerprints[0]["input.csv"] == fingerprints[1]["input.csv"]
        assert fingerprints[0]["thresholds.cfg"] != fingerprints[1]["thresholds.cfg"]


class TestAwkwardOilIds:
    """Oil ids holding a comma, a quote or a newline survive every table."""

    IDS = {"D03": "D01,lot 7", "D04": 'D02 "b"', "D05": "D03\nx"}

    def test_chain_tables_keep_their_width(self, tmp_path):
        labels = tmp_path / "labels.csv"
        with labels.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in csv.reader(dmod.bundled_labels_path().read_text().splitlines()):
                writer.writerow([self.IDS.get(row[0], row[0])] + row[1:])
        quick = LOOCV_QUICK[:LOOCV_QUICK.index("--epochs")] + ["--epochs", 1] + LOOCV_QUICK[2:]
        loocv = ["loocv", "--data", tmp_path / "ds", "--parameter", "acidity"] + quick
        for argv in (["generate", "--labels", labels, "--pixels", 96, "--repetitions", 2,
                      "--out", tmp_path / "ds"],
                     loocv + ["--out", tmp_path / "ra"],
                     loocv + ["--filters1", 3, "--out", tmp_path / "rb"],
                     ["report", tmp_path / "ra", tmp_path / "rb", "--out", tmp_path / "rep"],
                     ["classify", "--input", tmp_path / "rep" / "predictions.csv",
                      "--out", tmp_path / "v"]):
            assert run(argv) == 0, argv

        tables = {}
        for rel in ("ds/labels.csv", "ds/spectra.csv", "ra/folds.csv", "ra/scatter.csv",
                    "rep/scatter_all.csv", "rep/predictions.csv", "v/verdicts.csv"):
            with (tmp_path / rel).open(newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert {len(r) for r in rows} == {len(header)}, rel
            tables[rel] = rows
        assert set(self.IDS.values()) <= {r[0] for r in tables["rep/predictions.csv"]}
        assert set(self.IDS.values()) <= {r[1] for r in tables["ra/folds.csv"]}

        # the same predicted values in the labels layout grade the same
        as_labels = tmp_path / "predicted_labels.csv"
        with as_labels.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(dmod.LABELS_HEADER)
            writer.writerows(r + ["LOO"] for r in tables["rep/predictions.csv"])
        assert run(["classify", "--input", as_labels, "--out", tmp_path / "vl"]) == 0
        with (tmp_path / "vl" / "verdicts.csv").open(newline="", encoding="utf-8") as fh:
            from_labels = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        from_predictions = {r[0]: r[1] for r in tables["v/verdicts.csv"]}
        assert from_predictions == from_labels
        assert set(self.IDS.values()) <= set(from_predictions)

    def test_carriage_return_in_id_exits_2_naming_its_line(self, tmp_path, capsys):
        # csv.writer would leave such an id unquoted in the "\n"-ended tables
        # that loocv and report write, and classify could not read them back
        labels = tmp_path / "labels.csv"
        rows = list(csv.reader(dmod.bundled_labels_path().read_text().splitlines()))
        rows[2][0] = "D02\rx"
        with labels.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["generate", "--labels", labels, "--pixels", 96, "--repetitions", 2,
                    "--out", tmp_path / "ds"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == \
            f"error: {labels}: line 3: oil_id 'D02\\rx' holds a carriage return\n"
        assert not (tmp_path / "ds").exists()


class TestReport:
    def test_table_and_consolidated_outputs(self, loocv_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run(["report", loocv_dir, "--out", out]) == 0
        table = capsys.readouterr().out
        assert "<MAE_T>" in table and "acidity" in table
        assert (out / "table.txt").exists()
        scatter = (out / "scatter_all.csv").read_text().splitlines()
        assert len(scatter) == 1 + 22 * 2
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[0].startswith("oil_id,acidity,")
        assert len(preds) == 1 + 22

    def test_no_completed_runs_exit_3(self, tmp_path):
        assert run(["report", tmp_path / "empty1", tmp_path / "empty2"]) == 3

    def test_incomplete_dir_skipped_with_warning(self, loocv_dir, tmp_path, capsys):
        assert run(["report", tmp_path / "ghost", loocv_dir]) == 0
        assert "skipping incomplete" in capsys.readouterr().err

    def test_summary_without_table_keys_exit_2(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_text(json.dumps(
            {"parameter": "acidity", "folds": [{"held_out_oil": "oil01"}]}))
        assert run(["report", tmp_path]) == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path}: malformed summary (KeyError: 'predictions')\n"

    def test_scatter_all_is_the_runs_scatter_files(self, dataset_dir, loocv_dir, tmp_path):
        k270 = tmp_path / "k270"
        assert run(["loocv", "--data", dataset_dir, "--parameter", "k270",
                    "--seed", 3, "--out", k270] + LOOCV_QUICK) == 0
        acidity = shutil.copytree(loocv_dir, tmp_path / "acidity")
        files = [(r / "scatter.csv").read_text().splitlines(keepends=True)
                 for r in (acidity, k270)]
        for r in (acidity, k270):
            (r / "scatter.csv").unlink()  # report builds scatter_all.csv from the summaries
        assert run(["report", acidity, k270, "--out", tmp_path / "rep"]) == 0
        assert (tmp_path / "rep" / "scatter_all.csv").read_text() == \
            "".join(files[0] + files[1][1:])
        assert files[0][0] == "parameter,oil_id,repetition,true_value,predicted\n"

    def test_run_written_before_exp_error_removal_loads(self, loocv_dir, tmp_path, capsys):
        # older runs store "label_error_pct": null and an empty exp_error column
        old = edited_run(loocv_dir, tmp_path / "old", lambda s: s.update(label_error_pct=None))
        rows = (old / "scatter.csv").read_text().splitlines()
        (old / "scatter.csv").write_text(
            "".join(f"{r},{'exp_error' if i == 0 else ''}\n" for i, r in enumerate(rows)))
        assert run(["report", loocv_dir]) == 0
        expected = capsys.readouterr().out
        assert run(["report", old]) == 0
        assert capsys.readouterr().out == expected.replace(f"  {loocv_dir}\n", f"  {old}\n")
        summary = json.loads((loocv_dir / "summary.json").read_text())
        cells = expected.splitlines()[2].split()
        assert cells[1] == f"{summary['mean_mae_train']:.3g}"
        assert cells[3] == f"{summary['mean_mae_val']:.3g}"

    def test_table_rows_name_their_run(self, loocv_dir, tmp_path, monkeypatch):
        # two runs of one parameter with equal statistics: only the run column tells them apart
        monkeypatch.chdir(tmp_path)
        shutil.copytree(loocv_dir, "ra")
        shutil.copytree(loocv_dir, "rb")
        assert run(["report", "ra", "./rb", "--out", "rep"]) == 0
        lines = (tmp_path / "rep" / "table.txt").read_text().splitlines()
        assert lines[0].endswith("  run")
        assert [l.split()[0] for l in lines[2:]] == ["acidity", "acidity"]
        assert lines[2].endswith("  ra") and lines[3].endswith("  ./rb")
        assert lines[2][:-len("ra")] == lines[3][:-len("./rb")]

    def test_two_runs_of_one_parameter_warn(self, loocv_dir, tmp_path, capsys):
        other = shutil.copytree(loocv_dir, tmp_path / "other")
        assert run(["report", loocv_dir, other, "--out", tmp_path / "rep"]) == 0
        assert f"warning: {loocv_dir} and {other} both hold acidity; " \
               f"predictions.csv takes {other}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda s: s["folds"][0].update(predictions="0.5"),
        lambda s: s.update(folds=5),
        lambda s: s["folds"][0].update(mae_val=float("nan")),
    ], ids=["string-predictions", "numeric-folds", "nan-mae"])
    def test_mistyped_summary_exit_2(self, loocv_dir, tmp_path, capsys, edit):
        bad = edited_run(loocv_dir, tmp_path / "bad", edit)
        assert run(["report", bad, "--out", tmp_path / "rep"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")


class TestExitCodes:
    """The exception's type alone decides the code: a fault is 1, bad input 2."""

    @staticmethod
    def argv(command, dataset_dir, out):
        quick = LOOCV_QUICK if command == "loocv" else LOOCV_QUICK[:-2]
        return [command, "--data", dataset_dir, "--parameter", "acidity",
                "--out", out] + quick

    @pytest.mark.parametrize("command", ["train", "loocv"])
    def test_shape_fault_exits_1(self, dataset_dir, tmp_path, monkeypatch, capsys, command):
        def faulty_step(*args):
            raise nn.ShapeError("planted fault")

        monkeypatch.setattr(nn, "_train_step", faulty_step)
        assert run(self.argv(command, dataset_dir, tmp_path / "o")) == cli.EXIT_INTERNAL == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "planted fault" in err

    @pytest.mark.parametrize("command, name, edit, where", [
        ("loocv", "spectra.csv", lambda rows: _set_cell(rows, 4, 10, "nan"), "line 4"),
        ("train", "spectra.csv", lambda rows: _set_cell(rows, 4, 10, "-inf"), "line 4"),
        ("loocv", "spectra.csv", lambda rows: rows[:2] + [rows[1]] + rows[3:], "line 3"),
        ("loocv", "labels.csv", lambda rows: _set_cell(rows, 2, 1, "nan"), "line 2"),
        ("loocv", "labels.csv",
         lambda rows: [rows[0] + ",exp_error"] + [r + ",0.1" for r in rows[1:]], "line 1"),
        ("classify", "labels.csv", lambda rows: _set_cell(rows, 2, 1, "nan"), "line 2"),
        ("classify", "labels.csv", lambda rows: _set_cell(rows, 3, 2, "inf"), "line 3"),
    ], ids=["nan-spectrum-loocv", "inf-spectrum-train", "repeated-spectrum", "nan-label",
            "exp-error-header",
            "nan-classify", "inf-classify"])
    def test_bad_input_cell_exits_2_naming_its_line(self, dataset_dir, tmp_path, capsys,
                                                    command, name, edit, where):
        data = shutil.copytree(dataset_dir, tmp_path / "ds")
        rows = (data / name).read_text().splitlines()
        (data / name).write_text("\n".join(edit(rows)) + "\n")
        argv = (["classify", "--input", data / name] if command == "classify"
                else self.argv(command, data, tmp_path / "o"))
        assert run(argv) == cli.EXIT_INPUT
        assert f"{where}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, message", [
        ("loocv", "labels.csv", "line 3: expected 7 fields, got 6"),
        ("generate", "labels.csv", "line 3: expected 7 fields, got 6"),
        ("train", "spectra.csv", "line 3: expected 99 fields, got 98"),
    ], ids=["labels-loocv", "labels-generate", "spectra-train"])
    def test_short_row_exits_2_naming_its_file(self, dataset_dir, tmp_path, capsys,
                                               command, name, message):
        data = shutil.copytree(dataset_dir, tmp_path / "ds")
        rows = (data / name).read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0]
        (data / name).write_text("\n".join(rows) + "\n")
        argv = (["generate", "--labels", data / name, "--pixels", 96, "--out", tmp_path / "o"]
                if command == "generate" else self.argv(command, data, tmp_path / "o"))
        assert run(argv) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data / name}: {message}\n"

    def test_infinite_grid_value_exits_2_naming_the_grid(self, dataset_dir, tmp_path, capsys):
        data = shutil.copytree(dataset_dir, tmp_path / "ds")
        grid = (data / "grid.txt").read_text().split()
        (data / "grid.txt").write_text("\n".join(grid[:-1] + ["inf"]) + "\n")
        assert run(self.argv("loocv", data, tmp_path / "o")) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {data / 'grid.txt'}: wavelength grid values must be finite\n")

    @pytest.mark.parametrize("command, option, cause", [
        ("train", ["--learning-rate", "nan"], "learning rate must be finite and nonnegative"),
        ("train", ["--learning-rate", "nan", "--epochs", 0],
         "learning rate must be finite and nonnegative"),
        ("train", ["--learning-rate", "inf"], "learning rate must be finite and nonnegative"),
        ("loocv", ["--jobs", -3], "jobs must be at least 1, got -3"),
    ], ids=["nan-learning-rate", "nan-learning-rate-0-epochs", "inf-learning-rate",
            "negative-jobs"])
    def test_bad_option_exits_2_and_writes_nothing(self, dataset_dir, tmp_path, capsys,
                                                   command, option, cause):
        out = tmp_path / "o"
        assert run(self.argv(command, dataset_dir, out) + option) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "loocv"])
    def test_impossible_architecture_exits_2(self, dataset_dir, tmp_path, capsys, command):
        argv = self.argv(command, dataset_dir, tmp_path / "o") + ["--ksize1", 2000]
        assert run(argv) == cli.EXIT_INPUT == 2
        assert capsys.readouterr().err == "error: conv1: input 96 shorter than filter 2000\n"


class TestHyperparameterFlags:
    @pytest.mark.parametrize("command", ["train", "loocv"])
    def test_defaults_equal_hyperparams(self, command):
        args = cli.build_parser().parse_args(
            [command, "--data", "d", "--parameter", "acidity", "--out", "o"])
        assert cli._hp_from_args(args) == nn.HyperParams()


#: Per subcommand, the argv before ``--out`` (from the dataset and a loocv run)
#: and the names of the files its manifest hashes.
MANIFEST_CASES = {
    "generate": (lambda data, runs: GEN_SMALL[:-2] + ["--excitation", 365, "--seed", 5],
                 ["generator.cfg", "grid.txt", "labels.csv", "spectra.csv"]),
    "train": (lambda data, runs: ["train", "--data", data, "--parameter", "acidity",
                                  "--seed", 3] + LOOCV_QUICK[:-2],
              ["grid.txt", "labels.csv", "spectra.csv"]),
    "loocv": (lambda data, runs: ["loocv", "--data", data, "--parameter", "acidity",
                                  "--seed", 3] + LOOCV_QUICK,
              ["grid.txt", "labels.csv", "spectra.csv"]),
    "compare": (lambda data, runs: ["compare", "--run1", runs[0], "--run2", runs[1],
                                    "--alpha", 0.2, "--two-sided"],
                ["summary1.json", "summary2.json"]),
    "classify": (lambda data, runs: ["classify", "--input", dmod.bundled_labels_path(),
                                     "--thresholds", BUNDLED_THRESHOLDS],
                 ["input.csv", "thresholds.cfg"]),
    "report": (lambda data, runs: ["report", *runs], ["summary0.json", "summary1.json"]),
}


class TestManifest:
    @pytest.mark.parametrize("command", list(MANIFEST_CASES))
    def test_records_every_option_that_shapes_the_outputs(self, dataset_dir, loocv_dir,
                                                          tmp_path, command):
        make_argv, hashed = MANIFEST_CASES[command]
        runs = [loocv_dir, shutil.copytree(loocv_dir, tmp_path / "other")]
        argv = [str(a) for a in make_argv(dataset_dir, runs) + ["--out", tmp_path / "out"]]
        assert run(argv) == 0
        meta = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert meta.pop("artifact_version") == cli.__version__
        assert meta.pop("created_utc")
        assert sorted(meta.pop("dataset_fingerprint")) == hashed
        options = vars(cli.build_parser().parse_args(argv))
        del options["func"]
        assert meta == options

    @pytest.mark.parametrize("size", [0, 1 << 20, 2 * (1 << 20) + 17])
    def test_file_hash_reads_in_chunks(self, tmp_path, size):
        # files of no, exactly one and more than two 1 MiB chunks
        f = tmp_path / "big.bin"
        f.write_bytes(np.random.default_rng(size).bytes(size))
        whole = hashlib.sha256(f.read_bytes()).hexdigest()
        assert cli.file_sha256(f) == whole

    def test_manifest_never_holds_a_whole_input(self, dataset_dir, tmp_path, monkeypatch):
        # an input larger than two chunks still gets its whole-file hash
        inputs = {n: dataset_dir / n for n in ("grid.txt", "labels.csv", "spectra.csv")}
        inputs["big.bin"] = tmp_path / "big.bin"
        inputs["big.bin"].write_bytes(np.random.default_rng(0).bytes(2 * (1 << 20) + 17))
        expected = {n: sha(f) for n, f in inputs.items()}

        def whole_file(self):
            raise AssertionError(f"read {self} whole")
        monkeypatch.setattr(type(dataset_dir), "read_bytes", whole_file)
        args = cli.build_parser().parse_args(
            ["train", "--data", str(dataset_dir), "--parameter", "acidity", "--out", "x"])
        cli.write_manifest(tmp_path, args, inputs)
        meta = json.loads((tmp_path / "manifest.json").read_text())
        assert meta["dataset_fingerprint"] == expected

    def test_validation_cadence_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["loocv", "--data", tmp_path, "--parameter", "acidity",
                 "--out", tmp_path / "o", "--val-every", 5])
        assert e.value.code == 2


class TestEntryPoint:
    def test_console_script_help(self):
        # `python -m olivenet` needs no install; pyproject.toml must map the
        # installed `olivenet` script to the same function
        import os
        import subprocess
        import sys
        from pathlib import Path

        import olivenet
        src = str(Path(olivenet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run([sys.executable, "-m", "olivenet", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for sub in ("generate", "train", "loocv", "compare", "classify", "report"):
            assert sub in proc.stdout
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert 'olivenet = "olivenet.cli:main"' in scripts
