import json
import hashlib

import numpy as np
import pytest

from olivenet import cli
from olivenet import data as dmod
from olivenet import nn


def run(argv):
    return cli.main([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_SMALL = ["generate", "--pixels", 96, "--repetitions", 2, "--seed", 7]
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

    def test_missing_labels_path_exit_2(self, tmp_path, capsys):
        code = run(["generate", "--labels", tmp_path / "nope.csv",
                    "--out", tmp_path / "x"])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_manifest_fields(self, dataset_dir):
        meta = json.loads((dataset_dir / "manifest.json").read_text())
        assert meta["command"] == "generate"
        assert meta["seed"] == 7
        assert "spectra.csv" in meta["dataset_fingerprint"]


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
                            dropout=0.0, epochs=0, dense_sizes=(6, 3))
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
        import shutil
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        (data / "spectra.csv").write_text("")
        assert run(["loocv", "--data", data, "--parameter", "acidity",
                    "--out", tmp_path / "r"] + LOOCV_QUICK) == 2
        assert "empty spectra file" in capsys.readouterr().err

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
            rows = [f"acidity,oil{i:02d},{mean + d}\n" for i, d in enumerate(spread)]
            (runs[name] / "folds.csv").write_text(
                "parameter,held_out_oil,mae_val\n" + "".join(rows))
            (runs[name] / "summary.json").write_text(json.dumps({"num_parameters": n_params}))

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


class TestClassify:
    def test_bundled_labels_match_quality_column(self, tmp_path, capsys):
        assert run(["classify", "--input", dmod.bundled_labels_path()]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = dict(line.split(",")[:2] for line in out[1:])
        for rec in dmod.load_bundled_labels():
            assert rows[rec.oil_id] == rec.quality.value

    def test_writes_verdicts_csv(self, tmp_path):
        out = tmp_path / "v"
        assert run(["classify", "--input", dmod.bundled_labels_path(),
                    "--out", out]) == 0
        text = (out / "verdicts.csv").read_text()
        assert text.startswith("oil_id,grade,")
        assert len(text.splitlines()) == 1 + 22


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


class TestHyperparameterFlags:
    @pytest.mark.parametrize("command", ["train", "loocv"])
    def test_defaults_equal_hyperparams(self, command):
        args = cli.build_parser().parse_args(
            [command, "--data", "d", "--parameter", "acidity", "--out", "o"])
        assert cli._hp_from_args(args) == nn.HyperParams()


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
