import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from olivenet import data as dmod
from olivenet import evaluation as emod
from olivenet import synth
from olivenet.data import OilRecord, ParameterId, Quality
from olivenet.evaluation import (
    CvSummary,
    FoldResult,
    loocv,
    loocv_checkpoint_runs,
    mae,
    select_checkpoint,
    summary_from_dict,
    summary_to_json,
)
from olivenet.nn import DivergenceError, HyperParams, ShapeError, build_network, forward
from olivenet.seeding import derive_rng


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_under_blas_threads(code: str, threads: str) -> str:
    """Standard output of ``python -c code`` with OpenBLAS limited to ``threads`` threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout

QUICK_HP = HyperParams(filters1=2, filters2=2, ksize1=9, ksize2=3, pool=4,
                       dropout=0.0, epochs=30, batch=8, learning_rate=5e-3,
                       dense1=6, dense2=3)


def constant_records(n, value):
    return [OilRecord(f"C{i:02d}", value, None, None, None, None, Quality.VOO)
            for i in range(n)]


def tiny_dataset(records, pixels=96, reps=2, seed=5, noise=0.005):
    base = synth.default_generator_config(seed=seed)
    cfg = synth.GeneratorConfig(seed=seed, peaks=base.peaks, couplings=base.couplings,
                                noise_sigma=noise, resolution_px=5)
    return synth.generate_dataset(records, 395, reps, cfg, dmod.default_grid(pixels))


class TestMae:
    def test_zero_on_match(self, rng):
        x = rng.standard_normal(8)
        assert mae(x, x.copy()) == 0.0

    def test_hand_value(self):
        assert mae(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == 2.0

    def test_jensen_mae_below_rmse(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            pred = rng.standard_normal(n) * rng.uniform(0.1, 10)
            target = rng.standard_normal(n)
            mse = float(np.mean((pred - target) ** 2))
            assert mae(pred, target) <= np.sqrt(mse) + 1e-12

    def test_errors(self):
        with pytest.raises(ShapeError, match="MAE of an empty batch"):
            mae(np.array([]), np.array([]))
        with pytest.raises(ShapeError, match=r"pred \(3,\) vs target \(4,\)"):
            mae(np.ones(3), np.ones(4))


class TestFoldStructure:
    def test_partition_arithmetic_3_oils(self, bundled_records):
        ds = tiny_dataset(bundled_records[:3], reps=2)
        hp = replace(QUICK_HP, epochs=2)
        run_val, run_train = loocv_checkpoint_runs(ds, ParameterId.ACIDITY, hp, seed=1)
        for run in (run_val, run_train):
            assert run.n_oil == 3
            held = [f.held_out_oil for f in run.per_fold]
            assert held == sorted(r.oil_id for r in ds.records)
            assert all(len(f.predictions) == 2 for f in run.per_fold)
        # each fold trains on the remaining 2 oils x 2 reps = 4 spectra
        _, _, ids = emod.design_matrices(ds, ParameterId.ACIDITY)
        assert all((ids != hold).sum() == 4 for hold in held)

    def test_validation_never_in_training(self, bundled_records, monkeypatch):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        audited = []
        orig = emod.train

        def audit(net, x, y, *args, rows=None, validation, **kwargs):
            x_tr = x if rows is None else x[rows]  # the rows train fits
            x_va = validation[0]
            shared = sum((x_tr == row).all(axis=1).any() for row in x_va)
            audited.append((x_tr.shape[0], x_va.shape[0], shared))
            return orig(net, x, y, *args, rows=rows, validation=validation, **kwargs)

        monkeypatch.setattr(emod, "train", audit)
        hp = replace(QUICK_HP, epochs=2)
        run, _ = loocv_checkpoint_runs(ds, ParameterId.ACIDITY, hp, seed=1)
        # disjoint: every fold trains on (n_oil-1)*R spectra, none held out
        assert [f.held_out_oil for f in run.per_fold] == sorted(r.oil_id for r in ds.records)
        assert audited == [(6, 2, 0)] * 4

    def test_id_audit_on_design_matrices(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        x, y, ids = emod.design_matrices(ds, ParameterId.ACIDITY)
        for hold in sorted({r.oil_id for r in ds.records}):
            assert not set(ids[ids == hold]) & set(ids[ids != hold])

    def test_needs_three_oils(self, bundled_records):
        ds = tiny_dataset(bundled_records[:2], reps=2)
        with pytest.raises(ValueError):
            loocv_checkpoint_runs(ds, ParameterId.ACIDITY, QUICK_HP, seed=1)

    def test_unfiltered_dataset_rejected(self, bundled_records):
        # D49 lacks k270: dataset must be filtered before cross-validation
        ds = tiny_dataset([r for r in bundled_records if r.oil_id in
                           ("D03", "D04", "D49")], reps=2)
        with pytest.raises(ValueError, match="filter_for_parameter"):
            loocv_checkpoint_runs(ds, ParameterId.K270, QUICK_HP, seed=1)


class TestConstantTargetSanity:
    def test_bias_only_solution_reached(self, bundled_records):
        c = 2.0
        ds = tiny_dataset(constant_records(4, c), reps=2, noise=0.01)
        hp = HyperParams(filters1=2, filters2=2, ksize1=9, ksize2=3, pool=4,
                         dropout=0.0, epochs=150, batch=8, learning_rate=2e-2,
                         dense1=6, dense2=3)
        summary = loocv(ds, ParameterId.ACIDITY, hp, seed=3)
        assert summary.mean_mae_val <= 0.05 * abs(c) + 1e-3


class TestSeedPairsComparison:
    def test_same_hp_different_seeds_rarely_reject(self, bundled_records):
        # same configuration, ten different seed pairs: per-fold MAE lists
        # come from one distribution, so the one-sided 5% test should accept
        # equality in at least 9 of 10 comparisons (fixed seeds, no flake)
        from olivenet.stats import compare_configs
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = replace(QUICK_HP, epochs=2)
        runs = {s: loocv(ds, ParameterId.ACIDITY, hp, seed=s)
                for s in range(20)}
        accepted = 0
        for s in range(0, 20, 2):
            r = compare_configs([f.mae_val for f in runs[s].per_fold],
                                [f.mae_val for f in runs[s + 1].per_fold])
            accepted += not r.reject_equal_means
        assert accepted >= 9


class TestFoldMemory:
    def test_fold_matrices_built_on_demand(self, bundled_records):
        # 22 folds at epochs=0: only scoring runs.  Live at the peak are the
        # full matrix, one fold's held-out rows and the scoring pass's
        # working set, which takes one chunk of rows at a time: about 3.3
        # training copies here.  Building every fold's copy up front holds
        # 22 of them.
        ds = tiny_dataset(bundled_records, pixels=1024, reps=8)
        hp = replace(QUICK_HP, epochs=0)
        fold_bytes = (ds.n_oil - 1) * 8 * 1024 * 8
        tracemalloc.start()
        try:
            loocv_checkpoint_runs(ds, ParameterId.ACIDITY, hp, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * fold_bytes

    def test_folds_train_on_the_design_matrix_itself(self, bundled_records, monkeypatch):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = replace(QUICK_HP, epochs=1)
        matrices, trained, scored = [], [], []
        design, real_train, real_forward = emod.design_matrices, emod.train, emod.forward

        def spy_design(*args):
            out = design(*args)
            matrices.append(out[0])
            return out

        def spy_train(net, spectra, *args, **kwargs):
            trained.append(spectra)
            return real_train(net, spectra, *args, **kwargs)

        def spy_forward(net, x):
            scored.append(x)
            return real_forward(net, x)

        monkeypatch.setattr(emod, "design_matrices", spy_design)
        monkeypatch.setattr(emod, "train", spy_train)
        monkeypatch.setattr(emod, "forward", spy_forward)
        loocv_checkpoint_runs(ds, ParameterId.ACIDITY, hp, seed=1)
        (x,) = matrices
        assert len(trained) == 4 and all(np.shares_memory(s, x) for s in trained)
        # both snapshots of a one-epoch fold come from its one scored epoch,
        # which is scored in one pass over the matrix itself
        assert len(scored) == 4 and all(s is x for s in scored)

    def test_fold_scores_align_with_their_rows(self, bundled_records):
        # at epochs=0 every snapshot is the fold's untrained network, which
        # the fold's own stream rebuilds; scoring the held-out and training
        # rows apart puts other rows in each INFER_CHUNK, which may move the
        # last bits at this shape, hence a tolerance
        ds = tiny_dataset(bundled_records[:4], reps=3)
        hp = replace(QUICK_HP, epochs=0)
        x, y, ids = emod.design_matrices(ds, ParameterId.ACIDITY)
        for run in loocv_checkpoint_runs(ds, ParameterId.ACIDITY, hp, seed=1):
            for f in run.per_fold:
                va = ids == f.held_out_oil
                net = build_network(hp, x.shape[1], derive_rng(1, "fold", f.held_out_oil))
                np.testing.assert_allclose(f.predictions, forward(net, x[va]), rtol=1e-12)
                assert f.mae_val == pytest.approx(mae(forward(net, x[va]), y[va]), rel=1e-12)
                assert f.mae_train == pytest.approx(mae(forward(net, x[~va]), y[~va]),
                                                    rel=1e-12)


class TestDeterminismAndParallelism:
    def test_same_seed_identical_serialization(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = replace(QUICK_HP, epochs=6)
        a = loocv(ds, ParameterId.ACIDITY, hp, seed=7)
        b = loocv(ds, ParameterId.ACIDITY, hp, seed=7)
        assert summary_to_json(a) == summary_to_json(b)

    def test_jobs_do_not_change_results(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = replace(QUICK_HP, epochs=4)
        serial = loocv(ds, ParameterId.ACIDITY, hp, seed=7, jobs=1)
        parallel = loocv(ds, ParameterId.ACIDITY, hp, seed=7, jobs=2)
        assert summary_to_json(serial) == summary_to_json(parallel)

    def test_blas_thread_count_does_not_change_results(self):
        # At 256 px one conv1 product per batch of the default network would
        # hold about 4 million multiply-adds, which OpenBLAS splits among two
        # threads when it may.
        code = textwrap.dedent("""
            from olivenet import data, evaluation, nn, synth
            records = data.load_bundled_labels()[:4]
            grid = data.default_grid(256)
            ds = synth.generate_dataset(records, 395, 20, synth.default_generator_config(5), grid)
            hp = nn.HyperParams(ksize2=3, epochs=3)
            s = evaluation.loocv(ds, data.ParameterId.ACIDITY, hp, seed=7)
            print(evaluation.summary_to_json(s), end="")
        """)
        outs = [_run_under_blas_threads(code, threads) for threads in ("1", "2")]
        assert outs[0] == outs[1]

    # Unsplit, one spectrum's conv1 products would hold 566k multiply-adds
    # on 2048 px and 555k at filters1=12, over the 2**19 = 524k that
    # OpenBLAS runs on one thread, and on 4096 px 1.14M; conv2's inference
    # product there would hold 1.57M.  The 4096 px case tells each of the
    # three splits apart: without any one of them its results differ.
    @pytest.mark.parametrize("sizes, pixels", [({}, 2048), ({"filters1": 12}, 1024),
                                               ({"filters2": 8, "ksize2": 60}, 4096)],
                             ids=["defaults-2048px", "filters1-12-1024px",
                                  "filters2-8-ksize2-60-4096px"])
    def test_blas_thread_count_does_not_change_engine_results(self, sizes, pixels):
        code = textwrap.dedent(f"""
            import hashlib
            import numpy as np
            from olivenet import nn
            hp = nn.HyperParams(epochs=2, **{sizes!r})
            rng = np.random.default_rng(0)
            x, y = rng.standard_normal((80, {pixels})), rng.standard_normal(80)
            net = nn.build_network(hp, {pixels}, np.random.default_rng(1))
            nn.train(net, x, y, hp, np.random.default_rng(2))
            parts = [v.tobytes() for v in net.parameters().values()]
            parts += [nn.forward(net, x).tobytes(), np.float64(nn.forward(net, x[0])).tobytes()]
            print(hashlib.sha256(b"".join(parts)).hexdigest(), end="")
        """)
        outs = [_run_under_blas_threads(code, threads) for threads in ("1", "2")]
        assert outs[0] == outs[1]

    def test_jobs_capped_at_oil_count(self, bundled_records, monkeypatch):
        # the pool starts every worker at once, each with the full matrices
        pools = []

        class InlinePool:
            """Records the pool size and runs the folds in this process."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        ds = tiny_dataset(bundled_records[:3], reps=2)
        hp = replace(QUICK_HP, epochs=2)
        serial = loocv(ds, ParameterId.ACIDITY, hp, seed=7, jobs=1)
        monkeypatch.setattr(emod, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(emod, "_WORKER_ARGS", ())
        wide = loocv(ds, ParameterId.ACIDITY, hp, seed=7, jobs=8)
        assert pools == [3]
        assert summary_to_json(wide) == summary_to_json(serial)


class TestFoldResult:
    @pytest.mark.parametrize("mae_train, mae_val, preds", [
        (np.nan, 0.1, (1.0, 1.0)),
        (0.1, np.inf, (1.0, 1.0)),
        (0.1, 0.1, (1.0, np.nan)),
    ])
    def test_non_finite_values_rejected(self, mae_train, mae_val, preds):
        with pytest.raises(DivergenceError, match="^fold O01: non-finite MAE or predictions$"):
            FoldResult("O01", 1.0, mae_train, mae_val, preds)


def _summary(parameter, maes_train, maes_val, kind="best_val_loss", labels=None):
    labels = labels or [1.0] * len(maes_val)
    return CvSummary(parameter, kind, tuple(
        FoldResult(f"O{i:02d}", label, t, v, (1.0, 1.0))
        for i, (label, t, v) in enumerate(zip(labels, maes_train, maes_val))))


class TestSelectCheckpoint:
    def test_comparable_run_wins(self):
        # run A: T 0.10 / V 0.12 (ratio 0.2); run B: T 0.01 / V 0.30 (ratio 29)
        a = _summary(ParameterId.ACIDITY, [0.10, 0.10], [0.12, 0.12])
        b = _summary(ParameterId.ACIDITY, [0.01, 0.01], [0.30, 0.30],
                     kind="best_train_loss")
        chosen = select_checkpoint(a, b)
        assert chosen.checkpoint == "best_val_loss"
        assert chosen.comparability_ratio == pytest.approx(0.2)
        assert b.comparability_ratio == pytest.approx(29.0)

    def test_tie_takes_first(self):
        a = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.1, 0.1])
        b = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.1, 0.1],
                     kind="best_train_loss")
        assert select_checkpoint(a, b).checkpoint == "best_val_loss"

    def test_val_below_train_still_comparable(self):
        a = _summary(ParameterId.ACIDITY, [0.10, 0.10], [0.08, 0.08])
        b = _summary(ParameterId.ACIDITY, [0.10, 0.10], [0.30, 0.30],
                     kind="best_train_loss")
        assert select_checkpoint(a, b).checkpoint == "best_val_loss"
        assert a.comparability_ratio == pytest.approx(0.2)

    def test_disjoint_oil_sets_rejected(self):
        a = _summary(ParameterId.ACIDITY, [0.1, 0.1, 0.1], [0.1, 0.1, 0.1])
        b = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.1, 0.1],
                     kind="best_train_loss")
        with pytest.raises(ValueError):
            select_checkpoint(a, b)


class TestAggregates:
    def test_sd_consistent_with_var(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = replace(QUICK_HP, epochs=3)
        s = loocv(ds, ParameterId.ACIDITY, hp, seed=2)
        assert abs(s.sd_mae_val ** 2 - s.var_mae_val) < 1e-9

    def test_mean_recomputes_from_folds(self):
        s = _summary(ParameterId.K232, [0.1, 0.3, 0.2], [0.2, 0.4, 0.9])
        assert abs(np.mean([f.mae_val for f in s.per_fold]) - s.mean_mae_val) < 1e-12


class TestErrorPercentages:
    def test_single_oil_ten_percent(self):
        s = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.2, 0.2], labels=[2.0, 2.0])
        assert s.average_error_pct == pytest.approx(10.0)

    def test_zero_label_excluded(self):
        s = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.2, 0.2], labels=[0.0, 2.0])
        assert s.average_error_pct == pytest.approx(10.0)

    def test_all_zero_labels_give_none(self):
        hp = replace(QUICK_HP, epochs=1)
        s = loocv(tiny_dataset(constant_records(3, 0.0)), ParameterId.ACIDITY, hp, seed=1)
        assert s.average_error_pct is None
        assert summary_from_dict(json.loads(summary_to_json(s))).average_error_pct is None


class TestSerialization:
    def test_fold_csv_and_scatter_shapes(self, bundled_records, tmp_path):
        ds = tiny_dataset(bundled_records[:4], reps=3)
        hp = replace(QUICK_HP, epochs=3)
        s = loocv(ds, ParameterId.ACIDITY, hp, seed=2)
        emod.save_fold_csv(s, tmp_path / "folds.csv")
        emod.save_scatter_csv([s], tmp_path / "scatter.csv")
        folds = (tmp_path / "folds.csv").read_text().splitlines()
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()
        assert len(folds) == 1 + 4
        assert len(scatter) == 1 + 4 * 3  # folds x repetitions
        assert folds[0].startswith("parameter,held_out_oil,")

    def test_json_round_trips_values(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = replace(QUICK_HP, epochs=3)
        s = loocv(ds, ParameterId.ACIDITY, hp, seed=2)
        d = json.loads(summary_to_json(s))
        assert d["mean_mae_val"] == s.mean_mae_val  # exact float round-trip
        assert len(d["folds"]) == 4
        assert summary_from_dict(d) == s  # the inverse, aggregates recomputed

    def test_summary_with_per_fold_checkpoints_loads(self):
        # summaries written before the kind became the run's also hold it on each fold
        s = _summary(ParameterId.ACIDITY, [0.1] * 3, [0.2] * 3, kind="best_train_loss")
        d = json.loads(summary_to_json(s))
        for f in d["folds"]:
            f["chosen_checkpoint"] = "best_train_loss"
        assert summary_from_dict(d) == s

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("parameter"),
        lambda d: d["folds"][0].pop("mae_val"),
        lambda d: d.update(folds=5),
        lambda d: d.update(folds=[]),
        lambda d: d.update(folds=d["folds"][:2]),
        lambda d: d.update(folds=d["folds"] + d["folds"][:1]),
        lambda d: d.update(parameter="acidty"),
        lambda d: d["folds"][0].update(true_value=float("nan")),
        lambda d: d["folds"][0].update(predictions="12"),
        lambda d: d["folds"][0].update(held_out_oil=3),
        lambda d: d["folds"][0].update(mae_val=float("nan")),
        lambda d: d["folds"][0].update(mae_val=10 ** 400),
        lambda d: d["folds"][0].update(mae_train=-0.1),
        lambda d: d.update(checkpoint="last"),
        lambda d: d.pop("checkpoint"),
    ])
    def test_summary_from_dict_rejects_malformed_input(self, edit):
        folds = [{"held_out_oil": f"O{i}", "true_value": 1.0, "mae_train": 0.1,
                  "mae_val": 0.2, "predictions": [1.1, 0.9]} for i in range(3)]
        d = {"parameter": "acidity", "checkpoint": "best_val_loss", "folds": folds}
        assert summary_from_dict(d).mean_mae_val == pytest.approx(0.2)
        edit(d)
        with pytest.raises(ValueError):
            summary_from_dict(d)
