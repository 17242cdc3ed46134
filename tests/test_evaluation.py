import tracemalloc

import numpy as np
import pytest

from olivenet import data as dmod
from olivenet import evaluation as emod
from olivenet import synth
from olivenet.data import DimensionMismatchError, OilRecord, ParameterId, Quality
from olivenet.evaluation import (
    CvSummary,
    FoldResult,
    comparability,
    error_percentages,
    loocv,
    loocv_checkpoint_runs,
    mae,
    select_checkpoint,
    summary_to_json,
)
from olivenet.nn import EmptyBatchError, HyperParams


QUICK_HP = HyperParams(filters1=2, filters2=2, ksize1=9, ksize2=3, pool=4,
                       dropout=0.0, epochs=30, batch=8, learning_rate=5e-3,
                       dense_sizes=(6, 3))


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
        with pytest.raises(EmptyBatchError):
            mae(np.array([]), np.array([]))
        with pytest.raises(DimensionMismatchError):
            mae(np.ones(3), np.ones(4))


class TestFoldStructure:
    def test_partition_arithmetic_3_oils(self, bundled_records):
        ds = tiny_dataset(bundled_records[:3], reps=2)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 2,
                            "dense_sizes": QUICK_HP.dense_sizes})
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

        def audit(net, x_tr, y_tr, *args, validation, **kwargs):
            x_va = validation[0]
            shared = sum((x_tr == row).all(axis=1).any() for row in x_va)
            audited.append((x_tr.shape[0], x_va.shape[0], shared))
            return orig(net, x_tr, y_tr, *args, validation=validation, **kwargs)

        monkeypatch.setattr(emod, "train", audit)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 2,
                            "dense_sizes": QUICK_HP.dense_sizes})
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
                         dense_sizes=(6, 3))
        summary = loocv(ds, ParameterId.ACIDITY, hp, seed=3)
        assert summary.mean_mae_val <= 0.05 * abs(c) + 1e-3


class TestSeedPairsComparison:
    def test_same_hp_different_seeds_rarely_reject(self, bundled_records):
        # same configuration, ten different seed pairs: per-fold MAE lists
        # come from one distribution, so the one-sided 5% test should accept
        # equality in at least 9 of 10 comparisons (fixed seeds, no flake)
        from olivenet.stats import compare_configs
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 2,
                            "dense_sizes": QUICK_HP.dense_sizes})
        runs = {s: loocv(ds, ParameterId.ACIDITY, hp, seed=s)
                for s in range(20)}
        accepted = 0
        for s in range(0, 20, 2):
            r = compare_configs(runs[s].fold_maes_val(),
                                runs[s + 1].fold_maes_val())
            accepted += not r.reject_equal_means
        assert accepted >= 9


class TestFoldMemory:
    def test_fold_matrices_built_on_demand(self, bundled_records):
        # 22 folds at epochs=0: only scoring runs.  Live at the peak are the
        # full matrix, one fold's training copy and its spectrum, and the
        # scoring pass's working set: about 5.4 training copies here.
        # Building every fold's copy up front holds 22 of them.
        ds = tiny_dataset(bundled_records, pixels=1024, reps=8)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 0,
                            "dense_sizes": QUICK_HP.dense_sizes})
        fold_bytes = (ds.n_oil - 1) * 8 * 1024 * 8
        tracemalloc.start()
        try:
            loocv_checkpoint_runs(ds, ParameterId.ACIDITY, hp, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * fold_bytes


class TestDeterminismAndParallelism:
    def test_same_seed_identical_serialization(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 6,
                            "dense_sizes": QUICK_HP.dense_sizes})
        a = loocv(ds, ParameterId.ACIDITY, hp, seed=7)
        b = loocv(ds, ParameterId.ACIDITY, hp, seed=7)
        assert summary_to_json(a) == summary_to_json(b)

    def test_jobs_do_not_change_results(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 4,
                            "dense_sizes": QUICK_HP.dense_sizes})
        serial = loocv(ds, ParameterId.ACIDITY, hp, seed=7, jobs=1)
        parallel = loocv(ds, ParameterId.ACIDITY, hp, seed=7, jobs=2)
        assert summary_to_json(serial) == summary_to_json(parallel)


class TestFoldResult:
    @pytest.mark.parametrize("mae_train, mae_val, preds", [
        (np.nan, 0.1, (1.0, 1.0)),
        (0.1, np.inf, (1.0, 1.0)),
        (0.1, 0.1, (1.0, np.nan)),
    ])
    def test_non_finite_values_rejected(self, mae_train, mae_val, preds):
        with pytest.raises(emod.FoldDivergedError, match="O01"):
            FoldResult("O01", 1.0, mae_train, mae_val, preds, "best_val_loss")


def _summary(parameter, maes_train, maes_val, kind="best_val_loss"):
    folds = tuple(
        FoldResult(f"O{i:02d}", 1.0, t, v, (1.0, 1.0), kind)
        for i, (t, v) in enumerate(zip(maes_train, maes_val)))
    tr = np.asarray(maes_train)
    va = np.asarray(maes_val)
    return CvSummary(
        parameter=parameter,
        mean_mae_train=float(tr.mean()), sd_mae_train=float(tr.std(ddof=1)),
        mean_mae_val=float(va.mean()), sd_mae_val=float(va.std(ddof=1)),
        var_mae_val=float(va.std(ddof=1)) ** 2, per_fold=folds)


class TestSelectCheckpoint:
    def test_comparable_run_wins(self):
        # run A: T 0.10 / V 0.12 (ratio 0.2); run B: T 0.01 / V 0.30 (ratio 29)
        a = _summary(ParameterId.ACIDITY, [0.10, 0.10], [0.12, 0.12])
        b = _summary(ParameterId.ACIDITY, [0.01, 0.01], [0.30, 0.30],
                     kind="best_train_loss")
        chosen = select_checkpoint(a, b)
        assert chosen.checkpoint == "best_val_loss"
        assert chosen.comparability_ratio == pytest.approx(0.2)
        assert comparability(b) == pytest.approx(29.0)

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
        assert comparability(a) == pytest.approx(0.2)

    def test_disjoint_oil_sets_rejected(self):
        a = _summary(ParameterId.ACIDITY, [0.1, 0.1, 0.1], [0.1, 0.1, 0.1])
        b = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.1, 0.1],
                     kind="best_train_loss")
        with pytest.raises(ValueError):
            select_checkpoint(a, b)


class TestAggregates:
    def test_sd_consistent_with_var(self, bundled_records):
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 3,
                            "dense_sizes": QUICK_HP.dense_sizes})
        s = loocv(ds, ParameterId.ACIDITY, hp, seed=2)
        assert abs(s.sd_mae_val ** 2 - s.var_mae_val) < 1e-9

    def test_mean_recomputes_from_folds(self):
        s = _summary(ParameterId.K232, [0.1, 0.3, 0.2], [0.2, 0.4, 0.9])
        assert abs(np.mean([f.mae_val for f in s.per_fold]) - s.mean_mae_val) < 1e-12


class TestErrorPercentages:
    def test_single_oil_ten_percent(self):
        s = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.2, 0.2])
        recs = [OilRecord("O00", 2.0, None, None, None, None, Quality.VOO),
                OilRecord("O01", 2.0, None, None, None, None, Quality.VOO)]
        avg, label = error_percentages(s, recs)
        assert avg == pytest.approx(10.0)
        assert label is None  # no experimental errors supplied

    def test_label_errors_all_ten_percent(self):
        s = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.2, 0.2])
        recs = [OilRecord("O00", 2.0, None, None, None, None, Quality.VOO, exp_error=0.2),
                OilRecord("O01", 4.0, None, None, None, None, Quality.VOO, exp_error=0.4)]
        _, label = error_percentages(s, recs)
        assert label == pytest.approx(10.0)

    def test_zero_label_excluded_with_warning(self):
        s = _summary(ParameterId.ACIDITY, [0.1, 0.1], [0.2, 0.2])
        recs = [OilRecord("O00", 0.0, None, None, None, None, Quality.VOO),
                OilRecord("O01", 2.0, None, None, None, None, Quality.VOO)]
        with pytest.warns(UserWarning):
            avg, _ = error_percentages(s, recs)
        assert avg == pytest.approx(10.0)


class TestSerialization:
    def test_fold_csv_and_scatter_shapes(self, bundled_records, tmp_path):
        ds = tiny_dataset(bundled_records[:4], reps=3)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 3,
                            "dense_sizes": QUICK_HP.dense_sizes})
        s = loocv(ds, ParameterId.ACIDITY, hp, seed=2)
        emod.save_fold_csv(s, tmp_path / "folds.csv")
        emod.save_scatter_csv(s, ds.records, tmp_path / "scatter.csv")
        folds = (tmp_path / "folds.csv").read_text().splitlines()
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()
        assert len(folds) == 1 + 4
        assert len(scatter) == 1 + 4 * 3  # folds x repetitions
        assert folds[0].startswith("parameter,held_out_oil,")

    def test_json_round_trips_values(self, bundled_records):
        import json
        ds = tiny_dataset(bundled_records[:4], reps=2)
        hp = HyperParams(**{**QUICK_HP.to_dict(), "epochs": 3,
                            "dense_sizes": QUICK_HP.dense_sizes})
        s = loocv(ds, ParameterId.ACIDITY, hp, seed=2)
        d = json.loads(summary_to_json(s))
        assert d["mean_mae_val"] == s.mean_mae_val  # exact float round-trip
        assert len(d["folds"]) == 4
