"""Acceptance suite: one test per release criterion, hardest last.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in the captured output).  Criterion 6 trains the full leave-one-oil-out
protocol at desk scale and dominates the suite's runtime; everything else
finishes in seconds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

from conftest import finite_difference, train_step
from olivenet import data as dmod
from olivenet import evaluation as emod
from olivenet import nn
from olivenet import quality as qmod
from olivenet import stats as smod
from olivenet import synth
from olivenet.data import ParameterId


@contextmanager
def criterion(number, desc, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget_s is not None and dt > budget_s:
            raise AssertionError(f"runtime {dt:.1f}s exceeds the {budget_s}s budget")
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"[acceptance] criterion {number:02d} FAIL ({dt:.1f}s): {desc}")
        raise
    print(f"[acceptance] criterion {number:02d} PASS ({dt:.1f}s): {desc}")


@pytest.fixture(scope="module")
def full_dataset(bundled_records):
    """The default-scale synthetic dataset: 22 oils x 20 reps, P=1024, seed 7."""
    cfg = synth.default_generator_config(seed=7)
    grid = dmod.default_grid(1024)
    return synth.generate_dataset(bundled_records, 395, 20, cfg, grid)


# -- criterion 1: gradient correctness ---------------------------------------

def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(101)
    with criterion(1, "finite-difference gradient checks, every layer type "
                      "+ composite P=64 network", budget_s=30):
        for _ in range(20):  # conv layers
            c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            length = int(rng.integers(k + 1, k + 10))
            x = rng.standard_normal((c_in, length))
            layer = nn.Conv1DLayer(rng.standard_normal((c_out, c_in, k)),
                                   rng.standard_normal(c_out))
            r = rng.standard_normal((c_out, length - k + 1))
            gx, gf, gb = nn.conv1d_backward(r, x, layer)
            loss = lambda: float((nn.conv1d_forward(x, layer) * r).sum())
            np.testing.assert_allclose(gf, finite_difference(loss, layer.filters),
                                       rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gb, finite_difference(loss, layer.biases),
                                       rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gx, finite_difference(loss, x),
                                       rtol=1e-4, atol=1e-7)

        for _ in range(20):  # dense layers, both activations
            act = "relu" if rng.random() < 0.5 else "identity"
            n_in, n_out = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            layer = nn.DenseLayer(rng.standard_normal((n_out, n_in)),
                                  rng.standard_normal(n_out), act)
            x = rng.standard_normal(n_in)
            r = rng.standard_normal(n_out)
            gx, gw, gb = nn.dense_backward(r, x, layer)
            loss = lambda: float(nn.dense_forward(x, layer) @ r)
            np.testing.assert_allclose(gw, finite_difference(loss, layer.weights),
                                       rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gb, finite_difference(loss, layer.biases),
                                       rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gx, finite_difference(loss, x),
                                       rtol=1e-4, atol=1e-7)

        for _ in range(20):  # max pooling through an affine pre-map (no ties)
            x = rng.standard_normal((2, 12))
            w = rng.standard_normal((2, 12))
            r = rng.standard_normal((2, 4))
            _, idx = nn.maxpool_forward(x * w, 3)
            gx = nn.maxpool_backward(r, idx, 12) * w

            def loss():
                out, _ = nn.maxpool_forward(x * w, 3)
                return float((out * r).sum())

            np.testing.assert_allclose(gx, finite_difference(loss, x),
                                       rtol=1e-4, atol=1e-7)

        for _ in range(20):  # dropout with a frozen mask is a linear map
            x = rng.standard_normal(30)
            mask = rng.random(30) >= 0.5
            r = rng.standard_normal(30)
            scale = mask / 0.5
            ganalytic = r * scale
            loss = lambda: float((x * scale) @ r)
            np.testing.assert_allclose(ganalytic, finite_difference(loss, x),
                                       rtol=1e-4, atol=1e-7)

        for _ in range(20):  # mse
            pred = rng.standard_normal(9)
            target = rng.standard_normal(9)
            _, grad = nn.mse_loss(pred, target)
            loss = lambda: nn.mse_loss(pred, target)[0]
            np.testing.assert_allclose(grad, finite_difference(loss, pred),
                                       rtol=1e-4, atol=1e-7)

        # composite gradient: every parameter of a P=64 toy network
        hp = nn.HyperParams(filters1=2, filters2=3, ksize1=5, ksize2=3, pool=2,
                            dropout=0.0, dense_sizes=(6, 4))
        net = nn.build_network(hp, 64, np.random.default_rng(64))
        xs = rng.standard_normal((3, 64))
        ys = rng.standard_normal(3)

        def net_loss():
            return nn.mse_loss(train_step(net, xs, ys)[0], ys)[0]

        _, grads = train_step(net, xs, ys)
        for key, param in net.parameters().items():
            np.testing.assert_allclose(
                grads[key], finite_difference(net_loss, param),
                rtol=1e-4, atol=1e-7, err_msg=key)


# -- criterion 2: convolution oracle equivalence ------------------------------

def test_criterion_02_convolution_oracle_bitwise():
    def oracle(x, filters, biases):
        c_out, c_in, k = filters.shape
        l_out = x.shape[1] - k + 1
        out = np.empty((c_out, l_out))
        for c in range(c_out):
            for i in range(l_out):
                acc = biases[c]
                for j in range(c_in):
                    for kk in range(k):
                        acc += filters[c, j, kk] * x[j, i + kk]
                out[c, i] = acc
        return out

    rng = np.random.default_rng(202)
    with criterion(2, "200 randomized conv cases bitwise-equal to the "
                      "double-loop oracle", budget_s=10):
        for _ in range(200):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 5))
            k = int(rng.integers(1, 9))
            length = int(rng.integers(k, k + 33))
            x = rng.standard_normal((c_in, length)) * rng.uniform(0.1, 100)
            layer = nn.Conv1DLayer(rng.standard_normal((c_out, c_in, k)),
                                   rng.standard_normal(c_out))
            assert np.array_equal(nn.conv1d_forward(x, layer),
                                  oracle(x, layer.filters, layer.biases))


# -- criterion 3: normalization invariants ------------------------------------

def test_criterion_03_normalization_invariants():
    rng = np.random.default_rng(303)
    grid = dmod.WavelengthGrid(np.arange(350.0, 350.0 + 60.0))
    with criterion(3, "1000 random spectra normalize to mean 0 / std 1 at "
                      "1e-9; affine invariance at 1e-6", budget_s=5):
        for _ in range(1000):
            raw = rng.random(60) * rng.uniform(0.5, 5e3)
            s = dmod.Spectrum(grid, raw, 395, "X", 1)
            z = dmod.normalize(s).intensities
            assert abs(z.mean()) < 1e-9
            assert abs(z.std() - 1.0) < 1e-9
        for _ in range(50):
            raw = rng.random(60)
            a, b = rng.uniform(0.01, 300), rng.uniform(-50, 50)
            z0 = dmod.normalize(dmod.Spectrum(grid, raw, 395, "X", 1)).intensities
            z1 = dmod.normalize(dmod.Spectrum(grid, a * raw + b, 395, "X", 1)).intensities
            np.testing.assert_allclose(z1, z0, atol=1e-6)


# -- criterion 4: dataset bookkeeping matches the bundled label table ---------

def test_criterion_04_per_parameter_sample_counts(bundled_records):
    with criterion(4, "bundled labels filter to 22/21/18/18/18 oils per "
                      "parameter", budget_s=1):
        cfg = synth.default_generator_config(seed=1)
        ds = synth.generate_dataset(bundled_records, 395, 1, cfg,
                                    dmod.default_grid(64))
        expected = {ParameterId.ACIDITY: 22, ParameterId.PEROXIDE: 21,
                    ParameterId.K270: 18, ParameterId.K232: 18,
                    ParameterId.ETHYL_ESTERS: 18}
        for parameter, count in expected.items():
            filtered = dmod.filter_for_parameter(ds, parameter)
            assert filtered.n_oil == count, parameter
            assert filtered.n_spectra == count * ds.repetitions_per_oil


# -- criterion 5: LOOCV partition properties and determinism ------------------

def test_criterion_05_loocv_partition_and_determinism(full_dataset):
    hp = nn.HyperParams(epochs=10)
    with criterion(5, "22 folds partition cleanly; seed-7 runs byte-identical "
                      "at epochs=10", budget_s=60):
        x, y, ids = emod.design_matrices(full_dataset, ParameterId.ACIDITY)
        oils = sorted({r.oil_id for r in full_dataset.records})
        assert len(oils) == 22
        seen_val = []
        for hold in oils:  # fold partition audit
            va = ids == hold
            assert va.sum() == 20
            assert not set(ids[va]) & set(ids[~va])
            seen_val.extend(ids[va])
        assert sorted(set(seen_val)) == oils  # union covers every oil once

        a = emod.loocv(full_dataset, ParameterId.ACIDITY, hp, seed=7)
        b = emod.loocv(full_dataset, ParameterId.ACIDITY, hp, seed=7)
        assert emod.summary_to_json(a).encode() == emod.summary_to_json(b).encode()
        assert a.n_oil == 22


# -- criteria 7-10: fast numerical checks -------------------------------------

def test_criterion_07_t_test_correctness():
    with criterion(7, "pooled sd / t statistic to 1e-12; quantile vs oracle; "
                      "H0 rejection rate in [0.04, 0.06]", budget_s=120):
        assert abs(smod.pooled_sd(2.0, 4.0, 22) - math.sqrt(3.0)) < 1e-12
        assert abs(smod.pooled_sd(0.7, 0.7, 9) - math.sqrt(0.7)) < 1e-12
        assert abs(smod.t_statistic(1.0, 0.5, 1.0, 8) - 1.0) < 1e-12
        assert smod.t_statistic(0.3, 0.3, 2.0, 5) == 0.0

        assert abs(smod.t_critical(0.05, 42) - 1.681952) < 1e-4
        assert abs(smod.t_critical(0.05, 42) - scipy.stats.t.ppf(0.95, 42)) < 1e-6
        assert abs(smod.t_critical(0.05, 1) - 6.3138) < 1e-3
        assert abs(smod.t_critical(0.05, 10 ** 6) - 1.644854) < 1e-4

        rng = np.random.default_rng(707)
        n_trials, n_oil = 10_000, 20
        s1 = rng.standard_normal((n_trials, n_oil))
        s2 = rng.standard_normal((n_trials, n_oil))
        sp = np.sqrt((s1.var(axis=1, ddof=1) + s2.var(axis=1, ddof=1)) / 2.0)
        t = (s1.mean(axis=1) - s2.mean(axis=1)) / (sp * np.sqrt(2.0 / n_oil))
        rate = float(np.mean(t > smod.t_critical(0.05, 2 * n_oil - 2)))
        assert 0.04 <= rate <= 0.06, rate


def test_criterion_08_quality_table_reproduction(bundled_records):
    with criterion(8, "default thresholds reproduce the bundled quality "
                      "column 22/22", budget_s=1):
        thresholds = qmod.default_thresholds()
        hits = sum(qmod.classify(r, thresholds).grade == r.quality
                   for r in bundled_records)
        assert hits == 22


def test_criterion_09_architecture_shape_algebra():
    with criterion(9, "shape chain matches closed form over the full tuning "
                      "grid at P=1024", budget_s=1):
        for f1 in nn.FILTERS_GRID:
            for f2 in nn.FILTERS_GRID:
                for pool in nn.POOL_GRID:
                    hp = nn.HyperParams(filters1=f1, filters2=f2, pool=pool)
                    s = nn.network_shapes(hp, 1024)
                    l1 = 1024 - hp.ksize1 + 1
                    lp = l1 // pool
                    l2 = lp - hp.ksize2 + 1
                    assert (s["conv1"], s["pool"], s["conv2"], s["flatten"]) == \
                        (l1, lp, l2, f2 * l2)
        chosen = nn.network_shapes(nn.HyperParams(), 1024)
        assert (chosen["conv1"], chosen["pool"], chosen["conv2"],
                chosen["flatten"]) == (985, 123, 104, 416)


def test_criterion_10_mse_mae_definitions():
    rng = np.random.default_rng(1010)
    with criterion(10, "MSE/MAE definitions; MAE <= sqrt(MSE) on 100 random "
                       "batches", budget_s=1):
        loss, grad = nn.mse_loss(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
        assert loss == 5.0
        np.testing.assert_allclose(grad, [1.0, 3.0])
        assert emod.mae(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == 2.0
        for _ in range(100):
            n = int(rng.integers(1, 50))
            pred = rng.standard_normal(n) * rng.uniform(0.1, 10)
            target = rng.standard_normal(n)
            mse, _ = nn.mse_loss(pred, target)
            assert emod.mae(pred, target) <= math.sqrt(mse) + 1e-12


# -- criterion 6: end-to-end learning at desk scale (runs last; slow) ---------

def test_criterion_06_end_to_end_learning(full_dataset, bundled_records):
    hp = nn.HyperParams()  # 6/40 -> pool 8 -> 4/20 -> 16 -> 8 -> 1, epochs 500
    labels = np.array([r.acidity for r in bundled_records])

    # independent baseline: predict the training-label mean for each held-out
    # oil; fold MAE is then |mean(others) - label|
    total = labels.sum()
    baseline = float(np.mean(
        [abs(lab - (total - lab) / (len(labels) - 1)) for lab in labels]))

    with criterion(6, "selected-checkpoint <MAE_V> beats half the "
                      "predict-the-mean baseline; leakage guard holds "
                      "(desktop runtime target: 15 min)"):
        t0 = time.perf_counter()
        # folds draw their own RNG streams, so jobs=2 gives the jobs=1 result
        summary = emod.loocv(full_dataset, ParameterId.ACIDITY, hp, seed=7, jobs=2)
        minutes = (time.perf_counter() - t0) / 60.0
        print(f"[acceptance] criterion 06 detail: <MAE_V>={summary.mean_mae_val:.4f} "
              f"<MAE_T>={summary.mean_mae_train:.4f} baseline={baseline:.4f} "
              f"checkpoint={summary.checkpoint} runtime={minutes:.1f} min")
        assert summary.n_oil == 22
        assert summary.mean_mae_val <= 0.5 * baseline
        assert summary.mean_mae_val <= 3.0 * summary.mean_mae_train  # leakage guard
