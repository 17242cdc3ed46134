import numpy as np
import pytest

from conftest import TOY_HP, TOY_P, train_step
from olivenet import nn
from olivenet.nn import (
    DivergenceError,
    HyperParams,
    ShapeError,
    build_network,
    forward,
    load_network,
    save_network,
    save_trace,
    train,
)


def toy_problem(rng, n=24):
    """Linear target on standardized spectra: learnable by the toy net."""
    x = rng.standard_normal((n, TOY_P))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    w = np.zeros(TOY_P)
    w[:8] = 0.5
    y = x @ w
    return x, y


class TestTrain:
    def test_lr_zero_leaves_parameters_bitwise(self, rng):
        net = build_network(TOY_HP, TOY_P, np.random.default_rng(1))
        before = net.copy_parameters()
        x, y = toy_problem(rng)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 1,
                            "learning_rate": 0.0, "dense_sizes": TOY_HP.dense_sizes})
        train(net, x, y, hp, np.random.default_rng(2))
        after = net.parameters()
        for k in before:
            assert np.array_equal(after[k], before[k])

    def test_epochs_zero_is_noop(self, rng):
        net = build_network(TOY_HP, TOY_P, np.random.default_rng(1))
        before = net.copy_parameters()
        x, y = toy_problem(rng)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 0,
                            "dense_sizes": TOY_HP.dense_sizes})
        trace = train(net, x, y, hp, np.random.default_rng(2))
        assert trace == []
        for k, v in net.parameters().items():
            assert np.array_equal(v, before[k])

    def test_convex_sanity_loss_drops_100x(self, rng):
        # conv layers bypassed by an identity-like config (K=1, one unit
        # filter, pool 1) on positive inputs: reduces to an MLP on x
        hp = HyperParams(filters1=1, filters2=1, ksize1=1, ksize2=1, pool=1,
                         dropout=0.0, epochs=200, batch=8, learning_rate=2e-2,
                         dense_sizes=(8, 4))
        p = 16
        x = rng.uniform(0.5, 1.5, (32, p))
        y = x.sum(axis=1) - 16.0
        net = build_network(hp, p, np.random.default_rng(3))
        net.conv1.filters[:] = 1.0
        net.conv1.biases[:] = 0.0
        net.conv2.filters[:] = 1.0
        net.conv2.biases[:] = 0.0
        trace = train(net, x, y, hp, np.random.default_rng(4))
        assert trace[-1].train_mse <= trace[0].train_mse / 100.0

    def test_equal_seeds_identical_traces_and_weights(self, rng):
        x, y = toy_problem(rng)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 10, "dropout": 0.5,
                            "dense_sizes": TOY_HP.dense_sizes})
        runs = []
        for _ in range(2):
            net = build_network(hp, TOY_P, np.random.default_rng(7))
            trace = train(net, x, y, hp, np.random.default_rng(8))
            runs.append((trace, net.copy_parameters()))
        (t1, p1), (t2, p2) = runs
        assert [(r.epoch, r.train_mse, r.val_mse) for r in t1] == \
            [(r.epoch, r.train_mse, r.val_mse) for r in t2]
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_validation_cadence(self, rng):
        x, y = toy_problem(rng)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 25,
                            "dense_sizes": TOY_HP.dense_sizes})
        trace = train(net=build_network(hp, TOY_P, np.random.default_rng(0)),
                      spectra=x, targets=y, hp=hp, rng=np.random.default_rng(1),
                      validation=(x[:4], y[:4]), val_every=10)
        with_val = [r.epoch for r in trace if r.val_mse is not None]
        assert with_val == [9, 19, 24]  # every 10th and the final epoch

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_error_carries_epoch(self, rng):
        # Adam steps are bounded by lr, so overflow needs an absurd rate
        net = build_network(TOY_HP, TOY_P, np.random.default_rng(3))
        x, y = toy_problem(rng)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 5, "learning_rate": 1e200,
                            "dense_sizes": TOY_HP.dense_sizes})
        with pytest.raises(DivergenceError) as ei:
            train(net, x, y, hp, np.random.default_rng(4))
        assert ei.value.epoch >= 0

    def test_reused_buffers_match_fresh_arrays(self, rng):
        # train() reuses its conv1 buffers across batches, the last one
        # partial; replaying its steps with fresh arrays must agree bitwise
        x, y = toy_problem(rng, n=10)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 2, "batch": 4, "dropout": 0.5,
                            "dense_sizes": TOY_HP.dense_sizes})
        net = build_network(hp, TOY_P, np.random.default_rng(0))
        ref = build_network(hp, TOY_P, np.random.default_rng(0))
        train(net, x, y, hp, np.random.default_rng(1))
        replay = np.random.default_rng(1)
        opt = nn.Adam(ref.parameters(), hp.learning_rate)
        for _ in range(hp.epochs):
            order = replay.permutation(len(x))
            for lo in range(0, len(x), hp.batch):
                idx = order[lo:lo + hp.batch]
                _, grads = train_step(ref, x[idx], y[idx], replay)
                opt.step(grads)
        for k, v in net.parameters().items():
            assert np.array_equal(v, ref.parameters()[k]), k

    def test_wrong_spectrum_length_rejected(self, rng):
        x, y = toy_problem(rng)
        net = build_network(TOY_HP, TOY_P + 1, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            train(net, x, y, TOY_HP, np.random.default_rng(1))

    def test_callbacks_see_every_epoch(self, rng):
        x, y = toy_problem(rng)
        seen = []
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 4,
                            "dense_sizes": TOY_HP.dense_sizes})
        train(build_network(hp, TOY_P, np.random.default_rng(0)), x, y, hp,
              np.random.default_rng(1),
              callbacks=[lambda e, t, v, net: seen.append(e)])
        assert seen == [0, 1, 2, 3]


class TestTraceCsv:
    def test_round_trippable_text(self, tmp_path, rng):
        x, y = toy_problem(rng)
        hp = HyperParams(**{**TOY_HP.to_dict(), "epochs": 3,
                            "dense_sizes": TOY_HP.dense_sizes})
        trace = train(build_network(hp, TOY_P, np.random.default_rng(0)), x, y,
                      hp, np.random.default_rng(1), validation=(x, y), val_every=2)
        save_trace(trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == trace[0].train_mse


class TestCheckpointFormat:
    def test_roundtrip_bitwise(self, tmp_path, toy_net):
        save_network(toy_net, tmp_path / "m.ocnn")
        back = load_network(tmp_path / "m.ocnn")
        assert back.hp == toy_net.hp
        assert back.input_len == toy_net.input_len
        for k, v in toy_net.parameters().items():
            assert np.array_equal(back.parameters()[k], v)

    def test_predictions_survive_roundtrip(self, tmp_path, toy_net, rng):
        x = rng.standard_normal(TOY_P)
        save_network(toy_net, tmp_path / "m.ocnn")
        assert forward(load_network(tmp_path / "m.ocnn"), x) == forward(toy_net, x)

    def test_magic_and_layout(self, tmp_path, toy_net):
        save_network(toy_net, tmp_path / "m.ocnn")
        raw = (tmp_path / "m.ocnn").read_bytes()
        assert raw[:5] == b"OCNN1"
        assert raw[5] == 1  # version
        n_param_bytes = 8 * toy_net.num_parameters()
        assert raw.endswith(
            np.ascontiguousarray(toy_net.output.biases, dtype="<f8").tobytes())
        header_len = int.from_bytes(raw[6:10], "little")
        assert len(raw) == 10 + header_len + n_param_bytes

    def test_truncated_file_rejected(self, tmp_path, toy_net):
        save_network(toy_net, tmp_path / "m.ocnn")
        raw = (tmp_path / "m.ocnn").read_bytes()
        (tmp_path / "bad.ocnn").write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_network(tmp_path / "bad.ocnn")

    def test_wrong_magic_rejected(self, tmp_path):
        (tmp_path / "junk.ocnn").write_bytes(b"NOPE1" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_network(tmp_path / "junk.ocnn")
