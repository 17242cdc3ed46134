from dataclasses import replace

import numpy as np
import pytest

from conftest import TOY_HP, TOY_P, finite_difference, train_step
from olivenet import nn
from olivenet.nn import (
    Conv1DLayer,
    DenseLayer,
    HyperParams,
    ShapeError,
    build_network,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout_apply,
    forward,
    maxpool_backward,
    maxpool_forward,
    mse_loss,
    network_shapes,
)


def naive_conv1d(x, filters, biases):
    """Brute-force oracle with the pinned order: bias, then k inner, j outer."""
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


class TestConvForward:
    def test_delta_filter_selects_leading(self):
        layer = Conv1DLayer(np.array([[[1.0, 0.0]]]), np.zeros(1))
        out = conv1d_forward(np.array([1.0, 2.0, 3.0, 4.0]), layer)
        assert np.array_equal(out, [[1.0, 2.0, 3.0]])

    def test_ones_filter_hand_dot(self):
        layer = Conv1DLayer(np.array([[[1.0, 1.0, 1.0]]]), np.zeros(1))
        out = conv1d_forward(np.array([1.0, 2.0, 3.0]), layer)
        assert np.array_equal(out, [[6.0]])

    def test_window_sum_plus_bias_vs_oracle(self, rng):
        x = rng.standard_normal((2, 17))
        layer = Conv1DLayer(np.ones((3, 2, 4)), rng.standard_normal(3))
        assert np.array_equal(conv1d_forward(x, layer),
                              naive_conv1d(x, layer.filters, layer.biases))

    def test_bitwise_oracle_equality_randomized(self, rng):
        for _ in range(40):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.integers(1, 7))
            length = int(rng.integers(k, k + 30))
            x = rng.standard_normal((c_in, length))
            layer = Conv1DLayer(rng.standard_normal((c_out, c_in, k)),
                                rng.standard_normal(c_out))
            mine = conv1d_forward(x, layer)
            ref = naive_conv1d(x, layer.filters, layer.biases)
            assert np.array_equal(mine, ref)  # bitwise by the shared order

    def test_too_short_input(self):
        layer = Conv1DLayer(np.ones((1, 1, 5)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv1d_forward(np.ones(4), layer)

    def test_channel_mismatch(self):
        layer = Conv1DLayer(np.ones((1, 2, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv1d_forward(np.ones((3, 10)), layer)


class TestConvBackward:
    def test_zero_grad_gives_zero(self, rng):
        x = rng.standard_normal((2, 12))
        layer = Conv1DLayer(rng.standard_normal((3, 2, 4)), rng.standard_normal(3))
        gx, gf, gb = conv1d_backward(np.zeros((3, 9)), x, layer)
        assert not gx.any() and not gf.any() and not gb.any()

    def test_bias_grad_sums_positions(self, rng):
        x = rng.standard_normal((1, 10))
        layer = Conv1DLayer(rng.standard_normal((2, 1, 3)), np.zeros(2))
        g = rng.standard_normal((2, 8))
        _, _, gb = conv1d_backward(g, x, layer)
        np.testing.assert_allclose(gb, g.sum(axis=1), rtol=1e-12)

    def test_hand_expanded_small_case(self):
        # x length 3, K = 2: out = [f0*x0 + f1*x1 + b, f0*x1 + f1*x2 + b]
        x = np.array([[2.0, -1.0, 3.0]])
        layer = Conv1DLayer(np.array([[[0.5, -2.0]]]), np.array([0.3]))
        g = np.array([[1.0, 10.0]])
        gx, gf, gb = conv1d_backward(g, x, layer)
        np.testing.assert_allclose(gf[0, 0], [x[0, 0] * 1 + x[0, 1] * 10,
                                              x[0, 1] * 1 + x[0, 2] * 10])
        np.testing.assert_allclose(gx[0], [0.5 * 1, -2.0 * 1 + 0.5 * 10, -2.0 * 10])
        assert gb[0] == 11.0

    def test_gradients_vs_finite_differences(self, rng):
        for trial in range(20):
            c_in = int(rng.integers(1, 3))
            c_out = int(rng.integers(1, 3))
            k = int(rng.integers(1, 5))
            length = int(rng.integers(k + 1, k + 9))
            x = rng.standard_normal((c_in, length))
            layer = Conv1DLayer(rng.standard_normal((c_out, c_in, k)),
                                rng.standard_normal(c_out))
            r = rng.standard_normal((c_out, length - k + 1))

            def loss():
                return float((conv1d_forward(x, layer) * r).sum())

            gx, gf, gb = conv1d_backward(r, x, layer)
            np.testing.assert_allclose(gf, finite_difference(loss, layer.filters),
                                       rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gb, finite_difference(loss, layer.biases),
                                       rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gx, finite_difference(loss, x),
                                       rtol=1e-4, atol=1e-7)


class TestMaxPool:
    def test_basic(self):
        out, idx = maxpool_forward(np.array([1.0, 3.0, 2.0, 5.0]), 2)
        assert np.array_equal(out, [[3.0, 5.0]])
        assert np.array_equal(idx, [[1, 3]])

    def test_pool_one_is_identity(self):
        out, idx = maxpool_forward(np.array([7.0]), 1)
        assert np.array_equal(out, [[7.0]])

    def test_tie_break_first(self):
        out, idx = maxpool_forward(np.array([4.0, 4.0, 1.0]), 2)
        assert np.array_equal(out, [[4.0]])
        assert np.array_equal(idx, [[0]])  # first occurrence wins

    def test_trailing_partial_window_dropped(self):
        out, _ = maxpool_forward(np.arange(7.0), 3)
        assert np.array_equal(out, [[2.0, 5.0]])

    def test_pool_larger_than_input(self):
        with pytest.raises(ShapeError):
            maxpool_forward(np.ones(3), 4)

    def test_backward_routing(self):
        g = maxpool_backward(np.array([[1.0]]), np.array([[1]]), 2)
        assert np.array_equal(g, [[0.0, 1.0]])

    def test_backward_zero_everywhere(self):
        g = maxpool_backward(np.zeros((2, 3)), np.tile([0, 2, 4], (2, 1)), 7)
        assert not g.any()

    def test_backward_bad_index(self):
        with pytest.raises(ShapeError, match="argmax index outside the input"):
            maxpool_backward(np.ones((1, 1)), np.array([[5]]), 4)

    def test_positions_after_last_window_zero(self, rng):
        x = rng.standard_normal((1, 7))
        out, idx = maxpool_forward(x, 3)
        g = maxpool_backward(np.ones_like(out), idx, 7)
        assert g[0, 6] == 0.0

    def test_pool_affine_composite_finite_difference(self, rng):
        # pool o affine is differentiable away from ties
        for _ in range(10):
            x = rng.standard_normal((2, 12))
            w = rng.standard_normal((2, 12))
            r = rng.standard_normal((2, 4))

            def loss():
                out, _ = maxpool_forward(x * w, 3)
                return float((out * r).sum())

            _, idx = maxpool_forward(x * w, 3)
            gx = maxpool_backward(r, idx, 12) * w
            np.testing.assert_allclose(gx, finite_difference(loss, x),
                                       rtol=1e-4, atol=1e-7)


def planted_maps(rng, b, c, lp, pool):
    """Random (b, c, n) maps whose last pool-1 values fill no window.

    Planted: channel 1 is all-negative, channel 2's first window is all
    -1.0, and every window of channel 0 holds its max twice, at offsets 0
    and pool-1 in the first window, where the tie rule's weight is largest.
    """
    v1 = rng.standard_normal((b, c, lp * pool + pool - 1))
    v1[:, 1] = -np.abs(v1[:, 1]) - 0.1
    v1[:, 2, :pool] = -1.0
    if pool > 1:
        win = v1[:, 0, :lp * pool].reshape(b, lp, pool)
        for i in range(b):
            for p in range(lp):
                ties = [0, pool - 1] if p == 0 else rng.choice(pool, 2, replace=False)
                win[i, p, ties] = 10.0 + i + p
    return v1


class TestStepPooling:
    """``nn._pool_argmax`` on offset-major maps against ``maxpool_forward``."""

    @pytest.mark.parametrize("pool", [1, 2, 8, 16, 130])
    def test_bitwise_equal_to_contract_op(self, pool, rng):
        b, c, lp = 3, 4, 5
        v1 = planted_maps(rng, b, c, lp, pool)
        # (pool, C, B, lp), the engine's layout: offset r of window j at [r, :, :, j]
        v = v1[:, :, :lp * pool].reshape(b, c, lp, pool).transpose(3, 1, 0, 2).copy()
        top, rel = nn._pool_argmax(v)
        assert top.shape == rel.shape == (c, b, lp)
        for i in range(b):
            pooled, idx = maxpool_forward(v1[i], pool)
            assert np.array_equal(top[:, i], pooled)
            assert np.array_equal(rel[:, i] + np.arange(lp) * pool, idx)
        if pool > 1:  # the tie planted at offsets 0 and pool-1 goes to 0
            assert (rel[0, :, 0] == 0).all()

    def test_nan_window_routes_inside_itself(self):
        # a diverged run pools NaN maps; their offset must stay in the window
        _, rel = nn._pool_argmax(np.full((4, 2, 1, 2), np.nan))
        assert np.array_equal(rel, np.full((2, 1, 2), 3))


class TestDense:
    def test_identity_layer(self):
        layer = DenseLayer(np.eye(4), np.zeros(4), "identity")
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(dense_forward(x, layer), x)

    def test_relu_clips(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        assert np.array_equal(dense_forward(np.array([-1.0, 2.0]), layer), [0.0, 2.0])

    def test_gradients_vs_finite_differences(self, rng):
        for act in ("relu", "identity"):
            for _ in range(20):
                layer = DenseLayer(rng.standard_normal((3, 4)),
                                   rng.standard_normal(3), act)
                x = rng.standard_normal(4)
                r = rng.standard_normal(3)

                def loss():
                    return float(dense_forward(x, layer) @ r)

                gx, gw, gb = dense_backward(r, x, layer)
                np.testing.assert_allclose(gw, finite_difference(loss, layer.weights),
                                           rtol=1e-4, atol=1e-7)
                np.testing.assert_allclose(gb, finite_difference(loss, layer.biases),
                                           rtol=1e-4, atol=1e-7)
                np.testing.assert_allclose(gx, finite_difference(loss, x),
                                           rtol=1e-4, atol=1e-7)


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = rng.standard_normal(100)
        y, _ = dropout_apply(x, 0.0, rng)
        assert np.array_equal(y, x)

    def test_survivor_statistics(self):
        rng = np.random.default_rng(7)
        x = np.ones(100_000)
        y, mask = dropout_apply(x, 0.5, rng)
        frac = mask.mean()
        assert 0.49 <= frac <= 0.51
        assert abs(y.mean() - 1.0) < 0.02  # inverted scaling keeps E[y] = x

    def test_scaling_of_survivors(self, rng):
        x = np.ones(1000)
        y, mask = dropout_apply(x, 0.2, rng)
        assert np.allclose(y[mask], 1.0 / 0.8)
        assert not y[~mask].any()


class TestMseLoss:
    def test_zero_on_match(self, rng):
        x = rng.standard_normal(10)
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_hand_value(self):
        loss, grad = mse_loss(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
        assert loss == 5.0
        np.testing.assert_allclose(grad, [1.0, 3.0])

    def test_gradient_vs_finite_differences(self, rng):
        pred = rng.standard_normal(12)
        target = rng.standard_normal(12)

        def loss():
            return mse_loss(pred, target)[0]

        _, grad = mse_loss(pred, target)
        np.testing.assert_allclose(grad, finite_difference(loss, pred),
                                   rtol=1e-7, atol=1e-10)

    def test_empty_batch(self):
        with pytest.raises(ShapeError, match="MSE of an empty batch"):
            mse_loss(np.array([]), np.array([]))


class TestBuildNetwork:
    def test_chosen_architecture_shape_chain(self):
        shapes = network_shapes(HyperParams(), 1024)
        assert shapes == {"input": 1024, "conv1": 985, "pool": 123, "conv2": 104,
                          "flatten": 416, "dense1": 16, "dense2": 8, "output": 1}

    def test_degenerate_pool_raises_with_layer_name(self):
        with pytest.raises(ValueError, match="^pool: length 1 yields no full window of 8$"):
            network_shapes(HyperParams(), 40)  # conv1 -> 1, pool 8 -> 0

    def test_equal_seeds_equal_weights(self):
        a = build_network(TOY_HP, TOY_P, np.random.default_rng(5))
        b = build_network(TOY_HP, TOY_P, np.random.default_rng(5))
        for k, v in a.parameters().items():
            assert np.array_equal(v, b.parameters()[k])

    def test_full_tuning_grid_shapes(self):
        for f1 in nn.FILTERS_GRID:
            for f2 in nn.FILTERS_GRID:
                for pool in nn.POOL_GRID:
                    hp = HyperParams(filters1=f1, filters2=f2, pool=pool)
                    s = network_shapes(hp, 1024)
                    l1 = 1024 - 40 + 1
                    lp = l1 // pool
                    assert s["conv1"] == l1
                    assert s["pool"] == lp
                    assert s["conv2"] == lp - 20 + 1
                    assert s["flatten"] == f2 * (lp - 20 + 1)


def scalar_network_forward(net, x):
    """Independent composition of the single-sample contract ops."""
    h = conv1d_forward(x, net.conv1)
    h = np.maximum(h, 0.0)
    h, _ = maxpool_forward(h, net.hp.pool)
    h = conv1d_forward(h, net.conv2)
    h = np.maximum(h, 0.0)
    h = h.reshape(-1)
    h = dense_forward(h, net.dense1)
    h = dense_forward(h, net.dense2)
    return float(dense_forward(h, net.output)[0])


class TestNetworkForward:
    def test_zero_network_predicts_zero(self, toy_net, rng):
        for v in toy_net.parameters().values():
            v[...] = 0.0
        assert forward(toy_net, rng.standard_normal(TOY_P)) == 0.0

    def test_bias_only_path(self, toy_net, rng):
        for v in toy_net.parameters().values():
            v[...] = 0.0
        toy_net.output.biases[0] = 3.25
        assert forward(toy_net, rng.standard_normal(TOY_P)) == 3.25

    @pytest.mark.parametrize("p", [TOY_P, 68, 70])  # pooled lengths 30, 32, 33
    def test_matches_scalar_oracle_composition(self, p, rng):
        net = build_network(TOY_HP, p, rng)
        for _ in range(20):
            x = rng.standard_normal(p)
            fast = forward(net, x)
            ref = scalar_network_forward(net, x)
            assert abs(fast - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_batched_equals_single(self, toy_net, rng):
        xs = rng.standard_normal((5, TOY_P))
        batched = forward(toy_net, xs)
        singles = np.array([forward(toy_net, x) for x in xs])
        np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-14)

    # conv2's output length l2 against CONV2_BLOCK = 13: 28 and 113 are not
    # multiples of it, 104 is, and 11 is shorter than one block
    @pytest.mark.parametrize("hp, p, l2", [(TOY_HP, TOY_P, 28), (HyperParams(), 1024, 104),
                                           (TOY_HP, 30, 11), (HyperParams(), 1100, 113)],
                             ids=["hp0-64", "hp1-1024", "hp2-30", "hp3-1100"])
    @pytest.mark.parametrize("b", [1, 2 * nn.INFER_CHUNK + 1])
    def test_inference_pass_matches_training_step(self, hp, p, l2, b, rng):
        # b = 2*chunk + 1 leaves a one-row last chunk; no dropout, as in eval
        net = build_network(replace(hp, dropout=0.0), p, np.random.default_rng(31))
        assert net.shapes["conv2"] == l2
        xs = rng.standard_normal((b, p))
        step, _ = train_step(net, xs, np.zeros(b))
        np.testing.assert_allclose(forward(net, xs), step, rtol=1e-12,
                                   atol=1e-14 * np.abs(step).max())
        assert forward(net, xs[0]) == pytest.approx(step[0], rel=1e-12, abs=1e-14)

    def test_any_memory_layout_equals_a_contiguous_copy(self, rng):
        net = build_network(HyperParams(), 1024, np.random.default_rng(17))
        xs = rng.standard_normal((70, 1024))
        want = forward(net, xs.copy())
        assert np.array_equal(forward(net, np.asfortranarray(xs)), want)
        assert np.array_equal(forward(net, np.ascontiguousarray(xs[::-1])[::-1]), want)
        frozen = xs.copy()
        frozen.flags.writeable = False  # like Spectrum.intensities
        assert np.array_equal(forward(net, frozen), want)
        assert forward(net, frozen[3]) == forward(net, xs[3].copy())

    def test_rows_equal_their_gathered_copy(self, rng):
        # unsorted, with gaps, over three chunks, the last one partial
        net = build_network(HyperParams(), 1024, np.random.default_rng(19))
        xs = rng.standard_normal((3 * nn.INFER_CHUNK, 1024))
        r = rng.permutation(len(xs))[:2 * nn.INFER_CHUNK + 9]
        assert np.array_equal(forward(net, xs, rows=r), forward(net, xs[r]))

    def test_rows_rejected_for_one_spectrum(self, toy_net, rng):
        with pytest.raises(ShapeError, match="rows index a batch"):
            forward(toy_net, rng.standard_normal(TOY_P), rows=np.array([0]))

    def test_eval_forward_pure(self, toy_net, rng):
        x = rng.standard_normal(TOY_P)
        assert forward(toy_net, x) == forward(toy_net, x)  # bitwise

    def test_wrong_length_rejected(self, toy_net):
        with pytest.raises(ShapeError):
            forward(toy_net, np.ones(TOY_P + 1))

    @pytest.mark.parametrize("change", [
        lambda net: setattr(net, "dense1", DenseLayer(net.dense1.weights, net.dense1.biases,
                                                      "identity")),
        lambda net: setattr(net.dense2, "activation", "identity"),
        lambda net: setattr(net.output, "activation", "relu"),
    ], ids=["replaced-dense1", "dense2-field", "output-field"])
    def test_activation_the_engine_would_ignore_rejected(self, toy_net, rng, change):
        # the engine runs relu, relu, identity whatever the layers say
        x = rng.standard_normal((3, TOY_P))
        change(toy_net)
        with pytest.raises(ShapeError, match="dense activations"):
            forward(toy_net, x)
        with pytest.raises(ShapeError, match="dense activations"):
            nn.train(toy_net, x, np.zeros(3), TOY_HP, rng)


def _adam_step(net, tmp_path):
    xs = np.random.default_rng(5).standard_normal((3, net.input_len))
    nn.Adam(net.parameters(), 1e-2).step(train_step(net, xs, np.ones(3))[1])
    return net


def _set_parameters(net, tmp_path):
    params = net.copy_parameters()
    params["conv1.filters"] *= 1.01
    params["conv2.filters"] *= 0.99
    net.set_parameters(params)
    return net


def _element_write(net, tmp_path):
    net.conv1.filters[0, 0, 3] += 1e-3
    return net


def _replaced_layer(net, tmp_path):
    net.conv2 = Conv1DLayer(net.conv2.filters * 1.01, net.conv2.biases)
    return net


def _checkpoint_round_trip(net, tmp_path):
    nn.save_network(net, tmp_path / "m.ocnn")
    return nn.load_network(tmp_path / "m.ocnn")


class TestFilterSpectraMemo:
    """Forward reuses the filter operators only while the filters are unchanged."""

    @pytest.mark.parametrize("hp, p", [(HyperParams(), 1024), (TOY_HP, TOY_P)],
                             ids=["default", "toy"])
    @pytest.mark.parametrize("change", [_adam_step, _set_parameters, _element_write,
                                        _replaced_layer, _checkpoint_round_trip])
    def test_forward_equals_fresh_network_after_change(self, hp, p, change, tmp_path, rng):
        net = build_network(replace(hp, dropout=0.0), p, np.random.default_rng(8))
        xs = rng.standard_normal((130, p))
        before = forward(net, xs[0])  # warms the memo
        net = change(net, tmp_path)
        fresh = build_network(net.hp, p, np.random.default_rng(0))
        fresh.set_parameters(net.copy_parameters())
        after = forward(net, xs[0])
        if change is not _checkpoint_round_trip:
            assert after != before
        assert after == forward(fresh, xs[0])  # bitwise
        assert np.array_equal(forward(net, xs), forward(fresh, xs))


class TestTransformCounts:
    """np.fft calls and operator builds of the engine at the default shape, P=1024.

    Conv1 is a matrix product everywhere, and so is conv2 in the inference
    pass, so a forward makes no transform at all, cold or warm.  Only the
    inference pass memoizes its two operators, once per parameter state.
    A training step, whose filters Adam has just moved, builds conv1's
    operator and conv2's filter spectrum itself, never conv2's inference
    operator, and makes six transforms, for conv2 forward and backward.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _real=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.fixture
    def builds(self, monkeypatch):
        """``_toeplitz`` calls by block size: pool for conv1, ``CONV2_BLOCK`` for conv2."""
        sizes = []

        def counted(f, s, _real=nn._toeplitz):
            sizes.append(s)
            return _real(f, s)
        monkeypatch.setattr(nn, "_toeplitz", counted)
        return sizes

    @pytest.fixture
    def net(self):
        net = build_network(HyperParams(), 1024, np.random.default_rng(6))
        assert net.hp.pool != nn.CONV2_BLOCK  # so a block size names its operator
        return net

    def test_forward(self, net, calls, builds, rng):
        x = rng.standard_normal(1024)
        forward(net, x)
        assert len(calls) == 0  # cold: the operators are matrices, not spectra
        for xs in (x, rng.standard_normal((1, 1024)), rng.standard_normal((420, 1024))):
            forward(net, xs)
        assert len(calls) == 0
        assert builds.count(net.hp.pool) == 1 and builds.count(nn.CONV2_BLOCK) == 1
        net.conv2.filters[0, 0, 0] += 1e-3
        forward(net, x)
        assert builds.count(net.hp.pool) == 2 and builds.count(nn.CONV2_BLOCK) == 2

    def test_train_step(self, net, calls, builds, rng):
        xs = rng.standard_normal((420, 1024))
        nn.train(net, xs, rng.standard_normal(420), replace(net.hp, epochs=1),
                 np.random.default_rng(2))
        assert len(calls) == 6 * 7  # seven steps
        # one conv1 operator per step, and no inference operator
        assert builds.count(net.hp.pool) == 7 and builds.count(nn.CONV2_BLOCK) == 0


def contract_step(net, xs, ys):
    """(pred, MSE gradients) of a batch, sample by sample through the contract ops."""
    preds = np.array([scalar_network_forward(net, x) for x in xs])
    _, gl = mse_loss(preds, ys)
    ref = {k: np.zeros_like(v) for k, v in net.parameters().items()}

    def add(prefix, gw, gb):
        ref[prefix + (".filters" if prefix.startswith("conv") else ".weights")] += gw
        ref[prefix + ".biases"] += gb

    for x, g in zip(xs, gl):
        h1 = conv1d_forward(x, net.conv1)
        pooled, idx = maxpool_forward(np.maximum(h1, 0.0), net.hp.pool)
        h2 = conv1d_forward(pooled, net.conv2)
        flat = np.maximum(h2, 0.0).reshape(-1)
        a1 = dense_forward(flat, net.dense1)
        a2 = dense_forward(a1, net.dense2)
        ga2, gw, gb = dense_backward(np.array([g]), a2, net.output)
        add("output", gw, gb)
        ga1, gw, gb = dense_backward(ga2, a1, net.dense2)
        add("dense2", gw, gb)
        gflat, gw, gb = dense_backward(ga1, flat, net.dense1)
        add("dense1", gw, gb)
        gp, gw, gb = conv1d_backward(gflat.reshape(h2.shape) * (h2 > 0), pooled, net.conv2)
        add("conv2", gw, gb)
        g1 = maxpool_backward(gp, idx, h1.shape[1]) * (h1 > 0)
        _, gw, gb = conv1d_backward(g1, x, net.conv1)
        add("conv1", gw, gb)
    return preds, ref


def assert_step_matches(step, want_pred, want):
    """The engine's step agrees with the contract ops to 1e-10."""
    pred, grads = step
    np.testing.assert_allclose(pred, want_pred, rtol=1e-10, atol=1e-12)
    for key, w in want.items():
        np.testing.assert_allclose(grads[key], w, rtol=1e-10,
                                   atol=1e-10 * np.abs(w).max(), err_msg=key)


class TestCompositeGradient:
    # conv2's transform length n2 in the training step is the power of two at
    # or above the pooled length lp = (P - 4) // 2: 30 -> 32, 32 -> 32 (no
    # padding), 33 -> 64
    @pytest.mark.parametrize("p, n2", [(TOY_P, 32), (68, 32), (70, 64)],
                             ids=["64", "68", "70"])
    def test_full_network_gradient_vs_finite_differences(self, p, n2, rng):
        net = build_network(TOY_HP, p, rng)
        assert nn._fft_len(net) == n2
        xs = rng.standard_normal((3, p))
        ys = rng.standard_normal(3)
        # Zero biases put a layer fed by an all-zero ReLU output exactly on
        # its own ReLU kink, where central differences read slope 1/2.
        for name, param in net.parameters().items():
            if name.endswith("biases"):
                param[...] = 0.1 * rng.standard_normal(param.shape)

        def loss():
            return mse_loss(train_step(net, xs, ys)[0], ys)[0]

        _, grads = train_step(net, xs, ys)
        for key, param in net.parameters().items():
            fd = finite_difference(loss, param)
            np.testing.assert_allclose(
                grads[key], fd, rtol=1e-4, atol=1e-7,
                err_msg=f"gradient mismatch for {key}")

    # at P=64, pool 16 leaves 3 windows and this network's head dead: P=128
    @pytest.mark.parametrize("pool, p", [(4, TOY_P), (16, 2 * TOY_P)])
    def test_ties_and_negative_pool_windows_match_contract_ops(self, pool, p, rng):
        # Zero conv1 filters give constant channels, exact through the FFT:
        # channel 0 (bias 0.5) ties in every pool window, channel 1 (bias
        # -0.5) has only all-negative windows, channel 2 is a random filter.
        hp = HyperParams(filters1=3, filters2=2, ksize1=5, ksize2=3, pool=pool,
                         dropout=0.0, dense_sizes=(6, 4))
        net = build_network(hp, p, np.random.default_rng(21))
        net.conv1.filters[:2] = 0.0
        net.conv1.biases[:] = [0.5, -0.5, 0.1]
        xs = rng.standard_normal((3, p))
        ys = rng.standard_normal(3)
        for x in xs:
            pooled, idx = maxpool_forward(np.maximum(conv1d_forward(x, net.conv1), 0.0), pool)
            assert (pooled[0] == 0.5).all() and (pooled[1] == 0.0).all()
            assert (idx[0] % pool == 0).all()  # ties go to the first occurrence
        want_pred, want = contract_step(net, xs, ys)
        assert want["conv1.filters"][0].any() and not want["conv1.filters"][1].any()
        assert_step_matches(train_step(net, xs, ys), want_pred, want)

    def test_step_reads_nothing_left_in_its_buffers(self, rng):
        # ``buf`` holds the conv1 map, then its gradient, and ``room`` the
        # operator gradient's per-spectrum terms.  Both are sized for 4 rows
        # and the batch has 3, as in train's last partial batch, so rows and
        # columns past the batch stay unused.
        net = build_network(replace(HyperParams(), dropout=0.0), 1024,
                            np.random.default_rng(4))
        xs = rng.standard_normal((3, 1024))
        ys = rng.standard_normal(3)
        steps = []
        for fill in (0.0, np.nan):
            buf, room = (np.full_like(a, fill) for a in nn._step_buffers(net, 4))
            steps.append(nn._train_step(net, nn._conv1_blocks(net, xs), ys, None, buf, room))
        (pred, grads), (pred_nan, grads_nan) = steps
        assert np.array_equal(pred_nan, pred)
        for key, g in grads.items():
            assert np.array_equal(grads_nan[key], g), key
        assert_step_matches(steps[0], *contract_step(net, xs, ys))

    # P = lp*pool + k1 - 1 exactly, so the last block ends on the row's last sample
    @pytest.mark.parametrize("pool", [1, 2, 8, 16])
    @pytest.mark.parametrize("k1", [1, 5, 40])
    def test_blocks_never_read_past_a_row(self, pool, k1, rng):
        lp = 24
        p = lp * pool + k1 - 1
        hp = HyperParams(filters1=3, filters2=2, ksize1=k1, ksize2=3, pool=pool,
                         dropout=0.0, dense_sizes=(6, 4))
        net = build_network(hp, p, np.random.default_rng(13))
        assert net.shapes["conv1"] == lp * pool
        for name, param in net.parameters().items():
            if name.endswith("biases"):
                param[...] = 0.1 * rng.standard_normal(param.shape)
        # each spectrum is a row slice of a wider array whose tail is NaN
        wide = np.full((3, p + 5), np.nan)
        wide[:, :p] = rng.standard_normal((3, p))
        xs, ys = wide[:, :p], rng.standard_normal(3)
        want_pred, want = contract_step(net, xs, ys)
        step = train_step(net, xs, ys)
        assert np.isfinite(step[0]).all()
        assert all(np.isfinite(g).all() for g in step[1].values())
        assert_step_matches(step, want_pred, want)
        np.testing.assert_allclose(forward(net, xs), want_pred, rtol=1e-10, atol=1e-12)

    def test_train_mode_dropout_gradient_frozen_mask(self, rng):
        # replay the engine's training step with its own mask frozen, so
        # the stochastic map becomes differentiable and checkable by FD;
        # the mask is the step's only draw, so a twin rng rebuilds it
        hp = HyperParams(filters1=2, filters2=3, ksize1=5, ksize2=3, pool=2,
                         dropout=0.5, dense_sizes=(6, 4))
        net = build_network(hp, TOY_P, np.random.default_rng(9))
        xs = rng.standard_normal((3, TOY_P))
        ys = rng.standard_normal(3)
        pred, grads = train_step(net, xs, ys, np.random.default_rng(77))
        keep = np.random.default_rng(77).random((3, net.shapes["flatten"])) >= hp.dropout
        scale = keep / (1.0 - hp.dropout)

        def frozen_loss():
            preds = []
            for i, x in enumerate(xs):
                h = np.maximum(conv1d_forward(x, net.conv1), 0.0)
                h, _ = maxpool_forward(h, hp.pool)
                h = np.maximum(conv1d_forward(h, net.conv2), 0.0)
                flat = h.reshape(-1) * scale[i]
                h = dense_forward(flat, net.dense1)
                h = dense_forward(h, net.dense2)
                preds.append(dense_forward(h, net.output)[0])
            return mse_loss(np.array(preds), ys)[0]

        loss0, _ = mse_loss(pred, ys)
        assert abs(frozen_loss() - loss0) <= 1e-10 * max(1.0, abs(loss0))
        for key in ("dense1.weights", "dense2.biases", "conv1.filters",
                    "conv2.biases", "output.weights"):
            param = net.parameters()[key]
            np.testing.assert_allclose(grads[key], finite_difference(frozen_loss, param),
                                       rtol=1e-4, atol=1e-7, err_msg=key)

    def test_one_step_decreases_single_example_loss(self, rng):
        # smoke property: a tiny gradient step improves the example itself
        wins = 0
        for trial in range(40):
            net = build_network(TOY_HP, TOY_P, np.random.default_rng(100 + trial))
            x = rng.standard_normal((1, TOY_P))
            y = rng.standard_normal(1)
            pred, grads = train_step(net, x, y)
            before, _ = mse_loss(pred, y)
            for k, v in net.parameters().items():
                v -= 1e-4 * grads[k]
            after, _ = mse_loss(train_step(net, x, y)[0], y)
            wins += after < before
        assert wins >= 38  # 95%+
