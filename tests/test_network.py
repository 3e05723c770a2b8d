import numpy as np
import pytest

from cardioseq import network as nn
from cardioseq import training as tr
from cardioseq.errors import ShapeMismatchError, StaleCacheError

import reference as ref


def naive_conv(values, weights, bias):
    """Independent oracle: explicit loops, zero same-padding, stride 1."""
    n, w = len(values), len(weights)
    pad = (w - 1) // 2
    padded = [0.0] * pad + list(values) + [0.0] * pad
    out = []
    for i in range(n):
        acc = 0.0
        for s in range(w):
            acc += weights[s] * padded[i + s]
        out.append(acc + bias)
    return out


def fd_gradients(params, X, y, h=1e-5, pool_mode=nn.GLOBAL_POOL):
    """Central finite differences of the mean loss over every parameter."""
    def loss_of():
        probs, _ = nn.forward_batch(X, params, pool_mode=pool_mode)
        loss, _ = tr.loss_and_accuracy(probs, y)
        return loss

    grads = {}
    for name, a in params.tensors().items():
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = a[i]
            a[i] = orig + h
            lp = loss_of()
            a[i] = orig - h
            lm = loss_of()
            a[i] = orig
            g[i] = (lp - lm) / (2 * h)
        grads[name] = g
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


class TestConvForward:
    def test_hand_computed_window(self):
        k = ref.ConvKernel(np.array([1.0, 1.0, 1.0]), 0.0)
        out = ref.conv_forward(np.array([1.0, 0, 2, 0, 1]), k)
        assert out.tolist() == [1.0, 3.0, 2.0, 3.0, 1.0]

    def test_identity_kernel(self, rng):
        x = rng.standard_normal(13)
        k = ref.ConvKernel(np.array([1.0]), 0.0)
        np.testing.assert_allclose(ref.conv_forward(x, k), x)

    def test_bias_only(self):
        k = ref.ConvKernel(np.zeros(5), 2.5)
        out = ref.conv_forward(np.arange(13.0), k)
        assert np.all(out == 2.5)

    def test_even_width_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ref.ConvKernel(np.ones(4))

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_output_length_always_13(self, width, rng):
        k = ref.ConvKernel(rng.standard_normal(width), float(rng.standard_normal()))
        assert ref.conv_forward(rng.standard_normal(13), k).shape == (13,)

    @pytest.mark.parametrize("length", [1, 5, 13])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_any_length_matches_naive_oracle(self, length, width, rng):
        for _ in range(20):
            x = rng.standard_normal(length)
            k = ref.ConvKernel(rng.standard_normal(width), float(rng.standard_normal()))
            out = ref.conv_forward(x, k)
            assert out.shape == (length,)
            np.testing.assert_allclose(out, naive_conv(x, k.weights, k.bias), atol=1e-12)

    def test_windows_are_one_read_only_view(self, rng):
        X = rng.standard_normal((4, 13))
        windows = nn.conv_windows(X, 5)
        assert windows.shape == (4, 13, 5) and not windows.flags.writeable
        padded = np.pad(X, ((0, 0), (2, 2)))
        for w in (1, 3, 5):
            expected = np.lib.stride_tricks.sliding_window_view(
                padded[:, 2 - w // 2 : 15 + w // 2], w, axis=1)
            np.testing.assert_array_equal(nn.bank_windows(X, windows, w), expected)

    def test_matches_naive_oracle(self, rng):
        for _ in range(300):
            width = int(rng.choice([1, 3, 5]))
            x = rng.standard_normal(13)
            k = ref.ConvKernel(rng.standard_normal(width), float(rng.standard_normal()))
            expected = naive_conv(x, k.weights, k.bias)
            np.testing.assert_allclose(ref.conv_forward(x, k), expected, atol=1e-12)


class TestActivationsAndPooling:
    def test_relu_clamps(self):
        np.testing.assert_array_equal(nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_all_negative(self):
        assert np.all(nn.relu(np.array([-3.0, -1e-9])) == 0.0)

    def test_relu_identity_on_nonnegative(self, rng):
        x = np.abs(rng.standard_normal(13))
        np.testing.assert_array_equal(nn.relu(x), x)

    def test_global_pool(self):
        value, idx = ref.max_pool(np.array([1.0, 5.0, 3.0]))
        assert value == 5.0 and idx == 1

    def test_windowed_pool(self):
        vals, idx = ref.max_pool(np.array([1.0, 2.0, 4.0, 3.0]), ("windowed", 2, 2))
        assert vals.tolist() == [2.0, 4.0]
        assert idx.tolist() == [1, 2]

    def test_tie_breaks_low_index(self):
        _, idx = ref.max_pool(np.full(13, 7.0))
        assert idx == 0

    def test_empty_map(self):
        with pytest.raises(ValueError, match="empty feature map"):
            ref.max_pool(np.array([]))

    @pytest.mark.parametrize("mode", [nn.GLOBAL_POOL, ("windowed", 3, 2), ("windowed", 5, 1),
                                      ("windowed", 1, 1), ("windowed", 4, 3)])
    def test_batched_ties_pool_to_lowest_index_like_max_pool(self, mode, rng):
        # integer inputs and weights give feature maps full of exact ties,
        # and windows with no positive entry, which tie at 0 after ReLU
        params = nn.init_params(3, rng, pool_mode=mode)
        for t in params.tensors().values():
            t[...] = rng.integers(-1, 2, t.shape)
        X = rng.integers(0, 2, (6, 13)).astype(float)
        X[0] = 0.0  # an all-tied row
        _, cache = nn.forward_batch(X, params, pool_mode=mode)
        maps = nn.relu(cache.pre)
        B, KB, W = cache.pool_idx.shape
        pooled = cache.pooled.reshape(B, KB, W)
        ties = 0
        for b in range(B):
            for k in range(KB):
                values, idx = ref.max_pool(maps[b, k], mode)
                np.testing.assert_array_equal(cache.pool_idx[b, k], np.atleast_1d(idx))
                np.testing.assert_array_equal(pooled[b, k], np.atleast_1d(values))
                ties += len(set(maps[b, k].tolist())) < maps.shape[2]
        assert ties > 0


class TestDenseSoftmax:
    def test_identity_weights(self):
        layer = ref.DenseLayer(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(ref.dense_forward(x, layer), x)

    def test_bias_only(self):
        layer = ref.DenseLayer(np.zeros((2, 3)), np.array([4.0, -1.0]))
        np.testing.assert_array_equal(
            ref.dense_forward(np.ones(3), layer), [4.0, -1.0]
        )

    def test_hand_computed(self):
        layer = ref.DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(
            ref.dense_forward(np.array([1.0, 1.0]), layer), [3.0, 8.0]
        )

    def test_dimension_mismatch(self):
        layer = ref.DenseLayer(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="dense expects 3 inputs, got 4"):
            ref.dense_forward(np.ones(4), layer)

    def test_softmax_symmetry(self):
        np.testing.assert_array_equal(nn.softmax([0.0, 0.0]), [0.5, 0.5])

    def test_softmax_shift_invariance_bitwise(self, rng):
        # dyadic grid keeps z + c exact, so max subtraction cancels the
        # shift bit-for-bit
        z = rng.integers(-256, 256, size=2) / 32.0
        for c in (5.0, -100.0, 4096.0):
            assert np.array_equal(nn.softmax(z), nn.softmax(z + c))

    def test_softmax_hand_values(self):
        np.testing.assert_allclose(
            nn.softmax([np.log(1.0), np.log(3.0)]), [0.25, 0.75], atol=1e-15
        )

    def test_softmax_invariants(self, rng):
        # moderate logit spread: beyond ~36 the losing exponentials drop
        # below machine epsilon and the winner rounds to exactly 1.0
        for _ in range(100):
            z = rng.standard_normal(rng.integers(2, 6)) * 3
            q = nn.softmax(z)
            assert abs(q.sum() - 1.0) < 1e-12
            assert np.all((q > 0) & (q < 1))
            assert q.argmax() == z.argmax()

    def test_softmax_no_overflow(self):
        q = nn.softmax([1e4, -1e4])
        assert np.all(np.isfinite(q))


class TestModelForward:
    def test_zero_params_give_uniform(self, rng):
        params = nn.init_params(4, rng)
        for t in params.tensors().values():
            t[...] = 0.0
        probs, _ = ref.model_forward(rng.standard_normal((13, 1)), params)
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_infer_deterministic(self, rng):
        params = nn.init_params(4, rng)
        x = rng.standard_normal((13, 1))
        p1, _ = ref.model_forward(x, params)
        p2, _ = ref.model_forward(x, params)
        assert np.array_equal(p1, p2)

    def test_dropout_rate_zero_matches_infer(self, rng):
        params = nn.init_params(4, rng)
        x = rng.standard_normal((13, 1))
        p_infer, _ = ref.model_forward(x, params, mode="infer")
        p_train, _ = ref.model_forward(
            x, params, dropout_rate=0.0, rng=np.random.default_rng(0), mode="train"
        )
        assert np.array_equal(p_infer, p_train)

    def test_pooled_concatenation_order(self, rng):
        # only the width-3 bank is nonzero; its pooled block must sit in the
        # middle third of the dense input
        params = nn.init_params(2, rng)
        for w in (1, 5):
            params.conv_w[w][...] = 0.0
            params.conv_b[w][...] = 0.0
        params.conv_b[3][...] = 1.0
        params.conv_w[3][...] = 0.0
        _, cache = nn.forward_batch(np.zeros((1, 13)), params)
        np.testing.assert_array_equal(cache.pooled[0], [0, 0, 1, 1, 0, 0])


class TestModelBackward:
    def test_matches_finite_differences(self, rng):
        params = nn.init_params(3, rng)
        X = rng.standard_normal((5, 13))
        y = rng.integers(0, 2, size=5)
        _, cache = nn.forward_batch(X, params)
        grads = nn.model_backward(cache, params, y)
        expected = fd_gradients(params, X, y)
        for name in grads:
            assert rel_err(grads[name], expected[name]).max() < 1e-4, name

    @pytest.mark.parametrize("mode,batch", [
        (("windowed", 5, 1), 4), (("windowed", 3, 1), 4), (nn.GLOBAL_POOL, 1),
        (("windowed", 5, 1), 1),
    ])
    def test_every_parameter_matches_finite_differences(self, mode, batch, rng):
        params = nn.init_params(2, rng, pool_mode=mode)
        X = rng.standard_normal((batch, 13))
        y = rng.integers(0, 2, size=batch)
        _, cache = nn.forward_batch(X, params, pool_mode=mode)
        grads = nn.model_backward(cache, params, y, pool_mode=mode)
        expected = fd_gradients(params, X, y, pool_mode=mode)
        assert grads.keys() == expected.keys()
        for name in grads:
            assert rel_err(grads[name], expected[name]).max() < 1e-4, name

    def test_relu_killed_unit_gets_no_gradient(self, rng):
        params = nn.init_params(1, rng)
        # large negative biases kill every width-1 map entry
        params.conv_b[1][...] = -100.0
        X = rng.standard_normal((1, 13))
        _, cache = nn.forward_batch(X, params)
        grads = nn.model_backward(cache, params, np.array([1]))
        assert np.all(grads["conv_w1"] == 0.0)
        assert np.all(grads["conv_b1"] == 0.0)

    def test_perfect_prediction_zero_gradient(self, rng):
        params = nn.init_params(2, rng)
        X = rng.standard_normal((1, 13))
        _, cache = nn.forward_batch(X, params)
        # force a saturated correct prediction through the cached probs
        cache.probs = np.array([[1.0, 0.0]])
        grads = nn.model_backward(cache, params, np.array([0]))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_stale_cache_rejected(self, rng):
        params = nn.init_params(2, rng)
        X = rng.standard_normal((2, 13))
        _, cache = nn.forward_batch(X, params)
        with pytest.raises(StaleCacheError):
            nn.model_backward(cache, params.copy(), np.array([0, 1]))

    def test_other_pool_mode_rejected(self, rng):
        mode = ("windowed", 3, 2)
        params = nn.init_params(2, rng, pool_mode=mode)
        _, cache = nn.forward_batch(rng.standard_normal((2, 13)), params, pool_mode=mode)
        with pytest.raises(ShapeMismatchError):
            nn.model_backward(cache, params, np.array([0, 1]), pool_mode=("windowed", 5, 2))

    def test_pool_backward_routes_unit_gradient(self, rng):
        # total gradient arriving at each feature map equals the gradient of
        # its single pooled output
        params = nn.init_params(2, rng)
        X = rng.standard_normal((3, 13))
        y = np.array([0, 1, 0])
        _, cache = nn.forward_batch(X, params)
        dlogits = cache.probs.copy()
        dlogits[np.arange(3), y] -= 1.0
        dlogits /= 3
        dz = dlogits @ params.dense_w  # gradient on the pooled vector
        grads_b = nn.model_backward(cache, params, y)
        # conv bias gradient sums dpre over positions; with no dropout the
        # routed mass per map equals dz gated by ReLU at the argmax
        K = params.kernels_per_width
        for wi, w in enumerate(nn.KERNEL_WIDTHS):
            bank = slice(wi * K, (wi + 1) * K)  # the cache stacks the banks
            block = dz[:, bank]
            gate = np.take_along_axis(
                cache.pre[:, bank] > 0, cache.pool_idx[:, bank], axis=2
            )[:, :, 0]
            np.testing.assert_allclose(
                grads_b[f"conv_b{w}"], (block * gate).sum(axis=0), atol=1e-12
            )


class TestWindowedPooling:
    def test_forward_backward_consistency(self, rng):
        mode = ("windowed", 3, 2)
        params = nn.init_params(2, rng, pool_mode=mode)
        X = rng.standard_normal((4, 13))
        y = rng.integers(0, 2, size=4)
        probs, cache = nn.forward_batch(X, params, pool_mode=mode)
        assert probs.shape == (4, 2)
        grads = nn.model_backward(cache, params, y, pool_mode=mode)

        def loss_of():
            p, _ = nn.forward_batch(X, params, pool_mode=mode)
            return tr.loss_and_accuracy(p, y)[0]

        h = 1e-5
        a = params.conv_w[3]
        orig = a[0, 1]
        a[0, 1] = orig + h
        lp = loss_of()
        a[0, 1] = orig - h
        lm = loss_of()
        a[0, 1] = orig
        fd = (lp - lm) / (2 * h)
        assert rel_err(np.array(fd), np.array(grads["conv_w3"][0, 1])).max() < 1e-4
