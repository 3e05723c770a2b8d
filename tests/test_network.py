import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cardioseq import network as nn
from cardioseq import training as tr
from cardioseq.errors import ShapeMismatchError

import reference as ref
from conftest import same_bits


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
    def test_batched_ties_pool_to_lowest_index_like_max_pool(self, mode, rng, monkeypatch):
        # integer inputs and weights give feature maps full of exact ties,
        # and windows with no positive entry, which tie at 0 after ReLU; one
        # model and a stack of 3, their 6 rows in row blocks of 4 and 2, and
        # the stack in one row block, whose kept position-outer copy is read
        for models, block_rows in ((None, 4), (3, 4), (3, 6)):
            lead = () if models is None else (models,)
            monkeypatch.setattr(nn, "INFER_BLOCK_ELEMENTS", block_rows * (models or 1) * 3 * 3 * 13)
            singles = []
            for _ in range(models or 1):
                params = nn.init_params(3, rng, pool_mode=mode)
                for t in params.tensors().values():
                    t[...] = rng.integers(-1, 2, t.shape)
                singles.append(params)
            params = singles[0] if models is None else nn.ModelParams.stack(singles)
            X = rng.integers(0, 2, lead + (6, 13)).astype(float)
            X[..., 0, :] = 0.0  # an all-tied row
            _, cache = nn.forward_batch(X, params, pool_mode=mode)
            assert (cache.maps is None) == (block_rows < 6)  # several row blocks
            pre = nn.forward_maps(cache.inputs, params) if cache.maps is None else cache.maps
            # (model, row, map, position)
            maps = nn.relu(pre.swapaxes(-1, -3)).reshape(-1, 6, 9, 13)
            idx = nn.pool_positions(pre, cache.pooled, mode).reshape(maps.shape[:3] + (-1,))
            pooled = cache.pooled.reshape(idx.shape)
            ties = 0
            for f, b, k in np.ndindex(maps.shape[:3]):
                values, first = ref.max_pool(maps[f, b, k], mode)
                np.testing.assert_array_equal(idx[f, b, k], np.atleast_1d(first))
                np.testing.assert_array_equal(pooled[f, b, k], np.atleast_1d(values))
                ties += len(set(maps[f, b, k].tolist())) < maps.shape[-1]
            assert ties > 0


def signed_values(rng, shape):
    """Normal values at three magnitudes (1e-200, whose products underflow to
    signed zeros; 1; and 1e100), with exact 0.0 and -0.0 mixed in."""
    values = rng.normal(size=shape) * rng.choice([1e-200, 1.0, 1e100], size=shape)
    values[rng.random(shape) < 0.15] = 0.0
    values[rng.random(shape) < 0.15] = -0.0
    return values


@given(rows=st.integers(1, 300), kernels=st.integers(1, 8), models=st.sampled_from([None, 1, 10]),
       block_rows=st.integers(1, 300),
       mode=st.sampled_from([nn.GLOBAL_POOL, ("windowed", 1, 1), ("windowed", 3, 2),
                             ("windowed", 5, 1), ("windowed", 13, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_value_only_forward_has_the_einsum_bits(rows, kernels, models, block_rows, mode, seed):
    """`forward_batch`'s maps are the per-bank einsum's (`reference.einsum_maps`),
    its pooled values and pool positions those of an argmax pool over them
    (`reference.relu_pool`), and its probabilities the dense head's on those
    values, bit for bit (signs of zero included): for one model and stacks,
    in row blocks of `block_rows` rows."""
    rng = np.random.default_rng(seed)
    lead = () if models is None else (models,)
    singles = []
    for _ in range(models or 1):
        params = nn.init_params(kernels, rng, mode)
        for w in nn.KERNEL_WIDTHS:
            params.conv_w[w][...] = signed_values(rng, (kernels, w))
            params.conv_b[w][...] = signed_values(rng, kernels)
        singles.append(params)
    params = singles[0] if models is None else nn.ModelParams.stack(singles)
    X = signed_values(rng, lead + (rows, nn.N_FEATURES))
    block = block_rows * (models or 1) * len(nn.KERNEL_WIDTHS) * kernels * nn.N_FEATURES
    with mock.patch.object(nn, "INFER_BLOCK_ELEMENTS", block):
        probs, cache = nn.forward_batch(X, params, pool_mode=mode)
        maps = nn.forward_maps(X, params) if cache.maps is None else cache.maps
    assert (cache.maps is None) == (rows > block_rows)
    expected = ref.einsum_maps(X, params)
    assert same_bits(maps.swapaxes(-1, -3), expected)
    pooled, idx = ref.relu_pool(expected, mode)
    pooled = pooled.reshape(lead + (rows, -1))
    assert same_bits(cache.pooled, pooled)
    assert np.array_equal(nn.pool_positions(maps, cache.pooled, mode), idx)
    assert same_bits(probs, nn.dense_softmax(pooled, params))


@given(rows=st.integers(1, 300), kernels=st.integers(1, 8), models=st.sampled_from([None, 1, 10]),
       dropout=st.booleans(), ties=st.booleans(), dead=st.booleans(),
       mode=st.sampled_from([nn.GLOBAL_POOL, ("windowed", 13, 1), ("windowed", 1, 1),
                             ("windowed", 2, 2), ("windowed", 3, 2), ("windowed", 5, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_backward_has_the_einsum_bits(rows, kernels, models, dropout, ties, dead, mode, seed):
    """`model_backward`'s gradients have the bits of the dense gradient maps,
    ReLU-gated by the maps, and per-bank einsums (`reference.einsum_backward`,
    which builds its own maps, pool positions and windows), signs of zero
    included, in every pool mode. With several pool windows per map it
    scatters gated gradients into gradient maps; with one it gathers each
    map's window at its argmax, and for K = 1 the einsum and the bias sum
    add a bank's (row, position) terms as one run, in another order than row
    after row, so the kernel gradients may differ by summation error: at
    most n * eps times the sum of the terms' magnitudes, n = rows * 13. (On
    unit-scale inputs conv_w1 and the biases differ by up to 8.9e-16 at
    F = 10, B = 16, and 1.3e-15 up to B = 300; conv_w3 and conv_w5 kept
    their bits.) `dead` makes every window of the width-3 bank dead (its
    maximum is < 0), so that each points at its own start."""
    rng = np.random.default_rng(seed)
    lead = () if models is None else (models,)
    singles = []
    for _ in range(models or 1):
        params = nn.init_params(kernels, rng, mode)
        for w in nn.KERNEL_WIDTHS:
            params.conv_w[w][...] = signed_values(rng, (kernels, w))
            params.conv_b[w][...] = signed_values(rng, kernels)
        if dead:  # signed zero weights and negative biases
            params.conv_w[3][...] *= 0.0
            params.conv_b[3][...] = -np.abs(params.conv_b[3]) - 1.0
        singles.append(params)
    params = singles[0] if models is None else nn.ModelParams.stack(singles)
    X = signed_values(rng, lead + (rows, nn.N_FEATURES))
    if ties:  # constant columns: equal windows, so maps with tied maxima
        X[..., 3:10] = signed_values(rng, 1)
    y = rng.integers(0, 2, lead + (rows,))
    gens = [np.random.default_rng([seed, f]) for f in range(models or 1)]
    _, cache = nn.forward_batch(X, params, 0.5 if dropout else 0.0, gens, mode)
    got = nn.model_backward(cache, y).tensors()
    expected, dpre = ref.einsum_backward(cache, y)
    assert got.keys() == expected.keys()
    for name in got:
        if kernels == 1 and len(nn.pool_windows(mode)[1]) == 1 and name.startswith("conv"):
            w = int(name[-1])
            bank = np.abs(dpre[..., nn.KERNEL_WIDTHS.index(w), None, :])
            if name.startswith("conv_w"):
                windows = nn.bank_windows(cache.inputs, nn.conv_windows(cache.inputs, 5), w)
                magnitude = np.einsum("...bkt,...btw->...kw", bank, np.abs(windows))
            else:
                magnitude = bank.sum(axis=(-3, -1))
            bound = rows * nn.N_FEATURES * np.finfo(float).eps * magnitude
            assert np.all(np.abs(got[name] - expected[name]) <= bound), name
        else:
            assert same_bits(got[name], expected[name]), name


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
    def test_label_count_must_match_the_batch(self, rng):
        _, cache = nn.forward_batch(rng.standard_normal((4, 13)), nn.init_params(2, rng))
        with pytest.raises(ShapeMismatchError, match="^label count does not match batch size$"):
            nn.model_backward(cache, [0, 1, 0])

    @pytest.mark.parametrize("models", [None, 3])
    def test_gradients_are_views_of_one_buffer_laid_out_like_the_parameters(self, models, rng):
        lead = () if models is None else (models,)
        singles = [nn.init_params(2, rng) for _ in range(models or 1)]
        params = singles[0] if models is None else nn.ModelParams.stack(singles)
        X = rng.standard_normal(lead + (4, 13))
        _, cache = nn.forward_batch(X, params)
        grads = nn.model_backward(cache, rng.integers(0, 2, lead + (4,)))
        assert isinstance(grads, nn.ModelParams)
        assert grads.flat.shape == params.flat.shape
        assert not np.shares_memory(grads.flat, params.flat)
        # number every entry of the buffer: each tensor must read the next slice
        grads.flat[...] = np.arange(grads.flat.size).reshape(grads.flat.shape)
        offset = 0
        for (name, g), p in zip(grads.tensors().items(), params.tensors().values()):
            assert g.shape == p.shape and g.base is grads.flat, name
            size = math.prod(g.shape[len(lead):])
            np.testing.assert_array_equal(g.reshape(lead + (size,)),
                                          grads.flat[..., offset : offset + size], err_msg=name)
            offset += size
        assert offset == grads.flat.shape[-1]

    def test_matches_finite_differences(self, rng):
        params = nn.init_params(3, rng)
        X = rng.standard_normal((5, 13))
        y = rng.integers(0, 2, size=5)
        _, cache = nn.forward_batch(X, params)
        grads = nn.model_backward(cache, y).tensors()
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
        grads = nn.model_backward(cache, y).tensors()
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
        grads = nn.model_backward(cache, np.array([1])).tensors()
        assert np.all(grads["conv_w1"] == 0.0)
        assert np.all(grads["conv_b1"] == 0.0)

    def test_perfect_prediction_zero_gradient(self, rng):
        params = nn.init_params(2, rng)
        X = rng.standard_normal((1, 13))
        _, cache = nn.forward_batch(X, params)
        # force a saturated correct prediction through the cached probs
        cache.probs = np.array([[1.0, 0.0]])
        grads = nn.model_backward(cache, np.array([0])).tensors()
        for g in grads.values():
            assert np.all(g == 0.0)

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
        grads_b = nn.model_backward(cache, y).tensors()
        pre = cache.maps.swapaxes(-1, -3)  # (row, map, position)
        idx = nn.pool_positions(cache.maps, cache.pooled, cache.pool_mode)
        # conv bias gradient sums dpre over positions; with no dropout the
        # routed mass per map equals dz gated by ReLU at the argmax
        K = params.kernels_per_width
        for wi, w in enumerate(nn.KERNEL_WIDTHS):
            bank = slice(wi * K, (wi + 1) * K)  # the cache stacks the banks
            block = dz[:, bank]
            gate = np.take_along_axis(pre[:, bank] > 0, idx[:, bank], axis=2)[:, :, 0]
            np.testing.assert_allclose(
                grads_b[f"conv_b{w}"], (block * gate).sum(axis=0), atol=1e-12
            )


@pytest.mark.parametrize("models", [None, 3])
@pytest.mark.parametrize("mode", [nn.GLOBAL_POOL, ("windowed", 3, 2)])
def test_forward_and_backward_do_not_depend_on_block_size(models, mode, rng, monkeypatch):
    """Probabilities, pooled values, pool positions and gradients keep every
    bit whether the batch runs in row blocks of one row, of 7 rows or in one
    block (whose maps the backward reuses; the others' it builds again)."""
    lead = () if models is None else (models,)
    singles = [nn.init_params(4, rng, mode) for _ in range(models or 1)]
    params = singles[0] if models is None else nn.ModelParams.stack(singles)
    rows = 30
    X = rng.standard_normal(lead + (rows, nn.N_FEATURES))
    y = rng.integers(0, 2, lead + (rows,))
    results = []
    for block_rows in (1, 7, rows):
        monkeypatch.setattr(nn, "INFER_BLOCK_ELEMENTS",
                            block_rows * (models or 1) * len(nn.KERNEL_WIDTHS) * 4 * nn.N_FEATURES)
        gens = [np.random.default_rng([7, f]) for f in range(models or 1)]
        probs, cache = nn.forward_batch(X, params, 0.5, gens, mode)
        grads = nn.model_backward(cache, y)
        assert (cache.maps is None) == (block_rows < rows)
        maps = nn.forward_maps(X, params) if cache.maps is None else cache.maps
        idx = nn.pool_positions(maps, cache.pooled, mode)
        results.append((probs, cache.pooled, idx, grads.flat))
    for result in results[1:]:
        for got, expected in zip(result, results[0]):
            assert got.dtype == expected.dtype and same_bits(got, expected)


def pool_margin(pre, pool_mode):
    """Smallest distance, over every pool window of (B, M, 13) maps, between
    its largest pre-activation and 0 or its runner-up: how far any
    pre-activation can move before the loss meets a ReLU or argmax kink."""
    size, starts = nn.pool_windows(pool_mode, pre.shape[-1])
    margin = np.inf
    for start in starts:
        window = np.sort(pre[..., start : start + size], axis=-1)
        margin = min(margin, np.abs(window[..., -1]).min())
        if size > 1:
            margin = min(margin, (window[..., -1] - window[..., -2]).min())
    return margin


@given(kernels=st.integers(1, 6), rows=st.integers(1, 8),
       mode=st.sampled_from([nn.GLOBAL_POOL, ("windowed", 1, 1), ("windowed", 3, 2),
                             ("windowed", 5, 1), ("windowed", 13, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_gradients_match_finite_differences(kernels, rows, mode, seed):
    """Every parameter's gradient matches central differences wherever the
    loss is smooth: no pre-activation may cross 0 or its window's runner-up
    within the step (a step of h moves one by at most h * max(1, |x|))."""
    rng = np.random.default_rng(seed)
    params = nn.init_params(kernels, rng, mode)
    for w in nn.KERNEL_WIDTHS:
        params.conv_b[w][...] = rng.normal(scale=0.1, size=kernels)
    X = rng.standard_normal((rows, nn.N_FEATURES))
    y = rng.integers(0, 2, rows)
    _, cache = nn.forward_batch(X, params, pool_mode=mode)
    h = 1e-6
    assume(pool_margin(cache.maps.swapaxes(-1, -3), mode) > 10 * h * max(1.0, np.abs(X).max()))
    grads = nn.model_backward(cache, y).tensors()
    # one stacked forward: model i has parameter i moved by +h, model P + i by -h
    P = params.flat.size
    moved = params.with_flat(params.flat + h * np.concatenate([np.eye(P), -np.eye(P)]))
    probs, _ = nn.forward_batch(np.broadcast_to(X, (2 * P,) + X.shape), moved, pool_mode=mode)
    loss = tr.mean_loss(probs, y)
    expected = nn.tensor_views((loss[:P] - loss[P:]) / (2 * h), params.shapes)
    for name in grads:
        np.testing.assert_allclose(grads[name], expected[name], rtol=1e-4, atol=1e-8,
                                   err_msg=name)


class TestWindowedPooling:
    def test_forward_backward_consistency(self, rng):
        mode = ("windowed", 3, 2)
        params = nn.init_params(2, rng, pool_mode=mode)
        X = rng.standard_normal((4, 13))
        y = rng.integers(0, 2, size=4)
        probs, cache = nn.forward_batch(X, params, pool_mode=mode)
        assert probs.shape == (4, 2)
        grads = nn.model_backward(cache, y).tensors()

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
