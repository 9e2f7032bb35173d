from __future__ import annotations

import math

import numpy as np
import pytest

from eventke.autodiff import ParameterStore, Tape, Tensor, grad_check


def test_tensor_rejects_rank_5():
    with pytest.raises(ValueError):
        Tensor(np.zeros((1, 1, 1, 1, 1)))


def _softmax(logits) -> np.ndarray:
    """Softmax over one segment holding every logit."""
    logits = np.asarray(logits, dtype=np.float64)
    return Tape().segment_softmax(Tensor(logits), np.zeros(logits.size, dtype=int), 1).data


def test_softmax_known_values():
    # logits [ln 2, 0] -> probabilities [2/3, 1/3]
    out = _softmax([math.log(2.0), 0.0])
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_sums_to_one_and_is_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        logits = rng.normal(size=rng.integers(1, 12))
        a = _softmax(logits)
        b = _softmax(logits + 3.7)
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(a - b)) <= 1e-12


def test_softmax_empty_set_is_an_error():
    with pytest.raises(ValueError):
        _softmax(np.zeros(0))


def test_circ_corr_worked_example():
    # a=[1,2,3], b=[4,5,6] -> [32, 29, 29]
    out = Tape().circ_corr(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0]))
    assert np.array_equal(out.data, [32.0, 29.0, 29.0])


def test_circ_corr_identity_basis_vector():
    rng = np.random.default_rng(11)
    for d in (2, 3, 8, 17):
        e0 = np.zeros(d)
        e0[0] = 1.0
        b = rng.normal(size=d)
        out = Tape().circ_corr(Tensor(e0), Tensor(b))
        assert np.array_equal(out.data, b)


def test_circ_corr_matches_double_loop():
    rng = np.random.default_rng(13)
    for _ in range(40):
        d = int(rng.integers(2, 33))
        a = rng.normal(size=d)
        b = rng.normal(size=d)
        expect = np.zeros(d)
        for k in range(d):
            for i in range(d):
                expect[k] += a[i] * b[(k + i) % d]
        out = Tape().circ_corr(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - expect)) <= 1e-12


def test_conv2d_worked_example():
    # 2x2 image, single 2x2 kernel picking the main diagonal -> [[5]]
    img = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    filt = Tensor([[[1.0, 0.0], [0.0, 1.0]]])
    out = Tape().conv2d(img, filt)
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 5.0


def test_conv2d_is_cross_correlation_not_flipped():
    img = Tensor([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    filt = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    out = Tape().conv2d(img, filt)
    # top-left output aligns kernel[0,0] with image[0,0]
    assert out.data[0, 0, 0, 0] == 1.0
    assert out.data[0, 0, 0, 1] == 0.0


def test_conv2d_kernel_must_fit():
    with pytest.raises(ValueError):
        Tape().conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 3, 3))))
    with pytest.raises(ValueError):
        Tape().conv2d(Tensor(np.zeros((3, 3))), Tensor(np.zeros((1, 2, 2))))


def test_relu_subgradient_at_zero_is_one():
    for op, extra in ((Tape.relu, ()), (Tape.leaky_relu, (0.2,))):
        tape = Tape()
        x = Tensor([0.0])
        y = op(tape, x, *extra)
        loss = tape.tensor_sum(y)
        tape.backward(loss)
        assert x.grad[0] == 1.0


def test_bce_known_values():
    tape = Tape()
    scores = Tensor([0.0, 0.0])
    loss = tape.bce_with_logits(scores, np.array([1.0, 0.0]))
    assert abs(loss.data - 2.0 * math.log(2.0)) <= 1e-12

    # saturated correct predictions contribute almost nothing
    sat = Tape().bce_with_logits(Tensor([20.0, -20.0]), np.array([1.0, 0.0]))
    assert sat.data < 1e-8


def test_bce_clamp_keeps_loss_finite():
    loss = Tape().bce_with_logits(Tensor([500.0]), np.array([0.0]))
    assert np.isfinite(loss.data)
    # bound is -log(1e-12) up to float rounding of the clamp endpoint
    assert loss.data <= -math.log(1e-12) + 1e-4


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=5)
    loss = Tape().cross_entropy(Tensor(logits), 2)
    probs = np.exp(logits) / np.exp(logits).sum()
    assert abs(loss.data - (-math.log(probs[2]))) <= 1e-12


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor([1.0, 2.0])
    y = tape.relu(x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_lookup_out_of_range():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        Tape().lookup(table, 3)


def _dot(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Scalar sum(a * b) of two same-size tensors, through recorded ops."""
    row_a, row_b = tape.reshape(a, (1, -1)), tape.reshape(b, (1, -1))
    return tape.tensor_sum(tape.rows_affine(row_a, row_b))


def _loss_through_all_ops(params: dict[str, Tensor]) -> tuple[Tape, Tensor]:
    """One scalar loss through every per-vector op and a batched conv,
    at a non-kink point."""
    tape = Tape()
    table, w, filt, proj = params["table"], params["w"], params["filt"], params["proj"]
    a = tape.lookup(table, 0)
    b = tape.lookup(table, 1)
    c = tape.lookup(table, 2)
    hid = tape.leaky_relu(tape.affine(w, tape.concat(a, b)), 0.2)
    mixed = tape.add_n([hid, tape.relu(c), tape.scale(a, 0.5)])
    phi = tape.circ_corr(mixed, tape.add(b, c))
    images = tape.reshape(tape.concat(phi, mixed), (2, 2, 3))
    feat = tape.reshape(tape.conv2d(images, filt), (-1,))
    scores = tape.affine(proj, feat)
    bce = tape.bce_with_logits(scores, np.array([1.0, 0.0, 1.0]))
    ce = tape.cross_entropy(scores, 1)
    return tape, tape.add(tape.add(bce, ce), _dot(tape, phi, phi))


def _all_op_params() -> dict[str, Tensor]:
    rng = np.random.default_rng(21)
    return {
        "table": Tensor(rng.normal(size=(3, 6)) + 0.3),
        "w": Tensor(rng.normal(size=(6, 12)) * 0.4),
        "filt": Tensor(rng.normal(size=(2, 2, 2)) * 0.5),
        "proj": Tensor(rng.normal(size=(3, 8)) * 0.5),
    }


def test_grad_check_every_op():
    params = _all_op_params()
    err = grad_check(lambda: _loss_through_all_ops(params), params.values())
    assert err < 1e-6


def test_replay_is_deterministic():
    params = _all_op_params()
    tape1, loss1 = _loss_through_all_ops(params)
    tape1.backward(loss1)
    grads1 = {k: v.grad.copy() for k, v in params.items()}
    for v in params.values():
        v.zero_grad()
    tape2, loss2 = _loss_through_all_ops(params)
    tape2.backward(loss2)
    assert loss1.data == loss2.data
    for k, v in params.items():
        assert np.array_equal(grads1[k], v.grad)


def test_add_n_matches_chained_add():
    rng = np.random.default_rng(5)
    xs = [Tensor(rng.normal(size=4)) for _ in range(5)]
    tape = Tape()
    total = tape.add_n(xs)
    loss = _dot(tape, total, total)
    tape.backward(loss)
    grads = [x.grad.copy() for x in xs]

    for x in xs:
        x.zero_grad()
    tape2 = Tape()
    acc = xs[0]
    for x in xs[1:]:
        acc = tape2.add(acc, x)
    loss2 = _dot(tape2, acc, acc)
    tape2.backward(loss2)
    assert loss.data == loss2.data
    for g, x in zip(grads, xs):
        assert np.array_equal(g, x.grad)


def test_gradients_accumulate_across_reuse():
    # x used twice: d(2x)/dx = 2 exactly
    tape = Tape()
    x = Tensor([3.0])
    loss = tape.tensor_sum(tape.add(x, x))
    tape.backward(loss)
    assert x.grad[0] == 2.0


def test_gather_rows_values_and_repeated_index_grads():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    tape = Tape()
    picked = tape.gather_rows(table, [2, 0, 2])
    assert np.array_equal(picked.data, table.data[[2, 0, 2]])
    loss = tape.tensor_sum(picked)
    tape.backward(loss)
    # row 2 was used twice, row 1 never
    assert np.array_equal(table.grad, [[1.0] * 3, [0.0] * 3, [2.0] * 3, [0.0] * 3])

    with pytest.raises(IndexError):
        Tape().gather_rows(table, [4])


def test_rows_affine_matches_per_row_affine():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(4, 3)))
    out = Tape().rows_affine(x, w)
    for i in range(5):
        row = Tape().affine(w, Tensor(x.data[i]))
        assert np.max(np.abs(out.data[i] - row.data)) <= 1e-12


def test_segment_sum_and_mean_oracle():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    seg = [1, 0, 1]
    summed = Tape().segment_sum(x, seg, 2)
    assert np.array_equal(summed.data, [[3.0, 4.0], [6.0, 8.0]])
    # absent segment sums to zero but is an error for the mean
    padded = Tape().segment_sum(x, seg, 3)
    assert np.array_equal(padded.data[2], [0.0, 0.0])
    with pytest.raises(ValueError):
        Tape().segment_mean(x, seg, 3)
    mean = Tape().segment_mean(x, seg, 2)
    assert np.array_equal(mean.data, [[3.0, 4.0], [3.0, 4.0]])


def test_segment_softmax_matches_blockwise_masked_softmax():
    rng = np.random.default_rng(23)
    sizes = [1, 4, 2, 3]
    seg = np.repeat(np.arange(len(sizes)), sizes)
    logits = rng.normal(size=seg.size)
    out = Tape().segment_softmax(Tensor(logits), seg, len(sizes))
    lo = 0
    for s, width in enumerate(sizes):
        block = np.exp(logits[lo : lo + width])
        assert np.max(np.abs(out.data[lo : lo + width] - block / block.sum())) <= 1e-12
        lo += width

    with pytest.raises(ValueError):
        Tape().segment_softmax(Tensor(logits), seg, len(sizes) + 1)


def test_replace_rows_keeps_other_rows_bitwise():
    base = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
    rows = Tensor(np.ones((2, 3)))
    tape = Tape()
    out = tape.replace_rows(base, [3, 1], rows)
    assert np.array_equal(out.data[[0, 2]], base.data[[0, 2]])
    assert np.all(out.data[[3, 1]] == 1.0)
    loss = tape.tensor_sum(out)
    tape.backward(loss)
    assert np.array_equal(base.grad, [[1.0] * 3, [0.0] * 3, [1.0] * 3, [0.0] * 3])
    assert np.all(rows.grad == 1.0)

    with pytest.raises(ValueError):
        Tape().replace_rows(base, [1, 1], rows)


def test_circ_corr_rows_matches_per_vector_op():
    rng = np.random.default_rng(29)
    for d in (1, 2, 5, 16):
        a = rng.normal(size=(6, d))
        b = rng.normal(size=(6, d))
        out = Tape().circ_corr_rows(Tensor(a), Tensor(b))
        for i in range(6):
            one = Tape().circ_corr(Tensor(a[i]), Tensor(b[i]))
            assert np.max(np.abs(out.data[i] - one.data)) <= 1e-12


def _loss_through_batched_ops(params: dict[str, Tensor]) -> tuple[Tape, Tensor]:
    tape = Tape()
    table, w = params["btable"], params["bw"]
    seg = [0, 1, 1, 2]
    picked = tape.gather_rows(table, [0, 2, 1, 2])
    mapped = tape.rows_affine(picked, w)
    logits = tape.reshape(tape.rows_affine(picked, params["battn"]), (-1,))
    alpha = tape.segment_softmax(logits, seg, 3)
    pooled = tape.segment_sum(tape.scale_rows(mapped, alpha), seg, 3)
    mixed = tape.concat_cols(pooled, tape.segment_mean(picked, seg, 3))
    phi = tape.circ_corr_rows(mixed, tape.relu(mixed))
    patched = tape.replace_rows(phi, [1], tape.gather_rows(mixed, [0]))
    return tape, _dot(tape, patched, patched)


def test_grad_check_every_batched_op():
    rng = np.random.default_rng(31)
    params = {
        "btable": Tensor(rng.normal(size=(3, 4)) + 0.2),
        "bw": Tensor(rng.normal(size=(4, 4)) * 0.5),
        "battn": Tensor(rng.normal(size=(1, 4)) * 0.5),
    }
    err = grad_check(lambda: _loss_through_batched_ops(params), params.values())
    assert err < 1e-6


def test_parameter_store_basics():
    store = ParameterStore()
    a = store.add("a", np.ones((2, 3)))
    store.add("b", np.zeros(5))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    assert store.parameter_count() == 11
    a.grad += 1.0
    store.zero_grads()
    assert np.all(a.grad == 0.0)
    assert set(store.names()) == {"a", "b"}


def test_parameter_store_state_round_trip():
    store = ParameterStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    store.slots("w")["m"][...] = 0.5
    arrays = {k: v.copy() for k, v in store.state_arrays().items()}

    other = ParameterStore()
    other.add("w", np.zeros((2, 3)))
    other.load_state_arrays(arrays)
    assert np.array_equal(other["w"].data, np.arange(6.0).reshape(2, 3))
    assert np.all(other.slots("w")["m"] == 0.5)

    bad = ParameterStore()
    bad.add("w", np.zeros((3, 2)))
    with pytest.raises(ValueError):
        bad.load_state_arrays(arrays)


# -- the fast kernels are bitwise the plain forms ----------------------------


def _backward_with(tape, out, g):
    """Run the tape's backward with d(loss)/d(out) = g exactly."""
    tape.backward(_dot(tape, out, Tensor(g)))


def test_tensor_grad_is_allocated_on_first_use():
    x = Tensor(np.ones((2, 3)))
    x.zero_grad()
    assert np.array_equal(x.grad, np.zeros((2, 3)))
    x.grad += 1.0
    x.zero_grad()
    assert np.array_equal(x.grad, np.zeros((2, 3)))


def test_gather_rows_scatter_equals_per_column_bincount_bitwise():
    rng = np.random.default_rng(37)
    table = Tensor(rng.normal(size=(7, 5)))
    idx = rng.integers(0, 7, size=40)
    tape = Tape()
    picked = tape.gather_rows(table, idx)
    g = rng.normal(size=picked.shape)
    _backward_with(tape, picked, g)
    expected = np.zeros((7, 5))
    for col in range(5):
        expected[:, col] += np.bincount(idx, weights=g[:, col], minlength=7)
    assert table.grad.tobytes() == expected.tobytes()


def test_affine_grad_with_dead_output_rows_equals_outer_product_bitwise():
    rng = np.random.default_rng(41)
    w = Tensor(rng.normal(size=(6, 9)))
    x = Tensor(rng.normal(size=9))
    w.grad += rng.normal(size=(6, 9))
    before = w.grad.copy()
    tape = Tape()
    out = tape.affine(w, x)
    g = rng.normal(size=6)
    g[[0, 2, 3]] = 0.0
    _backward_with(tape, out, g)
    assert w.grad.tobytes() == (before + np.outer(g, x.data)).tobytes()


def _circ_corr_rows_grads(a, b, g, distinct=None):
    ta, tb = Tensor(a), Tensor(b)
    tape = Tape()
    out = tape.circ_corr_rows(ta, tb, distinct)
    _backward_with(tape, out, g)
    return out.data, ta.grad, tb.grad


def test_circ_corr_rows_grad_b_equals_row_major_einsum_bitwise():
    rng = np.random.default_rng(43)
    for m in (1, 2, 3, 257, 600):
        for d in (1, 2, 7, 64):
            a, b, g = (rng.normal(size=(m, d)) for _ in range(3))
            a_ext = np.concatenate([a[:, 1:], a], axis=1)
            windows = np.lib.stride_tricks.sliding_window_view(a_ext, d, axis=1)
            expected = np.einsum("mtk,mk->mt", windows, g[:, ::-1])
            _, _, grad_b = _circ_corr_rows_grads(a, b, g)
            assert grad_b.tobytes() == expected.tobytes(), (m, d)


def test_circ_corr_rows_distinct_pairs_change_no_bit():
    rng = np.random.default_rng(47)
    for n_a, n_b in ((4, 3), (1, 1)):
        pool_a, pool_b = rng.normal(size=(n_a, 16)), rng.normal(size=(n_b, 16))
        ia, ib = rng.integers(0, n_a, size=30), rng.integers(0, n_b, size=30)
        a, b, g = pool_a[ia], pool_b[ib], rng.normal(size=(30, 16))
        _, first, inverse = np.unique(ia * n_b + ib, return_index=True, return_inverse=True)
        plain = _circ_corr_rows_grads(a, b, g)
        deduped = _circ_corr_rows_grads(a, b, g, (first, inverse))
        for x, y in zip(plain, deduped):
            assert x.tobytes() == y.tobytes()


def test_conv2d_equals_tensordot_form_bitwise():
    rng = np.random.default_rng(53)
    images = Tensor(rng.normal(size=(3, 8, 6)))
    filters = Tensor(rng.normal(size=(4, 3, 3)))
    tape = Tape()
    out = tape.conv2d(images, filters)
    patches = np.lib.stride_tricks.sliding_window_view(images.data, (3, 3), axis=(1, 2))
    expected = np.tensordot(filters.data, patches, axes=([1, 2], [3, 4])).transpose(1, 0, 2, 3)
    assert out.data.tobytes() == np.ascontiguousarray(expected).tobytes()
    for n in range(3):
        alone = Tape().conv2d(Tensor(images.data[n : n + 1]), filters)
        assert alone.data[0].tobytes() == out.data[n].tobytes()
    g = rng.normal(size=out.shape)
    _backward_with(tape, out, g)
    images_grad = np.zeros((3, 8, 6))
    for i in range(3):
        for j in range(3):
            images_grad[:, i : i + 6, j : j + 4] += np.tensordot(
                filters.data[:, i, j], g, axes=(0, 1))
    filters_grad = np.tensordot(g, patches, axes=([0, 2, 3], [0, 1, 2]))
    assert images.grad.tobytes() == images_grad.tobytes()
    assert filters.grad.tobytes() == filters_grad.tobytes()


def test_reshape_round_trips_values_and_gradients():
    x = Tensor(np.arange(6.0))
    tape = Tape()
    y = tape.reshape(x, (2, -1))
    assert y.shape == (2, 3)
    _backward_with(tape, y, np.arange(6.0).reshape(2, 3) + 1.0)
    assert np.array_equal(x.grad, np.arange(6.0) + 1.0)
    with pytest.raises(ValueError):
        Tape().reshape(x, (4, 2))
