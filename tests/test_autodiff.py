from __future__ import annotations

import ast
import inspect
import math
import pathlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import eventke
from eventke import autodiff, layers, scoring
from eventke.autodiff import ParameterStore, Tape, Tensor, grad_check


def test_tensor_rejects_rank_5():
    with pytest.raises(ValueError):
        Tensor(np.zeros((1, 1, 1, 1, 1)))


def _softmax(logits) -> np.ndarray:
    """Softmax over one segment holding every logit; a slope of 1.0
    rectifies nothing."""
    logits = np.asarray(logits, dtype=np.float64)
    return Tape().segment_softmax(Tensor(logits), np.zeros(logits.size, dtype=int), 1, 1.0).data


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


def test_conv_trunk_worked_example():
    # s and r stack into the 2x2 image [[1, 2], [3, 4]]; one 2x2 kernel
    # picking the main diagonal gives 5, a 1x1 projection keeps it
    out = Tape().conv_trunk(
        Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([[[1.0, 0.0], [0.0, 1.0]]]),
        Tensor([[1.0]]), 1,
    )
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 5.0


def test_conv_trunk_is_cross_correlation_not_flipped():
    # a 4x3 image with a single 1 at its top-left corner; an identity
    # projection reads back the 3x2 conv map
    s = Tensor([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    out = Tape().conv_trunk(
        s, Tensor(np.zeros((1, 6))), Tensor([[[1.0, 2.0], [3.0, 4.0]]]), Tensor(np.eye(6)), 2)
    # top-left output aligns kernel[0,0] with image[0,0]
    assert out.data[0, 0] == 1.0
    assert out.data[0, 1] == 0.0


def test_conv_trunk_rejects_bad_shapes():
    def trunk(s_shape, r_shape, filters_shape, rows, width=1):
        Tape().conv_trunk(Tensor(np.zeros(s_shape)), Tensor(np.zeros(r_shape)),
                          Tensor(np.zeros(filters_shape)), Tensor(np.zeros((2, width))), rows)

    trunk((1, 4), (1, 4), (1, 2, 2), 2, width=3)  # a 4x2 image, a 3x1 conv map
    with pytest.raises(ValueError, match="square kernel that fits the 4x2 image, got 3x3"):
        trunk((1, 4), (1, 4), (1, 3, 3), 2)
    with pytest.raises(ValueError, match="square kernel that fits the 4x2 image, got 2x1"):
        trunk((1, 4), (1, 4), (1, 2, 1), 2)
    with pytest.raises(ValueError, match="matching"):
        trunk((2, 4), (3, 4), (1, 2, 2), 2)
    with pytest.raises(ValueError, match="fold"):
        trunk((1, 5), (1, 5), (1, 2, 2), 2)
    with pytest.raises(ValueError):  # the projection takes 3 columns
        trunk((1, 4), (1, 4), (1, 2, 2), 2, width=4)


def test_relu_subgradient_at_zero_is_one():
    tape = Tape()
    x = Tensor([0.0])
    tape.backward(_total(tape, tape.relu(x)))
    assert x.grad[0] == 1.0
    # segment_softmax's rectifier takes the positive side at a logit of 0
    # too: its gradient there is the unrectified softmax's
    grads = []
    for slope in (0.2, 1.0):
        tape = Tape()
        x = Tensor([0.0, 1.0])
        out = tape.segment_softmax(x, [0, 0], 1, slope)
        tape.backward(_dot(tape, out, Tensor([1.0, 0.0])))
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1] and x.grad[0] != 0.0


def _bce(scores, positives: int, mean: bool = False) -> Tensor:
    """candidate_bce of one query with the given scores, the first
    ``positives`` gold: a unit trunk, above a padding row, against a table
    whose i-th row is (scores[i], 0)."""
    scores = np.asarray(scores, dtype=np.float64)
    table = Tensor(np.stack([scores, np.zeros(scores.size)], axis=1))
    trunks = Tensor([[1.0, 0.0], [0.0, 0.0]])
    ids = list(range(scores.size))
    return Tape().candidate_bce(trunks, table, [ids[:positives]], [ids[positives:]], mean)[0]


def test_bce_known_values():
    loss = _bce([0.0, 0.0], 1)
    assert abs(loss.data - 2.0 * math.log(2.0)) <= 1e-12
    assert abs(_bce([0.0, 0.0], 1, mean=True).data - math.log(2.0)) <= 1e-12

    # saturated correct predictions contribute almost nothing
    sat = _bce([20.0, -20.0], 1)
    assert sat.data < 1e-8


def test_bce_clamp_keeps_loss_finite():
    loss = _bce([500.0], 0)
    assert np.isfinite(loss.data)
    # bound is -log(1e-12) up to float rounding of the clamp endpoint
    assert loss.data <= -math.log(1e-12) + 1e-4


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=5)
    loss = Tape().cross_entropy(Tensor(logits), 2)
    probs = np.exp(logits) / np.exp(logits).sum()
    assert abs(loss.data - (-math.log(probs[2]))) <= 1e-12
    # (N, C) logits and N labels: the sum of the rows' losses
    rows = rng.normal(size=(4, 5))
    labels = np.array([2, 0, 4, 2])
    loss = Tape().cross_entropy(Tensor(rows), labels)
    expected = sum(-math.log(np.exp(r[y]) / np.exp(r).sum()) for r, y in zip(rows, labels))
    assert abs(loss.data - expected) <= 1e-12
    with pytest.raises(ValueError):
        Tape().cross_entropy(Tensor(rows), labels[:3])
    with pytest.raises(IndexError):
        Tape().cross_entropy(Tensor(rows), np.array([0, 1, 5, 2]))


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor([1.0, 2.0])
    y = tape.relu(x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_candidate_bce_out_of_range():
    trunks, table = Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="3 rows"):  # more queries than trunk rows
        Tape().candidate_bce(trunks, table, [[0]] * 4, [[1]] * 4, False)
    with pytest.raises(ValueError, match="3 rows"):  # unpaired gold and negative lists
        Tape().candidate_bce(trunks, table, [[0], [1]], [[1]], False)
    with pytest.raises(IndexError):
        Tape().candidate_bce(trunks, table, [[0]], [[4]], False)
    with pytest.raises(ValueError, match="query 1 has no candidates"):
        Tape().candidate_bce(trunks, table, [[0], []], [[1], []], True)


def _dot(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Scalar sum(a * b) of two same-size tensors, through recorded ops."""
    row_a, row_b = tape.reshape(a, (1, -1)), tape.reshape(b, (1, -1))
    return tape.reshape(tape.rows_affine(row_a, row_b), ())


def _total(tape: Tape, x: Tensor) -> Tensor:
    """Scalar sum of every entry of x, through recorded ops."""
    return _dot(tape, x, Tensor(np.ones(x.shape)))


def _concat(tape: Tape, *xs: Tensor) -> Tensor:
    """1-D tensors end to end, as one row of ``concat_cols``."""
    row = tape.concat_cols(*(tape.reshape(x, (1, -1)) for x in xs))
    return tape.reshape(row, (-1,))


def _loss_through_all_ops(params: dict[str, Tensor]) -> tuple[Tape, Tensor]:
    """One scalar loss through every per-vector op, the conv trunk and a
    query loss, at a non-kink point."""
    tape = Tape()
    table, w, filt, proj = params["table"], params["w"], params["filt"], params["proj"]
    a, b, c = (tape.reshape(tape.gather_rows(table, [i]), (-1,)) for i in range(3))
    hidden = tape.rows_affine(tape.reshape(_concat(tape, a, b), (1, -1)), w)
    hid = tape.segment_softmax(tape.reshape(hidden, (-1,)), [0, 0, 0, 1, 1, 1], 2, 0.2)
    # a - a/2 is exactly a/2: both inputs of add_rows reach the gradient
    a_row = tape.reshape(a, (1, -1))
    half_a = tape.reshape(tape.add_rows(a_row, [0], a_row, -0.5), (-1,))
    mixed = tape.add_n([hid, tape.relu(c), half_a])
    phi = tape.circ_corr(mixed, tape.add(b, c))
    # a 4x3 image: phi folded into two rows above mixed folded alike
    feat = tape.conv_trunk(
        tape.reshape(phi, (1, -1)), tape.reshape(mixed, (1, -1)), filt, params["trunk"], 2)
    # feat's halves scored against proj's: 0 and 2 gold, 1 twice a negative,
    # and 5 gold, 3 and 0 negative
    bce, _ = tape.candidate_bce(tape.reshape(feat, (2, 4)), tape.reshape(proj, (6, 4)),
                                [[0, 2], [5]], [[1, 1], [3, 0]], True)
    ce = tape.cross_entropy(tape.rows_affine(feat, proj), [1])
    ce_rows = tape.cross_entropy(tape.reshape(feat, (2, 4)), np.array([3, 0]))
    return tape, tape.add_n([bce, ce, ce_rows, _dot(tape, phi, phi)])


def _all_op_params() -> dict[str, Tensor]:
    rng = np.random.default_rng(21)
    return {
        "table": Tensor(rng.normal(size=(3, 6)) + 0.3),
        "w": Tensor(rng.normal(size=(6, 12)) * 0.4),
        "filt": Tensor(rng.normal(size=(2, 2, 2)) * 0.5),
        "trunk": Tensor(rng.normal(size=(8, 12)) * 0.5),
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


def test_backward_consumes_the_tape():
    params = _all_op_params()
    tape, loss = _loss_through_all_ops(params)
    assert len(tape) > 0
    tape.backward(loss)
    assert len(tape) == 0
    assert all(np.any(p.grad) for p in params.values())


def test_backward_frees_each_gradient_once_consumed():
    m, d = 4000, 32
    x = Tensor(np.random.default_rng(3).normal(size=(m, d)))
    one_row = Tensor(np.ones((1, d)))
    tape = Tape()
    y = x
    for _ in range(10):
        y = tape.add_rows(y, [0], one_row, 0.5)
    loss = _total(tape, y)
    del y  # the chain is now held by the tape alone
    tracemalloc.start()
    try:
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(x.grad == 1.0)
    assert np.all(one_row.grad == 5.0)
    # a tape that kept its records would hold all ten (m, d) gradients
    assert peak < 3 * m * d * 8


def test_gradients_accumulate_across_reuse():
    # x used twice: d(2x)/dx = 2 exactly
    tape = Tape()
    x = Tensor([3.0])
    loss = _total(tape, tape.add(x, x))
    tape.backward(loss)
    assert x.grad[0] == 2.0


def test_gather_rows_values_and_repeated_index_grads():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    tape = Tape()
    picked = tape.gather_rows(table, [2, 0, 2])
    assert np.array_equal(picked.data, table.data[[2, 0, 2]])
    loss = _total(tape, picked)
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
        assert np.max(np.abs(out.data[i] - w.data @ x.data[i])) <= 1e-12


def test_pool_sum_and_mean_oracle():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    idx, seg = [2, 0, 1, 2], [1, 0, 1, 1]
    summed = Tape().pool_sum(x, idx, Tensor(np.ones(4)), seg, 2)
    assert np.array_equal(summed.data, [[1.0, 2.0], [13.0, 16.0]])
    weighted = Tape().pool_sum(x, idx, Tensor([0.5, 2.0, 1.0, -1.0]), seg, 2)
    assert np.array_equal(weighted.data, [[2.0, 4.0], [0.5, 1.0]])
    # absent segment sums to zero but is an error for the mean
    padded = Tape().pool_sum(x, idx, Tensor(np.ones(4)), seg, 3)
    assert np.array_equal(padded.data[2], [0.0, 0.0])
    with pytest.raises(ValueError):
        Tape().pool_mean(x, idx, seg, 3)
    mean = Tape().pool_mean(x, idx, seg, 2)
    assert np.array_equal(mean.data, [[1.0, 2.0], [13.0 / 3.0, 16.0 / 3.0]])

    with pytest.raises(IndexError):
        Tape().pool_mean(x, [3, 0, 1, 2], seg, 2)
    with pytest.raises(ValueError):
        Tape().pool_sum(x, idx, Tensor(np.ones(3)), seg, 2)
    with pytest.raises(ValueError):
        Tape().pool_mean(x, idx, seg[:3], 2)


def test_segment_softmax_matches_blockwise_masked_softmax():
    rng = np.random.default_rng(23)
    sizes = [1, 4, 2, 3]
    seg = np.repeat(np.arange(len(sizes)), sizes)
    logits = rng.normal(size=seg.size)
    out = Tape().segment_softmax(Tensor(logits), seg, len(sizes), 1.0)
    lo = 0
    for s, width in enumerate(sizes):
        block = np.exp(logits[lo : lo + width])
        assert np.max(np.abs(out.data[lo : lo + width] - block / block.sum())) <= 1e-12
        lo += width

    with pytest.raises(ValueError):
        Tape().segment_softmax(Tensor(logits), seg, len(sizes) + 1, 1.0)


def test_segment_softmax_is_the_softmax_of_leaky_rectified_logits():
    """At slope 0.2 the values are bitwise the slope-1.0 softmax of the
    pre-rectified logits, and the logits' gradient is that call's gradient
    times the rectifier's slope, also bitwise."""
    rng = np.random.default_rng(37)
    seg = np.repeat(np.arange(4), [3, 1, 5, 2])
    logits = rng.normal(size=seg.size)
    assert (logits < 0).any() and (logits > 0).any()
    upstream = Tensor(rng.normal(size=seg.size))

    def run(values, slope):
        tape, x = Tape(), Tensor(values)
        out = tape.segment_softmax(x, seg, 4, slope)
        tape.backward(_dot(tape, out, upstream))
        return out.data, x.grad

    out, grad = run(logits, 0.2)
    plain_out, plain_grad = run(np.where(logits >= 0, logits, 0.2 * logits), 1.0)
    assert out.tobytes() == plain_out.tobytes()
    assert grad.tobytes() == (plain_grad * np.where(logits >= 0, 1.0, 0.2)).tobytes()


def test_replace_rows_keeps_other_rows_bitwise():
    """add_rows writes base + factor * rows at its indices and copies every
    other row bit for bit, -0.0 and NaN included."""
    base = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
    base.data[0] = [-0.0, np.nan, 1.0]
    base.data[2, 1] = -0.0
    rows = Tensor(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    out = tape.add_rows(base, [3, 1], rows, -0.5)
    assert out.data[[0, 2]].tobytes() == base.data[[0, 2]].tobytes()
    assert np.array_equal(out.data[[3, 1]], base.data[[3, 1]] + rows.data * -0.5)
    loss = _dot(tape, out, Tensor(np.nan_to_num(base.data) + 1.0))
    tape.backward(loss)
    assert np.array_equal(base.grad, np.nan_to_num(base.data) + 1.0)
    assert np.array_equal(rows.grad, -0.5 * (base.data[[3, 1]] + 1.0))


def test_add_rows_rejects_bad_input():
    base, rows = Tensor(np.zeros((4, 3))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="distinct"):
        Tape().add_rows(base, [1, 1], rows, 1.0)
    with pytest.raises(IndexError):
        Tape().add_rows(base, [1, 4], rows, 1.0)
    with pytest.raises(IndexError):
        Tape().add_rows(base, [-1, 2], rows, 1.0)
    with pytest.raises(ValueError, match="rows for 2 slots of width 3"):
        Tape().add_rows(base, [0, 1], Tensor(np.ones((2, 2))), 1.0)
    with pytest.raises(ValueError, match="rows for 3 slots"):
        Tape().add_rows(base, [0, 1, 2], rows, 1.0)
    with pytest.raises(ValueError, match="2-D"):
        Tape().add_rows(Tensor(np.zeros(4)), [0], Tensor(np.ones((1, 1))), 1.0)
    with pytest.raises(ValueError, match="2-D"):
        Tape().add_rows(base, [0], Tensor(np.ones(3)), 1.0)


def test_circ_corr_rows_matches_per_vector_op():
    """Each row of circ_corr_sum is the sum of its edges' circ_corr."""
    rng = np.random.default_rng(29)
    src, rel, dst = [0, 3, 3, 1, 2, 0], [2, 0, 0, 1, 2, 2], [1, 0, 1, 3, 1, 0]
    for d in (1, 2, 5, 16):
        x = rng.normal(size=(4, d))
        table = rng.normal(size=(3, d))
        out = Tape().circ_corr_sum(Tensor(x), Tensor(table), src, rel, dst, 5)
        expected = np.zeros((5, d))
        for i in range(6):
            expected[dst[i]] += Tape().circ_corr(Tensor(x[src[i]]), Tensor(table[rel[i]])).data
        assert np.max(np.abs(out.data - expected)) <= 1e-12


def _loss_through_batched_ops(params: dict[str, Tensor]) -> tuple[Tape, Tensor]:
    tape = Tape()
    table, w = params["btable"], params["bw"]
    seg = [0, 1, 1, 2]
    idx = [0, 2, 1, 2]
    picked = tape.gather_rows(table, idx)
    logits = tape.reshape(tape.rows_affine(picked, params["battn"]), (-1,))
    alpha = tape.segment_softmax(logits, seg, 3, 0.2)
    pooled = tape.pool_sum(tape.rows_affine(table, w), idx, alpha, seg, 3)
    mixed = tape.concat_cols(pooled, tape.pool_mean(table, idx, seg, 3))
    phi = tape.circ_corr_sum(mixed, tape.relu(mixed), [0, 2, 1, 2], [1, 1, 0, 0], [2, 0, 2, 1], 3)
    patched = tape.add_rows(phi, [2, 0], tape.gather_rows(mixed, [0, 1]), -0.5)
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


def _scatter_layout(layout: str, rng) -> tuple[np.ndarray, int]:
    """A read-only (index, segment count) of one scatter shape."""
    if layout == "empty_segments":  # two segments in three have no member
        n, idx = 600, 3 * rng.integers(0, 200, size=3000)
    elif layout == "hub":  # one segment with ten times the others' members
        n, idx = 500, rng.integers(0, 500, size=6000)
        idx[::100] = 7
    elif layout == "permutation":  # one member each: a single diagonal
        n, idx = 1000, rng.permutation(1000)
    else:  # "few_segments": a few long segments and one empty
        n, idx = 4, rng.integers(0, 3, size=3000)
    idx.flags.writeable = False
    return idx, n


def _per_column_bincount(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    expected = np.zeros((n, rows.shape[1]))
    for col in range(rows.shape[1]):
        expected[:, col] += np.bincount(idx, weights=rows[:, col], minlength=n)
    return expected


def _scatter_both_ways(idx: np.ndarray, rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """gather_rows' table gradient and pool_sum's output, both sums of rows by idx."""
    table = Tensor(np.zeros((n, rows.shape[1])))
    tape = Tape()
    _backward_with(tape, tape.gather_rows(table, idx), rows)
    ones = Tensor(np.ones(idx.size))
    return table.grad, Tape().pool_sum(Tensor(rows), np.arange(idx.size), ones, idx, n).data


def test_gather_rows_scatter_equals_per_column_bincount_bitwise():
    rng = np.random.default_rng(37)
    for layout in ("empty_segments", "hub", "permutation", "few_segments"):
        idx, n = _scatter_layout(layout, rng)
        writable = idx.copy()
        for width in (1, 64, 192):
            rows = rng.normal(size=(idx.size, width))
            rows[::7] = -0.0  # a sum from +0.0 turns a lone -0.0 into +0.0
            expected = _per_column_bincount(idx, rows, n).tobytes()
            # wide rows in many segments take the diagonals, the rest the bincount
            diagonal = width >= 64 and layout != "few_segments"
            assert isinstance(autodiff._scatter_plan(idx, width), autodiff._Diagonals) == diagonal
            assert isinstance(autodiff._scatter_plan(writable, width), np.ndarray)
            for index in (idx, writable):
                for _ in range(2):  # the second call reads the cached plan
                    grad, summed = _scatter_both_ways(index, rows, n)
                    assert grad.tobytes() == expected, (layout, width)
                    assert summed.tobytes() == expected, (layout, width)


def test_scatter_by_a_mutated_writable_index_gives_fresh_sums():
    rng = np.random.default_rng(43)
    idx = 3 * rng.integers(0, 200, size=3000)
    rows = rng.normal(size=(idx.size, 64))
    for _ in range(2):
        expected = _per_column_bincount(idx, rows, 600).tobytes()
        grad, summed = _scatter_both_ways(idx, rows, 600)
        assert grad.tobytes() == expected
        assert summed.tobytes() == expected
        idx[:] = rng.permutation(idx) // 3


def _pool_layout(rng, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x (500, width) with -0.0 rows, 3000 read-only gather indices that
    repeat, and read-only ids of 200 segments with 15 members each."""
    x = rng.normal(size=(500, width))
    x[::7] = -0.0
    idx = rng.integers(0, 500, size=3000)
    seg = rng.permutation(np.arange(3000) % 200)
    idx.flags.writeable = seg.flags.writeable = False
    return x, idx, seg


def _pool_sum_chain(x, idx, w, seg, n, g):
    """pool_sum's value and x and w gradients as gather_rows, scale_rows and
    segment_sum formed them, each scatter a per-column bincount."""
    gathered = x[idx]
    out = _per_column_bincount(seg, gathered * w[:, None], n)
    grad_scaled = g[seg]
    grad_w = (grad_scaled * gathered).sum(axis=1)
    grad_x = _per_column_bincount(idx, grad_scaled * w[:, None], x.shape[0])
    return out, grad_x, grad_w


def _pool_mean_chain(x, idx, seg, n, g):
    """pool_mean's value and x gradient as gather_rows and segment_mean formed them."""
    counts = np.bincount(seg, minlength=n).astype(np.float64)
    out = _per_column_bincount(seg, x[idx], n) / counts[:, None]
    grad_x = _per_column_bincount(idx, g[seg] / counts[seg, None], x.shape[0])
    return out, grad_x


@pytest.mark.parametrize("width", [1, 64, 192])
def test_pool_sum_equals_gather_scale_segment_sum_bitwise(width):
    rng = np.random.default_rng(47)
    x, idx, seg = _pool_layout(rng, width)
    seg = 3 * seg  # 600 segments, two in three empty
    seg.flags.writeable = False
    w = rng.normal(size=idx.size)
    g = rng.normal(size=(600, width))
    expected = [a.tobytes() for a in _pool_sum_chain(x, idx, w, seg, 600, g)]
    diagonal = width >= 64
    assert isinstance(autodiff._scatter_plan(seg, width), autodiff._Diagonals) == diagonal
    assert isinstance(autodiff._scatter_plan(idx, width), autodiff._Diagonals) == diagonal
    for index, segments in ((idx, seg), (idx.copy(), seg.copy())):
        for _ in range(2):  # the second run reads the cached plans
            tx, tw = Tensor(x), Tensor(w)
            tape = Tape()
            out = tape.pool_sum(tx, index, tw, segments, 600)
            _backward_with(tape, out, g)
            got = [out.data.tobytes(), tx.grad.tobytes(), tw.grad.tobytes()]
            assert got == expected, (width, index.flags.writeable)


@pytest.mark.parametrize("width", [1, 64, 192])
def test_pool_mean_equals_gather_segment_mean_bitwise(width):
    rng = np.random.default_rng(53)
    x, idx, seg = _pool_layout(rng, width)
    g = rng.normal(size=(200, width))
    expected = [a.tobytes() for a in _pool_mean_chain(x, idx, seg, 200, g)]
    assert isinstance(autodiff._scatter_plan(seg, width), autodiff._Diagonals) == (width >= 64)
    for index, segments in ((idx, seg), (idx.copy(), seg.copy())):
        for _ in range(2):  # the second run reads the cached plans
            tx = Tensor(x)
            tape = Tape()
            out = tape.pool_mean(tx, index, segments, 200)
            _backward_with(tape, out, g)
            assert [out.data.tobytes(), tx.grad.tobytes()] == expected, width


@pytest.mark.parametrize("mean", [False, True])
def test_candidate_bce_equals_a_dense_product_reference_bitwise(mean):
    """The total, the query losses and both gradients equal a plain form:
    the dense product, the cells gathered from it, the clamped BCE summed
    cell by cell, and the cells' gradients added one by one into a dense
    matrix that the two gradient products read.  Row 3 pads the block."""
    rng = np.random.default_rng(41)
    table = Tensor(rng.normal(size=(7, 9)))
    trunks = Tensor(rng.normal(size=(4, 9)))
    trunks.data[3] = 0.0
    table.data[5] = 40.0 * trunks.data[0]  # query 0's negative 5 deep in the clamp
    table.data[6] = -40.0 * trunks.data[1]  # and query 1's twice-drawn negative 6
    # two gold tails, one also a negative; a repeated negative; three gold tails
    golds, negatives = [[4, 1], [2], [0, 3, 5]], [[4, 0, 5], [6, 6, 0], [1]]
    for tensor in (table, trunks):
        tensor.grad += rng.normal(size=tensor.shape)
    before = [table.grad.copy(), trunks.grad.copy()]
    tape = Tape()
    total, losses = tape.candidate_bce(trunks, table, golds, negatives, mean)
    assert len(tape) == 1
    tape.backward(total)

    cells = [(i, c, label) for i, (gold, neg) in enumerate(zip(golds, negatives))
             for c, label in [(c, 1.0) for c in gold] + [(c, 0.0) for c in neg]]
    rows, cols, labels = (np.array(column) for column in zip(*cells))
    p = autodiff._stable_sigmoid((trunks.data @ table.data.T)[rows, cols])
    clamped = (p <= 1e-12) | (p >= 1.0 - 1e-12)
    assert clamped.sum() >= 3
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    terms = -(labels * np.log(pc) + (1.0 - labels) * np.log1p(-pc))
    expected = []
    for i, (gold, neg) in enumerate(zip(golds, negatives)):
        acc = 0.0
        for term in terms[rows == i]:
            acc += term
        expected.append(acc * (1.0 / (len(gold) + len(neg)) if mean else 1.0))
    assert losses.tobytes() == np.array(expected).tobytes()
    assert total.data.tobytes() == np.float64(sum(expected)).tobytes()
    factors = np.array([1.0 / (len(g) + len(n)) if mean else 1.0 for g, n in zip(golds, negatives)])
    g = np.where(clamped, 0.0, p - labels) * factors[rows]
    dscores = np.zeros((4, 7))
    np.add.at(dscores, (rows, cols), g)
    assert not dscores[3].any()
    assert table.grad.tobytes() == (before[0] + dscores.T @ trunks.data).tobytes()
    assert trunks.grad.tobytes() == (before[1] + dscores @ table.data).tobytes()


def _circ_corr_sum_grads(x, table, src, rel, dst, n, g):
    tx, tt = Tensor(x), Tensor(table)
    tape = Tape()
    out = tape.circ_corr_sum(tx, tt, src, rel, dst, n)
    _backward_with(tape, out, g)
    return out.data, tx.grad, tt.grad


def _circ_corr_sum_loops(x, table, src, rel, dst, n, g):
    """Forward and both gradients of circ_corr_sum, one product at a time."""
    d = x.shape[1]
    out, grad_x, grad_table = np.zeros((n, d)), np.zeros(x.shape), np.zeros(table.shape)
    for i in range(len(rel)):
        b = table[rel[i]]
        for k in range(d):
            for j in range(d):
                out[dst[i], k] += x[src[i], j] * b[(k + j) % d]
                grad_x[src[i], j] += g[dst[i], k] * b[(k + j) % d]
                grad_table[rel[i], (k + j) % d] += x[src[i], j] * g[dst[i], k]
    return out, grad_x, grad_table


@pytest.mark.parametrize("d", [1, 2, 7, 64])
@pytest.mark.parametrize("rel", [
    [3, 3, 0, 1, 1, 1, 3, 2, 0, 3],  # unsorted, 3 and 0 recur in separate runs
    [2, 0, 1, 0, 2],  # every run one row
    [1],  # m = 1
])
def test_circ_corr_rows_matches_double_loop(d, rel):
    """circ_corr_sum, with recurring sources and destinations."""
    rng = np.random.default_rng(43 + d)
    m, n = len(rel), 3
    src, dst = rng.integers(0, 4, size=m), rng.integers(0, n, size=m)
    x, g = rng.normal(size=(5, d)), rng.normal(size=(n, d))
    table = rng.normal(size=(4, d))
    got = _circ_corr_sum_grads(x, table, src, rel, dst, n, g)
    for a, b in zip(got, _circ_corr_sum_loops(x, table, src, rel, dst, n, g)):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_circ_corr_rows_grad_check_through_recurring_ids():
    """circ_corr_sum's gradients, with ids recurring in every index."""
    rng = np.random.default_rng(47)
    params = {"x": Tensor(rng.normal(size=(4, 5))), "table": Tensor(rng.normal(size=(3, 5)))}
    weights = Tensor(rng.normal(size=(3, 5)))

    def build():
        tape = Tape()
        out = tape.circ_corr_sum(
            params["x"], params["table"],
            [1, 0, 3, 1, 2, 0, 1], [2, 0, 2, 2, 1, 0, 2], [0, 2, 2, 1, 0, 0, 2], 3,
        )
        return tape, _dot(tape, out, weights)

    assert grad_check(build, params.values()) < 1e-6


def test_circ_corr_rows_rejects_bad_ids():
    """circ_corr_sum checks the length and range of each index."""
    x, table = Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4)))
    ok = [0, 1, 2]
    with pytest.raises(ValueError):
        Tape().circ_corr_sum(x, table, ok, [0, 1], ok, 3)
    with pytest.raises(ValueError):
        Tape().circ_corr_sum(x, table, [0, 1], [0, 1, 1], ok, 3)
    with pytest.raises(IndexError):
        Tape().circ_corr_sum(x, table, ok, [0, 2, 1], ok, 3)
    with pytest.raises(IndexError):
        Tape().circ_corr_sum(x, table, ok, [0, -1, 1], ok, 3)
    with pytest.raises(IndexError):
        Tape().circ_corr_sum(x, table, [0, 3, 1], [0, 1, 1], ok, 3)
    with pytest.raises(IndexError):
        Tape().circ_corr_sum(x, table, ok, [0, 1, 1], [0, 1, 3], 3)


def _circ_corr_sum_reference(x, table, src, rel, dst, n, g):
    """Forward and gradients of circ_corr_sum in plain numpy: a gather, one
    np.dot per run of equal relation ids, and a per-column bincount."""
    d = x.shape[1]
    folds = (np.arange(d)[:, None] + np.arange(d)) % d
    bounds = np.append(np.flatnonzero(np.diff(rel, prepend=-1)), len(rel))
    a, g_rows = x[src], g[dst]
    phi, grad_a, blocks = np.empty(a.shape), np.empty(a.shape), []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        circulant = table[rel[lo]][folds]
        phi[lo:hi] = np.dot(a[lo:hi], circulant)
        grad_a[lo:hi] = np.dot(g_rows[lo:hi], circulant)
        blocks.append(np.dot(a[lo:hi].T, g_rows[lo:hi]))
    # the table gradient folds every run's block along its anti-diagonals
    cells = (np.asarray(rel)[bounds[:-1], None, None] * d + folds).ravel()
    grad_table = np.bincount(cells, weights=np.ravel(blocks), minlength=table.size)
    return (
        _per_column_bincount(dst, phi, n),
        _per_column_bincount(src, grad_a, x.shape[0]),
        grad_table.reshape(table.shape),
    )


@pytest.mark.parametrize("chunk_rows", [1, 40, 150, None])
def test_circ_corr_sum_equals_numpy_reference_bitwise(monkeypatch, chunk_rows):
    """Chunk by chunk, circ_corr_sum gives the bits of one gather, one
    product per run and one per-column sum, for read-only and writable
    indices; None leaves the whole edge list in one chunk."""
    d = 64
    if chunk_rows is not None:
        monkeypatch.setattr(autodiff, "_CHUNK_MIN_CELLS", chunk_rows * d)
    monkeypatch.setattr(autodiff, "_PLANS", {})
    rng = np.random.default_rng(59)
    # runs of 1 to 90 rows; relations recur in separate runs
    sizes = [90, 1, 35, 60, 2, 80, 45, 1, 70, 30]
    rel = np.repeat([3, 0, 1, 3, 2, 4, 0, 1, 2, 4], sizes)
    m, n_nodes, n = rel.size, 80, 60
    src, dst = rng.integers(0, n_nodes, size=m), rng.integers(0, n, size=m)
    dst[::6] = 7  # a hub segment in every chunk
    x, g = rng.normal(size=(n_nodes, d)), rng.normal(size=(n, d))
    x[::7] = -0.0  # a sum from +0.0 turns a lone -0.0 into +0.0
    g[::5] = -0.0
    table = rng.normal(size=(5, d))
    expected = [a.tobytes() for a in _circ_corr_sum_reference(x, table, src, rel, dst, n, g)]
    readonly = [src.copy(), rel.copy(), dst.copy()]
    for index in readonly:
        index.flags.writeable = False
    chunks = len(autodiff._chunk_plan(*readonly, d).chunks)
    assert chunks > 1 if chunk_rows is not None else chunks == 1
    for indices in (readonly, readonly, [src, rel, dst]):  # the second reads the cached plan
        got = _circ_corr_sum_grads(x, table, *indices, n, g)
        assert [a.tobytes() for a in got] == expected


def test_circ_corr_sum_keeps_no_plan_of_a_writable_or_mixed_edge_list(monkeypatch):
    """Only an all read-only (src, rel, dst) is kept; a mixed one sums its
    first chunk by the bincount, as a writable one does, and is planned
    afresh at every call with the same bits."""
    monkeypatch.setattr(autodiff, "_PLANS", {})
    rng = np.random.default_rng(61)
    d, n = 64, 600
    rel = np.repeat(np.arange(5), [700, 500, 900, 400, 500])
    src, dst = rng.integers(0, n, size=rel.size), rng.integers(0, n, size=rel.size)
    x, table, g = rng.normal(size=(n, d)), rng.normal(size=(5, d)), rng.normal(size=(n, d))
    readonly = [src.copy(), rel.copy(), dst.copy()]
    for index in readonly:
        index.flags.writeable = False
    chunks = autodiff._chunk_plan(*readonly, d).chunks
    assert len(chunks) > 1 and isinstance(chunks[0].dst_plan, autodiff._Diagonals)
    expected = [a.tobytes() for a in _circ_corr_sum_grads(x, table, *readonly, n, g)]
    assert len(autodiff._PLANS) == 1
    mixed = [readonly[0], rel, readonly[2]]
    first = autodiff._chunk_plan(*mixed, d).chunks[0]
    assert isinstance(first.src_plan, np.ndarray) and isinstance(first.dst_plan, np.ndarray)
    for indices in ([src, rel, dst], mixed):
        for _ in range(2):
            got = _circ_corr_sum_grads(x, table, *indices, n, g)
            assert [a.tobytes() for a in got] == expected
            assert len(autodiff._PLANS) == 1


def _trunk_chain_reference(s, r, filters, projection, rows, g):
    """The trunk as seven generic records made it (concat_cols, reshape,
    conv2d, relu, reshape, rows_affine, relu), in plain numpy: its values,
    and the s, r, filter and projection gradients of sum(out * g)."""
    q, d = s.shape
    f, k, _ = filters.shape
    h, w = 2 * rows, d // rows
    oh, ow = h - k + 1, w - k + 1
    images = np.concatenate([s, r], axis=1).reshape(q, h, w)
    patches = np.lib.stride_tricks.sliding_window_view(images, (k, k), axis=(1, 2))
    columns = patches.transpose(3, 4, 0, 1, 2).reshape(k * k, q * oh * ow)
    conv = np.dot(filters.reshape(f, k * k), columns).reshape(f, q, oh, ow).transpose(1, 0, 2, 3)
    conv = np.ascontiguousarray(conv)
    flat = np.maximum(conv, 0.0).reshape(q, f * oh * ow)
    projected = flat @ projection.T
    out = np.maximum(projected, 0.0)
    # the records' backwards, last first
    g = np.where(projected >= 0.0, g, 0.0)
    projection_grad = g.T @ flat
    g = np.where(conv >= 0.0, (g @ projection).reshape(q, f, oh, ow), 0.0)
    g = g.transpose(1, 0, 2, 3).reshape(f, q * oh * ow)
    filters_grad = np.dot(g, patches.reshape(q * oh * ow, k * k)).reshape(f, k, k)
    images_grad = np.zeros((q, h, w))
    for i in range(k):
        for j in range(k):
            images_grad[:, i : i + oh, j : j + ow] += np.dot(
                filters[:, i, j].reshape(1, f), g).reshape(q, oh, ow)
    images_grad = images_grad.reshape(q, 2 * d)
    s_grad, r_grad = np.zeros((q, d)), np.zeros((q, d))
    s_grad += images_grad[:, :d]
    r_grad += images_grad[:, d:]
    return out, s_grad, r_grad, filters_grad, projection_grad


@pytest.mark.parametrize("q", [1, 6, 64, 65])
def test_conv_trunk_equals_the_seven_record_chain_bitwise(q):
    """One record, with the values and gradients of the seven-record
    chain, in kept buffers of 64 rows (q <= 64) and in buffers grown for a
    larger recording batch (q = 65).
    Both calls run before either backward, so a record's kept arrays
    must outlive the next call's use of the buffers."""
    rng = np.random.default_rng(53)
    rows, d, f, k, p = 4, 24, 5, 3, 12
    filters = rng.normal(size=(f, k, k))
    projection = rng.normal(size=(p, f * (2 * rows - k + 1) * (d // rows - k + 1)))
    projection[0] = 0.0  # an exactly zero pre-activation takes the ReLU's >= 0 side
    calls = []
    for _ in range(2):
        s, r = rng.normal(size=(q, d)), rng.normal(size=(q, d))
        s[0] = r[0] = 0.0  # so does a zero image's conv map
        leaves = [Tensor(s), Tensor(r), Tensor(filters), Tensor(projection)]
        tape = Tape()
        out = tape.conv_trunk(*leaves, rows)
        assert len(tape) == 1
        calls.append((tape, out, leaves, rng.normal(size=(q, p))))
    for tape, out, leaves, g in calls:
        # a non-recording call reuses the buffers, yet gives the same bits
        assert Tape(record=False).conv_trunk(*leaves, rows).data.tobytes() == out.data.tobytes()
        _backward_with(tape, out, g)
        got = [out.data] + [leaf.grad for leaf in leaves]
        expected = _trunk_chain_reference(*(leaf.data for leaf in leaves), rows, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_reshape_round_trips_values_and_gradients():
    x = Tensor(np.arange(6.0))
    tape = Tape()
    y = tape.reshape(x, (2, -1))
    assert y.shape == (2, 3)
    _backward_with(tape, y, np.arange(6.0).reshape(2, 3) + 1.0)
    assert np.array_equal(x.grad, np.arange(6.0) + 1.0)
    with pytest.raises(ValueError):
        Tape().reshape(x, (4, 2))


# -- a record keeps only the arrays its backward reads ------------------------


def _unread_leaves() -> dict[str, Tensor]:
    rng = np.random.default_rng(21)
    shapes = {"a": (6, 4), "b": (6, 4), "rows": (2, 4), "w": (3, 4), "table": (3, 4),
              "logits": (6,), "weights": (6,), "filters": (3, 2, 2), "projection": (5, 9)}
    return {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}


SEGMENTS = [0, 0, 1, 1, 1, 2]
# op -> (the leaf it runs on, which of its arrays its backward does not
# read, the call).  An unread input is a fresh recorded copy of the leaf.
UNREAD = {
    "add": ("a", "input", lambda tape, x, p: tape.add(x, p["b"])),
    "add_n": ("a", "input", lambda tape, x, p: tape.add_n([x, p["b"], p["a"]])),
    "relu": ("a", "input", lambda tape, x, p: tape.relu(x)),
    "reshape": ("a", "input", lambda tape, x, p: tape.reshape(x, (4, 6))),
    "gather_rows": ("a", "input", lambda tape, x, p: tape.gather_rows(x, [0, 2, 2, 5])),
    "concat_cols": ("a", "input", lambda tape, x, p: tape.concat_cols(x, p["b"])),
    "add_rows": ("a", "input", lambda tape, x, p: tape.add_rows(x, [1, 4], p["rows"], 0.5)),
    "pool_mean": ("a", "input", lambda tape, x, p: tape.pool_mean(x, [5, 4, 3, 2, 1, 0], SEGMENTS, 3)),
    "segment_softmax": ("logits", "input", lambda tape, x, p: tape.segment_softmax(x, SEGMENTS, 3, 0.2)),
    "rows_affine": ("a", "output", lambda tape, x, p: tape.rows_affine(x, p["w"])),
    "pool_sum": ("a", "output",
                 lambda tape, x, p: tape.pool_sum(x, [5, 4, 3, 2, 1, 0], p["weights"], SEGMENTS, 3)),
    "circ_corr_sum": ("a", "output", lambda tape, x, p: tape.circ_corr_sum(
        x, p["table"], [0, 3, 5, 1], [0, 0, 2, 1], [1, 0, 1, 2], 3)),
    "conv_trunk": ("a", "output", lambda tape, x, p: tape.conv_trunk(
        x, p["b"], p["filters"], p["projection"], 2)),
}


@pytest.mark.parametrize("op", sorted(UNREAD))
def test_a_record_frees_the_values_its_backward_does_not_read(op):
    leaf, unread_part, call = UNREAD[op]

    def leaf_grads(drop: bool) -> list[bytes]:
        leaves = _unread_leaves()
        tape = Tape()
        x = leaves[leaf]
        if unread_part == "input":
            x = tape.add(x, Tensor(np.zeros(x.shape)))
        out = call(tape, x, leaves)
        unread = x if unread_part == "input" else out
        out.grad = np.random.default_rng(5).normal(size=out.shape)
        if drop:
            values = weakref.ref(unread.data)
            del x, out, unread
            assert values() is None, f"a {op} record keeps values its backward does not read"
        # out's gradient is seeded by hand: the loss is not on the tape
        tape.backward(Tensor(0.0))
        return [tensor.grad.tobytes() for tensor in leaves.values()]

    assert leaf_grads(drop=True) == leaf_grads(drop=False)


# every public op of the tape, on the leaves of _unread_leaves
FORWARD_ONLY = {
    **{op: lambda tape, p, leaf=leaf, call=call: call(tape, p[leaf], p)
       for op, (leaf, _, call) in UNREAD.items()},
    "candidate_bce": lambda tape, p: tape.candidate_bce(
        p["a"], p["b"], [[0, 3], [2]], [[1, 1], [5]], True)[0],
    "cross_entropy": lambda tape, p: tape.cross_entropy(p["a"], [0, 3, 1, 2, 2, 0]),
    "circ_corr": lambda tape, p: tape.circ_corr(p["logits"], p["weights"]),
}


@pytest.mark.parametrize("op", sorted(FORWARD_ONLY))
def test_a_non_recording_tape_gives_the_same_values_and_keeps_no_record(op):
    assert sorted(FORWARD_ONLY) == sorted(
        name for name in vars(Tape) if not name.startswith("_") and name != "backward")
    values = []
    for record in (True, False):
        tape = Tape(record=record)
        values.append(FORWARD_ONLY[op](tape, _unread_leaves()).data.tobytes())
    assert values[0] == values[1]
    assert tape._records == [] and len(tape) == 0
    with pytest.raises(ValueError, match="does not record"):
        tape.backward(Tensor(0.0))


def test_every_tape_op_has_a_model_caller():
    """A tape op exists because the package uses it: each public op but
    ``backward`` is called as ``tape.<op>(`` somewhere in eventke outside
    autodiff.py.  ``circ_corr`` is exempt: the acceptance suite imports it."""
    package = pathlib.Path(eventke.__file__).parent
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py")) if path.name != "autodiff.py"
    )
    ops = [name for name, _ in inspect.getmembers(Tape, inspect.isfunction)
           if not name.startswith("_") and name not in ("backward", "circ_corr")]
    assert "gather_rows" in ops
    unused = [op for op in ops if not re.search(rf"\btape\.{op}\(", source)]
    assert unused == []


def _user_statements() -> list[tuple[pathlib.Path, set, set]]:
    """(file, names it defines, names it uses) of every top-level statement
    in eventke, the acceptance suite, its ``_synth`` helpers and perfbench;
    a use is an AST name, attribute or import."""
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [
        *sorted(pathlib.Path(eventke.__file__).parent.glob("*.py")),
        root / "tests" / "test_acceptance.py",
        root / "tests" / "_synth.py",
        *sorted((root / "perfbench").glob("*.py")),
    ]
    statements = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = {getattr(node, "name", None)}
            defined |= {t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)}
            used = {
                n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
            }
            statements.append((path.resolve(), defined, used))
    return statements


def test_every_public_name_has_a_user():
    """A public name exists because something uses it: each name in the
    ``__all__`` of autodiff, layers and scoring is used outside its own
    top-level definition, in eventke, in the acceptance suite or its
    ``_synth`` helpers, or in perfbench."""
    statements = _user_statements()
    unused = []
    for module in (autodiff, layers, scoring):
        own = pathlib.Path(module.__file__).resolve()
        unused += [
            f"{module.__name__}.{name}" for name in module.__all__
            if not any(name in used and not (path == own and name in defined)
                       for path, defined, used in statements)
        ]
    assert unused == []


def test_every_public_tensor_member_has_a_user():
    """Each public method, property and slot of ``Tensor`` is used, by
    name, outside the ``Tensor`` class in the files the ``__all__`` guard
    reads."""
    own = pathlib.Path(autodiff.__file__).resolve()
    outside = [used for path, defined, used in _user_statements()
               if not (path == own and "Tensor" in defined)]
    members = [name for name in vars(Tensor) if not name.startswith("_")]
    assert {"data", "grad", "shape"} <= set(members)
    unused = [name for name in members if not any(name in used for used in outside)]
    assert unused == []
