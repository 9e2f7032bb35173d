"""Dense-tensor forward ops with reverse-mode gradient accumulation.

Everything is 64-bit: the models here are small enough that reliable
gradient checks matter more than speed.  A ``Tape`` records forward ops
in order; ``Tape.backward`` replays them in strict reverse order, so a
node's gradient is fully accumulated before it propagates to its inputs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ParameterStore",
    "grad_check",
]


class Tensor:
    """A rank <= 4 float64 array with a gradient buffer of the same shape.

    The gradient buffer is allocated, zero-filled, on first access, so
    forward-only tapes and intermediates that no gradient reaches cost
    no second array.
    """

    __slots__ = ("data", "_grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > 4:
            raise ValueError(f"tensor rank {arr.ndim} exceeds 4")
        self.data = arr
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.data.shape)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def add_grad(self, value: np.ndarray) -> None:
        """``grad += value`` for a fresh ``value`` of the same shape that
        nothing else holds.

        A first contribution becomes the buffer itself, saving a zero fill
        and a pass.  It can differ from ``0 + value`` only in the sign of
        a zero entry, which no sum or product with a nonzero changes, and
        parameter buffers, refilled with +0 after every step, sum it away.
        """
        if self._grad is None:
            self._grad = np.asarray(value)
        else:
            self._grad += value

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# Flattened scatter cells of read-only index arrays, keyed by identity and
# width.  An index that cannot change keeps its cells, so the fixed index
# plans of a graph pay for them once; the entry holds the array itself,
# so its id cannot be reused while cached.
_CELLS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_CELLS_MAX = 64


def _scatter_cells(index: np.ndarray, width: int) -> np.ndarray:
    """cells[i * width + c] = index[i] * width + c, the flat cell of row i, column c."""
    if index.flags.writeable:
        return (index[:, None] * width + np.arange(width)).ravel()
    key = (id(index), width)
    hit = _CELLS.get(key)
    if hit is not None and hit[0] is index:
        return hit[1]
    cells = (index[:, None] * width + np.arange(width)).ravel()
    cells.flags.writeable = False
    if len(_CELLS) >= _CELLS_MAX:
        _CELLS.pop(next(iter(_CELLS)))
    _CELLS[key] = (index, cells)
    return cells


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """out[j] = 0 + the sum of rows[i] over index[i] == j, in index order.

    One bincount over the flattened (row, column) cells: each cell sums
    its rows in index order, exactly as one bincount per column would,
    so the result is bitwise the same at a fraction of the calls.
    """
    if rows.ndim == 1:
        return np.bincount(index, weights=rows, minlength=n)
    width = rows.shape[1]
    cells = _scatter_cells(index, width)
    return np.bincount(cells, weights=rows.ravel(), minlength=n * width).reshape(n, width)


def _doubled_windows(b: np.ndarray) -> np.ndarray:
    """(m, d, d) view with [i, k, j] = b[i, (k + j) % d]: windows over a
    doubled copy, without the d x d gather blowup."""
    d = b.shape[1]
    b_ext = np.concatenate([b, b[:, : d - 1]], axis=1)
    return np.lib.stride_tricks.sliding_window_view(b_ext, d, axis=1)


def _circ_corr_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("mkj,mj->mk", _doubled_windows(b), a)


# rows per block of _circ_corr_grad_b: its transposed windows stay in cache
_GRAD_B_BLOCK = 256


def _circ_corr_grad_b(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of circular correlation with respect to its second operand.

    out[i, t] = sum over k of a[i, (t + k + 1) % d] * g[i, d - 1 - k],
    summed k = 0, 1, .. in that order.  Written row-major, as
    einsum("mtk,mk->mt", windows of [a[:, 1:], a], g[:, ::-1]), the
    reversed operand sends numpy's einsum down its scalar loop: one
    dependent addition per product.  Here the windows are laid out with
    rows last, so the same einsum runs the same sums, in the same k
    order, vectorised across rows; the result is bitwise that of the
    row-major form.  Rows go in blocks that keep the transposed windows
    in cache, and never singly: einsum drops a size-1 axis and would
    then sum in another order.
    """
    m, d = a.shape
    if m < 2:
        a_ext = np.concatenate([a[:, 1:], a], axis=1)
        a_win = np.lib.stride_tricks.sliding_window_view(a_ext, d, axis=1)
        return np.einsum("mtk,mk->mt", a_win, g[:, ::-1])
    out = np.empty((m, d))
    starts = list(range(0, m, _GRAD_B_BLOCK))
    if len(starts) > 1 and m - starts[-1] < 2:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [m]):
        # a_t[s, i] = a[lo + i, (s + 1) % d]; window [t, k, i] = a_t[t + k, i]
        a_t = np.concatenate([a[lo:hi, 1:], a[lo:hi]], axis=1).T.copy()
        step, row = a_t.strides
        windows = np.ndarray((d, d, hi - lo), a_t.dtype, a_t, 0, (step, step, row))
        g_t = g[lo:hi, ::-1].T.copy()
        out[lo:hi] = np.einsum("tki,ki->ti", windows, g_t).T
    return out


def _as_index(indices, n: int, what: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"{what} expects a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"{what} index out of range [0, {n})")
    return idx


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Tape:
    """Append-only record of forward ops, replayed in reverse for gradients.

    One training step owns one tape; ops are methods so every forward
    result is recorded.  Backward closures read ``out.grad`` and add into
    the input tensors' ``grad`` buffers.
    """

    def __init__(self) -> None:
        self._records: list[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._records)

    # -- embedding / linear algebra -------------------------------------

    def lookup(self, table: Tensor, index: int) -> Tensor:
        """Fetch row ``index`` of a 2-D table; backward scatters into that row."""
        if table.data.ndim != 2:
            raise ValueError("lookup expects a 2-D table")
        n = table.data.shape[0]
        if not 0 <= index < n:
            raise IndexError(f"lookup index {index} out of range [0, {n})")
        out = Tensor(table.data[index])

        def backward() -> None:
            table.grad[index] += out.grad

        self._records.append(backward)
        return out

    def affine(self, w: Tensor, x: Tensor) -> Tensor:
        """Matrix-vector product ``w @ x`` (w: m x n, x: n)."""
        if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
            raise ValueError(f"affine shape mismatch: {w.shape} @ {x.shape}")
        out = Tensor(w.data @ x.data)

        def backward() -> None:
            g = out.grad
            # A row whose output gradient is zero (a ReLU-masked unit)
            # would add 0 * x, which changes no finite value of w.grad,
            # so only live rows are updated.
            live = np.flatnonzero(g)
            if live.size == g.size:
                w.grad += np.outer(g, x.data)
            elif live.size:
                w.grad[live] += np.outer(g[live], x.data)
            x.add_grad(w.data.T @ g)

        self._records.append(backward)
        return out

    def concat(self, *xs: Tensor) -> Tensor:
        if not xs:
            raise ValueError("concat of zero tensors")
        if any(x.data.ndim != 1 for x in xs):
            raise ValueError("concat expects 1-D tensors")
        out = Tensor(np.concatenate([x.data for x in xs]))
        offsets = np.cumsum([0] + [x.data.shape[0] for x in xs])

        def backward() -> None:
            for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
                x.grad += out.grad[lo:hi]

        self._records.append(backward)
        return out

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def backward() -> None:
            a.grad += out.grad
            b.grad += out.grad

        self._records.append(backward)
        return out

    def scale(self, x: Tensor, factor: float) -> Tensor:
        out = Tensor(x.data * factor)

        def backward() -> None:
            x.add_grad(factor * out.grad)

        self._records.append(backward)
        return out

    def add_n(self, xs: list[Tensor]) -> Tensor:
        """Sum of same-shape tensors in one record (left-to-right order)."""
        if not xs:
            raise ValueError("add_n of zero tensors")
        if any(x.data.shape != xs[0].data.shape for x in xs):
            raise ValueError("add_n shape mismatch")
        acc = xs[0].data.copy()
        for x in xs[1:]:
            acc += x.data
        out = Tensor(acc)

        def backward() -> None:
            for x in xs:
                x.grad += out.grad

        self._records.append(backward)
        return out

    def tensor_sum(self, x: Tensor) -> Tensor:
        out = Tensor(x.data.sum())

        def backward() -> None:
            x.grad += out.grad

        self._records.append(backward)
        return out

    # -- nonlinearities -------------------------------------------------

    def relu(self, x: Tensor) -> Tensor:
        out = Tensor(np.maximum(x.data, 0.0))
        # subgradient at 0 fixed to the positive side (1)
        mask = x.data >= 0.0

        def backward() -> None:
            x.add_grad(np.where(mask, out.grad, 0.0))

        self._records.append(backward)
        return out

    def leaky_relu(self, x: Tensor, slope: float) -> Tensor:
        out = Tensor(np.where(x.data >= 0.0, x.data, slope * x.data))
        mask = x.data >= 0.0

        def backward() -> None:
            x.add_grad(np.where(mask, 1.0, slope) * out.grad)

        self._records.append(backward)
        return out

    # -- circular correlation -------------------------------------------

    def circ_corr(self, a: Tensor, b: Tensor) -> Tensor:
        """Circular correlation of two vectors: out[k] = sum_i a[i] * b[(k + i) mod d].

        The one-row case of ``circ_corr_rows``.
        """
        if a.data.shape != b.data.shape or a.data.ndim != 1:
            raise ValueError(f"circ_corr shape mismatch: {a.shape} vs {b.shape}")
        row = self.circ_corr_rows(self.reshape(a, (1, -1)), self.reshape(b, (1, -1)))
        return self.reshape(row, (-1,))

    # -- batched row ops -------------------------------------------------
    #
    # These keep whole node populations in single (m, d) tensors so a
    # full aggregation layer costs a fixed handful of records instead of
    # one per node.  Summation within a segment follows flattened index
    # order.

    def gather_rows(self, table: Tensor, indices) -> Tensor:
        """out[i] = table[indices[i]]; backward scatter-adds into rows."""
        if table.data.ndim != 2:
            raise ValueError("gather_rows expects a 2-D table")
        idx = _as_index(indices, table.data.shape[0], "gather_rows")
        out = Tensor(table.data[idx])

        def backward() -> None:
            table.add_grad(_scatter_rows(idx, out.grad, table.data.shape[0]))

        self._records.append(backward)
        return out

    def rows_affine(self, x: Tensor, w: Tensor) -> Tensor:
        """Apply ``w`` (b, a) to every row of ``x`` (m, a): out = x @ w.T."""
        if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
            raise ValueError(f"rows_affine shape mismatch: {x.shape} with {w.shape}")
        out = Tensor(x.data @ w.data.T)

        def backward() -> None:
            x.add_grad(out.grad @ w.data)
            w.add_grad(out.grad.T @ x.data)

        self._records.append(backward)
        return out

    def concat_cols(self, *xs: Tensor) -> Tensor:
        if not xs:
            raise ValueError("concat_cols of zero tensors")
        if any(x.data.ndim != 2 or x.data.shape[0] != xs[0].data.shape[0] for x in xs):
            raise ValueError("concat_cols expects 2-D tensors with equal row counts")
        out = Tensor(np.concatenate([x.data for x in xs], axis=1))
        offsets = np.cumsum([0] + [x.data.shape[1] for x in xs])

        def backward() -> None:
            for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
                x.grad += out.grad[:, lo:hi]

        self._records.append(backward)
        return out

    def scale_rows(self, x: Tensor, weights: Tensor) -> Tensor:
        """out[i] = weights[i] * x[i] for a (m, d) tensor and (m,) weights."""
        if x.data.ndim != 2 or weights.data.shape != (x.data.shape[0],):
            raise ValueError(f"scale_rows shape mismatch: {x.shape} with {weights.shape}")
        out = Tensor(x.data * weights.data[:, None])

        def backward() -> None:
            x.add_grad(out.grad * weights.data[:, None])
            weights.add_grad((out.grad * x.data).sum(axis=1))

        self._records.append(backward)
        return out

    def segment_sum(self, x: Tensor, segments, n: int) -> Tensor:
        """Row sums by segment id; segments with no members come out zero."""
        if x.data.ndim != 2:
            raise ValueError("segment_sum expects a 2-D tensor")
        seg = _as_index(segments, n, "segment_sum")
        if seg.shape[0] != x.data.shape[0]:
            raise ValueError("segment_sum needs one segment id per row")
        out = Tensor(_scatter_rows(seg, x.data, n))

        def backward() -> None:
            x.add_grad(out.grad[seg])

        self._records.append(backward)
        return out

    def segment_mean(self, x: Tensor, segments, n: int) -> Tensor:
        """Row means by segment id; every segment must have a member."""
        if x.data.ndim != 2:
            raise ValueError("segment_mean expects a 2-D tensor")
        seg = _as_index(segments, n, "segment_mean")
        if seg.shape[0] != x.data.shape[0]:
            raise ValueError("segment_mean needs one segment id per row")
        counts = np.bincount(seg, minlength=n).astype(np.float64)
        if not counts.all():
            raise ValueError("segment_mean over an empty segment")
        out = Tensor(_scatter_rows(seg, x.data, n) / counts[:, None])

        def backward() -> None:
            x.add_grad(out.grad[seg] / counts[seg, None])

        self._records.append(backward)
        return out

    def segment_softmax(self, logits: Tensor, segments, n: int) -> Tensor:
        """Independent softmax over each segment of a 1-D logit vector."""
        if logits.data.ndim != 1:
            raise ValueError("segment_softmax expects a 1-D tensor")
        seg = _as_index(segments, n, "segment_softmax")
        if seg.shape[0] != logits.data.shape[0]:
            raise ValueError("segment_softmax needs one segment id per logit")
        if not np.bincount(seg, minlength=n).all():
            raise ValueError("segment_softmax over an empty segment")
        maxes = np.full(n, -np.inf)
        np.maximum.at(maxes, seg, logits.data)
        shifted = np.exp(logits.data - maxes[seg])
        denom = np.bincount(seg, weights=shifted, minlength=n)
        out = Tensor(shifted / denom[seg])

        def backward() -> None:
            s = out.data
            dots = np.bincount(seg, weights=out.grad * s, minlength=n)
            logits.add_grad(s * (out.grad - dots[seg]))

        self._records.append(backward)
        return out

    def replace_rows(self, base: Tensor, indices, rows: Tensor) -> Tensor:
        """Copy of ``base`` with ``rows`` written at distinct ``indices``.

        Untouched rows keep their exact bit patterns, which is what makes
        skip-this-node-entirely identities hold without special cases.
        """
        if base.data.ndim != 2 or rows.data.ndim != 2:
            raise ValueError("replace_rows expects 2-D tensors")
        idx = _as_index(indices, base.data.shape[0], "replace_rows")
        if np.unique(idx).size != idx.size:
            raise ValueError("replace_rows indices must be distinct")
        if rows.data.shape != (idx.size, base.data.shape[1]):
            raise ValueError(
                f"replace_rows got {rows.shape} rows for {idx.size} slots of width {base.data.shape[1]}"
            )
        merged = base.data.copy()
        merged[idx] = rows.data
        out = Tensor(merged)

        def backward() -> None:
            g = out.grad.copy()
            g[idx] = 0.0
            base.add_grad(g)
            rows.add_grad(out.grad[idx])

        self._records.append(backward)
        return out

    def circ_corr_rows(
        self, a: Tensor, b: Tensor, distinct: tuple[np.ndarray, np.ndarray] | None = None
    ) -> Tensor:
        """Row-wise circular correlation of two (m, d) tensors.

        ``distinct = (first, inverse)`` declares repeated row pairs:
        rows ``first`` hold every distinct (a, b) pair and row i equals
        row ``first[inverse[i]]`` in both tensors.  The forward pass then
        correlates each distinct pair once and copies it out; every row
        is computed on its own, so the result is bitwise the same.
        """
        if a.data.shape != b.data.shape or a.data.ndim != 2:
            raise ValueError(f"circ_corr_rows shape mismatch: {a.shape} vs {b.shape}")
        if distinct is None:
            out = Tensor(_circ_corr_forward(a.data, b.data))
        else:
            first, inverse = distinct
            out = Tensor(_circ_corr_forward(a.data[first], b.data[first])[inverse])

        def backward() -> None:
            g = out.grad
            a.add_grad(np.einsum("mkj,mk->mj", _doubled_windows(b.data), g))
            b.add_grad(_circ_corr_grad_b(a.data, g))

        self._records.append(backward)
        return out

    # -- reshaping and convolution --------------------------------------

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        """The same values in another shape (numpy rules; one -1 allowed)."""
        out = Tensor(x.data.reshape(shape))

        def backward() -> None:
            x.add_grad(out.grad.reshape(x.data.shape))

        self._records.append(backward)
        return out

    def conv2d(self, images: Tensor, filters: Tensor) -> Tensor:
        """Valid cross-correlation, stride 1, of each image in a batch.

        images (q, H, W), filters (F, k, k) -> (q, F, H - k + 1, W - k + 1).
        Each product is the one np.tensordot forms for the whole batch,
        called directly: the same operands, none of its per-call overhead.
        An image's outputs are bitwise those of a batch of one; the
        filter gradient sums over every image's patches in one product.
        """
        if images.data.ndim != 3 or filters.data.ndim != 3:
            raise ValueError("conv2d expects images (q, H, W) and filters (F, k, k)")
        q, h, w = images.data.shape
        f, kh, kw = filters.data.shape
        if kh != kw:
            raise ValueError("conv2d kernels must be square")
        if kh > h or kw > w:
            raise ValueError(f"kernel {kh}x{kw} does not fit image {h}x{w}")
        oh, ow = h - kh + 1, w - kw + 1
        # patches[n, y, x] is the k x k window at (y, x) of image n
        patches = np.lib.stride_tricks.sliding_window_view(images.data, (kh, kw), axis=(1, 2))
        flat_filters = filters.data.reshape(f, kh * kw)
        columns = patches.transpose(3, 4, 0, 1, 2).reshape(kh * kw, q * oh * ow)
        out = Tensor(
            np.dot(flat_filters, columns).reshape(f, q, oh, ow).transpose(1, 0, 2, 3)
        )

        def backward() -> None:
            g = out.grad.transpose(1, 0, 2, 3).reshape(f, q * oh * ow)
            # a C-contiguous (q*oh*ow, k*k) patch matrix: a transposed view
            # of ``columns`` would send np.dot down another summation order
            rows = patches.reshape(q * oh * ow, kh * kw)
            filters.add_grad(np.dot(g, rows).reshape(f, kh, kw))
            grad = images.grad
            for i in range(kh):
                for j in range(kw):
                    grad[:, i : i + oh, j : j + ow] += np.dot(
                        filters.data[:, i, j].reshape(1, f), g
                    ).reshape(q, oh, ow)

        self._records.append(backward)
        return out

    # -- losses ----------------------------------------------------------

    def bce_with_logits(self, scores: Tensor, labels: np.ndarray) -> Tensor:
        """Summed binary cross-entropy; probabilities clamped to [1e-12, 1-1e-12]."""
        if scores.data.ndim != 1 or labels.shape != scores.data.shape:
            raise ValueError("bce_with_logits expects matching 1-D scores and labels")
        lo, hi = 1e-12, 1.0 - 1e-12
        p = _stable_sigmoid(scores.data)
        pc = np.clip(p, lo, hi)
        out = Tensor(-(labels * np.log(pc) + (1.0 - labels) * np.log1p(-pc)).sum())

        def backward() -> None:
            # clamped terms are locally constant in the loss
            active = (p > lo) & (p < hi)
            scores.add_grad(np.where(active, p - labels, 0.0) * out.grad)

        self._records.append(backward)
        return out

    def cross_entropy(self, logits: Tensor, label: int) -> Tensor:
        if logits.data.ndim != 1:
            raise ValueError("cross_entropy expects 1-D logits")
        k = logits.data.shape[0]
        if not 0 <= label < k:
            raise IndexError(f"label {label} out of range [0, {k})")
        m = logits.data.max()
        lse = m + np.log(np.exp(logits.data - m).sum())
        out = Tensor(lse - logits.data[label])

        def backward() -> None:
            soft = np.exp(logits.data - lse)
            soft[label] -= 1.0
            logits.grad += soft * out.grad

        self._records.append(backward)
        return out

    # -- reverse pass ----------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and run all records in reverse order."""
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for record in reversed(self._records):
            record()


class ParameterStore:
    """Named trainable tensors plus their Adam moment slots."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._slots: dict[str, dict[str, np.ndarray]] = {}
        self._work: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor = Tensor(value)
        self._params[name] = tensor
        self._slots[name] = {
            "m": np.zeros_like(tensor.data),
            "v": np.zeros_like(tensor.data),
        }
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def slots(self, name: str) -> dict[str, np.ndarray]:
        return self._slots[name]

    def work_buffers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Two work arrays shaped like ``name``, kept for in-place updates."""
        work = self._work.get(name)
        if work is None:
            shape = self._params[name].data.shape
            work = self._work[name] = (np.empty(shape), np.empty(shape))
        return work

    def zero_grads(self) -> None:
        for tensor in self._params.values():
            tensor.zero_grad()

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All persistent arrays (values and optimizer slots) by stable name."""
        arrays: dict[str, np.ndarray] = {}
        for name, tensor in self._params.items():
            arrays[f"param/{name}"] = tensor.data
            arrays[f"adam_m/{name}"] = self._slots[name]["m"]
            arrays[f"adam_v/{name}"] = self._slots[name]["v"]
        return arrays

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore values and slots; refuses unknown names or mismatched shapes."""
        for name, tensor in self._params.items():
            for key, target in (
                (f"param/{name}", tensor.data),
                (f"adam_m/{name}", self._slots[name]["m"]),
                (f"adam_v/{name}", self._slots[name]["v"]),
            ):
                if key not in arrays:
                    raise ValueError(f"checkpoint missing tensor {key}")
                src = arrays[key]
                if src.shape != target.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: checkpoint {src.shape} vs model {target.shape}"
                    )
                target[...] = src
        known = set()
        for name in self._params:
            known.update({f"param/{name}", f"adam_m/{name}", f"adam_v/{name}"})
        extra = sorted(set(arrays) - known)
        if extra:
            raise ValueError(f"checkpoint has unknown tensors: {extra[:5]}")


def grad_check(
    build: Callable[[], tuple[Tape, Tensor]],
    params: Iterable[Tensor],
    step: float = 1e-5,
) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    ``build`` must construct a fresh tape and return ``(tape, loss)`` using
    the current parameter values; it is re-run for every perturbation.
    Relative error uses a ``max(|analytic|, |numeric|, 1e-8)`` denominator.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    tape, loss = build()
    if loss.data.shape != ():
        raise ValueError("grad_check requires a scalar loss")
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat_value = p.data.reshape(-1)
        flat_ana = ana.reshape(-1)
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + step
            f_plus = float(build()[1].data)
            flat_value[i] = orig - step
            f_minus = float(build()[1].data)
            flat_value[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(flat_ana[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(flat_ana[i] - numeric) / denom)
    return worst
