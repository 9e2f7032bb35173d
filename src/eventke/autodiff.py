"""Dense-tensor forward ops with reverse-mode gradient accumulation.

Everything is 64-bit: the models here are small enough that reliable
gradient checks matter more than speed.  A ``Tape`` records forward ops
in order; ``Tape.backward`` replays them in strict reverse order, so a
node's gradient is fully accumulated before it propagates to its inputs,
and drops each record as it goes.

A record keeps only the arrays its backward reads.  A tensor's gradient
lives in a ``Sink`` apart from its values, and backward closures hold
sinks, never tensors, so an intermediate's values are freed as soon as
the forward code drops it unless a backward reads them.  A tape built
with ``record=False`` keeps no record: ranking, validation and the
probes' evaluation run on one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ParameterStore",
    "grad_check",
]


class Sink:
    """A tensor's gradient buffer, apart from its values.

    The buffer is allocated, zero-filled, on first read, so non-recording
    tapes and intermediates that no gradient reaches cost no array.
    """

    __slots__ = ("shape", "buffer")

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape
        self.buffer: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self.buffer is None:
            self.buffer = np.zeros(self.shape)
        return self.buffer

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self.buffer = value

    def add(self, value: np.ndarray) -> None:
        """``grad += value`` for a fresh ``value`` of the same shape that
        nothing else holds.

        A first contribution becomes the buffer itself, saving a zero fill
        and a pass.  It can differ from ``0 + value`` only in the sign of
        a zero entry, which no sum or product with a nonzero changes, and
        parameter buffers, refilled with +0 after every step, sum it away.
        """
        if self.buffer is None:
            self.buffer = np.asarray(value)
        else:
            self.buffer += value


class Tensor:
    """A rank <= 4 float64 array and the ``Sink`` of its gradient."""

    __slots__ = ("data", "sink")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > 4:
            raise ValueError(f"tensor rank {arr.ndim} exceeds 4")
        self.data = arr
        self.sink = Sink(arr.shape)

    @property
    def grad(self) -> np.ndarray:
        return self.sink.grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self.sink.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.sink.buffer is not None:
            self.sink.buffer[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _Diagonals(NamedTuple):
    """Jagged diagonals of an index: its segments, longest first, and for
    each k the rows of every segment's k-th member."""

    segments: np.ndarray  # segments with members, by member count descending, stable
    rows: list[np.ndarray]  # rows[k][s]: row of the k-th member of segments[s]


def _diagonals(index: np.ndarray, counts: np.ndarray) -> _Diagonals:
    """The diagonals of ``index``, whose segments have ``counts`` members."""
    segments = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    rank = np.empty(counts.size, dtype=np.intp)
    rank[segments] = np.arange(segments.size)
    # rows grouped by segment rank, each segment's members in index order
    by_segment = np.argsort(rank[index], kind="stable")
    sizes = counts[segments]
    member = np.arange(index.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # segments with more than k members are a prefix of ``segments``, so a
    # stable sort by member number lays out each diagonal in segment order
    flat = by_segment[np.argsort(member, kind="stable")]
    return _Diagonals(segments, np.split(flat, np.cumsum(np.bincount(member))[:-1]))


# Calibrated on (m, w) float64 rows, w in 1..192, one BLAS thread: a
# diagonal costs a Python-level gather and add, so it beats the flattened
# bincount only from about this many cells, and narrower rows lose at any
# length.
_DIAGONAL_MIN_CELLS = 4096
_DIAGONAL_MIN_WIDTH = 32

# Plans of read-only index arrays, keyed by the arrays' identities and the
# row width: a _scatter_plan per index and a _chunk_plan per circ_corr_sum
# (src, rel, dst).  An index that cannot change keeps its plans, so the
# fixed indices of a graph pay for them once; an entry holds its arrays,
# so their ids cannot be reused while it lives.  Writable indices, which
# may change, are planned on every call.
_PLANS: dict[tuple[int, ...], tuple[tuple[np.ndarray, ...], object]] = {}
_PLANS_MAX = 64


def _planned(build: Callable, *indices: np.ndarray, width: int):
    """``build(*indices, width)``, kept in _PLANS while every index is read-only."""
    if any(index.flags.writeable for index in indices):
        return build(*indices, width)
    key = (*map(id, indices), width)
    if key not in _PLANS:
        if len(_PLANS) >= _PLANS_MAX:
            _PLANS.pop(next(iter(_PLANS)))
        _PLANS[key] = (indices, build(*indices, width))
    return _PLANS[key][1]


def _bincount_cells(index: np.ndarray, width: int) -> np.ndarray:
    """cells[i * width + c] = index[i] * width + c, the flat cell of row i, column c."""
    return (index[:, None] * width + np.arange(width)).ravel()


def _scatter_plan(index: np.ndarray, width: int) -> _Diagonals | np.ndarray:
    """The way ``_scatter`` sums rows of ``width`` by ``index``."""
    if index.flags.writeable:
        return _bincount_cells(index, width)
    counts = np.bincount(index)
    # the longest segment sets the number of diagonals
    cells_per_diagonal = index.size * width / counts.max() if index.size else 0
    if width >= _DIAGONAL_MIN_WIDTH and cells_per_diagonal >= _DIAGONAL_MIN_CELLS:
        return _diagonals(index, counts)
    plan = _bincount_cells(index, width)
    plan.flags.writeable = False
    return plan


def _scatter(plan: _Diagonals | np.ndarray, rows: np.ndarray, n: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """out[j] = 0 + the sum of rows[i] over index[i] == j, in index order,
    for the index ``plan`` was made from; a given ``out`` (diagonals only)
    holds earlier rows' sums, which every cell continues in index order.

    Two layouts give the same bits.  The flattened bincount sums every
    (row, column) cell in one call, each cell's rows in index order, as
    one bincount per column would.  The jagged diagonals add whole rows
    instead: a buffer, one row per segment, takes the k-th member of every
    segment with more than k members, diagonal after diagonal, so each
    segment again adds its rows in index order from +0.0; the buffer then
    goes to its segments in the output.  A diagonal moves contiguous rows
    but costs a Python-level call, so read-only indices (which keep their
    plan) take the diagonals when a diagonal averages at least
    _DIAGONAL_MIN_CELLS cells of rows at least _DIAGONAL_MIN_WIDTH wide,
    and everything else the bincount: few long segments, narrow rows, and
    writable indices, which may change.
    """
    width = rows.shape[1]
    if isinstance(plan, np.ndarray):
        return np.bincount(plan, weights=rows.ravel(), minlength=n * width).reshape(n, width)
    if out is None:
        out = np.zeros((n, width))
    acc = out[plan.segments]
    for diagonal in plan.rows:
        acc[: diagonal.size] += rows[diagonal]
    out[plan.segments] = acc
    return out


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """out[j] = 0 + the sum of rows[i] over index[i] == j, in index order."""
    return _scatter(_planned(_scatter_plan, index, width=rows.shape[1]), rows, n)


# Calibrated on stage 4 of a 50k-edge graph, d = 64, one BLAS thread: chunks
# of 512 to 4096 rows took alike, 8192 rows 20% longer and one chunk 40%;
# a chunk of about a megabyte lives in reused memory, while an edge-sized
# array is faulted in afresh at every step.
_CHUNK_MIN_CELLS = 2048 * 64


class _Chunk(NamedTuple):
    """Whole runs of equal relation ids of a circ_corr_sum edge list."""

    runs: list[tuple[int, int, int]]  # (lo, hi, relation) of each run, in chunk rows
    src: np.ndarray  # the chunk's sources and destinations
    dst: np.ndarray
    # how the chunk's rows go into the sums, see _chunk_plan
    src_plan: _Diagonals | np.ndarray
    dst_plan: _Diagonals | np.ndarray


class _ChunkPlan(NamedTuple):
    chunks: list[_Chunk]
    run_rel: np.ndarray  # relation id of every run, in order


def _chunk_plan(src: np.ndarray, rel: np.ndarray, dst: np.ndarray, width: int) -> _ChunkPlan:
    """Split an edge list into chunks of whole runs of equal ``rel``; a chunk
    closes once it holds _CHUNK_MIN_CELLS cells of rows ``width`` wide.

    The first chunk's indices take their _scatter_plan if every index is
    read-only and the bincount otherwise; a later chunk's take their
    diagonals, which continue the sums of the chunks before it."""
    readonly = not (src.flags.writeable or rel.flags.writeable or dst.flags.writeable)
    bounds = np.append(np.flatnonzero(np.diff(rel, prepend=-1)), rel.size).tolist()
    run_rel = rel[bounds[:-1]]
    # cuts[c] is the first run of chunk c; the last cut closes the last chunk
    cuts = [0]
    for k in range(1, len(bounds) - 1):
        if (bounds[k] - bounds[cuts[-1]]) * width >= _CHUNK_MIN_CELLS:
            cuts.append(k)
    cuts.append(len(bounds) - 1)
    chunks: list[_Chunk] = []
    for first, last in zip(cuts[:-1], cuts[1:]):
        lo, hi = bounds[first], bounds[last]
        ends = src[lo:hi], dst[lo:hi]
        if chunks:
            plans = [_diagonals(index, np.bincount(index)) for index in ends]
        else:
            plans = [(_scatter_plan if readonly else _bincount_cells)(index, width) for index in ends]
        runs = [(bounds[k] - lo, bounds[k + 1] - lo, int(run_rel[k])) for k in range(first, last)]
        chunks.append(_Chunk(runs, *ends, *plans))
    return _ChunkPlan(chunks, run_rel)


def _doubled_windows(b: np.ndarray) -> np.ndarray:
    """(m, d, d) view with [i, k, j] = b[i, (k + j) % d]: windows over a
    doubled copy, without the d x d gather blowup."""
    d = b.shape[1]
    b_ext = np.concatenate([b, b[:, : d - 1]], axis=1)
    return np.lib.stride_tricks.sliding_window_view(b_ext, d, axis=1)


def _as_index(indices, n: int, what: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"{what} expects a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"{what} index out of range [0, {n})")
    return idx


def _pool_index(x: Tensor, indices, segments, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    if x.data.ndim != 2:
        raise ValueError(f"{what} expects a 2-D tensor")
    idx = _as_index(indices, x.data.shape[0], what)
    seg = _as_index(segments, n, what)
    if seg.shape != idx.shape:
        raise ValueError(f"{what} needs one segment id per gathered row")
    return idx, seg


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# _conv's (q, k, k, oh, ow) patch columns and (q, F, oh*ow) conv, which a
# forward-only product rectifies in place into its flat rows, kept between
# calls at the size of the largest image block so far (scoring's 64-image
# block, or a larger recording batch): allocated per ranking block, glibc
# gave these megabytes back to the system and faulted them in again.  The
# package starts no threads.
_TRUNK_BUFFERS: dict[str, np.ndarray] = {}


def _trunk_buffer(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous float64 view of ``shape`` on the kept buffer ``name``."""
    size = int(np.prod(shape))
    buffer = _TRUNK_BUFFERS.get(name)
    if buffer is None or buffer.size < size:
        buffer = _TRUNK_BUFFERS[name] = np.empty(size)
    return buffer[:size].reshape(shape)


def _conv(images: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """(q, F, oh*ow) valid, stride-1 cross-correlation of (q, h, w) images
    by (F, k, k) filters, in the kept conv buffer: one (F, k*k) @ (k*k,
    oh*ow) product per image, so a cell's bits depend only on its image."""
    (q, h, w), (f, k, _) = images.shape, filters.shape
    oh, ow = h - k + 1, w - k + 1
    # patches[n, y, x] is the k x k window at (y, x) of image n
    patches = np.lib.stride_tricks.sliding_window_view(images, (k, k), axis=(1, 2))
    columns = _trunk_buffer("columns", (q, k, k, oh, ow))
    columns[...] = patches.transpose(0, 3, 4, 1, 2)
    conv = _trunk_buffer("conv", (q, f, oh * ow))
    np.matmul(filters.reshape(f, k * k), columns.reshape(q, k * k, oh * ow), out=conv)
    return conv


class Tape:
    """Append-only record of forward ops, replayed in reverse for gradients.

    One training step owns one tape; ops are methods so every forward
    result is recorded.  A backward closure reads the output's sink and
    adds into the inputs' sinks; besides sinks it holds only the arrays,
    indices and shapes it reads.

    With ``record=False`` every op computes the same values but keeps no
    closure, so forward-only work holds no array for a backward;
    ``backward`` raises.
    """

    def __init__(self, record: bool = True) -> None:
        self._records: list[Callable[[], None]] = []
        self._recording = record

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, backward: Callable[[], None]) -> None:  # every op's one recording point
        if self._recording:
            self._records.append(backward)

    # -- linear algebra --------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """``add_n([a, b])``: a sum has one forward and one backward."""
        return self.add_n([a, b])

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
        sinks, gout = [x.sink for x in xs], out.sink

        def backward() -> None:
            for g in sinks:
                g.grad += gout.grad

        self._record(backward)
        return out

    # -- nonlinearities -------------------------------------------------

    def relu(self, x: Tensor) -> Tensor:
        out = Tensor(np.maximum(x.data, 0.0))
        # subgradient at 0 fixed to the positive side (1)
        mask = x.data >= 0.0
        gx, gout = x.sink, out.sink

        def backward() -> None:
            gx.add(np.where(mask, gout.grad, 0.0))

        self._record(backward)
        return out

    # -- circular correlation -------------------------------------------

    def circ_corr(self, a: Tensor, b: Tensor) -> Tensor:
        """Circular correlation of two vectors: out[k] = sum_i a[i] * b[(k + i) mod d].

        The one-edge case of ``circ_corr_sum``.
        """
        if a.data.shape != b.data.shape or a.data.ndim != 1:
            raise ValueError(f"circ_corr shape mismatch: {a.shape} vs {b.shape}")
        row = self.circ_corr_sum(
            self.reshape(a, (1, -1)), self.reshape(b, (1, -1)), [0], [0], [0], 1
        )
        return self.reshape(row, (-1,))

    def circ_corr_sum(self, x: Tensor, table: Tensor, src, rel, dst, n: int) -> Tensor:
        """out[j] = the sum of circ_corr(x[src[i]], table[rel[i]]) over edges
        i with dst[i] == j, in index order from +0.0; x (N, d), table (R, d),
        out (n, d).

        Correlating with a fixed b is a product with its circulant
        W[j, k] = b[(j + k) % d], which is symmetric, so every run of equal
        consecutive ids in ``rel`` is one product: forward x[src] @ W,
        x-gradient out.grad[dst] @ W, and table gradient
        x[src].T @ out.grad[dst] summed along its wrapped anti-diagonals
        (j + k) % d, one bincount for all runs.  Grouping equal ids makes
        the runs long and the products few.

        The edges go in chunks of whole runs (see _chunk_plan), so no array
        grows with the edge count; backward gathers a chunk's rows again
        instead of keeping them.  Each chunk adds its rows by its own plan
        (see _scatter): the first from +0.0, each later one continuing every
        cell's sum along its diagonals, so the bits do not depend on the
        chunking.  A run is never split: a row's product bits depend on its
        gemm batch.
        """
        if x.data.ndim != 2 or table.data.ndim != 2 or x.data.shape[1] != table.data.shape[1]:
            raise ValueError(f"circ_corr_sum shape mismatch: {x.shape} with table {table.shape}")
        n_rel, d = table.data.shape
        src = _as_index(src, x.data.shape[0], "circ_corr_sum")
        rel = _as_index(rel, n_rel, "circ_corr_sum")
        dst = _as_index(dst, n, "circ_corr_sum")
        if not src.size == rel.size == dst.size:
            raise ValueError("circ_corr_sum needs one source, relation and destination per edge")
        plan = _planned(_chunk_plan, src, rel, dst, width=d)
        x_data, table_data = x.data, table.data
        circulants = np.ascontiguousarray(_doubled_windows(table_data))
        sums = None
        for chunk in plan.chunks:
            a = x_data[chunk.src]
            phi = np.empty(a.shape)
            for lo, hi, r in chunk.runs:
                np.dot(a[lo:hi], circulants[r], out=phi[lo:hi])
            sums = _scatter(chunk.dst_plan, phi, n, sums)
        out = Tensor(sums)
        gx, gtable, gout = x.sink, table.sink, out.sink

        def backward() -> None:
            # the circulants again: a few hundred microseconds, against
            # R * d * d floats held from forward to backward
            circulants = np.ascontiguousarray(_doubled_windows(table_data))
            blocks = np.empty((plan.run_rel.size, d, d))
            grad_x = None
            k = 0
            for chunk in plan.chunks:
                g = gout.grad[chunk.dst]
                a = x_data[chunk.src]
                grad_a = np.empty(g.shape)
                for lo, hi, r in chunk.runs:
                    np.dot(g[lo:hi], circulants[r], out=grad_a[lo:hi])
                    np.dot(a[lo:hi].T, g[lo:hi], out=blocks[k])
                    k += 1
                grad_x = _scatter(chunk.src_plan, grad_a, x_data.shape[0], grad_x)
            gx.add(grad_x)
            folds = (np.arange(d)[:, None] + np.arange(d)) % d
            cells = (plan.run_rel[:, None, None] * d + folds).ravel()
            gtable.add(
                np.bincount(cells, weights=blocks.ravel(), minlength=n_rel * d).reshape(n_rel, d)
            )

        self._record(backward)
        return out

    # -- batched row ops -------------------------------------------------
    #
    # These keep whole node populations in single (m, d) tensors so a
    # full aggregation layer costs a fixed handful of records instead of
    # one per node.  Summation within a segment follows flattened index
    # order.  The pooling ops (gather, weight, segment sum) keep no gathered
    # rows: backward gathers them again and multiplies them in place.

    def gather_rows(self, table: Tensor, indices) -> Tensor:
        """out[i] = table[indices[i]]; backward scatter-adds into rows."""
        if table.data.ndim != 2:
            raise ValueError("gather_rows expects a 2-D table")
        n = table.data.shape[0]
        idx = _as_index(indices, n, "gather_rows")
        out = Tensor(table.data[idx])
        gtable, gout = table.sink, out.sink

        def backward() -> None:
            gtable.add(_scatter_rows(idx, gout.grad, n))

        self._record(backward)
        return out

    def rows_affine(self, x: Tensor, w: Tensor) -> Tensor:
        """Apply ``w`` (b, a) to every row of ``x`` (m, a): out = x @ w.T."""
        if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
            raise ValueError(f"rows_affine shape mismatch: {x.shape} with {w.shape}")
        x_data, w_data = x.data, w.data
        out = Tensor(x_data @ w_data.T)
        gx, gw, gout = x.sink, w.sink, out.sink

        def backward() -> None:
            gx.add(gout.grad @ w_data)
            gw.add(gout.grad.T @ x_data)

        self._record(backward)
        return out

    def concat_cols(self, *xs: Tensor) -> Tensor:
        if not xs:
            raise ValueError("concat_cols of zero tensors")
        if any(x.data.ndim != 2 or x.data.shape[0] != xs[0].data.shape[0] for x in xs):
            raise ValueError("concat_cols expects 2-D tensors with equal row counts")
        out = Tensor(np.concatenate([x.data for x in xs], axis=1))
        offsets = np.cumsum([0] + [x.data.shape[1] for x in xs])
        sinks, gout = [x.sink for x in xs], out.sink

        def backward() -> None:
            for g, lo, hi in zip(sinks, offsets[:-1], offsets[1:]):
                g.grad += gout.grad[:, lo:hi]

        self._record(backward)
        return out

    def pool_sum(self, x: Tensor, indices, weights: Tensor, segments, n: int) -> Tensor:
        """out[j] = the sum of weights[i] * x[indices[i]] over i with
        segments[i] == j, in index order from +0.0; empty segments are zero."""
        idx, seg = _pool_index(x, indices, segments, n, "pool_sum")
        if weights.data.shape != idx.shape:
            raise ValueError(f"pool_sum needs {idx.size} weights, got {weights.shape}")
        x_data, w_data = x.data, weights.data
        rows = x_data[idx]
        rows *= w_data[:, None]
        out = Tensor(_scatter_rows(seg, rows, n))
        gx, gw, gout = x.sink, weights.sink, out.sink

        def backward() -> None:
            g = gout.grad[seg]
            products = x_data[idx]
            products *= g
            gw.add(products.sum(axis=1))
            del products
            g *= w_data[:, None]
            gx.add(_scatter_rows(idx, g, x_data.shape[0]))

        self._record(backward)
        return out

    def pool_mean(self, x: Tensor, indices, segments, n: int) -> Tensor:
        """out[j] = the mean of x[indices[i]] over i with segments[i] == j;
        every segment must have a member."""
        idx, seg = _pool_index(x, indices, segments, n, "pool_mean")
        counts = np.bincount(seg, minlength=n).astype(np.float64)
        if not counts.all():
            raise ValueError("pool_mean over an empty segment")
        out = Tensor(_scatter_rows(seg, x.data[idx], n))
        out.data /= counts[:, None]
        rows_x = x.data.shape[0]
        gx, gout = x.sink, out.sink

        def backward() -> None:
            g = gout.grad[seg]
            g /= counts[seg, None]
            gx.add(_scatter_rows(idx, g, rows_x))

        self._record(backward)
        return out

    def segment_softmax(self, logits: Tensor, segments, n: int, slope: float) -> Tensor:
        """GAT attention: an independent softmax over each segment of a 1-D
        logit vector, LeakyReLU-rectified by ``slope`` first (subgradient 1
        at 0).  A slope of 1.0 rectifies nothing: the plain softmax."""
        if logits.data.ndim != 1:
            raise ValueError("segment_softmax expects a 1-D tensor")
        seg = _as_index(segments, n, "segment_softmax")
        if seg.shape[0] != logits.data.shape[0]:
            raise ValueError("segment_softmax needs one segment id per logit")
        if not np.bincount(seg, minlength=n).all():
            raise ValueError("segment_softmax over an empty segment")
        mask = logits.data >= 0.0
        rectified = np.where(mask, logits.data, slope * logits.data)
        maxes = np.full(n, -np.inf)
        np.maximum.at(maxes, seg, rectified)
        shifted = np.exp(rectified - maxes[seg])
        denom = np.bincount(seg, weights=shifted, minlength=n)
        s = shifted / denom[seg]
        out = Tensor(s)
        glogits, gout = logits.sink, out.sink

        def backward() -> None:
            dots = np.bincount(seg, weights=gout.grad * s, minlength=n)
            glogits.add(np.where(mask, 1.0, slope) * (s * (gout.grad - dots[seg])))

        self._record(backward)
        return out

    def add_rows(self, base: Tensor, indices, rows: Tensor, factor: float) -> Tensor:
        """Copy of ``base`` with ``factor * rows`` added at distinct ``indices``:
        out[indices] = base[indices] + rows * factor.

        Untouched rows keep their exact bit patterns, which is what makes
        skip-this-node-entirely identities hold without special cases.
        """
        if base.data.ndim != 2 or rows.data.ndim != 2:
            raise ValueError("add_rows expects 2-D tensors")
        idx = _as_index(indices, base.data.shape[0], "add_rows")
        if np.unique(idx).size != idx.size:
            raise ValueError("add_rows indices must be distinct")
        if rows.data.shape != (idx.size, base.data.shape[1]):
            raise ValueError(
                f"add_rows got {rows.shape} rows for {idx.size} slots of width {base.data.shape[1]}"
            )
        merged = base.data.copy()
        merged[idx] = base.data[idx] + rows.data * factor
        out = Tensor(merged)
        gbase, grows, gout = base.sink, rows.sink, out.sink

        def backward() -> None:
            gbase.add(gout.grad.copy())
            g = gout.grad[idx]
            g *= factor
            grows.add(g)

        self._record(backward)
        return out

    # -- reshaping and the convolutional trunk --------------------------

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        """The same values in another shape (numpy rules; one -1 allowed)."""
        out = Tensor(x.data.reshape(shape))
        x_shape = x.data.shape
        gx, gout = x.sink, out.sink

        def backward() -> None:
            gx.add(gout.grad.reshape(x_shape))

        self._record(backward)
        return out

    def conv_trunk(self, s: Tensor, r: Tensor, filters: Tensor, projection: Tensor,
                   rows: int) -> Tensor:
        """ConvE's trunk in one record: ReLU(flat @ projection.T), (q, p), where
        flat[i] flattens ReLU(conv) of image i, row i of ``s`` (q, d) folded
        into ``rows`` rows above row i of ``r`` folded alike, and ``filters``
        (F, k, k) cross-correlate, valid, stride 1.  The conv is computed per
        image, (q, F, oh*ow), which is flat's layout.  A record keeps the
        images, the two ReLU masks and flat rows of its own, not a buffer's.
        Forward-only trunks come from ``scoring.SplitTrunk`` instead.
        """
        filters_data, projection_data = filters.data, projection.data
        if s.data.ndim != 2 or s.data.shape != r.data.shape:
            raise ValueError(f"conv_trunk expects matching (q, d) rows, got {s.shape} and {r.shape}")
        (q, d), (f, k, kw) = s.data.shape, filters_data.shape
        h, w = 2 * rows, d // rows
        oh, ow = h - k + 1, w - k + 1
        if d % rows:
            raise ValueError(f"conv_trunk cannot fold rows of {d} into {rows} rows")
        if k != kw or oh < 1 or ow < 1:
            raise ValueError(f"conv_trunk needs a square kernel that fits the {h}x{w} image, got {k}x{kw}")
        images = np.concatenate((s.data, r.data), axis=1).reshape(q, h, w)
        conv = _conv(images, filters_data)
        flat = np.maximum(conv, 0.0).reshape(q, f * oh * ow)
        trunk = flat @ projection_data.T
        conv_mask, projected_mask = conv.transpose(1, 0, 2) >= 0.0, trunk >= 0.0
        out = Tensor(np.maximum(trunk, 0.0, out=trunk))
        gs, gr, gfilters, gprojection, gout = s.sink, r.sink, filters.sink, projection.sink, out.sink

        def backward() -> None:
            g = np.where(projected_mask, gout.grad, 0.0)
            gprojection.add(g.T @ flat)
            g = (g @ projection_data).reshape(q, f, oh * ow).transpose(1, 0, 2)
            g = np.where(conv_mask, g, 0.0).reshape(f, q * oh * ow)  # C-contiguous
            # a C-contiguous (q*oh*ow, k*k) patch matrix: a transposed view of
            # the columns would send np.dot down another summation order
            patches = np.lib.stride_tricks.sliding_window_view(images, (k, k), axis=(1, 2))
            gfilters.add(np.dot(g, patches.reshape(q * oh * ow, k * k)).reshape(f, k, k))
            grad = np.zeros((q, h, w))
            for i, j in np.ndindex(k, k):
                grad[:, i : i + oh, j : j + ow] += np.dot(
                    filters_data[:, i, j].reshape(1, f), g).reshape(q, oh, ow)
            grad = grad.reshape(q, 2, -1)  # the s half of each image above its r half
            gs.grad += grad[:, 0]
            gr.grad += grad[:, 1]

        self._record(backward)
        return out

    # -- losses ----------------------------------------------------------

    def candidate_bce(self, scores: Tensor, golds: list, negatives: list,
                      mean: bool) -> tuple[Tensor, np.ndarray]:
        """Binary cross-entropy of queries read at cells of their (q, n)
        1-N scores: query i reads row i at its golds[i], labelled 1, then
        its negatives[i], labelled 0 (a repeated draw counts twice), with
        probabilities clamped to [1e-12, 1-1e-12].  Its loss sums its cells
        in that order, divided by their count when ``mean``.  Returns the
        total, in one record, and the (q,) query losses.  Backward adds the
        cells' gradients into the dense (q, n) gradient of the scores.
        """
        if scores.data.ndim != 2:
            raise ValueError(f"candidate_bce expects (q, n) scores, got {scores.shape}")
        (b, n), q = scores.data.shape, len(golds)
        if len(negatives) != q or q != b or not q:
            raise ValueError(f"candidate_bce needs one gold and one negative list per score row,"
                             f" got {q} and {len(negatives)} for {b} rows")
        counts = np.array([(len(gold), len(neg)) for gold, neg in zip(golds, negatives)], np.intp)
        sizes = counts.sum(axis=1)
        if not sizes.all():
            raise ValueError(f"candidate_bce query {sizes.argmin()} has no candidates")
        rows = np.repeat(np.arange(q), sizes)
        labels = np.repeat(np.tile([1.0, 0.0], q), counts.ravel())
        cols = _as_index([c for gold, neg in zip(golds, negatives) for c in (*gold, *neg)],
                         n, "candidate_bce")
        factors = 1.0 / sizes if mean else np.ones(q)
        lo, hi = 1e-12, 1.0 - 1e-12
        p = _stable_sigmoid(scores.data[rows, cols])
        pc = np.clip(p, lo, hi)
        terms = -(labels * np.log(pc) + (1.0 - labels) * np.log1p(-pc))
        losses = np.bincount(rows, weights=terms, minlength=q) * factors
        out = Tensor(losses.sum())
        gscores, gout = scores.sink, out.sink

        def backward() -> None:
            # clamped terms are locally constant in the loss
            active = (p > lo) & (p < hi)
            g = np.where(active, p - labels, 0.0) * (factors * gout.grad)[rows]
            gscores.add(np.bincount(rows * n + cols, weights=g, minlength=q * n).reshape(q, n))

        self._record(backward)
        return out, losses

    def cross_entropy(self, logits: Tensor, label) -> Tensor:
        """Softmax cross-entropy of 1-D logits against one label, or the sum
        over the rows of (N, C) logits against N labels."""
        if logits.data.ndim not in (1, 2):
            raise ValueError("cross_entropy expects 1-D or 2-D logits")
        x = logits.data.reshape(-1, logits.data.shape[-1])
        labels = np.asarray(label, dtype=np.intp).reshape(-1)
        if labels.shape != (x.shape[0],):
            raise ValueError(f"cross_entropy needs {x.shape[0]} labels, got {labels.size}")
        k = x.shape[1]
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise IndexError(f"label out of range [0, {k})")
        rows = np.arange(x.shape[0])
        m = x.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
        out = Tensor((lse[:, 0] - x[rows, labels]).sum())
        shape = logits.data.shape
        glogits, gout = logits.sink, out.sink

        def backward() -> None:
            soft = np.exp(x - lse)
            soft[rows, labels] -= 1.0
            glogits.add((soft * gout.grad).reshape(shape))

        self._record(backward)
        return out

    # -- reverse pass ----------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and run all records in reverse order.

        Backward consumes the tape: each record is dropped once it has run,
        freeing the intermediates and gradients that only it held.  Tensors
        the caller holds keep their values and gradients.
        """
        if not self._recording:
            raise ValueError("backward on a tape that does not record")
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        while self._records:
            self._records.pop()()


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
