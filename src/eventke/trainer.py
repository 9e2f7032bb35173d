"""Adam training loop with early stopping and checkpoint persistence.

Queries are grouped by (head, relation); one optimizer step covers one
batch of groups.  Negative draws are keyed by (seed, round, head,
relation), so the loss of an epoch does not depend on iteration order.
The checkpoint captures the full training state at the end of the best
validation epoch, which makes resuming bitwise-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .autodiff import _TRUNK_BLOCK, ParameterStore, Tape, Tensor
from .kgdata import HeterogeneousGraph, KnowledgeTriple
from .layers import ModelConfig, forward_model, init_parameters, randomize_event_structure
from .scoring import (
    ConvScorerConfig,
    NegativeSampler,
    add_scorer_parameters,
    frozen_trunk,
    known_tails_from_triples,
    query_trunks,
    triple_loss,  # noqa: F401  perfbench's tracer patches it here
)

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"EVKE"
CHECKPOINT_VERSION = 1

# negative-sampling round reserved for validation; epochs use their index
VALIDATION_ROUND = 0


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    max_epochs: int = 200
    patience: int = 10
    batch_groups: int = 32
    k_neg: int = 64
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    mean_reduction: bool = False
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("learning_rate", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("max_epochs", "patience", "batch_groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("k_neg", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")


def adam_step(store: ParameterStore, config: TrainConfig, t: int) -> None:
    """One bias-corrected Adam update over every parameter; zeroes grads.

    Computed in place through two work buffers per parameter, with the
    same operations in the same order as the textbook form
    ``data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is
    bitwise the same.  Matrix rows whose gradient is all zero skip the
    ``+ (1 - beta) * g`` terms: with beta1 > 1/2 the decayed moments are
    never -0, so adding a zero leaves them unchanged.
    """
    if t < 1:
        raise ValueError("step index starts at 1")
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    for name, tensor in store.items():
        g = tensor.grad
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in parameter {name}")
        slots = store.slots(name)
        m, v, step, denom = slots["m"], slots["v"], *store.work_buffers(name)
        m *= config.beta1
        v *= config.beta2
        live = _live_rows(g) if config.beta1 > 0.5 else None
        if live is None:
            m += np.multiply(g, 1.0 - config.beta1, out=step)
            np.multiply(g, 1.0 - config.beta2, out=step)
            step *= g
            v += step
        else:
            g_live = g[live]
            m[live] += (1.0 - config.beta1) * g_live
            v[live] += (1.0 - config.beta2) * g_live * g_live
        np.divide(m, bc1, out=step)
        step *= config.learning_rate
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += config.eps
        step /= denom
        tensor.data -= step
    store.zero_grads()


def _live_rows(g: np.ndarray) -> np.ndarray | None:
    """Rows of a matrix gradient with a nonzero entry, when under half are."""
    if g.ndim != 2:
        return None
    live = np.flatnonzero(g.any(axis=1))
    return live if 2 * live.size < g.shape[0] else None


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int) -> None:
        self.patience = patience
        self.best = np.inf
        self.best_epoch: int | None = None
        self.bad_epochs = 0

    def update(self, epoch: int, loss: float) -> bool:
        """Record one epoch's validation loss; True means stop now."""
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def group_queries(triples: list[KnowledgeTriple]) -> list[tuple[int, int, list[int]]]:
    """(head, relation) -> gold tails, first-appearance order, tails deduped."""
    order: dict[tuple[int, int], list[int]] = {}
    for h, r, t in triples:
        tails = order.setdefault((h, r), [])
        if t not in tails:
            tails.append(t)
    return [(h, r, tails) for (h, r), tails in order.items()]


def _sampled_queries(groups: list[tuple[int, int, list[int]]], indices: Iterable[int],
                     sampler: NegativeSampler, round_: int) -> tuple[list, list, list, list]:
    """Heads, relations, gold tails and negatives of the groups in ``indices``."""
    heads, relations, golds = (list(column) for column in zip(*(groups[i] for i in indices)))
    return heads, relations, golds, [
        sampler.sample_group(h, r, tails, round_) for h, r, tails in zip(heads, relations, golds)]


def train_epoch(
    graph: HeterogeneousGraph,
    params: ParameterStore,
    model_config: ModelConfig,
    scorer_config: ConvScorerConfig,
    groups: list[tuple[int, int, list[int]]],
    sampler: NegativeSampler,
    train_config: TrainConfig,
    epoch: int,
    shuffle_rng: np.random.Generator,
    step_counter: list[int],
) -> float:
    """One pass over all groups; returns the mean per-query loss.

    The reported loss sums query losses in canonical group order, so it
    is independent of the shuffle.
    """
    n = len(groups)
    order = list(shuffle_rng.permutation(n)) if train_config.shuffle else list(range(n))
    loss_by_group: dict[int, float] = {}

    def step_losses(tape: Tape, batch: list[int]) -> tuple[Tensor, np.ndarray]:
        # the entity tensor is this call's local, not held across backward;
        # sampling after the forward keeps the draws out of its peak
        vecs = forward_model(tape, graph, params, model_config)
        heads, relations, golds, negatives = _sampled_queries(groups, batch, sampler, epoch)
        trunks = query_trunks(tape, params, scorer_config, vecs, heads, relations)
        return tape.candidate_bce(trunks, vecs, golds, negatives, train_config.mean_reduction)

    for start in range(0, n, train_config.batch_groups):
        batch = order[start : start + train_config.batch_groups]
        tape = Tape()
        total, losses = step_losses(tape, batch)
        tape.backward(total)
        step_counter[0] += 1
        adam_step(params, train_config, step_counter[0])
        loss_by_group.update(zip(batch, losses.tolist()))
    return sum(loss_by_group[i] for i in range(n)) / n


def evaluate_loss(
    graph: HeterogeneousGraph,
    params: ParameterStore,
    model_config: ModelConfig,
    scorer_config: ConvScorerConfig,
    groups: list[tuple[int, int, list[int]]],
    sampler: NegativeSampler,
    train_config: TrainConfig,
) -> float:
    """Mean per-query loss with the frozen validation sampling round.

    The trunks are ``frozen_trunk``'s, bit for bit ranking's, and each
    block of _TRUNK_BLOCK groups, the last one zero-padded, is scored by one
    non-recording ``candidate_bce`` against the entity matrix, as ranking
    scores its pairs: a group's loss does not depend on its block.
    """
    entity_matrix = forward_model(Tape(record=False), graph, params, model_config).data
    relation_rows = params["relation_embeddings"].data
    table, losses = Tensor(entity_matrix), []
    for start in range(0, len(groups), _TRUNK_BLOCK):
        block = range(start, min(start + _TRUNK_BLOCK, len(groups)))
        heads, relations, golds, negatives = _sampled_queries(
            groups, block, sampler, VALIDATION_ROUND)
        trunks = frozen_trunk(params, scorer_config, entity_matrix[heads], relation_rows[relations])
        padded = np.pad(trunks, ((0, _TRUNK_BLOCK - len(block)), (0, 0)))
        losses += Tape(record=False).candidate_bce(
            Tensor(padded), table, golds, negatives, train_config.mean_reduction)[1].tolist()
    return sum(losses) / len(groups)


@dataclass
class Checkpoint:
    model_config: ModelConfig
    scorer_config: ConvScorerConfig
    train_config: TrainConfig
    epoch: int
    best_val_loss: float
    adam_t: int
    shuffle_state: dict
    arrays: dict[str, np.ndarray]

    def restore_into(self, store: ParameterStore) -> None:
        store.load_state_arrays(self.arrays)


@dataclass
class FitResult:
    checkpoint: Checkpoint
    history: list[tuple[int, float, float]]  # (epoch, train loss, val loss)
    stopped_early: bool


def build_model(
    graph: HeterogeneousGraph,
    model_config: ModelConfig,
    scorer_config: ConvScorerConfig,
    init_table: dict[str, np.ndarray] | None = None,
) -> tuple[HeterogeneousGraph, ParameterStore]:
    """Apply ablation surgery, allocate parameters, attach the scorer."""
    if scorer_config.dim != model_config.dim:
        raise ValueError(
            f"scorer reshape {scorer_config.rows}x{scorer_config.cols} does not "
            f"match model dim {model_config.dim}"
        )
    used = graph
    if model_config.random_events:
        used = randomize_event_structure(graph, model_config.seed)
    store = init_parameters(used, model_config, init_table=init_table)
    add_scorer_parameters(store, scorer_config, model_config.seed)
    return used, store


def fit(
    graph: HeterogeneousGraph,
    params: ParameterStore,
    model_config: ModelConfig,
    scorer_config: ConvScorerConfig,
    train_triples: list[KnowledgeTriple],
    val_triples: list[KnowledgeTriple],
    train_config: TrainConfig,
    resume_from: Checkpoint | None = None,
) -> FitResult:
    """Train until max_epochs or until validation stalls for `patience` epochs.

    Returns the checkpoint captured at the end of the best validation
    epoch.  Resuming from that checkpoint replays the remaining epochs
    exactly as the uninterrupted run would have produced them.
    """
    if not train_triples:
        raise ValueError("empty train set")
    groups = group_queries(train_triples)
    val_groups = group_queries(val_triples) if val_triples else []
    if not val_groups:
        logger.warning("no validation triples: early stopping follows training loss")

    sampler = NegativeSampler(
        graph.entity_count,
        train_config.k_neg,
        seed=train_config.seed,
        known_tails=known_tails_from_triples(train_triples),
    )
    shuffle_rng = np.random.default_rng([train_config.seed, 404])
    stopper = EarlyStopper(train_config.patience)
    step_counter = [0]
    start_epoch = 1

    if resume_from is not None:
        resume_from.restore_into(params)
        shuffle_rng.bit_generator.state = resume_from.shuffle_state
        step_counter[0] = resume_from.adam_t
        start_epoch = resume_from.epoch + 1
        stopper.best = resume_from.best_val_loss
        stopper.best_epoch = resume_from.epoch

    def snapshot(epoch: int, val_loss: float) -> Checkpoint:
        return Checkpoint(
            model_config=model_config,
            scorer_config=scorer_config,
            train_config=train_config,
            epoch=epoch,
            best_val_loss=val_loss,
            adam_t=step_counter[0],
            shuffle_state=shuffle_rng.bit_generator.state,
            arrays={k: v.copy() for k, v in params.state_arrays().items()},
        )

    best: Checkpoint | None = None
    history: list[tuple[int, float, float]] = []
    stopped_early = False
    for epoch in range(start_epoch, train_config.max_epochs + 1):
        train_loss = train_epoch(
            graph, params, model_config, scorer_config,
            groups, sampler, train_config, epoch, shuffle_rng, step_counter,
        )
        if val_groups:
            val_loss = evaluate_loss(
                graph, params, model_config, scorer_config,
                val_groups, sampler, train_config,
            )
        else:
            val_loss = train_loss
        history.append((epoch, train_loss, val_loss))
        improved = val_loss < stopper.best
        stop = stopper.update(epoch, val_loss)
        if improved:
            best = snapshot(epoch, val_loss)
        if stop:
            stopped_early = True
            break
    if best is None:
        # resumed run that never improved on the loaded best
        assert resume_from is not None
        best = resume_from
    return FitResult(checkpoint=best, history=history, stopped_early=stopped_early)


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Versioned binary container; atomic write-temp-then-rename."""
    meta = {
        "model_config": dataclasses.asdict(checkpoint.model_config),
        "scorer_config": dataclasses.asdict(checkpoint.scorer_config),
        "train_config": dataclasses.asdict(checkpoint.train_config),
        "epoch": checkpoint.epoch,
        "best_val_loss": checkpoint.best_val_loss,
        "adam_t": checkpoint.adam_t,
        "shuffle_state": checkpoint.shuffle_state,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(checkpoint.arrays)))
        for name in sorted(checkpoint.arrays):
            arr = checkpoint.arrays[name]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    A short, corrupt or foreign file, or a tensor holding NaN or inf,
    raises one ValueError that names the file.
    """
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(fh, size: int) -> Checkpoint:
    def take(n: int, what: str) -> bytes:
        # checked against the file size first: a corrupt length must not
        # turn into a huge read
        if n > size - fh.tell():
            raise ValueError(f"checkpoint truncated in {what}")
        return fh.read(n)

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    if fh.read(4) != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    version = u32("its version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    blob = take(u32("its header length"), "its header")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(u32("its tensor count")):
        name = take(u32("a tensor name length"), "a tensor name").decode("utf-8")
        shape = tuple(u32(f"the shape of {name}") for _ in range(u32(f"the rank of {name}")))
        data = take(8 * math.prod(shape), f"the values of {name}")
        arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"tensor {name} holds non-finite values")
    if fh.read(1):
        raise ValueError("trailing bytes after the last tensor")
    try:
        meta = json.loads(blob.decode("utf-8"))
        # PCG64 checks the state's form here, not when a resume restores it
        np.random.PCG64().state = meta["shuffle_state"]
        return Checkpoint(
            model_config=ModelConfig(**meta["model_config"]),
            scorer_config=ConvScorerConfig(**meta["scorer_config"]),
            train_config=TrainConfig(**meta["train_config"]),
            epoch=meta["epoch"],
            best_val_loss=meta["best_val_loss"],
            adam_t=meta["adam_t"],
            shuffle_state=meta["shuffle_state"],
            arrays=arrays,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad checkpoint header: {exc!r}") from None

