"""Ranking metrics for tail prediction and the two classification probes.

Ranks use the mid-rank tie policy: rank = 1 + #strictly-above + #ties/2.
Each report entry keeps its (head, relation, tail) query so that two
reports can be joined for before/after comparisons.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import ParameterStore, Tape, Tensor
from .kgdata import HeterogeneousGraph, KnowledgeTriple
from .layers import ModelConfig, forward_model
from .scoring import ConvScorerConfig, frozen_trunk
from .trainer import EarlyStopper, TrainConfig, adam_step

logger = logging.getLogger(__name__)

THREADS_ENV = "EVENTKE_THREADS"

# queries per frozen_trunk call in ranking: larger blocks gain no speed
# and hold more conv activations at once
EVAL_BLOCK = 64


def rank_of_gold(scores: np.ndarray, gold: int) -> float:
    """Mid-rank of the gold candidate: ties share their average position."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    if not 0 <= gold < scores.shape[0]:
        raise IndexError(f"gold index {gold} out of range for {scores.shape[0]} scores")
    s = scores[gold]
    above = int(np.sum(scores > s))
    ties = int(np.sum(scores == s)) - 1
    return 1.0 + above + ties / 2.0


@dataclass
class EvalProtocol:
    mode: str = "full"  # "full" or "sampled"
    k: int = 500
    seed: int = 0
    filtered: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("full", "sampled"):
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        if self.mode == "sampled" and self.k < 1:
            raise ValueError("sampled protocol needs k >= 1")


@dataclass
class RankingReport:
    protocol: str
    k: int | None
    seed: int | None
    mr: float
    mrr: float
    hits10: float
    hits20: float
    # one entry per query: (head, relation, tail, rank)
    ranks: list[tuple[int, int, int, float]] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "protocol": self.protocol,
            "K": self.k,
            "seed": self.seed,
            "mr": self.mr,
            "mrr": self.mrr,
            "hits10": self.hits10,
            "hits20": self.hits20,
            "ranks": [[h, r, t, rank] for h, r, t, rank in self.ranks],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RankingReport":
        doc = json.loads(text)
        return cls(
            protocol=doc["protocol"],
            k=doc["K"],
            seed=doc["seed"],
            mr=doc["mr"],
            mrr=doc["mrr"],
            hits10=doc["hits10"],
            hits20=doc["hits20"],
            ranks=[(int(h), int(r), int(t), float(x)) for h, r, t, x in doc["ranks"]],
        )


def aggregate_report(
    queries: list[KnowledgeTriple],
    ranks: list[float],
    protocol: str,
    k: int | None,
    seed: int | None,
) -> RankingReport:
    if len(queries) != len(ranks) or not ranks:
        raise ValueError("need one rank per query and at least one query")
    arr = np.array(ranks, dtype=np.float64)
    return RankingReport(
        protocol=protocol,
        k=k,
        seed=seed,
        mr=float(np.mean(arr)),
        mrr=float(np.mean(1.0 / arr)),
        hits10=float(np.mean(arr <= 10.0)),
        hits20=float(np.mean(arr <= 20.0)),
        ranks=[(h, r, t, float(x)) for (h, r, t), x in zip(queries, arr)],
    )


def frozen_entity_matrix(
    graph: HeterogeneousGraph, params: ParameterStore, config: ModelConfig
) -> np.ndarray:
    """Final-layer entity vectors as a plain (n, d) array, no gradients."""
    return forward_model(Tape(), graph, params, config).data.copy()


def _sampled_candidates(n_entities: int, k: int, seed: int, query: KnowledgeTriple) -> np.ndarray:
    h, r, t = query
    rng = np.random.default_rng(np.random.SeedSequence([seed, h, r, t]))
    allowed = np.delete(np.arange(n_entities), t)
    negatives = rng.choice(allowed, size=k, replace=False)
    return np.concatenate((negatives, [t]))


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    if raw.strip():
        return max(1, int(raw))
    return min(4, os.cpu_count() or 1)


def kg_completion_eval(
    graph: HeterogeneousGraph,
    params: ParameterStore,
    model_config: ModelConfig,
    scorer_config: ConvScorerConfig,
    test_triples: list[KnowledgeTriple],
    protocol: EvalProtocol,
    known_tails: dict[tuple[int, int], set[int]] | None = None,
) -> RankingReport:
    """Rank each gold tail against all entities or K sampled negatives.

    Trunk rows are computed for blocks of EVAL_BLOCK queries at a time,
    and blocks are scored independently (thread pool capped by the
    EVENTKE_THREADS environment variable); ranks are aggregated in query
    order, so the report never depends on completion order.
    """
    if not test_triples:
        raise ValueError("no test triples to evaluate")
    n = graph.entity_count
    if protocol.mode == "sampled" and protocol.k >= n:
        raise ValueError(
            f"sampled protocol needs K < entity vocabulary ({protocol.k} >= {n})"
        )
    if protocol.filtered and known_tails is None:
        raise ValueError("filtered ranking needs the known-tails index")
    entity_matrix = frozen_entity_matrix(graph, params, model_config)
    relation_rows = params["relation_embeddings"].data

    def rank_one(query: KnowledgeTriple, trunk: np.ndarray) -> float:
        h, r, t = query
        if protocol.mode == "full":
            candidates = np.arange(n)
            gold_pos = t
        else:
            candidates = _sampled_candidates(n, protocol.k, protocol.seed, query)
            gold_pos = candidates.shape[0] - 1
        if protocol.filtered:
            other_true = known_tails.get((h, r), set()) - {t}
            if other_true:
                keep = np.array([c == t or int(c) not in other_true for c in candidates])
                candidates = candidates[keep]
                gold_pos = int(np.nonzero(candidates == t)[0][-1])
        scores = entity_matrix[candidates] @ trunk
        return rank_of_gold(scores, gold_pos)

    def rank_block(start: int) -> list[float]:
        block = test_triples[start : start + EVAL_BLOCK]
        trunks = frozen_trunk(
            params, scorer_config,
            entity_matrix[[h for h, _, _ in block]], relation_rows[[r for _, r, _ in block]],
        )
        return [rank_one(query, trunk) for query, trunk in zip(block, trunks)]

    starts = range(0, len(test_triples), EVAL_BLOCK)
    threads = _thread_count()
    if threads == 1:
        blocks = [rank_block(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(rank_block, starts))
    ranks = [rank for block in blocks for rank in block]
    return aggregate_report(
        test_triples,
        ranks,
        protocol.mode,
        protocol.k if protocol.mode == "sampled" else None,
        protocol.seed if protocol.mode == "sampled" else None,
    )


def rank_diff(report_a: RankingReport, report_b: RankingReport) -> list[dict]:
    """Inner-join two reports on query; one row per shared query.

    Rows are sorted by improvement (rank_a - rank_b) descending, so the
    queries helped most by run B come first.
    """
    by_query_a = {(h, r, t): rank for h, r, t, rank in report_a.ranks}
    by_query_b = {(h, r, t): rank for h, r, t, rank in report_b.ranks}
    shared = [q for q in by_query_a if q in by_query_b]
    if not shared:
        raise ValueError("reports share no queries")
    rows = [
        {
            "query": list(q),
            "rank_a": by_query_a[q],
            "rank_b": by_query_b[q],
            "improvement": by_query_a[q] - by_query_b[q],
        }
        for q in shared
    ]
    rows.sort(key=lambda row: (-row["improvement"], tuple(row["query"])))
    return rows


# -- classification probes --------------------------------------------------


@dataclass
class HeadConfig:
    hidden: int | None = None  # None: match the entity dimension
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 10
    fine_tune: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.max_epochs, self.patience) < 1 or self.learning_rate <= 0:
            raise ValueError("head config fields must be positive")


Example = tuple[tuple[int, ...], int]  # (entity ids, class label)


@dataclass
class HeadResult:
    accuracy: float
    best_epoch: int
    hidden_width: int
    input_width: int


def _check_splits(splits: dict[str, list[Example]], n_classes: int) -> int:
    for name in ("train", "val", "test"):
        if not splits.get(name):
            raise ValueError(f"empty {name} split")
    arity = len(splits["train"][0][0])
    for name in ("train", "val", "test"):
        for ids, label in splits[name]:
            if len(ids) != arity:
                raise ValueError("all examples must use the same number of entities")
            if not 0 <= label < n_classes:
                raise ValueError(f"label {label} outside 0..{n_classes - 1}")
    train_labels = {label for _, label in splits["train"]}
    missing = sorted(
        {label for name in ("val", "test") for _, label in splits[name]} - train_labels
    )
    if missing:
        logger.warning("labels %s never appear in the training split", missing)
    return arity


def _head_params(input_width: int, hidden: int, n_classes: int, seed: int) -> ParameterStore:
    rng = np.random.default_rng([seed, 505])
    limit = np.sqrt(6.0 / (input_width + hidden))
    store = ParameterStore()
    store.add("head_hidden", rng.uniform(-limit, limit, size=(hidden, input_width)))
    # zero output weights: initial logits are class-symmetric, so training
    # is equivariant under any relabeling of the classes
    store.add("head_output", np.zeros((n_classes, hidden)))
    return store


def _head_logits(tape: Tape, head: ParameterStore, x: Tensor) -> Tensor:
    return tape.affine(head["head_output"], tape.relu(tape.affine(head["head_hidden"], x)))


def train_head_on_vectors(
    vectors: np.ndarray,
    splits: dict[str, list[Example]],
    n_classes: int,
    config: HeadConfig,
) -> HeadResult:
    """Train the probe on frozen vectors; returns best-validation accuracy on test."""
    fixed = Tensor(vectors)
    return _train_head(lambda tape: fixed, vectors.shape[1], None, splits, n_classes, config)


def _clone_params(store: ParameterStore) -> ParameterStore:
    out = ParameterStore()
    for name, tensor in store.items():
        out.add(name, tensor.data.copy())
    return out


def train_head_on_model(
    graph: HeterogeneousGraph,
    params: ParameterStore,
    model_config: ModelConfig,
    splits: dict[str, list[Example]],
    n_classes: int,
    config: HeadConfig,
) -> HeadResult:
    """Probe on the encoder's output vectors.

    With fine_tune off this reduces to the frozen-vector path.  With it
    on, the head and a private copy of the model train jointly; the
    caller's parameters are never mutated.
    """
    if not config.fine_tune:
        return train_head_on_vectors(
            frozen_entity_matrix(graph, params, model_config), splits, n_classes, config
        )
    model = _clone_params(params)
    return _train_head(
        lambda tape: forward_model(tape, graph, model, model_config),
        model_config.dim, model, splits, n_classes, config,
    )


def _train_head(
    encode: Callable[[Tape], Tensor],
    dim: int,
    model: ParameterStore | None,
    splits: dict[str, list[Example]],
    n_classes: int,
    config: HeadConfig,
) -> HeadResult:
    """The probe loop: ``encode`` gives the (n, dim) entity vectors on a tape.

    Each epoch takes one Adam step on the head, and on ``model`` when one
    is given, over the whole train split; the parameters of the best
    validation epoch are restored for the test accuracy.
    """
    arity = _check_splits(splits, n_classes)
    input_width = arity * dim
    hidden = config.hidden or dim
    head = _head_params(input_width, hidden, n_classes, config.seed)
    trained = [head] if model is None else [head, model]
    adam = TrainConfig(learning_rate=config.learning_rate)

    def logits(tape: Tape, vecs: Tensor, ids: tuple[int, ...]) -> Tensor:
        parts = [tape.lookup(vecs, i) for i in ids]
        x = parts[0] if arity == 1 else tape.concat(*parts)
        return _head_logits(tape, head, x)

    def split_loss(tape: Tape, examples: list[Example]) -> Tensor:
        vecs = encode(tape)
        return tape.add_n(
            [tape.cross_entropy(logits(tape, vecs, ids), label) for ids, label in examples]
        )

    stopper = EarlyStopper(config.patience)
    best: list[dict[str, np.ndarray]] = [{} for _ in trained]
    for epoch in range(1, config.max_epochs + 1):
        tape = Tape()
        tape.backward(split_loss(tape, splits["train"]))
        for store in trained:
            adam_step(store, adam, epoch)
        val = float(split_loss(Tape(), splits["val"]).data)
        improved = val < stopper.best
        stop = stopper.update(epoch, val)
        if improved:
            best = [{k: v.copy() for k, v in store.state_arrays().items()} for store in trained]
        if stop:
            break
    for store, arrays in zip(trained, best):
        store.load_state_arrays(arrays)

    tape = Tape()
    vecs = encode(tape)
    hits = sum(
        int(np.argmax(logits(tape, vecs, ids).data)) == label for ids, label in splits["test"]
    )
    return HeadResult(
        accuracy=hits / len(splits["test"]),
        best_epoch=stopper.best_epoch,
        hidden_width=hidden,
        input_width=input_width,
    )


def relation_examples(triples: list[KnowledgeTriple]) -> list[Example]:
    """Relation-typing instances: (head, tail) pair labeled by relation."""
    return [((h, t), r) for h, r, t in triples]
