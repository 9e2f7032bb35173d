"""Ranking metrics for tail prediction and the two classification probes.

Ranking scores queries ConvE's 1-N way: one product scores a block of
distinct (head, relation) pairs against every entity, and one call then
ranks each query's gold tail within a copy of its pair's row (the whole
row, a sampled subset of it, or the row with the other known tails masked
out).  The pairs' trunks are ``scoring.SplitTrunk``'s: the head and
relation pieces are computed once per call for each head entity and every
relation row, and only the strip piece per block of pairs.

Ranks use the mid-rank tie policy: rank = 1 + #strictly-above + #ties/2.
Each report entry keeps its (head, relation, tail) query so that two
reports can be joined for before/after comparisons.
"""

from __future__ import annotations

import itertools
import json
import logging
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import _TRUNK_BLOCK, ParameterStore, Tape, Tensor
from .kgdata import HeterogeneousGraph, KnowledgeTriple, int_rows
from .layers import ModelConfig, forward_model
# frozen_trunk is ranking's trunk in one call; perfbench's tracer patches it here
from .scoring import ConvScorerConfig, SplitTrunk, frozen_trunk  # noqa: F401
from .trainer import EarlyStopper, TrainConfig, adam_step

logger = logging.getLogger(__name__)

# (head, relation) pairs per strip-piece call and (block, n) score product:
# one trunk block.  A product row's last bits depend on the product's row
# count, so a short last block is zero-padded to it.
EVAL_BLOCK = _TRUNK_BLOCK


def rank_of_gold(scores: np.ndarray, gold) -> float | np.ndarray:
    """Mid-rank of the gold candidate: 1 + #strictly-above + #ties/2.

    A vector and an int ``gold`` give a float; a (B, m) matrix and B gold
    columns give B ranks.  A NaN entry counts in neither term, so it masks
    its candidate out exactly as deleting it would.
    """
    scores = np.asarray(scores, dtype=np.float64)
    golds = np.asarray(gold)
    if scores.ndim not in (1, 2) or golds.shape != scores.shape[:-1]:
        raise ValueError("scores must be a vector, or a matrix with one gold index per row")
    m = scores.shape[-1]
    outside = (golds < 0) | (golds >= m)
    if outside.any():
        raise IndexError(f"gold index {golds[outside][0]} out of range for {m} scores")
    s = np.take_along_axis(scores, golds[..., None], axis=-1)
    above = np.count_nonzero(scores > s, axis=-1)
    ties = np.count_nonzero(scores == s, axis=-1) - 1
    ranks = 1.0 + above + ties / 2.0
    return float(ranks) if scores.ndim == 1 else ranks


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
        """Parse a report: integer ids >= 0, finite ranks >= 1, one rank per query
        (``eval`` lists a query once per copy of its triple in the split)."""
        doc = json.loads(text)
        ranks = {}
        for h, r, t, rank in doc["ranks"]:
            if not all(type(i) is int and i >= 0 for i in (h, r, t)):
                raise ValueError(f"query ids must be integers >= 0, got {[h, r, t]}")
            if type(rank) not in (int, float) or not 1 <= rank <= sys.float_info.max:
                raise ValueError(f"rank of query {[h, r, t]} must be a finite number >= 1")
            if ranks.setdefault((h, r, t), float(rank)) != rank:
                raise ValueError(f"query {[h, r, t]} is listed with two ranks")
        return cls(
            protocol=doc["protocol"],
            k=doc["K"],
            seed=doc["seed"],
            mr=doc["mr"],
            mrr=doc["mrr"],
            hits10=doc["hits10"],
            hits20=doc["hits20"],
            ranks=[(*query, rank) for query, rank in ranks.items()],
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
    """Final-layer entity vectors as a plain (n, d) array, no gradients: a
    forward on a non-recording tape, which holds no array for a backward."""
    return forward_model(Tape(record=False), graph, params, config).data


def _sampled_candidates(n_entities: int, k: int, seed: int, query: KnowledgeTriple) -> np.ndarray:
    h, r, t = query
    rng = np.random.default_rng(np.random.SeedSequence([seed, h, r, t]))
    # positions among the entities other than t; choosing from that array
    # would draw these same positions and index it
    picked = rng.choice(n_entities - 1, size=k, replace=False)
    return np.concatenate((picked + (picked >= t), [t]))


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

    A query's scores depend only on its (head, relation) pair, so each
    distinct pair is scored once, in blocks of EVAL_BLOCK pairs.  Its trunk
    row is ``frozen_trunk``'s, bit for bit: ``SplitTrunk``'s head piece of
    each entity that heads a pair and relation piece of every relation row,
    computed once per call, plus the strip piece of the block's pairs.  One
    product of the
    block's trunks, zero-padded to EVAL_BLOCK rows, with the entity matrix
    scores them (1-N scoring), so a query's ranks do not depend on which
    pairs share its block.  Each query ranks in a copy of its pair's row,
    with ``protocol.filtered`` its other ``known_tails`` set to NaN, by one
    ``rank_of_gold`` call per group of at most 2 * EVAL_BLOCK queries:
    within the row (full) or its sampled candidates (sampled).  A query id
    out of range, or a non-finite score, raises ValueError naming the first
    such query in split order.
    """
    if not test_triples:
        raise ValueError("no test triples to evaluate")
    n, n_relations = graph.entity_count, graph.relation_count
    if protocol.mode == "sampled" and protocol.k >= n:
        raise ValueError(
            f"sampled protocol needs K < entity vocabulary ({protocol.k} >= {n})"
        )
    if protocol.filtered and known_tails is None:
        raise ValueError("filtered ranking needs the known-tails index")
    queries = int_rows(test_triples, len(test_triples), 3)
    outside = (queries < 0) | (queries >= [n, n_relations, n])
    if outside.any():
        bad = int(np.argmax(outside.any(axis=1)))
        raise ValueError(
            f"query {bad} {tuple(test_triples[bad])} is out of range for "
            f"{n} entities and {n_relations} relations"
        )
    entity_matrix = frozen_entity_matrix(graph, params, model_config)
    relation_rows = params["relation_embeddings"].data
    # the distinct pairs in (head, relation) order, and each query's pair
    keys, pair_of = np.unique(queries[:, 0] * n_relations + queries[:, 1], return_inverse=True)
    pair_heads, pair_relations = np.divmod(keys, n_relations)
    # head pieces of the entities that head some pair: a short split on a
    # large graph would pay for every entity's otherwise
    heads, head_of = np.unique(pair_heads, return_inverse=True)
    split = SplitTrunk(params, scorer_config)
    head_pieces, relation_pieces = split.head(entity_matrix[heads]), split.relation(relation_rows)
    # the queries pair by pair, each pair's in split order; pair p's start at first[p]
    by_pair = np.argsort(pair_of, kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(pair_of))))
    finite = np.empty(len(keys), dtype=bool)
    ranks = np.empty(len(queries))

    def rank_group(scores: np.ndarray, group: np.ndarray) -> np.ndarray:
        golds = queries[group, 2]
        if protocol.filtered:
            # NaN takes each query's other known tails out of both rank counts
            tails = [known_tails.get((h, r), ()) for h, r, _ in queries[group].tolist()]
            rows = np.repeat(np.arange(len(group)), [len(known) for known in tails])
            cols = np.fromiter(itertools.chain.from_iterable(tails), np.intp, len(rows))
            other = cols != golds[rows]
            scores[rows[other], cols[other]] = np.nan
        if protocol.mode == "sampled":
            picks = [_sampled_candidates(n, protocol.k, protocol.seed, test_triples[i])
                     for i in group]
            scores = scores[np.arange(len(group))[:, None], np.stack(picks)]
            golds = np.full(len(group), protocol.k)  # the gold tail comes last
        return rank_of_gold(scores, golds)

    for start in range(0, len(keys), EVAL_BLOCK):
        block = slice(start, start + EVAL_BLOCK)
        size, relations = len(keys[block]), pair_relations[block]
        trunks = split.combine(
            head_pieces[head_of[block]], relation_pieces[relations],
            split.strip(entity_matrix[pair_heads[block]], relation_rows[relations]),
        )
        # 1-N scoring: every pair of the block against every entity in one product
        if size < EVAL_BLOCK:
            trunks = np.pad(trunks, ((0, EVAL_BLOCK - size), (0, 0)))
        scores = (trunks @ entity_matrix.T)[:size]
        finite[start : start + size] = np.isfinite(scores).all(axis=1)
        end = first[start + size]
        for lo in range(first[start], end, 2 * EVAL_BLOCK):
            group = by_pair[lo : min(lo + 2 * EVAL_BLOCK, end)]
            ranks[group] = rank_group(scores[pair_of[group] - start], group)
    if not finite.all():
        bad = int(np.argmin(finite[pair_of]))
        raise ValueError(f"query {bad} {tuple(test_triples[bad])} has non-finite scores")
    sampled = protocol.mode == "sampled"
    return aggregate_report(
        test_triples, ranks.tolist(), protocol.mode,
        protocol.k if sampled else None, protocol.seed if sampled else None,
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

    # per split: every example's entity ids, end to end, and the labels
    ids = {name: np.array([i for i, _ in ex], dtype=np.intp).ravel() for name, ex in splits.items()}
    labels = {name: np.array([label for _, label in ex]) for name, ex in splits.items()}

    def logits(tape: Tape, vecs: Tensor, split: str) -> Tensor:
        x = tape.reshape(tape.gather_rows(vecs, ids[split]), (len(labels[split]), input_width))
        x = tape.relu(tape.rows_affine(x, head["head_hidden"]))
        return tape.rows_affine(x, head["head_output"])

    def split_loss(tape: Tape, split: str) -> Tensor:
        return tape.cross_entropy(logits(tape, encode(tape), split), labels[split])

    stopper = EarlyStopper(config.patience)
    best: list[dict[str, np.ndarray]] = [{} for _ in trained]
    for epoch in range(1, config.max_epochs + 1):
        tape = Tape()
        tape.backward(split_loss(tape, "train"))
        for store in trained:
            adam_step(store, adam, epoch)
        val = float(split_loss(Tape(record=False), "val").data)
        improved = val < stopper.best
        stop = stopper.update(epoch, val)
        if improved:
            best = [{k: v.copy() for k, v in store.state_arrays().items()} for store in trained]
        if stop:
            break
    for store, arrays in zip(trained, best):
        store.load_state_arrays(arrays)

    tape = Tape(record=False)
    predicted = logits(tape, encode(tape), "test").data.argmax(axis=1)
    return HeadResult(
        accuracy=int((predicted == labels["test"]).sum()) / len(labels["test"]),
        best_epoch=stopper.best_epoch,
        hidden_width=hidden,
        input_width=input_width,
    )


def relation_examples(triples: list[KnowledgeTriple]) -> list[Example]:
    """Relation-typing instances: (head, tail) pair labeled by relation."""
    return [((h, t), r) for h, r, t in triples]
