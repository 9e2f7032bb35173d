"""Convolutional triple scorer and the negative-sampling BCE objective.

A head/relation pair is scored against a tail by reshaping both vectors
to 2-D, stacking them, convolving, projecting back to d, and taking a
dot product with the tail embedding.  The trunk (everything before the
dot) depends only on (head, relation) and is shared across candidates.

``conv_trunk`` computes the trunks of a batch of (head, relation) rows in
one ``Tape.conv_trunk`` call, recorded once per training step over the
step's query groups; on a non-recording tape (ranking, validation) a row's
bits do not depend on the batch.  A single pair is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore, Tape, Tensor
from .kgdata import KnowledgeTriple

__all__ = [
    "ConvScorerConfig",
    "add_scorer_parameters",
    "conv_trunk",
    "query_trunks",
    "score_against_all",
    "frozen_trunk",
    "NegativeSampler",
    "known_tails_from_triples",
    "triple_loss",
]


@dataclass
class ConvScorerConfig:
    rows: int = 8
    cols: int = 8
    filters: int = 32
    kernel: int = 3

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "filters", "kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.kernel > min(2 * self.rows, self.cols):
            raise ValueError(
                f"kernel {self.kernel} does not fit the stacked {2 * self.rows}x{self.cols} image"
            )


def add_scorer_parameters(store: ParameterStore, config: ConvScorerConfig, seed: int) -> None:
    """Filters and projection, drawn from a stream independent of the layers'."""
    rng = np.random.default_rng([seed, 303])
    k, f = config.kernel, config.filters
    limit = np.sqrt(6.0 / (k * k + f))
    store.add("conv_filters", rng.uniform(-limit, limit, size=(f, k, k)))
    fan_in = f * (2 * config.rows - k + 1) * (config.cols - k + 1)  # the flattened conv maps
    limit = np.sqrt(6.0 / (fan_in + config.dim))
    store.add("conv_projection", rng.uniform(-limit, limit, size=(config.dim, fan_in)))


def conv_trunk(
    tape: Tape, params: ParameterStore, config: ConvScorerConfig, s: Tensor, r: Tensor
) -> Tensor:
    """(q, d) trunk rows ReLU(project(flatten(ReLU(conv(stack(reshape s, reshape r))))))
    of (q, d) head rows ``s`` and relation rows ``r``."""
    if s.shape[1:] != (config.dim,):
        raise ValueError(f"scorer expects (q, {config.dim}) rows, got {s.shape} and {r.shape}")
    return tape.conv_trunk(s, r, params["conv_filters"], params["conv_projection"], config.rows)


def query_trunks(
    tape: Tape,
    params: ParameterStore,
    config: ConvScorerConfig,
    entity_vecs: Tensor,
    heads: list[int],
    relations: list[int],
) -> Tensor:
    """(q, d) trunk rows of the queries (heads[i], relations[i])."""
    s = tape.gather_rows(entity_vecs, heads)
    r = tape.gather_rows(params["relation_embeddings"], relations)
    return conv_trunk(tape, params, config, s, r)


def score_against_all(
    tape: Tape,
    params: ParameterStore,
    config: ConvScorerConfig,
    s: Tensor,
    r: Tensor,
    candidates: Tensor,
) -> Tensor:
    """Scores of every row of the (m, d) candidate tensor against one (d,)
    head and relation pair: the trunk is computed once."""
    row = conv_trunk(tape, params, config, tape.reshape(s, (1, -1)), tape.reshape(r, (1, -1)))
    return tape.reshape(tape.rows_affine(candidates, row), (-1,))


def frozen_trunk(
    params: ParameterStore, config: ConvScorerConfig, s_rows: np.ndarray, r_rows: np.ndarray
) -> np.ndarray:
    """``conv_trunk``'s (q, d) rows of plain (q, d) arrays, for evaluation:
    the same call on a non-recording tape, whose rows do not depend on q."""
    return conv_trunk(Tape(record=False), params, config, Tensor(s_rows), Tensor(r_rows)).data


def known_tails_from_triples(triples: list[KnowledgeTriple]) -> dict[tuple[int, int], set[int]]:
    out: dict[tuple[int, int], set[int]] = {}
    for h, r, t in triples:
        out.setdefault((h, r), set()).add(t)
    return out


class NegativeSampler:
    """Seeded corrupted-tail sampler; never returns the gold tail or any
    known-true tail of the query's (head, relation).  Each (round, head,
    relation) triple derives its own child seed, so sampling is
    independent of query order.
    """

    def __init__(
        self,
        n_entities: int,
        k_neg: int,
        seed: int,
        known_tails: dict[tuple[int, int], set[int]] | None = None,
    ) -> None:
        if k_neg < 0:
            raise ValueError("k_neg must be >= 0")
        self.n_entities = n_entities
        self.k_neg = k_neg
        self.seed = seed
        self.known_tails = known_tails or {}

    def sample_group(self, h: int, r: int, gold_tails: list[int], round_: int = 0) -> list[int]:
        """Negatives for a grouped query; every gold tail is excluded."""
        if self.k_neg == 0:
            return []
        excluded = set(gold_tails) | self.known_tails.get((h, r), set())
        if self.n_entities - len(excluded) < 1:
            raise ValueError(
                f"no candidate negatives for query ({h}, {r}): all entities excluded"
            )
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, round_, h, r]))
        out: list[int] = []
        while len(out) < self.k_neg:
            draws = rng.integers(0, self.n_entities, size=self.k_neg - len(out))
            out.extend(int(x) for x in draws if int(x) not in excluded)
        return out


def triple_loss(
    tape: Tape,
    params: ParameterStore,
    config: ConvScorerConfig,
    entity_vecs: Tensor,
    h: int,
    r: int,
    positives: list[int],
    negatives: list[int],
    mean_reduction: bool = False,
    trunks: Tensor | None = None,
    row: int = 0,
) -> Tensor:
    """Summed BCE over gold tails (label 1) and sampled tails (label 0),
    one ``candidate_bce`` record; divided by the candidate count under
    ``mean_reduction``.

    ``entity_vecs`` is the full (n, d) entity tensor.  The relation
    embedding is the original (non-augmented) relation row, shared with
    the aggregation layers.  ``trunks`` holds the query's trunk at ``row``
    when the caller has computed it with the rows of other queries;
    without it the trunk is computed here, as a batch of one.
    """
    if not positives:
        raise ValueError(f"query ({h}, {r}) has no gold tails")
    if trunks is None:
        trunks, row = query_trunks(tape, params, config, entity_vecs, [h], [r]), 0
    candidates = positives + negatives
    factor = 1.0 / len(candidates) if mean_reduction else 1.0
    return tape.candidate_bce(trunks, row, entity_vecs, candidates, len(positives), factor)
