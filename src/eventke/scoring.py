"""Convolutional triple scorer and the negative-sampling BCE objective.

A head/relation pair is scored against a tail by reshaping both vectors
to 2-D, stacking them, convolving, projecting back to d, and taking a
dot product with the tail embedding.  The trunk (everything before the
dot) depends only on (head, relation) and is shared across candidates.

``conv_trunk`` is the one implementation of the trunk, over a batch of
(head, relation) rows, as ConvE scores its queries.  Training runs it once
per step over the step's query groups and hands each group its row;
ranking runs it on a tape that is thrown away (``frozen_trunk``) over
blocks of queries; a single pair is the one-row case.
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

    @property
    def flat_width(self) -> int:
        oh = 2 * self.rows - self.kernel + 1
        ow = self.cols - self.kernel + 1
        return self.filters * oh * ow

    def __post_init__(self) -> None:
        if min(self.rows, self.cols, self.filters, self.kernel) < 1:
            raise ValueError("scorer shape fields must be positive")
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
    fan_in = config.flat_width
    limit = np.sqrt(6.0 / (fan_in + config.dim))
    store.add("conv_projection", rng.uniform(-limit, limit, size=(config.dim, fan_in)))


def conv_trunk(
    tape: Tape, params: ParameterStore, config: ConvScorerConfig, s: Tensor, r: Tensor
) -> Tensor:
    """(q, d) trunk rows ReLU(project(flatten(ReLU(conv(stack(reshape s, reshape r))))))
    of (q, d) head rows ``s`` and relation rows ``r``."""
    if s.data.ndim != 2 or s.data.shape != r.data.shape or s.data.shape[1] != config.dim:
        raise ValueError(
            f"scorer expects matching (q, {config.dim}) rows, got {s.shape} and {r.shape}"
        )
    q = s.data.shape[0]
    images = tape.reshape(tape.concat_cols(s, r), (q, 2 * config.rows, config.cols))
    conv = tape.relu(tape.conv2d(images, params["conv_filters"]))
    flat = tape.reshape(conv, (q, config.flat_width))
    return tape.relu(tape.rows_affine(flat, params["conv_projection"]))


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
    return tape.affine(candidates, tape.reshape(row, (-1,)))


def frozen_trunk(
    params: ParameterStore, config: ConvScorerConfig, s_rows: np.ndarray, r_rows: np.ndarray
) -> np.ndarray:
    """(q, d) trunk rows of plain (q, d) arrays, for evaluation: ``conv_trunk``
    on a tape that is thrown away."""
    return conv_trunk(Tape(), params, config, Tensor(s_rows), Tensor(r_rows)).data


def known_tails_from_triples(triples: list[KnowledgeTriple]) -> dict[tuple[int, int], set[int]]:
    out: dict[tuple[int, int], set[int]] = {}
    for h, r, t in triples:
        out.setdefault((h, r), set()).add(t)
    return out


class NegativeSampler:
    """Seeded corrupted-tail sampler; never returns the gold tail.

    With filtering on, no known-true tail for the query's (head, relation)
    is returned either.  Each (round, head, relation) triple derives its
    own child seed, so sampling is independent of query order.
    """

    def __init__(
        self,
        n_entities: int,
        k_neg: int,
        seed: int,
        known_tails: dict[tuple[int, int], set[int]] | None = None,
        filtered: bool = True,
    ) -> None:
        if k_neg < 0:
            raise ValueError("k_neg must be >= 0")
        self.n_entities = n_entities
        self.k_neg = k_neg
        self.seed = seed
        self.known_tails = known_tails or {}
        self.filtered = filtered

    def sample(self, h: int, r: int, gold_t: int, round_: int = 0) -> list[int]:
        return self._draw(h, r, {gold_t}, round_)

    def sample_group(self, h: int, r: int, gold_tails: list[int], round_: int = 0) -> list[int]:
        """Negatives for a grouped query; every gold tail is excluded."""
        return self._draw(h, r, set(gold_tails), round_)

    def _draw(self, h: int, r: int, excluded: set[int], round_: int) -> list[int]:
        if self.k_neg == 0:
            return []
        if self.filtered:
            excluded = excluded | self.known_tails.get((h, r), set())
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
    trunk: Tensor | None = None,
) -> Tensor:
    """Summed BCE over gold tails (label 1) and sampled tails (label 0).

    ``entity_vecs`` is the full (n, d) entity tensor.  The relation
    embedding is the original (non-augmented) relation row, shared with
    the aggregation layers.  ``trunk`` is the query's (d,) trunk row when
    the caller has computed it with the rows of other queries; without
    it the row is computed here, as a batch of one.
    """
    if not positives:
        raise ValueError(f"query ({h}, {r}) has no gold tails")
    if trunk is None:
        trunk = tape.reshape(query_trunks(tape, params, config, entity_vecs, [h], [r]), (-1,))
    candidates = tape.gather_rows(entity_vecs, np.array(positives + negatives, dtype=np.intp))
    scores = tape.affine(candidates, trunk)
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    loss = tape.bce_with_logits(scores, labels)
    if mean_reduction:
        loss = tape.scale(loss, 1.0 / labels.shape[0])
    return loss
