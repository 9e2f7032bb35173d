"""Convolutional triple scorer and the negative-sampling BCE objective.

A head/relation pair is scored against a tail by reshaping both vectors
to 2-D, stacking them, convolving, projecting back to d, and taking a
dot product with the tail embedding.  The trunk (everything before the
dot) depends only on (head, relation) and is shared across candidates.

``conv_trunk`` computes the trunks of a batch of (head, relation) rows in
one ``Tape.conv_trunk`` record, once per training step over the step's
query groups, and one ``Tape.candidate_bce`` record scores them ConvE's
1-N way: one product of the trunks with the entity table, read at each
query's gold and sampled tails.  ``triple_loss`` is the one-query case.

Ranking and the validation loss compute the same trunks split in three
pieces (``SplitTrunk``): only the conv rows that read both halves of the
stacked image depend on the pair, so the head and relation pieces can be
computed once per entity and per relation row.  ``frozen_trunk`` is that
split form, and both score its rows with the same 1-N product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore, Tape, Tensor, _conv_product
from .kgdata import KnowledgeTriple

__all__ = [
    "ConvScorerConfig",
    "add_scorer_parameters",
    "conv_trunk",
    "query_trunks",
    "score_against_all",
    "SplitTrunk",
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


class SplitTrunk:
    """``conv_trunk``'s forward on plain arrays, as ReLU(H[s] + Q[r] + S(s, r)).

    Conv row y of the stacked 2*rows-row image reads image rows y .. y+k-1,
    so rows [0, a) read the head half alone, rows [b, oh) the relation half
    alone and the strip [a, b) both, with a = max(0, rows-k+1) and b =
    min(rows, oh).  Each conv cell is rectified on its own, so the trunk's
    projection splits by those rows: a piece is its rows' rectified conv
    times their projection columns, equal to the whole trunk's product up to
    rounding.  Each piece computes in zero-padded 64-row blocks
    (``autodiff._conv_product``), so its rows' bits depend only on their
    inputs, and ``combine`` adds the pieces in one fixed order.
    """

    def __init__(self, params: ParameterStore, config: ConvScorerConfig) -> None:
        k, rows = config.kernel, config.rows
        oh, ow = 2 * rows - k + 1, config.cols - k + 1
        a, b = max(0, rows - k + 1), min(rows, oh)
        projection = params["conv_projection"].data
        by_row = projection.reshape(len(projection), config.filters, oh, ow)
        self._config = config
        self._filters = params["conv_filters"].data
        # each piece's conv rows [lo, hi) and their projection columns
        self._pieces = {
            name: (lo, hi, by_row[:, :, lo:hi].reshape(len(projection), -1))
            for name, lo, hi in (("head", 0, a), ("strip", a, b), ("relation", b, oh))
        }

    def head(self, s_rows: np.ndarray) -> np.ndarray:
        """(q, d) H rows of (q, d) head rows: the head piece, if any, reads
        the whole head half."""
        return self._piece("head", self._fold(s_rows))

    def relation(self, r_rows: np.ndarray) -> np.ndarray:
        """(q, d) Q rows of (q, d) relation rows: the relation piece, if
        any, reads the whole relation half."""
        return self._piece("relation", self._fold(r_rows))

    def strip(self, s_rows: np.ndarray, r_rows: np.ndarray) -> np.ndarray:
        """(q, d) S rows of (q, d) head and relation rows: the strip reads
        image rows a .. b+k-2 of the stacked image."""
        lo, hi, _ = self._pieces["strip"]
        images = np.concatenate((self._fold(s_rows), self._fold(r_rows)), axis=1)
        return self._piece("strip", images[:, lo : hi + self._config.kernel - 1])

    @staticmethod
    def combine(head: np.ndarray, relation: np.ndarray, strip: np.ndarray) -> np.ndarray:
        """The trunk rows ReLU(head + relation + strip) of pairs' pieces,
        summed in that order."""
        trunk = head + relation
        trunk += strip
        return np.maximum(trunk, 0.0, out=trunk)

    def _fold(self, rows: np.ndarray) -> np.ndarray:
        return rows.reshape(len(rows), self._config.rows, self._config.cols)

    def _piece(self, name: str, images: np.ndarray) -> np.ndarray:
        """The piece ``name`` of the (q, ., cols) image rows its conv rows read."""
        lo, hi, projection = self._pieces[name]
        if lo == hi:  # no such conv row: a kernel of 1 has no strip, one of more than rows no halves
            return np.zeros((len(images), len(projection)))
        return _conv_product(images, self._filters, projection)


def frozen_trunk(
    params: ParameterStore, config: ConvScorerConfig, s_rows: np.ndarray, r_rows: np.ndarray
) -> np.ndarray:
    """``conv_trunk``'s (q, d) rows of plain (q, d) arrays, for evaluation,
    in ``SplitTrunk``'s form: equal to a taped trunk up to rounding, and a
    row's bits depend only on its inputs."""
    if s_rows.ndim != 2 or s_rows.shape != r_rows.shape or s_rows.shape[1] != config.dim:
        raise ValueError(
            f"frozen_trunk expects matching (q, {config.dim}) rows, got {s_rows.shape} and {r_rows.shape}"
        )
    split = SplitTrunk(params, config)
    return split.combine(split.head(s_rows), split.relation(r_rows), split.strip(s_rows, r_rows))


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
) -> Tensor:
    """Summed BCE over gold tails (label 1) and sampled tails (label 0),
    divided by the candidate count under ``mean_reduction``: the one-query
    case of a training step's loss, a ``candidate_bce`` record over the
    query's 1-N scores.

    ``entity_vecs`` is the full (n, d) entity tensor.  The relation
    embedding is the original (non-augmented) relation row, shared with
    the aggregation layers.
    """
    if not positives:
        raise ValueError(f"query ({h}, {r}) has no gold tails")
    trunks = query_trunks(tape, params, config, entity_vecs, [h], [r])
    return tape.candidate_bce(trunks, entity_vecs, [positives], [negatives], mean_reduction)[0]
