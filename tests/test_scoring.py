from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from eventke import autodiff
from eventke.autodiff import ParameterStore, Tape, Tensor, grad_check
from eventke.evaluation import EvalProtocol, kg_completion_eval
from eventke.kgdata import split_dataset
from eventke.layers import ModelConfig
from eventke.scoring import (
    ConvScorerConfig,
    NegativeSampler,
    SplitTrunk,
    add_scorer_parameters,
    conv_trunk,
    frozen_trunk,
    known_tails_from_triples,
    score_against_all,
    triple_loss,
)
from eventke.trainer import TrainConfig, build_model, evaluate_loss, group_queries

from _synth import build_from_lines, dataset_lines


def _scorer(config: ConvScorerConfig, seed: int = 0) -> ParameterStore:
    store = ParameterStore()
    store.add("relation_embeddings", np.random.default_rng(seed).normal(size=(3, config.dim)))
    add_scorer_parameters(store, config, seed)
    return store


def test_config_kernel_fit():
    with pytest.raises(ValueError, match="kernel"):
        ConvScorerConfig(rows=1, cols=4, filters=1, kernel=3)
    ConvScorerConfig(rows=2, cols=4, filters=1, kernel=3)  # stacked image is 4x4


def test_score_zero_tail_is_zero():
    config = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)
    store = _scorer(config)
    tape = Tape()
    rng = np.random.default_rng(1)
    s, r = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    out = score_against_all(tape, store, config, s, r, Tensor(np.zeros((1, 4))))
    assert out.data[0] == 0.0


def test_score_all_zero_parameters_is_zero():
    config = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)
    store = _scorer(config)
    store["conv_filters"].data[...] = 0.0
    store["conv_projection"].data[...] = 0.0
    tape = Tape()
    out = score_against_all(
        tape, store, config, Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(np.ones((1, 4)))
    )
    assert out.data[0] == 0.0


def test_conv_score_straight_line_oracle():
    # d=4 as 2x2, one 1x1 unit kernel: conv is the identity on the stacked
    # image, and a projection that picks the first 4 flattened values reads
    # back relu(s).  Score is then relu(s) . t.
    config = ConvScorerConfig(rows=2, cols=2, filters=1, kernel=1)
    store = _scorer(config)
    store["conv_filters"].data[...] = 1.0
    proj = np.zeros((4, 8))
    proj[np.arange(4), np.arange(4)] = 1.0
    store["conv_projection"].data[...] = proj

    s = np.array([1.0, -2.0, 3.0, -4.0])
    r = np.array([5.0, -6.0, 7.0, -8.0])
    t = np.array([1.0, 1.0, 1.0, 1.0])
    out = score_against_all(Tape(), store, config, Tensor(s), Tensor(r), Tensor(t[None, :]))
    assert out.data[0] == np.maximum(s, 0.0) @ t == 4.0


def test_score_against_all_matches_loop():
    config = ConvScorerConfig(rows=2, cols=4, filters=3, kernel=2)
    store = _scorer(config)
    rng = np.random.default_rng(3)
    s, r = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
    cands = rng.normal(size=(5, 8))

    batched = score_against_all(Tape(), store, config, s, r, Tensor(cands))
    trunk = conv_trunk(Tape(), store, config, Tensor(s.data[None, :]), Tensor(r.data[None, :]))
    singles = [float(np.dot(trunk.data[0], row)) for row in cands]
    assert np.max(np.abs(batched.data - np.array(singles))) <= 1e-12

    one = score_against_all(Tape(), store, config, s, r, Tensor(cands[:1]))
    assert one.data[0] == batched.data[0]

    dup = score_against_all(Tape(), store, config, s, r, Tensor(cands[[0, 0]]))
    assert dup.data[0] == dup.data[1]


def test_frozen_trunk_matches_taped():
    config = ConvScorerConfig()  # the README's scorer: 8x8, 32 filters, kernel 3
    store = _scorer(config)
    rng = np.random.default_rng(4)
    s, r = rng.normal(size=(200, 64)), rng.normal(size=(200, 64))
    frozen = frozen_trunk(store, config, s, r)
    assert frozen.shape == (200, 64)
    for i in range(0, 200, 20):
        taped = conv_trunk(Tape(), store, config, Tensor(s[i : i + 1]), Tensor(r[i : i + 1]))
        assert np.max(np.abs(frozen[i] - taped.data[0])) <= 1e-12
    # a forward-only row has the same bytes in a call of any size, at any
    # position and with any companions, also while the reused buffers are
    # filled by calls of other sizes
    kept = frozen.copy()
    for q in (1, 5, 63, 64, 65, 130):
        for rows in (np.arange(q), np.arange(200 - q, 200), rng.permutation(200)[:q]):
            got = frozen_trunk(store, config, s[rows], r[rows])
            assert [row.tobytes() for row in got] == [frozen[i].tobytes() for i in rows], q
    # the result is not a view of the buffers
    assert frozen.tobytes() == kept.tobytes()


@pytest.mark.parametrize(
    "config, empty",
    [
        (ConvScorerConfig(kernel=1), "strip"),  # no conv row reads both halves
        (ConvScorerConfig(rows=2, cols=4, kernel=3), "head relation"),  # every one does
    ],
    ids=["kernel_1", "strip_only"],
)
def test_split_trunk_with_empty_pieces_is_a_recorded_trunk_up_to_rounding(config, empty):
    """test_frozen_trunk_matches_taped at shapes where a piece has no conv
    row; at README shapes every piece has some (6 head, 2 strip and 6
    relation rows)."""
    store = _scorer(config)
    rng = np.random.default_rng(9)
    s, r = rng.normal(size=(130, config.dim)), rng.normal(size=(130, config.dim))
    split = SplitTrunk(store, config)
    pieces = {"head": split.head(s), "relation": split.relation(r), "strip": split.strip(s, r)}
    assert sorted(name for name, rows in pieces.items() if not rows.any()) == empty.split()
    frozen = frozen_trunk(store, config, s, r)
    recorded = conv_trunk(Tape(), store, config, Tensor(s), Tensor(r)).data
    assert np.max(np.abs(frozen - recorded)) <= 1e-12
    # a row has the same bytes in a call of any size, at any position and
    # with any companions
    for q in (1, 5, 63, 64, 65, 130):
        for rows in (np.arange(q), np.arange(130 - q, 130), rng.permutation(130)[:q]):
            got = frozen_trunk(store, config, s[rows], r[rows])
            assert [row.tobytes() for row in got] == [frozen[i].tobytes() for i in rows], q


def test_frozen_trunk_keeps_its_buffers_between_calls(monkeypatch):
    """Ranking's pieces compute in the kept buffers, sized for the largest
    piece's 64-row block, and a frozen_trunk call between two rankings
    neither replaces nor grows them."""
    # fresh buffers, so only the calls below can have made them
    monkeypatch.setattr(autodiff, "_TRUNK_BUFFERS", {})
    config = ConvScorerConfig(rows=2, cols=4, filters=3, kernel=2)
    model = ModelConfig(dim=config.dim, num_layers=1, seed=1)
    lines = dataset_lines(
        n_entities=12, n_relations=3, n_triples=20, n_events=3,
        min_args=2, max_args=3, n_temporal=2, seed=5,
    )
    graph, store = build_model(build_from_lines(*lines), model, config)

    def buffers():
        return [autodiff._TRUNK_BUFFERS[name] for name in ("columns", "conv")]

    kg_completion_eval(graph, store, model, config, graph.triples, EvalProtocol())
    held = buffers()
    # each piece is one of the 4x4 image's 3 conv rows: columns 64*k*k*1*ow
    # and conv 64*F*1*ow, with k = 2 and ow = 3
    assert [buffer.size for buffer in held] == [64 * 4 * 3, 64 * 3 * 3]
    rng = np.random.default_rng(5)
    frozen_trunk(store, config, rng.normal(size=(4, 8)), rng.normal(size=(4, 8)))
    kg_completion_eval(graph, store, model, config, graph.triples, EvalProtocol())
    assert all(now is before for now, before in zip(buffers(), held))


def test_evaluate_loss_leaves_the_trunk_buffers_at_their_64_row_size(monkeypatch):
    """A forward-only trunk batch of more than 64 rows computes one 64-row
    block at a time in the kept buffers, which do not grow."""
    monkeypatch.setattr(autodiff, "_TRUNK_BUFFERS", {})
    config = ConvScorerConfig(rows=2, cols=4, filters=3, kernel=2)
    model = ModelConfig(dim=config.dim, num_layers=1, seed=1)
    lines = dataset_lines(
        n_entities=40, n_relations=3, n_triples=200, n_events=3,
        min_args=2, max_args=3, n_temporal=2, seed=5,
    )
    graph, store = build_model(build_from_lines(*lines), model, config)
    groups = group_queries(graph.triples)
    assert len(groups) >= 65
    rng = np.random.default_rng(6)
    conv_trunk(Tape(record=False), store, config,
               Tensor(rng.normal(size=(64, 8))), Tensor(rng.normal(size=(64, 8))))
    sizes = {name: buffer.size for name, buffer in autodiff._TRUNK_BUFFERS.items()}
    # columns q*k*k*oh*ow and conv q*F*oh*ow, for q = 64 and a 4x4 image
    assert sizes == {"columns": 64 * 4 * 9, "conv": 64 * 3 * 9}
    sampler = NegativeSampler(graph.entity_count, 4, seed=2)
    loss = evaluate_loss(graph, store, model, config, groups, sampler, TrainConfig())
    assert math.isfinite(loss)
    assert {name: buffer.size for name, buffer in autodiff._TRUNK_BUFFERS.items()} == sizes


def test_evaluate_loss_peaks_below_a_training_step():
    """The validation loss over the benchmark's wide graph (seed 5, 2,320
    groups) peaks below a training step's 30 MB (tracemalloc), plans and
    buffers built inside: its trunk computes one 64-row block at a time."""
    graph = build_from_lines(*dataset_lines(2000, 20, 24000, 1600, 2, 5, 1600, 5))
    splits = split_dataset(len(graph.triples), (0.8, 0.1, 0.1), 0)
    groups = group_queries([graph.triples[i] for i in splits.validation])
    assert len(groups) >= 2300
    model, config = ModelConfig(seed=5), ConvScorerConfig()
    graph, store = build_model(graph, model, config)
    sampler = NegativeSampler(graph.entity_count, 64, seed=5)
    tracemalloc.start()
    try:
        loss = evaluate_loss(graph, store, model, config, groups, sampler, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(loss)
    assert peak < 30 * 2**20


def test_conv_trunk_rejects_mismatched_rows():
    config = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)
    store = _scorer(config)
    with pytest.raises(ValueError, match="rows"):
        conv_trunk(Tape(), store, config, Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))))
    with pytest.raises(ValueError, match="rows"):
        conv_trunk(Tape(), store, config, Tensor(np.ones(4)), Tensor(np.ones(4)))
    with pytest.raises(ValueError, match="rows"):
        frozen_trunk(store, config, np.ones((2, 4)), np.ones((3, 4)))


def test_sampler_determinism_and_exclusions():
    sampler = NegativeSampler(n_entities=10, k_neg=6, seed=9)
    a = sampler.sample_group(2, 1, [5])
    b = sampler.sample_group(2, 1, [5])
    assert a == b
    assert len(a) == 6
    assert 5 not in a

    other_round = sampler.sample_group(2, 1, [5], round_=1)
    assert other_round != a  # epochs see different negatives

    assert NegativeSampler(10, 0, seed=0).sample_group(0, 0, [1]) == []

    forced = NegativeSampler(2, 8, seed=0).sample_group(0, 0, [0])
    assert forced == [1] * 8


def test_sampler_filtering_excludes_known_tails():
    known = {(0, 0): {1, 2, 3}}
    sampler = NegativeSampler(5, 50, seed=1, known_tails=known)
    draws = sampler.sample_group(0, 0, [4])
    assert set(draws) == {0}  # only entity left


def test_sampler_empty_pool_is_an_error():
    sampler = NegativeSampler(2, 4, seed=0, known_tails={(0, 0): {0, 1}})
    with pytest.raises(ValueError, match="no candidate negatives"):
        sampler.sample_group(0, 0, [0])


def test_known_tails_grouping():
    triples = [(0, 0, 1), (0, 0, 2), (1, 0, 3)]
    from eventke.kgdata import KnowledgeTriple

    kt = known_tails_from_triples([KnowledgeTriple(*t) for t in triples])
    assert kt == {(0, 0): {1, 2}, (1, 0): {3}}


def _unit_scorer():
    # d=1: trunk reduces to relu(w . [relu(s), relu(r)]) so scores are
    # directly controllable through the tail values
    config = ConvScorerConfig(rows=1, cols=1, filters=1, kernel=1)
    store = ParameterStore()
    store.add("relation_embeddings", np.zeros((1, 1)))
    store.add("conv_filters", np.ones((1, 1, 1)))
    store.add("conv_projection", np.array([[1.0, 0.0]]))
    return config, store


def test_triple_loss_hand_values():
    config, store = _unit_scorer()
    # head vector 0 makes the trunk 0, so every candidate scores 0
    vecs = Tensor([[0.0], [1.0], [2.0]])
    loss = triple_loss(Tape(), store, config, vecs, h=0, r=0, positives=[1], negatives=[2])
    assert abs(loss.data - 2.0 * math.log(2.0)) <= 1e-12

    mean = triple_loss(
        Tape(), store, config, vecs, h=0, r=0, positives=[1], negatives=[2], mean_reduction=True
    )
    assert abs(mean.data - math.log(2.0)) <= 1e-12


def test_triple_loss_saturated_scores_vanish():
    config, store = _unit_scorer()
    # trunk = relu(relu(1)) = 1, so score = tail value
    vecs = Tensor([[1.0], [20.0], [-20.0]])
    loss = triple_loss(Tape(), store, config, vecs, 0, 0, positives=[1], negatives=[2])
    assert loss.data < 1e-8


def test_triple_loss_duplicate_negative_doubles_term():
    config, store = _unit_scorer()
    vecs = Tensor([[1.0], [0.7], [-0.3]])
    one = triple_loss(Tape(), store, config, vecs, 0, 0, [1], [2]).data
    two = triple_loss(Tape(), store, config, vecs, 0, 0, [1], [2, 2]).data
    neg_term = -math.log(1.0 - 1.0 / (1.0 + math.exp(0.3)))
    assert abs((two - one) - neg_term) <= 1e-12


def test_triple_loss_empty_positives_error():
    config, store = _unit_scorer()
    with pytest.raises(ValueError, match="gold"):
        triple_loss(Tape(), store, config, Tensor([[1.0]]), 0, 0, [], [0])


def test_triple_loss_decreases_as_positive_score_rises():
    config, store = _unit_scorer()
    losses = []
    for tail in (0.5, 1.0, 2.0):
        vecs = Tensor([[1.0], [tail], [-0.2]])
        losses.append(float(triple_loss(Tape(), store, config, vecs, 0, 0, [1], [2]).data))
    assert losses[0] > losses[1] > losses[2]


def test_gradient_through_scorer_and_loss():
    config = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)
    rng = np.random.default_rng(6)
    store = ParameterStore()
    store.add("relation_embeddings", rng.normal(size=(2, 4)))
    add_scorer_parameters(store, config, seed=6)
    entity_table = store.add("entities", rng.normal(size=(5, 4)))

    def build():
        tape = Tape()
        loss = triple_loss(
            tape, store, config, entity_table, h=0, r=1, positives=[1, 2], negatives=[3, 4]
        )
        return tape, loss

    err = grad_check(build, store.tensors())
    assert err < 1e-4
