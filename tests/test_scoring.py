from __future__ import annotations

import math

import numpy as np
import pytest

from eventke.autodiff import ParameterStore, Tape, Tensor, grad_check
from eventke.scoring import (
    ConvScorerConfig,
    NegativeSampler,
    add_scorer_parameters,
    conv_trunk,
    frozen_trunk,
    known_tails_from_triples,
    score_against_all,
    triple_loss,
)


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
    config = ConvScorerConfig(rows=2, cols=4, filters=3, kernel=2)
    store = _scorer(config)
    rng = np.random.default_rng(4)
    s, r = rng.normal(size=(10, 8)), rng.normal(size=(10, 8))
    frozen = frozen_trunk(store, config, s, r)
    assert frozen.shape == (10, 8)
    for i in range(10):
        taped = conv_trunk(Tape(), store, config, Tensor(s[i : i + 1]), Tensor(r[i : i + 1]))
        assert np.max(np.abs(frozen[i] - taped.data[0])) <= 1e-12


def test_conv_trunk_rejects_mismatched_rows():
    config = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)
    store = _scorer(config)
    with pytest.raises(ValueError, match="rows"):
        conv_trunk(Tape(), store, config, Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))))
    with pytest.raises(ValueError, match="rows"):
        conv_trunk(Tape(), store, config, Tensor(np.ones(4)), Tensor(np.ones(4)))


def test_sampler_determinism_and_exclusions():
    sampler = NegativeSampler(n_entities=10, k_neg=6, seed=9)
    a = sampler.sample(2, 1, gold_t=5)
    b = sampler.sample(2, 1, gold_t=5)
    assert a == b
    assert len(a) == 6
    assert 5 not in a

    other_round = sampler.sample(2, 1, gold_t=5, round_=1)
    assert other_round != a  # epochs see different negatives

    assert NegativeSampler(10, 0, seed=0).sample(0, 0, 1) == []

    forced = NegativeSampler(2, 8, seed=0).sample(0, 0, gold_t=0)
    assert forced == [1] * 8


def test_sampler_filtering_excludes_known_tails():
    known = {(0, 0): {1, 2, 3}}
    sampler = NegativeSampler(5, 50, seed=1, known_tails=known, filtered=True)
    draws = sampler.sample(0, 0, gold_t=4)
    assert set(draws) == {0}  # only entity left

    unfiltered = NegativeSampler(5, 50, seed=1, known_tails=known, filtered=False)
    assert set(unfiltered.sample(0, 0, gold_t=4)) - {4} == set(unfiltered.sample(0, 0, 4))


def test_sampler_empty_pool_is_an_error():
    sampler = NegativeSampler(2, 4, seed=0, known_tails={(0, 0): {0, 1}})
    with pytest.raises(ValueError, match="no candidate negatives"):
        sampler.sample(0, 0, gold_t=0)


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
