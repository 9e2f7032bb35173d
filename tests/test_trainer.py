import math
import re
import struct

import numpy as np
import pytest

from eventke.autodiff import ParameterStore, Tape
from eventke.kgdata import KnowledgeTriple
from eventke.layers import ModelConfig, forward_model
from eventke.scoring import ConvScorerConfig, NegativeSampler, known_tails_from_triples, triple_loss
from eventke.trainer import (
    Checkpoint,
    EarlyStopper,
    TrainConfig,
    adam_step,
    build_model,
    evaluate_loss,
    fit,
    group_queries,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
)

from _synth import build_from_lines, dataset_lines


SMALL_MODEL = ModelConfig(dim=4, num_layers=1, seed=1)
SMALL_SCORER = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)


def small_setup(seed=3):
    lines = dataset_lines(
        n_entities=6, n_relations=2, n_triples=10, n_events=2,
        min_args=2, max_args=3, n_temporal=1, seed=seed,
    )
    graph = build_from_lines(*lines)
    used, store = build_model(graph, SMALL_MODEL, SMALL_SCORER)
    train = list(used.triples[:8])
    val = list(used.triples[8:])
    return used, store, train, val


# -- config and optimizer ---------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=5, patience=6)
    with pytest.raises(ValueError):
        TrainConfig(beta2=1.0)


def test_adam_first_step_matches_hand_formula():
    store = ParameterStore()
    store.add("w", np.zeros(3))
    store["w"].grad[:] = 1.0
    config = TrainConfig()
    adam_step(store, config, t=1)
    # hand trace: m_hat = v_hat = 1 exactly after one unit-gradient step
    m = (1.0 - 0.9) * 1.0
    v = (1.0 - 0.999) * 1.0
    m_hat = m / (1.0 - 0.9**1)
    v_hat = v / (1.0 - 0.999**1)
    expected = -1e-4 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert m_hat == 1.0 and v_hat == 1.0
    assert all(x == expected for x in store["w"].data)
    np.testing.assert_array_equal(store.slots("w")["m"], np.full(3, m))
    np.testing.assert_array_equal(store.slots("w")["v"], np.full(3, v))
    # grads are consumed by the step
    np.testing.assert_array_equal(store["w"].grad, np.zeros(3))


def test_adam_second_step_matches_hand_formula():
    store = ParameterStore()
    store.add("w", np.zeros(1))
    config = TrainConfig()
    w = 0.0
    m = v = 0.0
    for t in (1, 2):
        store["w"].grad[:] = 1.0
        adam_step(store, config, t=t)
        m = 0.9 * m + (1.0 - 0.9) * 1.0
        v = 0.999 * v + (1.0 - 0.999) * 1.0
        w -= 1e-4 * (m / (1.0 - 0.9**t)) / (math.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    assert store["w"].data[0] == w


def test_adam_in_place_equals_textbook_form_bitwise():
    rng = np.random.default_rng(59)
    store = ParameterStore()
    store.add("w", rng.normal(size=(5, 4)))
    w = store["w"].data.copy()
    m, v = np.zeros_like(w), np.zeros_like(w)
    config = TrainConfig(learning_rate=3e-3)
    for t in range(1, 6):
        g = rng.normal(size=w.shape)
        # odd steps: one live row of five, which takes the sparse-row path
        g[1 if t % 2 == 0 else slice(0, 4)] = 0.0
        store["w"].grad[...] = g
        adam_step(store, config, t=t)
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    assert store["w"].data.tobytes() == w.tobytes()
    assert store.slots("w")["m"].tobytes() == m.tobytes()
    assert store.slots("w")["v"].tobytes() == v.tobytes()


def test_adam_zero_gradient_is_a_no_op():
    store = ParameterStore()
    store.add("w", np.array([1.5, -2.5]))
    adam_step(store, TrainConfig(), t=1)
    np.testing.assert_array_equal(store["w"].data, np.array([1.5, -2.5]))


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    store = ParameterStore()
    store.add("relation_embeddings", np.zeros((2, 2)))
    store["relation_embeddings"].grad[0, 0] = np.nan
    with pytest.raises(ValueError, match="relation_embeddings"):
        adam_step(store, TrainConfig(), t=1)


def test_adam_step_index_starts_at_one():
    store = ParameterStore()
    store.add("w", np.zeros(1))
    with pytest.raises(ValueError):
        adam_step(store, TrainConfig(), t=0)


# -- early stopping ---------------------------------------------------------


def test_early_stop_trace_with_patience_two():
    stopper = EarlyStopper(patience=2)
    assert stopper.update(1, 3.0) is False
    assert stopper.update(2, 2.0) is False
    assert stopper.update(3, 2.5) is False
    assert stopper.update(4, 2.6) is True
    assert stopper.best_epoch == 2
    assert stopper.best == 2.0


def test_early_stop_constant_loss_stops_after_patience_plus_one():
    stopper = EarlyStopper(patience=3)
    seen = 0
    for epoch in range(1, 100):
        seen = epoch
        if stopper.update(epoch, 5.0):
            break
    assert seen == 4  # first epoch improves on +inf, then patience bad epochs
    assert stopper.best_epoch == 1


def test_early_stop_equal_loss_is_not_improvement():
    stopper = EarlyStopper(patience=1)
    assert stopper.update(1, 2.0) is False
    assert stopper.update(2, 2.0) is True


def test_early_stop_never_fires_on_decreasing_loss():
    stopper = EarlyStopper(patience=1)
    for epoch in range(1, 50):
        assert stopper.update(epoch, 100.0 - epoch) is False


# -- query grouping ---------------------------------------------------------


def test_group_queries_first_appearance_and_dedup():
    triples = [
        KnowledgeTriple(0, 1, 2),
        KnowledgeTriple(0, 1, 3),
        KnowledgeTriple(4, 1, 2),
        KnowledgeTriple(0, 1, 2),
    ]
    assert group_queries(triples) == [(0, 1, [2, 3]), (4, 1, [2])]


# -- epoch mechanics --------------------------------------------------------


def test_single_query_epoch_loss_equals_direct_loss():
    graph, store, _, _ = small_setup()
    triples = [graph.triples[0]]
    groups = group_queries(triples)
    assert len(groups) == 1
    h, r, tails = groups[0]
    config = TrainConfig(k_neg=3, batch_groups=4)
    sampler = NegativeSampler(
        graph.entity_count, config.k_neg, seed=config.seed,
        known_tails=known_tails_from_triples(triples),
    )

    tape = Tape()
    vecs = forward_model(tape, graph, store, SMALL_MODEL)
    negatives = sampler.sample_group(h, r, tails, round_=1)
    expected = float(
        triple_loss(tape, store, SMALL_SCORER, vecs, h, r, tails, negatives).data
    )

    # rebuild identically: train_epoch takes its own optimizer step
    _, store2 = build_model(graph, SMALL_MODEL, SMALL_SCORER)
    loss = train_epoch(
        graph, store2, SMALL_MODEL, SMALL_SCORER,
        groups, sampler, config, epoch=1,
        shuffle_rng=np.random.default_rng(0), step_counter=[0],
    )
    assert loss == expected


def test_epoch_loss_independent_of_shuffle_when_single_batch():
    graph, store, train, _ = small_setup()
    groups = group_queries(train)
    sampler = NegativeSampler(
        graph.entity_count, 3, seed=0, known_tails=known_tails_from_triples(train))
    losses = []
    for shuffle in (True, False):
        _, fresh = build_model(graph, SMALL_MODEL, SMALL_SCORER)
        config = TrainConfig(k_neg=3, batch_groups=len(groups), shuffle=shuffle)
        losses.append(train_epoch(
            graph, fresh, SMALL_MODEL, SMALL_SCORER,
            groups, sampler, config, epoch=1,
            shuffle_rng=np.random.default_rng(9), step_counter=[0],
        ))
    assert losses[0] == losses[1]


def test_fit_rejects_empty_train_set():
    graph, store, _, val = small_setup()
    with pytest.raises(ValueError, match="empty train"):
        fit(graph, store, SMALL_MODEL, SMALL_SCORER, [], val, TrainConfig())


def test_fit_is_deterministic():
    histories = []
    for _ in range(2):
        graph, store, train, val = small_setup()
        config = TrainConfig(max_epochs=3, patience=3, k_neg=3, batch_groups=2)
        result = fit(graph, store, SMALL_MODEL, SMALL_SCORER, train, val, config)
        histories.append(result.history)
    assert histories[0] == histories[1]


def test_fit_loss_decreases_on_toy_graph():
    lines = dataset_lines(
        n_entities=5, n_relations=2, n_triples=9, n_events=2,
        min_args=2, max_args=2, n_temporal=1, seed=11,
    )
    graph = build_from_lines(*lines)
    used, store = build_model(graph, SMALL_MODEL, SMALL_SCORER)
    train = list(used.triples)
    # enough negatives that per-epoch resampling noise stays below the
    # optimization progress
    config = TrainConfig(
        learning_rate=1e-2, max_epochs=21, patience=21, k_neg=16, batch_groups=8,
    )
    result = fit(used, store, SMALL_MODEL, SMALL_SCORER, train, [], config)
    losses = [h[1] for h in result.history]
    assert len(losses) == 21
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
    assert drops >= 18


# -- checkpointing ----------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    graph, store, train, val = small_setup()
    config = TrainConfig(max_epochs=2, patience=2, k_neg=3)
    result = fit(graph, store, SMALL_MODEL, SMALL_SCORER, train, val, config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(result.checkpoint, path)
    loaded = load_checkpoint(path)

    assert loaded.model_config == SMALL_MODEL
    assert loaded.scorer_config == SMALL_SCORER
    assert loaded.train_config == config
    assert loaded.epoch == result.checkpoint.epoch
    assert loaded.best_val_loss == result.checkpoint.best_val_loss
    assert loaded.adam_t == result.checkpoint.adam_t
    assert loaded.shuffle_state == result.checkpoint.shuffle_state
    assert set(loaded.arrays) == set(result.checkpoint.arrays)
    for name, arr in result.checkpoint.arrays.items():
        np.testing.assert_array_equal(loaded.arrays[name], arr)


def test_checkpoint_write_is_atomic(tmp_path):
    graph, store, train, val = small_setup()
    config = TrainConfig(max_epochs=1, patience=1, k_neg=2)
    result = fit(graph, store, SMALL_MODEL, SMALL_SCORER, train, val, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, str(path))
    assert path.exists()
    assert not (tmp_path / "model.ckpt.tmp").exists()


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(str(path))


def test_checkpoint_truncated_anywhere_is_one_error_naming_the_file(tmp_path):
    checkpoint = Checkpoint(
        model_config=SMALL_MODEL,
        scorer_config=SMALL_SCORER,
        train_config=TrainConfig(),
        epoch=1,
        best_val_loss=0.5,
        adam_t=3,
        shuffle_state=np.random.default_rng(0).bit_generator.state,
        arrays={"param/a": np.arange(3.0), "param/b": np.ones((2, 2)), "param/c": np.array(2.0)},
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, str(path))
    blob = path.read_bytes()
    assert load_checkpoint(str(path)).arrays["param/c"] == 2.0
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "):
            load_checkpoint(str(cut))
    cut.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(str(cut))


def test_checkpoint_bad_header_names_the_file(tmp_path):
    header = b'{"epoch": 1}'
    path = tmp_path / "model.ckpt"
    path.write_bytes(
        b"EVKE" + struct.pack("<I", 1) + struct.pack("<I", len(header)) + header
        + struct.pack("<I", 0)
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad checkpoint header"):
        load_checkpoint(str(path))


def test_checkpoint_restore_rejects_dimension_mismatch(tmp_path):
    graph, store, train, val = small_setup()
    config = TrainConfig(max_epochs=1, patience=1, k_neg=2)
    result = fit(graph, store, SMALL_MODEL, SMALL_SCORER, train, val, config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(result.checkpoint, path)
    loaded = load_checkpoint(path)

    wider = ModelConfig(dim=8, num_layers=1, seed=1)
    _, other = build_model(graph, wider, ConvScorerConfig(2, 4, 2, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        loaded.restore_into(other)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    graph, store, train, val = small_setup()
    # rate and negative count chosen so validation improves every epoch,
    # making the best checkpoint coincide with the interruption point
    full_config = TrainConfig(
        learning_rate=5e-3, max_epochs=6, patience=6, k_neg=16, batch_groups=2)
    full = fit(graph, store, SMALL_MODEL, SMALL_SCORER, train, val, full_config)

    _, store2 = build_model(graph, SMALL_MODEL, SMALL_SCORER)
    half_config = TrainConfig(
        learning_rate=5e-3, max_epochs=3, patience=3, k_neg=16, batch_groups=2)
    half = fit(graph, store2, SMALL_MODEL, SMALL_SCORER, train, val, half_config)
    assert half.checkpoint.epoch == 3, "fixture must improve through the cut"

    path = str(tmp_path / "half.ckpt")
    save_checkpoint(half.checkpoint, path)
    loaded = load_checkpoint(path)

    _, store3 = build_model(graph, SMALL_MODEL, SMALL_SCORER)
    resumed = fit(
        graph, store3, SMALL_MODEL, SMALL_SCORER, train, val, full_config,
        resume_from=loaded,
    )
    assert resumed.history == full.history[3:]
    for name, arr in store.state_arrays().items():
        np.testing.assert_array_equal(store3.state_arrays()[name], arr)


def test_validation_loss_uses_frozen_round():
    graph, store, train, val = small_setup()
    groups = group_queries(val)
    sampler = NegativeSampler(
        graph.entity_count, 3, seed=0, known_tails=known_tails_from_triples(train))
    config = TrainConfig(k_neg=3)
    a = evaluate_loss(graph, store, SMALL_MODEL, SMALL_SCORER, groups, sampler, config)
    b = evaluate_loss(graph, store, SMALL_MODEL, SMALL_SCORER, groups, sampler, config)
    assert a == b


def test_build_model_rejects_mismatched_scorer_shape():
    graph, _, _, _ = small_setup()
    with pytest.raises(ValueError, match="does not match model dim"):
        build_model(graph, ModelConfig(dim=4, num_layers=1), ConvScorerConfig(2, 4, 2, 2))
