import contextlib
import hashlib
import io
import math
import os
import pathlib
import re
import struct
import tempfile

import numpy as np
import pytest

from eventke import autodiff, cli, trainer
from eventke.autodiff import ParameterStore, Tape
from eventke.kgdata import KnowledgeTriple
from eventke.layers import ModelConfig, forward_model, index_plan
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

from _child import digest_in_child
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
    with pytest.raises(ValueError, match=r"^beta2 must lie in \[0, 1\)$"):
        TrainConfig(beta2=1.0)
    with pytest.raises(ValueError, match="^eps must be positive$"):
        TrainConfig(eps=0.0)


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


def diagonal_step():
    """One training step on a graph whose stage-4 sums take the jagged
    diagonals: 3,300 edge rows of width 64, in two chunks.  Returns the
    graph and the trained store."""
    lines = dataset_lines(
        n_entities=300, n_relations=4, n_triples=1500, n_events=40,
        min_args=2, max_args=4, n_temporal=20, seed=12,
    )
    graph, store = build_model(build_from_lines(*lines), ModelConfig(), ConvScorerConfig())
    _eight_group_step(graph, store)
    return graph, store


def _eight_group_step(graph, store):
    """One training step over the graph's first 8 query groups."""
    groups = group_queries(graph.triples)[:8]
    config = TrainConfig(k_neg=4, batch_groups=8)
    sampler = NegativeSampler(
        graph.entity_count, config.k_neg, seed=0,
        known_tails=known_tails_from_triples(graph.triples),
    )
    train_epoch(
        graph, store, ModelConfig(), ConvScorerConfig(), groups, sampler, config,
        epoch=1, shuffle_rng=np.random.default_rng(0), step_counter=[0],
    )


def _state_digest(store: ParameterStore) -> str:
    """sha256 of a store's state arrays."""
    digest = hashlib.sha256()
    for name, array in store.state_arrays().items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def diagonal_step_digest() -> str:
    """sha256 of the state arrays after diagonal_step."""
    return _state_digest(diagonal_step()[1])


# sha256 of the state arrays after diagonal_step with one BLAS thread.  It
# records stage 4's sums, which the diagonals and the chunks must keep equal
# to the flattened bincount's over stage 4 in one piece, and the step's one
# candidate_bce record, whose 1-N product and two gradient products set the
# scores' and the entity gradient's summation order
DIAGONAL_STEP_STATE = "bb540e9d25d68ba8a7fa5d2431b99b859cf6ea4f7d97457dd613979d645b3380"


def test_diagonal_scatter_step_is_pinned():
    graph, _ = diagonal_step()
    plan = index_plan(graph)
    # the kept plan, which stage 4 of the step used
    chunks = autodiff._planned(
        autodiff._chunk_plan, plan.edge_src, plan.edge_rel, plan.edge_dst, width=64).chunks
    assert len(chunks) > 1
    for scatter_plan in (chunks[0].dst_plan, chunks[0].src_plan):
        assert isinstance(scatter_plan, autodiff._Diagonals)
    assert digest_in_child("test_trainer", "diagonal_step_digest") == DIAGONAL_STEP_STATE


def test_a_second_step_on_one_graph_builds_no_plan(monkeypatch):
    """The graph's read-only indices are planned in the first step, and the
    second finds every plan kept: no build of one, no new entry."""
    monkeypatch.setattr(autodiff, "_PLANS", {})
    graph, store = diagonal_step()
    builds = []
    for name in ("_scatter_plan", "_chunk_plan"):
        def counted(*args, build=getattr(autodiff, name), name=name):
            if not any(index.flags.writeable for index in args[:-1]):
                builds.append(name)
            return build(*args)
        monkeypatch.setattr(autodiff, name, counted)
    kept = list(autodiff._PLANS)
    _eight_group_step(graph, store)
    assert builds == []
    assert list(autodiff._PLANS) == kept


def mean_reduction_step():
    """One mean_reduction training step over every query group of a
    10-entity graph with k_neg = 24, so negatives repeat within a group.
    Returns the groups, the sampler and the trained store."""
    lines = dataset_lines(
        n_entities=10, n_relations=2, n_triples=40, n_events=4,
        min_args=2, max_args=3, n_temporal=2, seed=5,
    )
    graph, store = build_model(build_from_lines(*lines), ModelConfig(), ConvScorerConfig())
    groups = group_queries(graph.triples)
    config = TrainConfig(k_neg=24, batch_groups=len(groups), mean_reduction=True)
    sampler = NegativeSampler(
        graph.entity_count, config.k_neg, seed=0,
        known_tails=known_tails_from_triples(graph.triples),
    )
    train_epoch(
        graph, store, ModelConfig(), ConvScorerConfig(), groups, sampler, config,
        epoch=1, shuffle_rng=np.random.default_rng(0), step_counter=[0],
    )
    return groups, sampler, store


def mean_reduction_step_digest() -> str:
    """sha256 of the state arrays after mean_reduction_step."""
    return _state_digest(mean_reduction_step()[2])


# sha256 of the state arrays after mean_reduction_step with one BLAS thread:
# the step's one candidate_bce record with a mean factor per query, repeated
# draws and multi-gold groups, whose arithmetic the dense reference test in
# test_autodiff checks bit for bit
MEAN_REDUCTION_STEP_STATE = "2f2651082fc99e556bd58fae1aeafc68e9e2ac63716ae4e050840d8424d1ab59"


def test_mean_reduction_step_is_pinned():
    groups, sampler, _ = mean_reduction_step()
    # the fixture covers multi-gold groups whose negatives repeat
    multi_gold = [(h, r, tails) for h, r, tails in groups if len(tails) >= 2]
    drawn = [sampler.sample_group(h, r, tails, 1) for h, r, tails in multi_gold]
    assert any(len(set(negatives)) < len(negatives) for negatives in drawn)
    assert digest_in_child("test_trainer", "mean_reduction_step_digest") == MEAN_REDUCTION_STEP_STATE


TOY_CONFIG = os.path.join(os.path.dirname(__file__), "fixtures", "toy", "config.ini")


def toy_run_digests() -> str:
    """sha256 of the loss.csv and model.ckpt that `eventke train` writes
    for the toy config."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", TOY_CONFIG, "--out", out]) == 0
        return " ".join(
            hashlib.sha256(pathlib.Path(out, name).read_bytes()).hexdigest()
            for name in ("loss.csv", "model.ckpt")
        )


# sha256 of the toy run's loss.csv and model.ckpt with one BLAS thread: the
# CLI trains on a graph of the training split alone, each step's loss is one
# candidate_bce record over the 1-N scores, and the validation loss scores
# frozen_trunk's rows in 64-group blocks
TOY_RUN = (
    "bff8ab0284b6a002c56c042abbf6af9fcd02cf0d209a653a878056826e08f501 "
    "c80ef949f445be780ce4c0756d6757164861b45fe4d8609a5f025c490e45a040"
)


def test_toy_run_is_pinned():
    assert digest_in_child("test_trainer", "toy_run_digests") == TOY_RUN


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_names_the_file(bad, tmp_path):
    values = np.ones((2, 2))
    values[1, 0] = bad
    checkpoint = Checkpoint(
        model_config=SMALL_MODEL,
        scorer_config=SMALL_SCORER,
        train_config=TrainConfig(),
        epoch=1,
        best_val_loss=0.5,
        adam_t=3,
        shuffle_state=np.random.default_rng(0).bit_generator.state,
        arrays={"param/a": np.arange(3.0), "param/b": values},
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, str(path))
    message = f"{path}: tensor param/b holds non-finite values"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_checkpoint(str(path))


def test_checkpoint_bad_header_names_the_file(tmp_path):
    header = b'{"epoch": 1}'
    path = tmp_path / "model.ckpt"
    path.write_bytes(
        b"EVKE" + struct.pack("<I", 1) + struct.pack("<I", len(header)) + header
        + struct.pack("<I", 0)
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad checkpoint header"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("bad", [5, [1], "s"])
def test_checkpoint_bad_shuffle_state_names_the_file(bad, tmp_path):
    checkpoint = Checkpoint(
        model_config=SMALL_MODEL,
        scorer_config=SMALL_SCORER,
        train_config=TrainConfig(),
        epoch=1,
        best_val_loss=0.5,
        adam_t=3,
        shuffle_state=bad,
        arrays={"param/a": np.arange(3.0)},
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, str(path))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad checkpoint header: "):
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


def _many_groups_setup():
    """A 40-entity graph at the README's shapes (d = 64, where a product
    row's bits can depend on the row count) with more than one 64-group
    block of queries."""
    lines = dataset_lines(
        n_entities=40, n_relations=3, n_triples=200, n_events=3,
        min_args=2, max_args=3, n_temporal=2, seed=5,
    )
    graph, store = build_model(build_from_lines(*lines), ModelConfig(), ConvScorerConfig())
    groups = group_queries(graph.triples)
    assert len(groups) > 64
    sampler = NegativeSampler(
        graph.entity_count, 5, seed=0, known_tails=known_tails_from_triples(graph.triples))
    return graph, store, groups, sampler


def test_a_training_steps_loss_is_one_record(monkeypatch):
    """Whatever the step's group count, its tape holds the forward's records,
    the trunk's three (two gathers and the conv) and one loss record."""
    graph, store, groups, sampler = _many_groups_setup()
    forward = Tape()
    forward_model(forward, graph, store, ModelConfig())
    lengths = []
    backward = Tape.backward

    def spy(tape, loss):
        lengths.append(len(tape))
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", spy)
    for batch_groups in (1, 5, 32):
        config = TrainConfig(k_neg=5, batch_groups=batch_groups)
        train_epoch(graph, store, ModelConfig(), ConvScorerConfig(), groups[:32], sampler, config,
                    epoch=1, shuffle_rng=np.random.default_rng(0), step_counter=[0])
    assert len(lengths) == 32 + 7 + 1
    assert set(lengths) == {len(forward) + 4}


def test_a_validation_groups_loss_does_not_depend_on_its_block(monkeypatch):
    """A group's loss has the same bytes alone in its 64-group block, with
    other companions, or at any position of a many-block call."""
    graph, store, groups, sampler = _many_groups_setup()
    # the layers' rectified rows give only scores >= 0, whose sigmoids round
    # away their last bits: the signed input rows and a steeper projection
    # give scores of either sign, up to about 10
    monkeypatch.setattr(trainer, "forward_model", lambda tape, graph, params, config:
                        params["entity_embeddings"])
    store["conv_projection"].data *= 40.0
    losses = []
    candidate_bce = Tape.candidate_bce

    def spy(*args):
        out = candidate_bce(*args)
        losses.append(out[1])
        return out

    monkeypatch.setattr(Tape, "candidate_bce", spy)

    def group_losses(subset):
        losses.clear()
        mean = evaluate_loss(
            graph, store, ModelConfig(), ConvScorerConfig(), subset, sampler, TrainConfig())
        out = np.concatenate(losses)
        assert mean == sum(out.tolist()) / len(subset)
        return out

    every = group_losses(groups)
    assert len(losses) == math.ceil(len(groups) / 64)
    for i in (0, 63, 64, len(groups) - 1):
        assert group_losses([groups[i]]).tobytes() == every[i].tobytes()
        companions = [groups[i]] + groups[:i][::-1][:70]
        assert group_losses(companions)[0].tobytes() == every[i].tobytes()


def test_build_model_rejects_mismatched_scorer_shape():
    graph, _, _, _ = small_setup()
    with pytest.raises(ValueError, match="does not match model dim"):
        build_model(graph, ModelConfig(dim=4, num_layers=1), ConvScorerConfig(2, 4, 2, 2))
