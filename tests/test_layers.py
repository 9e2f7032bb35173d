from __future__ import annotations

import json

import numpy as np
import pytest

from _synth import build_from_lines, dataset_lines, grad_fixture_graph
from eventke.autodiff import Tape, Tensor, grad_check
from eventke.layers import (
    ModelConfig,
    argument_index,
    forward_model,
    forward_model_traced,
    init_parameters,
    randomize_event_structure,
    stage1_entity_to_event,
    stage2_temporal,
    stage3_event_to_entity,
    stage4_entity_message_pass,
)


def _event(eid, args, trigger="t0", etype="T"):
    return json.dumps(
        {
            "event_id": eid,
            "trigger": trigger,
            "event_type": etype,
            "arguments": [{"entity": e, "role": z} for e, z in args],
        }
    )


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(dim=0)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(temporal_mix=-0.1)


def test_stage1_single_argument():
    graph = build_from_lines(["a\tr\tb"], [_event("e1", [("a", "agent")])])
    config = ModelConfig(dim=3, seed=4)
    params = init_parameters(graph, config)
    tape = Tape()
    vecs = params["entity_embeddings"]
    alpha, events = stage1_entity_to_event(tape, graph, params, vecs, config)

    assert np.array_equal(alpha.data, [1.0])
    lam = np.maximum(params["entity_message"].data @ params["entity_embeddings"].data[0], 0.0)
    assert np.allclose(events.data[0][6:], lam, rtol=0, atol=1e-14)
    # event vector is [trigger, type, message], width 3d
    assert np.array_equal(events.data[0][:3], params["trigger_embeddings"].data[0])
    assert events.data.shape == (1, 9)


def test_stage1_identical_arguments_share_attention():
    graph = build_from_lines(
        ["a\tr\tb"], [_event("e1", [("a", "agent"), ("b", "agent")])]
    )
    config = ModelConfig(dim=3, seed=4)
    params = init_parameters(graph, config)
    # make the two argument entities indistinguishable
    params["entity_embeddings"].data[1] = params["entity_embeddings"].data[0]
    alpha, _ = stage1_entity_to_event(
        Tape(), graph, params, params["entity_embeddings"], config
    )
    assert np.array_equal(alpha.data, [0.5, 0.5])


def test_stage1_zero_attention_weights_give_uniform():
    graph = build_from_lines(
        ["a\tr\tb", "b\tr\tc"],
        [_event("e1", [("a", "x"), ("b", "y"), ("c", "z")])],
    )
    config = ModelConfig(dim=3, seed=4)
    params = init_parameters(graph, config)
    params["attn_entity_to_event"].data[...] = 0.0
    alpha, _ = stage1_entity_to_event(
        Tape(), graph, params, params["entity_embeddings"], config
    )
    assert np.allclose(alpha.data, 1.0 / 3.0, atol=1e-15)


def test_attention_vectors_sum_to_one():
    t, e, l = dataset_lines(8, 2, 12, 4, 2, 3, 2, seed=9)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(dim=4, seed=1)
    params = init_parameters(graph, config)
    tape = Tape()
    vecs = params["entity_embeddings"]
    alpha, events = stage1_entity_to_event(tape, graph, params, vecs, config)
    tilde = stage2_temporal(tape, graph, params, events, config)
    betas: dict[int, np.ndarray] = {}
    stage3_event_to_entity(tape, graph, params, vecs, tilde, config, collect_betas=betas)

    arg_event, _, _ = argument_index(graph)
    per_event = np.bincount(arg_event, weights=alpha.data, minlength=len(graph.events))
    assert np.max(np.abs(per_event - 1.0)) <= 1e-12
    assert betas  # the fixture has entities with incident events
    for b in betas.values():
        assert abs(b.sum() - 1.0) <= 1e-12


def _two_event_graph():
    return build_from_lines(
        ["a\tr\tb"],
        [_event("e1", [("a", "x")]), _event("e2", [("b", "x")])],
        ["e1\te2"],
    )


def test_stage2_gamma_zero_is_identity():
    graph = _two_event_graph()
    config = ModelConfig(dim=3, temporal_mix=0.0, seed=2)
    params = init_parameters(graph, config)
    events = Tensor(np.stack([np.arange(9.0), np.ones(9)]))
    out = stage2_temporal(Tape(), graph, params, events, config)
    assert out is events


def test_stage2_empty_neighborhood_passes_through():
    graph = build_from_lines(
        ["a\tr\tb"], [_event("e1", [("a", "x")]), _event("e2", [("b", "x")])], []
    )
    config = ModelConfig(dim=3, seed=2)
    params = init_parameters(graph, config)
    events = Tensor(np.ones((2, 9)))
    out = stage2_temporal(Tape(), graph, params, events, config)
    assert np.array_equal(out.data, np.ones((2, 9)))


def test_stage2_single_neighbor_identity_map():
    graph = _two_event_graph()
    config = ModelConfig(dim=3, temporal_mix=0.5, seed=2)
    params = init_parameters(graph, config)
    params["temporal_message"].data[...] = np.eye(9)
    rng = np.random.default_rng(0)
    e0 = rng.normal(size=9)
    e1 = np.abs(rng.normal(size=9))  # elementwise >= 0
    out = stage2_temporal(Tape(), graph, params, Tensor(np.stack([e0, e1])), config)
    assert np.array_equal(out.data[0], e0 + 0.5 * e1)
    assert np.array_equal(out.data[1], e1 + 0.5 * np.maximum(e0, 0.0))


def test_stage3_eps_zero_is_identity():
    graph = _two_event_graph()
    config = ModelConfig(dim=3, event_mix=0.0, seed=2)
    params = init_parameters(graph, config)
    vecs = params["entity_embeddings"]
    out = stage3_event_to_entity(Tape(), graph, params, vecs, Tensor(np.ones((2, 9))), config)
    assert out is vecs


def test_stage3_entity_without_events_unchanged():
    graph = build_from_lines(["a\tr\tb", "b\tr\tc"], [_event("e1", [("a", "x")])])
    config = ModelConfig(dim=3, seed=2)
    params = init_parameters(graph, config)
    vecs = params["entity_embeddings"]
    out = stage3_event_to_entity(Tape(), graph, params, vecs, Tensor(np.ones((1, 9))), config)
    c = graph.entities.get("c")
    assert np.array_equal(out.data[c], vecs.data[c])


def test_stage3_single_event_formula():
    graph = build_from_lines(["a\tr\tb"], [_event("e1", [("a", "x")])])
    config = ModelConfig(dim=3, event_mix=0.5, seed=2)
    params = init_parameters(graph, config)
    vecs = params["entity_embeddings"]
    tilde_e = np.arange(9.0)
    out = stage3_event_to_entity(Tape(), graph, params, vecs, Tensor(tilde_e[None, :]), config)
    a = graph.entities.get("a")
    expect = vecs.data[a] + 0.5 * (params["event_projection"].data @ tilde_e)
    assert np.allclose(out.data[a], expect, rtol=0, atol=1e-14)


def _brute_circ(a, b):
    d = a.shape[0]
    out = np.zeros(d)
    for k in range(d):
        for i in range(d):
            out[k] += a[i] * b[(k + i) % d]
    return out


def test_stage4_isolated_entity_self_loop_only():
    # c exists only as an event argument: no triple neighbors
    graph = build_from_lines(["a\tr\tb"], [_event("e1", [("c", "x")])])
    config = ModelConfig(dim=3, seed=5)
    params = init_parameters(graph, config)
    vecs = params["entity_embeddings"]
    out = stage4_entity_message_pass(Tape(), graph, params, vecs)
    c = graph.entities.get("c")
    assert graph.entity_neighbors[c] == []
    phi = _brute_circ(vecs.data[c], params["relation_embeddings"].data[graph.self_loop_relation])
    expect = np.maximum(params["relation_message"].data @ phi, 0.0)
    assert np.allclose(out.data[c], expect, rtol=0, atol=1e-12)


def test_stage4_neighbor_sum_with_basis_relation():
    # with relation embeddings e0 and identity mixing, the pre-activation is
    # the sum of neighbor vectors with indices reversed: phi(v, e0)[k] = v[-k]
    graph = build_from_lines(["a\tr\tb", "b\tr\tc"])
    config = ModelConfig(dim=4, seed=5)
    params = init_parameters(graph, config)
    params["relation_message"].data[...] = np.eye(4)
    params["relation_embeddings"].data[...] = 0.0
    params["relation_embeddings"].data[:, 0] = 1.0
    rows = np.stack([np.abs(np.random.default_rng(i).normal(size=4)) for i in range(3)])
    out = stage4_entity_message_pass(Tape(), graph, params, Tensor(rows))

    b = graph.entities.get("b")
    total = rows.sum(axis=0)  # a, c neighbors plus self
    reversed_perm = np.concatenate(([total[0]], total[:0:-1]))
    assert np.allclose(out.data[b], np.maximum(reversed_perm, 0.0), rtol=0, atol=1e-12)


def test_event_argument_permutation_invariance():
    graph = build_from_lines(
        ["a\tr\tb", "b\tr\tc"], [_event("e1", [("a", "x"), ("b", "y"), ("c", "z")])]
    )
    config = ModelConfig(dim=3, seed=6)
    params = init_parameters(graph, config)
    base_args = list(graph.events[0].arguments)
    outs = []
    for order in ((0, 1, 2), (2, 0, 1)):
        graph.events[0].arguments = [base_args[i] for i in order]
        _, events = stage1_entity_to_event(
            Tape(), graph, params, params["entity_embeddings"], config
        )
        outs.append(events.data[0])
    assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12


def test_forward_matches_manual_composition():
    t, e, l = dataset_lines(6, 2, 8, 3, 2, 2, 1, seed=3)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(dim=4, num_layers=1, seed=8)
    params = init_parameters(graph, config)

    v_forward = forward_model(Tape(), graph, params, config)

    tape2 = Tape()
    vecs = params["entity_embeddings"]
    _, events = stage1_entity_to_event(tape2, graph, params, vecs, config)
    tilde_e = stage2_temporal(tape2, graph, params, events, config)
    tilde_v = stage3_event_to_entity(tape2, graph, params, vecs, tilde_e, config)
    manual = stage4_entity_message_pass(tape2, graph, params, tilde_v)

    assert np.array_equal(v_forward.data, manual.data)


def test_no_events_plus_no_temporal_is_pure_relational():
    t, e, l = dataset_lines(6, 2, 8, 3, 2, 2, 1, seed=3)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(
        dim=4, num_layers=2, no_events=True, no_temporal_links=True, seed=8
    )
    params = init_parameters(graph, config)

    got = forward_model(Tape(), graph, params, config)

    tape2 = Tape()
    vecs = params["entity_embeddings"]
    for _ in range(2):
        vecs = stage4_entity_message_pass(tape2, graph, params, vecs)
    assert np.array_equal(got.data, vecs.data)


def test_degenerate_mixing_bitwise_identities():
    t, e, l = dataset_lines(6, 2, 8, 3, 2, 2, 2, seed=12)
    graph = build_from_lines(t, e, l)

    # temporal_mix 0 vs skipping stage 2: identical event vectors
    for variant in (
        ModelConfig(dim=4, temporal_mix=0.0, seed=1),
        ModelConfig(dim=4, no_temporal_links=True, seed=1),
    ):
        params = init_parameters(graph, variant)
        _, traces = forward_model_traced(Tape(), graph, params, variant)
        assert np.array_equal(traces[0].events.data, traces[0].tilde_events.data)

    # event_mix 0 vs skipping stage 3 entirely: identical final entities
    a = ModelConfig(dim=4, event_mix=0.0, seed=1)
    b = ModelConfig(dim=4, no_events=True, seed=1)
    out_a = forward_model(Tape(), graph, init_parameters(graph, a), a)
    out_b = forward_model(Tape(), graph, init_parameters(graph, b), b)
    assert np.array_equal(out_a.data, out_b.data)


def test_forward_does_not_mutate_parameters():
    t, e, l = dataset_lines(6, 2, 8, 3, 2, 2, 1, seed=3)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(dim=4, seed=8)
    params = init_parameters(graph, config)
    before = {k: v.data.copy() for k, v in params.items()}
    forward_model(Tape(), graph, params, config)
    for k, v in params.items():
        assert np.array_equal(before[k], v.data)
        assert params[k] is v  # tables are shared objects, never replaced


def test_random_events_keeps_parameter_count_and_shared_tables():
    t, e, l = dataset_lines(8, 2, 12, 4, 2, 3, 2, seed=9)
    graph = build_from_lines(t, e, l)
    full = init_parameters(graph, ModelConfig(dim=4, seed=1))
    ablated = init_parameters(graph, ModelConfig(dim=4, random_events=True, seed=1))

    assert full.parameter_count() == ablated.parameter_count()
    # non-event parameters identical, event tables re-drawn
    assert np.array_equal(full["entity_embeddings"].data, ablated["entity_embeddings"].data)
    assert np.array_equal(full["relation_message"].data, ablated["relation_message"].data)
    assert not np.array_equal(full["trigger_embeddings"].data, ablated["trigger_embeddings"].data)


def test_randomize_event_structure_preserves_counts():
    t, e, l = dataset_lines(8, 2, 12, 4, 2, 3, 2, seed=9)
    graph = build_from_lines(t, e, l)
    shuffled = randomize_event_structure(graph, seed=1)

    assert shuffled.event_count == graph.event_count
    assert len(shuffled.temporal_links) == len(graph.temporal_links)
    for old, new in zip(graph.events, shuffled.events):
        assert len(old.arguments) == len(new.arguments)
        assert old.trigger == new.trigger and old.event_type == new.event_type
    assert shuffled.triples == graph.triples

    again = randomize_event_structure(graph, seed=1)
    assert [ev.arguments for ev in again.events] == [ev.arguments for ev in shuffled.events]


def test_init_uses_pretrained_vectors():
    graph = build_from_lines(["a\tr\tb"])
    config = ModelConfig(dim=3, seed=0)
    table = {"a": np.array([9.0, 8.0, 7.0])}
    params = init_parameters(graph, config, init_table=table)
    assert np.array_equal(params["entity_embeddings"].data[graph.entities.get("a")], [9.0, 8.0, 7.0])

    with pytest.raises(ValueError, match="shape"):
        init_parameters(graph, config, init_table={"a": np.zeros(5)})


def test_multi_role_entity_sees_event_once():
    graph = build_from_lines(["a\tr\tb"], [_event("e1", [("a", "x"), ("a", "y")])])
    config = ModelConfig(dim=3, seed=2)
    params = init_parameters(graph, config)
    a = graph.entities.get("a")
    assert len(graph.entity_events[a]) == 2  # both argument positions indexed
    betas: dict[int, np.ndarray] = {}
    stage3_event_to_entity(
        Tape(), graph, params, params["entity_embeddings"], Tensor(np.ones((1, 9))),
        config, collect_betas=betas,
    )
    assert np.array_equal(betas[a], [1.0])


def test_full_model_gradient_check_tiny():
    t, e, l = dataset_lines(5, 2, 7, 2, 2, 2, 1, seed=2)
    graph = build_from_lines(t, e, l)
    # model seed picked for generic gradients: degenerate inits exist where
    # a pre-activation sits within the difference step of a ReLU kink and
    # the finite-difference quotient turns into pure cancellation noise
    config = ModelConfig(dim=4, num_layers=2, seed=2)
    params = init_parameters(graph, config)

    def build():
        tape = Tape()
        row = tape.reshape(forward_model(tape, graph, params, config), (1, -1))
        return tape, tape.tensor_sum(tape.rows_affine(row, row))

    err = grad_check(build, params.tensors(), step=1e-5)
    assert err < 1e-4
