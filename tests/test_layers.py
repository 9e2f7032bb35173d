from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _synth import build_from_lines, dataset_lines, grad_fixture_graph, memorization_lines
from eventke.autodiff import Sink, Tape, Tensor, grad_check
from eventke.evaluation import frozen_entity_matrix
from eventke.layers import (
    ModelConfig,
    forward_model,
    forward_model_traced,
    index_plan,
    init_parameters,
    pairs_at,
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
    beta, _ = stage3_event_to_entity(tape, graph, params, vecs, tilde, config)

    plan = index_plan(graph)
    per_event = np.bincount(plan.arg_event, weights=alpha.data, minlength=len(graph.events))
    assert np.max(np.abs(per_event - 1.0)) <= 1e-12
    assert beta.data.size  # the fixture has entities with incident events
    per_entity = np.bincount(plan.incidence_slot, weights=beta.data)
    assert np.max(np.abs(per_entity - 1.0)) <= 1e-12


def _betas_by_entity(graph, beta: Tensor) -> dict[int, np.ndarray]:
    """Stage 3's attention weights by entity id, split by ``incidence_slot``."""
    plan = index_plan(graph)
    parts = np.split(beta.data, np.cumsum(np.bincount(plan.incidence_slot))[:-1])
    return dict(zip(plan.incidence_updated.tolist(), parts))


def _leaky(x, slope):
    return x if x >= 0.0 else slope * x


def _softmax_1d(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _oracle_graph():
    # 2-5 arguments per event; some entities fill several events, some none
    t, e, l = dataset_lines(40, 3, 60, 14, 2, 5, 6, seed=23)
    graph = build_from_lines(t, e, l)
    event_counts = [len({j for j, _ in incident}) for incident in graph.entity_events]
    assert max(event_counts) >= 2 and min(event_counts) == 0
    assert {len(ev.arguments) for ev in graph.events} >= {2, 5}
    return graph


def test_stage1_matches_per_slot_brute_force():
    graph = _oracle_graph()
    d = 4
    config = ModelConfig(dim=d, seed=3)
    params = init_parameters(graph, config)
    vecs = np.random.default_rng(5).normal(size=(graph.entity_count, d))
    alpha, events = stage1_entity_to_event(Tape(), graph, params, Tensor(vecs), config)

    trig, etype = params["trigger_embeddings"].data, params["event_type_embeddings"].data
    role, attn = params["role_embeddings"].data, params["attn_entity_to_event"].data[0]
    w_msg = params["entity_message"].data
    expect_alpha, expect_events = [], []
    for ev in graph.events:
        logits = np.array([
            _leaky(attn @ np.concatenate([trig[ev.trigger], etype[ev.event_type], vecs[e], role[z]]),
                   config.leaky_slope)
            for e, z in ev.arguments
        ])
        a = _softmax_1d(logits)
        lam = sum(a_k * np.maximum(w_msg @ vecs[e], 0.0) for a_k, (e, _) in zip(a, ev.arguments))
        expect_alpha.extend(a)
        expect_events.append(np.concatenate([trig[ev.trigger], etype[ev.event_type], lam]))
    assert np.max(np.abs(alpha.data - expect_alpha)) <= 1e-12
    assert np.max(np.abs(events.data - np.array(expect_events))) <= 1e-12


def test_stage3_matches_per_row_brute_force():
    graph = _oracle_graph()
    d = 4
    config = ModelConfig(dim=d, event_mix=0.7, seed=3)
    params = init_parameters(graph, config)
    rng = np.random.default_rng(6)
    vecs = rng.normal(size=(graph.entity_count, d))
    tilde = rng.normal(size=(graph.event_count, 3 * d))
    beta, out = stage3_event_to_entity(Tape(), graph, params, Tensor(vecs), Tensor(tilde), config)
    betas = _betas_by_entity(graph, beta)

    attn, proj = params["attn_event_to_entity"].data[0], params["event_projection"].data
    for i, incident in enumerate(graph.entity_events):
        if not incident:
            assert i not in betas
            assert np.array_equal(out.data[i], vecs[i])
            continue
        seen = list(dict.fromkeys(j for j, _ in incident))
        b = _softmax_1d(np.array([
            _leaky(attn @ np.concatenate([tilde[j], vecs[i]]), config.leaky_slope) for j in seen
        ]))
        mix = sum(b_k * (proj @ tilde[j]) for b_k, j in zip(b, seen))
        assert np.max(np.abs(betas[i] - b)) <= 1e-12
        assert np.max(np.abs(out.data[i] - (vecs[i] + config.event_mix * mix))) <= 1e-12


def test_stages_1_and_3_gradient_check():
    t, e, l = dataset_lines(6, 2, 8, 3, 2, 3, 1, seed=4)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(dim=3, seed=2)
    params = init_parameters(graph, config)
    weights = Tensor(np.random.default_rng(8).normal(size=(1, graph.entity_count * 3)))
    names = [
        "entity_embeddings", "trigger_embeddings", "event_type_embeddings", "role_embeddings",
        "attn_entity_to_event", "entity_message", "attn_event_to_entity", "event_projection",
    ]

    def build():
        tape = Tape()
        vecs = params["entity_embeddings"]
        _, events = stage1_entity_to_event(tape, graph, params, vecs, config)
        _, out = stage3_event_to_entity(tape, graph, params, vecs, events, config)
        row = tape.reshape(out, (1, -1))
        return tape, tape.reshape(tape.rows_affine(row, weights), ())

    err = grad_check(build, [params[n] for n in names], step=1e-5)
    assert err < 1e-4


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
    tilde = Tensor(np.ones((2, 9)))
    beta, out = stage3_event_to_entity(Tape(), graph, params, vecs, tilde, config)
    assert beta is None and out is vecs


def test_stage3_entity_without_events_unchanged():
    graph = build_from_lines(["a\tr\tb", "b\tr\tc"], [_event("e1", [("a", "x")])])
    config = ModelConfig(dim=3, seed=2)
    params = init_parameters(graph, config)
    vecs = params["entity_embeddings"]
    _, out = stage3_event_to_entity(Tape(), graph, params, vecs, Tensor(np.ones((1, 9))), config)
    c = graph.entities.get("c")
    assert np.array_equal(out.data[c], vecs.data[c])


def test_stage3_single_event_formula():
    graph = build_from_lines(["a\tr\tb"], [_event("e1", [("a", "x")])])
    config = ModelConfig(dim=3, event_mix=0.5, seed=2)
    params = init_parameters(graph, config)
    vecs = params["entity_embeddings"]
    tilde_e = np.arange(9.0)
    _, out = stage3_event_to_entity(Tape(), graph, params, vecs, Tensor(tilde_e[None, :]), config)
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


def test_stage4_matches_per_edge_loop():
    t, e, l = dataset_lines(30, 6, 90, 5, 2, 3, 2, seed=17)
    graph = build_from_lines(t, e, l)
    assert graph.relation_count == 6
    params = init_parameters(graph, ModelConfig(dim=8, seed=3))
    rng = np.random.default_rng(19)
    rows = rng.normal(size=(graph.entity_count, 8))
    g = rng.normal(size=rows.shape)
    tape = Tape()
    out = stage4_entity_message_pass(tape, graph, params, Tensor(rows))
    row, weights = tape.reshape(out, (1, -1)), Tensor(g.reshape(1, -1))
    tape.backward(tape.reshape(tape.rows_affine(row, weights), ()))

    # one composition per edge, self loop first, then neighbors in graph order
    rel, w = params["relation_embeddings"].data, params["relation_message"].data
    expect, grad_rel = np.zeros(rows.shape), np.zeros(rel.shape)
    for i, neighbors in enumerate(graph.entity_neighbors):
        edges = [(i, graph.self_loop_relation)] + neighbors
        agg = sum(_brute_circ(rows[j], rel[r]) for j, r in edges)
        pre = w @ agg
        expect[i] = np.maximum(pre, 0.0)
        g_agg = w.T @ np.where(pre >= 0.0, g[i], 0.0)
        for j, r in edges:
            for k in range(8):
                for q in range(8):
                    grad_rel[r, (k + q) % 8] += rows[j, q] * g_agg[k]
    assert np.max(np.abs(out.data - expect)) <= 1e-12
    assert np.max(np.abs(params["relation_embeddings"].grad - grad_rel)) <= 1e-12


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
    _, tilde_v = stage3_event_to_entity(tape2, graph, params, vecs, tilde_e, config)
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


def test_pairs_at_follows_combinations_order():
    for n in range(2, 41):
        pairs = list(itertools.combinations(range(n), 2))
        a, b = pairs_at(n, np.arange(len(pairs)))
        assert list(zip(a.tolist(), b.tolist())) == pairs
        picked = np.random.default_rng(n).choice(len(pairs), size=len(pairs) // 2, replace=False)
        a, b = pairs_at(n, picked)
        assert list(zip(a.tolist(), b.tolist())) == [pairs[i] for i in picked]


# sha256 of randomize_event_structure's arguments and temporal links on a
# 60-event graph, taken when the links were picked from a list of every
# event pair: index arithmetic must draw the same graph
RANDOM_EVENTS_GRAPH = "64ab400301fac571932dd892d163d017b1fc774d8027d7526e9dd2656df63c2d"


def test_randomize_event_structure_is_pinned():
    graph = build_from_lines(*dataset_lines(
        n_entities=40, n_relations=3, n_triples=80, n_events=60,
        min_args=2, max_args=4, n_temporal=300, seed=4,
    ))
    shuffled = randomize_event_structure(graph, seed=9)
    drawn = repr(([ev.arguments for ev in shuffled.events], shuffled.temporal_links))
    assert hashlib.sha256(drawn.encode()).hexdigest() == RANDOM_EVENTS_GRAPH


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
    beta, _ = stage3_event_to_entity(
        Tape(), graph, params, params["entity_embeddings"], Tensor(np.ones((1, 9))), config
    )
    assert np.array_equal(_betas_by_entity(graph, beta)[a], [1.0])


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
        return tape, tape.reshape(tape.rows_affine(row, row), ())

    err = grad_check(build, params.tensors(), step=1e-5)
    assert err < 1e-4


def _held_arrays(value, depth: int = 0):
    """Every array a backward closure's cell reaches through tensors, sinks,
    tuples and lists; reading a sink allocates no gradient buffer."""
    if isinstance(value, Tensor):
        yield value.data
        value = value.sink
    if isinstance(value, Sink):
        if value.buffer is not None:
            yield value.buffer
    elif isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)) and depth < 4:
        for item in value:
            yield from _held_arrays(item, depth + 1)


def test_recording_forward_keeps_no_per_row_matrices():
    t, e, l = dataset_lines(60, 4, 150, 30, 2, 5, 40, seed=8)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(dim=8, seed=1)
    params = init_parameters(graph, config)
    plan = index_plan(graph)
    per_row = {
        plan.arg_event.size, plan.incidence_event.size, plan.temporal_src.size,
        plan.edge_src.size,
    }
    other_rows = {
        graph.entity_count, graph.event_count, plan.incidence_updated.size,
        plan.temporal_updated.size,
        *(tensor.data.shape[0] for tensor in params.tensors()),
    }
    assert not per_row & other_rows
    tape = Tape()
    forward_model(tape, graph, params, config)
    held = [
        array
        for record in tape._records
        for cell in record.__closure__ or ()
        for array in _held_arrays(cell.cell_contents)
    ]
    # the walk does reach the records' arrays: the entity matrices are there
    assert any(a.ndim == 2 and a.shape[0] == graph.entity_count for a in held)
    wide = {
        a.shape for a in held
        if a.dtype.kind == "f" and a.ndim == 2 and a.shape[1] > 1 and a.shape[0] in per_row
    }
    assert not wide


def test_forward_model_equals_the_traced_forward_bitwise():
    t, e, l = dataset_lines(40, 4, 120, 20, 2, 4, 20, seed=6)
    graph = build_from_lines(t, e, l)
    config = ModelConfig(dim=8, seed=2)
    runs = []
    for forward in (forward_model, lambda *args: forward_model_traced(*args)[0]):
        params = init_parameters(graph, config)
        tape = Tape()
        out = forward(tape, graph, params, config)
        row = tape.reshape(out, (1, -1))
        tape.backward(tape.reshape(tape.rows_affine(row, row), ()))
        runs.append([out.data.tobytes()] + [tensor.grad.tobytes() for tensor in params.tensors()])
    assert runs[0] == runs[1]


# A recording forward over this graph held 4,176,308 bytes (tracemalloc,
# numpy 2.4) while backward closures captured whole tensors.
CAPTURING_HELD_BYTES = 4_176_308


def test_recording_forward_holds_only_what_backward_reads():
    graph = build_from_lines(*dataset_lines(300, 8, 3000, 240, 2, 5, 240, seed=4))
    config = ModelConfig(dim=32, seed=3)
    params = init_parameters(graph, config)
    forward_model(Tape(), graph, params, config)  # index and scatter plans
    tracemalloc.start()
    try:
        tape = Tape()
        out = forward_model(tape, graph, params, config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * CAPTURING_HELD_BYTES
    # no record holds a tensor, so none keeps values its backward skips
    cells = [cell.cell_contents for record in tape._records for cell in record.__closure__ or ()]
    assert not [value for value in cells if isinstance(value, Tensor)]
    assert out.data.shape == (graph.entity_count, 32)


def test_frozen_entity_matrix_peaks_well_below_a_recording_forward():
    """frozen_entity_matrix runs on a non-recording tape: no backward's
    arrays add to its peak (0.71 of a recording forward's on this graph,
    numpy 2.4, where stage 4's chunk buffers set the peak), and it gives the
    recording forward's bits."""
    graph = build_from_lines(*dataset_lines(300, 8, 3000, 240, 2, 5, 240, seed=4))
    config = ModelConfig(dim=32, seed=3)
    params = init_parameters(graph, config)
    forward_model(Tape(), graph, params, config)  # index and scatter plans
    peaks, values = [], []
    for forward in (lambda: forward_model(Tape(), graph, params, config).data,
                    lambda: frozen_entity_matrix(graph, params, config)):
        tracemalloc.start()
        try:
            values.append(forward().tobytes())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert values[0] == values[1]
    assert peaks[1] < 0.8 * peaks[0]


# -- the index plan against a per-slot, per-edge construction ------------------


def _loop_index_plan(graph) -> dict[str, list[int]]:
    """The 17 index arrays built one argument slot, link end and edge at a
    time from the graph's adjacency lists."""
    plan = {name: [] for name in (
        "arg_event", "arg_entity", "arg_role", "temporal_src", "temporal_slot",
        "temporal_updated", "incidence_event", "incidence_slot", "incidence_updated")}
    for j, event in enumerate(graph.events):
        for entity, role in event.arguments:
            plan["arg_event"].append(j)
            plan["arg_entity"].append(entity)
            plan["arg_role"].append(role)
    for j, neigh in enumerate(graph.event_temporal_neighbors):
        if neigh:
            plan["temporal_src"] += neigh
            plan["temporal_slot"] += [len(plan["temporal_updated"])] * len(neigh)
            plan["temporal_updated"].append(j)
    for i, incident in enumerate(graph.entity_events):
        if incident:
            event_set = list(dict.fromkeys(event_id for event_id, _pos in incident))
            plan["incidence_event"] += event_set
            plan["incidence_slot"] += [len(plan["incidence_updated"])] * len(event_set)
            plan["incidence_updated"].append(i)
    edges = []
    for i, neighbors in enumerate(graph.entity_neighbors):
        edges += [(j, r, i) for j, r in neighbors] + [(i, graph.self_loop_relation, i)]
    edges.sort(key=lambda edge: edge[1::-1])  # stable: (relation, source), then edge order
    plan["edge_src"], plan["edge_rel"], plan["edge_dst"] = (list(col) for col in zip(*edges))
    plan["trigger_ids"] = [ev.trigger for ev in graph.events]
    plan["type_ids"] = [ev.event_type for ev in graph.events]
    plan["arg_trigger"] = [plan["trigger_ids"][j] for j in plan["arg_event"]]
    plan["arg_type"] = [plan["type_ids"][j] for j in plan["arg_event"]]
    plan["arg_slot"] = [plan["incidence_updated"].index(i) for i in plan["arg_entity"]]
    return plan


def _assert_plan_matches_loops(graph) -> None:
    plan, expected = index_plan(graph), _loop_index_plan(graph)
    names = [f.name for f in dataclasses.fields(plan)]
    assert sorted(names) == sorted(expected)
    for name in names:
        ids = getattr(plan, name)
        assert ids.dtype == np.intp and ids.ndim == 1, name
        assert not ids.flags.writeable, name
        assert ids.tolist() == expected[name], name


def _toy_lines() -> list[list[str]]:
    toy = os.path.join(os.path.dirname(__file__), "fixtures", "toy")
    lines = []
    for name in ("triples.tsv", "events.jsonl", "temporal.tsv"):
        with open(os.path.join(toy, name), encoding="utf-8") as fh:
            lines.append(fh.read().splitlines())
    return lines


@pytest.mark.parametrize("graph_of", [
    lambda: build_from_lines(*_toy_lines()),
    lambda: build_from_lines(*memorization_lines(seed=7)),
    lambda: build_from_lines(*dataset_lines(300, 8, 3000, 240, 2, 5, 240, seed=4)),
    lambda: randomize_event_structure(build_from_lines(*dataset_lines(60, 4, 150, 30, 2, 5, 40, seed=8)), 3),
], ids=["toy", "memorization", "dataset_lines", "random_events"])
def test_index_plan_matches_per_slot_loops(graph_of):
    _assert_plan_matches_loops(graph_of())


@st.composite
def _small_graph_lines(draw):
    """Self loops, repeated triples, entities only in events (x*), one
    entity in two roles of one event, unlinked events, or no events."""
    entity = st.integers(0, draw(st.integers(1, 5))).map(lambda i: f"e{i}")
    triples = draw(st.lists(st.tuples(entity, st.sampled_from("rs"), entity), min_size=1, max_size=12))
    slot = st.tuples(st.one_of(entity, st.sampled_from(["x0", "x1"])), st.sampled_from("ab"))
    events = draw(st.lists(st.lists(slot, min_size=1, max_size=4), max_size=5))
    event_no = st.integers(0, max(len(events) - 1, 0))
    links = draw(st.lists(st.tuples(event_no, event_no), max_size=6))
    return (
        [f"{h}\t{r}\t{t}" for h, r, t in triples],
        [_event(f"v{j}", args, trigger=f"t{j % 2}", etype=f"T{j % 3}") for j, args in enumerate(events)],
        [f"v{a}\tv{b}" for a, b in links if a != b],
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_graph_lines())
def test_index_plan_matches_per_slot_loops_on_small_graphs(lines):
    _assert_plan_matches_loops(build_from_lines(*lines))
