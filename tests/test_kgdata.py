from __future__ import annotations

import io
import json

import numpy as np
import pytest

from eventke.kgdata import (
    ParseError,
    build_graph,
    load_pretrained_vectors,
    parse_events,
    parse_temporal_links,
    parse_triples,
    split_dataset,
    write_events,
    write_temporal_links,
    write_triples,
)


def _events_lines(records):
    return [json.dumps(r) for r in records]


def _tiny_events(entities):
    records = [
        {
            "event_id": "e1",
            "trigger": "met",
            "event_type": "Contact",
            "arguments": [{"entity": "a", "role": "agent"}, {"entity": "b", "role": "target"}],
        },
        {
            "event_id": "e2",
            "trigger": "left",
            "event_type": "Movement",
            "arguments": [{"entity": "b", "role": "agent"}],
        },
    ]
    return parse_events(_events_lines(records), entities)


def test_parse_triples_counts():
    triples, entities, relations = parse_triples(io.StringIO("a\tr\tb\nb\tr\tc\n"))
    assert len(triples) == 2
    assert len(entities) == 3
    assert len(relations) == 1
    # first-appearance order
    assert entities.names() == ["a", "b", "c"]


def test_parse_triples_self_relation_ok():
    triples, _, _ = parse_triples(io.StringIO("a\tr\ta\n"))
    assert triples[0].head == triples[0].tail


def test_parse_triples_field_count_error():
    with pytest.raises(ParseError, match="line 1"):
        parse_triples(io.StringIO("a\tr\n"))


def test_parse_triples_empty_file_error():
    with pytest.raises(ParseError):
        parse_triples(io.StringIO(""))


def test_parse_events_basic():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    parsed = _tiny_events(entities)
    assert len(parsed.events) == 2
    assert len(parsed.events[0].arguments) == 2
    assert len(parsed.triggers) == 2
    assert len(parsed.event_types) == 2
    assert len(parsed.roles) == 2


def test_parse_events_dedups_argument_pairs():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    rec = {
        "event_id": "e1",
        "trigger": "met",
        "event_type": "Contact",
        "arguments": [{"entity": "a", "role": "agent"}, {"entity": "a", "role": "agent"}],
    }
    parsed = parse_events(_events_lines([rec]), entities)
    assert len(parsed.events[0].arguments) == 1


def test_parse_events_unknown_entity_becomes_isolated_node():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    rec = {
        "event_id": "e1",
        "trigger": "met",
        "event_type": "Contact",
        "arguments": [{"entity": "ghost", "role": "agent"}],
    }
    parsed = parse_events(_events_lines([rec]), entities)
    assert "ghost" in entities
    assert parsed.unknown_entities == ["ghost"]


def test_parse_events_empty_arguments_dropped_with_warning(caplog):
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    rec = {"event_id": "e1", "trigger": "met", "event_type": "Contact", "arguments": []}
    with caplog.at_level("WARNING"):
        parsed = parse_events(_events_lines([rec]), entities)
    assert parsed.events == []
    assert "no arguments" in caplog.text


def test_parse_events_missing_key_error():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    with pytest.raises(ParseError, match="keys"):
        parse_events(['{"event_id": "e1", "trigger": "t", "event_type": "T"}'], entities)


@pytest.mark.parametrize(
    "field, value",
    [
        ("event_id", 1),
        ("trigger", ["met"]),
        ("event_type", None),
        ("entity", {"name": "a"}),
        ("role", 2.5),
    ],
)
def test_parse_events_rejects_non_string_field(field, value):
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    good = {
        "event_id": "e0",
        "trigger": "met",
        "event_type": "Contact",
        "arguments": [{"entity": "a", "role": "agent"}],
    }
    bad = json.loads(json.dumps(good))
    bad["event_id"] = "e1"
    if field in ("entity", "role"):
        bad["arguments"][0][field] = value
    else:
        bad[field] = value
    with pytest.raises(ParseError, match=f"line 2: .*{field} must be a string"):
        parse_events(_events_lines([good, bad]), entities)


def test_parse_events_arguments_must_be_a_list():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    rec = {"event_id": "e1", "trigger": "met", "event_type": "Contact", "arguments": "a"}
    with pytest.raises(ParseError, match="line 1: arguments must be a list"):
        parse_events(_events_lines([rec]), entities)


def test_parse_events_duplicate_id_error():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    rec = {
        "event_id": "e1",
        "trigger": "met",
        "event_type": "Contact",
        "arguments": [{"entity": "a", "role": "agent"}],
    }
    with pytest.raises(ParseError, match="duplicate"):
        parse_events(_events_lines([rec, rec]), entities)


def test_temporal_links_symmetrize_and_dedup():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    parsed = _tiny_events(entities)
    links = parse_temporal_links(io.StringIO("e1\te2\ne2\te1\n"), parsed.event_ids)
    assert len(links) == 1


def test_temporal_self_link_rejected_with_warning(caplog):
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    parsed = _tiny_events(entities)
    with caplog.at_level("WARNING"):
        links = parse_temporal_links(io.StringIO("e1\te1\n"), parsed.event_ids)
    assert links == []
    assert "self temporal link" in caplog.text


def test_temporal_unknown_event_error():
    _, entities, _ = parse_triples(io.StringIO("a\tr\tb\n"))
    parsed = _tiny_events(entities)
    with pytest.raises(ParseError, match="e9"):
        parse_temporal_links(io.StringIO("e1\te9\n"), parsed.event_ids)


def test_graph_adjacency_and_augmentation():
    triples, entities, relations = parse_triples(io.StringIO("a\tr\tb\nb\tr\tc\n"))
    graph = build_graph(triples, entities, relations)
    assert graph.augmented_relation_count == 3  # r, r_inv, r_self
    assert graph.self_loop_relation == 2
    b = entities.get("b")
    neigh = set(graph.entity_neighbors[b])
    assert (entities.get("c"), 0) in neigh  # forward edge b -r-> c
    assert (entities.get("a"), graph.inverse_relation(0)) in neigh


def test_graph_entity_events_matches_brute_force():
    triples, entities, relations = parse_triples(io.StringIO("a\tr\tb\nb\tr\tc\n"))
    parsed = _tiny_events(entities)
    links = parse_temporal_links(io.StringIO("e1\te2\n"), parsed.event_ids)
    graph = build_graph(triples, entities, relations, parsed, links)

    for i in range(graph.entity_count):
        expected = {
            (ev.id, k)
            for ev in graph.events
            for k, (entity, _z) in enumerate(ev.arguments)
            if entity == i
        }
        assert set(graph.entity_events[i]) == expected

    # temporal adjacency is symmetric
    for j in range(graph.event_count):
        for k in graph.event_temporal_neighbors[j]:
            assert j in graph.event_temporal_neighbors[k]


def test_graph_round_trip():
    triples, entities, relations = parse_triples(io.StringIO("a\tr\tb\nb\ts\tc\n"))
    parsed = _tiny_events(entities)
    links = parse_temporal_links(io.StringIO("e1\te2\n"), parsed.event_ids)
    graph = build_graph(triples, entities, relations, parsed, links)

    t_out, e_out, l_out = io.StringIO(), io.StringIO(), io.StringIO()
    write_triples(graph, t_out)
    write_events(graph, e_out)
    write_temporal_links(graph, l_out)

    triples2, entities2, relations2 = parse_triples(io.StringIO(t_out.getvalue()))
    parsed2 = parse_events(io.StringIO(e_out.getvalue()), entities2)
    links2 = parse_temporal_links(io.StringIO(l_out.getvalue()), parsed2.event_ids)
    graph2 = build_graph(triples2, entities2, relations2, parsed2, links2)

    assert graph2.triples == graph.triples
    assert graph2.events == graph.events
    assert graph2.temporal_links == graph.temporal_links
    assert graph2.entities == graph.entities
    assert graph2.entity_neighbors == graph.entity_neighbors
    assert graph2.entity_events == graph.entity_events


def test_split_sizes_and_determinism():
    s = split_dataset(10, (0.8, 0.1, 0.1), seed=5)
    assert (len(s.train), len(s.validation), len(s.test)) == (8, 1, 1)
    s7 = split_dataset(7, (0.8, 0.1, 0.1), seed=5)
    assert (len(s7.train), len(s7.validation), len(s7.test)) == (5, 1, 1)

    again = split_dataset(10, (0.8, 0.1, 0.1), seed=5)
    assert again.train == s.train and again.test == s.test

    union = sorted(s.train + s.validation + s.test)
    assert union == list(range(10))


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset(10, (0.8, 0.1, 0.2), seed=0)


def test_pretrained_vectors_parse():
    table = load_pretrained_vectors(io.StringIO("a 1 2 3 4\nb 5 6 7 8\n"))
    assert set(table) == {"a", "b"}
    assert table["a"].shape == (4,)


def test_pretrained_vectors_dimension_mismatch():
    with pytest.raises(ParseError, match="dimension"):
        load_pretrained_vectors(io.StringIO("a 1 2 3 4\nb 5 6 7\n"))


def test_pretrained_vectors_non_finite():
    with pytest.raises(ParseError, match="non-finite"):
        load_pretrained_vectors(io.StringIO("a 1 inf\n"))


def test_pretrained_vectors_repeat_last_wins(caplog):
    with caplog.at_level("WARNING"):
        table = load_pretrained_vectors(io.StringIO("a 1 2\na 3 4\n"))
    assert np.array_equal(table["a"], [3.0, 4.0])
    assert "repeated" in caplog.text
