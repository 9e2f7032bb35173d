"""Deterministic synthetic datasets, built as text lines and fed through
the real parsers so every test exercises the ingestion path."""

from __future__ import annotations

import json
from typing import TextIO

import numpy as np

from eventke.kgdata import HeterogeneousGraph, build_graph, parse_events, parse_temporal_links, parse_triples
from eventke.layers import pairs_at


def dataset_lines(
    n_entities: int,
    n_relations: int,
    n_triples: int,
    n_events: int,
    min_args: int,
    max_args: int,
    n_temporal: int,
    seed: int,
) -> tuple[list[str], list[str], list[str]]:
    """Random lines with exact entity/relation/event/link counts."""
    assert n_triples >= max(n_entities, n_relations)
    rng = np.random.default_rng(seed)

    heads = rng.integers(0, n_entities, size=n_triples)
    tails = rng.integers(0, n_entities, size=n_triples)
    rels = rng.integers(0, n_relations, size=n_triples)
    # full vocabulary coverage: every entity heads one triple at least
    heads[:n_entities] = rng.permutation(n_entities)
    rels[:n_relations] = np.arange(n_relations)
    triple_lines = [f"ent{h}\trel{r}\tent{t}" for h, r, t in zip(heads, rels, tails)]

    event_lines = []
    for j in range(n_events):
        k = int(rng.integers(min_args, max_args + 1))
        ents = rng.choice(n_entities, size=k, replace=False)
        event_lines.append(
            json.dumps(
                {
                    "event_id": f"ev{j}",
                    "trigger": f"trig{rng.integers(0, max(2, n_events // 2))}",
                    "event_type": f"type{rng.integers(0, 3)}",
                    "arguments": [
                        {"entity": f"ent{e}", "role": f"role{rng.integers(0, 4)}"}
                        for e in ents
                    ],
                }
            )
        )

    n_pairs = n_events * (n_events - 1) // 2
    chosen = rng.choice(n_pairs, size=n_temporal, replace=False) if n_temporal else []
    firsts, seconds = pairs_at(n_events, chosen)
    temporal_lines = [f"ev{a}\tev{b}" for a, b in zip(firsts.tolist(), seconds.tolist())]
    return triple_lines, event_lines, temporal_lines


def build_from_lines(
    triple_lines: list[str],
    event_lines: list[str] | None = None,
    temporal_lines: list[str] | None = None,
) -> HeterogeneousGraph:
    triples, entities, relations = parse_triples(triple_lines)
    parsed = parse_events(event_lines, entities) if event_lines is not None else None
    links = []
    if parsed is not None and temporal_lines is not None:
        links = parse_temporal_links(temporal_lines, parsed.event_ids)
    return build_graph(triples, entities, relations, parsed, links)


def grad_fixture_graph(seed: int = 0) -> HeterogeneousGraph:
    """12 entities, 4 relations, 5 events of 2-3 arguments, 3 temporal links."""
    t, e, l = dataset_lines(
        n_entities=12,
        n_relations=4,
        n_triples=18,
        n_events=5,
        min_args=2,
        max_args=3,
        n_temporal=3,
        seed=seed,
    )
    return build_from_lines(t, e, l)


def memorization_lines(seed: int = 7) -> tuple[list[str], list[str], list[str]]:
    """50 entities, 5 relations, 300 train triples, 30 events, 20 temporal links.

    Entities entK form five clusters of ten (cluster = K // 10).  Every
    relation has one primary and one secondary tail, disjoint across
    relations: all 50 heads carry the primary triple, and two heads per
    cluster additionally carry the secondary (50 extra triples).  Events
    draw their arguments inside one cluster and cover every entity
    exactly twice.

    The tail rule is deliberately a function of the relation alone.  A
    rectified scoring trunk trained one negative at a time settles into
    a few live directions per query, and queries that share a direction
    are forced to share one rank order; under this rule the shared
    order (primary first, secondary second) is optimal for all 60
    queries of a relation at once, so the collapse costs nothing and
    every query keeps 59 siblings feeding its direction gradient.  The
    doubled pairs cap the all-candidate MRR at (250 + 50 * 0.5) / 300
    under the mid-rank tie policy, leaving room above 0.9.
    """
    rng = np.random.default_rng(seed)
    n_entities, n_relations, cluster_size = 50, 5, 10
    n_clusters = n_entities // cluster_size

    # primary and secondary tail per relation, disjoint across relations
    tails = rng.choice(n_entities, size=2 * n_relations, replace=False).reshape(n_relations, 2)

    triple_lines = [
        f"ent{h}\trel{r}\tent{tails[r][0]}"
        for h in range(n_entities)
        for r in range(n_relations)
    ]
    for c in range(n_clusters):
        for r in range(n_relations):
            for h in rng.choice(cluster_size, size=2, replace=False):
                triple_lines.append(f"ent{c * cluster_size + h}\trel{r}\tent{tails[r][1]}")

    # six events per cluster: two independent partitions of its ten
    # members (sizes 4+3+3), so every entity sits in exactly two events
    event_lines = []
    for c in range(n_clusters):
        parts = []
        for _ in range(2):
            members = c * cluster_size + rng.permutation(cluster_size)
            parts += [members[:4], members[4:7], members[7:]]
        for j, ents in enumerate(parts):
            event_lines.append(
                json.dumps(
                    {
                        "event_id": f"ev{6 * c + j}",
                        "trigger": f"trig{rng.integers(0, 8)}",
                        "event_type": f"type{rng.integers(0, 3)}",
                        "arguments": [
                            {"entity": f"ent{e}", "role": f"role{rng.integers(0, 4)}"}
                            for e in ents
                        ],
                    }
                )
            )

    # chain the six events of clusters 0..3: exactly 20 in-cluster links
    temporal_lines = [
        f"ev{6 * c + j}\tev{6 * c + j + 1}" for c in range(4) for j in range(5)
    ]
    return triple_lines, event_lines, temporal_lines


def cluster_lines(
    n_train_clusters: int, n_test_clusters: int, seed: int
) -> tuple[list[str], list[str], list[str], list[str]]:
    """Held-out facts that only the event channel can recover.

    Returns (train triple lines, test triple lines, event lines,
    temporal lines).  A cluster is three head entities that fill the
    arguments of one event; every head carries one ``target`` triple to
    its group's tail.  Clusters form ``n_test_clusters // 2`` tail
    groups: each group holds exactly two test clusters, and the train
    clusters are dealt round-robin over the groups.  A test cluster
    holds out the target triple of one of its heads, picked at random;
    a train cluster keeps all three.  The events of a group are chained
    by temporal links in cluster order.  Triggers, types and roles are
    drawn independently of the group, so they name nothing.

    A held-out head has no triple in the train lines at all, so no path
    of train triples leads from it to its tail.  It is tied to the rest
    of the graph only as an argument of its cluster's event, next to two
    train heads whose triples fix the tail: the tail reaches it through
    stage 1 (event from arguments) and stage 3 (entity from events), and,
    a layer deeper, through those heads' relational messages.  Every
    event argument appears in the triple lines (a held-out head in the
    test lines only); the held-out relation and every held-out tail
    appear in the train lines.

    A tail's stage-4 degree is its number of train triples plus the self
    loop, at most 2 * 2 + 2 * 3 + 1 = 11 at (20, 30) clusters.  The
    relational stage sums neighbor messages unnormalized, so a hub of
    degree ~100 inflates its own row and, a layer later, every head's,
    driving scores into the loss clamp where training stalls; sharding
    the tails keeps every degree small.

    Blind baseline: each tail has exactly two held-out queries, so
    scoring the tails as a fixed block, whatever the head, gives
    held-out MRR (1 + 1/2 + .. + 1/G) / G for G groups, ~0.221 at
    G = 15.  A model that reads the event channel beats it; one that
    cannot sits at or below it.
    """
    assert n_test_clusters % 2 == 0 and n_test_clusters > 0
    rng = np.random.default_rng(seed)
    n_groups = n_test_clusters // 2
    # test clusters first, two per group; then train clusters round-robin
    groups = [c // 2 for c in range(n_test_clusters)]
    groups += [j % n_groups for j in range(n_train_clusters)]
    n_clusters = len(groups)

    train_lines: list[str] = []
    test_lines: list[str] = []
    event_lines: list[str] = []
    for c in rng.permutation(n_clusters).tolist():
        group = groups[c]
        heads = [f"c{c}h{k}" for k in range(3)]
        held_out = int(rng.integers(0, 3)) if c < n_test_clusters else -1
        for k, head in enumerate(heads):
            line = f"{head}\ttarget\ttail{group}"
            (test_lines if k == held_out else train_lines).append(line)
        event_lines.append(
            json.dumps(
                {
                    "event_id": f"ev{c}",
                    "trigger": f"trig{rng.integers(0, 4)}",
                    "event_type": f"type{rng.integers(0, 3)}",
                    "arguments": [
                        {"entity": head, "role": f"role{rng.integers(0, 4)}"}
                        for head in heads
                    ],
                }
            )
        )
    temporal_lines: list[str] = []
    for group in range(n_groups):
        members = [c for c in range(n_clusters) if groups[c] == group]
        temporal_lines += [f"ev{a}\tev{b}" for a, b in zip(members, members[1:])]
    return train_lines, test_lines, event_lines, temporal_lines


# -- serialization: the parsers' round-trip counterparts ------------------


def write_triples(graph: HeterogeneousGraph, out: TextIO) -> None:
    for h, r, t in graph.triples:
        out.write(f"{graph.entities.name(h)}\t{graph.relations.name(r)}\t{graph.entities.name(t)}\n")


def write_events(graph: HeterogeneousGraph, out: TextIO) -> None:
    for ev in graph.events:
        obj = {
            "event_id": graph.event_ids.name(ev.id),
            "trigger": graph.triggers.name(ev.trigger),
            "event_type": graph.event_types.name(ev.event_type),
            "arguments": [
                {"entity": graph.entities.name(e), "role": graph.roles.name(z)}
                for e, z in ev.arguments
            ],
        }
        out.write(json.dumps(obj) + "\n")


def write_temporal_links(graph: HeterogeneousGraph, out: TextIO) -> None:
    for a, b in graph.temporal_links:
        out.write(f"{graph.event_ids.name(a)}\t{graph.event_ids.name(b)}\n")
