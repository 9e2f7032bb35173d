"""Parsing and indexing for triples, events, temporal links, and splits.

File formats are line-oriented: triples and temporal links are TSV,
events are one JSON object per line, pretrained vectors are whitespace
separated.  All string identifiers are mapped to dense indices in
first-appearance order; the built graph is immutable and safe to share
across evaluation threads.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, TextIO

import numpy as np

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    pass


class Vocab:
    """String identifiers to contiguous indices, first-appearance order."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []

    def add(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def get(self, name: str) -> int:
        return self._index[name]

    def name(self, idx: int) -> str:
        return self._names[idx]

    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self._names == other._names


class KnowledgeTriple(NamedTuple):
    head: int
    relation: int
    tail: int


class TemporalLink(NamedTuple):
    a: int
    b: int


@dataclass
class EventRecord:
    id: int
    trigger: int
    event_type: int
    arguments: list[tuple[int, int]]  # (entity, role), deduplicated, order kept


@dataclass
class ParsedEvents:
    events: list[EventRecord]
    event_ids: Vocab
    triggers: Vocab
    event_types: Vocab
    roles: Vocab
    unknown_entities: list[str] = field(default_factory=list)


@dataclass
class Splits:
    train: list[int]
    validation: list[int]
    test: list[int]


def parse_triples(source: TextIO | Iterable[str]) -> tuple[list[KnowledgeTriple], Vocab, Vocab]:
    """Read 3-column TSV lines into triples plus entity/relation vocabularies."""
    entities = Vocab()
    relations = Vocab()
    triples: list[KnowledgeTriple] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        head, rel, tail = fields
        triples.append(
            KnowledgeTriple(entities.add(head), relations.add(rel), entities.add(tail))
        )
    if not triples:
        raise ParseError("no triples found")
    return triples, entities, relations


_EVENT_KEYS = {"event_id", "trigger", "event_type", "arguments"}


def _require_string(value, what: str, lineno: int) -> None:
    if not isinstance(value, str):
        raise ParseError(f"line {lineno}: {what} must be a string, got {json.dumps(value)}")


def parse_events(source: TextIO | Iterable[str], entities: Vocab) -> ParsedEvents:
    """Read one JSON object per line; extends the entity vocabulary in place.

    Argument entities not already present become isolated entity nodes and
    are reported in ``unknown_entities``.  Records with an empty argument
    list are dropped with a warning: they cannot take part in attention.
    """
    out = ParsedEvents([], Vocab(), Vocab(), Vocab(), Vocab())
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid record: {exc}") from None
        if not isinstance(obj, dict) or set(obj) != _EVENT_KEYS:
            raise ParseError(
                f"line {lineno}: keys must be exactly {sorted(_EVENT_KEYS)}"
            )
        for key in ("event_id", "trigger", "event_type"):
            _require_string(obj[key], key, lineno)
        if not isinstance(obj["arguments"], list):
            raise ParseError(f"line {lineno}: arguments must be a list")
        if obj["event_id"] in out.event_ids:
            raise ParseError(f"line {lineno}: duplicate event id {obj['event_id']!r}")

        args: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for arg in obj["arguments"]:
            if not isinstance(arg, dict) or set(arg) != {"entity", "role"}:
                raise ParseError(f"line {lineno}: argument keys must be entity, role")
            _require_string(arg["entity"], "argument entity", lineno)
            _require_string(arg["role"], "argument role", lineno)
            if arg["entity"] not in entities:
                out.unknown_entities.append(arg["entity"])
            pair = (entities.add(arg["entity"]), out.roles.add(arg["role"]))
            if pair not in seen:
                seen.add(pair)
                args.append(pair)
        if not args:
            logger.warning("line %d: event %r has no arguments, dropped", lineno, obj["event_id"])
            continue
        out.events.append(
            EventRecord(
                id=out.event_ids.add(obj["event_id"]),
                trigger=out.triggers.add(obj["trigger"]),
                event_type=out.event_types.add(obj["event_type"]),
                arguments=args,
            )
        )
    if out.unknown_entities:
        logger.info(
            "%d argument entities absent from triples, added as isolated nodes",
            len(out.unknown_entities),
        )
    return out


def parse_temporal_links(
    source: TextIO | Iterable[str], event_ids: Vocab
) -> list[TemporalLink]:
    """Read 2-column TSV lines; undirected dedup, first-seen direction kept."""
    links: list[TemporalLink] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 2 tab-separated fields, got {len(fields)}")
        for name in fields:
            if name not in event_ids:
                raise ParseError(f"line {lineno}: unknown event id {name!r}")
        a, b = event_ids.get(fields[0]), event_ids.get(fields[1])
        if a == b:
            logger.warning("line %d: self temporal link on %r dropped", lineno, fields[0])
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        links.append(TemporalLink(a, b))
    return links


@dataclass
class HeterogeneousGraph:
    """Indexed entity/event graph with all adjacency needed by the layers.

    ``entity_neighbors[i]`` holds (neighbor, relation) pairs in the
    augmented relation space: a triple (h, r, t) contributes (t, r) at h
    and (h, r + |R|) at t.  The global self-loop relation has index 2|R|
    and is applied implicitly, never stored.
    """

    entities: Vocab
    relations: Vocab  # original relations only
    event_ids: Vocab
    triggers: Vocab
    event_types: Vocab
    roles: Vocab
    triples: list[KnowledgeTriple]
    events: list[EventRecord]
    temporal_links: list[TemporalLink]
    entity_neighbors: list[list[tuple[int, int]]]
    event_temporal_neighbors: list[list[int]]
    entity_events: list[list[tuple[int, int]]]  # (event, position in its arguments)
    # the layers' index plan (layers.index_plan), built from the fields
    # above on first use; the graph is never mutated, so it never goes stale
    plan_cache: object = field(default=None, repr=False, compare=False)

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def relation_count(self) -> int:
        return len(self.relations)

    @property
    def augmented_relation_count(self) -> int:
        return 2 * len(self.relations) + 1

    @property
    def self_loop_relation(self) -> int:
        return 2 * len(self.relations)

    @property
    def argument_link_count(self) -> int:
        return sum(len(ev.arguments) for ev in self.events)

    def inverse_relation(self, relation: int) -> int:
        return relation + len(self.relations)


def build_graph(
    triples: list[KnowledgeTriple],
    entities: Vocab,
    relations: Vocab,
    parsed_events: ParsedEvents | None = None,
    temporal_links: list[TemporalLink] | None = None,
) -> HeterogeneousGraph:
    if parsed_events is None:
        parsed_events = ParsedEvents([], Vocab(), Vocab(), Vocab(), Vocab())
    temporal_links = list(temporal_links or [])

    n_entities = len(entities)
    n_events = len(parsed_events.events)
    n_relations = len(relations)

    entity_neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n_entities)]
    for h, r, t in triples:
        entity_neighbors[h].append((t, r))
        entity_neighbors[t].append((h, r + n_relations))

    event_temporal_neighbors: list[list[int]] = [[] for _ in range(n_events)]
    for a, b in temporal_links:
        event_temporal_neighbors[a].append(b)
        event_temporal_neighbors[b].append(a)

    entity_events: list[list[tuple[int, int]]] = [[] for _ in range(n_entities)]
    for ev in parsed_events.events:
        for k, (entity, _role) in enumerate(ev.arguments):
            entity_events[entity].append((ev.id, k))

    return HeterogeneousGraph(
        entities=entities,
        relations=relations,
        event_ids=parsed_events.event_ids,
        triggers=parsed_events.triggers,
        event_types=parsed_events.event_types,
        roles=parsed_events.roles,
        triples=list(triples),
        events=parsed_events.events,
        temporal_links=temporal_links,
        entity_neighbors=entity_neighbors,
        event_temporal_neighbors=event_temporal_neighbors,
        entity_events=entity_events,
    )


def split_dataset(n_items: int, ratios: tuple[float, float, float], seed: int) -> Splits:
    """Seeded shuffle, then contiguous partition at cumulative cut points.

    Cut points are floor(n * train_ratio) and floor(n * (train_ratio +
    validation_ratio)), so each split size is within one item of its
    exact share: n=10 at (0.8, 0.1, 0.1) gives (8, 1, 1), n=7 gives (5, 1, 1).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    order = np.random.default_rng(seed).permutation(n_items).tolist()
    c1 = int(np.floor(n_items * ratios[0]))
    c2 = int(np.floor(n_items * (ratios[0] + ratios[1])))
    return Splits(train=order[:c1], validation=order[c1:c2], test=order[c2:])


def load_pretrained_vectors(source: TextIO | Iterable[str]) -> dict[str, np.ndarray]:
    """Identifier + decimals per line; uniform dimension, finite values only."""
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"line {lineno}: expected identifier and at least one value")
        name = fields[0]
        try:
            vec = np.array([float(x) for x in fields[1:]])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric value") from None
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"line {lineno}: non-finite value")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ParseError(
                f"line {lineno}: dimension {vec.shape[0]} does not match earlier {dim}"
            )
        if name in table:
            logger.warning("line %d: identifier %r repeated, last occurrence wins", lineno, name)
        table[name] = vec
    return table


# -- serialization (round-trip counterparts of the parsers) --------------


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
