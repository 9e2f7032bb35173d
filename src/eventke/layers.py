"""Four-stage bipartite aggregation over entity and event nodes.

One layer runs, in order: entity-to-event attention, temporal message
passing between events, event-to-entity attention, then relational
message passing over the triple graph.  Only entity vectors change from
layer to layer; trigger, event-type, role, and relation tables are
shared by all layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .autodiff import ParameterStore, Tape, Tensor
from .kgdata import (
    EventRecord, HeterogeneousGraph, ParsedEvents, TemporalLink, build_graph, int_rows,
)

__all__ = [
    "ModelConfig",
    "init_parameters",
    "pairs_at",
    "randomize_event_structure",
    "IndexPlan",
    "index_plan",
    "stage1_entity_to_event",
    "stage2_temporal",
    "stage3_event_to_entity",
    "stage4_entity_message_pass",
    "forward_model",
    "forward_model_traced",
]


@dataclass
class ModelConfig:
    dim: int = 64
    num_layers: int = 2
    temporal_mix: float = 0.5  # weight on the temporal message added to an event
    event_mix: float = 0.5  # weight on the event message added to an entity
    leaky_slope: float = 0.2
    no_temporal_links: bool = False
    random_events: bool = False
    no_events: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("temporal_mix", "event_mix"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("temporal_mix", "event_mix", "leaky_slope"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _embedding_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(dim), size=(count, dim))


def init_parameters(
    graph: HeterogeneousGraph,
    config: ModelConfig,
    init_table: dict[str, np.ndarray] | None = None,
) -> ParameterStore:
    """Allocate all aggregation parameters; draw order is fixed by name.

    Embedding rows are normal with scale 1/sqrt(d); weight matrices are
    Glorot uniform.  Under the random_events ablation the trigger, type,
    and role tables are re-drawn from a separate stream, so every other
    parameter stays bitwise identical to the full model's.
    """
    d = config.dim
    rng = np.random.default_rng(config.seed)
    store = ParameterStore()

    entity = _embedding_rows(rng, graph.entity_count, d)
    if init_table:
        for idx, name in enumerate(graph.entities.names()):
            vec = init_table.get(name)
            if vec is None:
                continue
            if vec.shape != (d,):
                raise ValueError(
                    f"pretrained vector for {name!r} has shape {vec.shape}, model dim is {d}"
                )
            entity[idx] = vec
    store.add("entity_embeddings", entity)
    store.add("relation_embeddings", _embedding_rows(rng, graph.augmented_relation_count, d))
    store.add("trigger_embeddings", _embedding_rows(rng, len(graph.triggers), d))
    store.add("event_type_embeddings", _embedding_rows(rng, len(graph.event_types), d))
    store.add("role_embeddings", _embedding_rows(rng, len(graph.roles), d))

    store.add("attn_entity_to_event", _glorot(rng, (1, 4 * d), 4 * d, 1))
    store.add("entity_message", _glorot(rng, (d, d), d, d))
    store.add("temporal_message", _glorot(rng, (3 * d, 3 * d), 3 * d, 3 * d))
    store.add("attn_event_to_entity", _glorot(rng, (1, 4 * d), 4 * d, 1))
    store.add("event_projection", _glorot(rng, (d, 3 * d), 3 * d, d))
    store.add("relation_message", _glorot(rng, (d, d), d, d))

    if config.random_events:
        redraw = np.random.default_rng([config.seed, 101])
        store["trigger_embeddings"].data[...] = _embedding_rows(redraw, len(graph.triggers), d)
        store["event_type_embeddings"].data[...] = _embedding_rows(redraw, len(graph.event_types), d)
        store["role_embeddings"].data[...] = _embedding_rows(redraw, len(graph.roles), d)
    return store


def pairs_at(n: int, positions) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b), a < b < n, at ``positions`` in the order of
    ``itertools.combinations(range(n), 2)``, without listing all n(n-1)/2:
    row a starts at a(2n - a - 1)/2."""
    positions = np.asarray(positions, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    a = np.searchsorted(starts, positions, side="right") - 1
    return a, positions - starts[a] + a + 1


def randomize_event_structure(graph: HeterogeneousGraph, seed: int) -> HeterogeneousGraph:
    """Replace argument and temporal structure with random links of equal count.

    Every event keeps its trigger, type, and argument count; argument
    entities are re-drawn without replacement per event, roles uniformly.
    Temporal links are re-drawn as the same number of distinct event
    pairs.  Vocabulary sizes are untouched, so parameter counts match the
    full model exactly.
    """
    rng = np.random.default_rng([seed, 202])
    n_entities = graph.entity_count
    n_roles = len(graph.roles)

    events = []
    for ev in graph.events:
        k = len(ev.arguments)
        chosen = rng.choice(n_entities, size=k, replace=False)
        roles = rng.integers(0, n_roles, size=k)
        events.append(
            EventRecord(
                id=ev.id,
                trigger=ev.trigger,
                event_type=ev.event_type,
                arguments=[(int(e), int(z)) for e, z in zip(chosen, roles)],
            )
        )

    n_events = graph.event_count
    n_pairs = n_events * (n_events - 1) // 2
    n_links = len(graph.temporal_links)
    if n_links > n_pairs:
        raise ValueError("cannot draw that many distinct temporal links")
    a, b = pairs_at(n_events, rng.choice(n_pairs, size=n_links, replace=False))
    links = [TemporalLink(*pair) for pair in zip(a.tolist(), b.tolist())]

    parsed = ParsedEvents(events, graph.event_ids, graph.triggers, graph.event_types, graph.roles)
    return build_graph(graph.triples, graph.entities, graph.relations, parsed, links)


# -- the four stages --------------------------------------------------------
#
# Node populations travel as single matrices: entity vectors are one
# (n, d) tensor, event vectors one (n_events, 3d) tensor.  Per-node
# work happens inside gather / segment ops, so a whole stage costs a
# fixed handful of tape records regardless of graph size.  The index
# arrays those ops read depend on the graph alone and are built once.


@dataclass(frozen=True)
class IndexPlan:
    """Index arrays of the four stages for one graph.

    Stage 1 reads one row per argument slot; stage 2 one row per
    (event, temporal neighbor) pair of the ``temporal_updated`` events;
    stage 3 one row per (entity, distinct incident event) pair of the
    ``incidence_updated`` entities, which are also stage 1's distinct
    argument entities; stage 4 one row per relational edge in both
    directions plus each entity's self loop, ordered by (relation,
    source) so that stage 4 composes each relation's edges in one
    product.  ``*_slot`` arrays number the updated nodes of a stage 0,
    1, ..; ``arg_slot`` places each argument slot's entity among
    ``incidence_updated``.
    """

    arg_event: np.ndarray
    arg_entity: np.ndarray
    arg_role: np.ndarray
    arg_trigger: np.ndarray
    arg_type: np.ndarray
    arg_slot: np.ndarray
    trigger_ids: np.ndarray
    type_ids: np.ndarray
    temporal_src: np.ndarray
    temporal_slot: np.ndarray
    temporal_updated: np.ndarray
    incidence_event: np.ndarray
    incidence_slot: np.ndarray
    incidence_updated: np.ndarray
    edge_src: np.ndarray
    edge_rel: np.ndarray
    edge_dst: np.ndarray


def _ids(values) -> np.ndarray:
    # read-only: the tape ops cache scatter work for indices that cannot change
    ids = np.array(values, dtype=np.intp)
    ids.flags.writeable = False
    return ids


def _build_index_plan(graph: HeterogeneousGraph) -> IndexPlan:
    events, n_events, n = graph.events, graph.event_count, graph.entity_count
    trigger_ids, type_ids, arg_counts = int_rows(
        ((ev.trigger, ev.event_type, len(ev.arguments)) for ev in events), n_events, 3).T
    arg_event = np.repeat(np.arange(n_events), arg_counts)
    args = int_rows(chain.from_iterable(ev.arguments for ev in events), len(arg_event), 2)
    arg_entity = args[:, 0]

    # a link reaches both its ends; a stable sort by receiver keeps link order
    links = int_rows(graph.temporal_links, len(graph.temporal_links), 2)
    by_receiver = np.argsort(links.ravel(), kind="stable")
    temporal_updated, temporal_slot = np.unique(links.ravel()[by_receiver], return_inverse=True)

    # an entity filling several roles still sees the event once
    incidence = np.unique(np.column_stack((arg_entity, arg_event)), axis=0)
    incidence_updated, incidence_slot = np.unique(incidence[:, 0], return_inverse=True)

    # rows (src, rel, dst): (t, r, h) and (h, r + |R|, t) per triple, then the
    # self loops; sorted by (relation, source), ties by destination, row order
    triples = int_rows(graph.triples, len(graph.triples), 3)
    nodes = np.arange(n)
    edges = np.concatenate([
        np.stack((triples[:, ::-1], triples + [0, graph.relation_count, 0]), axis=1).reshape(-1, 3),
        np.column_stack((nodes, np.full(n, graph.self_loop_relation), nodes)),
    ])
    edge_src, edge_rel, edge_dst = edges[np.lexsort(edges[:, [2, 0, 1]].T)].T

    return IndexPlan(
        arg_event=_ids(arg_event),
        arg_entity=_ids(arg_entity),
        arg_role=_ids(args[:, 1]),
        arg_trigger=_ids(trigger_ids[arg_event]),
        arg_type=_ids(type_ids[arg_event]),
        arg_slot=_ids(np.searchsorted(incidence_updated, arg_entity)),
        trigger_ids=_ids(trigger_ids),
        type_ids=_ids(type_ids),
        temporal_src=_ids(links[:, ::-1].ravel()[by_receiver]),
        temporal_slot=_ids(temporal_slot),
        temporal_updated=_ids(temporal_updated),
        incidence_event=_ids(incidence[:, 1]),
        incidence_slot=_ids(incidence_slot),
        incidence_updated=_ids(incidence_updated),
        edge_src=_ids(edge_src),
        edge_rel=_ids(edge_rel),
        edge_dst=_ids(edge_dst),
    )


def index_plan(graph: HeterogeneousGraph) -> IndexPlan:
    """The graph's index plan, built on first use and kept on the graph."""
    if graph.plan_cache is None:
        graph.plan_cache = _build_index_plan(graph)
    return graph.plan_cache


def stage1_entity_to_event(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    entity_vecs: Tensor,
    config: ModelConfig,
) -> tuple[Tensor, Tensor]:
    """Attention over each event's arguments.

    Returns (alpha, events): alpha holds every argument's attention
    weight in ``IndexPlan.arg_event`` order, events is the (n_events, 3d)
    matrix [trigger, type, attended argument message].  Logits come from a
    linear map of [trigger, type, argument entity, role], split into one
    score per trigger, type, entity and role row, which each argument slot
    gathers and sums; one record leaky-rectifies and normalizes them per
    event.  Messages are likewise projected once per distinct argument
    entity and gathered.
    """
    n_ev = len(graph.events)
    plan = index_plan(graph)
    arg_event = plan.arg_event

    t_rows = tape.gather_rows(params["trigger_embeddings"], plan.trigger_ids)
    c_rows = tape.gather_rows(params["event_type_embeddings"], plan.type_ids)
    attn = tape.reshape(params["attn_entity_to_event"], (4, -1))

    def score(rows: Tensor, part: int, slots: np.ndarray) -> Tensor:
        # one score per row, gathered per argument slot
        return tape.gather_rows(tape.rows_affine(rows, tape.gather_rows(attn, [part])), slots)

    # the distinct argument entities, scored and projected once each
    u = tape.gather_rows(entity_vecs, plan.incidence_updated)
    logits = tape.add_n(
        [
            score(params["trigger_embeddings"], 0, plan.arg_trigger),
            score(params["event_type_embeddings"], 1, plan.arg_type),
            score(u, 2, plan.arg_slot),
            score(params["role_embeddings"], 3, plan.arg_role),
        ]
    )
    alpha = tape.segment_softmax(tape.reshape(logits, (-1,)), arg_event, n_ev, config.leaky_slope)
    messages = tape.relu(tape.rows_affine(u, params["entity_message"]))
    lam = tape.pool_sum(messages, plan.arg_slot, alpha, arg_event, n_ev)
    return alpha, tape.concat_cols(t_rows, c_rows, lam)


def stage2_temporal(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    events: Tensor,
    config: ModelConfig,
) -> Tensor:
    """Add the gated mean temporal-neighbor message to each event vector.

    Events with no temporal neighbors pass through bitwise unchanged;
    all messages read the stage-1 vectors, so updates are synchronous.
    """
    if config.no_temporal_links or config.temporal_mix == 0.0 or events.data.shape[0] == 0:
        return events
    plan = index_plan(graph)
    updated = plan.temporal_updated
    if not updated.size:
        return events
    mean = tape.pool_mean(events, plan.temporal_src, plan.temporal_slot, updated.size)
    msg = tape.relu(tape.rows_affine(mean, params["temporal_message"]))
    return tape.add_rows(events, updated, msg, config.temporal_mix)


def stage3_event_to_entity(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    entity_vecs: Tensor,
    tilde_events: Tensor,
    config: ModelConfig,
) -> tuple[Tensor | None, Tensor]:
    """Attention over the events an entity takes part in, added residually.

    Returns (beta, entities): beta holds every incidence row's attention
    weight in ``IndexPlan.incidence_slot`` order, or is None when the
    stage is skipped; entities is the (n, d) entity matrix, in which
    entities with no incident events pass through bitwise unchanged.
    As in stage 1, a logit is one event score plus one entity score, one
    record rectifies and normalizes the logits per entity, and each
    event's message is projected once; incidence rows gather them.
    """
    if config.no_events or config.event_mix == 0.0 or tilde_events.data.shape[0] == 0:
        return None, entity_vecs
    plan = index_plan(graph)
    inc_slot, updated = plan.incidence_slot, plan.incidence_updated
    if not updated.size:
        return None, entity_vecs

    attn = tape.reshape(params["attn_event_to_entity"], (4, -1))
    v = tape.gather_rows(entity_vecs, updated)
    event_part = tape.reshape(tape.gather_rows(attn, [0, 1, 2]), (1, -1))
    event_score = tape.rows_affine(tilde_events, event_part)
    entity_score = tape.rows_affine(v, tape.gather_rows(attn, [3]))
    logits = tape.add(
        tape.gather_rows(event_score, plan.incidence_event),
        tape.gather_rows(entity_score, inc_slot),
    )
    beta = tape.segment_softmax(
        tape.reshape(logits, (-1,)), inc_slot, len(updated), config.leaky_slope)
    messages = tape.rows_affine(tilde_events, params["event_projection"])
    mix = tape.pool_sum(messages, plan.incidence_event, beta, inc_slot, len(updated))
    return beta, tape.add_rows(entity_vecs, updated, mix, config.event_mix)


def stage4_entity_message_pass(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    tilde_entity_vecs: Tensor,
) -> Tensor:
    """Relational update: circular-correlation composition summed over
    neighbors (inverse edges included) plus a self loop, then one shared
    linear map and ReLU.  The edges come grouped by relation, so the
    composition is one circulant product per relation, made and summed
    a chunk of whole relation runs at a time."""
    plan = index_plan(graph)
    agg = tape.circ_corr_sum(
        tilde_entity_vecs, params["relation_embeddings"],
        plan.edge_src, plan.edge_rel, plan.edge_dst, graph.entity_count,
    )
    return tape.relu(tape.rows_affine(agg, params["relation_message"]))


@dataclass
class LayerTrace:
    alpha: Tensor | None
    events: Tensor | None
    tilde_events: Tensor | None
    beta: Tensor | None
    tilde_entities: Tensor
    entities_out: Tensor


def _layer(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    config: ModelConfig,
    vecs: Tensor,
) -> LayerTrace:
    """One layer's four stages over the (n, d) entity tensor ``vecs``."""
    if config.no_events:
        alpha = events = tilde_events = beta = None
        tilde_entities = vecs
    else:
        alpha, events = stage1_entity_to_event(tape, graph, params, vecs, config)
        tilde_events = stage2_temporal(tape, graph, params, events, config)
        beta, tilde_entities = stage3_event_to_entity(
            tape, graph, params, vecs, tilde_events, config
        )
    out = stage4_entity_message_pass(tape, graph, params, tilde_entities)
    return LayerTrace(alpha, events, tilde_events, beta, tilde_entities, out)


def forward_model_traced(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    config: ModelConfig,
) -> tuple[Tensor, list[LayerTrace]]:
    """All layers, returning the final (n, d) entity tensor and per-layer traces."""
    vecs: Tensor = params["entity_embeddings"]
    traces: list[LayerTrace] = []
    for _ in range(config.num_layers):
        traces.append(_layer(tape, graph, params, config, vecs))
        vecs = traces[-1].entities_out
    return vecs, traces


def forward_model(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    config: ModelConfig,
) -> Tensor:
    """All layers, returning the final (n, d) entity tensor.  No layer's
    tensors outlive the layer, so the tape's records hold only what their
    backward reads."""
    vecs: Tensor = params["entity_embeddings"]
    for _ in range(config.num_layers):
        vecs = _layer(tape, graph, params, config, vecs).entities_out
    return vecs
