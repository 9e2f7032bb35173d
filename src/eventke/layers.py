"""Four-stage bipartite aggregation over entity and event nodes.

One layer runs, in order: entity-to-event attention, temporal message
passing between events, event-to-entity attention, then relational
message passing over the triple graph.  Only entity vectors change from
layer to layer; trigger, event-type, role, and relation tables are
shared by all layers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore, Tape, Tensor
from .kgdata import EventRecord, HeterogeneousGraph, ParsedEvents, TemporalLink, build_graph

__all__ = [
    "ModelConfig",
    "init_parameters",
    "randomize_event_structure",
    "IndexPlan",
    "index_plan",
    "argument_index",
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
        if self.temporal_mix < 0 or self.event_mix < 0:
            raise ValueError("mixing weights must be >= 0")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _embedding_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(dim), size=(count, dim))


def init_parameters(
    graph: HeterogeneousGraph,
    config: ModelConfig,
    store: ParameterStore | None = None,
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
    if store is None:
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
    all_pairs = list(itertools.combinations(range(n_events), 2))
    n_links = len(graph.temporal_links)
    if n_links > len(all_pairs):
        raise ValueError("cannot draw that many distinct temporal links")
    picked = rng.choice(len(all_pairs), size=n_links, replace=False)
    links = [TemporalLink(*all_pairs[i]) for i in picked]

    parsed = ParsedEvents(
        events=events,
        event_ids=graph.event_ids,
        triggers=graph.triggers,
        event_types=graph.event_types,
        roles=graph.roles,
    )
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
    ``incidence_updated`` entities; stage 4 one row per relational edge
    in both directions plus each entity's self loop.  ``*_slot`` arrays
    number the updated nodes of a stage 0, 1, ..  ``edge_distinct`` is
    (first, inverse) over the distinct (source, relation) edge pairs:
    many heads share one (tail, relation) pair, and stage 4 composes each
    pair once.
    """

    arg_event: np.ndarray
    arg_entity: np.ndarray
    arg_role: np.ndarray
    arg_trigger: np.ndarray
    arg_type: np.ndarray
    trigger_ids: np.ndarray
    type_ids: np.ndarray
    temporal_src: np.ndarray
    temporal_slot: np.ndarray
    temporal_updated: np.ndarray
    incidence_event: np.ndarray
    incidence_slot: np.ndarray
    incidence_entity: np.ndarray
    incidence_updated: np.ndarray
    edge_src: np.ndarray
    edge_rel: np.ndarray
    edge_dst: np.ndarray
    edge_distinct: tuple[np.ndarray, np.ndarray]


def _ids(values) -> np.ndarray:
    # read-only: the tape ops cache scatter work for indices that cannot change
    ids = np.array(values, dtype=np.intp)
    ids.flags.writeable = False
    return ids


def _build_index_plan(graph: HeterogeneousGraph) -> IndexPlan:
    arg_event, arg_entity, arg_role = [], [], []
    for j, event in enumerate(graph.events):
        for entity, role in event.arguments:
            arg_event.append(j)
            arg_entity.append(entity)
            arg_role.append(role)

    temporal_src, temporal_slot, temporal_updated = [], [], []
    for j, neigh in enumerate(graph.event_temporal_neighbors):
        if not neigh:
            continue
        slot = len(temporal_updated)
        temporal_updated.append(j)
        for k in neigh:
            temporal_src.append(k)
            temporal_slot.append(slot)

    incidence_event, incidence_slot, incidence_updated = [], [], []
    for i, incident in enumerate(graph.entity_events):
        if not incident:
            continue
        # an entity filling several roles still sees the event once
        event_set = dict.fromkeys(event_id for event_id, _pos in incident)
        slot = len(incidence_updated)
        incidence_updated.append(i)
        for event_id in event_set:
            incidence_slot.append(slot)
            incidence_event.append(event_id)

    edge_src, edge_rel, edge_dst = [], [], []
    self_rel = graph.self_loop_relation
    for i, neighbors in enumerate(graph.entity_neighbors):
        for j, r in neighbors:
            edge_src.append(j)
            edge_rel.append(r)
            edge_dst.append(i)
        edge_src.append(i)
        edge_rel.append(self_rel)
        edge_dst.append(i)

    pair_keys = _ids(edge_src) * graph.augmented_relation_count + _ids(edge_rel)
    _, first, inverse = np.unique(pair_keys, return_index=True, return_inverse=True)

    trigger_ids = [ev.trigger for ev in graph.events]
    type_ids = [ev.event_type for ev in graph.events]

    return IndexPlan(
        arg_event=_ids(arg_event),
        arg_entity=_ids(arg_entity),
        arg_role=_ids(arg_role),
        arg_trigger=_ids([trigger_ids[j] for j in arg_event]),
        arg_type=_ids([type_ids[j] for j in arg_event]),
        trigger_ids=_ids(trigger_ids),
        type_ids=_ids(type_ids),
        temporal_src=_ids(temporal_src),
        temporal_slot=_ids(temporal_slot),
        temporal_updated=_ids(temporal_updated),
        incidence_event=_ids(incidence_event),
        incidence_slot=_ids(incidence_slot),
        incidence_entity=_ids([incidence_updated[k] for k in incidence_slot]),
        incidence_updated=_ids(incidence_updated),
        edge_src=_ids(edge_src),
        edge_rel=_ids(edge_rel),
        edge_dst=_ids(edge_dst),
        edge_distinct=(first, inverse),
    )


def index_plan(graph: HeterogeneousGraph) -> IndexPlan:
    """The graph's index plan, built on first use and kept on the graph."""
    if graph.plan_cache is None:
        graph.plan_cache = _build_index_plan(graph)
    return graph.plan_cache


def argument_index(graph: HeterogeneousGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened (event, entity, role) ids, one row per argument slot."""
    plan = index_plan(graph)
    return plan.arg_event, plan.arg_entity, plan.arg_role


def stage1_entity_to_event(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    entity_vecs: Tensor,
    config: ModelConfig,
) -> tuple[Tensor, Tensor]:
    """Attention over each event's arguments.

    Returns (alpha, events): alpha holds every argument's attention
    weight in argument_index order, events is the (n_events, 3d) matrix
    [trigger, type, attended argument message].  Logits come from a
    leaky-ReLU scored linear map of [trigger, type, argument entity,
    role].
    """
    n_ev = len(graph.events)
    plan = index_plan(graph)
    arg_event = plan.arg_event

    t_rows = tape.gather_rows(params["trigger_embeddings"], plan.trigger_ids)
    c_rows = tape.gather_rows(params["event_type_embeddings"], plan.type_ids)
    arg_v = tape.gather_rows(entity_vecs, plan.arg_entity)
    feats = tape.concat_cols(
        tape.gather_rows(params["trigger_embeddings"], plan.arg_trigger),
        tape.gather_rows(params["event_type_embeddings"], plan.arg_type),
        arg_v,
        tape.gather_rows(params["role_embeddings"], plan.arg_role),
    )
    logits = tape.leaky_relu(
        tape.reshape(tape.rows_affine(feats, params["attn_entity_to_event"]), (-1,)),
        config.leaky_slope,
    )
    alpha = tape.segment_softmax(logits, arg_event, n_ev)
    messages = tape.relu(tape.rows_affine(arg_v, params["entity_message"]))
    lam = tape.segment_sum(tape.scale_rows(messages, alpha), arg_event, n_ev)
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
    mean = tape.segment_mean(
        tape.gather_rows(events, plan.temporal_src), plan.temporal_slot, updated.size
    )
    msg = tape.relu(tape.rows_affine(mean, params["temporal_message"]))
    bumped = tape.add(tape.gather_rows(events, updated), tape.scale(msg, config.temporal_mix))
    return tape.replace_rows(events, updated, bumped)


def stage3_event_to_entity(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    entity_vecs: Tensor,
    tilde_events: Tensor,
    config: ModelConfig,
    collect_betas: dict[int, np.ndarray] | None = None,
) -> Tensor:
    """Attention over the events an entity takes part in, added residually.

    Entities with no incident events pass through bitwise unchanged.
    ``collect_betas`` maps entity id to its attention weights over its
    event set, for callers that want to inspect them.
    """
    if config.no_events or config.event_mix == 0.0 or tilde_events.data.shape[0] == 0:
        return entity_vecs
    plan = index_plan(graph)
    inc_slot, updated = plan.incidence_slot, plan.incidence_updated
    if not updated.size:
        return entity_vecs

    inc_e = tape.gather_rows(tilde_events, plan.incidence_event)
    inc_v = tape.gather_rows(entity_vecs, plan.incidence_entity)
    logits = tape.leaky_relu(
        tape.reshape(
            tape.rows_affine(tape.concat_cols(inc_e, inc_v), params["attn_event_to_entity"]), (-1,)
        ),
        config.leaky_slope,
    )
    beta = tape.segment_softmax(logits, inc_slot, len(updated))
    messages = tape.rows_affine(inc_e, params["event_projection"])
    mix = tape.segment_sum(tape.scale_rows(messages, beta), inc_slot, len(updated))
    bumped = tape.add(tape.gather_rows(entity_vecs, updated), tape.scale(mix, config.event_mix))
    if collect_betas is not None:
        for slot, i in enumerate(updated.tolist()):
            collect_betas[i] = beta.data[inc_slot == slot]
    return tape.replace_rows(entity_vecs, updated, bumped)


def stage4_entity_message_pass(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    tilde_entity_vecs: Tensor,
) -> Tensor:
    """Relational update: circular-correlation composition summed over
    neighbors (inverse edges included) plus a self loop, then one shared
    linear map and ReLU."""
    plan = index_plan(graph)
    phi = tape.circ_corr_rows(
        tape.gather_rows(tilde_entity_vecs, plan.edge_src),
        tape.gather_rows(params["relation_embeddings"], plan.edge_rel),
        plan.edge_distinct,
    )
    agg = tape.segment_sum(phi, plan.edge_dst, graph.entity_count)
    return tape.relu(tape.rows_affine(agg, params["relation_message"]))


@dataclass
class LayerTrace:
    alpha: Tensor | None
    events: Tensor | None
    tilde_events: Tensor | None
    tilde_entities: Tensor
    entities_out: Tensor


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
        if config.no_events:
            alpha = events = tilde_events = None
            tilde_entities = vecs
        else:
            alpha, events = stage1_entity_to_event(tape, graph, params, vecs, config)
            tilde_events = stage2_temporal(tape, graph, params, events, config)
            tilde_entities = stage3_event_to_entity(
                tape, graph, params, vecs, tilde_events, config
            )
        vecs = stage4_entity_message_pass(tape, graph, params, tilde_entities)
        traces.append(LayerTrace(alpha, events, tilde_events, tilde_entities, vecs))
    return vecs, traces


def forward_model(
    tape: Tape,
    graph: HeterogeneousGraph,
    params: ParameterStore,
    config: ModelConfig,
) -> Tensor:
    return forward_model_traced(tape, graph, params, config)[0]
