"""Workloads of the eventke benchmark: seeded inputs, set-up, training, ranking.

Everything goes through eventke's public API: the ``kgdata`` parsers and
``build_graph``, ``trainer.build_model`` and ``trainer.train_epoch``, and
``evaluation.kg_completion_eval``.  Inputs are text lines from the
generators in ``tests/_synth.py``, so they pass through the real parsers.

One client runs a closed loop: each set-up, training pass and ranking
call starts when the previous one has finished.  Every workload trains and
ranks, because every end-to-end metric is reported on every workload; the
workloads differ in the graph, the training schedule, the ranking protocol
and each phase's share of the run.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from _synth import dataset_lines, memorization_lines
from eventke import evaluation, kgdata, layers, scoring, trainer
from eventke.autodiff import Tape, Tensor

from tracer import QUERY, STAGES, STEP, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "fingerprints.json")

OPS = (
    "gather_rows", "segment_sum", "segment_mean", "segment_softmax", "rows_affine",
    "circ_corr_rows", "replace_rows", "conv2d", "affine", "bce_with_logits",
)

# d=64, L=2 and the ConvE-style scorer defaults, as in the README config
MODEL = layers.ModelConfig(seed=0)
SCORER = scoring.ConvScorerConfig()
ORACLE_QUERIES = 40


@dataclass(frozen=True)
class Workload:
    name: str
    # dataset_lines arguments without the seed; None: the memorization fixture
    dataset: tuple[int, ...] | None
    # generator seed of a fixed graph; None: the graph comes from --seed
    fixture_seed: int | None
    k_neg: int
    batch_groups: int
    pass_groups: int | None  # query groups per training pass; None: all (an epoch)
    query_stride: int  # rank every n-th triple
    filtered: bool
    train_share: float  # share of --seconds given to training; ranking gets the rest
    min_rank_calls: int
    setup_reps: int

    @property
    def input_key(self) -> str:
        if self.dataset is None:
            return "memorization_lines"
        return "dataset_lines" + repr(self.dataset).replace(" ", "")


WIDE = (2000, 20, 24000, 1600, 2, 5, 1600)

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="memorize",
            dataset=None, fixture_seed=7, k_neg=1, batch_groups=6, pass_groups=None,
            query_stride=1, filtered=False, train_share=0.75,
            min_rank_calls=5, setup_reps=25,
        ),
        Workload(
            name="wide_graph",
            dataset=WIDE, fixture_seed=None, k_neg=64, batch_groups=32, pass_groups=128,
            query_stride=6, filtered=True, train_share=0.6,
            min_rank_calls=2, setup_reps=11,
        ),
    )
}


# -- inputs -------------------------------------------------------------------


def input_seed(w: Workload, seed: int) -> int:
    return seed if w.fixture_seed is None else w.fixture_seed


def make_lines(w: Workload, seed: int) -> tuple[list[str], list[str], list[str]]:
    if w.dataset is None:
        return memorization_lines(input_seed(w, seed))
    return dataset_lines(*w.dataset, seed=input_seed(w, seed))


def fingerprint(lines: tuple[list[str], ...]) -> str:
    h = hashlib.sha256()
    for part in lines:
        h.update("\n".join(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def checked_inputs(w: Workload, seed: int) -> tuple[tuple[list[str], ...], dict]:
    """Generate the lines twice; both must match each other and the pinned sha256.

    A mismatch means the same seed no longer gives the same workload, which
    would make runs incomparable, so it stops the run.
    """
    lines = make_lines(w, seed)
    digest = fingerprint(lines)
    gen_seed = input_seed(w, seed)
    if fingerprint(make_lines(w, seed)) != digest:
        raise SystemExit(f"error: {w.input_key} is not deterministic for seed {gen_seed}")
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh).get(w.input_key, {}).get(str(gen_seed))
    if pinned is not None and pinned != digest:
        raise SystemExit(
            f"error: {w.input_key} seed {gen_seed} now yields inputs with sha256 {digest}, "
            f"pinned {pinned}: the workload changed"
        )
    return lines, {"generator": w.input_key, "generator_seed": gen_seed, "sha256": digest,
                   "pinned": pinned is not None}


# -- set-up -------------------------------------------------------------------


@dataclass
class Model:
    graph: kgdata.HeterogeneousGraph
    triples: list[kgdata.KnowledgeTriple]
    store: object


def _release_free_memory() -> None:
    """Return the allocator's free memory to the system, as in a fresh process.

    Without this, consecutive set-ups alternate between reusing freed pages
    and faulting in new ones, and the page faults are half of a small
    graph's set-up time.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc
        pass


def build(lines: tuple[list[str], ...]) -> tuple[float, Model]:
    """Parse the lines, build the graph and the model; returns the wall time."""
    t_lines, e_lines, l_lines = lines
    _release_free_memory()
    start = perf_counter()
    triples, entities, relations = kgdata.parse_triples(t_lines)
    parsed = kgdata.parse_events(e_lines, entities)
    links = kgdata.parse_temporal_links(l_lines, parsed.event_ids)
    graph = kgdata.build_graph(triples, entities, relations, parsed, links)
    graph, store = trainer.build_model(graph, MODEL, SCORER)
    return perf_counter() - start, Model(graph, triples, store)


def graph_counts(model: Model) -> dict[str, int]:
    g = model.graph
    return {
        "entities": g.entity_count,
        "triples": len(g.triples),
        "events": g.event_count,
        "argument_rows": g.argument_link_count,
        "stage4_edge_rows": sum(len(n) for n in g.entity_neighbors) + g.entity_count,
        "temporal_links": len(g.temporal_links),
    }


# -- the run --------------------------------------------------------------------


class StepClock:
    """Stamps the return of every ``trainer.adam_step``: one per optimizer step."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def __enter__(self) -> "StepClock":
        self._original = original = trainer.adam_step

        def stamped(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                self.stamps.append(perf_counter())

        trainer.adam_step = stamped
        return self

    def __exit__(self, *exc) -> None:
        trainer.adam_step = self._original


@dataclass
class TrainSample:
    groups: int = 0
    steps: list[float] = field(default_factory=list)
    pass_steps: list[list[float]] = field(default_factory=list)  # step times of each pass
    losses: list[float] = field(default_factory=list)
    seconds: float = 0.0


class RunState:
    """One workload's model and training state, with the operation counts."""

    def __init__(self, w: Workload, model: Model, clock: StepClock, train_seed: int) -> None:
        self.w = w
        self.m = model
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.known_tails = scoring.known_tails_from_triples(model.triples)
        groups = trainer.group_queries(model.triples)
        self.train_groups = groups if w.pass_groups is None else groups[: w.pass_groups]
        self.train_config = trainer.TrainConfig(k_neg=w.k_neg, batch_groups=w.batch_groups, seed=train_seed)
        self.sampler = scoring.NegativeSampler(
            model.graph.entity_count, w.k_neg, train_seed, known_tails=self.known_tails
        )
        self.train_seed = train_seed
        self.step_counter = [0]
        self.epoch = 0
        self.queries = model.triples[:: w.query_stride]
        self.protocol = evaluation.EvalProtocol(mode="full", filtered=w.filtered)
        # (epoch the ranked parameters come from, their ranks)
        self.reference: tuple[int, list[float]] | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    # -- training ---------------------------------------------------------

    def train_pass(self, groups, sample: TrainSample | None) -> bool:
        """One ``train_epoch`` call over ``groups``; a step fails if it raises
        or if the pass's loss is not finite.  Returns whether the pass ran clean."""
        self.epoch += 1
        n_steps = math.ceil(len(groups) / self.w.batch_groups)
        self.attempted += n_steps
        self.clock.stamps = [perf_counter()]
        try:
            loss = trainer.train_epoch(
                self.m.graph, self.m.store, MODEL, SCORER, groups, self.sampler,
                # every pass shuffles the groups into the same order, so passes
                # repeat the same steps and a step's time can be averaged over them
                self.train_config, self.epoch, np.random.default_rng([self.train_seed, 404]),
                self.step_counter,
            )
        except Exception:
            traceback.print_exc()
            self.failed += n_steps - (len(self.clock.stamps) - 1)
            return False
        end = perf_counter()
        if not math.isfinite(loss):
            self.failed += n_steps
            print(f"non-finite training loss in epoch {self.epoch}", file=sys.stderr)
            return False
        if sample is not None:
            stamps = self.clock.stamps
            sample.seconds += end - stamps[0]
            sample.groups += len(groups)
            steps = [b - a for a, b in zip(stamps, stamps[1:])]
            sample.steps.extend(steps)
            sample.pass_steps.append(steps)
            sample.losses.append(loss)
        return True

    def warm_up(self) -> None:
        """One untimed step, so lazily built caches exist before timing."""
        self.train_pass(self.train_groups[: self.w.batch_groups], None)

    def train(self, passes: int) -> TrainSample:
        sample = TrainSample()
        for _ in range(passes):
            if not self.train_pass(self.train_groups, sample):
                break
        return sample

    def step_alloc_peak_mb(self) -> float:
        """tracemalloc peak over one training step."""
        tracemalloc.start()
        try:
            self.train_pass(self.train_groups[: self.w.batch_groups], None)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- ranking ----------------------------------------------------------

    def rank_call(self) -> float | None:
        """One ``kg_completion_eval`` call over the queries; returns its seconds.

        The first call's ranks are checked against the oracle; later calls on
        the same parameters must reproduce them exactly.
        """
        self.attempted += len(self.queries)
        before = perf_counter()
        try:
            report = evaluation.kg_completion_eval(
                self.m.graph, self.m.store, MODEL, SCORER, self.queries,
                self.protocol, known_tails=self.known_tails,
            )
        except Exception:
            traceback.print_exc()
            self.failed += len(self.queries)
            return None
        took = perf_counter() - before
        ranks = [q[3] for q in report.ranks]
        if self.reference is None:
            self.reference = (self.epoch, ranks)
            self.check_oracle(ranks)
        elif self.reference[0] == self.epoch:
            self.check(ranks == self.reference[1], "ranks differ between calls")
        else:
            self.reference = (self.epoch, ranks)
        return took

    def rank(self, calls: int) -> list[float]:
        out = []
        for _ in range(calls):
            took = self.rank_call()
            if took is None:
                break
            out.append(took)
        return out

    def check_oracle(self, ranks: list[float]) -> None:
        """Recompute a fixed sample of ranks by an independent route.

        Scores come from the tape path (``forward_model`` then
        ``score_against_all``), filtered candidates are removed with plain
        set logic, and the mid-rank is read off a sort.
        """
        g, store = self.m.graph, self.m.store
        n = g.entity_count
        tape = Tape()
        vecs = layers.forward_model(tape, g, store, MODEL)
        every_row = Tensor(vecs.data)
        relations = store["relation_embeddings"].data
        picks = sorted(set(np.linspace(0, len(self.queries) - 1, ORACLE_QUERIES).astype(int)))
        for i in picks:
            h, r, t = self.queries[i]
            scores = scoring.score_against_all(
                tape, store, SCORER, Tensor(vecs.data[h]), Tensor(relations[r]), every_row
            ).data
            others = self.known_tails.get((h, r), set()) - {t} if self.w.filtered else set()
            keep = [c for c in range(n) if c not in others]
            expected = sort_rank(scores[keep], keep.index(t))
            self.check(
                expected == ranks[i],
                f"query {(h, r, t)}: oracle rank {expected}, eval rank {ranks[i]}",
            )

    def filtered_queries(self) -> int:
        return sum(1 for h, r, t in self.queries if self.known_tails.get((h, r), set()) - {t})


def sort_rank(scores: np.ndarray, gold: int) -> float:
    """Mid-rank from a descending sort: mean position of the gold's tie block."""
    order = np.argsort(-scores, kind="stable")
    positions = np.empty_like(order)
    positions[order] = np.arange(1, len(scores) + 1)
    return float(np.mean(positions[np.flatnonzero(scores == scores[gold])]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- metrics ------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    details: dict
    attempted: int
    failed: int


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    lines, inputs = checked_inputs(w, seed)
    took, model = build(lines)
    inputs.update(graph_counts(model))
    # the fixture trains exactly as the acceptance suite trains it
    train_seed = seed if w.fixture_seed is None else MODEL.seed
    details = {"inputs": inputs, "train_seed": train_seed, "samples": {}}

    with StepClock() as clock:
        s = RunState(w, model, clock, train_seed)
        s.warm_up()
        if trace:
            metrics = traced_run(w, s, lines, seed, out_dir, details)
        else:
            metrics = timed_run(w, s, seconds, lines, [took], details)
    details["error_rate"] = s.failed / s.attempted
    details["operations"] = {"attempted": s.attempted, "failed": s.failed}
    return Outcome(metrics, details, s.attempted, s.failed)


def timed_run(w: Workload, s: RunState, seconds: float, lines, setup_times, details) -> dict:
    """Set-ups, training passes and ranking calls interleaved over the run.

    A shared host's speed drifts over tens of seconds, so each kind of operation
    samples the whole run instead of one contiguous stretch of it.  Set-ups
    are spread evenly in time; otherwise the next operation is whichever
    phase is behind its share of the time spent so far.
    """
    t = TrainSample()
    calls: list[float] = []
    last_pass = last_call = 0.0
    start = perf_counter()
    while True:
        if len(setup_times) < w.setup_reps and (
            perf_counter() - start >= seconds * len(setup_times) / w.setup_reps
        ):
            setup_times.append(build(lines)[0])
            continue
        train_turn = t.seconds <= w.train_share * (t.seconds + sum(calls))
        short_train, short_rank = not t.losses, len(calls) < w.min_rank_calls
        if short_train != short_rank:
            train_turn = short_train
        elif not short_train:
            if perf_counter() - start + (last_pass if train_turn else last_call) > seconds:
                break
        if train_turn:
            before = perf_counter()
            if not s.train_pass(s.train_groups, t):
                break
            last_pass = perf_counter() - before
        else:
            took = s.rank_call()
            if took is None:
                break
            calls.append(took)
            last_call = took
    while len(setup_times) < w.setup_reps:
        setup_times.append(build(lines)[0])
    if not t.steps or not calls:
        return {}
    steps_ms = [x * 1e3 for x in t.steps]
    per_call = len(s.queries)
    details["samples"].update(
        setups=len(setup_times), steps=len(steps_ms), passes=len(t.losses),
        rank_calls=len(calls), queries_per_call=per_call,
    )
    if len(steps_ms) >= 100:  # at least ten samples beyond the 90th percentile
        details["train_step_ms.p90"] = statistics.quantiles(steps_ms, n=10)[-1]
    # On a shared host the speed switches between a fast and a slow phase
    # (about 1.45 apart) every few tens of seconds.  A median or a minimum over
    # the run jumps from one phase's value to the other's as their shares of
    # the run change; a total moves in proportion to them.  So throughputs are
    # totals over the run, and as every pass repeats the same steps, a step's
    # time is its mean over the passes.
    mean_steps = [statistics.fmean(times) for times in zip(*t.pass_steps)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_groups_per_s": (t.groups / t.seconds, "groups/s"),
        "train_step_ms.p50": (statistics.median(mean_steps) * 1e3, "ms"),
        # the first full pass: later passes swing by +-15% between train seeds
        "train_loss": (t.losses[0], "loss"),
        "eval_queries_per_s": (per_call * len(calls) / sum(calls), "queries/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(w: Workload, s: RunState, lines, seed: int, out_dir: str, details) -> dict:
    """Each phase runs untraced, then the same amount again traced."""
    tracer = Tracer()
    metrics: dict[str, tuple[float, str]] = {}

    with tracer:
        parse, graph_build = [], []
        for _ in range(w.setup_reps):
            since = len(tracer.spans)
            build(lines)
            parse.append(sum(
                tracer.total(f"kgdata.{name}", since)[0]
                for name in ("parse_triples", "parse_events", "parse_temporal_links")
            ))
            graph_build.append(tracer.total("kgdata.build_graph", since)[0])
    details["samples"]["traced_setups"] = len(parse)
    metrics["kgdata.parse_s"] = (statistics.median(parse), "s")
    metrics["kgdata.build_graph_s"] = (statistics.median(graph_build), "s")

    def train():
        plain = s.train(1)
        since, records_since = len(tracer.spans), len(tracer.records_per_step)
        with tracer:
            traced = s.train(1)
        if not plain.steps or not traced.steps:
            return
        steps = tracer.unit_totals("step", since)

        def per_step(key: str, scale: float = 1e3) -> float:
            return statistics.median(u.get(key, 0.0) * scale for u in steps)

        for k, name in enumerate(STAGES.values(), start=1):
            metrics[f"layers.stage{k}.fwd_ms"] = (per_step(name), "ms")
            metrics[f"layers.stage{k}.bwd_ms"] = (per_step(name + ".bwd"), "ms")
        metrics["layers.forward_ms"] = (per_step("layers.forward_model"), "ms")
        for op in OPS:
            metrics[f"autodiff.{op}.fwd_ms"] = (per_step(f"autodiff.{op}"), "ms")
            metrics[f"autodiff.{op}.bwd_ms"] = (per_step(f"autodiff.{op}.bwd"), "ms")
        metrics["autodiff.records_per_step"] = (
            statistics.median(tracer.records_per_step[records_since:]), "count"
        )
        metrics["autodiff.backward_ms"] = (per_step("autodiff.backward"), "ms")
        metrics["autodiff.step_alloc_peak_mb"] = (s.step_alloc_peak_mb(), "MB")
        metrics["scoring.triple_loss.fwd_ms"] = (per_step("scoring.triple_loss"), "ms")
        metrics["scoring.triple_loss.bwd_ms"] = (per_step("scoring.triple_loss.bwd"), "ms")
        metrics["scoring.sample_group_ms"] = (per_step("scoring.sample_group"), "ms")
        metrics["scoring.queries_per_step"] = (per_step("scoring.triple_loss#", 1.0), "count")
        metrics["trainer.adam_step_ms"] = (per_step("trainer.adam_step"), "ms")
        untraced = statistics.median(plain.steps) * 1e3
        traced_ms = statistics.median(traced.steps) * 1e3
        metrics["trace.step_ms.untraced"] = (untraced, "ms")
        metrics["trace.step_ms.traced"] = (traced_ms, "ms")
        metrics["trace.step_overhead"] = (traced_ms / untraced - 1.0, "ratio")
        step_time = sum(u[STEP] for u in steps)
        metrics["trace.step_coverage"] = (1.0 - sum(u["self"] for u in steps) / step_time, "ratio")
        details["samples"].update(traced_steps=len(steps), untraced_steps=len(plain.steps))

    def rank():
        plain = s.rank(w.min_rank_calls)
        since = len(tracer.spans)
        with tracer:
            traced = s.rank(w.min_rank_calls)
        if not plain or not traced:
            return
        queries = tracer.unit_totals("query", since)
        n = len(queries)
        forward_s, forward_calls = tracer.total("evaluation.forward", since)
        metrics["evaluation.forward_s"] = (forward_s / forward_calls, "s")
        metrics["evaluation.trunk_us"] = (
            sum(u.get("evaluation.frozen_trunk", 0.0) for u in queries) / n * 1e6, "us"
        )
        metrics["evaluation.rank_us"] = (
            sum(u.get("evaluation.rank_of_gold", 0.0) for u in queries) / n * 1e6, "us"
        )
        metrics["evaluation.candidates_us"] = (sum(u["self"] for u in queries) / n * 1e6, "us")
        metrics["evaluation.filtered_queries"] = (s.filtered_queries(), "count")
        metrics["trace.eval_overhead"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"
        )
        query_time = sum(u[QUERY] for u in queries)
        metrics["trace.query_coverage"] = (1.0 - sum(u["self"] for u in queries) / query_time, "ratio")
        details["samples"].update(traced_queries=n, rank_calls=len(plain) + len(traced))

    train()
    rank()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{w.name}-seed{seed}.jsonl")
    tracer.write(path)
    details["spans"] = {"file": os.path.relpath(path), "count": len(tracer.spans)}
    return metrics

