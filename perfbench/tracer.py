"""Span tracer for the eventke benchmark.

The tracer patches eventke's public functions and the ``Tape`` op methods
from outside the package and restores them on exit; nothing under ``src/``
changes.  Each call becomes a span (name, start, end, parent span) kept in
memory.  Training steps and ranking queries are not function calls, so
their spans are cut at the boundaries the package does expose: a step ends
when ``trainer.adam_step`` returns, a query ends when
``evaluation.rank_of_gold`` returns.

Backward time is attributed by wrapping the closure each op appends to the
tape.  The wrapped closure charges its time to the op and to the span that
enclosed the op during the forward pass (a layer stage or
``scoring.triple_loss``).  That wrapper is the only code here that reads the
tape's private record list.

The tracer is single-threaded: ranking must run with ``EVENTKE_THREADS=1``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from eventke import autodiff, evaluation, kgdata, layers, scoring, trainer

# spans that own the backward time of the ops recorded inside them
STAGES = {
    "stage1_entity_to_event": "layers.stage1",
    "stage2_temporal": "layers.stage2",
    "stage3_event_to_entity": "layers.stage3",
    "stage4_entity_message_pass": "layers.stage4",
}
TRIPLE_LOSS = "scoring.triple_loss"

STEP = "trainer.step"
QUERY = "evaluation.query"

# span record fields
NAME, START, END, PARENT, UNIT, OWNER = range(6)


def tape_ops() -> list[str]:
    """Public op methods of ``Tape``: everything that records, not the replay."""
    return sorted(
        name
        for name, fn in vars(autodiff.Tape).items()
        if callable(fn) and not name.startswith("_") and name != "backward"
    )


class Tracer:
    """Context manager: patches on entry, restores on exit, keeps the spans."""

    def __init__(self) -> None:
        # [name, start, end, parent index, unit, owner]; unit is
        # ("step", i), ("query", i) or None
        self.spans: list[list] = []
        self.records_per_step: list[int] = []
        self._stack: list[int] = []
        self._owners: list[str] = []
        self._unit: tuple[str, int] | None = None
        self._unit_span: int | None = None
        self._counts = {STEP: 0, QUERY: 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, owner: str | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._unit, owner])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][NAME]} closed out of order")

    def _begin_unit(self, name: str) -> None:
        self._unit = (name.rsplit(".", 1)[1], self._counts[name])
        self._counts[name] += 1
        self._unit_span = self._open(name)

    def _end_unit(self, trailing: bool = False) -> None:
        sid = self._unit_span
        if sid is None:
            return
        self._close(sid)
        self._unit = self._unit_span = None
        if trailing:
            # opened after the last boundary: nothing of the unit ran in it
            if sid == len(self.spans) - 1:
                self.spans.pop()
            else:
                self.spans[sid][NAME] += ".tail"

    # -- patching ---------------------------------------------------------

    def _patch(self, obj: object, attr: str, wrapper_factory) -> None:
        original = getattr(obj, attr)
        self._patches.append((obj, attr, original))
        setattr(obj, attr, functools.wraps(original)(wrapper_factory(original)))

    def _span(self, name: str, owner: bool = False):
        def factory(original):
            def wrapper(*args, **kwargs):
                sid = self._open(name)
                if owner:
                    self._owners.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    if owner:
                        self._owners.pop()
                    self._close(sid)

            return wrapper

        return factory

    def _op(self, op: str):
        fwd_name, bwd_name = f"autodiff.{op}", f"autodiff.{op}.bwd"

        def factory(original):
            def wrapper(tape, *args, **kwargs):
                owner = self._owners[-1] if self._owners else None
                before = len(tape._records)
                sid = self._open(fwd_name, owner)
                try:
                    out = original(tape, *args, **kwargs)
                finally:
                    self._close(sid)
                if len(tape._records) == before + 1:
                    tape._records[-1] = self._timed_backward(tape._records[-1], bwd_name, owner)
                return out

            return wrapper

        return factory

    def _timed_backward(self, record, name: str, owner: str | None):
        def timed() -> None:
            sid = self._open(name, owner)
            try:
                record()
            finally:
                self._close(sid)

        return timed

    def _backward(self, original):
        def wrapper(tape, loss):
            if self._unit is not None and self._unit[0] == "step":
                self.records_per_step.append(len(tape))
            sid = self._open("autodiff.backward")
            try:
                return original(tape, loss)
            finally:
                self._close(sid)

        return wrapper

    def _unit_boundary(self, name: str, unit: str, first: bool = False):
        """Span for a call whose return ends one unit and starts the next."""

        def factory(original):
            def wrapper(*args, **kwargs):
                sid = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(sid)
                    if not first:
                        self._end_unit()
                    self._begin_unit(unit)

            return wrapper

        return factory

    def _unit_scope(self, name: str, unit: str | None):
        """Span for a call that contains whole units; a step starts with it."""

        def factory(original):
            def wrapper(*args, **kwargs):
                sid = self._open(name)
                if unit is not None:
                    self._begin_unit(unit)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._end_unit(trailing=True)
                    self._close(sid)

            return wrapper

        return factory

    def __enter__(self) -> "Tracer":
        for attr in ("parse_triples", "parse_events", "parse_temporal_links", "build_graph"):
            self._patch(kgdata, attr, self._span(f"kgdata.{attr}"))
        self._patch(trainer, "build_model", self._span("trainer.build_model"))
        for attr, name in STAGES.items():
            self._patch(layers, attr, self._span(name, owner=True))
        for module in (trainer, evaluation):
            self._patch(module, "forward_model", self._span("layers.forward_model"))
        for op in tape_ops():
            self._patch(autodiff.Tape, op, self._op(op))
        self._patch(autodiff.Tape, "backward", self._backward)
        self._patch(trainer, "triple_loss", self._span(TRIPLE_LOSS, owner=True))
        self._patch(scoring.NegativeSampler, "sample_group", self._span("scoring.sample_group"))
        self._patch(trainer, "train_epoch", self._unit_scope("trainer.train_epoch", STEP))
        self._patch(trainer, "adam_step", self._unit_boundary("trainer.adam_step", STEP))
        self._patch(evaluation, "kg_completion_eval", self._unit_scope("evaluation.kg_completion_eval", None))
        self._patch(
            evaluation, "frozen_entity_matrix",
            self._unit_boundary("evaluation.forward", QUERY, first=True),
        )
        self._patch(evaluation, "frozen_trunk", self._span("evaluation.frozen_trunk"))
        self._patch(evaluation, "rank_of_gold", self._unit_boundary("evaluation.rank_of_gold", QUERY))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- aggregation ------------------------------------------------------

    def unit_totals(self, kind: str, since: int = 0) -> list[dict[str, float]]:
        """Per unit of ``kind`` ("step" or "query"), in order: seconds per span
        name, ``<owner>.bwd`` seconds per owner, ``<name>#`` call counts,
        and ``self`` (the unit span's time not covered by its children)."""
        units: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child_time: dict[int, float] = defaultdict(float)
        unit_spans: dict[int, int] = {}
        for sid in range(since, len(self.spans)):
            name, start, end, parent, unit, owner = self.spans[sid]
            dur = end - start
            if parent is not None:
                child_time[parent] += dur
            if unit is None or unit[0] != kind:
                continue
            totals = units[unit[1]]
            totals[name] += dur
            totals[name + "#"] += 1
            if owner is not None and name.endswith(".bwd"):
                totals[owner + ".bwd"] += dur
            if name in (STEP, QUERY):
                unit_spans[unit[1]] = sid
        out = []
        for index in sorted(unit_spans):
            sid = unit_spans[index]
            totals = units[index]
            totals["self"] = totals[self.spans[sid][NAME]] - child_time[sid]
            out.append(totals)
        return out

    def total(self, name: str, since: int = 0) -> tuple[float, int]:
        """Seconds and calls of every span called ``name`` from ``since`` on."""
        seconds, calls = 0.0, 0
        for span in self.spans[since:]:
            if span[NAME] == name:
                seconds += span[END] - span[START]
                calls += 1
        return seconds, calls

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent, unit, owner."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
