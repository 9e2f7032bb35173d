"""Command-line interface: train, eval, graph-inspect, rank-diff.

One INI config file drives every run.  Relative paths inside it resolve
against the config file's own directory, and the fully-resolved config
is echoed into the output directory so a run can be reproduced from its
artifacts alone.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .evaluation import (
    EvalProtocol,
    HeadConfig,
    RankingReport,
    kg_completion_eval,
    rank_diff,
    relation_examples,
    train_head_on_model,
)
from .kgdata import (
    HeterogeneousGraph,
    KnowledgeTriple,
    ParseError,
    build_graph,
    load_pretrained_vectors,
    parse_events,
    parse_temporal_links,
    parse_triples,
    split_dataset,
)
from .layers import ModelConfig
from .scoring import ConvScorerConfig, known_tails_from_triples
from .trainer import TrainConfig, build_model, fit, load_checkpoint, save_checkpoint


class CliError(Exception):
    """User-facing failure; printed as a single `error:` line."""


@dataclass
class RunConfig:
    triples: str
    events: str | None
    temporal: str | None
    pretrained: str | None
    entity_labels: str | None
    split_ratios: tuple[float, float, float]
    split_seed: int
    model: ModelConfig
    scorer: ConvScorerConfig
    train: TrainConfig
    protocol: EvalProtocol
    eval_split: str
    classify: bool
    fine_tune: bool
    out_dir: str


_ALLOWED_KEYS = {
    "data": {"triples", "events", "temporal", "pretrained", "entity_labels",
             "split_ratios", "split_seed"},
    "model": {"dim", "layers", "temporal_mix", "event_mix", "leaky_slope",
              "no_temporal_links", "random_events", "no_events", "seed"},
    "scorer": {"rows", "cols", "filters", "kernel"},
    "train": {"learning_rate", "max_epochs", "patience", "batch_groups",
              "k_neg", "mean_reduction", "shuffle", "seed"},
    "eval": {"protocol", "k", "filtered", "split", "classify", "fine_tune", "seed"},
    "output": {"dir"},
}

_EVAL_SPLITS = ("train", "val", "test", "all")


def parse_run_config(
    path: str,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise CliError(f"{path}: {exc}") from None
    if not read:
        raise CliError(f"{path}: config file not found")
    for section in cp.sections():
        allowed = _ALLOWED_KEYS.get(section)
        if allowed is None:
            raise CliError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(cp[section]) - allowed)
        if unknown:
            raise CliError(f"{path}: unknown key {unknown[0]!r} in [{section}]")

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str | None) -> str | None:
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(base, p)

    def get(section: str, key: str, fallback=None, convert=str):
        raw = cp.get(section, key, fallback=fallback)
        if raw is None:
            return None
        try:
            return convert(raw)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key}: {exc}") from None

    try:
        triples = resolve(get("data", "triples"))
        if triples is None:
            raise CliError(f"{path}: [data] triples is required")
        parts = get("data", "split_ratios", "0.8,0.1,0.1", _ratios)
        split_seed = get("data", "split_seed", "0", int)

        model = _build(
            "model", ModelConfig,
            dim=get("model", "dim", "64", int),
            num_layers=get("model", "layers", "2", int),
            temporal_mix=get("model", "temporal_mix", "0.5", float),
            event_mix=get("model", "event_mix", "0.5", float),
            leaky_slope=get("model", "leaky_slope", "0.2", float),
            no_temporal_links=get("model", "no_temporal_links", "false", _as_bool),
            random_events=get("model", "random_events", "false", _as_bool),
            no_events=get("model", "no_events", "false", _as_bool),
            seed=get("model", "seed", "0", int),
        )
        scorer = _build(
            "scorer", ConvScorerConfig,
            rows=get("scorer", "rows", "8", int),
            cols=get("scorer", "cols", "8", int),
            filters=get("scorer", "filters", "32", int),
            kernel=get("scorer", "kernel", "3", int),
        )
        train = _build(
            "train", TrainConfig,
            learning_rate=get("train", "learning_rate", "1e-4", float),
            max_epochs=get("train", "max_epochs", "200", int),
            patience=get("train", "patience", "10", int),
            batch_groups=get("train", "batch_groups", "32", int),
            k_neg=get("train", "k_neg", "64", int),
            mean_reduction=get("train", "mean_reduction", "false", _as_bool),
            shuffle=get("train", "shuffle", "true", _as_bool),
            seed=get("train", "seed", "0", int),
        )
        protocol = _build(
            "eval", EvalProtocol,
            mode=get("eval", "protocol", "full"),
            k=get("eval", "k", "500", int),
            seed=get("eval", "seed", "0", int),
            filtered=get("eval", "filtered", "false", _as_bool),
        )
        eval_split = get("eval", "split", "test")
        if eval_split not in _EVAL_SPLITS:
            raise ValueError(f"[eval] split must be one of {_EVAL_SPLITS}, got {eval_split!r}")
        classify = get("eval", "classify", "false", _as_bool)
        fine_tune = get("eval", "fine_tune", "true", _as_bool)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None

    out_dir = out_override or get("output", "dir")
    if out_dir is None:
        raise CliError(f"{path}: [output] dir is required (or pass --out)")
    if seed_override is not None:
        split_seed = seed_override
        model = ModelConfig(**{**_asdict(model), "seed": seed_override})
        train = TrainConfig(**{**_asdict(train), "seed": seed_override})
        protocol = EvalProtocol(**{**_asdict(protocol), "seed": seed_override})

    return RunConfig(
        triples=triples,
        events=resolve(get("data", "events")),
        temporal=resolve(get("data", "temporal")),
        pretrained=resolve(get("data", "pretrained")),
        entity_labels=resolve(get("data", "entity_labels")),
        split_ratios=parts,
        split_seed=split_seed,
        model=model,
        scorer=scorer,
        train=train,
        protocol=protocol,
        eval_split=eval_split,
        classify=classify,
        fine_tune=fine_tune,
        out_dir=resolve(out_dir),
    )


def _build(section: str, cls, **fields):
    """``cls(**fields)``; a range error it raises names the INI section."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ValueError(f"[{section}] {exc}") from None


def _ratios(raw: str) -> tuple[float, float, float]:
    parts = [float(x) for x in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"needs 3 values, got {len(parts)}")
    return parts[0], parts[1], parts[2]


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _asdict(obj) -> dict:
    import dataclasses

    return dataclasses.asdict(obj)


def write_effective_config(config: RunConfig, path: str) -> None:
    """Echo the fully-resolved config; reparsing it reproduces the run."""
    cp = configparser.ConfigParser()
    data = {"triples": config.triples}
    for key in ("events", "temporal", "pretrained", "entity_labels"):
        value = getattr(config, key)
        if value is not None:
            data[key] = value
    data["split_ratios"] = ",".join(repr(r) for r in config.split_ratios)
    data["split_seed"] = str(config.split_seed)
    cp["data"] = data
    cp["model"] = {
        "dim": str(config.model.dim),
        "layers": str(config.model.num_layers),
        "temporal_mix": repr(config.model.temporal_mix),
        "event_mix": repr(config.model.event_mix),
        "leaky_slope": repr(config.model.leaky_slope),
        "no_temporal_links": _fmt_bool(config.model.no_temporal_links),
        "random_events": _fmt_bool(config.model.random_events),
        "no_events": _fmt_bool(config.model.no_events),
        "seed": str(config.model.seed),
    }
    cp["scorer"] = {
        "rows": str(config.scorer.rows),
        "cols": str(config.scorer.cols),
        "filters": str(config.scorer.filters),
        "kernel": str(config.scorer.kernel),
    }
    cp["train"] = {
        "learning_rate": repr(config.train.learning_rate),
        "max_epochs": str(config.train.max_epochs),
        "patience": str(config.train.patience),
        "batch_groups": str(config.train.batch_groups),
        "k_neg": str(config.train.k_neg),
        "mean_reduction": _fmt_bool(config.train.mean_reduction),
        "shuffle": _fmt_bool(config.train.shuffle),
        "seed": str(config.train.seed),
    }
    cp["eval"] = {
        "protocol": config.protocol.mode,
        "k": str(config.protocol.k),
        "filtered": _fmt_bool(config.protocol.filtered),
        "split": config.eval_split,
        "classify": _fmt_bool(config.classify),
        "fine_tune": _fmt_bool(config.fine_tune),
        "seed": str(config.protocol.seed),
    }
    cp["output"] = {"dir": config.out_dir}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cp.write(fh)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


# -- shared command plumbing ------------------------------------------------


def _load_graph(config: RunConfig) -> HeterogeneousGraph:
    def read_lines(path: str) -> list[str]:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.readlines()
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror}") from None

    try:
        triples, entities, relations = parse_triples(read_lines(config.triples))
    except ParseError as exc:
        raise CliError(f"{config.triples}: {exc}") from None
    parsed_events = None
    links = []
    if config.events is not None:
        try:
            parsed_events = parse_events(read_lines(config.events), entities)
        except ParseError as exc:
            raise CliError(f"{config.events}: {exc}") from None
        if config.temporal is not None:
            try:
                links = parse_temporal_links(read_lines(config.temporal), parsed_events.event_ids)
            except ParseError as exc:
                raise CliError(f"{config.temporal}: {exc}") from None
    elif config.temporal is not None:
        raise CliError("temporal links configured without an events file")
    return build_graph(triples, entities, relations, parsed_events, links)


def _split_triples(
    graph: HeterogeneousGraph, config: RunConfig
) -> tuple[list[KnowledgeTriple], list[KnowledgeTriple], list[KnowledgeTriple]]:
    splits = split_dataset(len(graph.triples), config.split_ratios, config.split_seed)
    pick = lambda idxs: [graph.triples[i] for i in idxs]
    return pick(splits.train), pick(splits.validation), pick(splits.test)


def _load_init_table(config: RunConfig) -> dict[str, np.ndarray] | None:
    if config.pretrained is None:
        return None
    try:
        with open(config.pretrained, encoding="utf-8") as fh:
            return load_pretrained_vectors(fh)
    except OSError as exc:
        raise CliError(f"{config.pretrained}: {exc.strerror}") from None
    except ParseError as exc:
        raise CliError(f"{config.pretrained}: {exc}") from None


# -- commands ---------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    config = parse_run_config(args.config, args.seed, args.out)
    graph = _load_graph(config)
    train_t, val_t, _ = _split_triples(graph, config)
    used, store = build_model(graph, config.model, config.scorer, _load_init_table(config))
    result = fit(used, store, config.model, config.scorer, train_t, val_t, config.train)

    os.makedirs(config.out_dir, exist_ok=True)
    ckpt_path = os.path.join(config.out_dir, "model.ckpt")
    save_checkpoint(result.checkpoint, ckpt_path)
    csv_path = os.path.join(config.out_dir, "loss.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# params={store.parameter_count()}\n")
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in result.history:
            fh.write(f"{epoch},{train_loss!r},{val_loss!r}\n")
    write_effective_config(config, os.path.join(config.out_dir, "config.ini"))

    last = result.history[-1][0]
    print(f"trained {last} epochs ({'stopped early' if result.stopped_early else 'ran to limit'})")
    print(f"best epoch {result.checkpoint.epoch}, validation loss {result.checkpoint.best_val_loss!r}")
    print(f"checkpoint: {ckpt_path}")
    print(f"loss log:   {csv_path}")
    return 0


def _entity_label_splits(
    graph: HeterogeneousGraph, config: RunConfig
) -> tuple[dict[str, list], int] | None:
    if config.entity_labels is None:
        return None
    try:
        with open(config.entity_labels, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"{config.entity_labels}: {exc.strerror}") from None
    classes: dict[str, int] = {}
    examples = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise CliError(
                f"{config.entity_labels}: line {lineno}: expected entity and label"
            )
        name, label = fields
        if name not in graph.entities:
            raise CliError(f"{config.entity_labels}: line {lineno}: unknown entity {name!r}")
        label_id = classes.setdefault(label, len(classes))
        examples.append(((graph.entities.get(name),), label_id))
    if len(examples) < 3:
        raise CliError(f"{config.entity_labels}: need at least 3 labeled entities")
    order = np.random.default_rng(config.protocol.seed).permutation(len(examples))
    shuffled = [examples[i] for i in order]
    c1 = max(1, int(len(shuffled) * 0.8))
    c2 = max(c1 + 1, int(len(shuffled) * 0.9))
    c1 = min(c1, len(shuffled) - 2)
    c2 = min(c2, len(shuffled) - 1)
    splits = {"train": shuffled[:c1], "val": shuffled[c1:c2], "test": shuffled[c2:]}
    return splits, len(classes)


def cmd_eval(args: argparse.Namespace) -> int:
    config = parse_run_config(args.config, args.seed, args.out)
    if not os.path.exists(args.checkpoint):
        raise CliError(f"{args.checkpoint}: checkpoint not found")
    checkpoint = load_checkpoint(args.checkpoint)
    graph = _load_graph(config)
    train_t, val_t, test_t = _split_triples(graph, config)
    target = {
        "train": train_t, "val": val_t, "test": test_t, "all": list(graph.triples),
    }[config.eval_split]
    if not target:
        raise CliError(f"eval split {config.eval_split!r} contains no triples")

    used, store = build_model(graph, checkpoint.model_config, checkpoint.scorer_config)
    checkpoint.restore_into(store)
    known = known_tails_from_triples(train_t) if config.protocol.filtered else None
    report = kg_completion_eval(
        used, store, checkpoint.model_config, checkpoint.scorer_config,
        target, config.protocol, known_tails=known,
    )

    os.makedirs(config.out_dir, exist_ok=True)
    report_path = os.path.join(config.out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    write_effective_config(config, os.path.join(config.out_dir, "config.ini"))

    print(f"{'MRR':<9}{'MR':<9}{'Hits@10':<9}{'Hits@20':<9}")
    print(f"{report.mrr:<9.4f}{report.mr:<9.4f}{report.hits10:<9.4f}{report.hits20:<9.4f}")
    if config.classify:
        head_config = HeadConfig(fine_tune=config.fine_tune, seed=config.protocol.seed)
        entity_task = _entity_label_splits(graph, config)
        if entity_task is not None:
            splits, n_classes = entity_task
            ents = train_head_on_model(
                used, store, checkpoint.model_config, splits, n_classes, head_config)
            print(f"{'Ents':<9}{ents.accuracy:.4f}")
        rel_splits = {
            "train": relation_examples(train_t),
            "val": relation_examples(val_t),
            "test": relation_examples(test_t),
        }
        if all(rel_splits.values()):
            rels = train_head_on_model(
                used, store, checkpoint.model_config, rel_splits,
                graph.relation_count, head_config)
            print(f"{'Rels':<9}{rels.accuracy:.4f}")
    print(f"report: {report_path}")
    return 0


def cmd_graph_inspect(args: argparse.Namespace) -> int:
    config = parse_run_config(args.config, args.seed, args.out)
    graph = _load_graph(config)
    print(f"{'Entities':<10}{graph.entity_count}")
    print(f"{'Rels':<10}{len(graph.triples)}")
    print(f"{'Events':<10}{graph.event_count}")
    print(f"{'Args':<10}{graph.argument_link_count}")
    # stage 4: one product per relation type, one row per edge and self loop
    degree = np.array([len(neighbors) for neighbors in graph.entity_neighbors])
    print(f"{'RelTypes':<10}{graph.augmented_relation_count}")
    print(f"{'EdgeRows':<10}{degree.sum() + graph.entity_count}")
    print(f"{'MaxInDeg':<10}{degree.max()}")
    print(f"{'MeanInDeg':<10}{degree.mean():.2f}")
    print(f"{'Isolated':<10}{np.count_nonzero(degree == 0)}")
    return 0


def cmd_rank_diff(args: argparse.Namespace) -> int:
    reports = []
    for path in (args.report_a, args.report_b):
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(RankingReport.from_json(fh.read()))
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror}") from None
        except (ValueError, KeyError) as exc:
            raise CliError(f"{path}: not a ranking report ({exc})") from None
    rows = rank_diff(reports[0], reports[1])
    print("head\trelation\ttail\trank_a\trank_b\timprovement")
    for row in rows:
        h, r, t = row["query"]
        print(f"{h}\t{r}\t{t}\t{row['rank_a']!r}\t{row['rank_b']!r}\t{row['improvement']!r}")
    return 0


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventke",
        description="Event-enhanced knowledge graph embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument(
        "--log-level", default="WARNING", type=str.upper,
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="lowest level of the package's log lines on stderr (default WARNING)",
    )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, help="override every configured seed")

    p_train = sub.add_parser(
        "train", parents=[logs], help="fit a model, write checkpoint and loss log"
    )
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", parents=[logs], help="rank test triples against a checkpoint")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="trained model file")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser(
        "graph-inspect", parents=[logs], help="print dataset size and degree counts"
    )
    add_common(p_inspect)
    p_inspect.set_defaults(func=cmd_graph_inspect)

    p_diff = sub.add_parser("rank-diff", parents=[logs], help="compare two ranking reports")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.set_defaults(func=cmd_rank_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the package's loggers report to stderr for the length of the command
    package = logging.getLogger("eventke")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = package.level
    package.addHandler(handler)
    package.setLevel(args.log_level)
    try:
        return args.func(args)
    except (CliError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
