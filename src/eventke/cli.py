"""Command-line interface: train, eval, graph-inspect, rank-diff.

One INI config file drives every run.  Relative paths inside it resolve
against the config file's own directory, and ``--out`` against the
working directory.  The fully-resolved config is echoed into the output
directory so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import dataclass, field, fields, replace

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
    check_split_ratios,
    load_pretrained_vectors,
    parse_entity_labels,
    parse_events,
    parse_temporal_links,
    parse_triples,
    split_dataset,
)
from .layers import ModelConfig, index_plan
from .scoring import ConvScorerConfig, known_tails_from_triples
from .trainer import TrainConfig, build_model, fit, load_checkpoint, save_checkpoint

logger = logging.getLogger("eventke.cli")  # also when run as __main__


class CliError(Exception):
    """User-facing failure; printed as a single `error:` line."""


Path = str  # a file path; a relative one resolves against the config's directory
Ratios = tuple[float, float, float]


@dataclass
class RunConfig:
    """Every setting of a run; a field's default applies when its key is left out."""

    triples: Path | None = None
    events: Path | None = None
    temporal: Path | None = None
    pretrained: Path | None = None
    entity_labels: Path | None = None
    split_ratios: Ratios = (0.8, 0.1, 0.1)
    split_seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    scorer: ConvScorerConfig = field(default_factory=ConvScorerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    protocol: EvalProtocol = field(default_factory=EvalProtocol)
    eval_split: str = "test"
    classify: bool = False
    fine_tune: bool = True
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        try:
            check_split_ratios(self.split_ratios)
        except ValueError as exc:
            raise ValueError(f"[data] {exc}") from None
        if self.split_seed < 0:
            raise ValueError("[data] split_seed must be >= 0")
        splits = ("train", "val", "test", "all")
        if self.eval_split not in splits:
            raise ValueError(f"[eval] split must be one of {splits}, got {self.eval_split!r}")
        if self.scorer.dim != self.model.dim:
            raise ValueError(f"[scorer] rows x cols = {self.scorer.rows}x{self.scorer.cols}"
                             f" does not match [model] dim {self.model.dim}")


# The config schema: one row per INI key, in the order the echo writes
# them, as (section, key, owner, field).  ``owner`` names the RunConfig
# attribute whose dataclass holds the field; None is RunConfig itself.
_SCHEMA = (
    ("data", "triples", None, "triples"),
    ("data", "events", None, "events"),
    ("data", "temporal", None, "temporal"),
    ("data", "pretrained", None, "pretrained"),
    ("data", "entity_labels", None, "entity_labels"),
    ("data", "split_ratios", None, "split_ratios"),
    ("data", "split_seed", None, "split_seed"),
    ("model", "dim", "model", "dim"),
    ("model", "layers", "model", "num_layers"),
    ("model", "temporal_mix", "model", "temporal_mix"),
    ("model", "event_mix", "model", "event_mix"),
    ("model", "leaky_slope", "model", "leaky_slope"),
    ("model", "no_temporal_links", "model", "no_temporal_links"),
    ("model", "random_events", "model", "random_events"),
    ("model", "no_events", "model", "no_events"),
    ("model", "seed", "model", "seed"),
    ("scorer", "rows", "scorer", "rows"),
    ("scorer", "cols", "scorer", "cols"),
    ("scorer", "filters", "scorer", "filters"),
    ("scorer", "kernel", "scorer", "kernel"),
    ("train", "learning_rate", "train", "learning_rate"),
    ("train", "max_epochs", "train", "max_epochs"),
    ("train", "patience", "train", "patience"),
    ("train", "batch_groups", "train", "batch_groups"),
    ("train", "k_neg", "train", "k_neg"),
    ("train", "mean_reduction", "train", "mean_reduction"),
    ("train", "shuffle", "train", "shuffle"),
    ("train", "seed", "train", "seed"),
    ("eval", "protocol", "protocol", "mode"),
    ("eval", "k", "protocol", "k"),
    ("eval", "filtered", "protocol", "filtered"),
    ("eval", "split", None, "eval_split"),
    ("eval", "classify", None, "classify"),
    ("eval", "fine_tune", None, "fine_tune"),
    ("eval", "seed", "protocol", "seed"),
    ("output", "dir", None, "out_dir"),
)


def _ratios(raw: str) -> Ratios:
    parts = tuple(float(x) for x in raw.split(","))
    if len(parts) != 3:
        raise ValueError(f"needs 3 values, got {len(parts)}")
    return parts


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# (parse, format) by field annotation; every module of the package
# postpones annotations, so a dataclass field's type is its source text
_KINDS = {
    "int": (int, str),
    "float": (float, repr),
    "bool": (_as_bool, lambda value: "true" if value else "false"),
    "str": (str, str),
    "Path | None": (str, str),
    "Ratios": (_ratios, lambda ratios: ",".join(repr(r) for r in ratios)),
}
_DEFAULTS = RunConfig()


def _holder(config: RunConfig, owner: str | None):
    return config if owner is None else getattr(config, owner)


def _kind(owner: str | None, name: str) -> str:
    return next(f.type for f in fields(_holder(_DEFAULTS, owner)) if f.name == name)


def _format(owner: str | None, name: str, value) -> str:
    return _KINDS[_kind(owner, name)][1](value)


def parse_run_config(
    path: str, seed_override: int | None = None, out_override: str | None = None
) -> RunConfig:
    """Read a run config: one value per table row, the field's default when
    the key is left out; ``--seed`` replaces every seed, ``--out`` the dir."""
    cp = configparser.ConfigParser()
    try:
        _parse_file(path, cp.read_file, path)
    except configparser.Error as exc:
        raise CliError(f"{path}: {exc}") from None
    for section in cp.sections():
        allowed = {key for in_section, key, _, _ in _SCHEMA if in_section == section}
        if not allowed:
            raise CliError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(cp[section]) - allowed)
        if unknown:
            raise CliError(f"{path}: unknown key {unknown[0]!r} in [{section}]")

    base = os.path.dirname(os.path.abspath(path))
    given: dict[str | None, dict] = {owner: {} for _, _, owner, _ in _SCHEMA}
    for section, key, owner, name in _SCHEMA:
        kind = _kind(owner, name)
        try:
            raw = cp.get(section, key, fallback=None)
            if raw is not None:
                value = _KINDS[kind][0](raw)
                # a relative path resolves against the config's directory
                given[owner][name] = os.path.join(base, value) if kind == "Path | None" else value
        except (ValueError, configparser.Error) as exc:
            raise CliError(f"{path}: [{section}] {key}: {exc}") from None
        if seed_override is not None and key in ("seed", "split_seed"):
            given[owner][name] = seed_override
    own = given.pop(None)
    if out_override:
        # a command-line path resolves against the working directory
        own["out_dir"] = os.path.abspath(out_override)
    if "triples" not in own:
        raise CliError(f"{path}: [data] triples is required")

    sections = {owner: section for section, _, owner, _ in _SCHEMA}
    for owner, values in given.items():
        try:
            own[owner] = replace(getattr(_DEFAULTS, owner), **values)
        except ValueError as exc:
            raise CliError(f"{path}: [{sections[owner]}] {exc}") from None
    try:
        return RunConfig(**own)  # its own checks name their sections
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def write_effective_config(config: RunConfig, path: str) -> None:
    """Echo the fully-resolved config; reparsing it reproduces the run."""
    echo: dict[str, dict[str, str]] = {}
    for section, key, owner, name in _SCHEMA:
        value = getattr(_holder(config, owner), name)
        if value is not None:
            # the reader interpolates, so a literal % is written as %%
            echo.setdefault(section, {})[key] = _format(owner, name, value).replace("%", "%%")
    cp = configparser.ConfigParser()
    cp.read_dict(echo)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cp.write(fh)


# -- shared command plumbing ------------------------------------------------


def _parse_file(path: str, parse, *args):
    """``parse(lines, *args)`` over the file's lines; a failure names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.readlines(), *args)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _load_graph(config: RunConfig) -> tuple[HeterogeneousGraph, dict[str, list[KnowledgeTriple]]]:
    """The training split's graph and each split's triples (``train``, ``val``,
    ``test``, ``all``).  Every triple is parsed, so the vocabularies cover the
    held-out queries, but messages never pass over a held-out triple."""
    triples, entities, relations = _parse_file(config.triples, parse_triples)
    parsed_events, links = None, []
    if config.events is not None:
        parsed_events = _parse_file(config.events, parse_events, entities)
        if config.temporal is not None:
            links = _parse_file(config.temporal, parse_temporal_links, parsed_events.event_ids)
    elif config.temporal is not None:
        raise CliError("temporal links configured without an events file")
    splits = split_dataset(len(triples), config.split_ratios, config.split_seed)
    parts = {name: [triples[i] for i in idxs] for name, idxs in (
        ("train", splits.train), ("val", splits.validation), ("test", splits.test))}
    parts["all"] = triples
    return build_graph(parts["train"], entities, relations, parsed_events, links), parts


# -- commands ---------------------------------------------------------------


def _writing_config(args: argparse.Namespace) -> RunConfig:
    """The run config of a command that writes files, which needs a dir."""
    config = parse_run_config(args.config, args.seed, args.out)
    if config.out_dir is None:
        raise CliError(f"{args.config}: [output] dir is required (or pass --out)")
    return config


def _pretrained_vectors(config: RunConfig, graph: HeterogeneousGraph) -> dict | None:
    """The [data] pretrained vectors, of the model's width; unused ones are one WARNING."""
    if config.pretrained is None:
        return None
    table = _parse_file(config.pretrained, load_pretrained_vectors)
    width = next((len(vec) for vec in table.values()), config.model.dim)
    if width != config.model.dim:
        raise CliError(f"{config.pretrained}: vectors have {width} values, [model] dim is"
                       f" {config.model.dim}")
    matched = sum(name in graph.entities for name in table)
    if matched < len(table) or not matched:
        logger.warning("%s: %d of its %d identifiers match no entity; %d of %d entities keep"
                       " their random init", config.pretrained, len(table) - matched, len(table),
                       graph.entity_count - matched, graph.entity_count)
    return table


def cmd_train(args: argparse.Namespace) -> int:
    config = _writing_config(args)
    graph, triples = _load_graph(config)
    used, store = build_model(graph, config.model, config.scorer, _pretrained_vectors(config, graph))
    result = fit(
        used, store, config.model, config.scorer, triples["train"], triples["val"], config.train)

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
    labelled, classes = _parse_file(config.entity_labels, parse_entity_labels, graph.entities)
    examples = [((entity,), label) for entity, label in labelled]
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
    config = _writing_config(args)
    if not os.path.exists(args.checkpoint):
        raise CliError(f"{args.checkpoint}: checkpoint not found")
    checkpoint = load_checkpoint(args.checkpoint)
    stored = {"model": checkpoint.model_config, "scorer": checkpoint.scorer_config}
    for section, key, owner, name in _SCHEMA:
        if owner in stored:
            ours, theirs = getattr(getattr(config, owner), name), getattr(stored[owner], name)
            if ours != theirs:
                logger.warning(
                    "[%s] %s is %s in %s but %s in the checkpoint; the checkpoint's is used",
                    section, key, _format(owner, name, ours), args.config,
                    _format(owner, name, theirs))
    graph, triples = _load_graph(config)
    target, protocol = triples[config.eval_split], config.protocol
    if not target:
        raise CliError(f"{args.config}: [eval] split: {config.eval_split!r} contains no triples")
    if protocol.mode == "sampled" and protocol.k >= graph.entity_count:
        raise CliError(f"{args.config}: [eval] k: the sampled protocol needs K < entity"
                       f" vocabulary ({protocol.k} >= {graph.entity_count})")
    # read before the ranking, so a bad labels file costs no work
    entity_task = _entity_label_splits(graph, config) if config.classify else None

    try:
        used, store = build_model(graph, checkpoint.model_config, checkpoint.scorer_config)
        checkpoint.restore_into(store)
    except ValueError as exc:
        raise CliError(
            f"{args.checkpoint}: does not fit the graph of {args.config}: {exc}") from None
    known = known_tails_from_triples(triples["train"]) if protocol.filtered else None
    report = kg_completion_eval(
        used, store, checkpoint.model_config, checkpoint.scorer_config,
        target, protocol, known_tails=known,
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
        if entity_task is not None:
            splits, n_classes = entity_task
            ents = train_head_on_model(
                used, store, checkpoint.model_config, splits, n_classes, head_config)
            print(f"{'Ents':<9}{ents.accuracy:.4f}")
        rel_splits = {name: relation_examples(triples[name]) for name in ("train", "val", "test")}
        empty = [name for name, examples in rel_splits.items() if not examples]
        if empty:
            logger.warning("relation probe skipped: no triples in split(s) %s", ", ".join(empty))
        else:
            rels = train_head_on_model(
                used, store, checkpoint.model_config, rel_splits,
                graph.relation_count, head_config)
            print(f"{'Rels':<9}{rels.accuracy:.4f}")
    print(f"report: {report_path}")
    return 0


def cmd_graph_inspect(args: argparse.Namespace) -> int:
    config = parse_run_config(args.config, args.seed)
    graph, triples = _load_graph(config)
    print(f"{'Entities':<10}{graph.entity_count}")
    print(f"{'Triples':<10}{len(graph.triples)}")
    print(f"{'HeldOut':<10}{len(triples['val']) + len(triples['test'])}")
    # ConvE's inverse leakage: held-out (h, r, t) with a training triple (t, ., h)
    trained = {(h, t) for h, _, t in triples["train"]}
    print(f"{'Reversed':<10}{sum((t, h) in trained for h, _, t in triples['val'] + triples['test'])}")
    print(f"{'Events':<10}{graph.event_count}")
    print(f"{'Args':<10}{graph.argument_link_count}")
    # stage 4's edge rows: one per triple end, plus each entity's self loop
    edge_dst = index_plan(graph).edge_dst
    degree = np.bincount(edge_dst, minlength=graph.entity_count) - 1
    print(f"{'RelTypes':<10}{graph.augmented_relation_count}")
    print(f"{'EdgeRows':<10}{edge_dst.size}")
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
        except (ValueError, KeyError, TypeError) as exc:
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

    for name, func, text in (
        ("train", cmd_train, "fit a model, write checkpoint and loss log"),
        ("eval", cmd_eval, "rank test triples against a checkpoint"),
        ("graph-inspect", cmd_graph_inspect, "print dataset size and degree counts"),
    ):
        p = sub.add_parser(name, parents=[logs], help=text)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--seed", type=int, help="override every configured seed")
        if func is not cmd_graph_inspect:
            p.add_argument("--out", help="output directory (overrides [output] dir)")
        if func is cmd_eval:
            p.add_argument("--checkpoint", required=True, help="trained model file")
        p.set_defaults(func=func)

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
