import configparser
import json
import os
import shutil

import pytest

from eventke import cli
from eventke.cli import main, parse_run_config, write_effective_config
from eventke.evaluation import kg_completion_eval
from eventke.kgdata import parse_triples, split_dataset
from eventke.layers import index_plan
from eventke.trainer import load_checkpoint, save_checkpoint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "toy")
TOY_CONFIG = os.path.join(FIXTURES, "config.ini")


def run_cli(*argv):
    return main(list(argv))


# -- graph-inspect ----------------------------------------------------------


def test_graph_inspect_prints_fixture_counts(capsys):
    assert run_cli("graph-inspect", "--config", TOY_CONFIG) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "Entities  10",
        "Triples   9",
        "HeldOut   3",
        "Reversed  0",
        "Events    4",
        "Args      9",
        "RelTypes  7",
        "EdgeRows  28",
        "MaxInDeg  3",
        "MeanInDeg 1.80",
        "Isolated  0",
    ]


def test_graph_inspect_counts_isolated_entities(tmp_path, capsys):
    # c and d appear only as event arguments: no triple reaches them; every
    # triple is a training triple, so none is held out of the graph
    (tmp_path / "triples.tsv").write_text("a\tr\tb\na\ts\tb\n")
    (tmp_path / "events.jsonl").write_text(json.dumps({
        "event_id": "e1", "trigger": "t", "event_type": "T",
        "arguments": [{"entity": "c", "role": "x"}, {"entity": "d", "role": "x"}],
    }) + "\n")
    (tmp_path / "config.ini").write_text(
        "[data]\ntriples = triples.tsv\nevents = events.jsonl\nsplit_ratios = 1,0,0\n"
        "[output]\ndir = out\n"
    )
    assert run_cli("graph-inspect", "--config", str(tmp_path / "config.ini")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:4] == ["Triples   2", "HeldOut   0", "Reversed  0"]
    assert out[6:] == [
        "RelTypes  5",
        "EdgeRows  8",
        "MaxInDeg  2",
        "MeanInDeg 1.00",
        "Isolated  2",
    ]


def test_graph_inspect_counts_held_out_triples_reversed_in_training(tmp_path, capsys):
    # one triple trains and the other is held out; each reverses the other,
    # as ConvE found for WN18's and FB15k's inverse relations
    (tmp_path / "triples.tsv").write_text("a\tr\tb\nb\ts\ta\n")
    (tmp_path / "config.ini").write_text(
        "[data]\ntriples = triples.tsv\nsplit_ratios = 0.5,0.5,0\n[output]\ndir = out\n"
    )
    assert run_cli("graph-inspect", "--config", str(tmp_path / "config.ini")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:4] == ["Triples   1", "HeldOut   1", "Reversed  1"]


def test_graph_inspect_empty_events_file(tmp_path, capsys):
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    (tmp_path / "events.jsonl").write_text("")
    (tmp_path / "config.ini").write_text(
        "[data]\ntriples = triples.tsv\nevents = events.jsonl\n[output]\ndir = out\n"
    )
    assert run_cli("graph-inspect", "--config", str(tmp_path / "config.ini")) == 0
    out = capsys.readouterr().out.splitlines()
    assert "Events    0" in out
    assert "Args      0" in out


def _toy_without_output(tmp_path):
    """A copy of the toy fixture whose config has no [output] section."""
    shutil.copytree(FIXTURES, tmp_path / "toy")
    config = tmp_path / "toy" / "config.ini"
    cp = configparser.ConfigParser()
    cp.read(config)
    cp.remove_section("output")
    with open(config, "w") as fh:
        cp.write(fh)
    return str(config)


def test_graph_inspect_needs_no_output_dir(tmp_path, capsys):
    assert run_cli("graph-inspect", "--config", _toy_without_output(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Entities  10"


def test_train_without_output_dir_is_one_error(tmp_path, capsys):
    config = _toy_without_output(tmp_path)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: {config}: [output] dir is required (or pass --out)\n"
    assert sorted(os.listdir(tmp_path / "toy")) == sorted(os.listdir(FIXTURES))


# -- config handling --------------------------------------------------------


def test_missing_config_is_single_line_error(capsys):
    assert run_cli("graph-inspect", "--config", "/nonexistent/run.ini") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    (tmp_path / "config.ini").write_text(
        "[data]\ntriples = triples.tsv\n[model]\ndimension = 8\n[output]\ndir = out\n"
    )
    assert run_cli("graph-inspect", "--config", str(tmp_path / "config.ini")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "dimension" in err and "config.ini" in err


def test_parse_error_names_offending_file(tmp_path, capsys):
    (tmp_path / "triples.tsv").write_text("only_two\tfields\n")
    (tmp_path / "config.ini").write_text(
        "[data]\ntriples = triples.tsv\n[output]\ndir = out\n"
    )
    assert run_cli("graph-inspect", "--config", str(tmp_path / "config.ini")) == 1
    err = capsys.readouterr().err
    assert "triples.tsv" in err and "line 1" in err


@pytest.mark.parametrize("section, key, value, reason", [
    ("model", "dim", "64.5", "invalid literal for int()"),
    ("train", "learning_rate", "fast", "could not convert string to float"),
    ("eval", "filtered", "maybe", "not a boolean: 'maybe'"),
    ("data", "split_ratios", "0.8,0.2", "needs 3 values, got 2"),
])
def test_bad_config_value_names_section_and_key(section, key, value, reason, tmp_path, capsys):
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    body = {"data": "triples = triples.tsv\n", "output": "dir = out\n"}
    body[section] = body.get(section, "") + f"{key} = {value}\n"
    config = tmp_path / "run.ini"
    config.write_text("".join(f"[{name}]\n{lines}" for name, lines in body.items()))
    assert run_cli("graph-inspect", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: [{section}] {key}: ")
    assert reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("section, key, value, reason", [
    ("model", "dim", "0", "dim must be >= 1"),
    ("scorer", "kernel", "0", "kernel must be >= 1"),
    ("scorer", "filters", "0", "filters must be >= 1"),
    ("train", "patience", "0", "patience must be >= 1"),
    ("train", "batch_groups", "0", "batch_groups must be >= 1"),
    ("train", "k_neg", "-1", "k_neg must be >= 0"),
    ("model", "event_mix", "-0.5", "event_mix must be >= 0"),
    ("model", "temporal_mix", "nan", "temporal_mix must be >= 0"),
    ("model", "temporal_mix", "inf", "temporal_mix must be finite"),
    ("model", "leaky_slope", "nan", "leaky_slope must be finite"),
    ("model", "leaky_slope", "inf", "leaky_slope must be finite"),
    ("train", "learning_rate", "0", "learning_rate must be positive"),
    ("train", "learning_rate", "inf", "learning_rate must be finite"),
    ("eval", "protocol", "bogus", "unknown protocol mode 'bogus'"),
    ("data", "split_ratios", "1.2,-0.1,-0.1",
     "split_ratios must be three values in [0, 1], got 1.2,-0.1,-0.1"),
    ("data", "split_ratios", "nan,0.5,0.5",
     "split_ratios must be three values in [0, 1], got nan,0.5,0.5"),
    ("data", "split_ratios", "0.5,0.5,0.5", "split_ratios must sum to 1, got 1.5"),
])
def test_config_range_error_names_section(section, key, value, reason, tmp_path, capsys):
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    body = {"data": "triples = triples.tsv\n", "output": "dir = out\n"}
    body[section] = body.get(section, "") + f"{key} = {value}\n"
    config = tmp_path / "run.ini"
    config.write_text("".join(f"[{name}]\n{lines}" for name, lines in body.items()))
    assert run_cli("graph-inspect", "--config", str(config)) == 1
    assert capsys.readouterr().err == f"error: {config}: [{section}] {reason}\n"


def test_scorer_shape_against_model_dim_is_one_config_error(tmp_path, capsys):
    """Rejected while the config is read, before any data file is opened:
    the events file named here does not exist."""
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\ntriples = triples.tsv\nevents = missing.jsonl\n[scorer]\nrows = 4\n"
        "[output]\ndir = out\n"
    )
    assert run_cli("train", "--config", str(config)) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: [scorer] rows x cols = 4x8 does not match [model] dim 64\n"
    )
    assert not (tmp_path / "out").exists()


def test_bad_interpolation_names_section_and_key(tmp_path, capsys):
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    config = tmp_path / "run.ini"
    config.write_text("[data]\ntriples = triples.tsv\n[output]\ndir = out%x\n")
    assert run_cli("graph-inspect", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: [output] dir: '%' must be followed by")
    assert err.count("\n") == 1


def test_empty_tsv_field_names_the_file(tmp_path, capsys):
    (tmp_path / "triples.tsv").write_text("a\tr\tb\na\t\tb\n")
    (tmp_path / "config.ini").write_text(
        "[data]\ntriples = triples.tsv\n[output]\ndir = out\n"
    )
    assert run_cli("graph-inspect", "--config", str(tmp_path / "config.ini")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'triples.tsv'}: line 2: empty field 2\n"


@pytest.mark.parametrize("kind", ["config", "triples", "events", "temporal", "labels", "pretrained"])
def test_undecodable_byte_names_the_file(kind, trained, tmp_path, capsys):
    for name in ("triples.tsv", "events.jsonl", "temporal.tsv", "labels.tsv"):
        shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
    (tmp_path / "vectors.txt").write_text("alice " + " ".join(["0.5"] * 8) + "\n")
    cp = configparser.ConfigParser()
    cp.read(TOY_CONFIG)
    cp["data"]["pretrained"] = "vectors.txt"
    cp["eval"]["classify"] = "true"
    config = tmp_path / "config.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    bad = {
        "config": config, "triples": tmp_path / "triples.tsv", "events": tmp_path / "events.jsonl",
        "temporal": tmp_path / "temporal.tsv", "labels": tmp_path / "labels.tsv",
        "pretrained": tmp_path / "vectors.txt",
    }[kind]
    with open(bad, "ab") as fh:
        fh.write(b"a\tr\t\xff\xfeb\n")
    # the labels are read by eval only, the pretrained vectors by train only
    argv = ["train"] if kind == "pretrained" else ["eval", "--checkpoint", str(trained / "model.ckpt")]
    assert run_cli(*argv, "--config", str(config), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 (invalid start byte)\n"


def test_log_level_info_shows_kgdata_lines(tmp_path, capsys):
    # c and d appear only as event arguments, which kgdata reports at info level
    (tmp_path / "triples.tsv").write_text("a\tr\tb\n")
    (tmp_path / "events.jsonl").write_text(json.dumps({
        "event_id": "e1", "trigger": "t", "event_type": "T",
        "arguments": [{"entity": "c", "role": "x"}, {"entity": "d", "role": "x"}],
    }) + "\n")
    config = tmp_path / "config.ini"
    config.write_text("[data]\ntriples = triples.tsv\nevents = events.jsonl\n[output]\ndir = out\n")
    assert run_cli("graph-inspect", "--config", str(config)) == 0
    default = capsys.readouterr()
    assert run_cli("graph-inspect", "--config", str(config), "--log-level", "info") == 0
    info = capsys.readouterr()
    assert default.err == ""
    assert info.err == (
        "INFO eventke.kgdata: 2 argument entities absent from triples, added as isolated nodes\n"
    )
    assert info.out == default.out


def test_default_log_level_leaves_train_outputs_unchanged(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out)) == 0
    default = capsys.readouterr()
    loss = (out / "loss.csv").read_bytes()
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out), "--log-level", "DEBUG") == 0
    debug = capsys.readouterr()
    assert default.err == ""
    assert debug.out == default.out
    assert (out / "loss.csv").read_bytes() == loss


# -- train ------------------------------------------------------------------


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out)) == 0
    assert (out / "model.ckpt").exists()
    assert (out / "config.ini").exists()
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0].startswith("# params=")
    assert int(lines[0].split("=")[1]) > 0
    assert lines[1] == "epoch,train_loss,val_loss"
    assert len(lines) == 2 + 4  # max_epochs rows
    stdout = capsys.readouterr().out
    assert "checkpoint:" in stdout


def test_train_twice_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out_a)) == 0
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out_b)) == 0
    assert (out_a / "loss.csv").read_bytes() == (out_b / "loss.csv").read_bytes()
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def test_train_from_echoed_config_reproduces(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out_a)) == 0
    assert run_cli("train", "--config", str(out_a / "config.ini"), "--out", str(out_b)) == 0
    assert (out_a / "loss.csv").read_bytes() == (out_b / "loss.csv").read_bytes()
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def _config_with(tmp_path, section="model", **overrides):
    cp = configparser.ConfigParser()
    cp.read(TOY_CONFIG)
    for key, value in overrides.items():
        cp[section][key] = value
    for key in ("triples", "events", "temporal", "entity_labels"):
        if cp.has_option("data", key):
            cp["data"][key] = os.path.join(FIXTURES, cp["data"][key])
    path = tmp_path / "override.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


def test_ablated_model_has_same_parameter_count(tmp_path):
    out_full = tmp_path / "full"
    out_abl = tmp_path / "ablated"
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out_full)) == 0
    ablated_config = _config_with(tmp_path, no_events="true")
    assert run_cli("train", "--config", ablated_config, "--out", str(out_abl)) == 0
    header_full = (out_full / "loss.csv").read_text().splitlines()[0]
    header_abl = (out_abl / "loss.csv").read_text().splitlines()[0]
    assert header_full == header_abl


def test_seed_override_lands_in_echoed_config(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out), "--seed", "7") == 0
    cp = configparser.ConfigParser()
    cp.read(out / "config.ini")
    assert cp["model"]["seed"] == "7"
    assert cp["train"]["seed"] == "7"
    assert cp["eval"]["seed"] == "7"
    assert cp["data"]["split_seed"] == "7"


@pytest.mark.parametrize("section, key, override", [
    ("data", "split_seed", False),
    ("model", "seed", False),
    ("train", "seed", False),
    ("eval", "seed", False),
    ("model", "seed", True),  # --seed -1 sets every seed; [model] is checked first
])
def test_negative_seed_is_one_config_error(section, key, override, tmp_path, capsys):
    """numpy's own "expected non-negative integer" named neither file nor key."""
    if override:
        config, argv = TOY_CONFIG, ["--seed", "-1"]
    else:
        config, argv = _config_with(tmp_path, section, **{key: "-1"}), []
    out = tmp_path / "run"
    assert run_cli("train", "--config", config, "--out", str(out), *argv) == 1
    assert capsys.readouterr().err == f"error: {config}: [{section}] {key} must be >= 0\n"
    assert not out.exists()


def test_out_resolves_against_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # [output] dir stays relative to the config, --out to the working directory
    assert parse_run_config(TOY_CONFIG).out_dir == os.path.join(FIXTURES, "out")
    assert parse_run_config(TOY_CONFIG, out_override="runs/x").out_dir == str(tmp_path / "runs" / "x")
    # the README's flow: train into runs/demo, then eval its checkpoint by the same path
    assert run_cli("train", "--config", TOY_CONFIG, "--out", "runs/demo") == 0
    assert (tmp_path / "runs" / "demo" / "model.ckpt").exists()
    assert run_cli(
        "eval", "--config", TOY_CONFIG, "--checkpoint", "runs/demo/model.ckpt", "--out", "runs/eval"
    ) == 0
    assert (tmp_path / "runs" / "eval" / "report.json").exists()
    assert not os.path.exists(os.path.join(FIXTURES, "runs"))


@pytest.mark.parametrize("via", ["--out", "[output] dir"])
def test_percent_in_out_dir_is_echoed_and_reproduces(via, tmp_path):
    out_a, out_b = tmp_path / "run%1", tmp_path / "b"
    if via == "--out":
        assert run_cli("train", "--config", TOY_CONFIG, "--out", str(out_a)) == 0
    else:
        for name in ("triples.tsv", "events.jsonl", "temporal.tsv", "labels.tsv"):
            shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
        with open(TOY_CONFIG) as fh:
            text = fh.read().replace("dir = out", "dir = run%%1")
        (tmp_path / "run.ini").write_text(text)
        assert run_cli("train", "--config", str(tmp_path / "run.ini")) == 0
    cp = configparser.ConfigParser()
    cp.read(out_a / "config.ini")
    assert cp["output"]["dir"] == str(out_a)
    assert run_cli("train", "--config", str(out_a / "config.ini"), "--out", str(out_b)) == 0
    assert (out_a / "loss.csv").read_bytes() == (out_b / "loss.csv").read_bytes()
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


# A config that sets every key, spelled unlike its echo (spaces, exponents,
# yes/on/0 booleans), so the echo's normalised bytes are pinned.
EVERY_KEY_CONFIG = """\
[data]
triples = triples.tsv
events = events.jsonl
temporal = temporal.tsv
pretrained = vectors.txt
entity_labels = labels.tsv
split_ratios = 0.7, 0.2, 0.1
split_seed = 3

[model]
dim = 8
layers = 2
temporal_mix = 0.25
event_mix = 1e-1
leaky_slope = 0.3
no_temporal_links = yes
random_events = on
no_events = 0
seed = 5

[scorer]
rows = 2
cols = 4
filters = 3
kernel = 2

[train]
learning_rate = 5e-3
max_epochs = 3
patience = 2
batch_groups = 2
k_neg = 3
mean_reduction = True
shuffle = off
seed = 4

[eval]
protocol = sampled
k = 5
filtered = 1
split = all
classify = true
fine_tune = no
seed = 6

[output]
dir = out
"""

EVERY_KEY_ECHO = """\
[data]
triples = {root}/triples.tsv
events = {root}/events.jsonl
temporal = {root}/temporal.tsv
pretrained = {root}/vectors.txt
entity_labels = {root}/labels.tsv
split_ratios = 0.7,0.2,0.1
split_seed = {split_seed}

[model]
dim = 8
layers = 2
temporal_mix = 0.25
event_mix = 0.1
leaky_slope = 0.3
no_temporal_links = true
random_events = true
no_events = false
seed = {model_seed}

[scorer]
rows = 2
cols = 4
filters = 3
kernel = 2

[train]
learning_rate = 0.005
max_epochs = 3
patience = 2
batch_groups = 2
k_neg = 3
mean_reduction = true
shuffle = false
seed = {train_seed}

[eval]
protocol = sampled
k = 5
filtered = true
split = all
classify = true
fine_tune = false
seed = {eval_seed}

[output]
dir = {root}/out

"""

DEFAULTS_ECHO = """\
[data]
triples = {root}/triples.tsv
split_ratios = 0.8,0.1,0.1
split_seed = 0

[model]
dim = 64
layers = 2
temporal_mix = 0.5
event_mix = 0.5
leaky_slope = 0.2
no_temporal_links = false
random_events = false
no_events = false
seed = 0

[scorer]
rows = 8
cols = 8
filters = 32
kernel = 3

[train]
learning_rate = 0.0001
max_epochs = 200
patience = 10
batch_groups = 32
k_neg = 64
mean_reduction = false
shuffle = true
seed = 0

[eval]
protocol = full
k = 500
filtered = false
split = test
classify = false
fine_tune = true
seed = 0

[output]
dir = {root}/out

"""


def _every_key_config(tmp_path) -> str:
    for name in ("triples.tsv", "events.jsonl", "temporal.tsv", "labels.tsv"):
        shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
    (tmp_path / "vectors.txt").write_text(
        "alice 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\nbob -0.1 -0.2 -0.3 -0.4 -0.5 -0.6 -0.7 -0.8\n"
    )
    config = tmp_path / "every.ini"
    config.write_text(EVERY_KEY_CONFIG)
    return str(config)


@pytest.mark.parametrize("seed", [None, 11])
def test_echo_of_every_key_is_pinned(seed, tmp_path):
    config = _every_key_config(tmp_path)
    argv = ["train", "--config", config]
    if seed is None:
        seeds = {"split_seed": 3, "model_seed": 5, "train_seed": 4, "eval_seed": 6}
    else:
        argv += ["--seed", str(seed)]
        seeds = dict.fromkeys(("split_seed", "model_seed", "train_seed", "eval_seed"), seed)
    assert run_cli(*argv) == 0
    echo = (tmp_path / "out" / "config.ini").read_bytes()
    assert echo == EVERY_KEY_ECHO.format(root=tmp_path, **seeds).encode()


def test_echo_of_defaults_is_pinned(tmp_path):
    shutil.copy(os.path.join(FIXTURES, "triples.tsv"), tmp_path / "triples.tsv")
    config = tmp_path / "min.ini"
    config.write_text("[data]\ntriples = triples.tsv\n[output]\ndir = out\n")
    write_effective_config(parse_run_config(str(config)), str(tmp_path / "echo.ini"))
    echo = (tmp_path / "echo.ini").read_bytes()
    assert echo == DEFAULTS_ECHO.format(root=tmp_path).encode()


# -- eval -------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", TOY_CONFIG, "--out", str(out)]) == 0
    return out


def test_eval_writes_report_and_table(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    code = run_cli(
        "eval", "--config", TOY_CONFIG,
        "--checkpoint", str(trained / "model.ckpt"), "--out", str(out),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "MRR" in stdout and "Hits@20" in stdout
    report = json.loads((out / "report.json").read_text())
    assert list(report.keys()) == [
        "protocol", "K", "seed", "mr", "mrr", "hits10", "hits20", "ranks"]
    assert report["protocol"] == "full"


def test_eval_sampled_k_vocab_minus_one_matches_full(trained, tmp_path):
    full_out = tmp_path / "full"
    sampled_out = tmp_path / "sampled"
    run_cli("eval", "--config", TOY_CONFIG,
            "--checkpoint", str(trained / "model.ckpt"), "--out", str(full_out))
    cp = configparser.ConfigParser()
    cp.read(TOY_CONFIG)
    cp["eval"]["protocol"] = "sampled"
    cp["eval"]["k"] = "9"
    for key in ("triples", "events", "temporal", "entity_labels"):
        cp["data"][key] = os.path.join(FIXTURES, cp["data"][key])
    sampled_config = tmp_path / "sampled.ini"
    with open(sampled_config, "w") as fh:
        cp.write(fh)
    run_cli("eval", "--config", str(sampled_config),
            "--checkpoint", str(trained / "model.ckpt"), "--out", str(sampled_out))
    full = json.loads((full_out / "report.json").read_text())
    sampled = json.loads((sampled_out / "report.json").read_text())
    assert [r[3] for r in sampled["ranks"]] == [r[3] for r in full["ranks"]]
    assert sampled["mrr"] == full["mrr"]


def test_eval_classification_accuracies(trained, tmp_path, capsys):
    cp = configparser.ConfigParser()
    cp.read(TOY_CONFIG)
    cp["eval"]["classify"] = "true"
    cp["eval"]["fine_tune"] = "false"
    for key in ("triples", "events", "temporal", "entity_labels"):
        cp["data"][key] = os.path.join(FIXTURES, cp["data"][key])
    config = tmp_path / "classify.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    code = run_cli("eval", "--config", str(config),
                   "--checkpoint", str(trained / "model.ckpt"),
                   "--out", str(tmp_path / "out"))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Ents" in stdout
    assert "Rels" in stdout


def test_eval_warns_when_the_relation_probe_is_skipped(trained, tmp_path, capsys):
    cp = configparser.ConfigParser()
    cp.read(TOY_CONFIG)
    cp["data"]["split_ratios"] = "1,0,0"
    cp["eval"]["classify"] = "true"
    for key in ("triples", "events", "temporal", "entity_labels"):
        cp["data"][key] = os.path.join(FIXTURES, cp["data"][key])
    config = tmp_path / "classify.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    code = run_cli("eval", "--config", str(config),
                   "--checkpoint", str(trained / "model.ckpt"), "--out", str(tmp_path / "out"))
    assert code == 0
    captured = capsys.readouterr()
    assert "Ents" in captured.out and "Rels" not in captured.out
    assert ("WARNING eventke.cli: relation probe skipped: no triples in split(s) val, test\n"
            in captured.err)


def test_eval_ranks_on_a_graph_of_training_triples_only(trained, tmp_path, monkeypatch):
    """Held-out triples are queries, never message-passing edges."""
    graphs = []

    def spy(graph, *args, **kwargs):
        graphs.append(graph)
        return kg_completion_eval(graph, *args, **kwargs)

    monkeypatch.setattr(cli, "kg_completion_eval", spy)
    assert run_cli("eval", "--config", TOY_CONFIG, "--checkpoint", str(trained / "model.ckpt"),
                   "--out", str(tmp_path / "out")) == 0
    with open(os.path.join(FIXTURES, "triples.tsv")) as fh:
        triples, entities, _ = parse_triples(fh)
    splits = split_dataset(len(triples), (0.8, 0.1, 0.1), 0)
    (graph,) = graphs
    assert sorted(graph.triples) == sorted(triples[i] for i in splits.train)
    assert not {triples[i] for i in splits.validation + splits.test} & set(graph.triples)
    assert index_plan(graph).edge_dst.size == 2 * len(splits.train) + len(entities) == 28


@pytest.mark.parametrize("case, lineno, message", [
    ("empty", 1, "empty field 2"),
    ("unknown", 11, "unknown entity 'zoe'"),
    ("repeated", 11, "entity 'alice' is labelled twice"),
])
def test_eval_rejects_a_bad_labels_line_before_ranking(
        case, lineno, message, trained, tmp_path, capsys):
    with open(os.path.join(FIXTURES, "labels.tsv")) as fh:
        lines = fh.read().splitlines()
    if case == "empty":
        lines[0] = "alice\t"
    else:
        lines.append("zoe\tmanager" if case == "unknown" else "alice\tmanager")
    labels = tmp_path / "labels.tsv"
    labels.write_text("\n".join(lines) + "\n")
    cp = configparser.ConfigParser()
    cp.read(TOY_CONFIG)
    cp["eval"]["classify"] = "true"
    for key in ("triples", "events", "temporal"):
        cp["data"][key] = os.path.join(FIXTURES, cp["data"][key])
    cp["data"]["entity_labels"] = str(labels)
    config = tmp_path / "classify.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    code = run_cli("eval", "--config", str(config),
                   "--checkpoint", str(trained / "model.ckpt"), "--out", str(tmp_path / "out"))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {labels}: line {lineno}: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out" / "report.json").exists()


def test_eval_warns_when_config_and_checkpoint_disagree(trained, tmp_path, capsys):
    args = ["--checkpoint", str(trained / "model.ckpt")]
    assert run_cli("eval", "--config", TOY_CONFIG, *args, "--out", str(tmp_path / "a")) == 0
    matching = capsys.readouterr()
    config = _config_with(tmp_path, layers="2", leaky_slope="0.1")
    assert run_cli("eval", "--config", config, *args, "--out", str(tmp_path / "b")) == 0
    differing = capsys.readouterr()
    assert matching.err == ""
    assert differing.err == (
        f"WARNING eventke.cli: [model] layers is 2 in {config} but 1 in the checkpoint;"
        " the checkpoint's is used\n"
        f"WARNING eventke.cli: [model] leaky_slope is 0.1 in {config} but 0.2 in the"
        " checkpoint; the checkpoint's is used\n"
    )
    assert differing.out.replace(str(tmp_path / "b"), "") == matching.out.replace(
        str(tmp_path / "a"), "")
    report_a = (tmp_path / "a" / "report.json").read_bytes()
    assert (tmp_path / "b" / "report.json").read_bytes() == report_a


def test_eval_missing_checkpoint_errors(tmp_path, capsys):
    code = run_cli("eval", "--config", TOY_CONFIG,
                   "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "checkpoint not found" in err


def test_eval_non_finite_checkpoint_is_one_error(trained, tmp_path, capsys):
    checkpoint = load_checkpoint(str(trained / "model.ckpt"))
    name = "param/conv_projection"
    checkpoint.arrays[name][0, 0] = float("nan")
    path = tmp_path / "nan.ckpt"
    save_checkpoint(checkpoint, str(path))
    code = run_cli("eval", "--config", TOY_CONFIG,
                   "--checkpoint", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: tensor {name} holds non-finite values\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [5, [1], "s"])
def test_eval_bad_shuffle_state_is_one_error(bad, trained, tmp_path, capsys):
    checkpoint = load_checkpoint(str(trained / "model.ckpt"))
    checkpoint.shuffle_state = bad
    path = tmp_path / "bad.ckpt"
    save_checkpoint(checkpoint, str(path))
    code = run_cli("eval", "--config", TOY_CONFIG,
                   "--checkpoint", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad checkpoint header: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_eval_checkpoint_of_another_graph_names_the_checkpoint_and_config(
        trained, tmp_path, capsys):
    shutil.copytree(FIXTURES, tmp_path / "toy")
    with open(tmp_path / "toy" / "triples.tsv", "a") as fh:
        fh.write("zz\tr0\tyy\n")
    config = tmp_path / "toy" / "config.ini"
    checkpoint = trained / "model.ckpt"
    code = run_cli("eval", "--config", str(config),
                   "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {checkpoint}: does not fit the graph of {config}: shape mismatch for"
        " param/entity_embeddings: checkpoint (10, 8) vs model (12, 8)\n"
    )
    assert not (tmp_path / "out").exists()


# -- rank-diff --------------------------------------------------------------


def _report_doc(ranks):
    return {
        "protocol": "full", "K": None, "seed": None,
        "mr": 1.0, "mrr": 1.0, "hits10": 1.0, "hits20": 1.0,
        "ranks": ranks,
    }


def _report_file(tmp_path, name, ranks):
    path = tmp_path / name
    path.write_text(json.dumps(_report_doc(ranks)))
    return str(path)


def test_rank_diff_prints_sorted_table(tmp_path, capsys):
    a = _report_file(tmp_path, "a.json", [[0, 0, 1, 117.0], [2, 0, 3, 5.0]])
    b = _report_file(tmp_path, "b.json", [[0, 0, 1, 3.0], [2, 0, 3, 5.0]])
    assert run_cli("rank-diff", a, b) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "head\trelation\ttail\trank_a\trank_b\timprovement"
    assert lines[1] == "0\t0\t1\t117.0\t3.0\t114.0"
    assert lines[2] == "2\t0\t3\t5.0\t5.0\t0.0"


def test_rank_diff_disjoint_reports_error(tmp_path, capsys):
    a = _report_file(tmp_path, "a.json", [[0, 0, 1, 4.0]])
    b = _report_file(tmp_path, "b.json", [[5, 0, 1, 4.0]])
    assert run_cli("rank-diff", a, b) == 1
    assert "share no queries" in capsys.readouterr().err


def test_rank_diff_missing_file_errors(tmp_path, capsys):
    a = _report_file(tmp_path, "a.json", [[0, 0, 1, 4.0]])
    assert run_cli("rank-diff", a, str(tmp_path / "missing.json")) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc", [[1, 2], _report_doc(5), _report_doc([[0, 0, 1, None]])],
    ids=["top-level-list", "ranks-not-a-list", "null-rank"],
)
def test_rank_diff_malformed_report_is_one_error(tmp_path, capsys, doc):
    """Valid JSON of the wrong shape names the file in one error line."""
    a = _report_file(tmp_path, "a.json", [[0, 0, 1, 4.0]])
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    assert run_cli("rank-diff", a, str(b)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {b}: not a ranking report (")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "ranks, reason",
    [
        ([[0.7, 0, 1, 2.0]], "query ids must be integers >= 0, got [0.7, 0, 1]"),
        ([[0, True, 1, 2.0]], "query ids must be integers >= 0, got [0, True, 1]"),
        ([[0, 0, -1, 2.0]], "query ids must be integers >= 0, got [0, 0, -1]"),
        ([[0, 0, 1, "nan"]], "rank of query [0, 0, 1] must be a finite number >= 1"),
        ([[0, 0, 1, float("nan")]], "rank of query [0, 0, 1] must be a finite number >= 1"),
        ([[0, 0, 1, float("inf")]], "rank of query [0, 0, 1] must be a finite number >= 1"),
        ([[0, 0, 1, 0.5]], "rank of query [0, 0, 1] must be a finite number >= 1"),
        ([[0, 0, 1, 10**400]], "rank of query [0, 0, 1] must be a finite number >= 1"),
        ([[0, 0, 1, 2.0], [0, 0, 1, 3.0]], "query [0, 0, 1] is listed with two ranks"),
    ],
    ids=["fractional-id", "boolean-id", "negative-id", "string-rank", "nan-rank",
         "infinite-rank", "rank-below-1", "rank-beyond-float", "query-with-two-ranks"],
)
def test_rank_diff_rejects_bad_rank_entries(tmp_path, capsys, ranks, reason):
    """Entries that would otherwise be truncated, printed as nan or
    silently overwritten name the file in one error line."""
    a = _report_file(tmp_path, "a.json", [[0, 0, 1, 4.0]])
    b = _report_file(tmp_path, "b.json", ranks)
    assert run_cli("rank-diff", a, b) == 1
    err = capsys.readouterr().err
    assert err == f"error: {b}: not a ranking report ({reason})\n"


def test_rank_diff_accepts_a_query_repeated_with_its_rank(tmp_path, capsys):
    """``eval`` lists a repeated triple of the ranked split once per copy."""
    a = _report_file(tmp_path, "a.json", [[0, 0, 1, 4.0]])
    b = _report_file(tmp_path, "b.json", [[0, 0, 1, 2.0], [0, 0, 1, 2]])
    assert run_cli("rank-diff", a, b) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0\t0\t1\t4.0\t2.0\t2.0"]
