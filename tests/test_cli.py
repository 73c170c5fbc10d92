import argparse
import inspect
import json
import os
import shlex
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_blocks import rewrite_header
from test_data import record_drawn_splits
from vissm import blocks as B
from vissm import cli
from vissm import data as D
from vissm import scan2d
from vissm import training as TR


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def tiny_data(tmp_path):
    out = tmp_path / "data"
    assert run(["make-data", "--out", str(out), "--seed", "5",
                "--train", "24", "--val", "12", "--test", "8"]) == 0
    return out


TINY_TRAIN = ["--family", "vssd", "--epochs", "1",
              "--embed-dim", "8", "--depth", "1", "--state-dim", "2"]


def write_record(path, command, **values):
    """A run record of ``command`` holding ``values`` at ``path``; returns the path."""
    path.write_text(json.dumps({"schema": cli.RECORD_SCHEMA, "command": command, **values}))
    return str(path)


def _as_recorded(command, key, text):
    """``text`` as the JSON value a run record holds for ``command``'s option ``key``."""
    opt = next(opt for opt in cli.COMMANDS[command].options if opt.key == key)
    return text if opt.item else type(opt.default)(text)


# -- scan-show -------------------------------------------------------------------


def test_scan_show_zigzag(capsys):
    assert run(["scan-show", "--strategy", "zigzag", "--height", "2", "--width", "3"]) == 0
    lines = [l.split() for l in capsys.readouterr().out.strip().splitlines()]
    assert lines == [["0", "1", "2"], ["5", "4", "3"]]


def test_scan_show_raster_row(capsys):
    assert run(["scan-show", "--strategy", "raster", "--height", "1", "--width", "4"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "2", "3"]


def test_scan_show_cross_prints_four_grids(capsys):
    assert run(["scan-show", "--strategy", "cross", "--height", "2", "--width", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("direction") == 4
    # direction 0 is the raster order
    assert out.splitlines()[1].split() == ["0", "1"]


def test_scan_show_divisibility_hint(capsys):
    code = run(["scan-show", "--strategy", "local", "--height", "4", "--width", "6",
                "--win", "4"])
    assert code == 1
    assert "divide" in capsys.readouterr().err


def test_scan_show_ppm(tmp_path):
    ppm = tmp_path / "scan.ppm"
    assert run(["scan-show", "--strategy", "zigzag", "--height", "4", "--width", "4",
                "--ppm", str(ppm)]) == 0
    raw = ppm.read_bytes()
    assert raw.startswith(b"P6\n4 4\n255\n")
    assert len(raw) == len(b"P6\n4 4\n255\n") + 48


def test_unknown_strategy_is_usage_error():
    assert run(["scan-show", "--strategy", "hilbert", "--height", "4",
                "--width", "4"]) == 1


# -- make-data -------------------------------------------------------------------


def test_make_data_writes_manifest_and_config(tiny_data):
    manifest = json.loads((tiny_data / "manifest.json").read_text())
    assert manifest["schema"] == "vissm.dataset/1"
    resolved = json.loads((tiny_data / "resolved_config.json").read_text())
    assert resolved["command"] == "make-data"
    assert resolved["seed"] == 5


def test_make_data_pgm_dump(tmp_path):
    for seed in ("1", "-5", str(2**70 + 3)):  # any int seeds a corpus
        out = tmp_path / seed
        assert run(["make-data", "--out", str(out), "--seed", seed, "--train", "2",
                    "--val", "2", "--test", "2", "--dump-pgm", "1"]) == 0
        names = sorted(os.listdir(out / "samples"))
        assert names == ["G1_checkerboard_0.pgm", "G2_ringing_0.pgm",
                         "G3_gridnoise_0.pgm", "real_0.pgm"]


# -- train / eval / export ---------------------------------------------------------


def test_train_eval_export_pipeline(tiny_data, tmp_path):
    rundir = tmp_path / "run"
    assert run(["train", "--data", str(tiny_data), "--seed", "7",
                "--out", str(rundir)] + TINY_TRAIN) == 0
    assert (rundir / "checkpoint.bin").exists()
    assert (rundir / "checkpoint.bin.json").exists()
    assert (rundir / "loss_history.csv").exists()
    assert (rundir / "resolved_config.json").exists()

    evaldir = tmp_path / "eval"
    assert run(["eval", "--checkpoint", str(rundir / "checkpoint.bin"),
                "--data", str(tiny_data), "--out", str(evaldir)]) == 0
    report = json.loads((evaldir / "eval_report.json").read_text())
    assert report["schema"] == "vissm.eval_report/1"
    assert set(report["per_subset"]) == {"real", "G1_checkerboard", "G2_ringing",
                                         "G3_gridnoise"}
    assert abs(report["mean_accuracy"]
               - np.mean(list(report["per_subset"].values()))) < 1e-12

    feats = tmp_path / "feats.csv"
    assert run(["export-features", "--checkpoint", str(rundir / "checkpoint.bin"),
                "--data", str(tiny_data), "--split", "test", "--out", str(feats)]) == 0
    lines = feats.read_text().splitlines()
    assert len(lines) == 1 + 4 * 8
    assert lines[0].startswith("subset_tag,label,f_0")
    assert "np.float64" not in lines[1]


def test_each_command_draws_only_the_splits_it_reads(tiny_data, tmp_path, monkeypatch):
    drawn = record_drawn_splits(monkeypatch)
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    for argv, splits in (
            (["train", "--seed", "7", "--out", str(tmp_path / "run"), *TINY_TRAIN],
             {"train", "val"}),
            (["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "eval")], {"test"}),
            *((["export-features", "--checkpoint", ckpt, "--split", split,
                "--out", str(tmp_path / f"{split}.csv")], {split}) for split in D.SPLITS)):
        drawn.clear()
        assert run([*argv, "--data", str(tiny_data)]) == 0
        assert set(drawn) == splits, argv


def test_train_determinism_byte_identical(tiny_data, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["train", "--data", str(tiny_data), "--seed", "7",
                    "--out", str(out)] + TINY_TRAIN) == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "loss_history.csv").read_text() == (b / "loss_history.csv").read_text()


def test_export_features_rerun_identical(tiny_data, tmp_path):
    rundir = tmp_path / "run"
    assert run(["train", "--data", str(tiny_data), "--seed", "3",
                "--out", str(rundir)] + TINY_TRAIN) == 0
    f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    for f in (f1, f2):
        assert run(["export-features", "--checkpoint", str(rundir / "checkpoint.bin"),
                    "--data", str(tiny_data), "--split", "val", "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_eval_missing_checkpoint_no_partial_output(tiny_data, tmp_path):
    evaldir = tmp_path / "eval"
    code = run(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                "--data", str(tiny_data), "--out", str(evaldir)])
    assert code == 2
    assert not evaldir.exists()


def _header_bytes(head):
    """A damage that swaps a container's header for the bytes ``head``."""
    def damage(path):
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[12:16])
        path.write_bytes(blob[:12] + struct.pack("<I", len(head)) + head + blob[16 + n:])
    return damage


@pytest.mark.parametrize("damage, fault", [
    pytest.param(lambda p: rewrite_header(p, colour="blue"),
                 "unknown model config key 'colour'", id="unknown-key"),
    # headers written while ``classes`` was a config field carry it as a key
    pytest.param(lambda p: rewrite_header(p, classes=2),
                 "unknown model config key 'classes'", id="classes-key"),
    # only vim has a second direction's parameters to tie
    pytest.param(lambda p: rewrite_header(p, tie_directions=True),
                 "tie_directions applies to vim only, not vssd", id="tied-off-vim"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes() + b"junk"),
                 "4 trailing bytes", id="trailing-bytes"),
    pytest.param(_header_bytes(b"\xff{}"), "can't decode byte 0xff", id="header-not-utf8"),
    pytest.param(_header_bytes(b"{not json"), "Expecting property name", id="header-not-json"),
])
def test_eval_bad_checkpoint_is_runtime_error_naming_it(tiny_data, tmp_path, capsys,
                                                         damage, fault):
    ckpt = tmp_path / "model.ckpt"
    B.save_checkpoint(B.build_model(B.config_from_preset("desk-vssd"), seed=1), ckpt)
    damage(ckpt)
    out = tmp_path / "eval"
    assert run(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_data),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert fault in err and err.count(str(ckpt)) == 1
    assert not out.exists()


def test_train_missing_data_is_runtime_error(tmp_path):
    code = run(["train", "--data", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "run")] + TINY_TRAIN)
    assert code == 2


@pytest.mark.parametrize("fault", [TypeError, MemoryError])
def test_unexpected_failure_is_runtime_error_with_traceback(tiny_data, tmp_path, monkeypatch,
                                                           capsys, fault):
    """An exception of a class the library does not raise on purpose, here
    from building the model, exits 2 with its message and traceback, and
    --out is not created."""
    def broken(*args, **kwargs):
        raise fault("injected fault")

    monkeypatch.setattr(cli.B, "build_model", broken)
    out = tmp_path / "run"
    assert run(["train", "--data", str(tiny_data), "--out", str(out)] + TINY_TRAIN) == 2
    err = capsys.readouterr().err
    assert "error: injected fault" in err and "Traceback" in err
    assert not out.exists()


def test_no_clobber_refuses_nonempty(tiny_data, tmp_path):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "stale.txt").write_text("old")
    code = run(["make-data", "--out", str(out), "--no-clobber",
                "--train", "2", "--val", "2", "--test", "2"])
    assert code == 2
    # same command without the flag overwrites (warning on stderr)
    assert run(["make-data", "--out", str(out),
                "--train", "2", "--val", "2", "--test", "2"]) == 0


def test_config_file_provides_defaults_flags_override(tmp_path):
    cfgfile = write_record(tmp_path / "opts.json", "make-data", seed=9, train=4, val=2, test=2)
    out = tmp_path / "d"
    assert run(["make-data", "--config", cfgfile, "--out", str(out), "--seed", "11"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train"] == 4      # from file
    assert resolved["seed"] == 11      # flag wins


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = write_record(tmp_path / "opts.json", "make-data", granularity=9)
    assert run(["make-data", "--config", cfgfile, "--out", str(tmp_path / "d")]) == 1
    assert "unknown config key 'granularity'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["opts.json"]


@pytest.mark.parametrize("command, line", [
    ("scan-show", "height = abc"),
    ("train", "family = foo"),
    ("export-features", "split = bogus"),
])
def test_config_file_value_is_validated_like_its_flag(tiny_data, tmp_path, capsys,
                                                      command, line):
    # a text where an int belongs fails the record's type check, a str that
    # names no choice fails Option.parse, as its flag's text would
    key, text = line.split(" = ")
    cfgfile = write_record(tmp_path / "opts.json", command, **{key: text})
    out = tmp_path / "out"
    argv = [command, "--config", cfgfile]
    if command != "scan-show":
        argv += ["--data", str(tiny_data), "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{cfgfile}: " in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--families", "vim,foo"], ["--families", "foo"],
                                   ["--seeds", "1,x"], ["--families", ""],
                                   ["--seeds", ""]])
def test_cross_gen_rejects_bad_lists_before_output(tmp_path, flags):
    out = tmp_path / "cg"
    assert run(["cross-gen", "--train", "16", "--val", "8", "--test", "4",
                "--epochs", "1", "--seeds", "1", "--out", str(out)] + flags) == 1
    assert not out.exists()


@pytest.mark.parametrize("key, text", [("embed_dim", "0"), ("depth", "0"), ("state_dim", "0"),
                                       ("scan", "")])
@pytest.mark.parametrize("route", ["flag", "file"])
def test_train_zero_size_or_empty_scan_is_usage_error_before_output(tiny_data, tmp_path, capsys,
                                                                    key, text, route):
    out = tmp_path / "run"
    argv = ["train", "--data", str(tiny_data), "--out", str(out)]
    if route == "flag":
        argv += ["--" + key.replace("_", "-"), text]
    else:
        argv += ["--config", write_record(tmp_path / "opts.json", "train",
                                          **{key: _as_recorded("train", key, text)})]
    assert run(argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("make_flags, train_flags", [
    (["--height", "30"], []),  # patch 4 does not divide 30
    (["--height", "36", "--width", "36"], ["--scan", "local"]),  # window 2, 9x9 grid
])
def test_train_on_data_the_model_does_not_fit_leaves_no_output(tmp_path, make_flags,
                                                               train_flags):
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["make-data", "--out", str(data), "--train", "4", "--val", "2",
                "--test", "1", *make_flags]) == 0
    assert run(["train", "--data", str(data), *train_flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_eval_on_images_of_other_extents_leaves_no_output(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    B.save_checkpoint(B.build_model(B.config_from_preset("desk-vssd"), seed=0), ckpt)
    data, out = tmp_path / "data36", tmp_path / "eval"
    assert run(["make-data", "--out", str(data), "--train", "4", "--val", "2",
                "--test", "1", "--height", "36", "--width", "36"]) == 0
    assert run(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("counts", {"train": 8.0, "val": 2,
                                                    "test_per_subset": 1}),
                                        ("seed", 1.5)])
def test_train_on_mistyped_manifest_is_runtime_error(tiny_data, tmp_path, capsys,
                                                     key, value):
    manifest = json.loads((tiny_data / "manifest.json").read_text())
    manifest[key] = value
    (tiny_data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert run(["train", "--data", str(tiny_data), "--out", str(out)]) == 2
    assert f"manifest key '{key}" in capsys.readouterr().err
    assert not out.exists()


# hand edits that leave every key well typed, but describe no corpus make_dataset draws
NOT_MAKE_DATASETS = {
    "generator-twice": lambda m: m["specs"].append(m["specs"][0]),
    "generator-dropped": lambda m: m["specs"].pop(1),
    "generators-reordered": lambda m: m["specs"].reverse(),
    "strength-per-generator": lambda m: m["specs"][2].update(artifact_strength=0.5),
    "seed-ranges-edited": lambda m: m["seed_ranges"]["test/real"].reverse(),
    "unknown-key": lambda m: m.update(note="hand edited"),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit", NOT_MAKE_DATASETS.values(), ids=NOT_MAKE_DATASETS.keys())
def test_manifest_make_dataset_did_not_write_is_runtime_error(tiny_data, tmp_path, capsys,
                                                              command, edit):
    path = tiny_data / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    argv = [command, "--data", str(tiny_data), "--out", str(out)]
    if command == "eval":
        ckpt = tmp_path / "model.ckpt"
        B.save_checkpoint(B.build_model(B.config_from_preset("desk-vssd"), seed=0), ckpt)
        argv += ["--checkpoint", str(ckpt)]
    assert run(argv) == 2
    assert f"{path}: " in capsys.readouterr().err
    assert not out.exists()


def test_make_data_bad_strength_leaves_no_output(tmp_path):
    out = tmp_path / "d"
    assert run(["make-data", "--out", str(out), "--strength", "2"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["make-data", "--train", "0"],
                                  ["make-data", "--height", "3"],
                                  ["bench-kernels", "--lengths", "0"],
                                  ["bench-kernels", "--chunk", "0"],
                                  ["bench-kernels", "--channels", "0"],
                                  ["bench-kernels", "--repeats", "0"],
                                  ["train", "--batch", "0"],
                                  ["train", "--epochs", "0"],
                                  ["train", "--lr", "-1"],
                                  ["train", "--lr", "nan"],
                                  ["train", "--depth", "-2"],
                                  ["train", "--embed-dim", "-1"],
                                  ["cross-gen", "--epochs", "0"],
                                  ["cross-gen", "--batch", "0"],
                                  ["cross-gen", "--strength", "2"],
                                  ["cross-gen", "--test", "0"],
                                  ["cross-gen", "--train-generator", "G9"]])
def test_out_of_range_option_is_usage_error_before_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# a command's own seed and output path, and scan-show's grid extents against
# make-data's image extents, are different settings under one name
PER_COMMAND_KEYS = {"seed", "out", "height", "width"}


def test_shared_option_keys_have_one_declaration():
    declared = {}
    for command in cli.COMMANDS.values():
        for opt in command.options:
            if opt.key not in PER_COMMAND_KEYS:
                declared.setdefault(opt.key, set()).add(opt)
    assert {key: opts for key, opts in declared.items() if len(opts) > 1} == {}
    for opt in cli.TRAINING:
        assert opt.default == getattr(TR.TrainConfig, opt.key), opt.key
    corpus_defaults = inspect.signature(D.make_dataset).parameters
    for opt in cli.CORPUS:
        if opt.key in corpus_defaults:
            assert opt.default == corpus_defaults[opt.key].default, opt.key
    make_data = {opt.key: opt.default for opt in cli.COMMANDS["make-data"].options}
    assert (make_data["height"], make_data["width"]) == (corpus_defaults["h"].default,
                                                         corpus_defaults["w"].default)
    cross_gen = {opt.key: opt.default for opt in cli.COMMANDS["cross-gen"].options}
    assert cross_gen["families"] == ",".join(B.FAMILIES)
    assert inspect.signature(TR.evaluate).parameters["batch"].default is TR.EVAL_BATCH
    scan_defaults = inspect.signature(scan2d.make_scan).parameters
    scan_show = {opt.key: opt.default for opt in cli.COMMANDS["scan-show"].options}
    for key in ("win", "stride"):
        assert scan_show[key] == scan_defaults[key].default, key
    # train builds, by default, what every desk preset builds
    train = {opt.key: opt.default for opt in cli.COMMANDS["train"].options}
    for family in B.FAMILIES:
        cfg = B.config_from_preset(f"desk-{family}")
        for key in ("embed_dim", "depth", "state_dim", "scan"):
            assert train[key] == getattr(cfg, key), (family, key)


def _other_value(opt):
    """A valid text for ``opt`` that differs from its default."""
    if opt.item:
        return opt.default.split(",")[0]
    if opt.choices:
        return next(c for c in opt.choices if c != opt.default)
    return str(opt.default + (1 if isinstance(opt.default, (int, float)) else "_x"))


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_config_file_and_flags_resolve_alike(tmp_path, name):
    parser = cli.build_parser()
    cfgfile = tmp_path / "opts.json"

    def resolve(*argv):
        return cli.resolve_options(parser.parse_args([name, *argv]))

    defaults = resolve()
    for opt in cli.COMMANDS[name].options:
        flag = "--" + opt.key.replace("_", "-")
        assert defaults[opt.key] == opt.default
        # the default restated, in a record or as a flag, changes nothing
        write_record(cfgfile, name, **{opt.key: opt.default})
        assert resolve("--config", str(cfgfile)) == defaults
        assert resolve(flag, str(opt.default)) == defaults
        # one text, one value, whichever route it takes; a flag beats the file
        other = _other_value(opt)
        changed = {**defaults, opt.key: opt.parse(other)}
        write_record(cfgfile, name, **{opt.key: opt.parse(other)})
        assert resolve("--config", str(cfgfile)) == changed
        assert resolve(flag, other) == changed
        assert resolve("--config", str(cfgfile), flag, str(opt.default)) == defaults


@pytest.mark.parametrize("argv", [["make-data", "--dump-pgm", "-1"],
                                  ["bench-kernels", "--tolerance", "nan"],
                                  ["bench-kernels", "--tolerance", "-1"],
                                  ["bench-kernels", "--tolerance", "inf"],
                                  ["bench-kernels", "--lengths", "8,8"],
                                  ["bench-kernels", "--lengths", "8,"],
                                  ["cross-gen", "--families", "vim,vim"],
                                  ["cross-gen", "--families", "vim,"],
                                  ["cross-gen", "--seeds", "1,1"]])
def test_table_declared_range_is_usage_error_before_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert argv[1] in capsys.readouterr().err
    key = argv[1][2:].replace("-", "_")
    cfgfile = write_record(tmp_path / "opts.json", argv[0],
                           **{key: _as_recorded(argv[0], key, argv[2])})
    assert run([argv[0], "--config", cfgfile, "--out", str(out)]) == 1
    assert f"{cfgfile}: {key}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["opts.json"]


# -- exit-code fuzz over the option table ----------------------------------------------


# A small valid text per option where the default is large. Every drawn value
# is one of these, a default not listed here, or a text from _fuzz_texts, so no
# run trains on more than 8 images or times a sequence longer than 16.
FUZZ_VALID = {"train": "8", "val": "4", "test": "2", "epochs": "1", "batch": "4",
              "height": "8", "width": "8", "dump_pgm": "2", "lengths": "16,8",
              "repeats": "1", "chunk": "4", "families": "vssd", "seeds": "1",
              "embed_dim": "8", "depth": "1", "state_dim": "2"}


def _fuzz_texts(opt, valid):
    """The texts an option is fuzzed with: its valid one, edges and junk."""
    texts = [valid, "1", "0", "-1", "nan", "inf", "", "x"]
    if opt.above is not None:
        edge = opt.above + 1 if isinstance(opt.above, int) else np.nextafter(opt.above, 1.0)
        texts += [str(opt.above), str(edge)]
    if opt.item:
        first = valid.split(",")[0]
        texts += [valid + ",", f"{first},{first}"]
    return texts


def _parses(opt, text):
    try:
        opt.parse(text)
    except argparse.ArgumentTypeError:
        return False
    return True


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, run_dir = root / "data", root / "run"
    assert run(["make-data", "--out", str(data), "--train", "8", "--val", "4",
                "--test", "2", "--height", "16", "--width", "16"]) == 0
    assert run(["train", "--data", str(data), "--out", str(run_dir), "--batch", "4"]
               + TINY_TRAIN) == 0
    return root, {"data": str(data), "checkpoint": str(run_dir / "checkpoint.bin")}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(draw=st.data())
def test_exit_code_contract_over_the_option_table(fuzz_inputs, draw):
    root, inputs = fuzz_inputs
    name = draw.draw(st.sampled_from(list(cli.COMMANDS)), label="command")
    options = cli.COMMANDS[name].options
    spoiled = draw.draw(st.sets(st.sampled_from([o.key for o in options]), max_size=3),
                        label="spoiled")
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        out, missing = os.path.join(scratch, "out"), os.path.join(scratch, "missing")
        paths = {"out": out, "ppm": os.path.join(scratch, "scan.ppm"), **inputs}
        texts = {}
        for opt in options:
            valid = paths.get(opt.key, FUZZ_VALID.get(opt.key, str(opt.default)))
            choices = ([valid, missing] if opt.key in inputs
                       else [valid] if opt.key in paths else _fuzz_texts(opt, valid))
            texts[opt.key] = (draw.draw(st.sampled_from(choices), label=opt.key)
                              if opt.key in spoiled else valid)
        argv = [name] + [arg for key, text in texts.items()
                         for arg in ("--" + key.replace("_", "-"), text)]
        cwd_before = os.listdir()
        code = run(argv)
        declared_ok = all(_parses(opt, texts[opt.key]) for opt in options)
        assert code in (0, 1, 2, 3)
        if not declared_ok:
            assert code == 1
        if code == 2:  # the corpus and checkpoint are sound; only a missing one fails
            assert missing in texts.values()
        if code == 3:
            assert declared_ok
        if code:
            assert not os.path.exists(out)
        if code == 1:
            assert os.listdir(scratch) == []
        assert os.listdir() == cwd_before


# -- options and flags act where they are accepted -----------------------------------


def _tiny_argv(name, inputs, out, unset=()):
    """``name`` with every declared option but those in ``unset`` set to a
    small valid text, and its output path (``--out``, or scan-show's
    ``--ppm``) to ``out``."""
    texts = {**FUZZ_VALID, **inputs, "out": out, "ppm": out}
    return [name] + [arg for opt in cli.COMMANDS[name].options if opt.key not in unset
                     for arg in ("--" + opt.key.replace("_", "-"),
                                 texts.get(opt.key, str(opt.default)))]


class ReadRecorder(dict):
    """A resolved option mapping that records which keys a handler reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_declared_option_is_read(fuzz_inputs, tmp_path, monkeypatch, name):
    resolved = []
    resolve = cli.resolve_options

    def recording(args):
        resolved.append(ReadRecorder(resolve(args)))
        return resolved[-1]

    monkeypatch.setattr(cli, "resolve_options", recording)
    assert run(_tiny_argv(name, fuzz_inputs[1], str(tmp_path / "out"))) == 0
    assert {opt.key for opt in cli.COMMANDS[name].options} - resolved[0].read == set()


RECORDED = [name for name, command in cli.COMMANDS.items()
            if any(opt.key == "out" for opt in command.options)]


def _record_path(name, out):
    """Where ``main`` writes ``name``'s run record for the output path ``out``."""
    return cli.record_path(out, directory=cli.COMMANDS[name].out == "dir")


@pytest.mark.parametrize("name", RECORDED)
def test_run_record_is_the_resolved_options_and_the_last_file_written(fuzz_inputs, tmp_path,
                                                                      monkeypatch, name):
    written, resolved = [], []
    write, resolve = cli.files.write_bytes, cli.resolve_options

    def recording_write(path, data):
        written.append(os.fspath(path))
        write(path, data)

    def recording_resolve(args):
        resolved.append(resolve(args))
        return resolved[-1]

    monkeypatch.setattr(cli.files, "write_bytes", recording_write)
    monkeypatch.setattr(cli, "resolve_options", recording_resolve)
    out = str(tmp_path / "out")
    model_keys = ("embed_dim", "depth", "state_dim", "scan")  # train's, left at their defaults
    assert run(_tiny_argv(name, fuzz_inputs[1], out, unset=model_keys)) == 0
    path = _record_path(name, out)
    assert written[-1] == path
    record = json.loads(Path(path).read_text())
    assert record == {"schema": cli.RECORD_SCHEMA, "command": name, **resolved[0]}
    if name == "train":  # the record names the model the checkpoint holds
        built = json.loads(Path(out, "checkpoint.bin.json").read_text())
        assert {key: record[key] for key in model_keys} == {key: built[key] for key in model_keys}
        assert {key: record[key] for key in model_keys} == {**B.DESK, "scan": "raster"}


@pytest.mark.parametrize("name", RECORDED)
def test_empty_out_is_usage_error_before_output(fuzz_inputs, tmp_path, monkeypatch, capsys,
                                                name):
    monkeypatch.chdir(tmp_path)
    assert run(_tiny_argv(name, fuzz_inputs[1], "")) == 1
    assert "--out must not be empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name, flag, value", [("scan-show", "--merge", "sum"),
                                               ("scan-show", "--no-clobber", None),
                                               ("export-features", "--no-clobber", None)],
                         ids=["scan-show-merge", "scan-show-no-clobber",
                              "export-features-no-clobber"])
def test_flag_a_command_does_not_act_on_is_usage_error(fuzz_inputs, tmp_path, monkeypatch,
                                                       capsys, name, flag, value):
    monkeypatch.chdir(tmp_path)
    argv = _tiny_argv(name, fuzz_inputs[1], "written")
    assert run(argv + [flag] + ([value] if value else [])) == 1
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    key = flag[2:].replace("-", "_")
    cfgfile = write_record(tmp_path / "opts.json", name, **{key: value or True})
    assert run(argv + ["--config", cfgfile]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["opts.json"]


DIRECTORY = [name for name, command in cli.COMMANDS.items() if command.out == "dir"]


def _tree(root):
    """Every path under ``root`` with its file's bytes, None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("name, taken, flags, message", [
    *((name, taken, [], "output path {taken!r} is a directory")
      for name, taken in (("scan-show", "out"), ("export-features", "out"),
                          ("export-features", "out.config.json"))),
    *((name, "out", [], "output path {out!r} exists and is not a directory")
      for name in DIRECTORY),
    *((name, "out/stale", ["--no-clobber"], "output directory {out!r} is not empty (--no-clobber)")
      for name in DIRECTORY)],
    ids=["scan-show", "export-features", "export-features-record",
         *(f"{name}-file" for name in DIRECTORY), *(f"{name}-no-clobber" for name in DIRECTORY)])
def test_bad_output_path_is_runtime_error_before_work(fuzz_inputs, tmp_path, monkeypatch, capsys,
                                                      name, taken, flags, message):
    """A directory where a command writes a file (export-features' CSV or its
    run record, scan-show's heatmap), a file where it writes a directory, or
    a non-empty directory under --no-clobber fails before any work, is named
    and is left as it was."""
    out, taken = str(tmp_path / "out"), tmp_path / taken
    if name in DIRECTORY:
        taken.parent.mkdir(exist_ok=True)
        taken.write_text("old")
    else:
        taken.mkdir()
    before, drawn = _tree(tmp_path), record_drawn_splits(monkeypatch)
    assert run(_tiny_argv(name, fuzz_inputs[1], out) + flags) == 2
    captured = capsys.readouterr()
    assert message.format(out=out, taken=str(taken)) in captured.err
    assert captured.out == "" and drawn == []
    assert _tree(tmp_path) == before


# -- the run record reruns the run ------------------------------------------------------


def _run_files(out):
    """The bytes of every file a run wrote, by name relative to ``out``: the
    files in its output directory, or a CSV and the record beside it."""
    if os.path.isdir(out):
        return {str(p.relative_to(out)): p.read_bytes() for p in Path(out).rglob("*")
                if p.is_file()}
    return {suffix: Path(out + suffix).read_bytes() for suffix in ("", ".config.json")}


@pytest.mark.parametrize("name", RECORDED)
def test_rerun_from_the_run_record_is_byte_identical(fuzz_inputs, tmp_path, capsys, name):
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert run(_tiny_argv(name, fuzz_inputs[1], first)) == 0
    printed = capsys.readouterr().out
    assert run([name, "--config", _record_path(name, first), "--out", second]) == 0
    assert capsys.readouterr().out == printed.replace(first, second)
    before, after = _run_files(first), _run_files(second)
    assert before.keys() == after.keys()
    record = "resolved_config.json" if os.path.isdir(first) else ".config.json"
    assert json.loads(after.pop(record)) == {**json.loads(before.pop(record)), "out": second}
    if name == "bench-kernels":  # the rest of its report is timings
        assert (json.loads(after.pop("bench.json"))["checks"]
                == json.loads(before.pop("bench.json"))["checks"])
        del after["bench.csv"], before["bench.csv"]
    assert after == before


# a file --config cannot read as a run record of the command, what its message
# names, and the keys it changes in a record of the command or its whole text
NOT_RECORDS = {
    "other-command": ("export-features", "'command'", {"command": "eval", "data": "d"}),
    "other-schema": ("make-data", "'schema'", {"schema": "vissm.run_config/2"}),
    "no-schema": ("make-data", "'schema'", json.dumps({"command": "make-data"})),
    "unknown-key": ("eval", "'merge'", {"merge": "sum"}),
    "int-as-str": ("make-data", "'train'", {"train": "4"}),
    "float-as-int": ("train", "'lr'", {"lr": 1}),
    "bool": ("bench-kernels", "'repeats'", {"repeats": True}),
    "null": ("scan-show", "'ppm'", {"ppm": None}),
    "list": ("cross-gen", "'families'", {"families": ["vim"]}),
    "object": ("export-features", "'split'", {"split": {}}),
    "array": ("make-data", "must be a JSON object", "[]"),
    "not-json": ("make-data", "Expecting value", "seed = 1\n"),
}


@pytest.mark.parametrize("name, named, content", NOT_RECORDS.values(), ids=NOT_RECORDS.keys())
def test_config_that_is_not_a_run_record_is_usage_error_before_output(
        tmp_path, monkeypatch, capsys, name, named, content):
    monkeypatch.chdir(tmp_path)
    if isinstance(content, dict):
        content = json.dumps({"schema": cli.RECORD_SCHEMA, "command": name, **content})
    Path("opts.json").write_text(content)
    argv = [name, "--config", "opts.json"] + ([] if name == "scan-show" else ["--out", "out"])
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: opts.json: ") and named in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["opts.json"]


def test_config_that_is_not_utf8_is_usage_error_naming_the_file(tmp_path, capsys):
    cfgfile = tmp_path / "opts.json"
    cfgfile.write_bytes(b"\xff\xfe{}")
    assert run(["make-data", "--config", str(cfgfile), "--out", str(tmp_path / "d")]) == 1
    assert f"usage error: {cfgfile}: 'utf-8' codec" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["opts.json"]


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_config_file_that_cannot_be_opened_is_runtime_error(tmp_path, capsys, kind):
    cfgfile = tmp_path / "opts.json"
    if kind == "directory":
        cfgfile.mkdir()
    assert run(["make-data", "--config", str(cfgfile), "--out", str(tmp_path / "d")]) == 2
    assert repr(str(cfgfile)) in capsys.readouterr().err
    assert os.listdir(tmp_path) == ([] if kind == "missing" else ["opts.json"])


# -- bench ------------------------------------------------------------------------


def test_bench_kernels_small(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run(["bench-kernels", "--lengths", "16,64", "--repeats", "1",
                "--out", str(out)]) == 0
    report = json.loads((out / "bench.json").read_text())
    assert all(c["ok"] for c in report["checks"])
    methods = {(r["method"], r["length"]) for r in report["rows"]}
    assert len(methods) == 8  # 4 methods x 2 lengths, one row each
    csv_lines = (out / "bench.csv").read_text().splitlines()
    assert csv_lines[0] == "method,length,seconds"
    assert len(csv_lines) == 9


def test_bench_cross_check_failure_is_exit_3_before_output(tmp_path, capsys):
    # the smallest positive float is a valid tolerance that no nonzero gap meets
    out = tmp_path / "bench"
    assert run(["bench-kernels", "--lengths", "16", "--repeats", "1",
                "--tolerance", "5e-324", "--out", str(out)]) == 3
    assert "correctness failure" in capsys.readouterr().err
    assert not out.exists()


def test_bench_repeat_same_seed_same_checks(tmp_path):
    outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        assert run(["bench-kernels", "--lengths", "32", "--repeats", "1",
                    "--seed", "3", "--out", str(out)]) == 0
        outs.append(json.loads((out / "bench.json").read_text())["checks"])
    assert outs[0] == outs[1]


# -- cross-gen (miniature) -----------------------------------------------------------


def test_cross_gen_miniature(tmp_path, capsys):
    out = tmp_path / "cg"
    code = run(["cross-gen", "--families", "vssd", "--seeds", "1",
                "--train", "16", "--val", "8", "--test", "4",
                "--epochs", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "crossgen.json").read_text())
    assert report["schema"] == "vissm.crossgen/1"
    assert len(report["results"]) == 1
    csv_lines = (out / "crossgen.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 4  # header + 4 subsets


# -- documentation -----------------------------------------------------------------


def test_readme_command_lines_parse():
    """Every ``vissm ...`` line of README's command-line block parses, and the
    block shows every command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("vissm ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == set(cli.COMMANDS)
