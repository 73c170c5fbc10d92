import json
import os

import numpy as np
import pytest

from test_blocks import rewrite_config
from vissm import cli


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
    out = tmp_path / "d"
    assert run(["make-data", "--out", str(out), "--seed", "1", "--train", "2",
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


def test_eval_checkpoint_with_unknown_config_key_is_runtime_error(tiny_data, tmp_path,
                                                                   capsys):
    rundir = tmp_path / "run"
    assert run(["train", "--data", str(tiny_data), "--seed", "7",
                "--out", str(rundir)] + TINY_TRAIN) == 0
    ckpt = rundir / "checkpoint.bin"
    rewrite_config(ckpt, colour="blue")
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_data),
                "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "colour" in capsys.readouterr().err


def test_train_missing_data_is_runtime_error(tmp_path):
    code = run(["train", "--data", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "run")] + TINY_TRAIN)
    assert code == 2


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
    cfgfile = tmp_path / "opts.cfg"
    cfgfile.write_text("# dataset options\nseed = 9\ntrain = 4\nval = 2\ntest = 2\n")
    out = tmp_path / "d"
    assert run(["make-data", "--config", str(cfgfile), "--out", str(out),
                "--seed", "11"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train"] == 4      # from file
    assert resolved["seed"] == 11      # flag wins


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "opts.cfg"
    cfgfile.write_text("granularity = 9\n")
    assert run(["make-data", "--config", str(cfgfile),
                "--out", str(tmp_path / "d")]) == 1


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
