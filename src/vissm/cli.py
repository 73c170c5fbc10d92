"""Command-line interface.

One subcommand per pipeline stage: kernel benchmarks, scan-order rendering,
data synthesis, training, evaluation, feature export, and the full
cross-generator experiment. Each ``Command`` in ``COMMANDS`` declares what
its ``--out`` names: a directory (``"dir"``), a file (``"file"``,
``export-features``' CSV) or nothing (``scan-show``). ``main`` owns
``--out``: it checks it before the handler runs (``prepare_outdir``, or
``check_outfile`` on the file and on the record beside it), and once the
handler returns it writes the run record, the fully resolved options under
the command's name, as the run's last file: ``<out>/resolved_config.json``
for a directory, ``<out>.config.json`` for a file. So a run can be
reproduced from its output directory alone.

Of several faults, the first in this order is reported: a bad flag or
config value, a range the option table declares included (exit 1); a bad
``--out`` (exit 2); then what the command finds, such as a range that only
the library checks (exit 1). So ``cross-gen --epochs 0 --out <existing
file>`` exits 2.

Each option is declared once: in ``COMMANDS``, or in a group that several
commands splice in (``CORPUS``, ``TRAINING``, ``DATA``, ``CHECKPOINT``).
A default is the value it stands for: ``train`` builds ``blocks.DESK`` with
``ModelConfig``'s scan unless told otherwise. ``--config FILE`` reads a run
record back: each value is checked as the JSON type the record writes, then
parsed like its flag by ``Option.parse``; explicit flags override it.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 correctness
failure (a benchmark cross-check did not hold). Any other exception a
handler raises is a runtime failure too; outside ``RUNTIME_ERRORS``, the
classes the library raises on purpose, its traceback is printed as well.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, replace
from typing import Callable, NamedTuple

import numpy as np

from . import blocks as B
from . import files, scan2d
from . import selective as S
from . import ssm
from . import tensor as T
from . import training as TR
from .data import (
    check_corpus,
    dataset_from_manifest,
    load_manifest,
    make_dataset,
    write_pgm,
    GENERATORS,
)
from .rng import SplitMix64, hash_combine
from .tensor import Tensor


# what the library raises for bad files, data and numbers (ShapeError and
# NumericError among them): exit 2 with the message alone
RUNTIME_ERRORS = (OSError, ValueError, KeyError, RuntimeError, ArithmeticError)


class UsageError(Exception):
    pass


class CorrectnessError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- config plumbing ---------------------------------------------------------------


RECORD_SCHEMA = "vissm.run_config/1"


def read_config_file(path: str, command: str) -> dict:
    """The option texts of the run record at ``path``, which must be one that
    ``main`` writes for ``command``: every key optional but ``schema`` and
    ``command``, each value of the JSON type the record writes."""
    kinds = {opt.key: str if opt.item else type(opt.default)
             for opt in COMMANDS[command].options}
    with open(path, encoding="utf-8") as fh:
        try:
            record = files.json_object(fh.read(), {**kinds, "schema": str, "command": str},
                                       ("schema", "command"), "config")
            for key, want in (("schema", RECORD_SCHEMA), ("command", command)):
                if record.pop(key) != want:
                    raise ValueError(f"config key {key!r} must be {want!r}")
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
    return {key: str(value) for key, value in record.items()}


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; returns the resolved mapping."""
    options = COMMANDS[args.command].options
    file_values = read_config_file(args.config, args.command) if args.config else {}
    resolved = {}
    for opt in options:
        try:  # a bad file value fails even where a flag overrides it
            value = opt.parse(file_values.get(opt.key, str(opt.default)))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{args.config}: {opt.key}: {exc}") from None
        flag = getattr(args, opt.key)
        resolved[opt.key] = value if flag is None else flag
    if resolved.get("out") == "":
        raise UsageError("--out must not be empty")
    return resolved


def _usage(fn, *args, **kwargs):
    """``fn(...)``, its ValueError (an out-of-range option) a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def prepare_outdir(path: str, no_clobber: bool) -> None:
    """Check an output directory before any work; it appears at the first write."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise NotADirectoryError(f"output path {path!r} exists and is not a directory")
    if os.path.isdir(path) and os.listdir(path):
        if no_clobber:
            raise RuntimeError(f"output directory {path!r} is not empty (--no-clobber)")
        print(f"warning: overwriting contents of {path!r}", file=sys.stderr)


def check_outfile(path: str) -> None:
    """Check a file output path before any work: a directory there is a runtime error."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path!r} is a directory")


def record_path(out: str, directory: bool) -> str:
    """Where ``main`` writes the run record of a run whose ``--out`` is ``out``:
    inside it when it is a directory, else beside it."""
    return os.path.join(out, "resolved_config.json") if directory else out + ".config.json"


def _load_bundle(data_path: str, splits: tuple):
    """The corpus of the manifest at ``data_path`` (or in that directory),
    with only ``splits`` drawn."""
    if os.path.isdir(data_path):
        data_path = os.path.join(data_path, "manifest.json")
    if not os.path.isfile(data_path):
        raise FileNotFoundError(f"dataset manifest not found: {data_path}")
    return dataset_from_manifest(load_manifest(data_path), splits)


# -- bench-kernels ------------------------------------------------------------------


def cmd_bench_kernels(opt: dict) -> None:
    lengths = [int(n) for n in opt["lengths"].split(",")]
    rng = SplitMix64(hash_combine(opt["seed"], 0xBE7C4))
    rows = []
    checks = []

    def timed(fn):
        best = float("inf")
        for _ in range(opt["repeats"]):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    for length in lengths:
        params = ssm.random_stable_system(rng, opt["dim"])
        dssm = ssm.discretize_zoh(params)
        x = rng.normal_array((length,))
        proj = S.SelectiveProjection(
            w_b=Tensor(rng.normal_array((opt["channels"], opt["state"])) * 0.3),
            w_c=Tensor(rng.normal_array((opt["channels"], opt["state"])) * 0.3),
            w_dt_down=Tensor(rng.normal_array((opt["channels"], 1)) * 0.3),
            w_dt_up=Tensor(rng.normal_array((1, opt["channels"])) * 0.3),
            delta_base=Tensor(rng.normal_array((opt["channels"],))),
            b_b=Tensor(rng.normal_array((opt["state"],)) * 0.3),
            b_c=Tensor(rng.normal_array((opt["state"],)) * 0.3),
        )
        a = Tensor(-rng.uniform_array((opt["channels"], opt["state"]), 0.5, 3.0))
        d = Tensor(rng.normal_array((opt["channels"],)))
        xs = Tensor(rng.normal_array((length, opt["channels"])))
        routes = {  # each pair of routes is cross-checked, then every route timed
            "lti_recurrent": lambda: ssm.run_recurrent(dssm, x),
            "lti_fft_conv": lambda: ssm.run_convolution(dssm, x),
            "selective_sequential": lambda: S.selective_scan_sequential(xs, proj, a, d).data,
            "selective_parallel":
                lambda: S.selective_scan_parallel(xs, proj, a, d, opt["chunk"]).data,
        }
        with T.no_grad():
            y = {method: route() for method, route in routes.items()}
        gap_lti = float(np.max(np.abs(y["lti_recurrent"] - y["lti_fft_conv"])))
        gap_sel = float(np.max(np.abs(y["selective_sequential"] - y["selective_parallel"])))

        ok = gap_lti < opt["tolerance"] and gap_sel < opt["tolerance"]
        checks.append({"length": length, "lti_gap": gap_lti,
                       "selective_gap": gap_sel, "ok": ok})
        if not ok:
            raise CorrectnessError(
                f"cross-check failed at L={length}: lti_gap={gap_lti:.3e}, "
                f"selective_gap={gap_sel:.3e} (tolerance {opt['tolerance']:.1e})"
            )
        with T.no_grad():
            rows += [(method, length, timed(route)) for method, route in routes.items()]
        print(f"L={length}: cross-checks ok (lti {gap_lti:.2e}, selective {gap_sel:.2e})")

    report = {"schema": "vissm.bench/1", "checks": checks,
              "rows": [{"method": m, "length": l, "seconds": s} for m, l, s in rows]}
    files.write_json(os.path.join(opt["out"], "bench.json"), report)
    files.write_csv(os.path.join(opt["out"], "bench.csv"), ["method", "length", "seconds"],
              [(m, l, f"{s:.6f}") for m, l, s in rows])
    print(f"wrote {opt['out']}/bench.json and bench.csv")


# -- scan-show ---------------------------------------------------------------------


def _ppm_heatmap(grid: np.ndarray, path: str) -> None:
    """Visitation ranks as a binary P6 heatmap (early = dark, late = bright)."""
    ranks = grid.astype(np.float64)
    top = max(ranks.max(), 1.0)
    norm = np.where(ranks < 0, 0.0, ranks / top)
    r = np.round(255 * norm).astype(np.uint8)
    g = np.round(64 + 128 * norm).astype(np.uint8)
    b = np.round(255 * (1.0 - norm)).astype(np.uint8)
    files.write_netpbm(path, np.stack([r, g, b], axis=-1))


def cmd_scan_show(opt: dict) -> None:
    scan = _usage(scan2d.make_scan, opt["strategy"], opt["height"], opt["width"],
                  win=opt["win"], stride=opt["stride"])
    check_outfile(opt["ppm"])
    orders = scan.directions
    for k, order in enumerate(orders):
        if len(orders) > 1:
            print(f"direction {k}:")
        grid = scan2d.rank_grid(order)
        width = max(2, len(str(grid.max())))
        for row in grid:
            print(" ".join(f"{'.' * width}" if v < 0 else f"{v:>{width}d}" for v in row))
        if k + 1 < len(orders):
            print()
    if opt["ppm"]:
        _ppm_heatmap(scan2d.rank_grid(orders[0]), opt["ppm"])
        print(f"wrote {opt['ppm']}")


# -- make-data ---------------------------------------------------------------------


def _corpus(opt: dict) -> dict:
    """``make_dataset``'s corpus arguments, checked before any work."""
    corpus = dict(train_count=opt["train"], val_count=opt["val"], test_count=opt["test"],
                  train_generator=opt["train_generator"], strength=opt["strength"])
    _usage(check_corpus, **corpus)
    return corpus


def cmd_make_data(opt: dict) -> None:
    # beyond the corpus check, make_dataset rejects only image extents below its minimum
    bundle = _usage(make_dataset, seed=opt["seed"], h=opt["height"], w=opt["width"],
                    **_corpus(opt))
    outdir = opt["out"]
    files.write_json(os.path.join(outdir, "manifest.json"), bundle.manifest)
    if opt["dump_pgm"] > 0:
        sample_dir = os.path.join(outdir, "samples")
        for ds in bundle.test_subsets:
            for i in range(min(opt["dump_pgm"], len(ds))):
                write_pgm(ds.images[i], os.path.join(sample_dir, f"{ds.subset_tag}_{i}.pgm"))
    print(f"wrote {outdir}/manifest.json "
          f"(train {len(bundle.train)}, val {len(bundle.val)}, "
          f"test {len(bundle.test_subsets)}x{opt['test']})")


# -- train -------------------------------------------------------------------------


def _train_config(opt: dict, seed: int) -> TR.TrainConfig:
    return _usage(TR.TrainConfig, seed=seed, **{o.key: opt[o.key] for o in TRAINING})


def cmd_train(opt: dict) -> None:
    train_cfg = _train_config(opt, opt["seed"])
    cfg = _usage(B.config_from_preset, f"desk-{opt['family']}",
                 **{key: opt[key] for key in (*B.DESK, "scan")})
    bundle = _load_bundle(opt["data"], ("train", "val"))
    # a model that does not fit the data's image extents is a runtime error
    cfg = replace(cfg, image_h=bundle.manifest["image"]["h"],
                  image_w=bundle.manifest["image"]["w"])
    outdir = opt["out"]

    model = B.build_model(cfg, seed=opt["seed"])
    model, state = TR.train(model, bundle, cfg=train_cfg,
                            state_path=os.path.join(outdir, "train_state.bin"))

    ckpt = os.path.join(outdir, CHECKPOINT_NAME)
    B.save_checkpoint(model, ckpt)
    files.write_csv(os.path.join(outdir, "loss_history.csv"), ["step", "loss"],
              [(i, repr(loss)) for i, loss in enumerate(state.loss_history)])
    summary = {"schema": "vissm.train_summary/1",
               "best_val_acc": state.best_val_acc,
               "best_epoch": state.best_epoch,
               "val_history": state.val_history,
               "steps": state.step}
    files.write_json(os.path.join(outdir, "train_summary.json"), summary)
    print(f"best val acc {state.best_val_acc:.4f} (epoch {state.best_epoch}); "
          f"wrote {ckpt}")


# -- eval --------------------------------------------------------------------------


def cmd_eval(opt: dict) -> None:
    bundle = _load_bundle(opt["data"], ("test",))
    model = B.load_checkpoint(opt["checkpoint"])
    outdir = opt["out"]
    report = TR.evaluate(model, bundle.test_subsets,
                         seeds=[bundle.manifest["seed"]])
    files.write_json(os.path.join(outdir, "eval_report.json"), asdict(report))
    files.write_csv(os.path.join(outdir, "eval_report.csv"), ["subset", "accuracy"],
              [(tag, f"{report.per_subset[tag]:.6f}") for tag in sorted(report.per_subset)]
              + [("mean", f"{report.mean_accuracy:.6f}")])
    for tag in sorted(report.per_subset):
        print(f"{tag}: {report.per_subset[tag]:.4f}")
    print(f"mean: {report.mean_accuracy:.4f}")


# -- export-features ------------------------------------------------------------------


def cmd_export_features(opt: dict) -> None:
    bundle = _load_bundle(opt["data"], (opt["split"],))
    model = B.load_checkpoint(opt["checkpoint"])
    subsets = (bundle.test_subsets if opt["split"] == "test"
               else [getattr(bundle, opt["split"])])
    count = TR.export_features(model, subsets, opt["out"])
    print(f"wrote {count} feature rows to {opt['out']}")


# -- cross-gen -------------------------------------------------------------------------


def cmd_cross_gen(opt: dict) -> None:
    families = opt["families"].split(",")
    seeds = [int(s) for s in opt["seeds"].split(",")]
    train_cfg, corpus = _train_config(opt, 0), _corpus(opt)
    outdir = opt["out"]

    def progress(row):
        line = ", ".join(f"{k}={v:.3f}" for k, v in row["per_subset"].items())
        print(f"[{row['family']} seed {row['seed']}] {line}")

    bundle_report = TR.cross_generator_experiment(
        families, seeds, train_cfg, progress, **corpus)
    files.write_json(os.path.join(outdir, "crossgen.json"), bundle_report)
    files.write_csv(os.path.join(outdir, "crossgen.csv"), ["family", "seed", "subset", "accuracy"],
              [(row["family"], row["seed"], tag, f"{acc:.6f}")
               for row in bundle_report["results"]
               for tag, acc in sorted(row["per_subset"].items())])
    for family, agg in bundle_report["aggregates"].items():
        ind, ood = agg["in_distribution"], agg["out_of_distribution"]
        print(f"{family}: in-dist {ind['mean']:.3f}+/-{ind['sd']:.3f}  "
              f"ood {ood['mean']:.3f}+/-{ood['sd']:.3f}")


# -- wiring -------------------------------------------------------------------------------


class Option(NamedTuple):
    """A command option: flag ``--key-with-dashes`` and config key ``key``.

    It declares only the ranges no library check owns: ``choices``, and
    ``above``, a bound the value must exceed while staying finite. With
    ``item`` set, the value is a comma-separated list of that type, checked
    entry by entry, and it resolves to its text.
    """
    key: str
    default: object
    help: str | None = None
    choices: tuple | None = None
    above: float | None = None
    item: type | None = None

    def parse(self, text: str):
        """A flag's or a config-file line's text as the option's value."""
        entries = text.split(",") if self.item else [text]
        values = [self._entry(entry) for entry in entries]
        if self.item and ("" in entries or len(set(values)) < len(values)):
            raise argparse.ArgumentTypeError(f"empty or duplicate entry in {text!r}")
        return text if self.item else values[0]

    def _entry(self, text: str):
        kind = self.item or type(self.default)
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if self.choices and value not in self.choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(self.choices)})")
        if self.above is not None and not self.above < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and > {self.above}, got {text!r}")
        return value


class Command(NamedTuple):
    """A subcommand. ``out`` is what its ``--out`` names: ``"dir"`` (the
    command also takes ``--no-clobber``), ``"file"``, or ``None`` for a
    command without ``--out``. The handler takes the resolved options."""
    handler: Callable[[dict], None]
    help: str
    out: str | None
    options: tuple


_MAKE_DATASET = inspect.signature(make_dataset).parameters
_MAKE_SCAN = inspect.signature(scan2d.make_scan).parameters
CORPUS = (
    Option("train", 1000, "train count (real+fake total)"),
    Option("val", 200),
    Option("test", 500, "test count per subset"),
    Option("train_generator", _MAKE_DATASET["train_generator"].default, choices=GENERATORS),
    Option("strength", _MAKE_DATASET["strength"].default, "artifact strength in (0, 1]"),
)
TRAINING = (
    Option("epochs", TR.TrainConfig.epochs),
    Option("batch", TR.TrainConfig.batch),
    Option("lr", TR.TrainConfig.lr),
)
# make-data's and train's --out defaults, and the file train writes its checkpoint to
DATA_OUT, TRAIN_OUT, CHECKPOINT_NAME = "data_out", "train_out", "checkpoint.bin"
DATA = Option("data", DATA_OUT, "dataset directory or manifest path")
CHECKPOINT = Option("checkpoint", os.path.join(TRAIN_OUT, CHECKPOINT_NAME))

COMMANDS = {
    "bench-kernels": Command(cmd_bench_kernels, "cross-check and time the kernel routes", "dir", (
        Option("lengths", "64,256,1024,4096,8192", "comma-separated sequence lengths",
               above=0, item=int),
        Option("dim", 4, "LTI state dimension", above=0),
        Option("channels", 4, "selective-scan channels", above=0),
        Option("state", 4, "selective-scan state size", above=0),
        Option("chunk", 64, "parallel scan chunk size", above=0),
        Option("repeats", 3, "timing repetitions (min is kept)", above=0),
        Option("seed", 0),
        Option("tolerance", 1e-9, "cross-check tolerance", above=0.0),
        Option("out", "bench_out"),
    )),
    "scan-show": Command(cmd_scan_show, "render a 2D scan order as rank grids", None, (
        Option("strategy", "zigzag", choices=scan2d.STRATEGIES),
        Option("height", 4),
        Option("width", 4),
        Option("win", _MAKE_SCAN["win"].default, "window side for the local strategy"),
        Option("stride", _MAKE_SCAN["stride"].default, "stride for the efficient strategy"),
        Option("ppm", "", "also write a P6 heatmap to this path"),
    )),
    "make-data": Command(cmd_make_data, "synthesize a detection dataset manifest", "dir", (
        Option("seed", 1),
        *CORPUS,
        Option("height", _MAKE_DATASET["h"].default),
        Option("width", _MAKE_DATASET["w"].default),
        Option("dump_pgm", 0, "also write N sample PGMs per subset", above=-1),
        Option("out", DATA_OUT),
    )),
    "train": Command(cmd_train, "train a detector on a dataset manifest", "dir", (
        DATA,
        Option("family", "vim", choices=B.FAMILIES),
        Option("seed", 0),
        *TRAINING,
        *(Option(key, size) for key, size in B.DESK.items()),
        Option("scan", B.ModelConfig.scan, choices=scan2d.STRATEGIES),
        Option("out", TRAIN_OUT),
    )),
    "eval": Command(cmd_eval, "evaluate a checkpoint on the test subsets", "dir", (
        CHECKPOINT,
        DATA,
        Option("out", "eval_out"),
    )),
    "export-features": Command(cmd_export_features, "write penultimate features as CSV", "file", (
        CHECKPOINT,
        DATA,
        Option("split", "test", choices=("train", "val", "test")),
        Option("out", "features.csv"),
    )),
    "cross-gen": Command(cmd_cross_gen, "train on one generator, test on all", "dir", (
        Option("families", ",".join(B.FAMILIES), "comma-separated model families",
               choices=B.FAMILIES, item=str),
        Option("seeds", "1,2,3", "comma-separated seeds", item=int),
        *CORPUS,
        *TRAINING,
        Option("out", "crossgen_out"),
    )),
}


def build_parser() -> Parser:
    parser = Parser(prog="vissm",
                    description="State-space vision models: kernels, scans, "
                                "synthetic detection harness.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = subs.add_parser(name, help=command.help)
        for opt in command.options:
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices and not opt.item else None
            p.add_argument("--" + opt.key.replace("_", "-"), type=opt.parse,
                           metavar=metavar, help=opt.help)
        p.add_argument("--config", help="options from a run record (resolved_config.json)")
        if command.out == "dir":
            p.add_argument("--no-clobber", action="store_true",
                           help="fail instead of overwriting a non-empty output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command, opt = COMMANDS[args.command], resolve_options(args)
        # --out is checked before any work, and the run record written after it
        record = command.out and record_path(opt["out"], directory=command.out == "dir")
        if command.out == "dir":
            prepare_outdir(opt["out"], args.no_clobber)
        elif command.out == "file":  # the file and the record beside it
            for path in (opt["out"], record):
                check_outfile(path)
        command.handler(opt)
        if record:
            files.write_json(record, {"schema": RECORD_SCHEMA, "command": args.command, **opt})
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CorrectnessError as exc:
        print(f"correctness failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a runtime failure
        if not isinstance(exc, RUNTIME_ERRORS):  # not one the library raises on purpose
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
