"""Bit-identity digest of the library's numerics, for comparing two checkouts.

    PYTHONPATH=<checkout>/src python tests/digest.py [--dump DIR]
    PYTHONPATH=<checkout>/src python tests/digest.py --gaps DIR_A DIR_B
    PYTHONPATH=<checkout>/src python tests/digest.py --lines
    PYTHONPATH=<checkout>/src python tests/digest.py --write-golden

prints one ``<case> <name> <sha256>`` line per item, in a fixed order:

- the logits and every parameter gradient of each desk preset at batch 4
  and a fixed seed, under every scan strategy, and of desk-vim with tied
  directions under every strategy; the gradients are those of
  sum(logits * R) for a fixed random R
- the same for each desk preset widened to embed_dim 32 (dt_rank 2) at
  batch 1, under the raster and cross scans
- the output of the chunked scan oracle, ``selective_scan_parallel``, and
  its gradients at x, a, d and the seven projection weights, under a fixed
  random readout, at four (lead, L, chunk) shapes with C = 3, N = 2 and
  dt_rank 2: L = 1; an odd tail; a two-axis lead at chunk = L; chunk > L
- the LTI forms: the discretized system, its convolution kernel, and the
  recurrent and FFT-convolution outputs, for one dense and one diagonal
  system
- the images and labels of every split of one small corpus at non-square
  extents, drawn by ``make_dataset``
- the random stream: its first outputs at the published splitmix64 seeds
  1234567 and 0; scalar and bulk uniform, normal and below draws; a shuffle
  of 1000 items; and ``hash_combine`` at seeds negative, at 2^63, at
  2^64 - 1 and past 2^64
- the ``--help`` text of ``vissm`` and of every command (at 80 columns)
- the bytes of every artifact, and the standard output, of one small fixed
  pipeline run in a fresh temporary directory with relative paths, so that
  two checkouts write the same resolved configurations: make-data; train
  vim (raster) and vssd (``--scan cross``); eval; export-features;
  cross-gen over 2 families x 2 seeds; bench-kernels, whose report counts
  by its ``checks`` alone and whose timing CSV is left out; and scan-show

A parent-versus-change check is a ``diff`` of the two outputs. ``--dump DIR``
also writes each array (not the help texts or artifacts) to
``DIR/<case>.<name>.npy``, so the arrays behind a moved line can be
compared: ``--gaps DIR_A DIR_B`` reads two dumps and prints
``<case> <name> <gap>`` for each array that differs, where the gap is the
largest entrywise difference over the larger of the two arrays' largest
magnitudes (an array in only one dump is named as such), then the worst
gap per kind of array (logits, grad, ...). ``--lines`` prints instead
``<module> <n>`` for each module of the ``vissm`` package and then ``total
<n>``, where n counts the lines that hold code: not blank, not only a comment
and not inside a docstring, found with ``tokenize``.
``--write-golden`` writes the lines instead to ``tests/digest.golden``, under
a header of ``# <key> <value>`` lines that record the environment the bits
depend on (``fingerprint``): the numpy version, the BLAS name and version,
the machine, the Python minor version and the SIMD targets numpy dispatches
to on this CPU. ``test_digest.py`` runs this file and compares its lines
with the golden file's, skipping where the fingerprint differs. A change
that moves bits on purpose rewrites the file with this mode.
BLAS is pinned to one thread before numpy loads.
pytest does not collect this file; ``test_digest.py`` smoke-tests it.
"""

import os

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read once, when numpy first loads below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tokenize  # noqa: E402
from functools import partial  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from vissm import blocks as B  # noqa: E402
from vissm import cli  # noqa: E402
from vissm import data as D  # noqa: E402
from vissm import scan2d, ssm  # noqa: E402
from vissm import selective as S  # noqa: E402
from vissm import tensor as T  # noqa: E402
from vissm.rng import SplitMix64, below_array, hash_combine, stream_u64  # noqa: E402
from vissm.tensor import Tensor  # noqa: E402

BATCH = 4
SEED = 16


def model_arrays(preset: str, batch: int = BATCH, **overrides) -> list:
    cfg = B.config_from_preset(preset, **overrides)
    model = B.build_model(cfg, seed=SEED)
    imgs = SplitMix64(SEED).uniform_array((batch, cfg.image_h, cfg.image_w))
    readout = SplitMix64(SEED + 1).normal_array((batch, cfg.classes))
    logits = B.forward(model, imgs)
    T.backward(T.sum_(T.mul(logits, Tensor(readout))))
    return [("logits", logits.data)] + [(f"grad.{name}", p.grad)
                                        for name, p in model.params.items()]


# (lead, L, chunk): one token; an odd tail (13 = 4 * 3 + 1); chunk = L; chunk > L
CHUNKED_SHAPES = [((), 1, 1), ((2,), 13, 3), ((2, 3), 8, 8), ((), 7, 16)]


def chunked_arrays(channels: int = 3, state_dim: int = 2, rank: int = 2) -> list:
    weights = {"w_b": (channels, state_dim), "w_c": (channels, state_dim),
               "w_dt_down": (channels, rank), "w_dt_up": (rank, channels),
               "delta_base": (channels,), "b_b": (state_dim,), "b_c": (state_dim,)}
    arrays = []
    for lead, length, chunk in CHUNKED_SHAPES:
        rng = SplitMix64(SEED)
        proj = S.SelectiveProjection(**{name: Tensor(rng.normal_array(shape) * 0.5,
                                                     requires_grad=True)
                                        for name, shape in weights.items()})
        x, a, d = (Tensor(arr, requires_grad=True) for arr in (
            rng.normal_array(lead + (length, channels)),
            -rng.uniform_array((channels, state_dim), 0.5, 4.0),
            rng.normal_array((channels,))))
        y = S.selective_scan_parallel(x, proj, a, d, chunk)
        T.backward(T.sum_(T.mul(y, Tensor(rng.normal_array(y.shape)))))
        tag = "x".join(map(str, lead + (length,))) + f".chunk{chunk}"
        arrays += [(f"y.{tag}", y.data)] + [
            (f"grad.{tag}.{name}", t.grad)
            for name, t in [("x", x), ("a", a), ("d", d), *proj.tensors().items()]]
    return arrays


def lti_arrays() -> list:
    rng = SplitMix64(SEED)
    arrays = []
    for kind in ("dense", "diag"):
        dssm = ssm.discretize_zoh(ssm.random_stable_system(rng, 4, diag=kind == "diag"))
        x = rng.normal_array((32,))
        arrays += [(f"{kind}.a_bar", dssm.a_bar), (f"{kind}.b_bar", dssm.b_bar),
                   (f"{kind}.kernel", ssm.conv_kernel(dssm, 32)),
                   (f"{kind}.recurrent", ssm.run_recurrent(dssm, x)),
                   (f"{kind}.convolution", ssm.run_convolution(dssm, x))]
    return arrays


def corpus_arrays() -> list:
    bundle = D.make_dataset(SEED, train_count=9, val_count=5, test_count=3, h=9, w=13)
    return [(f"{name}.{kind}", getattr(ds, kind))
            for name, ds in [("train", bundle.train), ("val", bundle.val),
                             *((f"test.{ds.subset_tag}", ds) for ds in bundle.test_subsets)]
            for kind in ("images", "labels")]


# splitmix64's reference seeds, with their first outputs in the published tables
PUBLISHED_SEEDS = (1234567, 0)


def rng_arrays() -> list:
    arrays = []
    for seed in PUBLISHED_SEEDS:
        rng = SplitMix64(seed)
        arrays.append((f"next_u64.{seed}", np.array([rng.next_u64() for _ in range(3)],
                                                     dtype=np.uint64)))
    rng = SplitMix64(SEED)
    arrays += [("uniform", np.array([rng.uniform(-1.0, 2.0) for _ in range(64)])),
               ("normal", np.array([rng.normal(0.5, 2.0) for _ in range(64)])),
               ("below", np.array([rng.below(n) for n in range(1, 65)] + [rng.below(2**32 - 1)])),
               ("uniform_array", rng.uniform_array((8, 9), -1.0, 2.0)),
               ("normal_array", rng.normal_array((8, 9), 0.5, 2.0)),
               ("below_array", below_array(stream_u64(rng.get_state()[0], 64), 1000)),
               ("state", np.array(rng.get_state(), dtype=np.uint64))]
    items = list(range(1000))
    SplitMix64(5).shuffle(items)
    arrays.append(("shuffle", np.array(items)))
    arrays.append(("hash_combine", np.array(
        [hash_combine(seed, *tags) for seed in (-5, 2**63, 2**64 - 1, 2**70 + 3)
         for tags in ((), (7,), (7, 2**64 + 1))],
        dtype=np.uint64)))
    return arrays


def help_texts() -> list:
    texts = []
    # argparse wraps help to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for command in [None, *cli.COMMANDS]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
                cli.main([command, "--help"] if command else ["--help"])
            texts.append((command or "vissm", out.getvalue().encode()))
    return texts


CORPUS = ["--train", "160", "--val", "32", "--test", "32"]
PIPELINE = [
    ("make-data", ["make-data", "--seed", "3", *CORPUS, "--dump-pgm", "1", "--out", "data"]),
    ("train-vim", ["train", "--data", "data", "--family", "vim", "--seed", "4",
                   "--epochs", "2", "--out", "vim"]),
    ("train-vssd", ["train", "--data", "data", "--family", "vssd", "--scan", "cross",
                    "--seed", "5", "--epochs", "2", "--out", "vssd"]),
    ("eval", ["eval", "--data", "data", "--checkpoint", "vim/checkpoint.bin", "--out", "eval"]),
    ("export-features", ["export-features", "--data", "data",
                         "--checkpoint", "vssd/checkpoint.bin", "--out", "features.csv"]),
    ("cross-gen", ["cross-gen", "--families", "vim,mambavision", "--seeds", "1,2", *CORPUS,
                   "--epochs", "1", "--out", "crossgen"]),
    ("bench-kernels", ["bench-kernels", "--lengths", "16,64", "--repeats", "1", "--out", "bench"]),
    ("scan-show", ["scan-show", "--strategy", "local", "--ppm", "scan.ppm"]),
]
TIMINGS = "bench/bench.csv"  # bench-kernels' timings, the one artifact that differs per run


def pipeline_artifacts() -> list:
    """Each command's standard output, then every file the pipeline wrote."""
    outputs = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, argv in PIPELINE:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"vissm {' '.join(argv)} exited {code}")
                outputs.append((f"{label}.stdout", out.getvalue().encode()))
            paths = sorted(os.path.relpath(os.path.join(root, name), tmp)
                           for root, _, names in os.walk(tmp) for name in names)
            for path in paths:
                if path == TIMINGS:
                    continue
                with open(path, "rb") as fh:
                    raw = fh.read()
                if path == "bench/bench.json":  # its checks, without the timings
                    path, raw = path + ":checks", json.dumps(json.loads(raw)["checks"]).encode()
                outputs.append((path, raw))
        finally:
            os.chdir(cwd)
    return outputs


CASES = {
    **{f"{family}.{scan}": partial(model_arrays, f"desk-{family}", scan=scan)
       for family in B.FAMILIES for scan in scan2d.STRATEGIES},
    **{f"vim-tied.{scan}": partial(model_arrays, "desk-vim", scan=scan, tie_directions=True)
       for scan in scan2d.STRATEGIES},
    **{f"{family}-wide.{scan}": partial(model_arrays, f"desk-{family}", batch=1, scan=scan,
                                        embed_dim=32)
       for family in B.FAMILIES for scan in ("raster", "cross")},
    "chunked": chunked_arrays,
    "lti": lti_arrays,
    "data": corpus_arrays,
    "rng": rng_arrays,
    "help": help_texts,
    "pipeline": pipeline_artifacts,
}


def sha256(arr) -> str:
    """The hash of a byte string, or of an array's dtype, shape and bytes."""
    if isinstance(arr, bytes):
        return hashlib.sha256(arr).hexdigest()
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def case_lines(case: str, dump=None) -> list:
    lines = []
    for name, arr in CASES[case]():
        if dump is not None and isinstance(arr, np.ndarray):
            np.save(os.path.join(dump, f"{case}.{name}.npy"), arr)
        lines.append(f"{case} {name} {sha256(arr)}")
    return lines


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over the larger of max |a| and max |b|; inf if shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return float(np.max(np.abs(a - b), initial=0.0) / scale) if scale > 0 else 0.0


def gap_lines(dir_a: str, dir_b: str) -> list:
    """One line per array that differs between two dumps, then a summary."""
    dirs = (dir_a, dir_b)
    stems = sorted({n[:-4] for d in dirs for n in os.listdir(d) if n.endswith(".npy")})
    lines, worst, moved = [], {}, 0
    for stem in stems:
        case = next((c for c in CASES if stem.startswith(c + ".")), stem.split(".")[0])
        name = stem[len(case) + 1:]
        paths = [os.path.join(d, stem + ".npy") for d in dirs]
        present = [os.path.exists(p) for p in paths]
        if not all(present):
            lines.append(f"{case} {name} only in {dirs[present.index(True)]}")
            continue
        a, b = (np.load(p) for p in paths)
        if np.array_equal(a, b, equal_nan=True):
            continue
        gap = relative_gap(a, b)
        kind = name.split(".")[0]
        worst[kind] = max(worst.get(kind, 0.0), gap)
        moved += 1
        lines.append(f"{case} {name} {gap:.2e}")
    summary = ", ".join(f"{kind} {gap:.2e}" for kind, gap in sorted(worst.items()))
    lines.append(f"moved {moved} of {len(stems)} arrays; worst gap: {summary or 'none'}")
    return lines


def code_lines(path) -> int:
    """The lines of the Python file ``path`` that hold code: blank lines, comments
    and docstrings (strings that are a statement of their own) do not count."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines, at_start = set(), True
    for tok, after in zip(tokens, tokens[1:]):
        if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING):
            at_start = True
        elif tok.type not in (tokenize.COMMENT, tokenize.NL):
            if not (at_start and tok.type == tokenize.STRING
                    and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
                lines.update(range(tok.start[0], tok.end[0] + 1))
            at_start = False
    return len(lines)


def line_counts() -> list:
    package = os.path.dirname(B.__file__)
    counts = {name: code_lines(os.path.join(package, name))
              for name in sorted(os.listdir(package)) if name.endswith(".py")}
    return [f"{name} {n}" for name, n in counts.items()] + [f"total {sum(counts.values())}"]


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digest.golden")


def fingerprint() -> dict:
    """What the digest's bits depend on besides the code: numpy's float64
    ``log``, ``cos`` and ``exp`` dispatch to SIMD kernels per CPU, and matmul
    to the BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    except ImportError:  # private names, which a numpy release may move
        simd = "unknown"
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(), "python": "%d.%d" % sys.version_info[:2],
            "simd": simd}


def read_golden(path: str = GOLDEN) -> tuple:
    """The golden file's fingerprint and its digest lines."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    header = dict(row[2:].split(" ", 1) for row in rows if row.startswith("# "))
    return header, [row for row in rows if not row.startswith("#")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="DIR", help="also write every array as .npy here")
    mode.add_argument("--gaps", nargs=2, metavar=("DIR_A", "DIR_B"),
                      help="compare two --dump directories instead")
    mode.add_argument("--lines", action="store_true",
                      help="print the code lines of each vissm module instead")
    mode.add_argument("--write-golden", action="store_true",
                      help=f"write the lines to {os.path.basename(GOLDEN)} instead")
    args = parser.parse_args(argv)
    if args.lines:
        print("\n".join(line_counts()))
        return 0
    if args.gaps is not None:
        print("\n".join(gap_lines(*args.gaps)))
        return 0
    if args.dump is not None:
        os.makedirs(args.dump, exist_ok=True)
    lines = [line for case in CASES for line in case_lines(case, args.dump)]
    if args.write_golden:
        header = [f"# {key} {value}" for key, value in fingerprint().items()]
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write("\n".join(header + lines) + "\n")
        print(f"wrote {len(lines)} lines to {GOLDEN}")
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
