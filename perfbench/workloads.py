"""The vissm benchmark: set-up, correctness gate, timed protocol and metrics.

Workloads, chosen so that each optimisation has one workload that exercises
it and one that bypasses it:

  train-vim    ``training.train`` on desk-vim (raster scan, batch 32) for a
               fixed number of steps, then ``training.evaluate`` on the four
               test subsets. The step is dominated by the causal selective
               scan and its backward closures.
  train-vssd   the same protocol on desk-vssd, which calls no causal scan:
               its step goes to ``nc_ssd``, the 3x3 depthwise grid conv and
               the FFN matmuls. A scan-only change predicts no change here.
  infer-cross  no-grad ``training.evaluate`` at batch 64 for all three desk
               families with ``scan=cross``; the seeded, untrained models
               are written and read back as checkpoints during set-up.
               Forward only, with four gather/scatter directions per block.

Every run is a closed loop in one process: the next unit of work starts
when the previous one has finished. A unit is an optimizer step, one
``evaluate`` call on one test subset (train-*), or one test subset through
each of the three families (an infer-cross round). On train-* the fixed
training run is timed first; evaluation then runs for ``seconds`` more. On
infer-cross evaluation runs for ``seconds``. Either way evaluation makes at
least ``min_passes`` passes over the four subsets.

End-to-end timings are taken at a reference speed: each unit's wall-clock
is multiplied by ``REF_SECONDS`` over the wall-clock of a fixed numpy kernel
run just before and after it, then medianed over the units of the run.
Steps and evaluation are scaled by ``Reference`` (array-sized numpy work
like a step's); set-up is scaled by ``SetupReference`` (many ufunc calls on
32x32 images, like dataset synthesis). On a shared two-core host the
wall-clock of the same work drifts by 2-3x from one minute to the next
while this ratio drifts far less; a change to vissm that makes a unit
slower raises its scaled time by the same factor. A change that slows numpy
itself (say, a working set that evicts the caches the reference uses)
slows the reference too and is partly hidden. The unscaled wall-clock
figures (medians, p90s, the references' own times) go into the run's report
file.

On infer-cross, ``eval_imgs_per_s`` is set by the family that lies furthest
below its baseline rate (``BASELINE_RATES``): the smallest ratio of a
family's rate to its baseline, times the baselines' geometric mean. A
regression in any one family moves it in full, as long as the host keeps
the families' rates near the baselines' proportions; a family that the host
favours by some share hides that much of its own regression.

A traced run records spans around the library's public functions (see
``SPANS``) on every other unit; the units left untraced give the tracing
overhead within the same run. Every per-layer time is a self time: the
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from vissm import blocks as B
from vissm import data as D
from vissm import scan2d
from vissm import selective as S
from vissm import tensor as T
from vissm import training as TR
from vissm.rng import SplitMix64, hash_combine

from spans import Patches, Recorder, covered, self_times

FAMILIES = ("vim", "mambavision", "vssd")
WORKLOADS = {
    "train-vim": ("vim",),
    "train-vssd": ("vssd",),
    "infer-cross": FAMILIES,
}
REF_SECONDS = 0.010  # a reference kernel's wall-clock at the reference speed
# infer-cross rates per family at the reference speed, on the host described
# in environment.json; only their ratios to one another matter
BASELINE_RATES = {"vim": 105.6, "mambavision": 641.7, "vssd": 702.2}
TRAIN_BATCH = 32
EVAL_BATCH = 64
GRAD_STEP = 1e-5
GRAD_TOL = 1e-3  # acceptance criterion 5, sampled model entries
GRAD_TAG = 0x67726164  # "grad": the gradient check's own sample stream


@dataclass(frozen=True)
class Sizes:
    train_count: int = 640
    val_count: int = 64
    test_count: int = 128        # per test subset, train-*: two batches
    infer_test_count: int = 64   # per test subset, infer-cross: one batch
    # training epochs per family: 100 steps give a p90 with ten steps beyond
    # it; vssd gets 200, as some seeds sit at chance (loss ~ ln 2) for 6 epochs
    epochs: dict = field(default_factory=lambda: {"vim": 5, "vssd": 10})
    setups: int = 9              # set-up repetitions; setup_s is their median
    min_passes: int = 2
    grad_samples: int = 16
    min_in_dist_acc: float = 0.95  # acceptance criterion 7


FULL = Sizes()

# span name -> where the program looks the function up
SPANS = (
    ("blocks.forward", B, "forward"),
    ("training.cross_entropy", TR, "cross_entropy"),
    ("tensor.backward", T, "backward"),
    ("tensor.toposort", T, "toposort"),
    ("training.adam_step", TR.Adam, "step"),
    ("blocks.patch_embed", B, "patch_embed"),
    ("blocks.rms_norm", B, "rms_norm"),
    ("blocks.vim_block", B, "vim_block"),
    ("blocks.mamba_vision_mixer", B, "mamba_vision_mixer"),
    ("blocks.vssd_block", B, "vssd_block"),
    ("blocks.merged_update", B, "merged_update"),
    ("blocks.conv1d_depthwise", B, "conv1d_depthwise"),
    ("blocks.conv2d_depthwise3", B, "conv2d_depthwise3"),
    ("selective.scan", B, "selective_scan_parallel"),
    ("selective.scan", B, "selective_scan_sequential"),
    ("selective.nc_ssd", B, "nc_ssd"),
    ("selective.project_params", S, "project_params"),
    ("scan2d.make_scan", scan2d, "make_scan"),
    ("data.make_dataset", D, "make_dataset"),
    ("blocks.build_model", B, "build_model"),
    ("blocks.save_checkpoint", B, "save_checkpoint"),
    ("blocks.load_checkpoint", B, "load_checkpoint"),
)

# per-layer metric -> (span name, what is read, unit of work it is taken over)
LAYER_METRICS = {
    "tensor.backward.s": ("tensor.backward", "self", "work"),
    "tensor.toposort.s": ("tensor.toposort", "self", "work"),
    "tensor.graph_nodes": ("tensor.toposort", "items", "work"),
    "selective.scan.s": ("selective.scan", "self", "work"),
    "selective.scan.calls": ("selective.scan", "calls", "work"),
    "selective.nc_ssd.s": ("selective.nc_ssd", "self", "work"),
    "selective.nc_ssd.calls": ("selective.nc_ssd", "calls", "work"),
    "selective.project_params.s": ("selective.project_params", "self", "work"),
    "blocks.conv2d_depthwise3.s": ("blocks.conv2d_depthwise3", "self", "work"),
    "blocks.conv1d_depthwise.s": ("blocks.conv1d_depthwise", "self", "work"),
    "blocks.merged_update.self_s": ("blocks.merged_update", "self", "work"),
    "blocks.core.self_s": ("blocks.core", "self", "work"),
    "blocks.forward.s": ("blocks.forward", "self", "work"),
    "blocks.patch_embed.s": ("blocks.patch_embed", "self", "work"),
    "blocks.rms_norm.s": ("blocks.rms_norm", "self", "work"),
    "blocks.vim_block.self_s": ("blocks.vim_block", "self", "work"),
    "blocks.mamba_vision_mixer.self_s": ("blocks.mamba_vision_mixer", "self", "work"),
    "blocks.vssd_block.self_s": ("blocks.vssd_block", "self", "work"),
    "scan2d.make_scan.calls": ("scan2d.make_scan", "calls", "work"),
    "scan2d.make_scan.s": ("scan2d.make_scan", "self", "work"),
    "training.cross_entropy.s": ("training.cross_entropy", "self", "work"),
    "training.adam_step.s": ("training.adam_step", "self", "work"),
    "data.make_dataset.s": ("data.make_dataset", "self", "setup"),
    "blocks.build_model.s": ("blocks.build_model", "self", "setup"),
    "blocks.save_checkpoint.s": ("blocks.save_checkpoint", "self", "setup"),
    "blocks.load_checkpoint.s": ("blocks.load_checkpoint", "self", "setup"),
}

# spans that begin a training step's blocking path; coverage is their share
TOP_LEVEL = ("blocks.forward", "training.cross_entropy", "tensor.backward",
             "training.adam_step")


@dataclass
class Unit:
    """One repeated piece of timed work (see the module doc), or one set-up."""

    kind: str      # "setup", "step", "eval" (train-*) or "round" (infer-cross)
    index: int
    family: str
    traced: bool
    start: float
    end: float = 0.0
    ref: float = 0.0  # wall-clock of its reference kernel around it

    @property
    def name(self) -> str:
        return f"{self.kind}.{self.index}.{self.family}"

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def scaled(self) -> float:
        """The unit's wall-clock at the reference speed (see module doc)."""
        return self.seconds * REF_SECONDS / self.ref


class Reference:
    """A fixed numpy workload timed between steps and evaluation units.

    It does the kind of work a vissm step does (small matmuls, elementwise
    maps and reductions over (batch, tokens, channels, state) arrays) and
    never calls vissm, so no change to the library can move it. Dividing a
    unit's wall-clock by the reference runs around it cancels the speed of
    the host at that moment.
    """

    REPS = 8

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 65, 16))
        self.w = rng.standard_normal((16, 16))
        self.state = rng.standard_normal((32, 65, 16, 4))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            h = self.x @ self.w
            g = np.exp(-np.abs(h)) * h
            (self.state * g[..., None]).sum(-1)
        return time.perf_counter() - t0


class SetupReference:
    """A fixed numpy workload timed around each set-up.

    Dataset synthesis makes one 32x32 image at a time: a few plane waves,
    a padded box blur, Python-integer hashing and a clip, so its time goes to
    the interpreter and ufunc dispatch rather than to memory. This kernel
    does the same kind of work without calling vissm, and so reacts to the
    host as set-up does.
    """

    IMAGES = 150
    MASK = (1 << 64) - 1

    def __init__(self):
        self.yy = np.arange(32.0)[:, None] / 32
        self.xx = np.arange(32.0)[None, :] / 32

    def seconds(self) -> float:
        t0 = time.perf_counter()
        state = 0
        for _ in range(self.IMAGES):
            field = np.full((32, 32), 0.5)
            for k in range(4):
                state = (state + 0x9E3779B97F4A7C15) & self.MASK
                phase = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & self.MASK) >> 11
                field += 0.1 * np.sin(2.0 * np.pi * (self.xx * (k + 1) + self.yy)
                                      + phase * 2.0 ** -53)
            padded = np.pad(field, 1, mode="edge")
            blur = np.zeros_like(field)
            for i in range(3):
                blur += padded[i:i + 32, i:i + 32]
            np.clip(field + blur / 9.0, 0.0, 1.0)
        return time.perf_counter() - t0


class Bench:
    """State of one benchmark run: units, op counts, failures and spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.rec = Recorder()
        self.references = {"setup": SetupReference(), "work": Reference()}
        self.last_ref: dict = {}  # reference -> its latest wall-clock
        self.missing: list = []   # SPANS routes this version of the library lacks
        self.units: list = []
        self.open: Unit | None = None
        self.training = False
        self.family = ""  # the family being trained, for per-family counts
        self.predict_depth = 0
        self.attempted = 0
        self.failures: list = []

    def begin(self, kind: str, index: int, family: str = "", alternate=True) -> None:
        ref = "setup" if kind == "setup" else "work"
        if ref not in self.last_ref:
            self.last_ref[ref] = self.references[ref].seconds()
        traced = self.trace and (index % 2 == 0 or not alternate)
        self.open = Unit(kind, index, family, traced, time.perf_counter())
        self.units.append(self.open)
        self.rec.unit = self.open.name
        self.rec.enabled = traced

    def end(self) -> None:
        unit, self.open = self.open, None
        unit.end = time.perf_counter()
        self.rec.enabled = False
        self.rec.unit = ""
        ref = "setup" if unit.kind == "setup" else "work"
        after = self.references[ref].seconds()
        unit.ref = (self.last_ref[ref] + after) / 2  # the reference runs on both sides
        self.last_ref[ref] = after

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def of(self, kind: str, traced=None) -> list:
        return [u for u in self.units
                if u.kind == kind and (traced is None or u.traced == traced)]

    # -- hooks ---------------------------------------------------------------

    def install(self, patches: Patches) -> None:
        """Step clock (always) and span wrappers (traced runs only)."""
        if self.trace:
            for name, owner, attr in SPANS:
                if attr not in owner.__dict__:
                    self.missing.append(f"{name} ({owner.__name__}.{attr})")
                    continue
                fn = owner.__dict__[attr]
                if attr == "merged_update":
                    fn = self._traced_merged_update(fn)
                count = len if name == "tensor.toposort" else None
                patches.set(owner, attr, self.rec.wrap(name, fn, count))
        patches.set(B, "forward", self._step_start(B.forward))
        patches.set(B, "predict", self._eval_batch(B.predict))
        patches.set(TR.Adam, "step", self._step_end(TR.Adam.__dict__["step"]))

    def _traced_merged_update(self, fn):
        def merged_update(streams, core_fn, *args, **kwargs):
            return fn(streams, self.rec.wrap("blocks.core", core_fn), *args, **kwargs)
        return merged_update

    def _step_start(self, fn):
        def forward(*args, **kwargs):
            if self.training and self.predict_depth == 0 and self.open is None:
                self.begin("step", len(self.of("step")), self.family)
            return fn(*args, **kwargs)
        return forward

    def _step_end(self, fn):
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.open is not None and self.open.kind == "step":
                self.attempted += 1
                self.end()
            return out
        return step

    def _eval_batch(self, fn):
        def predict(*args, **kwargs):
            if self.open is not None and self.open.kind in ("eval", "round"):
                self.attempted += 1
            self.predict_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.predict_depth -= 1
        return predict


# -- correctness gate -------------------------------------------------------------


def logits_of(model, images) -> np.ndarray:
    with T.no_grad():
        return B.forward(model, images).data


def gradient_errors(model, images, rng: SplitMix64, samples: int) -> list:
    """Relative errors of sampled analytic gradient entries against central
    finite differences of a random linear readout of the logits."""
    readout = rng.normal_array((len(images), model.cfg.classes))
    loss = T.sum_(T.mul(B.forward(model, images), T.Tensor(readout)))
    for p in model.params.values():
        p.zero_grad()
    T.backward(loss)
    names = list(model.params)
    errors = []
    for _ in range(samples):
        p = model.params[names[rng.below(len(names))]]
        flat = p.data.reshape(-1)
        i = rng.below(flat.size)
        analytic = 0.0 if p.grad is None else float(p.grad.reshape(-1)[i])
        orig = flat[i]
        flat[i] = orig + GRAD_STEP
        f_plus = float(np.sum(logits_of(model, images) * readout))
        flat[i] = orig - GRAD_STEP
        f_minus = float(np.sum(logits_of(model, images) * readout))
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2 * GRAD_STEP)
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    for p in model.params.values():
        p.zero_grad()
    return errors


def gate(bench: Bench, models: dict, images: np.ndarray, seed: int, sizes: Sizes) -> None:
    """Checks that run before any timing, outside the timed region and set-up."""
    for family, model in models.items():
        first = logits_of(model, images)
        second = logits_of(model, images)
        bench.check(bool(np.all(np.isfinite(first))) and np.array_equal(first, second),
                    f"{family}: logits not finite or not repeatable")
        rng = SplitMix64(hash_combine(seed, FAMILIES.index(family), GRAD_TAG))
        for err in gradient_errors(model, images[:2], rng, sizes.grad_samples):
            bench.check(err < GRAD_TOL, f"{family}: gradient relative error {err:.2e}")


# -- set-up -----------------------------------------------------------------------------


def model_seed(seed: int, family: str) -> int:
    return hash_combine(seed, FAMILIES.index(family))


def setup_train(seed: int, family: str, sizes: Sizes):
    bundle = D.make_dataset(seed=seed, train_count=sizes.train_count,
                            val_count=sizes.val_count, test_count=sizes.test_count)
    model = B.build_model(B.config_from_preset(f"desk-{family}"), seed=model_seed(seed, family))
    return bundle, {family: model}


def setup_infer(seed: int, sizes: Sizes, ckpt_dir: str):
    """Test subsets plus each family's model, built and read back from disk."""
    bundle = D.make_dataset(seed=seed, train_count=2, val_count=2,
                            test_count=sizes.infer_test_count)
    built, loaded = {}, {}
    for family in FAMILIES:
        cfg = B.config_from_preset(f"desk-{family}", scan="cross")
        built[family] = B.build_model(cfg, seed=model_seed(seed, family))
        path = os.path.join(ckpt_dir, f"{family}.bin")
        B.save_checkpoint(built[family], path)
        loaded[family] = B.load_checkpoint(path)
    return bundle, built, loaded


# -- metrics --------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def by_index(units: list, attr: str) -> list:
    """A unit attribute summed per unit index (an infer-cross round spans three units)."""
    out: dict = {}
    for u in units:
        out[u.index] = out.get(u.index, 0.0) + getattr(u, attr)
    return list(out.values())


def layer_metrics(bench: Bench, work_kind: str) -> dict:
    """Median over traced units of each layer's per-unit self time or count."""
    sums: dict = {}
    for span, own in zip(bench.rec.spans, self_times(bench.rec.spans)):
        kind, index = span.unit.split(".")[:2]
        for what, value in (("self", own), ("calls", 1), ("items", span.items)):
            key = (kind, int(index), span.name, what)
            sums[key] = sums.get(key, 0.0) + value
    kinds = {"work": work_kind, "setup": "setup"}
    out = {}
    for metric, (span, what, over) in LAYER_METRICS.items():
        indices = sorted({u.index for u in bench.of(kinds[over], traced=True)})
        out[metric] = median([sums.get((kinds[over], i, span, what), 0.0) for i in indices])
    return out


def trace_summary(bench: Bench, work_kind: str) -> dict:
    """Coverage of the traced units by top-level spans, and tracing overhead."""
    top: dict = {}
    for s in bench.rec.spans:
        if s.parent < 0 and (work_kind != "step" or s.name in TOP_LEVEL):
            top.setdefault(s.unit, []).append((s.start, s.end))
    traced = bench.of(work_kind, traced=True)
    share: dict = {}
    for u in traced:
        part = share.setdefault(u.index, [0.0, 0.0])
        part[0] += covered((u.start, u.end), top.get(u.name, []))
        part[1] += u.seconds
    on = median(by_index(traced, "seconds"))
    off = median(by_index(bench.of(work_kind, traced=False), "seconds"))
    return {"trace.coverage_pct": median([100.0 * c / t for c, t in share.values()]),
            "trace.overhead_ms": 1e3 * (on - off)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- protocols ----------------------------------------------------------------------------


def run_setups(bench: Bench, sizes: Sizes, make):
    """Repeat set-up; the median wall-clock is setup_s. Keeps the last result."""
    result = None
    for k in range(sizes.setups):
        bench.begin("setup", k, alternate=False)
        result = make()
        bench.end()
    return result


def train_protocol(bench: Bench, workload: str, seed: int, seconds: float, sizes: Sizes):
    family = WORKLOADS[workload][0]
    bundle, models = run_setups(bench, sizes, lambda: setup_train(seed, family, sizes))
    gate(bench, models, bundle.train.images[:8], seed, sizes)
    if bench.failures:
        return {}
    epochs = sizes.epochs[family]
    cfg = TR.TrainConfig(batch=TRAIN_BATCH, epochs=epochs, seed=seed)
    bench.family = family
    bench.training = True
    t0 = time.perf_counter()
    model, state = TR.train(models[family], bundle, cfg=cfg)
    train_s = time.perf_counter() - t0
    bench.training = False

    tests = bundle.test_subsets
    first = {}
    passes = 0
    t0 = time.perf_counter()
    while passes < sizes.min_passes or time.perf_counter() - t0 < seconds:
        for ds in tests:
            bench.begin("eval", len(bench.of("eval")))
            rep = TR.evaluate(model, [ds], seeds=[seed], batch=EVAL_BATCH)
            bench.end()
            first.setdefault(ds.subset_tag, rep.per_subset)
            bench.check(rep.per_subset == first[ds.subset_tag], "evaluation not repeatable")
        passes += 1
    acc = {tag: rep[tag] for tag, rep in first.items()}
    in_dist = (acc["real"] + acc[D.GENERATORS[0]]) / 2
    bench.check(in_dist >= sizes.min_in_dist_acc,
                f"in-distribution accuracy {in_dist:.4f} < {sizes.min_in_dist_acc}")

    steps = bench.of("step", traced=False)
    evals = bench.of("eval", traced=False)
    step_ms = [1e3 * u.seconds for u in steps]
    eval_rate = sizes.test_count / median([u.scaled for u in evals])
    train_s -= sum(u.ref for u in bench.of("step"))  # the reference runs between steps
    steps_per_epoch = -(-sizes.train_count // TRAIN_BATCH)
    return {
        "step_ms_p50": 1e3 * median([u.scaled for u in steps]),
        "eval_imgs_per_s": eval_rate,
        f"eval_imgs_per_s.{family}": eval_rate,
        "wall.step_ms_p50": median(step_ms),
        "wall.step_ms_p90": float(np.percentile(step_ms, 90)),
        "wall.eval_imgs_per_s": sizes.test_count / median([u.seconds for u in evals]),
        "wall.train_imgs_per_s": epochs * sizes.train_count / train_s,
        "step_samples": len(steps),
        "final_loss": float(np.mean(state.loss_history[-steps_per_epoch:])),
        "in_dist_acc": in_dist,
        "per_subset": acc,
    }


def infer_protocol(bench: Bench, seed: int, seconds: float, sizes: Sizes, ckpt_dir: str):
    bundle, built, loaded = run_setups(bench, sizes,
                                       lambda: setup_infer(seed, sizes, ckpt_dir))
    probe = bundle.test_subsets[0].images[:8]
    for family in FAMILIES:
        bench.check(np.array_equal(logits_of(built[family], probe),
                                   logits_of(loaded[family], probe)),
                    f"{family}: checkpoint round-trip changed the logits")
    gate(bench, loaded, probe, seed, sizes)
    if bench.failures:
        return {}
    tests = bundle.test_subsets
    first = {}
    t0 = time.perf_counter()
    rounds = 0
    while rounds < sizes.min_passes * len(tests) or time.perf_counter() - t0 < seconds:
        ds = tests[rounds % len(tests)]
        for family in FAMILIES:
            bench.begin("round", rounds, family)
            rep = TR.evaluate(loaded[family], [ds], seeds=[seed], batch=EVAL_BATCH)
            bench.end()
            key = (family, ds.subset_tag)
            first.setdefault(key, rep.per_subset)
            bench.check(rep.per_subset == first[key], f"{family}: evaluation not repeatable")
        rounds += 1

    untraced = bench.of("round", traced=False)
    per_family = {f: [u for u in untraced if u.family == f] for f in FAMILIES}
    rate = {f: sizes.infer_test_count / median([u.scaled for u in us])
            for f, us in per_family.items()}
    scale = math.exp(statistics.fmean(math.log(r) for r in BASELINE_RATES.values()))
    round_s = by_index(untraced, "seconds")
    return {
        "step_ms_p50": 1e3 * median(by_index(untraced, "scaled")),
        "eval_imgs_per_s": scale * min(rate[f] / BASELINE_RATES[f] for f in FAMILIES),
        **{f"eval_imgs_per_s.{f}": r for f, r in rate.items()},
        "wall.step_ms_p50": 1e3 * median(round_s),
        **{f"wall.eval_imgs_per_s.{f}": sizes.infer_test_count / median([u.seconds for u in us])
           for f, us in per_family.items()},
        "step_samples": len(round_s),
    }


def per_family_counts(bench: Bench) -> dict:
    """Exact calls per forward of each family, from the traced units."""
    calls: dict = {}
    for s in bench.rec.spans:
        family = s.unit.split(".")[2]
        if family:
            calls[family, s.name] = calls.get((family, s.name), 0) + 1
    names = ("selective.scan", "selective.nc_ssd", "scan2d.make_scan", "blocks.merged_update")
    return {f: {n: calls.get((f, n), 0) / n_fwd for n in names}
            for (f, name), n_fwd in calls.items() if name == "blocks.forward"}


END_TO_END = ("setup_s", "step_ms_p50", "eval_imgs_per_s", "peak_rss_mb")
EXTRA_LAYER = ("final_loss", "in_dist_acc", "eval_imgs_per_s.vim",
               "eval_imgs_per_s.mambavision", "eval_imgs_per_s.vssd")
PER_LAYER = (*LAYER_METRICS, "trace.coverage_pct", "trace.overhead_ms",
             "trace.missing_routes", *EXTRA_LAYER)
# ref_ms and img/ref_s are times at the reference speed (see the module doc);
# setup_s is one too, though its unit reads s
UNITS = {
    "setup_s": "s", "step_ms_p50": "ref_ms", "eval_imgs_per_s": "img/ref_s",
    "peak_rss_mb": "MiB", "trace.coverage_pct": "%", "trace.overhead_ms": "ms",
    "trace.missing_routes": "count", "final_loss": "nat", "in_dist_acc": "fraction",
    **{f"eval_imgs_per_s.{f}": "img/ref_s" for f in FAMILIES},
    **{k: "count" if what != "self" else "s" for k, (_, what, _) in LAYER_METRICS.items()},
}


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # end-to-end or per-layer, by mode
    report: dict = field(default_factory=dict)   # everything, for the run's JSON file


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, sizes: Sizes = FULL) -> tuple:
    """Run one workload; returns (bench, outcome). Leaves the library unpatched."""
    bench = Bench(trace)
    ckpt_dir = os.path.join(out_dir, f"ckpt-{os.getpid()}")
    os.makedirs(ckpt_dir, exist_ok=True)
    try:
        with Patches() as patches:
            bench.install(patches)
            if workload == "infer-cross":
                figures = infer_protocol(bench, seed, seconds, sizes, ckpt_dir)
            else:
                figures = train_protocol(bench, workload, seed, seconds, sizes)
    except T.NumericError as exc:
        bench.check(False, f"numeric failure: {exc}")
        figures = {}
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    figures["setup_s"] = median([u.scaled for u in bench.of("setup")])
    figures["wall.setup_s"] = median([u.seconds for u in bench.of("setup")])
    figures["wall.ref_ms"] = 1e3 * median([u.ref for u in bench.units if u.kind != "setup"])
    figures["wall.setup_ref_ms"] = 1e3 * median([u.ref for u in bench.of("setup")])
    figures["peak_rss_mb"] = peak_rss_mb()
    outcome = Outcome(report={"workload": workload, "seed": seed, "seconds": seconds,
                              "trace": trace, "sizes": asdict(sizes),
                              "environment": environment(), "figures": figures,
                              "failures": bench.failures,
                              "missing_routes": bench.missing,
                              "units": [[u.name, u.traced, u.seconds, u.ref]
                                        for u in bench.units]})
    if bench.failures:
        return bench, outcome
    if trace:
        work_kind = "round" if workload == "infer-cross" else "step"
        layers = layer_metrics(bench, work_kind)
        layers.update(trace_summary(bench, work_kind))
        layers["trace.missing_routes"] = len(bench.missing)
        layers.update({k: figures.get(k, 0.0) for k in EXTRA_LAYER})
        outcome.metrics = {k: layers[k] for k in PER_LAYER}
        outcome.report["calls_per_forward"] = per_family_counts(bench)
        outcome.report["spans"] = bench.rec.to_json()
    else:
        outcome.metrics = {k: figures[k] for k in END_TO_END}
    return bench, outcome


def write_report(outcome: Outcome, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(outcome.report, fh)
