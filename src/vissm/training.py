"""Training loop, evaluation protocol, and the cross-generator experiment.

Training minimizes softmax cross-entropy with Adam under a cosine-decayed
learning rate; the checkpoint kept is the one with the best validation
accuracy. Everything is a pure function of (inputs, seed): batch order comes
from the splitmix stream, so two runs with equal seeds produce bit-identical
parameters and loss histories, and a serialized TrainState resumes the
exact trajectory.

Evaluation mirrors the per-subset accuracy protocol: one accuracy per test
subset plus their unweighted mean.

The cross-generator experiment is a list of jobs, one per (seed, family)
(``crossgen_jobs``); each job trains and evaluates one model and returns a
JSON-ready row (``run_crossgen_job``), and the report is built from the rows
alone (``crossgen_report``), so rows can be stored, read back or produced
elsewhere without changing the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import blocks as B
from . import files
from . import tensor as T
from .data import DatasetBundle, make_dataset
from .rng import SplitMix64, hash_combine
from .tensor import NumericError, Tensor


# -- losses -----------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; labels are integer class indices."""
    labels = np.asarray(labels, dtype=np.intp)
    shift = Tensor(logits.data.max(axis=-1, keepdims=True))  # constant shift
    z = T.sub(logits, shift)
    lse = T.log(T.sum_(T.exp(z), axis=-1))
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    picked = T.sum_(T.mul(z, Tensor(onehot)), axis=-1)
    return T.mean(T.sub(lse, picked))


# -- optimizer -------------------------------------------------------------------


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch: int = 32
    epochs: int = 4
    seed: int = 0

    def __post_init__(self):
        if min(self.batch, self.epochs) < 1 or not 0 <= self.lr < math.inf:
            raise ValueError(f"need batch >= 1, epochs >= 1 and a finite lr >= 0, got {self}")


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


def cosine_lr(base: float, step: int, total: int) -> float:
    """Cosine decay from base to 0 over ``total`` (>= 1) steps."""
    frac = min(max(step / total, 0.0), 1.0)
    return base * 0.5 * (1.0 + np.cos(np.pi * frac))


# -- train state -----------------------------------------------------------------


@dataclass
class TrainState:
    """Everything needed to resume training mid-run at an epoch boundary."""

    epoch: int
    step: int
    total_steps: int
    rng_state: tuple
    best_val_acc: float
    best_epoch: int
    loss_history: list = field(default_factory=list)
    val_history: list = field(default_factory=list)


STATE_MAGIC = b"VSSMSTAT"
# the header's JSON type per key: the TrainState fields plus the optimizer's step count
_JSON_KIND = {"int": int, "float": float, "tuple": list, "list": list}
_STATE_KINDS = {**{f.name: _JSON_KIND[f.type] for f in fields(TrainState)}, "adam_t": int}
_GROUPS = ("p/", "m/", "v/", "b/")  # parameters, Adam's m and v, best parameters


def save_train_state(state: TrainState, optimizer: Adam, model: B.Model, path,
                     best_params: dict) -> None:
    """``state`` and the optimizer's step count as the header of a ``VSSMSTAT``
    container; its arrays are the parameters, both Adam moments and the best
    parameters, each group in parameter order."""
    header = json.dumps({**asdict(state), "adam_t": optimizer.t}, sort_keys=True)
    groups = zip(_GROUPS, ({k: p.data for k, p in model.params.items()},
                           optimizer.m, optimizer.v, best_params))
    files.write_arrays(path, STATE_MAGIC, header, {prefix + name: group[name]
                                                   for prefix, group in groups
                                                   for name in model.params})


def load_train_state(path, model: B.Model):
    """(state, optimizer, best_params) from a file written by ``save_train_state``
    for a model of the same layout; the parameters are loaded into ``model``.
    ValueError if the file does not fit."""
    def expect(text):
        return (files.json_object(text, _STATE_KINDS, _STATE_KINDS, "train state"),
                [(prefix + name, p.data.shape)
                 for prefix in _GROUPS for name, p in model.params.items()])

    meta, arrays = files.read_arrays(path, STATE_MAGIC, "train state", expect)
    optimizer = Adam(model.params)
    optimizer.t = meta.pop("adam_t")
    for name, p in model.params.items():
        p.data[...] = arrays["p/" + name]
        optimizer.m[name][...] = arrays["m/" + name]
        optimizer.v[name][...] = arrays["v/" + name]
    best_params = {name: arrays["b/" + name] for name in model.params}
    meta["rng_state"] = tuple(meta["rng_state"])
    return TrainState(**meta), optimizer, best_params


# -- training loop -----------------------------------------------------------------


def train(model: B.Model, bundle: DatasetBundle, cfg: TrainConfig | None = None,
          resume=None, state_path=None, run_until: int | None = None):
    """Fit the model on ``bundle.train``; keeps the parameters of the epoch
    with the best ``bundle.val`` accuracy.

    Returns (model, TrainState). ``run_until`` stops at an earlier epoch
    boundary without shortening the learning-rate schedule (for sliced runs);
    ``resume`` takes the (state, optimizer, best_params) triple from
    load_train_state and continues the exact uninterrupted trajectory; without
    it the run builds the epoch-0 triple and takes the same path.

    Each step's graph is dropped once its backward pass has run, before the
    optimizer step. Its arrays go back to the heap, and under the malloc
    thresholds that importing ``tensor`` pins the next step's arrays come
    from that freed memory without faulting in again.
    """
    train_ds, val = bundle.train, bundle.val
    cfg = cfg or TrainConfig()

    n = len(train_ds)
    steps_per_epoch = -(-n // cfg.batch)
    total_steps = cfg.epochs * steps_per_epoch

    if resume is None:  # a fresh run starts from its epoch-0 state
        seeded = SplitMix64(hash_combine(cfg.seed, 0x747261696E))
        resume = (TrainState(epoch=0, step=0, total_steps=total_steps,
                             rng_state=seeded.get_state(), best_val_acc=-1.0, best_epoch=-1),
                  Adam(model.params), {k: p.data.copy() for k, p in model.params.items()})
    state, optimizer, best_params = resume
    if state.total_steps != total_steps:
        raise ValueError("resume schedule does not match the requested run")
    rng = SplitMix64(0)
    rng.set_state(state.rng_state)

    stop_epoch = cfg.epochs if run_until is None else min(run_until, cfg.epochs)
    labels_int = train_ds.labels.astype(np.intp)
    for epoch in range(state.epoch, stop_epoch):
        order = list(range(n))
        rng.shuffle(order)
        for lo in range(0, n, cfg.batch):
            idx = order[lo:lo + cfg.batch]
            logits = B.forward(model, train_ds.images[idx])
            loss = cross_entropy(logits, labels_int[idx])
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(f"training loss diverged at step {state.step}")
            for p in model.params.values():
                p.zero_grad()
            T.backward(loss)
            del logits, loss  # the step's graph dies here, not at the next forward
            optimizer.step(cosine_lr(cfg.lr, state.step, total_steps))
            state.loss_history.append(loss_val)
            state.step += 1
        val_acc = evaluate(model, [val]).mean_accuracy
        state.val_history.append(val_acc)
        state.epoch = epoch + 1
        state.rng_state = rng.get_state()
        if val_acc > state.best_val_acc:
            state.best_val_acc = val_acc
            state.best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in model.params.items()}
        if state_path is not None:
            save_train_state(state, optimizer, model, state_path, best_params)

    for name, p in model.params.items():
        p.data[...] = best_params[name]
    return model, state


# -- evaluation ---------------------------------------------------------------------


@dataclass
class EvalReport:
    per_subset: dict
    mean_accuracy: float
    seeds: list
    model_summary: dict
    schema: str = "vissm.eval_report/1"


EVAL_BATCH = 64  # images per no-grad forward in evaluate and export_features


def evaluate(model: B.Model, subsets: list, seeds=None, batch: int = EVAL_BATCH) -> EvalReport:
    """The model's per-subset accuracy plus the unweighted mean over subsets."""
    if not subsets:
        raise ValueError("no test subsets given")
    per_subset = {}
    for ds in subsets:
        if len(ds) == 0:
            raise ValueError(f"empty test subset {ds.subset_tag!r}")
        correct = 0
        for lo in range(0, len(ds), batch):
            preds = B.predict(model, ds.images[lo:lo + batch])
            correct += int(np.sum(preds.astype(bool) == ds.labels[lo:lo + batch]))
        per_subset[ds.subset_tag] = correct / len(ds)
    mean_acc = float(np.mean(list(per_subset.values())))
    return EvalReport(per_subset=per_subset, mean_accuracy=mean_acc,
                      seeds=list(seeds or []),
                      model_summary={"kind": "model", **asdict(model.cfg)})


# -- cross-generator experiment ----------------------------------------------------------


def crossgen_jobs(families: list, seeds: list) -> list:
    """The (seed, family) jobs of a cross-generator run, seed outer; ValueError
    for an empty list, an unknown family or a family or seed given twice."""
    if not set(families) <= set(B.FAMILIES):
        raise ValueError(f"families must be among {list(B.FAMILIES)}, got {list(families)}")
    for name, items in (("families", families), ("seeds", seeds)):
        if not items or len(set(items)) < len(items):
            raise ValueError(f"need one or more {name}, none repeated, got {list(items)}")
    return [(seed, family) for seed in seeds for family in families]


def run_crossgen_job(job: tuple, train_cfg: TrainConfig, bundle: DatasetBundle) -> dict:
    """Build, train and evaluate the desk model of one (seed, family) job on
    its seed's ``bundle``. Returns the job's row, a JSON-ready dict."""
    seed, family = job
    family_tag = sum(ord(ch) << (8 * i) for i, ch in enumerate(family[:8]))
    model = B.build_model(B.config_from_preset(f"desk-{family}"),
                          seed=hash_combine(seed, family_tag))
    model, state = train(model, bundle, cfg=train_cfg)
    return {"family": family, "seed": seed,
            "per_subset": evaluate(model, bundle.test_subsets).per_subset,
            "best_val_acc": state.best_val_acc, "final_loss": state.loss_history[-1]}


def _mean_sd(values) -> dict:
    return {"mean": float(np.mean(values)), "sd": float(np.std(values))}


def crossgen_report(rows: list, train_generator: str) -> dict:
    """The cross-generator report of ``rows``: the rows themselves and, per
    family, in-distribution accuracy (mean of the real subset and the training
    generator's subset) and out-of-distribution accuracy (mean over the other
    generators), each as mean and sd over seeds, plus each subset's mean.
    Families and seeds are listed in order of first appearance."""
    families = list(dict.fromkeys(row["family"] for row in rows))
    ood_tags = [t for t in rows[0]["per_subset"] if t not in ("real", train_generator)]
    aggregates = {}
    for family in families:
        accs = [row["per_subset"] for row in rows if row["family"] == family]
        aggregates[family] = {
            "in_distribution": _mean_sd([np.mean([a["real"], a[train_generator]]) for a in accs]),
            "out_of_distribution": _mean_sd([np.mean([a[t] for t in ood_tags]) for a in accs]),
            "per_subset_mean": {tag: float(np.mean([a[tag] for a in accs])) for tag in accs[0]},
        }
    return {"schema": "vissm.crossgen/1", "train_generator": train_generator,
            "seeds": list(dict.fromkeys(row["seed"] for row in rows)),
            "families": families, "results": rows, "aggregates": aggregates}


def cross_generator_experiment(families: list, seeds: list, train_cfg: TrainConfig,
                               progress=None, **corpus) -> dict:
    """Train on one generator, test on all of them, across families and seeds:
    ``crossgen_report`` of every job's row, the jobs run in order.

    ``corpus`` holds make_dataset's keyword arguments; each seed's corpus is
    drawn once, after the previous seed's is dropped. ``progress(row)`` is
    called with each row as its job finishes.
    """
    rows, bundle = [], None
    for seed, family in crossgen_jobs(families, seeds):
        if bundle is None or bundle.manifest["seed"] != seed:
            bundle = None  # one corpus alive at a time
            bundle = make_dataset(seed=seed, **corpus)
        rows.append(run_crossgen_job((seed, family), train_cfg, bundle))
        if progress is not None:
            progress(rows[-1])
    return crossgen_report(rows, bundle.manifest["train_generator"])


# -- feature export ------------------------------------------------------------------------


def export_features(model: B.Model, subsets: list, path) -> int:
    """Penultimate-layer features of the images of ``subsets``, the datasets
    ``evaluate`` takes, as CSV: subset_tag, label, f_0..f_{D-1}, one row per
    image, subsets in order.

    The forward passes take ``EVAL_BATCH`` images at a time over the subsets
    run end to end, so a batch may span two subsets. Floats are written with
    repr-exact formatting so re-exports are byte-identical. Returns the
    number of rows written.
    """
    images = np.concatenate([ds.images for ds in subsets])
    feats = np.concatenate([B.penultimate(model, images[lo:lo + EVAL_BATCH])
                            for lo in range(0, len(images), EVAL_BATCH)])
    rows = ((ds.subset_tag, int(label)) for ds in subsets for label in ds.labels)
    files.write_csv(path, ["subset_tag", "label"] + [f"f_{i}" for i in range(feats.shape[1])],
                    ([tag, label] + [repr(float(v)) for v in row]
                     for (tag, label), row in zip(rows, feats)))
    return len(feats)
