"""Time, page faults and memory peak of the no-grad forward or of a training
step, per family and scan.

    PYTHONPATH=<checkout>/src python tests/probe_forward.py [--per-op | --train]
        [--families vim,mambavision,vssd] [--scans raster,cross]
        [--batch 64] [--repeats 5]

For each desk preset family and scan strategy it builds the model (seed 3),
draws one batch of images, runs one warm-up forward under ``no_grad`` and
then ``--repeats`` timed ones and one traced one, and prints one line:

    <family> <scan> ms <median ms> faults <median minor faults> peak_mib <peak>

The times are ``time.perf_counter`` medians and the faults are medians of the
``ru_minflt`` difference of ``getrusage(RUSAGE_SELF)`` around each forward;
the peak is tracemalloc's peak over the traced forward. With ``--per-op``
every timed forward also wraps ``blocks._depthwise``, the scan, ``nc_ssd``,
``silu``, ``take``, ``add`` and ``matmul``, and one line per op follows the
family's line:

    <family> <scan>   <op> calls <n> ms <self ms> faults <self faults> peak_mib <peak>

with per-forward medians of its self figures: an op listed here that runs
inside another (``nc_ssd``'s matmuls and adds) counts toward itself alone.
Its peak is taken over one more traced forward with the wrappers on: the
highest tracemalloc peak of one of its calls above the traced bytes at the
call's entry, children included, so an array an op makes and drops before
the forward's peak shows there.
Wrapping costs a few microseconds per call, so the family line's time is
taken with the wrappers on too.

With ``--train`` each case is recorded training steps instead, as
``training.train`` runs them (forward, cross-entropy, backward, the graph
dropped, an Adam step), on batches of 32 unless ``--batch`` is given and
with the raster scan unless ``--scans`` is. From a fresh ``T.workspace``,
two traced steps give the tracemalloc peak and the arrays and bytes the
workspace then pools; ``--repeats`` more steps in that workspace give the
median time and minor faults of a step. These are a fresh process's
faults: a desk-vim step here faults about 5.9k times, steadily over 40
steps, where a step of a plain ``vissm train`` run faults about 0 times
(22.0k faults in all at 20, 40 and 80 steps on a 640-image corpus):

    <family> <scan> train ms <median ms> faults <median faults> peak_mib <peak>
        pool <arrays> pool_mib <pooled MiB>

(one line). Only this process's own counters are read.
BLAS is pinned to one thread before numpy loads. pytest does not collect
this file; ``test_blocks.py`` smoke-tests it.
"""

import os

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import contextlib
import resource
import statistics
import time
import tracemalloc

import numpy as np

from vissm import blocks as B
from vissm import tensor as T
from vissm import training as TR

# the wrapped ops: (name shown, module, attribute the model code looks up)
OPS = (
    ("_depthwise", B, "_depthwise"),
    ("scan", B, "selective_scan_sequential"),
    ("nc_ssd", B, "nc_ssd"),
    ("silu", T, "silu"),
    ("take", T, "take"),
    ("add", T, "add"),
    ("matmul", T, "matmul"),
)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class OpCounter:
    """Per op, while patched in: calls, self seconds, self minor faults, and
    the highest tracemalloc peak of one call above the traced bytes at its
    entry (0 while tracemalloc is off)."""

    def __init__(self):
        self.totals = self._zeros()
        self._stack = []  # per open call: [children's seconds, faults, highest traced level]

    @staticmethod
    def _zeros() -> dict:
        return {name: [0, 0.0, 0, 0] for name, _, _ in OPS}

    def _fold_peak(self) -> int:
        """Fold the traced peak since the last fold into the open call, restart
        the peak, and return the traced bytes now."""
        if not tracemalloc.is_tracing():
            return 0
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            level = self._fold_peak()
            self._stack.append([0.0, 0, level])
            f0, t0 = _faults(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                secs, faults = time.perf_counter() - t0, _faults() - f0
                self._fold_peak()
                child_s, child_f, peak = self._stack.pop()
                entry = self.totals[name]
                entry[0] += 1
                entry[1] += secs - child_s
                entry[2] += faults - child_f
                entry[3] = max(entry[3], peak - level)
                if self._stack:
                    parent = self._stack[-1]
                    parent[0] += secs
                    parent[1] += faults
                    parent[2] = max(parent[2], peak)
        return wrapped

    def __enter__(self):
        self._saved = [(mod, attr, getattr(mod, attr)) for _, mod, attr in OPS]
        for (name, mod, attr), (_, _, fn) in zip(OPS, self._saved):
            setattr(mod, attr, self.wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        return False

    def take_totals(self) -> dict:
        """The totals since the last call, then zero them."""
        out = {name: tuple(entry) for name, entry in self.totals.items()}
        self.totals = self._zeros()
        return out


def desk_forward(family: str, scan: str, batch: int):
    """A no-grad forward of the family's desk preset (seed 3) on one fixed
    batch of images, as a function of no arguments, called once to warm up
    the scan cache and the heap."""
    model = B.build_model(B.config_from_preset(f"desk-{family}", scan=scan), 3)
    images = np.random.default_rng(11).random((batch, 32, 32))

    def forward():
        with T.no_grad():
            return B.forward(model, images)

    forward()
    return forward


def desk_step(family: str, scan: str, batch: int):
    """One recorded training step of the family's desk preset (seed 3) on one
    fixed batch of images and labels, as a function of no arguments."""
    model = B.build_model(B.config_from_preset(f"desk-{family}", scan=scan), 3)
    rng = np.random.default_rng(11)
    images, labels = rng.random((batch, 32, 32)), rng.integers(0, 2, batch)
    optimizer = TR.Adam(model.params)

    def step():
        loss = TR.cross_entropy(B.forward(model, images), labels)
        for p in model.params.values():
            p.zero_grad()
        T.backward(loss)
        del loss  # the step's graph dies here, as in training.train
        optimizer.step(1e-3)

    return step


def probe_train(family: str, scan: str, batch: int, repeats: int):
    """(median ms, median faults, peak MiB, pooled arrays, pooled MiB) of one
    case: the peak and the pool over two steps from a fresh workspace, the
    time and faults over ``repeats`` more steps in it."""
    step = desk_step(family, scan, batch)
    times, faults = [], []
    with T.workspace():
        peak = traced_peak(lambda: (step(), step()))
        pool = T._thread.pool
        arrays, pooled = len(pool), sum(buf.nbytes for buf in pool)
        for _ in range(repeats):
            f0, t0 = _faults(), time.perf_counter()
            step()
            times.append(time.perf_counter() - t0)
            faults.append(_faults() - f0)
    return (1e3 * statistics.median(times), statistics.median(faults), peak / 2**20, arrays,
            pooled / 2**20)


def traced_peak(fn) -> int:
    """tracemalloc's peak in bytes over one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def op_peaks(fn) -> dict:
    """Per op, the highest tracemalloc peak of one of its calls in one call of
    fn, above the traced bytes at the op's entry."""
    with OpCounter() as counter:
        traced_peak(fn)
    return {name: entry[3] for name, entry in counter.totals.items()}


def probe(family: str, scan: str, batch: int, repeats: int, per_op: bool):
    """(median ms, median faults, peak MiB, per-op figures or None) of one case."""
    forward = desk_forward(family, scan, batch)
    counter = OpCounter()
    times, faults, ops = [], [], []
    with counter if per_op else contextlib.nullcontext():
        for _ in range(repeats):
            f0, t0 = _faults(), time.perf_counter()
            forward()
            times.append(time.perf_counter() - t0)
            faults.append(_faults() - f0)
            ops.append(counter.take_totals())
    peak = traced_peak(forward)
    per = None
    if per_op:
        peaks = op_peaks(forward)
        per = {name: tuple(statistics.median(run[name][i] for run in ops) for i in range(3))
               + (peaks[name],) for name, _, _ in OPS}
    return (1e3 * statistics.median(times), statistics.median(faults), peak / 2**20, per)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--families", default=",".join(B.FAMILIES))
    parser.add_argument("--scans")
    parser.add_argument("--batch", type=int)
    parser.add_argument("--repeats", type=int, default=5)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--per-op", action="store_true")
    mode.add_argument("--train", action="store_true")
    args = parser.parse_args(argv)
    scans = args.scans or ("raster" if args.train else "raster,cross")
    for family in args.families.split(","):
        for scan in scans.split(","):
            if args.train:
                ms, faults, peak, arrays, pooled = probe_train(family, scan, args.batch or 32,
                                                               args.repeats)
                print(f"{family} {scan} train ms {ms:.2f} faults {faults:.0f} "
                      f"peak_mib {peak:.2f} pool {arrays} pool_mib {pooled:.2f}")
                continue
            ms, faults, peak, per = probe(family, scan, args.batch or 64, args.repeats,
                                          args.per_op)
            print(f"{family} {scan} ms {ms:.2f} faults {faults:.0f} peak_mib {peak:.2f}")
            for name, (calls, secs, op_faults, op_peak) in (per or {}).items():
                print(f"{family} {scan}   {name} calls {calls:.0f} ms {1e3 * secs:.2f} "
                      f"faults {op_faults:.0f} peak_mib {op_peak / 2**20:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
