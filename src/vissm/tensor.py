"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: each produced tensor remembers its parents and
a closure that routes the output gradient back to them. ``backward`` walks
the recorded operations once, in reverse topological order. Layout is
row-major and broadcasting follows numpy's trailing-dimension rule; both
are fixed contracts of this module.

The module holds the ops the model and its loss record on the graph,
plus ``reshape``, which only the chunked scan oracle
(``selective.selective_scan_parallel``) records, and the per-thread grad
mode they run under. ``recording`` is the one test of whether an
op goes on the graph. It decides only what an op keeps for its backward
pass, never how the op's forward is computed: SiLU keeps its sigmoid only
when it records (otherwise the sigmoid's array becomes the output), and
flip is the reversed view either way.

Everything is float64. At the scale this package targets, precision is
cheap and lets the equivalence tests use tight tolerances.

It also holds the library's one logistic sigmoid and one softplus
kernel, each a few in-place array passes (the softplus can write into the
array it is given): the sigmoid is 1 / (1 + e^-x), within 4 ulp of the
two-branch form that never exponentiates a positive number, and the
softplus is max(x, 0) + log1p(e^-|x|), within 3 ulp of numpy's
logaddexp(0, x). Both are exact at 0, at the infinities and past the
saturation points, and raise no floating-point warning.

A recorded graph has a single owner: tensors and their backward closures
must not be shared across threads. Pure ops on disjoint graphs are safe to
run concurrently: grad mode (``no_grad``) is per thread, so one thread's
``no_grad`` never touches another's.

Importing this module, and so importing vissm, pins glibc's two malloc
thresholds for the whole process: requests below 32 MiB come from the heap
rather than from a fresh ``mmap``, and the heap keeps up to 64 MiB of free
top rather than handing it back to the OS. Left to itself glibc starts both
at 128 KiB and raises each as mmapped chunks are freed, up to these same
ceilings, so the policy in force would depend on what the process happened
to free earlier. Under it a no-grad forward's and a training step's
temporaries, freed and then asked for again, came back as fresh pages that
faulted in on first touch (16.8k minor faults per desk-vim cross forward
at batch 64, against 1 pinned). ``MALLOC_THRESHOLDS`` records the
(mmap, trim) values set, or None where libc is not glibc or the
environment already sets glibc's malloc tunables (``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` or a ``glibc.malloc.`` entry in
``GLIBC_TUNABLES``); there the process's own settings stand.
"""

from __future__ import annotations

import ctypes
import os
import platform
import threading
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def _pin_malloc_thresholds():
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB,
    the values its dynamic rule settles at on a 64-bit system (the mmap
    threshold's ceiling and twice that), and return them; None, and nothing
    set, where libc is not glibc or the environment sets its own."""
    if platform.libc_ver()[0] != "glibc" or "MALLOC_MMAP_THRESHOLD_" in os.environ \
            or "MALLOC_TRIM_THRESHOLD_" in os.environ \
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    thresholds = {-3: 32 << 20, -1: 64 << 20}  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    if not all(mallopt(param, value) for param, value in thresholds.items()):
        return None
    return tuple(thresholds.values())


MALLOC_THRESHOLDS = _pin_malloc_thresholds()


class _ThreadState(threading.local):
    """Per-thread state; every thread starts out recording."""

    grad_enabled = True


_thread = _ThreadState()
_debug_finite = False


class no_grad:
    """Context manager that suspends graph recording in the calling thread
    (inference/data paths)."""

    def __enter__(self):
        self._prev = _thread.grad_enabled
        _thread.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _thread.grad_enabled = self._prev
        return False


def set_debug_finite(flag: bool) -> None:
    """When on, every op output is checked for NaN/Inf and raises NumericError."""
    global _debug_finite
    _debug_finite = bool(flag)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` goes on the graph: grad mode is on in the
    calling thread and some parent requires grad."""
    return _thread.grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording it on the graph when ``recording(parents)``."""
    if _debug_finite and not np.all(np.isfinite(data)):
        raise NumericError("operation produced a non-finite value")
    out = Tensor(data)
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy: g may be a view or get reused by the producing op
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _accumulate_at(t: Tensor, key, g: np.ndarray) -> None:
    """Add into a slice of t's gradient without allocating a full buffer."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[key] += g


# -- elementwise -------------------------------------------------------------


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def pow_const(a, p: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g * p * np.power(a.data, p - 1.0))

    return _make(np.power(a.data, p), (a,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), in one exp and in place.

    e^-x overflows to inf below x = -709, where the result is the correct 0.
    """
    s = np.negative(x, out=np.empty_like(x))  # out=: an array even when x is 0-d
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _softplus_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|), the form of Mamba's delta_softplus.

    The exponent is never positive, so nothing overflows. The result goes
    into ``out``, which may be x itself, or else into a new array; either
    way max(x, 0) is the one other array made.
    """
    pos = np.maximum(x, 0.0)
    out = np.abs(x, out=np.empty_like(x) if out is None else out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += pos
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x); its derivative, the logistic sigmoid, is 1 - e^-out."""
    a = as_tensor(a)
    out_data = _softplus_np(a.data)

    def backward(g):
        d = np.negative(out_data, out=np.empty_like(out_data))
        np.expm1(d, out=d)
        d *= g
        _accumulate(a, np.negative(d, out=d))

    return _make(out_data, (a,), backward)


def silu(a) -> Tensor:
    """x * sigmoid(x). At -inf it and its derivative are -0.0, as below
    x = -710, and at +inf its derivative is 1.0, as at x = 800, with no
    floating-point warning. An op that records makes its output and keeps
    the sigmoid for its backward pass; otherwise the output goes into the
    sigmoid's array, so one array is made, not two. x stays the first
    factor, so even a NaN keeps its bits."""
    a = as_tensor(a)
    s = _sigmoid_np(a.data)

    def backward(g):
        d = np.subtract(1.0, s)  # s * (1 + x * (1 - s)), the derivative at x
        with np.errstate(invalid="ignore"):  # (1 - s) * x is 0 * inf at +inf, set below
            d *= a.data
        d += 1.0
        inf = np.isinf(a.data)
        if inf.any():  # 1 at +inf; -1 at -inf, not -inf * 0: any negative gives -0.0
            np.copyto(d, np.sign(a.data), where=inf)
        del inf  # not held through the products and the gradient's copy
        d *= s
        d *= g
        _accumulate(a, d)

    with np.errstate(invalid="ignore"):  # -inf * sigmoid(-inf) is -inf * 0, set to -0.0 below
        out = np.multiply(a.data, s, out=np.empty_like(s) if recording((a,)) else s)
    np.copyto(out, -0.0, where=a.data == -np.inf)
    return _make(out, (a,), backward)


# -- linear algebra -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} @ {b.shape}") from None

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward)


# -- reductions ----------------------------------------------------------------


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- shape manipulation --------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old_shape = a.shape

    def backward(g):
        _accumulate(a, g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def flip(a, axis: int) -> Tensor:
    """Reverse one axis: the reversed view of a."""
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, np.flip(g, axis=axis))

    return _make(np.flip(a.data, axis=axis), (a,), backward)


def take(a, indices, axis: int) -> Tensor:
    """Select indices along one axis (gather); backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        full = np.zeros_like(a.data)
        key = [slice(None)] * a.ndim
        key[axis] = idx
        np.add.at(full, tuple(key), g)
        _accumulate(a, full)

    return _make(out_data, (a,), backward)


def scatter_axis(a, indices, axis: int, size: int) -> Tensor:
    """Adjoint of take: place entries at ``indices`` along an axis of ``size``.

    Unaddressed positions are zero. Indices must be distinct.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    axis = axis % a.ndim
    shape = list(a.shape)
    shape[axis] = size
    out_data = np.zeros(shape, dtype=a.data.dtype)
    key = (slice(None),) * axis + (idx,)
    out_data[key] = a.data

    def backward(g):
        _accumulate(a, g[key])

    return _make(out_data, (a,), backward)


def concat(tensors: Iterable, axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=axis)

    def backward(g):
        start = 0
        for t, s in zip(ts, sizes):
            key = [slice(None)] * g.ndim
            key[axis] = slice(start, start + s)
            _accumulate(t, g[tuple(key)])
            start += s

    return _make(out_data, ts, backward)


def select_index(a, axis: int, i: int) -> Tensor:
    """Pick one index along an axis, dropping that axis."""
    a = as_tensor(a)
    axis = axis % a.ndim
    key = (slice(None),) * axis + (i,)

    def backward(g):
        _accumulate_at(a, key, g)

    return _make(a.data[key].copy(), (a,), backward)


# -- backward pass -------------------------------------------------------------


def toposort(root: Tensor) -> list:
    """Recorded ops reachable from root, inputs-before-outputs."""
    order: list = []
    visited = set()
    pending = [(root, False)]
    while pending:
        node, expanded = pending.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        pending.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                pending.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Add d(root)/d(leaf) into .grad of every reachable leaf that requires grad.

    The root must be scalar (size 1). Each recorded op's backward closure
    runs exactly once, in reverse topological order, and the op's own .grad
    is dropped as soon as its closure has consumed it: only leaves keep a
    gradient, so a pass holds the interior gradients of the ops still
    pending, not of the whole graph, and a second pass over a graph that
    shares ops with the first adds only its own gradient.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root does not require grad (no graph recorded)")
    order = toposort(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
