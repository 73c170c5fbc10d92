"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: each produced tensor remembers its parents and
a closure that routes the output gradient back to them. ``backward`` walks
the recorded operations once, in reverse topological order. Layout is
row-major and broadcasting follows numpy's trailing-dimension rule; both
are fixed contracts of this module.

Everything is float64. At the scale this package targets, precision is
cheap and lets the equivalence tests use tight tolerances.

A recorded graph has a single owner: tensors and their backward closures
must not be shared across threads. Pure ops on disjoint graphs are safe to
run concurrently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


_grad_enabled = True
_debug_finite = False


class no_grad:
    """Context manager that suspends graph recording (inference/data paths)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording it on the graph when gradients are live."""
    if _debug_finite and not np.all(np.isfinite(data)):
        raise NumericError("operation produced a non-finite value")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
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
        if t.grad.shape != t.data.shape:
            t.grad = np.broadcast_to(t.grad, t.data.shape).copy()
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


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), backward)


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
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without branching:
    # the exponent is never positive, so large |x| stays finite
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = _sigmoid_np(a.data)

    def backward(g):
        _accumulate(a, g * s * (1.0 - s))

    return _make(s, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)
    out_data = np.logaddexp(0.0, a.data)

    def backward(g):
        _accumulate(a, g * _sigmoid_np(a.data))

    return _make(out_data, (a,), backward)


def silu(a) -> Tensor:
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = _sigmoid_np(a.data)

    def backward(g):
        _accumulate(a, g * (s + a.data * s * (1.0 - s)))

    return _make(a.data * s, (a,), backward)


ELEMENTWISE = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "neg": neg,
    "exp": exp,
    "softplus": softplus,
    "silu": silu,
    "sigmoid": sigmoid,
}


def elementwise(op_kind: str, *inputs) -> Tensor:
    """Dispatch by name; unary kinds take one input, binary kinds take two."""
    try:
        fn = ELEMENTWISE[op_kind]
    except KeyError:
        raise ValueError(f"unknown elementwise op kind: {op_kind!r}") from None
    return fn(*inputs)


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


def ordered_sum(a, axis: int) -> Tensor:
    """Sum along one axis in a canonical (sorted) accumulation order.

    The result is bit-identical under any permutation of the summed axis,
    which a plain sum cannot guarantee (float addition is not associative).
    The gradient is the same as for an ordinary sum.
    """
    a = as_tensor(a)
    axis = axis % a.ndim
    out_data = np.sort(a.data, axis=axis).sum(axis=axis)

    def backward(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- shape manipulation --------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old_shape = a.shape

    def backward(g):
        _accumulate(a, g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, np.swapaxes(g, ax1, ax2))

    return _make(np.swapaxes(a.data, ax1, ax2).copy(), (a,), backward)


def flip(a, axis: int) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, np.flip(g, axis=axis))

    return _make(np.flip(a.data, axis=axis).copy(), (a,), backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        _accumulate(a, full)

    return _make(a.data[key].copy(), (a,), backward)


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


def stack(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(ts, pieces):
            _accumulate(t, piece)

    return _make(out_data, ts, backward)


def pad_axis(a, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad one axis."""
    a = as_tensor(a)
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    n = a.shape[axis]

    def backward(g):
        key = [slice(None)] * g.ndim
        key[axis] = slice(before, before + n)
        _accumulate(a, g[tuple(key)])

    return _make(np.pad(a.data, widths), (a,), backward)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    key = [slice(None)] * a.ndim
    key[axis] = slice(start, stop)
    key = tuple(key)

    def backward(g):
        _accumulate_at(a, key, g)

    return _make(a.data[key].copy(), (a,), backward)


def select_index(a, axis: int, i: int) -> Tensor:
    """Pick one index along an axis, dropping that axis."""
    a = as_tensor(a)
    axis = axis % a.ndim
    key = (slice(None),) * axis + (i,)

    def backward(g):
        _accumulate_at(a, key, g)

    return _make(a.data[key].copy(), (a,), backward)


def unstack(a, axis: int) -> list:
    """Split into per-index tensors along an axis (cheap backward per slice)."""
    a = as_tensor(a)
    axis = axis % a.ndim
    return [select_index(a, axis, i) for i in range(a.shape[axis])]


def unsqueeze(a, axis: int) -> Tensor:
    a = as_tensor(a)
    shape = list(a.shape)
    axis = axis % (a.ndim + 1)
    shape.insert(axis, 1)
    return reshape(a, tuple(shape))


# -- backward pass -------------------------------------------------------------


def toposort(root: Tensor) -> list:
    """Recorded ops reachable from root, inputs-before-outputs."""
    order: list = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Populate .grad on every reachable tensor with d(root)/d(tensor).

    The root must be scalar (size 1). Each recorded op's backward closure
    runs exactly once, in reverse topological order.
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


# -- FFT and convolution helpers ------------------------------------------------


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def fft_real(signal, length: int) -> np.ndarray:
    """DFT of a real sequence zero-padded to ``length`` (a power of two)."""
    if not _is_pow2(length):
        raise ValueError(f"fft length must be a power of two, got {length}")
    x = np.asarray(signal, dtype=np.float64).reshape(-1)
    if len(x) > length:
        raise ShapeError(f"signal length {len(x)} exceeds fft length {length}")
    buf = np.zeros(length, dtype=np.float64)
    buf[: len(x)] = x
    return np.fft.fft(buf)


def inverse_fft(spectrum) -> np.ndarray:
    """Inverse DFT; returns the complex time-domain sequence."""
    spec = np.asarray(spectrum, dtype=np.complex128).reshape(-1)
    if not _is_pow2(len(spec)):
        raise ValueError(f"inverse fft length must be a power of two, got {len(spec)}")
    return np.fft.ifft(spec)


def conv_via_fft(a, b) -> np.ndarray:
    """Full linear convolution of two real sequences via zero-padded FFT."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    full = len(a) + len(b) - 1
    n = next_pow2(full)
    out = inverse_fft(fft_real(a, n) * fft_real(b, n)).real
    return out[:full]


# -- finite differences ----------------------------------------------------------


def finite_difference(fn, arrays: list, step: float = 1e-5) -> list:
    """Central-difference gradients of a scalar fn w.r.t. each float array.

    ``fn`` is called with the arrays (mutated in place around each entry)
    and must return a plain float. This is the independent oracle used to
    validate analytic gradients; it never touches the autodiff graph.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = fn()
            flat[i] = orig - step
            f_minus = fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads
