"""Reference routes for the library's fused ops and fast paths.

Each oracle composes a fused op from plain tensor ops, so autodiff derives
its backward pass, or takes the slower route a fast path replaces; the
library's op is tested against it on values and gradients. None of these is
on the library's model path. The depthwise conv with each tap broadcast
over the channels of a cell is the bitwise reference for the library's
row-layout conv. The splitmix64 stream in exact Python integers,
one draw at a time, is the reference for ``rng``'s one (uint64 array) draw
path. The per-image synthesis route draws the corpus one image and one
scalar draw of that stream at a time: the reference for ``data``'s batched
synthesis, bit for bit. The helpers after them build test inputs and
independent references: a constant selective projection, central finite
differences, and numpy gather/scatter along a scan order. The analytic G1
detector at the end is the hand-built reference the trained detectors are
judged against.
"""

import numpy as np

from vissm import blocks as B
from vissm import data as D
from vissm import selective as S
from vissm import tensor as T
from vissm.rng import GAMMA, MIX1, MIX2, SplitMix64
from vissm.tensor import Tensor


def ordered_sum(a, axis: int):
    """Sum along one axis in a canonical (sorted) accumulation order.

    The result is bit-identical under any permutation of the summed axis,
    which a plain sum cannot guarantee (float addition is not associative).
    The gradient is the same as for an ordinary sum.
    """
    a = T.as_tensor(a)
    axis = axis % a.ndim
    out_data = np.sort(a.data, axis=axis).sum(axis=axis)

    def backward(g):
        T._accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return T._make(out_data, (a,), backward)


def pad_axis(a, axis: int, before: int, after: int):
    """Zero-pad one axis; the conv oracles pad with it."""
    a = T.as_tensor(a)
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    n = a.shape[axis]

    def backward(g):
        key = [slice(None)] * g.ndim
        key[axis] = slice(before, before + n)
        T._accumulate(a, g[tuple(key)])

    return T._make(np.pad(a.data, widths), (a,), backward)


def shared_state_graph(u, b_proj, c_proj):
    """The shared-state readout y_t = H @ C_t, H = sum_t outer(u_t, B_t), as a
    chain of broadcasts: the oracle for ``selective.shared_state_readout``."""
    lead, n = b_proj.shape[:-1], b_proj.shape[-1]
    terms = T.mul(T.reshape(b_proj, lead + (1, n)), T.reshape(u, u.shape + (1,)))  # (..., L, C, N)
    big_h = ordered_sum(terms, axis=-3)                                            # (..., C, N)
    big_h = T.reshape(big_h, big_h.shape[:-2] + (1,) + big_h.shape[-2:])
    read = T.mul(T.reshape(c_proj, lead + (1, n)), big_h)                          # (..., L, C, N)
    return T.sum_(read, axis=-1)                                                   # (..., L, C)


def nc_ssd_graph(x, proj, d):
    """``selective.nc_ssd`` with its core composed on the graph."""
    x = T.as_tensor(x)
    b_proj, c_proj, dt = S.project_params(x, proj)
    y = shared_state_graph(T.mul(dt, x), b_proj, c_proj)
    return T.add(y, T.mul(d, x))


def selective_scan_chunked(x, proj, a, d, chunk: int = 3):
    """The chunked scan, every step recorded on the graph: the oracle for the
    fused ``selective.selective_scan_sequential``. The default chunk of 3
    leaves odd tails on most sequence lengths."""
    return S.selective_scan_parallel(x, proj, a, d, chunk)


def conv1d_slices(x, weight, bias, causal: bool):
    """The slice-and-add 1D depthwise conv: the oracle for the fused op."""
    k = weight.shape[-1]
    pad_left = k - 1 if causal else (k - 1) // 2
    pad_right = 0 if causal else k // 2
    length = x.shape[-2]
    xp = pad_axis(x, -2, pad_left, pad_right)
    acc = None
    for j in range(k):
        term = T.mul(T.take(xp, np.arange(j, j + length), -2), T.select_index(weight, -1, j))
        acc = term if acc is None else T.add(acc, term)
    return T.add(acc, bias)


def conv2d_slices(tokens, grid, weight, bias):
    """The slice-and-add 3x3 grid conv: the oracle for the fused op."""
    hp, wp = grid
    lead = tokens.shape[:-2]
    d = tokens.shape[-1]
    xg = T.reshape(tokens, lead + (hp, wp, d))
    xp = pad_axis(pad_axis(xg, -3, 1, 1), -2, 1, 1)
    acc = None
    for i in range(3):
        for j in range(3):
            patch = T.take(T.take(xp, np.arange(i, i + hp), -3), np.arange(j, j + wp), -2)
            term = T.mul(patch, T.select_index(T.select_index(weight, -2, i), -1, j))
            acc = term if acc is None else T.add(acc, term)
    acc = T.add(acc, bias)
    return T.reshape(acc, lead + (hp * wp, d))


def depthwise_per_channel(x, weight, bias, grid, pads):
    """``blocks._depthwise`` with every tap's product and the bias broadcast
    over the C channels of each cell, so each ufunc loops over C values: the
    bitwise oracle for the op's row layout, on the value and every gradient."""
    x, weight, bias = T.as_tensor(x), T.as_tensor(weight), T.as_tensor(bias)
    lead, ch = x.shape[:-2], x.shape[-1]
    offsets = list(np.ndindex(*(before + after + 1 for before, after in pads)))
    shape = lead + tuple(grid) + (ch,)

    def window(corner):  # the padded input under the kernel cell at ``corner``
        return (Ellipsis,) + tuple(slice(c, c + n) for c, n in zip(corner, grid)) \
            + (slice(None),)

    inner = window([before for before, _ in pads])
    xp = np.zeros(lead + tuple(n + sum(pad) for n, pad in zip(grid, pads)) + (ch,))
    xp[inner] = x.data.reshape(shape)
    windows = [window(off) for off in offsets]
    taps = np.ascontiguousarray(np.moveaxis(weight.data.reshape(ch, -1), -1, 0))
    acc = xp[windows[0]] * taps[0]
    term = np.empty_like(acc)
    for win, tap in zip(windows[1:], taps[1:]):
        acc += np.multiply(xp[win], tap, out=term)
    acc += bias.data

    def backward(g):
        g = g.reshape(shape)
        if x.requires_grad:
            gxp, term_g = np.zeros(xp.shape), np.empty_like(g)
            for win, tap in zip(windows, taps):
                gxp[win] += np.multiply(g, tap, out=term_g)
            T._accumulate(x, gxp[inner].reshape(x.shape))
        if weight.requires_grad:
            axes = list(range(g.ndim))
            gw = [np.einsum(g, axes, xp[win], axes, axes[-1:]) for win in windows]
            T._accumulate(weight, np.stack(gw, axis=-1).reshape(weight.shape))
        if bias.requires_grad:
            T._accumulate(bias, g.reshape(-1, ch).sum(axis=0))

    return T._make(acc.reshape(x.shape), (x, weight, bias), backward)


_merged_update = B.merged_update  # captured before any test swaps it


def per_direction_update(streams, core_fn, scan, equivariant=False):
    """``blocks.merged_update`` with the core run once per scan direction,
    whatever ``equivariant`` asks: the oracle for its cell-set groups."""
    return _merged_update(streams, core_fn, scan)


# -- splitmix64 in exact Python integers -----------------------------------------

_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64's finalization mix of one 64-bit integer."""
    z = ((z ^ (z >> 30)) * MIX1) & _MASK
    z = ((z ^ (z >> 27)) * MIX2) & _MASK
    return z ^ (z >> 31)


class ReferenceStream:
    """The splitmix64 stream one draw at a time: the state advances by GAMMA
    and is mixed per output, and a draw is formed from the output in Python
    numbers."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & _MASK
        return mix64(self.state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64


def splitmix64(seed: int, count: int) -> list:
    """The first ``count`` outputs of the stream at ``seed`` (reduced mod 2^64)."""
    stream = ReferenceStream(seed)
    return [stream.next_u64() for _ in range(count)]


def hash_parts(*parts: int) -> int:
    """``rng.hash_combine``: each part, reduced mod 2^64, folded into the seed."""
    acc = 0
    for p in parts:
        acc = mix64((acc + GAMMA + (p & _MASK)) & _MASK)
    return acc


# -- the per-image synthesis route -------------------------------------------------


def smooth_field(rng: ReferenceStream, h: int, w: int) -> np.ndarray:
    """Sum of a few random low-frequency plane waves around mid-gray."""
    yy = np.arange(h, dtype=np.float64)[:, None] / h
    xx = np.arange(w, dtype=np.float64)[None, :] / w
    field = np.full((h, w), 0.5)
    n_waves = D._MIN_WAVES + rng.below(D._MAX_WAVES - D._MIN_WAVES + 1)
    for _ in range(n_waves):
        amp = rng.uniform(D._AMP_LO, D._AMP_HI)
        fx = rng.uniform(D._FREQ_LO, D._FREQ_HI) * (1.0 if rng.below(2) else -1.0)
        fy = rng.uniform(D._FREQ_LO, D._FREQ_HI) * (1.0 if rng.below(2) else -1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += amp * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    return field


def box_blur3(img: np.ndarray) -> np.ndarray:
    """3x3 box blur of one image with edge replication."""
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for i in range(3):
        for j in range(3):
            out += padded[i:i + img.shape[0], j:j + img.shape[1]]
    return out / 9.0


def base_parts(seed: int, h: int, w: int):
    """One image's smooth field and sensor noise, drawn from its base stream."""
    if h < 8 or w < 8:
        raise ValueError(f"image extents must be >= 8, got ({h}, {w})")
    rng = ReferenceStream(hash_parts(seed, D._TAG_BASE))
    field = smooth_field(rng, h, w)
    noise = SplitMix64(rng.state).normal_array((h, w), 0.0, D.NOISE_SIGMA)
    return field, noise


def artifact(seed: int, h: int, w: int, field: np.ndarray, spec) -> np.ndarray:
    """One image's generator signature."""
    s = spec.artifact_strength
    gen = spec.generator_id
    if gen == "G1_checkerboard":
        return 0.1 * s * D._checker(h, w)
    if gen == "G2_ringing":
        return s * D._RING_GAIN * (field - box_blur3(field))
    rng = SplitMix64(hash_parts(seed, D._TAG_ART, D.GENERATORS.index(gen)))
    burst = rng.uniform_array((h, w), -1.0, 1.0)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    mask = ((ii % D._BLOCK == 0) | (jj % D._BLOCK == 0)).astype(np.float64)
    return 0.1 * s * burst * mask


def synth_per_image(seed: int, h: int, w: int, spec=None) -> np.ndarray:
    """One real image (``spec`` None) or fake of ``spec``."""
    field, noise = base_parts(seed, h, w)
    if spec is None:
        return np.clip(field + noise, 0.0, 1.0)
    return np.clip(field + artifact(seed, h, w, field, spec) + noise, 0.0, 1.0)


def gen_block_per_image(dataset_seed, split, subset, count, h, w, spec=None):
    """``data._gen_block`` one image at a time: put in its place, it makes
    ``make_dataset`` and ``draw_split`` take the per-image route."""
    first = D.SEED_RANGES[f"{split}/{subset}"][0]
    imgs = np.empty((count, h, w))
    for i in range(count):
        imgs[i] = synth_per_image(hash_parts(dataset_seed, first + i), h, w, spec)
    return imgs


def constant_projection(channels: int, state_dim: int, b_const, c_const,
                        delta_const) -> S.SelectiveProjection:
    """Projection with zero input weights: B, C, dt are the same every step.

    delta_const is the desired positive timescale; the stored bias is its
    softplus preimage.
    """
    delta_const = np.broadcast_to(np.asarray(delta_const, dtype=np.float64), (channels,))
    base = np.log(np.expm1(delta_const))  # softplus^{-1}
    rank = 1
    return S.SelectiveProjection(
        w_b=Tensor(np.zeros((channels, state_dim))),
        w_c=Tensor(np.zeros((channels, state_dim))),
        w_dt_down=Tensor(np.zeros((channels, rank))),
        w_dt_up=Tensor(np.zeros((rank, channels))),
        delta_base=Tensor(base.copy()),
        b_b=Tensor(np.broadcast_to(np.asarray(b_const, dtype=np.float64), (state_dim,)).copy()),
        b_c=Tensor(np.broadcast_to(np.asarray(c_const, dtype=np.float64), (state_dim,)).copy()),
    )


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


def gather(tokens, order, cells):
    """Select tokens (axis -2, or axis 0 for 1-D input) of a grid of ``cells``
    cells in the visitation order ``order``."""
    arr = np.asarray(tokens)
    axis = 0 if arr.ndim == 1 else arr.ndim - 2
    if arr.shape[axis] != cells:
        raise ValueError(f"token count {arr.shape[axis]} does not match grid size {cells}")
    return np.take(arr, order, axis=axis)


def scatter(tokens, order, cells):
    """Place visitation-ordered tokens back at their cells of a grid of ``cells``.

    For a full order this inverts gather exactly; for a partial order the
    unvisited cells are zero (partition members then sum to the identity).
    """
    arr = np.asarray(tokens)
    axis = 0 if arr.ndim == 1 else arr.ndim - 2
    if arr.shape[axis] != len(order):
        raise ValueError(
            f"token count {arr.shape[axis]} does not match order length {len(order)}"
        )
    shape = list(arr.shape)
    shape[axis] = cells
    out = np.zeros(shape, dtype=arr.dtype)
    key = [slice(None)] * arr.ndim
    key[axis] = order
    out[tuple(key)] = arr
    return out


def checkerboard_score(image: np.ndarray) -> float:
    """Correlation with the period-2 checkerboard (the G1 signature).

    The analytic reference detector thresholds this score; it separates G1
    fakes from everything else by construction.
    """
    return float(abs(np.mean(image * D._checker(*image.shape))))


def analytic_g1_detector(images: np.ndarray, threshold: float = 0.02) -> np.ndarray:
    """Hand-built detector: labels an image fake when the Nyquist
    checkerboard component exceeds the threshold."""
    return np.array([checkerboard_score(img) > threshold for img in images])
