"""Patch embedding, the three block families, and the assembled classifier.

Families:
  vim          gated block with internal forward+backward selective scans
  mambavision  two half-width branches (non-causal conv; one carries a scan)
  vssd         grid conv -> non-causal shared-state core -> FFN, three residuals

Each family's block takes (tokens, params, prefix, scan) and reads its
parameters under ``prefix``. Token layout is (..., T, D) with an optional
class token at slot 0 (vim and mambavision read it out; vssd mean-pools and
never carries one). The 2D scan strategy from the config reorders patch
tokens around each block's sequence core; the class token never participates
in the reordering. A sequence that sits on no grid is the raster scan of a
1 x T grid.

Parameters live in an ordered name -> Tensor dict so checkpoints and the
optimizer see a stable, seed-independent layout. A built model is immutable
during inference (concurrent forward passes over distinct inputs are safe);
training mutates parameters under a single owner.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import files, scan2d
from . import tensor as T
from .rng import SplitMix64, hash_combine
# selective_scan_parallel stays bound: perfbench's SPANS table looks both scan routes up here
from .selective import (  # noqa: F401
    SelectiveProjection,
    nc_ssd,
    selective_scan_parallel,
    selective_scan_sequential,
)
from .tensor import ShapeError, Tensor

RMS_EPS = 1e-6
EXPAND = 2      # vim inner width per embed channel
CONV_WIDTH = 4  # taps of the 1D depthwise convolutions
FFN_RATIO = 2   # vssd FFN hidden width per embed channel


# -- configuration ---------------------------------------------------------------


FAMILIES = ("vim", "mambavision", "vssd")


@dataclass
class ModelConfig:
    family: str
    image_h: int = 32
    image_w: int = 32
    channels: int = 1
    patch: int = 4
    embed_dim: int = 24
    depth: int = 2
    state_dim: int = 8
    scan: str = "raster"
    overlap: bool = False
    tie_directions: bool = False  # vim: one parameter set serves both directions
    preset: str = ""
    classes = 2  # real / fake: unannotated, so a constant and not a config field

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for size in ("channels", "patch", "embed_dim", "depth", "state_dim"):
            if getattr(self, size) < 1:
                raise ValueError(f"{size} must be >= 1, got {getattr(self, size)}")
        if self.tie_directions and self.family != "vim":
            raise ValueError(f"tie_directions applies to vim only, not {self.family}")
        if self.family == "mambavision" and self.embed_dim % 2:
            raise ValueError("mambavision needs an even embed_dim (half-width branches)")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ValueError(
                f"patch {self.patch} must divide image extents "
                f"({self.image_h}, {self.image_w})"
            )
        self.make_scan()  # raises ValueError when the scan does not fit the patch grid

    def make_scan(self) -> scan2d.MultiScan:
        return scan2d.make_scan(self.scan, *self.grid)

    @property
    def use_cls(self) -> bool:
        return self.family != "vssd"

    @property
    def inner_dim(self) -> int:
        if self.family == "vim":
            return EXPAND * self.embed_dim
        if self.family == "mambavision":
            return self.embed_dim // 2
        return self.embed_dim

    @property
    def dt_rank(self) -> int:
        return max(1, self.embed_dim // 16)

    @property
    def grid(self) -> tuple:
        return (self.image_h // self.patch, self.image_w // self.patch)

    @property
    def tokens(self) -> int:
        hp, wp = self.grid
        return hp * wp

    @property
    def window(self) -> int:
        # overlapping stem samples patch windows widened by one pixel per side
        return self.patch + 2 if self.overlap else self.patch


DESK = dict(embed_dim=16, depth=2, state_dim=4)  # every desk preset's sizes
PRESETS = {
    # full-scale structural reference point (parameter count check only)
    "vim-tiny": dict(family="vim", image_h=224, image_w=224, channels=3,
                     patch=16, embed_dim=192, depth=24, state_dim=16),
    # desk-scale configs: 32x32 grayscale, 8x8 patch grid, minute-scale CPU training
    "desk-vim": dict(family="vim", **DESK),
    "desk-mambavision": dict(family="mambavision", **DESK, overlap=True),
    "desk-vssd": dict(family="vssd", **DESK),
}


def config_from_preset(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return ModelConfig(preset=name, **kwargs)


# -- parameter layout --------------------------------------------------------------


def _proj_specs(prefix, channels, state_dim, rank):
    return [
        (f"{prefix}w_b", (channels, state_dim), ("uniform_fanin", channels)),
        (f"{prefix}w_c", (channels, state_dim), ("uniform_fanin", channels)),
        (f"{prefix}w_dt_down", (channels, rank), ("uniform_fanin", channels)),
        (f"{prefix}w_dt_up", (rank, channels), ("uniform_fanin", rank)),
        (f"{prefix}delta_base", (channels,), ("dt_bias",)),
        (f"{prefix}b_b", (state_dim,), ("zeros",)),
        (f"{prefix}b_c", (state_dim,), ("zeros",)),
    ]


def _scan_path_specs(prefix, channels, state_dim, rank):
    return [
        (f"{prefix}conv.weight", (channels, CONV_WIDTH), ("uniform_fanin", CONV_WIDTH)),
        (f"{prefix}conv.bias", (channels,), ("zeros",)),
        *_proj_specs(f"{prefix}proj.", channels, state_dim, rank),
        (f"{prefix}a_log", (channels, state_dim), ("a_log",)),
        (f"{prefix}d", (channels,), ("ones",)),
    ]


def param_specs(cfg: ModelConfig) -> list:
    """(name, shape, init) for every trainable tensor, in a fixed order."""
    d, n, k, rank = cfg.embed_dim, cfg.state_dim, CONV_WIDTH, cfg.dt_rank
    patch_dim = cfg.window * cfg.window * cfg.channels
    specs = [
        ("patch.proj", (patch_dim, d), ("uniform_fanin", patch_dim)),
        ("patch.bias", (d,), ("zeros",)),
        ("pos", (cfg.tokens + (1 if cfg.use_cls else 0), d), ("normal", 0.02)),
    ]
    if cfg.use_cls:
        specs.append(("cls", (1, d), ("normal", 0.02)))
    for i in range(cfg.depth):
        p = f"blocks.{i}."
        if cfg.family == "vim":
            e = cfg.inner_dim
            specs += [
                (f"{p}norm.scale", (d,), ("ones",)),
                (f"{p}w_x", (d, e), ("uniform_fanin", d)),
                (f"{p}w_z", (d, e), ("uniform_fanin", d)),
            ]
            directions = ["fwd."] if cfg.tie_directions else ["fwd.", "bwd."]
            for dirp in directions:
                specs += _scan_path_specs(f"{p}{dirp}", e, n, rank)
            specs.append((f"{p}w_out", (e, d), ("uniform_fanin", e)))
        elif cfg.family == "mambavision":
            h = cfg.inner_dim
            specs += [
                (f"{p}norm.scale", (d,), ("ones",)),
                (f"{p}b1.w_in", (d, h), ("uniform_fanin", d)),
                *_scan_path_specs(f"{p}b1.", h, n, rank),
                (f"{p}b2.w_in", (d, h), ("uniform_fanin", d)),
                (f"{p}b2.conv.weight", (h, k), ("uniform_fanin", k)),
                (f"{p}b2.conv.bias", (h,), ("zeros",)),
                (f"{p}w_out", (2 * h, d), ("uniform_fanin", 2 * h)),
            ]
        else:  # vssd
            f = FFN_RATIO * d
            specs += [
                (f"{p}lpu.weight", (d, 3, 3), ("uniform_fanin", 9)),
                (f"{p}lpu.bias", (d,), ("zeros",)),
                (f"{p}norm1.scale", (d,), ("ones",)),
                *_proj_specs(f"{p}ssd.proj.", d, n, rank),
                (f"{p}ssd.d", (d,), ("ones",)),
                (f"{p}norm2.scale", (d,), ("ones",)),
                (f"{p}ffn.w1", (d, f), ("uniform_fanin", d)),
                (f"{p}ffn.b1", (f,), ("zeros",)),
                (f"{p}ffn.w2", (f, d), ("uniform_fanin", f)),
                (f"{p}ffn.b2", (d,), ("zeros",)),
            ]
    specs += [
        ("final_norm.scale", (d,), ("ones",)),
        ("head.weight", (d, cfg.classes), ("uniform_fanin", d)),
        ("head.bias", (cfg.classes,), ("zeros",)),
    ]
    return specs


def param_count(cfg: ModelConfig) -> int:
    """Exact number of trainable scalars; depends only on the config."""
    return sum(int(np.prod(shape)) for _, shape, _ in param_specs(cfg))


def _init_array(rng: SplitMix64, shape, init) -> np.ndarray:
    kind = init[0]
    if kind == "uniform_fanin":
        bound = 1.0 / np.sqrt(init[1])
        return rng.uniform_array(shape, -bound, bound)
    if kind == "normal":
        return rng.normal_array(shape, 0.0, init[1])
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "ones":
        return np.ones(shape)
    if kind == "a_log":
        channels, state_dim = shape
        return np.tile(np.log(np.arange(1, state_dim + 1, dtype=np.float64)),
                       (channels, 1))
    if kind == "dt_bias":
        # softplus(delta_base) lands log-uniformly in [1e-3, 1e-1]
        dt = np.exp(rng.uniform_array(shape, np.log(1e-3), np.log(1e-1)))
        return np.log(np.expm1(dt))
    raise ValueError(f"unknown init kind {kind!r}")


@dataclass
class Model:
    cfg: ModelConfig
    params: dict = field(repr=False)


def build_model(cfg: ModelConfig, seed: int) -> Model:
    """Materialize parameters deterministically from the seed."""
    rng = SplitMix64(hash_combine(seed, 0x6D6F64656C))
    params = {}
    for name, shape, init in param_specs(cfg):
        params[name] = Tensor(_init_array(rng, shape, init), requires_grad=True)
    return Model(cfg=cfg, params=params)


# -- primitive layers ---------------------------------------------------------------


def rms_norm(x, scale):
    """Scale-only RMS normalization over the channel axis."""
    ms = T.mean(T.mul(x, x), axis=-1, keepdims=True)
    inv = T.pow_const(T.add(ms, RMS_EPS), -0.5)
    return T.mul(T.mul(x, inv), scale)


def _depthwise(x, weight, bias, grid, pads):
    """Zero-padded depthwise convolution over token grids, as one graph node.

    x is (..., T, C) with its T tokens in row-major order on ``grid``; pads
    gives (before, after) per grid axis, so the kernel spans before + after + 1
    cells on each. weight is (C, kernel...) and bias is (C,). The taps are
    summed in row-major kernel order, in the forward pass and for the input
    gradient alike.

    x is written into a zeroed padded buffer. Each ufunc runs over rows of a
    whole grid row, grid[-1] * C values, not over the C channels of one cell:
    every window of the padded buffer under one kernel cell, the output, and
    in the backward pass the output gradient and every window of the padded
    input gradient are read as ``lead + grid[:-1] + (grid[-1] * C,)``. Each is
    a view, because a window's last grid axis and its channels are one
    contiguous run of the padded buffer. Each row is multiplied by its tap
    tiled along the row, into one reused ``term`` buffer, and added; the bias
    is added tiled the same way. The products and the order of the sums are
    those of the per-channel loop, so the value and the input gradient keep
    its bits.

    Beside the padded buffer, the output and ``term``, a call makes only
    small temporaries: one row-sized tile holds each tap in turn, grid[-1] *
    C * 8 bytes (16 KiB for desk vim, under 64 KiB at every desk preset).
    All of them are plain allocations: under the malloc thresholds that
    importing ``tensor`` pins, the next call gets them back from the heap
    without faulting its pages in again. The row loops run at numpy's
    smallest ufunc buffer size. At the default 8192 elements numpy copies
    several strided rows into a buffer per operand (up to 64 KiB each) to
    lengthen its inner loop, which here costs more than it saves; at 16
    each row is one inner loop and nothing is copied. Elementwise results
    do not depend on the buffer size, but reductions do, so the einsums and
    the sum below run at the default.

    In the backward pass each tap's weight gradient is one einsum contraction
    over every axis but the channel axis, and the bias gradient is a sum over
    the flattened rows. Both accumulate row by row, as the sum of the tap
    products did, so the gradients keep its bits whenever C >= 2 (at C = 1
    numpy's sum is pairwise, and the two differ in the last bits).
    """
    x, weight, bias = T.as_tensor(x), T.as_tensor(weight), T.as_tensor(bias)
    lead, ch = x.shape[:-2], x.shape[-1]
    offsets = list(np.ndindex(*(before + after + 1 for before, after in pads)))
    if x.shape[-2] != int(np.prod(grid)) or weight.size != ch * len(offsets) \
            or bias.shape != (ch,):
        raise ShapeError(f"depthwise conv on grid {tuple(grid)}: tokens {x.shape}, "
                         f"weight {weight.shape}, bias {bias.shape}")
    shape = lead + tuple(grid) + (ch,)
    rows = lead + tuple(grid[:-1]) + (grid[-1] * ch,)

    def window(corner):  # the padded input under the kernel cell at ``corner``
        return (Ellipsis,) + tuple(slice(c, c + n) for c, n in zip(corner, grid)) \
            + (slice(None),)

    inner = window([before for before, _ in pads])
    xp = np.zeros(lead + tuple(n + sum(pad) for n, pad in zip(grid, pads)) + (ch,))
    xp[inner] = x.data.reshape(shape)
    windows = [window(off) for off in offsets]
    taps = np.ascontiguousarray(np.moveaxis(weight.data.reshape(ch, -1), -1, 0))
    tile = np.empty((grid[-1], ch))

    def tiled(values):  # ``values`` (C,) repeated along a grid row
        tile[...] = values
        return tile.reshape(-1)

    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(16)
        acc = np.multiply(xp[windows[0]].reshape(rows), tiled(taps[0]))
        term = np.empty_like(acc)
        for win, tap in zip(windows[1:], taps[1:]):
            acc += np.multiply(xp[win].reshape(rows), tiled(tap), out=term)
        acc += tiled(bias.data)

    def backward(g):
        if x.requires_grad:
            gxp, g_rows = np.zeros(xp.shape), g.reshape(rows)
            term_g = np.empty_like(g_rows)
            with np.errstate():
                np.setbufsize(16)
                for win, tap in zip(windows, taps):
                    gwin = np.reshape(gxp[win], rows, copy=False)  # raises rather than copy
                    gwin += np.multiply(g_rows, tiled(tap), out=term_g)
            T._accumulate(x, gxp[inner].reshape(x.shape))
        g = g.reshape(shape)
        if weight.requires_grad:
            axes = list(range(g.ndim))
            gw = [np.einsum(g, axes, xp[win], axes, axes[-1:]) for win in windows]
            T._accumulate(weight, np.stack(gw, axis=-1).reshape(weight.shape))
        if bias.requires_grad:
            T._accumulate(bias, g.reshape(-1, ch).sum(axis=0))

    return T._make(acc.reshape(x.shape), (x, weight, bias), backward)


def conv1d_depthwise(x, weight, bias, causal: bool):
    """Per-channel 1D convolution along the token axis.

    Causal padding sees only the past; symmetric padding lets every output
    read both neighbours (the non-causal variant).
    """
    k = weight.shape[-1]
    pad = (k - 1, 0) if causal else ((k - 1) // 2, k // 2)
    return _depthwise(x, weight, bias, (x.shape[-2],), (pad,))


def conv2d_depthwise3(tokens, grid, weight, bias):
    """Depthwise 3x3 convolution on the patch grid (zero padded)."""
    return _depthwise(tokens, weight, bias, grid, ((1, 1), (1, 1)))


def _projection_from(params, prefix) -> SelectiveProjection:
    return SelectiveProjection(**{f.name: params[prefix + f.name]
                                  for f in fields(SelectiveProjection)})


def _scan_path(x, params, prefix, causal: bool):
    """conv -> SiLU -> selective scan (the fused sequential op), the shared sequence core."""
    xc = T.silu(conv1d_depthwise(x, params[f"{prefix}conv.weight"],
                                 params[f"{prefix}conv.bias"], causal=causal))
    proj = _projection_from(params, f"{prefix}proj.")
    a = T.neg(T.exp(params[f"{prefix}a_log"]))
    return selective_scan_sequential(xc, proj, a, params[f"{prefix}d"])


# -- directional plumbing --------------------------------------------------------------


def merged_update(streams, core_fn, scan, equivariant=False):
    """Run a sequence core once per group of ``scan.groups`` and merge on the grid.

    The one directional route of every family. A group is a scan direction
    or, when ``equivariant`` (vssd's core does not depend on the visiting
    order), a distinct set of cells in raster order, its update weighted by
    the number of directions that visit it. ``streams`` are token-aligned
    tensors that the core consumes (e.g. the scan input and its gate), each
    gathered identically per group; an identity order passes them as they
    are, with no gather or scatter. The group outputs are scattered back to
    grid order and summed BEFORE any output projection, which the caller
    applies to the merged result.

    The class token slot is inferred from the token count: a sequence one
    token longer than the scan grid carries a class token at slot 0, pinned
    at slot 0 of every group's index, so it never enters the reordering and
    its updates sum like those of a cell every direction visits. Any other
    count but the grid's own raises ShapeError.
    """
    total = streams[0].shape[-2]
    start = total - scan.h * scan.w
    if start not in (0, 1):
        raise ShapeError(f"{total} tokens fit neither the {scan.h}x{scan.w} scan grid "
                         f"nor it plus a class token")

    acc = None
    for order, count, identity in scan.groups(equivariant):
        if identity:
            upd = core_fn(*streams)
        else:
            idx = np.concatenate([np.zeros(start, np.intp), order + start])
            upd = core_fn(*[T.take(s, idx, axis=-2) for s in streams])
        if count > 1:
            upd = T.mul(upd, float(count))
        if not identity:
            upd = T.scatter_axis(upd, idx, axis=-2, size=total)
        acc = upd if acc is None else T.add(acc, upd)
    return acc


# -- block families ----------------------------------------------------------------------


def vim_block(tokens, params, prefix, scan):
    """Gated bidirectional block.

    Both directions share the input and gate projections; the backward path
    runs the same conv+scan core over the reversed sequence and is reversed
    back, and the sum of the two directions is gated once. Directions have
    independent parameters when ``params`` holds a ``{prefix}bwd.`` set, and
    are tied otherwise (the 'fwd.' weights serve both). Multi-direction scan
    outputs merge on the grid before the shared output projection.
    """
    xh = rms_norm(tokens, params[f"{prefix}norm.scale"])
    xs = T.matmul(xh, params[f"{prefix}w_x"])
    gate = T.silu(T.matmul(xh, params[f"{prefix}w_z"]))
    back = "bwd." if f"{prefix}bwd.d" in params else "fwd."

    def core(xs_d, gate_d):
        y_f = _scan_path(xs_d, params, f"{prefix}fwd.", causal=True)
        y_b = T.flip(_scan_path(T.flip(xs_d, -2), params, f"{prefix}{back}", causal=True), -2)
        return T.mul(T.add(y_f, y_b), gate_d)

    merged = merged_update([xs, gate], core, scan)
    return T.add(tokens, T.matmul(merged, params[f"{prefix}w_out"]))


def mamba_vision_mixer(tokens, params, prefix, scan):
    """Two half-width branches with non-causal convolutions.

    Branch 1 carries the selective scan; branch 2 is purely convolutional.
    Per-direction branch outputs are concatenated, merged on the grid, and
    projected back to the token width.
    """
    xh = rms_norm(tokens, params[f"{prefix}norm.scale"])
    x1 = T.matmul(xh, params[f"{prefix}b1.w_in"])
    x2 = T.matmul(xh, params[f"{prefix}b2.w_in"])

    def core(x1_d, x2_d):
        y1 = _scan_path(x1_d, params, f"{prefix}b1.", causal=False)
        y2 = T.silu(conv1d_depthwise(x2_d, params[f"{prefix}b2.conv.weight"],
                                     params[f"{prefix}b2.conv.bias"], causal=False))
        return T.concat([y1, y2], axis=-1)

    merged = merged_update([x1, x2], core, scan)
    return T.add(tokens, T.matmul(merged, params[f"{prefix}w_out"]))


def vssd_block(tokens, params, prefix, scan):
    """Grid perception, shared-state token mixing, and an FFN; all residual.

    The 3x3 perception conv runs on the scan's (h, w) grid.

    The token mixer (norm, ``project_params`` and ``nc_ssd``'s shared state)
    acts on each token alone apart from one sum over all of them, so it is
    permutation-equivariant: every scan direction over the same cells returns
    the same update on the grid. ``merged_update`` therefore runs it with
    ``equivariant``, once per distinct set of cells and weighted by the
    directions sharing the set, which equals its sum over the directions. The
    logits agree bit for bit except where ``project_params``' BLAS matmuls give
    a row different bits at different positions (output width <= 3, such as
    dt_rank 1); gradients differ in the last bits, as their sums over tokens
    run in another order.
    """
    lpu = conv2d_depthwise3(tokens, (scan.h, scan.w), params[f"{prefix}lpu.weight"],
                            params[f"{prefix}lpu.bias"])
    tokens = T.add(tokens, lpu)

    def core(seq):
        xh = rms_norm(seq, params[f"{prefix}norm1.scale"])
        proj = _projection_from(params, f"{prefix}ssd.proj.")
        return nc_ssd(xh, proj, params[f"{prefix}ssd.d"])

    tokens = T.add(tokens, merged_update([tokens], core, scan, equivariant=True))

    xh = rms_norm(tokens, params[f"{prefix}norm2.scale"])
    hid = T.silu(T.add(T.matmul(xh, params[f"{prefix}ffn.w1"]), params[f"{prefix}ffn.b1"]))
    out = T.add(T.matmul(hid, params[f"{prefix}ffn.w2"]), params[f"{prefix}ffn.b2"])
    return T.add(tokens, out)


# -- patch embedding -----------------------------------------------------------------------


def _as_image_batch(images, cfg: ModelConfig) -> np.ndarray:
    """``images`` as a float64 (B, H, W, C) batch. A model takes (B, H, W, C),
    or (B, H, W) when it has one channel; anything else raises ShapeError."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 3 and cfg.channels == 1:
        arr = arr[..., None]
    if arr.ndim != 4 or arr.shape[1] != cfg.image_h or arr.shape[2] != cfg.image_w \
            or arr.shape[3] != cfg.channels:
        raise ShapeError(
            f"images of shape {np.asarray(images).shape} do not match configured "
            f"extents ({cfg.image_h}, {cfg.image_w}, {cfg.channels})"
        )
    return arr


def extract_patches(images, cfg: ModelConfig) -> np.ndarray:
    """(B, N, window^2 * channels) patch matrix, raster token order."""
    arr = _as_image_batch(images, cfg)
    b = arr.shape[0]
    p = cfg.patch
    hp, wp = cfg.grid
    if not cfg.overlap:
        cut = arr.reshape(b, hp, p, wp, p, cfg.channels)
        cut = cut.transpose(0, 1, 3, 2, 4, 5)
        return cut.reshape(b, hp * wp, p * p * cfg.channels)
    padded = np.pad(arr, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = cfg.window
    view = np.lib.stride_tricks.sliding_window_view(padded, (win, win), axis=(1, 2))
    view = view[:, ::p, ::p]  # (B, hp, wp, C, win, win)
    view = view.transpose(0, 1, 2, 4, 5, 3)
    return view.reshape(b, hp * wp, win * win * cfg.channels).copy()


def patch_embed(images, cfg: ModelConfig, weights: dict) -> Tensor:
    """Project patches, add positions, optionally prepend the class token."""
    patches = extract_patches(images, cfg)
    tokens = T.add(T.matmul(Tensor(patches), weights["patch.proj"]),
                   weights["patch.bias"])
    if cfg.use_cls:
        b = patches.shape[0]
        cls = T.add(Tensor(np.zeros((b, 1, cfg.embed_dim))), weights["cls"])
        tokens = T.concat([cls, tokens], axis=-2)
    return T.add(tokens, weights["pos"])


# -- full model ---------------------------------------------------------------------------


def features(model: Model, images) -> Tensor:
    """The classification layer's input (B, embed_dim): the normed class token,
    or the mean normed token for families without one."""
    # looked up per call, so a wrapper set on the module attribute sees every block
    block = {"vim": vim_block, "mambavision": mamba_vision_mixer,
             "vssd": vssd_block}[model.cfg.family]
    tokens = patch_embed(images, model.cfg, model.params)
    scan = model.cfg.make_scan()
    for i in range(model.cfg.depth):
        tokens = block(tokens, model.params, f"blocks.{i}.", scan)
    normed = rms_norm(tokens, model.params["final_norm.scale"])
    if model.cfg.use_cls:
        return T.select_index(normed, -2, 0)
    return T.mean(normed, axis=-2)


def forward(model: Model, images) -> Tensor:
    """Logits (B, classes)."""
    return T.add(T.matmul(features(model, images), model.params["head.weight"]),
                 model.params["head.bias"])


def penultimate(model: Model, images) -> np.ndarray:
    """Features from just before the classification layer (one row per image)."""
    with T.no_grad():
        return features(model, images).data.copy()


def predict(model: Model, images) -> np.ndarray:
    """Class indices (argmax of the logits)."""
    with T.no_grad():
        logits = forward(model, images)
    return np.argmax(logits.data, axis=-1)


# -- checkpoint serialization ----------------------------------------------------------------


CKPT_MAGIC = b"VSSMCKPT"


def config_to_json(cfg: ModelConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))


def config_from_json(text: str) -> ModelConfig:
    """Decode a config written by ``config_to_json``; ValueError if it does not fit."""
    required = [f.name for f in fields(ModelConfig) if f.default is MISSING]
    kinds = {f.name: str if f.name in required else type(f.default)
             for f in fields(ModelConfig)}
    return ModelConfig(**files.json_object(text, kinds, required, "model config"))


def save_checkpoint(model: Model, path) -> None:
    """The config JSON and every parameter in a ``VSSMCKPT`` array container.

    A JSON sidecar (<path>.json) mirrors the config for humans and scripts.
    """
    header = config_to_json(model.cfg)
    files.write_arrays(path, CKPT_MAGIC, header,
                       {name: t.data for name, t in model.params.items()})
    files.write_bytes(str(path) + ".json", (header + "\n").encode("utf-8"))


def load_checkpoint(path) -> Model:
    """A checkpoint whose arrays match its config's parameters; ValueError if not."""
    def expect(text):
        cfg = config_from_json(text)
        return cfg, [(name, shape) for name, shape, _ in param_specs(cfg)]

    cfg, arrays = files.read_arrays(path, CKPT_MAGIC, "checkpoint", expect)
    return Model(cfg=cfg, params={name: Tensor(data, requires_grad=True)
                                  for name, data in arrays.items()})
