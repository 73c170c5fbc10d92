"""Patch embedding, the three block families, and the assembled classifier.

Families:
  vim          gated block with internal forward+backward selective scans
  mambavision  two half-width branches (non-causal conv; one carries a scan)
  vssd         grid conv -> non-causal shared-state core -> FFN, three residuals

Token layout is (..., T, D) with an optional class token at slot 0 (vim and
mambavision read it out; vssd mean-pools and never carries one). The 2D scan
strategy from the config reorders patch tokens around each block's sequence
core; the class token never participates in the reordering.

Parameters live in an ordered name -> Tensor dict so checkpoints and the
optimizer see a stable, seed-independent layout. A built model is immutable
during inference (concurrent forward passes over distinct inputs are safe);
training mutates parameters under a single owner.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import scan2d
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


# -- configuration ---------------------------------------------------------------


@dataclass
class PatchEmbedConfig:
    image_h: int
    image_w: int
    channels: int
    patch: int
    embed_dim: int
    use_cls: bool
    overlap: bool = False

    def __post_init__(self):
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ValueError(
                f"patch {self.patch} must divide image extents "
                f"({self.image_h}, {self.image_w})"
            )

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
    expand: int = 2
    conv_width: int = 4
    ffn_ratio: int = 2
    scan: str = "raster"
    scan_win: int = 2
    scan_stride: int = 2
    scan_merge: str = "sum"
    classes: int = 2
    overlap: bool = False
    tie_directions: bool = False  # vim: one parameter set serves both directions
    preset: str = ""

    def __post_init__(self):
        if self.family not in ("vim", "mambavision", "vssd"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "mambavision" and self.embed_dim % 2:
            raise ValueError("mambavision needs an even embed_dim (half-width branches)")

    @property
    def use_cls(self) -> bool:
        return self.family != "vssd"

    @property
    def inner_dim(self) -> int:
        if self.family == "vim":
            return self.expand * self.embed_dim
        if self.family == "mambavision":
            return self.embed_dim // 2
        return self.embed_dim

    @property
    def dt_rank(self) -> int:
        return max(1, self.embed_dim // 16)

    def patch_cfg(self) -> PatchEmbedConfig:
        return PatchEmbedConfig(
            image_h=self.image_h, image_w=self.image_w, channels=self.channels,
            patch=self.patch, embed_dim=self.embed_dim, use_cls=self.use_cls,
            overlap=self.overlap,
        )


PRESETS = {
    # full-scale structural reference point (parameter count check only)
    "vim-tiny": dict(family="vim", image_h=224, image_w=224, channels=3,
                     patch=16, embed_dim=192, depth=24, state_dim=16, expand=2),
    # desk-scale configs: 32x32 grayscale, 8x8 patch grid, minute-scale CPU training
    "desk-vim": dict(family="vim", embed_dim=16, depth=2, state_dim=4),
    "desk-mambavision": dict(family="mambavision", embed_dim=16, depth=2,
                             state_dim=4, overlap=True),
    "desk-vssd": dict(family="vssd", embed_dim=16, depth=2, state_dim=4),
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


def _scan_path_specs(prefix, channels, state_dim, rank, conv_width):
    return [
        (f"{prefix}conv.weight", (channels, conv_width), ("uniform_fanin", conv_width)),
        (f"{prefix}conv.bias", (channels,), ("zeros",)),
        *_proj_specs(f"{prefix}proj.", channels, state_dim, rank),
        (f"{prefix}a_log", (channels, state_dim), ("a_log",)),
        (f"{prefix}d", (channels,), ("ones",)),
    ]


def param_specs(cfg: ModelConfig) -> list:
    """(name, shape, init) for every trainable tensor, in a fixed order."""
    pc = cfg.patch_cfg()
    d, n, k, rank = cfg.embed_dim, cfg.state_dim, cfg.conv_width, cfg.dt_rank
    patch_dim = pc.window * pc.window * cfg.channels
    specs = [
        ("patch.proj", (patch_dim, d), ("uniform_fanin", patch_dim)),
        ("patch.bias", (d,), ("zeros",)),
        ("pos", (pc.tokens + (1 if cfg.use_cls else 0), d), ("normal", 0.02)),
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
                specs += _scan_path_specs(f"{p}{dirp}", e, n, rank, k)
            specs.append((f"{p}w_out", (e, d), ("uniform_fanin", e)))
        elif cfg.family == "mambavision":
            h = cfg.inner_dim
            specs += [
                (f"{p}norm.scale", (d,), ("ones",)),
                (f"{p}b1.w_in", (d, h), ("uniform_fanin", d)),
                *_scan_path_specs(f"{p}b1.", h, n, rank, k),
                (f"{p}b2.w_in", (d, h), ("uniform_fanin", d)),
                (f"{p}b2.conv.weight", (h, k), ("uniform_fanin", k)),
                (f"{p}b2.conv.bias", (h,), ("zeros",)),
                (f"{p}w_out", (2 * h, d), ("uniform_fanin", 2 * h)),
            ]
        else:  # vssd
            f = cfg.ffn_ratio * d
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
    grid: tuple = (0, 0)

    def scan(self):
        if self.cfg.scan == "raster":
            return None  # identity ordering: skip the gather/scatter plumbing
        hp, wp = self.grid
        return scan2d.make_scan(self.cfg.scan, hp, wp, win=self.cfg.scan_win,
                                stride=self.cfg.scan_stride, merge=self.cfg.scan_merge)

    def named_parameters(self) -> dict:
        return self.params


def build_model(cfg: ModelConfig, seed: int) -> Model:
    """Materialize parameters deterministically from the seed."""
    rng = SplitMix64(hash_combine(seed, 0x6D6F64656C))
    params = {}
    for name, shape, init in param_specs(cfg):
        params[name] = Tensor(_init_array(rng, shape, init), requires_grad=True)
    model = Model(cfg=cfg, params=params, grid=cfg.patch_cfg().grid)
    model.scan()  # fail fast on scan/grid divisibility mismatches
    return model


# -- primitive layers ---------------------------------------------------------------


def rms_norm(x, scale):
    """Scale-only RMS normalization over the channel axis."""
    ms = T.mean(T.mul(x, x), axis=-1, keepdims=True)
    inv = T.pow_const(T.add(ms, RMS_EPS), -0.5)
    return T.mul(T.mul(x, inv), scale)


def conv1d_depthwise(x, weight, bias, causal: bool):
    """Per-channel 1D convolution along the token axis.

    Causal padding sees only the past; symmetric padding lets every output
    read both neighbours (the non-causal variant).
    """
    k = weight.shape[-1]
    pad_left = k - 1 if causal else (k - 1) // 2
    pad_right = 0 if causal else k // 2
    length = x.shape[-2]
    xp = T.pad_axis(x, -2, pad_left, pad_right)
    taps = T.unstack(weight, -1)
    acc = None
    for j in range(k):
        term = T.mul(T.slice_axis(xp, -2, j, j + length), taps[j])
        acc = term if acc is None else T.add(acc, term)
    return T.add(acc, bias)


def conv2d_depthwise3(tokens, grid, weight, bias):
    """Depthwise 3x3 convolution on the patch grid (zero padded)."""
    hp, wp = grid
    lead = tokens.shape[:-2]
    d = tokens.shape[-1]
    xg = T.reshape(tokens, lead + (hp, wp, d))
    xp = T.pad_axis(T.pad_axis(xg, -3, 1, 1), -2, 1, 1)
    rows = T.unstack(weight, -2)
    acc = None
    for i in range(3):
        taps = T.unstack(rows[i], -1)
        for j in range(3):
            patch = T.slice_axis(T.slice_axis(xp, -3, i, i + hp), -2, j, j + wp)
            term = T.mul(patch, taps[j])
            acc = term if acc is None else T.add(acc, term)
    acc = T.add(acc, bias)
    return T.reshape(acc, lead + (hp * wp, d))


def _projection_from(params, prefix) -> SelectiveProjection:
    return SelectiveProjection(
        w_b=params[f"{prefix}w_b"], w_c=params[f"{prefix}w_c"],
        w_dt_down=params[f"{prefix}w_dt_down"], w_dt_up=params[f"{prefix}w_dt_up"],
        delta_base=params[f"{prefix}delta_base"],
        b_b=params[f"{prefix}b_b"], b_c=params[f"{prefix}b_c"],
    )


def _scan_path(x, params, prefix, causal: bool):
    """conv -> SiLU -> selective scan (the fused sequential op), the shared sequence core."""
    xc = T.silu(conv1d_depthwise(x, params[f"{prefix}conv.weight"],
                                 params[f"{prefix}conv.bias"], causal=causal))
    proj = _projection_from(params, f"{prefix}proj.")
    a = T.neg(T.exp(params[f"{prefix}a_log"]))
    return selective_scan_sequential(xc, proj, a, params[f"{prefix}d"])


# -- directional plumbing --------------------------------------------------------------


def merged_update(streams, core_fn, scan, has_cls: bool):
    """Run a sequence core once per scan direction and merge on the grid.

    ``streams`` are token-aligned tensors that the core consumes (e.g. the
    scan input and its gate); each is gathered identically per direction.
    The per-direction core outputs are scattered back to grid order and
    merged by sum (or mean over per-cell visit counts) BEFORE any output
    projection, which the caller applies to the merged result. The class
    token is pinned at slot 0 throughout and never enters the reordering.
    """
    if scan is None:
        return core_fn(*streams)
    orders = scan.directions if isinstance(scan, scan2d.MultiScan) else (scan,)
    merge = scan.merge if isinstance(scan, scan2d.MultiScan) else "sum"
    total = streams[0].shape[-2]
    start = 1 if has_cls else 0
    cells = total - start
    if has_cls:
        cls_parts = [T.slice_axis(s, -2, 0, 1) for s in streams]
        patch_parts = [T.slice_axis(s, -2, start, total) for s in streams]
    else:
        patch_parts = list(streams)

    acc = None
    acc_cls = None
    for order in orders:
        gathered = [T.take(p, order.order, axis=-2) for p in patch_parts]
        if has_cls:
            gathered = [T.concat([c, g], axis=-2) for c, g in zip(cls_parts, gathered)]
        upd = core_fn(*gathered)
        if has_cls:
            u_cls = T.slice_axis(upd, -2, 0, 1)
            acc_cls = u_cls if acc_cls is None else T.add(acc_cls, u_cls)
            upd = T.slice_axis(upd, -2, 1, upd.shape[-2])
        scat = T.scatter_axis(upd, order.order, axis=-2, size=cells)
        acc = scat if acc is None else T.add(acc, scat)

    if merge == "mean":
        counts = np.maximum(scan.visit_counts(), 1).astype(np.float64)
        acc = T.mul(acc, Tensor((1.0 / counts)[:, None]))
        if acc_cls is not None:
            acc_cls = T.mul(acc_cls, 1.0 / len(orders))
    if has_cls:
        acc = T.concat([acc_cls, acc], axis=-2)
    return acc


# -- block families ----------------------------------------------------------------------


def vim_block(tokens, params, prefix="", scan=None, has_cls=False, tie_directions=False):
    """Gated bidirectional block.

    Both directions share the input and gate projections; the backward path
    runs the same conv+scan core over the reversed sequence and is reversed
    back before the gate. Directions have independent parameters unless
    tie_directions (then 'fwd.' weights serve both). Multi-direction scan
    outputs merge on the grid before the shared output projection.
    """
    xh = rms_norm(tokens, params[f"{prefix}norm.scale"])
    xs = T.matmul(xh, params[f"{prefix}w_x"])
    gate = T.silu(T.matmul(xh, params[f"{prefix}w_z"]))
    back = "fwd." if tie_directions else "bwd."

    def core(xs_d, gate_d):
        y_f = _scan_path(xs_d, params, f"{prefix}fwd.", causal=True)
        y_b = T.flip(_scan_path(T.flip(xs_d, -2), params, f"{prefix}{back}", causal=True), -2)
        return T.add(T.mul(y_f, gate_d), T.mul(y_b, gate_d))

    merged = merged_update([xs, gate], core, scan, has_cls)
    return T.add(tokens, T.matmul(merged, params[f"{prefix}w_out"]))


def mamba_vision_mixer(tokens, params, prefix="", scan=None, has_cls=False):
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

    merged = merged_update([x1, x2], core, scan, has_cls)
    return T.add(tokens, T.matmul(merged, params[f"{prefix}w_out"]))


def vssd_block(tokens, params, grid, prefix="", scan=None, has_cls=False):
    """Grid perception, shared-state token mixing, and an FFN; all residual."""
    if has_cls:
        raise ValueError("vssd blocks run on pure patch grids (no class token)")
    lpu = conv2d_depthwise3(tokens, grid, params[f"{prefix}lpu.weight"],
                            params[f"{prefix}lpu.bias"])
    tokens = T.add(tokens, lpu)

    def core(seq):
        xh = rms_norm(seq, params[f"{prefix}norm1.scale"])
        proj = _projection_from(params, f"{prefix}ssd.proj.")
        return nc_ssd(xh, proj, params[f"{prefix}ssd.d"])

    tokens = T.add(tokens, merged_update([tokens], core, scan, has_cls=False))

    xh = rms_norm(tokens, params[f"{prefix}norm2.scale"])
    hid = T.silu(T.add(T.matmul(xh, params[f"{prefix}ffn.w1"]), params[f"{prefix}ffn.b1"]))
    out = T.add(T.matmul(hid, params[f"{prefix}ffn.w2"]), params[f"{prefix}ffn.b2"])
    return T.add(tokens, out)


# -- patch embedding -----------------------------------------------------------------------


@dataclass
class TokenSequence:
    tokens: Tensor
    grid: tuple
    has_cls: bool


def _as_image_batch(images, cfg: PatchEmbedConfig) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :, None]
    elif arr.ndim == 3:
        # (B, H, W) grayscale batch, or a single (H, W, C) image
        arr = arr[:, :, :, None] if cfg.channels == 1 else arr[None]
    if arr.ndim != 4 or arr.shape[1] != cfg.image_h or arr.shape[2] != cfg.image_w \
            or arr.shape[3] != cfg.channels:
        raise ShapeError(
            f"images of shape {np.asarray(images).shape} do not match configured "
            f"extents ({cfg.image_h}, {cfg.image_w}, {cfg.channels})"
        )
    return arr


def extract_patches(images, cfg: PatchEmbedConfig) -> np.ndarray:
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


def patch_embed(images, cfg: PatchEmbedConfig, weights: dict) -> TokenSequence:
    """Project patches, add positions, optionally prepend the class token."""
    patches = extract_patches(images, cfg)
    tokens = T.add(T.matmul(Tensor(patches), weights["patch.proj"]),
                   weights["patch.bias"])
    if cfg.use_cls:
        b = patches.shape[0]
        cls = T.add(Tensor(np.zeros((b, 1, cfg.embed_dim))), weights["cls"])
        tokens = T.concat([cls, tokens], axis=-2)
    tokens = T.add(tokens, weights["pos"])
    return TokenSequence(tokens=tokens, grid=cfg.grid, has_cls=cfg.use_cls)


# -- full model ---------------------------------------------------------------------------


def apply_block(model: Model, tokens, index: int, scan):
    cfg = model.cfg
    prefix = f"blocks.{index}."
    if cfg.family == "vim":
        return vim_block(tokens, model.params, prefix, scan, has_cls=cfg.use_cls,
                         tie_directions=cfg.tie_directions)
    if cfg.family == "mambavision":
        return mamba_vision_mixer(tokens, model.params, prefix, scan, has_cls=cfg.use_cls)
    return vssd_block(tokens, model.params, model.grid, prefix, scan, has_cls=False)


def features(model: Model, images) -> Tensor:
    """The classification layer's input (B, embed_dim): the normed class token,
    or the mean normed token for families without one."""
    tokens = patch_embed(images, model.cfg.patch_cfg(), model.params).tokens
    scan = model.scan()
    for i in range(model.cfg.depth):
        tokens = apply_block(model, tokens, i, scan)
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
CKPT_VERSION = 1


def config_to_json(cfg: ModelConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))


def config_from_json(text: str) -> ModelConfig:
    """Decode a config written by ``config_to_json``; ValueError if it does not fit."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("model config must be a JSON object")
    raw.pop("chunk", None)  # the removed chunked-scan option, still in older checkpoints
    known = {f.name for f in fields(ModelConfig)}
    for key in sorted(raw):
        if key not in known:
            raise ValueError(f"unknown model config key {key!r}")
    try:
        return ModelConfig(**raw)
    except TypeError as exc:  # a missing key or a value of the wrong type
        raise ValueError(f"bad model config: {exc}") from None


def save_checkpoint(model: Model, path) -> None:
    """Little-endian binary: magic, version, config JSON, named float64 blobs.

    A JSON sidecar (<path>.json) mirrors the config for humans and scripts.
    """
    cfg_bytes = config_to_json(model.cfg).encode("utf-8")
    chunks = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION),
              struct.pack("<I", len(cfg_bytes)), cfg_bytes,
              struct.pack("<I", len(model.params))]
    for name, tensor in model.params.items():
        nbytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nbytes)))
        chunks.append(nbytes)
        chunks.append(struct.pack("<B", tensor.data.ndim))
        for dim in tensor.data.shape:
            chunks.append(struct.pack("<I", dim))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    blob = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(blob)
    with open(str(path) + ".json", "w") as fh:
        fh.write(config_to_json(model.cfg) + "\n")


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def read(n):
        nonlocal off
        piece = blob[off:off + n]
        if len(piece) != n:
            raise ValueError(f"truncated checkpoint {path}")
        off += n
        return piece

    if read(8) != CKPT_MAGIC:
        raise ValueError(f"{path} is not a model checkpoint (bad magic)")
    version = struct.unpack("<I", read(4))[0]
    if version != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    cfg_len = struct.unpack("<I", read(4))[0]
    cfg = config_from_json(read(cfg_len).decode("utf-8"))
    count = struct.unpack("<I", read(4))[0]
    params = {}
    for _ in range(count):
        name_len = struct.unpack("<H", read(2))[0]
        name = read(name_len).decode("utf-8")
        ndim = struct.unpack("<B", read(1))[0]
        shape = tuple(struct.unpack("<I", read(4))[0] for _ in range(ndim))
        nvals = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(read(nvals * 8), dtype="<f8").reshape(shape).copy()
        params[name] = Tensor(data, requires_grad=True)
    expected = [name for name, _, _ in param_specs(cfg)]
    if list(params) != expected:
        raise ValueError(f"checkpoint parameter set does not match config in {path}")
    return Model(cfg=cfg, params=params, grid=cfg.patch_cfg().grid)
