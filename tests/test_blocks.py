import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import probe_forward
from oracles import (
    conv1d_slices,
    conv2d_slices,
    depthwise_per_channel,
    finite_difference,
    nc_ssd_graph,
    pad_axis,
    per_direction_update,
    selective_scan_chunked,
)
from vissm import blocks as B
from vissm import scan2d
from vissm import selective as S
from vissm import tensor as T
from vissm import training as TR
from vissm.blocks import (
    Model,
    ModelConfig,
    build_model,
    config_from_preset,
    forward,
    load_checkpoint,
    param_count,
    param_specs,
    patch_embed,
    penultimate,
    predict,
    save_checkpoint,
)
from vissm.rng import SplitMix64
from vissm.tensor import Tensor


def zero_params(model: Model) -> None:
    for p in model.params.values():
        p.data[...] = 0.0


def random_params(model: Model, seed=77, scale=0.3) -> None:
    rng = SplitMix64(seed)
    for p in model.params.values():
        p.data[...] = rng.normal_array(p.data.shape) * scale


def tiny_cfg(family, **kw):
    base = dict(family=family, image_h=8, image_w=8, patch=2, embed_dim=8,
                depth=1, state_dim=3)
    base.update(kw)
    return ModelConfig(**base)


# -- patch embedding ---------------------------------------------------------------


def test_patch_count_with_cls():
    cfg = tiny_cfg("vim", patch=4, embed_dim=6)
    m = build_model(cfg, seed=0)
    tokens = patch_embed(np.zeros((2, 8, 8)), cfg, m.params)
    assert tokens.shape == (2, 5, 6)  # 4 patches + CLS
    assert cfg.use_cls and cfg.grid == (2, 2)


def test_patch_embed_divisibility_error():
    with pytest.raises(ValueError):
        tiny_cfg("vssd", image_h=9, patch=4)


def test_zero_image_zero_weights_zero_tokens():
    cfg = tiny_cfg("vim")
    m = build_model(cfg, seed=0)
    zero_params(m)
    tokens = patch_embed(np.zeros((1, 8, 8)), cfg, m.params)
    assert np.array_equal(tokens.data, np.zeros_like(tokens.data))


def test_identity_projection_recovers_pixels():
    # patch side 1, embed dim 1, unit projection: tokens are the raw pixels
    cfg = ModelConfig(family="vssd", image_h=4, image_w=4, patch=1, embed_dim=1,
                      depth=1, state_dim=2)
    m = build_model(cfg, seed=0)
    m.params["patch.proj"].data[...] = 1.0
    m.params["patch.bias"].data[...] = 0.0
    m.params["pos"].data[...] = 0.0
    rng = SplitMix64(5)
    img = rng.uniform_array((4, 4))
    tokens = patch_embed(img[None], cfg, m.params)
    assert np.array_equal(tokens.data[0, :, 0], img.reshape(-1))


def test_overlap_stem_token_count_and_window():
    cfg = tiny_cfg("vssd", patch=4, embed_dim=6, overlap=True)
    patches = B.extract_patches(np.ones((1, 8, 8)), cfg)
    assert patches.shape == (1, 4, 36)  # (4+2)^2 pixels per token
    # interior window sums full ones; corner window loses the padded rim
    assert patches[0].max() == 1.0


def test_three_channel_batches():
    """A (B, H, W, 3) batch: each patch row is its window read in row, column,
    channel order, widened by one zero-padded pixel per side under overlap;
    every family gives finite (B, 2) logits; a single (H, W, 3) image is not
    a batch."""
    imgs = SplitMix64(31).uniform_array((2, 8, 8, 3))
    for overlap in (False, True):
        cfg = tiny_cfg("vssd", channels=3, overlap=overlap)
        p, rim = cfg.patch, int(overlap)
        padded = np.pad(imgs, ((0, 0), (rim, rim), (rim, rim), (0, 0)))
        loop = [[[padded[b, i * p + r, j * p + c, ch]
                  for r in range(cfg.window) for c in range(cfg.window) for ch in range(3)]
                 for i in range(cfg.grid[0]) for j in range(cfg.grid[1])]
                for b in range(len(imgs))]
        assert np.array_equal(B.extract_patches(imgs, cfg), np.array(loop))
    for family in B.FAMILIES:
        m = build_model(tiny_cfg(family, channels=3), seed=0)
        logits = forward(m, imgs).data
        assert logits.shape == (2, 2) and np.isfinite(logits).all()
        with pytest.raises(T.ShapeError):
            forward(m, imgs[0])


def test_image_extent_mismatch():
    cfg = tiny_cfg("vim")
    m = build_model(cfg, seed=0)
    with pytest.raises(T.ShapeError):
        forward(m, np.zeros((1, 10, 8)))


# -- residual identity --------------------------------------------------------------


@pytest.mark.parametrize("family", ["vim", "mambavision", "vssd"])
def test_zero_parameter_block_is_identity(family):
    cfg = tiny_cfg(family)
    m = build_model(cfg, seed=1)
    zero_params(m)
    rng = SplitMix64(9)
    x = Tensor(rng.normal_array((2, 16, 8)))
    if family == "vim":
        out = B.vim_block(x, m.params, "blocks.0.")
    elif family == "mambavision":
        out = B.mamba_vision_mixer(x, m.params, "blocks.0.")
    else:
        out = B.vssd_block(x, m.params, (4, 4), "blocks.0.")
    assert np.array_equal(out.data, x.data)


# -- vim specifics ---------------------------------------------------------------------


def test_vim_tied_reversal_equivariance():
    cfg = tiny_cfg("vim", tie_directions=True)
    m = build_model(cfg, seed=2)
    random_params(m)
    rng = SplitMix64(11)
    x = rng.normal_array((1, 10, 8))
    out = B.vim_block(Tensor(x), m.params, "blocks.0.", tie_directions=True).data
    out_rev = B.vim_block(Tensor(x[:, ::-1].copy()), m.params, "blocks.0.",
                          tie_directions=True).data
    assert np.max(np.abs(out_rev - out[:, ::-1])) < 1e-12


def test_vim_single_token_directions_coincide():
    # L=1: reversal is the identity, so the update is twice one gated path
    cfg = tiny_cfg("vim", tie_directions=True)
    m = build_model(cfg, seed=3)
    random_params(m)
    x = Tensor(SplitMix64(13).normal_array((1, 1, 8)))
    out = B.vim_block(x, m.params, "blocks.0.", tie_directions=True).data

    p = m.params
    xh = B.rms_norm(x, p["blocks.0.norm.scale"])
    xs = T.matmul(xh, p["blocks.0.w_x"])
    gate = T.silu(T.matmul(xh, p["blocks.0.w_z"]))
    y = B._scan_path(xs, p, "blocks.0.fwd.", causal=True)
    manual = T.add(T.matmul(T.mul(T.mul(y, gate), 2.0), p["blocks.0.w_out"]), x).data
    assert np.max(np.abs(out - manual)) < 1e-12


def test_vim_forward_path_is_causal():
    cfg = tiny_cfg("vim")
    m = build_model(cfg, seed=4)
    random_params(m)
    rng = SplitMix64(15)
    x = rng.normal_array((1, 12, 8))
    p = m.params
    xs = T.matmul(B.rms_norm(Tensor(x), p["blocks.0.norm.scale"]), p["blocks.0.w_x"])
    y = B._scan_path(xs, p, "blocks.0.fwd.", causal=True).data
    x2 = x.copy()
    x2[:, 9:] += 1.0
    xs2 = T.matmul(B.rms_norm(Tensor(x2), p["blocks.0.norm.scale"]), p["blocks.0.w_x"])
    y2 = B._scan_path(xs2, p, "blocks.0.fwd.", causal=True).data
    assert np.array_equal(y[:, :9], y2[:, :9])


# -- mixer specifics ----------------------------------------------------------------------


def test_mixer_conv_branch_sees_the_future():
    # branch-2-only config: a later-token perturbation must change earlier outputs
    cfg = tiny_cfg("mambavision")
    m = build_model(cfg, seed=5)
    random_params(m)
    # silence branch 1 entirely
    for name, p in m.params.items():
        if ".b1." in name:
            p.data[...] = 0.0
    rng = SplitMix64(17)
    x = rng.normal_array((1, 12, 8))
    y = B.mamba_vision_mixer(Tensor(x), m.params, "blocks.0.").data
    x2 = x.copy()
    x2[:, 6] += 1.0
    y2 = B.mamba_vision_mixer(Tensor(x2), m.params, "blocks.0.").data
    assert not np.array_equal(y[:, 5], y2[:, 5])  # earlier token changed


def test_mixer_shape_contract():
    cfg = tiny_cfg("mambavision")
    m = build_model(cfg, seed=6)
    random_params(m)
    x = Tensor(SplitMix64(19).normal_array((3, 16, 8)))
    assert B.mamba_vision_mixer(x, m.params, "blocks.0.").shape == (3, 16, 8)


def test_mixer_rejects_odd_embed_dim():
    with pytest.raises(ValueError):
        ModelConfig(family="mambavision", embed_dim=7)


# -- vssd specifics ---------------------------------------------------------------------


def test_vssd_permutation_equivariance_without_lpu():
    cfg = tiny_cfg("vssd", image_h=8, image_w=8, patch=2)
    m = build_model(cfg, seed=7)
    random_params(m)
    for name in ("blocks.0.lpu.weight", "blocks.0.lpu.bias"):
        m.params[name].data[...] = 0.0
    rng = SplitMix64(21)
    x = rng.normal_array((1, 16, 8))
    y = B.vssd_block(Tensor(x), m.params, (4, 4), "blocks.0.").data
    perm = list(range(16))
    rng.shuffle(perm)
    y2 = B.vssd_block(Tensor(x[:, perm]), m.params, (4, 4), "blocks.0.").data
    assert np.array_equal(y2, y[:, perm])


def test_vssd_rejects_cls_sequences():
    cfg = tiny_cfg("vssd")
    m = build_model(cfg, seed=8)
    with pytest.raises(ValueError):
        B.vssd_block(Tensor(np.zeros((1, 17, 8))), m.params, (4, 4), "blocks.0.")


def test_vssd_shape_preserved():
    cfg = tiny_cfg("vssd")
    m = build_model(cfg, seed=9)
    random_params(m)
    x = Tensor(SplitMix64(23).normal_array((2, 16, 8)))
    assert B.vssd_block(x, m.params, (4, 4), "blocks.0.").shape == (2, 16, 8)


# -- model construction ---------------------------------------------------------------------


def test_param_count_is_seed_invariant():
    cfg = config_from_preset("desk-vim")
    assert param_count(cfg) == sum(p.data.size for p in build_model(cfg, 1).params.values())
    assert param_count(cfg) == sum(p.data.size for p in build_model(cfg, 2).params.values())


def test_depth_scaling_matches_closed_form():
    # oracle: per-block parameter cost derived from the layout table itself
    for family in ("vim", "mambavision", "vssd"):
        c1 = tiny_cfg(family, depth=1)
        c2 = tiny_cfg(family, depth=2)
        per_block = sum(
            int(np.prod(shape)) for name, shape, _ in param_specs(c1)
            if name.startswith("blocks.")
        )
        assert param_count(c2) - param_count(c1) == per_block


def test_vim_tiny_preset_near_reference_size():
    cfg = config_from_preset("vim-tiny")
    count = param_count(cfg)
    assert abs(count - 6.96e6) / 6.96e6 < 0.15


def test_unknown_preset():
    with pytest.raises(ValueError):
        config_from_preset("vim-giant")


@pytest.mark.parametrize("changes, message", [
    (dict(image_h=9), "patch 2 must divide image extents"),
    (dict(patch=0), "patch must be >= 1"),
    (dict(image_h=6, scan="local"), "window 2 must divide"),
    (dict(image_h=6, scan="efficient"), "stride 2 must divide"),
    (dict(scan="spiral"), "unknown scan strategy"),
    (dict(family="vit"), "unknown family"),
    (dict(family="mambavision", embed_dim=7), "mambavision needs an even embed_dim"),
    (dict(image_w=9), "patch 2 must divide image extents"),
    (dict(embed_dim=-1), "embed_dim must be >= 1"),
    (dict(depth=-2), "depth must be >= 1"),
    (dict(depth=0), "depth must be >= 1"),
    (dict(state_dim=0), "state_dim must be >= 1"),
    (dict(tie_directions=True), "tie_directions applies to vim only, not vssd"),
    (dict(family="mambavision", tie_directions=True), "applies to vim only, not mambavision"),
])
def test_config_that_does_not_fit_is_rejected_at_construction(changes, message):
    with pytest.raises(ValueError, match=message):
        tiny_cfg(**{"family": "vssd", **changes})


def test_build_is_deterministic():
    cfg = config_from_preset("desk-vssd")
    a = build_model(cfg, seed=5)
    b = build_model(cfg, seed=5)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = build_model(cfg, seed=6)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)


# -- forward / penultimate ---------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["desk-vim", "desk-mambavision", "desk-vssd"])
def test_forward_softmax_and_determinism(preset):
    cfg = config_from_preset(preset)
    m = build_model(cfg, seed=11)
    imgs = SplitMix64(25).uniform_array((3, 32, 32))
    logits = forward(m, imgs).data
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12
    logits2 = forward(build_model(cfg, seed=11), imgs).data
    assert np.array_equal(logits, logits2)


def test_forwards_share_one_scan_built_once(monkeypatch):
    scan2d.make_scan.cache_clear()
    built, returned = [], []
    cross, make = scan2d.cross_scan, scan2d.make_scan

    def counted_cross(h, w):
        built.append((h, w))
        return cross(h, w)

    def counted_make(*args, **kwargs):
        returned.append(make(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(scan2d, "cross_scan", counted_cross)
    monkeypatch.setattr(scan2d, "make_scan", counted_make)
    m = build_model(config_from_preset("desk-vssd", scan="cross"), seed=12)
    imgs = SplitMix64(27).uniform_array((2, 32, 32))
    with T.no_grad():
        for _ in range(3):
            forward(m, imgs)
    assert built == [(8, 8)]
    assert len(returned) == 4 and all(s is returned[0] for s in returned)
    order = returned[0].directions[1]
    cells, _, _ = returned[0].groups(equivariant=True)[0]
    for arr in (order.order, order.inverse, cells):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("scan", ["raster", "cross"])
@pytest.mark.parametrize("family", B.FAMILIES)
def test_no_grad_forward_writes_into_neither_images_nor_parameters(family, scan):
    """The no-grad forms write into arrays they own (SiLU's sigmoid, the
    scan's dt) and pass views on (flip), never into an input."""
    m = build_model(config_from_preset(f"desk-{family}", scan=scan), seed=14)
    imgs = SplitMix64(31).uniform_array((2, 32, 32))
    before = imgs.tobytes(), {name: p.data.tobytes() for name, p in m.params.items()}
    with T.no_grad():
        forward(m, imgs)
    assert (imgs.tobytes(), {name: p.data.tobytes() for name, p in m.params.items()}) == before


# tracemalloc peaks of one no-grad batch-64 forward of each desk preset, in
# MiB: the whole forward's, and the highest of one SiLU call and of one scan
# call above the bytes traced at the call's entry (probe_forward.op_peaks).
# Measured once SiLU, softplus and flip made no spare arrays there (numpy
# 2.4); the parent read vim 9.49/13.57 MiB, mambavision 3.55/5.08 MiB for
# the whole forward, and 2.03 (vim), 0.51 (mambavision) and 2.00 MiB (vssd)
# for SiLU.
NO_GRAD_PEAK_MIB = {
    ("vim", "raster"): (8.22, 1.02, 3.13), ("vim", "cross"): (12.30, 1.02, 3.13),
    ("mambavision", "raster"): (3.35, 0.25, 1.56), ("mambavision", "cross"): (4.88, 0.25, 1.56),
    ("vssd", "raster"): (6.41, 1.00, 0.0), ("vssd", "cross"): (6.41, 1.00, 0.0),
}
# under the 0.25 MiB of the smallest (batch, tokens, channels) array at batch
# 64 (mambavision's half-width branch), so one such array more fails
PEAK_MARGIN_MIB = 0.2


@pytest.mark.parametrize("family, scan", list(NO_GRAD_PEAK_MIB))
def test_no_grad_forward_stays_inside_its_memory_budget(family, scan):
    forward = probe_forward.desk_forward(family, scan, batch=64)
    ops = probe_forward.op_peaks(forward)
    peaks = (probe_forward.traced_peak(forward), ops["silu"], ops["scan"])
    for name, peak, budget in zip(("forward", "silu", "scan"), peaks,
                                  NO_GRAD_PEAK_MIB[family, scan]):
        assert peak / 2**20 <= budget + PEAK_MARGIN_MIB, (name, peak / 2**20)


def test_forward_probe_prints_every_case_and_op(capsys):
    argv = ["--families", "vim,vssd", "--scans", "cross", "--batch", "2", "--repeats", "1",
            "--per-op"]
    originals = [getattr(mod, attr) for _, mod, attr in probe_forward.OPS]
    assert probe_forward.main(argv) == 0
    assert [getattr(mod, attr) for _, mod, attr in probe_forward.OPS] == originals
    header, *lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header[0] == "malloc"
    assert [line[:3] for line in lines if line[2] == "ms"] == [["vim", "cross", "ms"],
                                                               ["vssd", "cross", "ms"]]
    ops = [line for line in lines if line[2] != "ms"]
    assert [op[2] for op in ops] == [name for name, _, _ in probe_forward.OPS] * 2
    calls = {(op[0], op[2]): int(op[4]) for op in ops}
    assert calls["vim", "scan"] == 16 and calls["vim", "nc_ssd"] == 0
    assert calls["vssd", "nc_ssd"] == 2 and calls["vssd", "scan"] == 0

    argv = ["--train", "--families", "vim,vssd", "--batch", "2", "--repeats", "1"]
    assert probe_forward.main(argv) == 0
    header, *lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header[0] == "malloc"
    assert [line[:4] + line[5::2] for line in lines] == [
        ["vim", "raster", "train", "ms", "faults", "peak_mib"],
        ["vssd", "raster", "train", "ms", "faults", "peak_mib"]]


def test_penultimate_dimension():
    cfg = config_from_preset("desk-vssd")
    m = build_model(cfg, seed=12)
    feats = penultimate(m, SplitMix64(27).uniform_array((4, 32, 32)))
    assert feats.shape == (4, cfg.embed_dim)


# -- scan plumbing ------------------------------------------------------------------------------


@pytest.mark.parametrize("scan", ["zigzag", "local", "cross", "efficient", "bidirectional"])
def test_any_scan_keeps_output_finite(scan):
    cfg = config_from_preset("desk-mambavision", scan=scan)
    m = build_model(cfg, seed=13)
    logits = forward(m, SplitMix64(29).uniform_array((2, 32, 32))).data
    assert logits.shape == (2, 2)
    assert np.all(np.isfinite(logits))


def test_cross_scan_rotation_invariance_with_lti_core():
    """Sum-merged cross-scan over an order-reversal-paired direction set is
    equivariant to 180-degree grid rotation when the per-direction weights
    are tied (single shared set here). An LTI core keeps the check exact.
    """
    cfg = tiny_cfg("mambavision", scan="cross", embed_dim=8)
    m = build_model(cfg, seed=14)
    random_params(m)
    # constant selective parameters (LTI core): kill the input-dependence
    for name, p in m.params.items():
        if "proj.w_" in name:
            p.data[...] = 0.0
    rng = SplitMix64(31)
    x = rng.normal_array((1, 16, 8))
    scan = scan2d.cross_scan(4, 4)
    y = B.mamba_vision_mixer(Tensor(x), m.params, "blocks.0.", scan=scan).data
    rot = x[:, ::-1].copy()  # 180-degree rotation of the 4x4 grid = full reversal
    y_rot = B.mamba_vision_mixer(Tensor(rot), m.params, "blocks.0.", scan=scan).data
    assert np.max(np.abs(y_rot - y[:, ::-1])) < 1e-12


@pytest.mark.parametrize("tokens, strategy, equivariant", [
    (15, "cross", False), (18, "cross", False), (15, "raster", False), (18, "raster", False),
    (15, "cross", True), (18, "cross", True),
], ids=["15", "18", "raster-15", "raster-18", "equivariant-15", "equivariant-18"])
def test_merged_update_rejects_tokens_off_the_grid(tokens, strategy, equivariant):
    # the class-token slot is inferred: 16 tokens fill the 4x4 grid, 17 carry one more
    x = Tensor(np.zeros((1, tokens, 2)))
    with pytest.raises(T.ShapeError, match=f"{tokens} tokens"):
        B.merged_update([x], lambda s: s, scan2d.make_scan(strategy, 4, 4), equivariant)


def _recorded_groups(streams, strategy, equivariant):
    """The stream tensors that ``merged_update``'s core receives, per group."""
    seen = []

    def core(*args):
        seen.append(args)
        return args[0]

    B.merged_update(streams, core, scan2d.make_scan(strategy, 4, 4), equivariant)
    return seen


@pytest.mark.parametrize("cls, equivariant", [(0, False), (1, False), (0, True)])
def test_merged_update_hands_the_identity_order_its_own_streams(cls, equivariant):
    # cross's first direction, and its one whole-grid cell set, is the raster order
    streams = [Tensor(np.zeros((1, 16 + cls, 2))), Tensor(np.ones((1, 16 + cls, 3)))]
    seen = _recorded_groups(streams, "cross", equivariant)
    assert len(seen) == (1 if equivariant else 4)
    assert all(got is given for got, given in zip(seen[0], streams))
    assert not any(got is given for args in seen[1:] for got, given in zip(args, streams))


@pytest.mark.parametrize("equivariant", [False, True])
def test_merged_update_gathers_every_partial_group(equivariant):
    x = Tensor(np.zeros((1, 16, 2)))
    seen = _recorded_groups([x], "efficient", equivariant)
    assert [args[0].shape for args in seen] == [(1, 4, 2)] * 4
    assert not any(args[0] is x for args in seen)


def _logits_and_grads(model, imgs, readout):
    for p in model.params.values():
        p.zero_grad()
    logits = forward(model, imgs)
    T.backward(T.sum_(T.mul(logits, Tensor(readout))))
    return logits.data, {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("scan", ["raster", "cross"])
@pytest.mark.parametrize("preset", ["desk-vim", "desk-mambavision"])
def test_fused_scan_blocks_match_parallel_oracle(preset, scan, monkeypatch):
    """Whole models on the fused scan op agree, in logits and in every parameter
    gradient, with the same models run on the graph-recorded chunked oracle."""
    imgs = SplitMix64(35).uniform_array((2, 32, 32))
    readout = SplitMix64(36).normal_array((2, 2))
    model = build_model(config_from_preset(preset, scan=scan), seed=16)
    fused, fused_grads = _logits_and_grads(model, imgs, readout)
    monkeypatch.setattr(B, "selective_scan_sequential",
                        lambda x, proj, a, d: S.selective_scan_parallel(x, proj, a, d, 8))
    oracle, oracle_grads = _logits_and_grads(model, imgs, readout)
    assert np.max(np.abs(fused - oracle)) < 1e-12
    for name, g in oracle_grads.items():
        assert fused_grads[name] is not None, name
        assert rel_err(fused_grads[name], g) < 1e-10, (name, rel_err(fused_grads[name], g))


@pytest.mark.parametrize("scan", ["raster", "cross"])
def test_fused_ncssd_blocks_match_graph_oracle(scan, monkeypatch):
    """desk-vssd on the fused shared-state core agrees, in logits and in every
    parameter gradient, with the same model run on the graph-composed core."""
    imgs = SplitMix64(37).uniform_array((2, 32, 32))
    readout = SplitMix64(38).normal_array((2, 2))
    model = build_model(config_from_preset("desk-vssd", scan=scan), seed=24)
    fused, fused_grads = _logits_and_grads(model, imgs, readout)
    monkeypatch.setattr(B, "nc_ssd", nc_ssd_graph)
    oracle, oracle_grads = _logits_and_grads(model, imgs, readout)
    assert np.max(np.abs(fused - oracle)) < 1e-12
    for name, g in oracle_grads.items():
        assert fused_grads[name] is not None, name
        assert rel_err(fused_grads[name], g) < 1e-10, (name, rel_err(fused_grads[name], g))


FUSED_OP_ORACLES = {
    "selective_scan_sequential": selective_scan_chunked,
    "nc_ssd": nc_ssd_graph,
    "conv1d_depthwise": conv1d_slices,
    "conv2d_depthwise3": conv2d_slices,
}


def _draw_grid(draw, scan):
    """A 1x1, 1xk, kx1 or square patch grid that ``scan`` fits (local and
    efficient need extents that 2 divides)."""
    if scan in ("local", "efficient"):
        k = draw(st.sampled_from((2, 4)))
        return draw(st.sampled_from([(k, k), (2, 4), (4, 2)]))
    k = draw(st.integers(2, 4))
    return draw(st.sampled_from([(1, 1), (1, k), (k, 1), (k, k)]))


@st.composite
def model_configs(draw):
    """Small models of every family, scan strategy, direction tying and stem,
    on every kind of grid ``_draw_grid`` draws: vssd sees L = 1, and vim and
    mambavision L = 2 with their class token."""
    family = draw(st.sampled_from(B.FAMILIES))
    scan = draw(st.sampled_from(scan2d.STRATEGIES))
    grid = _draw_grid(draw, scan)
    patch = draw(st.integers(1, 2))
    embed = draw(st.sampled_from((2, 4, 6)) if family == "mambavision" else st.integers(2, 6))
    return ModelConfig(family=family, image_h=grid[0] * patch, image_w=grid[1] * patch,
                       patch=patch, embed_dim=embed, state_dim=draw(st.integers(1, 3)),
                       depth=draw(st.integers(1, 2)), scan=scan, overlap=draw(st.booleans()),
                       tie_directions=draw(st.booleans()) and family == "vim")


def _edge(family, scan, h, w, **kw):
    return ModelConfig(family=family, image_h=h, image_w=w, patch=1, embed_dim=4,
                       state_dim=1, depth=1, scan=scan, **kw)


@settings(max_examples=100, deadline=None)
@given(cfg=model_configs(), batch=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@example(cfg=_edge("vim", "cross", 1, 1, tie_directions=True), batch=1, seed=1)
@example(cfg=_edge("mambavision", "bidirectional", 1, 3, overlap=True), batch=2, seed=2)
@example(cfg=_edge("vssd", "zigzag", 3, 1), batch=1, seed=3)
@example(cfg=_edge("vim", "local", 2, 4), batch=2, seed=4)
def test_fused_ops_match_their_oracles_in_drawn_models(cfg, batch, seed):
    """Every fused op that ``blocks`` binds, swapped at once for its graph
    oracle: the logits agree within 1e-12 and every parameter gradient within
    1e-10 relative. The no-grad logits, with the scan's default blocks and
    with blocks of one step, equal the recorded ones bit for bit, and so
    does ``predict``; so do the recorded logits and gradients in one-step
    blocks."""
    model = build_model(cfg, seed=seed)
    imgs = SplitMix64(seed).uniform_array((batch, cfg.image_h, cfg.image_w))
    readout = SplitMix64(seed + 1).normal_array((batch, cfg.classes))
    fused, fused_grads = _logits_and_grads(model, imgs, readout)
    for block_bytes in (S._BLOCK_BYTES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(S, "_BLOCK_BYTES", block_bytes)
            if block_bytes == 1:  # the recorded route in one-step blocks too
                logits, grads = _logits_and_grads(model, imgs, readout)
                assert np.array_equal(logits, fused)
                for name, g in grads.items():
                    assert np.array_equal(g, fused_grads[name]), name
            with T.no_grad():
                assert np.array_equal(forward(model, imgs).data, fused)
                assert np.array_equal(predict(model, imgs), np.argmax(fused, axis=-1))
    with pytest.MonkeyPatch.context() as mp:
        for name, oracle_op in FUSED_OP_ORACLES.items():
            mp.setattr(B, name, oracle_op)
        oracle, oracle_grads = _logits_and_grads(model, imgs, readout)
    assert np.max(np.abs(fused - oracle)) < 1e-12
    for name, g in oracle_grads.items():
        assert fused_grads[name] is not None, name
        assert rel_err(fused_grads[name], g) < 1e-10, (name, rel_err(fused_grads[name], g))


@st.composite
def vssd_configs(draw):
    """Small vssd configs over every scan strategy, with 1x1, 1xk, kx1 and
    square patch grids (local and efficient need extents that 2 divides)."""
    scan = draw(st.sampled_from(scan2d.STRATEGIES))
    grid = _draw_grid(draw, scan)
    patch = draw(st.integers(1, 2))
    return ModelConfig(family="vssd", image_h=grid[0] * patch, image_w=grid[1] * patch,
                       patch=patch, embed_dim=draw(st.integers(4, 16)),
                       state_dim=draw(st.integers(1, 4)), depth=draw(st.integers(1, 2)),
                       scan=scan)


def _vssd_edge(scan, h, w):
    return _edge("vssd", scan, h, w)


@settings(max_examples=100, deadline=None)
@given(cfg=vssd_configs(), batch=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@example(cfg=_vssd_edge("cross", 1, 1), batch=1, seed=1)
@example(cfg=_vssd_edge("bidirectional", 1, 3), batch=2, seed=2)
@example(cfg=_vssd_edge("efficient", 2, 2), batch=1, seed=3)
def test_vssd_cell_set_route_matches_per_direction_oracle(cfg, batch, seed):
    """vssd with its core run once per distinct set of cells agrees, in logits
    and in every parameter gradient, with its core run once per direction."""
    model = build_model(cfg, seed=seed)
    imgs = SplitMix64(seed).uniform_array((batch, cfg.image_h, cfg.image_w))
    readout = SplitMix64(seed + 1).normal_array((batch, 2))
    route, route_grads = _logits_and_grads(model, imgs, readout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "merged_update", per_direction_update)
        oracle, oracle_grads = _logits_and_grads(model, imgs, readout)
    assert np.max(np.abs(route - oracle)) < 1e-12
    for name, g in oracle_grads.items():
        assert rel_err(route_grads[name], g) < 1e-10, (name, rel_err(route_grads[name], g))


@pytest.mark.parametrize("scan", scan2d.STRATEGIES)
def test_vssd_cell_set_route_logits_are_bit_identical_at_desk(scan, monkeypatch):
    imgs = SplitMix64(39).uniform_array((4, 32, 32))
    model = build_model(config_from_preset("desk-vssd", scan=scan), seed=25)
    with T.no_grad():
        route = forward(model, imgs).data
    monkeypatch.setattr(B, "merged_update", per_direction_update)
    with T.no_grad():
        oracle = forward(model, imgs).data
    assert np.array_equal(route, oracle)


# -- depthwise convolutions ----------------------------------------------------------------------


def values_and_grads(op, arrays, live, readout):
    """op's value on fresh operands (live[i]: operand i requires grad) and the
    operands' gradients of sum(op * readout)."""
    operands = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, live)]
    out = op(*operands)
    if any(live):
        T.backward(T.sum_(T.mul(out, Tensor(readout))))
    return out.data, [t.grad for t in operands]


def _check_fused_conv(fused, oracle, arrays, live, seed):
    readout = SplitMix64(seed + 1).normal_array(arrays[0].shape)
    y_f, g_f = values_and_grads(fused, arrays, live, readout)
    y_o, g_o = values_and_grads(oracle, arrays, live, readout)
    assert np.array_equal(y_f, y_o)
    for name, gf, go, r in zip(("x", "weight", "bias"), g_f, g_o, live):
        if not r:
            assert gf is None, name
            continue
        assert gf.shape == go.shape, name
        assert rel_err(gf, go) < 1e-12, (name, rel_err(gf, go))


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 4), causal=st.booleans(), length=st.integers(1, 6),
       ch=st.integers(1, 4), lead=st.lists(st.integers(1, 3), max_size=2),
       live=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32 - 1))
@example(k=4, causal=True, length=1, ch=2, lead=[], live=(True, True, True), seed=1)
@example(k=4, causal=False, length=2, ch=3, lead=[2, 3], live=(True, False, True), seed=2)
@example(k=1, causal=False, length=1, ch=1, lead=[1], live=(False, True, False), seed=3)
def test_fused_conv1d_matches_slice_oracle(k, causal, length, ch, lead, live, seed):
    """One-node 1D conv against the slice loop: bit-identical values, every live
    gradient within 1e-12 relative, and no gradient for operands without one."""
    rng = SplitMix64(seed)
    arrays = [rng.normal_array(tuple(lead) + (length, ch)), rng.normal_array((ch, k)),
              rng.normal_array((ch,))]
    _check_fused_conv(lambda x, w, b: B.conv1d_depthwise(x, w, b, causal),
                      lambda x, w, b: conv1d_slices(x, w, b, causal), arrays, live, seed)


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([(1, 1), (1, 5), (3, 2)]), ch=st.integers(1, 4),
       lead=st.lists(st.integers(1, 3), max_size=2),
       live=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32 - 1))
@example(grid=(1, 1), ch=2, lead=[], live=(True, True, True), seed=1)
@example(grid=(3, 2), ch=3, lead=[2, 2], live=(True, True, True), seed=2)
@example(grid=(1, 5), ch=1, lead=[3], live=(False, False, True), seed=3)
def test_fused_conv2d_matches_slice_oracle(grid, ch, lead, live, seed):
    rng = SplitMix64(seed)
    arrays = [rng.normal_array(tuple(lead) + (grid[0] * grid[1], ch)),
              rng.normal_array((ch, 3, 3)), rng.normal_array((ch,))]
    _check_fused_conv(lambda x, w, b: B.conv2d_depthwise3(x, grid, w, b),
                      lambda x, w, b: conv2d_slices(x, grid, w, b), arrays, live, seed)


@pytest.mark.parametrize("conv, shapes", [
    (lambda x, w, b: B.conv1d_depthwise(x, w, b, causal=True), [(2, 5, 3), (3, 4), (3,)]),
    (lambda x, w, b: B.conv1d_depthwise(x, w, b, causal=False), [(5, 3), (3, 4), (3,)]),
    (lambda x, w, b: B.conv2d_depthwise3(x, (3, 2), w, b), [(2, 6, 3), (3, 3, 3), (3,)]),
])
def test_fused_conv_gradients_match_finite_differences(conv, shapes):
    rng = SplitMix64(45)
    arrays = [rng.normal_array(shape) for shape in shapes]
    readout = rng.normal_array(shapes[0])
    operands = [Tensor(a, requires_grad=True) for a in arrays]
    T.backward(T.sum_(T.mul(conv(*operands), Tensor(readout))))
    numeric = finite_difference(
        lambda: float(np.sum(conv(*[Tensor(a) for a in arrays]).data * readout)), arrays)
    for t, n in zip(operands, numeric):
        assert rel_err(t.grad, n) < 1e-8


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["causal", "centred", "1x1", "1xk", "kx1", "square"]),
       k=st.integers(1, 5), length=st.integers(1, 7), ch=st.integers(1, 8),
       lead=st.lists(st.integers(1, 3), max_size=2),
       layout=st.sampled_from(["contiguous", "flipped", "strided"]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="causal", k=4, length=5, ch=8, lead=[2], layout="flipped", seed=1)
@example(kind="square", k=3, length=1, ch=1, lead=[], layout="strided", seed=2)
def test_conv_rows_match_the_per_channel_oracle_bit_for_bit(kind, k, length, ch, lead,
                                                             layout, seed):
    """The row layout keeps the per-channel conv's products and sums: the value
    and the x, weight and bias gradients are equal bit for bit, for a flipped
    x (as vim's reversed pass passes it) and a non-contiguous one."""
    if kind in ("causal", "centred"):  # a 1D conv of k taps over `length` tokens
        grid, pads = (length,), ((k - 1, 0) if kind == "causal" else ((k - 1) // 2, k // 2),)
        wshape = (ch, k)
    else:  # the 3x3 grid conv
        grid = {"1x1": (1, 1), "1xk": (1, k), "kx1": (k, 1), "square": (k, k)}[kind]
        pads, wshape = ((1, 1), (1, 1)), (ch, 3, 3)
    tokens = (*lead, int(np.prod(grid)))
    rng = SplitMix64(seed)
    base = rng.normal_array(tokens + (2 * ch if layout == "strided" else ch,))
    x = {"contiguous": base, "flipped": base[..., ::-1, :], "strided": base[..., ::2]}[layout]
    weight, bias = rng.normal_array(wshape), rng.normal_array((ch,))
    readout = rng.normal_array(tokens + (ch,))

    def run(conv):
        operands = [Tensor(a, requires_grad=True) for a in (x, weight, bias)]
        out = conv(*operands, grid, pads)
        T.backward(T.sum_(T.mul(out, Tensor(readout))))
        return [out.data] + [t.grad for t in operands]

    got, want = run(B._depthwise), run(depthwise_per_channel)
    for name, g, w in zip(("value", "x", "weight", "bias"), got, want):
        assert g.shape == w.shape and np.array_equal(g, w), name


def test_no_grad_vim_conv_allocates_under_64_kib_beyond_its_buffers():
    """A no-grad desk-vim conv at batch 64 holds the padded input, the output
    and the product buffer, and every other temporary stays small: the row
    layout needs one row-sized tile of taps (16 KiB), so a larger temporary
    would be memory the call does not need."""
    rng = SplitMix64(48)
    x, weight, bias = rng.normal_array((64, 65, 32)), rng.normal_array((32, 4)), \
        rng.normal_array((32,))
    with T.no_grad():
        B.conv1d_depthwise(x, weight, bias, causal=True)
        tracemalloc.start()
        try:
            B.conv1d_depthwise(x, weight, bias, causal=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    padded, output = 64 * 68 * 32 * 8, 64 * 65 * 32 * 8
    assert 0 <= peak - (padded + 2 * output) < 64 * 1024


def test_each_conv_call_adds_one_graph_node():
    rng = SplitMix64(46)
    x = Tensor(rng.normal_array((2, 6, 3)), requires_grad=True)
    w1, w2 = (Tensor(rng.normal_array(s), requires_grad=True) for s in [(3, 4), (3, 3, 3)])
    b = Tensor(np.zeros(3), requires_grad=True)
    for out, w in [(B.conv1d_depthwise(x, w1, b, causal=True), w1),
                   (B.conv1d_depthwise(x, w1, b, causal=False), w1),
                   (B.conv2d_depthwise3(x, (2, 3), w2, b), w2)]:
        assert out._parents == (x, w, b)
        assert len(T.toposort(out)) == 4  # the three leaves and the conv


def test_fused_conv_rejects_mismatched_operands():
    x = Tensor(np.zeros((6, 3)))
    with pytest.raises(T.ShapeError):
        B.conv1d_depthwise(x, np.zeros((2, 4)), np.zeros(3), causal=True)
    with pytest.raises(T.ShapeError):
        B.conv2d_depthwise3(x, (2, 2), np.zeros((3, 3, 3)), np.zeros(3))


def test_pad_axis_oracle_gradients_match_finite_differences():
    def fn(a, b):
        return T.sum_(T.mul(T.take(pad_axis(a, 0, 2, 1), np.arange(1, 4), 0), b))

    for seed in range(4):
        rng = SplitMix64(1000 + 7 * seed)
        arrs = [rng.normal_array((3, 2)) * 0.7 + 0.3 for _ in range(2)]
        ta, tb = (Tensor(a, requires_grad=True) for a in arrs)
        T.backward(fn(ta, tb))

        def scalar_fn():
            with T.no_grad():
                return fn(Tensor(arrs[0]), Tensor(arrs[1])).item()

        numeric = finite_difference(scalar_fn, arrs, step=1e-5)
        for analytic, nu in zip((ta.grad, tb.grad), numeric):
            assert rel_err(analytic, nu) < 1e-4, (seed, rel_err(analytic, nu))


# -- gradient check (small) -----------------------------------------------------------------------


def rel_err(a, n):
    denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
    return np.max(np.abs(a - n)) / denom


@pytest.mark.parametrize("family", ["vim", "mambavision", "vssd"])
def test_block_gradients_small_model(family):
    cfg = tiny_cfg(family, embed_dim=8, depth=1)
    m = build_model(cfg, seed=17)
    imgs = SplitMix64(37).uniform_array((2, 8, 8))
    readout = SplitMix64(39).normal_array((2, 2))

    def loss_value():
        with T.no_grad():
            return float(np.sum(forward(m, imgs).data * readout))

    logits = forward(m, imgs)
    loss = T.sum_(T.mul(logits, Tensor(readout)))
    for p in m.params.values():
        p.zero_grad()
    T.backward(loss)

    rng = SplitMix64(41)
    checked = 0
    for name, p in m.params.items():
        flat = p.data.reshape(-1)
        gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for _ in range(2):
            i = rng.below(flat.size)
            orig = flat[i]
            flat[i] = orig + 1e-5
            f_plus = loss_value()
            flat[i] = orig - 1e-5
            f_minus = loss_value()
            flat[i] = orig
            numeric = (f_plus - f_minus) / 2e-5
            denom = max(abs(gflat[i]), abs(numeric), 1e-6)
            assert abs(gflat[i] - numeric) / denom < 1e-3, (name, i)
            checked += 1
    assert checked > 20


# -- checkpoints -------------------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = config_from_preset("desk-mambavision")
    m = build_model(cfg, seed=18)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    again = load_checkpoint(path)
    assert again.cfg == m.cfg
    for name in m.params:
        assert np.array_equal(again.params[name].data, m.params[name].data)
    # re-saving produces identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(again, path2)
    assert path.read_bytes() == path2.read_bytes()
    # sidecar carries the config
    assert (tmp_path / "model.ckpt.json").exists()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def rewrite_header(path, drop=(), **changes):
    """Rewrite the JSON header inside a container file (a checkpoint's config),
    keeping its arrays, and re-seal the CRC32 trailer."""
    blob = path.read_bytes()[:-4]
    (cfg_len,) = struct.unpack("<I", blob[12:16])
    cfg = json.loads(blob[16:16 + cfg_len])
    cfg.update(changes)
    for key in drop:
        del cfg[key]
    text = json.dumps(cfg, sort_keys=True).encode("utf-8")
    body = blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + cfg_len:]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_checkpoint_version_1_is_value_error(tmp_path):
    # version 1 had no CRC32 trailer; every container that loads has passed its CRC32
    path = tmp_path / "v1.ckpt"
    save_checkpoint(build_model(config_from_preset("desk-vssd"), seed=23), path)
    blob = path.read_bytes()
    assert struct.unpack("<I", blob[8:12]) == (2,)
    path.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:-4])
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_checkpoint_unknown_config_key_is_value_error(tmp_path):
    # "chunk", "expand" and "scan_merge" are keys only old checkpoints held
    for key, value in (("colour", "blue"), ("chunk", 8), ("expand", 2), ("scan_merge", "sum")):
        path = tmp_path / f"{key}.ckpt"
        save_checkpoint(build_model(tiny_cfg("vssd"), seed=20), path)
        rewrite_header(path, **{key: value})
        with pytest.raises(ValueError, match=f"unknown model config key '{key}'"):
            load_checkpoint(path)


def _saved_checkpoint(path, cfg=None, seed=21):
    model = build_model(cfg or tiny_cfg("vssd"), seed=seed)
    save_checkpoint(model, path)
    return model


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    _saved_checkpoint(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_blob_shape_checked_against_config(tmp_path):
    path = tmp_path / "m.ckpt"
    _saved_checkpoint(path, config_from_preset("desk-vim"))
    rewrite_header(path, patch=8)  # the blobs were written for patch 4
    with pytest.raises(ValueError, match="does not match"):
        load_checkpoint(path)


def test_checkpoint_non_finite_blob_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    model = build_model(tiny_cfg("vim"), seed=22)
    model.params["blocks.0.fwd.d"].data[1] = np.nan
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="blocks.0.fwd.d"):
        load_checkpoint(path)


@pytest.mark.parametrize("changes", [dict(embed_dim="8"), dict(use_cls=1), dict(patch=0),
                                     dict(scan="spiral"), dict(image_h=6, scan="local")])
def test_checkpoint_bad_config_value_is_value_error(tmp_path, changes):
    path = tmp_path / "m.ckpt"
    _saved_checkpoint(path)
    rewrite_header(path, **changes)
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.fixture(scope="module", params=["checkpoint", "train_state"])
def fuzz_file(request, tmp_path_factory):
    """The bytes of a small saved container file of each kind, and its loader."""
    model = build_model(tiny_cfg("mambavision", embed_dim=4), seed=21)
    path = tmp_path_factory.mktemp("saved") / request.param
    if request.param == "checkpoint":
        save_checkpoint(model, path)
        return path.read_bytes(), load_checkpoint
    state = TR.TrainState(epoch=1, step=3, total_steps=6, rng_state=(5, 2),
                          best_val_acc=0.5, best_epoch=0,
                          loss_history=[0.7, 0.6, 0.5], val_history=[0.5])
    TR.save_train_state(state, TR.Adam(model.params), model, path,
                        {k: p.data.copy() for k, p in model.params.items()})
    return path.read_bytes(), lambda damaged: TR.load_train_state(damaged, model)


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(0, 2**16), extra=st.binary(max_size=16))
@example(cut=1, extra=b"")
@example(cut=0, extra=b"\x00")
def test_container_truncated_or_extended_is_value_error(fuzz_file, tmp_path_factory,
                                                        cut, extra):
    """A checkpoint or train state cut short, with bytes appended, or both,
    fails to load with a ValueError that names the file."""
    blob, load = fuzz_file
    damaged = blob[:len(blob) - cut % (len(blob) + 1)] + extra
    assume(damaged != blob)
    path = tmp_path_factory.mktemp("fuzz") / "damaged"
    path.write_bytes(damaged)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


@settings(max_examples=60, deadline=None)
@given(back=st.integers(0, 2**16), flip=st.integers(1, 255))
@example(back=4, flip=1)  # the last byte of the last array, just before the trailer
@example(back=0, flip=1)  # the trailer itself
def test_container_with_one_byte_replaced_is_value_error(fuzz_file, tmp_path_factory,
                                                         back, flip):
    """A checkpoint or train state with one byte replaced, at any offset and at
    the same length, fails to load with a ValueError that names the file."""
    blob, load = fuzz_file
    damaged = bytearray(blob)
    damaged[len(damaged) - 1 - back % len(damaged)] ^= flip
    path = tmp_path_factory.mktemp("flip") / "damaged"
    path.write_bytes(bytes(damaged))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)
