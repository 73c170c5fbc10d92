import json
import struct

import numpy as np
import pytest

from vissm import blocks as B
from vissm import scan2d
from vissm import selective as S
from vissm import tensor as T
from vissm.blocks import (
    Model,
    ModelConfig,
    PatchEmbedConfig,
    build_model,
    config_from_preset,
    forward,
    load_checkpoint,
    param_count,
    param_specs,
    patch_embed,
    penultimate,
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
    cfg = PatchEmbedConfig(8, 8, 1, 4, 6, use_cls=True)
    m = build_model(tiny_cfg("vim", patch=4, embed_dim=6), seed=0)
    seq = patch_embed(np.zeros((2, 8, 8)), cfg, m.params)
    assert seq.tokens.shape == (2, 5, 6)  # 4 patches + CLS
    assert seq.has_cls and seq.grid == (2, 2)


def test_patch_embed_divisibility_error():
    with pytest.raises(ValueError):
        PatchEmbedConfig(9, 8, 1, 4, 6, use_cls=False)


def test_zero_image_zero_weights_zero_tokens():
    cfg = tiny_cfg("vim")
    m = build_model(cfg, seed=0)
    zero_params(m)
    seq = patch_embed(np.zeros((1, 8, 8)), cfg.patch_cfg(), m.params)
    assert np.array_equal(seq.tokens.data, np.zeros_like(seq.tokens.data))


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
    seq = patch_embed(img, cfg.patch_cfg(), m.params)
    assert np.array_equal(seq.tokens.data[0, :, 0], img.reshape(-1))


def test_overlap_stem_token_count_and_window():
    cfg = PatchEmbedConfig(8, 8, 1, 4, 6, use_cls=False, overlap=True)
    patches = B.extract_patches(np.ones((1, 8, 8)), cfg)
    assert patches.shape == (1, 4, 36)  # (4+2)^2 pixels per token
    # interior window sums full ones; corner window loses the padded rim
    assert patches[0].max() == 1.0


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
        B.vssd_block(Tensor(np.zeros((1, 17, 8))), m.params, (4, 4), "blocks.0.",
                     has_cls=True)


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


def test_mean_merge_matches_scaled_sum():
    cfg = tiny_cfg("mambavision", embed_dim=8)
    m = build_model(cfg, seed=15)
    random_params(m)
    x = Tensor(SplitMix64(33).normal_array((1, 16, 8)))
    sum_scan = scan2d.cross_scan(4, 4, merge="sum")
    mean_scan = scan2d.cross_scan(4, 4, merge="mean")
    y_sum = B.mamba_vision_mixer(x, m.params, "blocks.0.", scan=sum_scan).data
    y_mean = B.mamba_vision_mixer(x, m.params, "blocks.0.", scan=mean_scan).data
    # update = (y_sum - x)/4 for the mean rule
    assert np.max(np.abs((y_sum - x.data) / 4.0 - (y_mean - x.data))) < 1e-12


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


def rewrite_config(path, **changes):
    """Rewrite the config JSON inside a checkpoint file, keeping its blobs."""
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", blob[12:16])
    cfg = json.loads(blob[16:16 + cfg_len])
    cfg.update(changes)
    text = json.dumps(cfg, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + cfg_len:])


def test_checkpoint_with_legacy_chunk_key_loads(tmp_path):
    m = build_model(config_from_preset("desk-vim"), seed=19)
    path = tmp_path / "old.ckpt"
    save_checkpoint(m, path)
    rewrite_config(path, chunk=8)
    again = load_checkpoint(path)
    assert again.cfg == m.cfg
    imgs = SplitMix64(43).uniform_array((2, 32, 32))
    assert np.array_equal(forward(again, imgs).data, forward(m, imgs).data)


def test_checkpoint_unknown_config_key_is_value_error(tmp_path):
    path = tmp_path / "odd.ckpt"
    save_checkpoint(build_model(tiny_cfg("vssd"), seed=20), path)
    rewrite_config(path, colour="blue")
    with pytest.raises(ValueError, match="colour"):
        load_checkpoint(path)
