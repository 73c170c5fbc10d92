"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the cross-generator accuracy table. Criterion 7 trains nine
models (three families, three seeds) and dominates the runtime.
"""

import time

import numpy as np
import pytest

from oracles import constant_projection, finite_difference, gather, scatter
from vissm import blocks as B
from vissm import cli
from vissm import data as D
from vissm import scan2d
from vissm import selective as S
from vissm import ssm
from vissm import tensor as T
from vissm import training as TR
from vissm.rng import SplitMix64
from vissm.tensor import Tensor


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def rel_err(a, n):
    denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
    return np.max(np.abs(a - n)) / denom


# -- 1: recurrent vs FFT convolution ------------------------------------------------


def test_criterion_1_form_equivalence():
    t0 = time.time()
    rng = SplitMix64(101)
    worst = 0.0
    for _ in range(100):
        dim = 1 + rng.below(8)
        diag = rng.below(2) == 0
        params = ssm.random_stable_system(rng, dim, diag=diag)
        dssm = ssm.discretize_zoh(params)
        length = 8 + rng.below(57)  # up to 64
        x = rng.normal_array((length,))
        gap = np.max(np.abs(ssm.run_recurrent(dssm, x) - ssm.run_convolution(dssm, x)))
        worst = max(worst, gap)
    elapsed = time.time() - t0
    assert worst < 1e-9, worst
    assert elapsed < 10.0
    report(1, f"100 random systems, recurrent vs FFT conv max gap {worst:.2e} "
              f"(< 1e-9) in {elapsed:.1f}s")


# -- 2: selective-scan consistency ---------------------------------------------------


def test_criterion_2_selective_consistency():
    t0 = time.time()
    rng = SplitMix64(202)
    ch, n, length = 4, 3, 64

    def rand_proj():
        return S.SelectiveProjection(
            w_b=Tensor(rng.normal_array((ch, n)) * 0.4),
            w_c=Tensor(rng.normal_array((ch, n)) * 0.4),
            w_dt_down=Tensor(rng.normal_array((ch, 2)) * 0.4),
            w_dt_up=Tensor(rng.normal_array((2, ch)) * 0.4),
            delta_base=Tensor(rng.normal_array((ch,)) * 0.5),
            b_b=Tensor(rng.normal_array((n,)) * 0.4),
            b_c=Tensor(rng.normal_array((n,)) * 0.4),
        )

    worst_chunk = 0.0
    for _ in range(10):
        proj = rand_proj()
        a = Tensor(-rng.uniform_array((ch, n), 0.5, 4.0))
        d = Tensor(rng.normal_array((ch,)))
        x = Tensor(rng.normal_array((length, ch)))
        with T.no_grad():
            y_seq = S.selective_scan_sequential(x, proj, a, d).data
            for chunk in (1, 2, 7, 16, length):
                y_par = S.selective_scan_parallel(x, proj, a, d, chunk).data
                worst_chunk = max(worst_chunk, np.max(np.abs(y_seq - y_par)))
    assert worst_chunk < 1e-9, worst_chunk

    worst_lti = 0.0
    for _ in range(100):
        cch = 1 + rng.below(3)
        sn = 1 + rng.below(5)
        ln = 4 + rng.below(24)
        b_const = rng.normal_array((sn,))
        c_const = rng.normal_array((sn,))
        delta = rng.uniform_array((cch,), 0.05, 0.8)
        proj = constant_projection(cch, sn, b_const, c_const, delta)
        a = Tensor(-rng.uniform_array((cch, sn), 0.5, 4.0))
        dvec = Tensor(rng.normal_array((cch,)))
        x = rng.normal_array((ln, cch))
        with T.no_grad():
            y = S.selective_scan_sequential(Tensor(x), proj, a, dvec).data
        for c in range(cch):
            ref = ssm.run_recurrent(ssm.DiscreteSsm(
                a_bar=np.exp(delta[c] * a.data[c]), b_bar=delta[c] * b_const,
                c=c_const, d=dvec.data[c]), x[:, c])
            worst_lti = max(worst_lti, np.max(np.abs(y[:, c] - ref)))
    elapsed = time.time() - t0
    assert worst_lti < 1e-10, worst_lti
    assert elapsed < 10.0
    report(2, f"chunk set {{1,2,7,16,L}} max gap {worst_chunk:.2e} (< 1e-9); "
              f"LTI reduction max gap {worst_lti:.2e} (< 1e-10) in {elapsed:.1f}s")


# -- 3: non-causality vs causality ------------------------------------------------------


def test_criterion_3_ncssd_and_causality():
    t0 = time.time()
    rng = SplitMix64(303)
    proj = S.SelectiveProjection(
        w_b=Tensor(rng.normal_array((4, 3)) * 0.4),
        w_c=Tensor(rng.normal_array((4, 3)) * 0.4),
        w_dt_down=Tensor(rng.normal_array((4, 2)) * 0.4),
        w_dt_up=Tensor(rng.normal_array((2, 4)) * 0.4),
        delta_base=Tensor(rng.normal_array((4,)) * 0.5),
        b_b=Tensor(rng.normal_array((3,)) * 0.4),
        b_c=Tensor(rng.normal_array((3,)) * 0.4),
    )
    d = Tensor(rng.normal_array((4,)))
    x = rng.normal_array((24, 4))
    with T.no_grad():
        y = S.nc_ssd(Tensor(x), proj, d).data
    for _ in range(100):
        perm = list(range(24))
        rng.shuffle(perm)
        with T.no_grad():
            yp = S.nc_ssd(Tensor(x[perm]), proj, d).data
        assert np.array_equal(yp, y[perm])  # exact, bit for bit

    # sequential path causality inside the gated bidirectional family's core
    cfg = B.ModelConfig(family="vim", image_h=8, image_w=8, patch=2, embed_dim=8,
                        depth=1, state_dim=3)
    m = B.build_model(cfg, seed=1)
    prng = SplitMix64(304)
    for p in m.params.values():
        p.data[...] = prng.normal_array(p.data.shape) * 0.3
    xs = prng.normal_array((1, 12, 16))
    with T.no_grad():
        base = B._scan_path(Tensor(xs), m.params, "blocks.0.fwd.", causal=True).data
    for cut in (3, 7, 11):
        xs2 = xs.copy()
        xs2[:, cut:] += 1.0
        with T.no_grad():
            pert = B._scan_path(Tensor(xs2), m.params, "blocks.0.fwd.", causal=True).data
        assert np.array_equal(base[:, :cut], pert[:, :cut])
        assert not np.array_equal(base[:, cut:], pert[:, cut:])
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, f"non-causal state exactly permutation-equivariant on 100 permutations; "
              f"causal path unaffected by future perturbations ({elapsed:.1f}s)")


# -- 4: scan bijections -------------------------------------------------------------------


def test_criterion_4_scan_bijections():
    t0 = time.time()
    rng = SplitMix64(404)
    trials = 0
    for _ in range(40):
        h = 1 + rng.below(16)
        w = 1 + rng.below(16)
        div = next(d for d in range(min(h, w), 0, -1) if h % d == 0 and w % d == 0)
        x = rng.normal_array((h * w, 2))
        for strategy in scan2d.STRATEGIES:
            scan = scan2d.make_scan(strategy, h, w, win=div, stride=div)
            orders = scan.directions
            if strategy == "efficient":
                combined = np.concatenate(orders)
                assert sorted(combined.tolist()) == list(range(h * w))
                total = sum(scatter(gather(x, o, h * w), o, h * w) for o in orders)
                assert np.array_equal(total, x)
            else:
                for o in orders:
                    assert sorted(o.tolist()) == list(range(h * w))
                    assert np.array_equal(scatter(gather(x, o, h * w), o, h * w), x)
            trials += 1
        (zz,) = scan2d.make_scan("zigzag", h, w).directions
        for a, b in zip(zz[:-1], zz[1:]):
            ra, ca = divmod(int(a), w)
            rb, cb = divmod(int(b), w)
            assert abs(ra - rb) + abs(ca - cb) == 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"{trials} strategy x grid draws: bijection + round-trip + zigzag "
              f"continuity + atrous partition ({elapsed:.1f}s)")


# -- 5: gradient checks ----------------------------------------------------------------------


def test_criterion_5_gradient_checks():
    t0 = time.time()

    # individual kernels at the tight tolerance
    rng = SplitMix64(505)
    ch, n, length = 3, 2, 5
    proj_arrays = {
        "w_b": rng.normal_array((ch, n)) * 0.4,
        "w_c": rng.normal_array((ch, n)) * 0.4,
        "w_dt_down": rng.normal_array((ch, 1)) * 0.4,
        "w_dt_up": rng.normal_array((1, ch)) * 0.4,
        "delta_base": rng.normal_array((ch,)) * 0.5,
        "b_b": rng.normal_array((n,)) * 0.4,
        "b_c": rng.normal_array((n,)) * 0.4,
    }
    a_log = rng.normal_array((ch, n)) * 0.3
    d_arr = rng.normal_array((ch,))
    x_arr = rng.normal_array((length, ch))
    weight = rng.normal_array((length, ch))

    def scan_loss(route, record):
        proj = S.SelectiveProjection(**{k: Tensor(v, requires_grad=record)
                                        for k, v in proj_arrays.items()})
        al = Tensor(a_log, requires_grad=record)
        dv = Tensor(d_arr, requires_grad=record)
        xv = Tensor(x_arr, requires_grad=record)
        a = T.neg(T.exp(al))
        if route == "sequential":
            y = S.selective_scan_sequential(xv, proj, a, dv)
        elif route == "parallel":
            y = S.selective_scan_parallel(xv, proj, a, dv, 2)
        else:
            y = S.nc_ssd(xv, proj, dv)
        return T.sum_(T.mul(y, Tensor(weight))), proj, al, dv, xv

    for route in ("sequential", "parallel", "ncssd"):
        loss, proj, al, dv, xv = scan_loss(route, True)
        T.backward(loss)
        arrays = list(proj_arrays.values()) + [a_log, d_arr, x_arr]
        analytic = [t.grad for t in proj.tensors().values()] + [al.grad, dv.grad, xv.grad]

        def f():
            with T.no_grad():
                return scan_loss(route, False)[0].item()

        numeric = finite_difference(f, arrays, step=1e-5)
        for an, nu in zip(analytic, numeric):
            an = np.zeros_like(nu) if an is None else an
            assert rel_err(an, nu) < 1e-4, route

    # every family: 2-block model on 32x32 input, sampled-entry check
    worst = 0.0
    for family in ("vim", "mambavision", "vssd"):
        cfg = B.config_from_preset(f"desk-{family}")
        assert cfg.depth == 2 and cfg.image_h == 32
        model = B.build_model(cfg, seed=5)
        imgs = SplitMix64(506).uniform_array((2, 32, 32))
        readout = SplitMix64(507).normal_array((2, 2))

        logits = B.forward(model, imgs)
        loss = T.sum_(T.mul(logits, Tensor(readout)))
        for p in model.params.values():
            p.zero_grad()
        T.backward(loss)

        def loss_value():
            with T.no_grad():
                return float(np.sum(B.forward(model, imgs).data * readout))

        prng = SplitMix64(508)
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
            i = prng.below(flat.size)
            orig = flat[i]
            flat[i] = orig + 1e-5
            f_plus = loss_value()
            flat[i] = orig - 1e-5
            f_minus = loss_value()
            flat[i] = orig
            numeric = (f_plus - f_minus) / 2e-5
            denom = max(abs(gflat[i]), abs(numeric), 1e-6)
            err = abs(gflat[i] - numeric) / denom
            worst = max(worst, err)
            assert err < 1e-3, (family, name, err)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(5, f"scan kernels < 1e-4; 2-block models worst sampled-entry relative "
              f"error {worst:.2e} (< 1e-3) in {elapsed:.1f}s")


# -- 6: block identities ------------------------------------------------------------------------


def test_criterion_6_block_identities():
    rng = SplitMix64(606)
    x = Tensor(rng.normal_array((2, 16, 8)))
    scan = scan2d.make_scan("raster", 4, 4)
    for family in ("vim", "mambavision", "vssd"):
        cfg = B.ModelConfig(family=family, image_h=8, image_w=8, patch=2,
                            embed_dim=8, depth=1, state_dim=3)
        m = B.build_model(cfg, seed=1)
        for p in m.params.values():
            p.data[...] = 0.0
        if family == "vim":
            out = B.vim_block(x, m.params, "blocks.0.", scan)
        elif family == "mambavision":
            out = B.mamba_vision_mixer(x, m.params, "blocks.0.", scan)
        else:
            out = B.vssd_block(x, m.params, "blocks.0.", scan)
        assert np.array_equal(out.data, x.data)

    cfg = B.ModelConfig(family="vim", image_h=8, image_w=8, patch=2, embed_dim=8,
                        depth=1, state_dim=3, tie_directions=True)
    m = B.build_model(cfg, seed=2)
    prng = SplitMix64(607)
    for p in m.params.values():
        p.data[...] = prng.normal_array(p.data.shape) * 0.3
    seq = prng.normal_array((1, 12, 8))
    line = scan2d.make_scan("raster", 1, 12)
    out = B.vim_block(Tensor(seq), m.params, "blocks.0.", line).data
    out_rev = B.vim_block(Tensor(seq[:, ::-1].copy()), m.params, "blocks.0.", line).data
    gap = np.max(np.abs(out_rev - out[:, ::-1]))
    assert gap < 1e-12, gap
    report(6, f"zero-parameter residual identity exact for all families; tied "
              f"reversal equivariance gap {gap:.2e} (< 1e-12)")


# -- 7: desk-scale cross-generator protocol ---------------------------------------------------------


def test_criterion_7_cross_generator_protocol():
    t0 = time.time()
    lines = []

    def progress(row):
        lines.append(f"  {row['family']:<12} seed {row['seed']}: " + "  ".join(
            f"{tag}={acc:.3f}" for tag, acc in row["per_subset"].items()))
        print(lines[-1], flush=True)

    out = TR.cross_generator_experiment(
        families=["vim", "mambavision", "vssd"], seeds=[1, 2, 3],
        train_count=1000, val_count=200, test_count=500,
        train_cfg=TR.TrainConfig(epochs=4, seed=0), progress=progress,
    )
    elapsed = time.time() - t0
    assert elapsed < 900.0, f"protocol took {elapsed:.0f}s (budget 900s)"

    for family, agg in out["aggregates"].items():
        ind = agg["in_distribution"]
        ood = agg["out_of_distribution"]
        print(f"  {family:<12} in-dist {ind['mean']:.3f} +/- {ind['sd']:.3f}   "
              f"ood {ood['mean']:.3f} +/- {ood['sd']:.3f}")
        assert ind["mean"] >= 0.95, (family, ind)
    report(7, f"all families reach in-distribution accuracy >= 0.95 over 3 seeds; "
              f"out-of-distribution means reported above ({elapsed / 60:.1f} min)")


# -- 8: parameter-count anchor ---------------------------------------------------------------------


def test_criterion_8_param_count_anchor():
    t0 = time.time()
    cfg = B.config_from_preset("vim-tiny")
    count = B.param_count(cfg)
    reference = 6.96e6
    deviation = abs(count - reference) / reference
    assert deviation < 0.15, (count, deviation)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    specs = B.param_specs(cfg)
    embed = sum(int(np.prod(s)) for n, s, _ in specs
                if n.startswith(("patch.", "pos", "cls")))
    body = sum(int(np.prod(s)) for n, s, _ in specs if n.startswith("blocks."))
    head = sum(int(np.prod(s)) for n, s, _ in specs
               if n.startswith(("head.", "final_norm.")))
    report(8, f"structural preset has {count:,} parameters, {deviation * 100:.2f}% "
              f"from the 6.96M reference (embed {embed:,} / blocks {body:,} / "
              f"head {head:,}); low-rank timescale projection and plain-FFN head "
              f"are the documented simplifications")


# -- 9: determinism of the command pipeline -----------------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["make-data", "--out", str(data), "--seed", "5",
                     "--train", "24", "--val", "12", "--test", "8"]) == 0
    ckpts = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", "--data", str(data), "--family", "vssd",
                         "--seed", "7", "--epochs", "1", "--embed-dim", "8",
                         "--depth", "1", "--state-dim", "2",
                         "--out", str(out)]) == 0
        ckpts.append((out / "checkpoint.bin").read_bytes())
    assert ckpts[0] == ckpts[1]

    feats = []
    for name in ("f1.csv", "f2.csv"):
        path = tmp_path / name
        assert cli.main(["export-features", "--checkpoint",
                         str(tmp_path / "r1" / "checkpoint.bin"),
                         "--data", str(data), "--split", "test",
                         "--out", str(path)]) == 0
        feats.append(path.read_bytes())
    assert feats[0] == feats[1]
    report(9, "repeated training runs yield byte-identical checkpoints; repeated "
              "feature exports are byte-identical")


# -- 10: benchmark correctness precondition -----------------------------------------------------------


def test_criterion_10_bench_precondition(tmp_path):
    out = tmp_path / "bench"
    assert cli.main(["bench-kernels", "--lengths", "64,256,1024,4096,8192",
                     "--repeats", "1", "--out", str(out)]) == 0
    import json
    bench = json.loads((out / "bench.json").read_text())
    lengths = [c["length"] for c in bench["checks"]]
    assert lengths == [64, 256, 1024, 4096, 8192]
    assert all(c["ok"] for c in bench["checks"])
    assert all(c["lti_gap"] < 1e-9 and c["selective_gap"] < 1e-9
               for c in bench["checks"])
    report(10, "benchmark cross-checks hold at every size before timings "
               f"(worst lti gap {max(c['lti_gap'] for c in bench['checks']):.2e}, "
               f"worst selective gap {max(c['selective_gap'] for c in bench['checks']):.2e})")
