import json
import sys
import threading
import weakref

import numpy as np
import pytest

from oracles import analytic_g1_detector
from test_blocks import rewrite_header
from vissm import blocks as B
from vissm import cli
from vissm import data as D
from vissm import tensor as T
from vissm import training as TR
from vissm.data import DetectionDataset
from vissm.files import write_json
from vissm.rng import SplitMix64
from vissm.tensor import Tensor


def tiny_bundle(seed=1, train=24, val=12, test=8):
    return D.make_dataset(seed=seed, train_count=train, val_count=val, test_count=test)


def tiny_model(seed=5, family="vssd"):
    cfg = B.ModelConfig(family=family, image_h=32, image_w=32, patch=8,
                        embed_dim=8, depth=1, state_dim=2)
    return B.build_model(cfg, seed=seed)


# -- loss and optimizer ------------------------------------------------------------


def test_cross_entropy_matches_log_softmax():
    rng = SplitMix64(1)
    logits = rng.normal_array((4, 2))
    labels = np.array([0, 1, 1, 0])
    loss = TR.cross_entropy(Tensor(logits), labels).item()
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    expected = -np.mean(log_probs[np.arange(4), labels])
    assert abs(loss - expected) < 1e-12


def test_adam_first_step_is_signed_unit_step():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = TR.Adam({"p": p})
    p.grad = np.array([0.5, -0.25, 1.0])
    before = p.data.copy()
    opt.step(0.1)
    expected = before - 0.1 * np.sign(p.grad)
    assert np.max(np.abs(p.data - expected)) < 1e-6


def test_adam_second_step_matches_hand_rolled_update():
    # oracle: run the published update rule by hand for two steps
    p = Tensor(np.array([0.7]), requires_grad=True)
    opt = TR.Adam({"p": p})
    g1, g2 = np.array([0.3]), np.array([-0.2])

    x = 0.7
    m = v = 0.0
    for t, g in ((1, 0.3), (2, -0.2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)

    p.grad = g1
    opt.step(0.05)
    p.grad = g2
    opt.step(0.05)
    assert abs(p.data[0] - x) < 1e-12


def test_cosine_schedule_endpoints():
    assert TR.cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
    assert TR.cosine_lr(1e-3, 100, 100) == pytest.approx(0.0, abs=1e-18)
    assert TR.cosine_lr(1e-3, 50, 100) == pytest.approx(5e-4)


# -- training loop ------------------------------------------------------------------


def test_single_step_descends_on_one_sample():
    model = tiny_model()
    img = D.synth_real(3, 32, 32)[None]
    label = np.array([0])

    def loss_of():
        with T.no_grad():
            return TR.cross_entropy(B.forward(model, img), label).item()

    before = loss_of()
    logits = B.forward(model, img)
    loss = TR.cross_entropy(logits, label)
    for p in model.params.values():
        p.zero_grad()
    T.backward(loss)
    TR.Adam(model.params).step(1e-4)
    assert loss_of() < before


def test_zero_lr_training_is_a_no_op():
    model = tiny_model()
    snapshot = {k: p.data.copy() for k, p in model.params.items()}
    bundle = tiny_bundle()
    TR.train(model, bundle, cfg=TR.TrainConfig(lr=0.0, epochs=1, seed=3))
    for name, p in model.params.items():
        assert np.array_equal(p.data, snapshot[name]), name


def test_equal_seeds_reproduce_loss_history():
    bundle = tiny_bundle()
    cfg = TR.TrainConfig(epochs=2, seed=9)
    _, s1 = TR.train(tiny_model(), bundle, cfg=cfg)
    _, s2 = TR.train(tiny_model(), bundle, cfg=cfg)
    assert s1.loss_history == s2.loss_history
    assert s1.val_history == s2.val_history


def test_resume_midway_matches_uninterrupted(tmp_path):
    bundle = tiny_bundle()
    cfg = TR.TrainConfig(epochs=4, seed=13)
    m_full, s_full = TR.train(tiny_model(seed=8), bundle, cfg=cfg)

    # sliced run: first two epochs of the same 4-epoch schedule, then resume
    state_path = tmp_path / "train_state.bin"
    TR.train(tiny_model(seed=8), bundle, cfg=cfg, state_path=state_path, run_until=2)
    m_res = tiny_model(seed=8)
    state, optimizer, best = TR.load_train_state(state_path, m_res)
    assert state.epoch == 2
    m_res, s_res = TR.train(m_res, bundle, cfg=cfg, resume=(state, optimizer, best))

    assert s_res.loss_history == s_full.loss_history
    assert s_res.val_history == s_full.val_history
    for name in m_full.params:
        assert np.array_equal(m_res.params[name].data, m_full.params[name].data)


def _saved_state(tmp_path):
    path = tmp_path / "train_state.bin"
    TR.train(tiny_model(seed=8), tiny_bundle(), cfg=TR.TrainConfig(epochs=1, seed=2),
             state_path=path)
    return path


@pytest.mark.parametrize("changes, drop, key", [
    (dict(epoch=1.0), (), "epoch"),
    (dict(rng_state=7), (), "rng_state"),
    (dict(best_val_acc=1), (), "best_val_acc"),
    (dict(colour="blue"), (), "colour"),
    ({}, ("adam_t",), "adam_t"),
])
def test_train_state_header_is_checked(tmp_path, changes, drop, key):
    path = _saved_state(tmp_path)
    rewrite_header(path, drop=drop, **changes)
    with pytest.raises(ValueError, match=key):
        TR.load_train_state(path, tiny_model(seed=8))


def test_train_state_of_another_model_is_value_error(tmp_path):
    path = _saved_state(tmp_path)
    with pytest.raises(ValueError, match="does not match|holds"):
        TR.load_train_state(path, tiny_model(family="vim"))


def test_divergence_raises_numeric_error():
    model = tiny_model()
    # poison the parameters so the forward pass overflows
    model.params["head.weight"].data[...] = 1e308
    model.params["patch.proj"].data[...] = 1e308
    bundle = tiny_bundle()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(T.NumericError):
        TR.train(model, bundle, cfg=TR.TrainConfig(epochs=1, seed=1))


def test_best_epoch_restoration():
    bundle = tiny_bundle(train=40, val=20)
    model = tiny_model(seed=11)
    _, state = TR.train(model, bundle, cfg=TR.TrainConfig(epochs=3, seed=5))
    assert state.best_epoch >= 0
    assert state.best_val_acc == max(state.val_history)


def test_step_graph_dies_before_optimizer_step(monkeypatch):
    logits, checked = [], []
    forward, step = B.forward, TR.Adam.step

    def keep_forward(model, images):
        out = forward(model, images)
        logits.append(weakref.ref(out.data))
        return out

    def check_step(self, lr):
        checked.append(logits[-1]() is None)
        step(self, lr)

    monkeypatch.setattr(B, "forward", keep_forward)
    monkeypatch.setattr(TR.Adam, "step", check_step)
    TR.train(tiny_model(family="vim"), tiny_bundle(), cfg=TR.TrainConfig(batch=8, epochs=2))
    assert checked == [True] * 6


def test_every_no_grad_forward_runs_inside_predict(monkeypatch):
    """The call contract a profiler's step clock relies on: training steps are
    the forwards outside ``B.predict``, and evaluation (train's validation
    too) is one ``B.predict`` per batch of at most ``EVAL_BATCH`` images."""
    forward, predict = B.forward, B.predict
    forwards, batches, depth = [], [], [0]

    def counting_forward(model, images):
        forwards.append((T._thread.grad_enabled, depth[0]))
        return forward(model, images)

    def counting_predict(model, images):
        batches.append(len(images))
        depth[0] += 1
        try:
            return predict(model, images)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(B, "forward", counting_forward)
    monkeypatch.setattr(B, "predict", counting_predict)
    TR.train(tiny_model(family="vim"), tiny_bundle(), cfg=TR.TrainConfig(batch=8, epochs=1))
    assert forwards == [(True, 0)] * 3 + [(False, 1)]  # 3 steps over 24, then val's 12
    assert batches == [12]

    forwards.clear()
    batches.clear()
    images = SplitMix64(3).uniform_array((2 * TR.EVAL_BATCH + 2, 32, 32))
    labels = np.arange(len(images)) % 2 == 0
    subsets = [subset(f"s{n}", images[:n], labels[:n])
               for n in (2 * TR.EVAL_BATCH + 2, TR.EVAL_BATCH, TR.EVAL_BATCH + 1, 1)]
    TR.evaluate(tiny_model(), subsets)
    e = TR.EVAL_BATCH
    assert batches == [e, e, 2, e, e, 1, 1]  # ceil(len / EVAL_BATCH) per subset
    assert forwards == [(False, 1)] * len(batches)


def test_concurrent_trainings_match_sequential_runs():
    """Grad mode is per thread: one training's validation under no_grad does
    not stop another thread's training from recording its graph."""
    bundle = tiny_bundle(train=96, val=64)
    cfg = TR.TrainConfig(batch=16, epochs=3, seed=4)
    families = ("vim", "vssd")
    sequential = [TR.train(tiny_model(family=f), bundle, cfg=cfg)[1].loss_history
                  for f in families]
    concurrent = [None, None]

    def run(i):
        concurrent[i] = TR.train(tiny_model(family=families[i]), bundle, cfg=cfg)[1].loss_history

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two trainings densely
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert concurrent == sequential


# -- evaluation ---------------------------------------------------------------------


def subset(tag, images, labels):
    return DetectionDataset(np.asarray(images), np.asarray(labels, bool), tag)


def labelling_model(monkeypatch, labels_of):
    """A model whose predictions are ``labels_of(images)``: evaluate reads them
    through ``blocks.predict``."""
    monkeypatch.setattr(B, "predict", lambda model, images: labels_of(images))
    return tiny_model()


def test_constant_model_accuracy_equals_prevalence(monkeypatch):
    imgs = np.zeros((10, 32, 32))
    always_real = labelling_model(monkeypatch, lambda batch: np.zeros(len(batch), dtype=int))
    rep = TR.evaluate(always_real, [subset("real", imgs, np.zeros(10)),
                                    subset("fake", imgs, np.ones(10))])
    assert rep.per_subset == {"real": 1.0, "fake": 0.0}


def test_mean_accuracy_is_unweighted(monkeypatch):
    imgs = np.zeros((4, 32, 32))
    half_right = labelling_model(monkeypatch, lambda batch: np.array([0, 0, 1, 1]))
    rep = TR.evaluate(half_right, [subset("a", imgs, [0, 0, 0, 0]),
                                   subset("b", imgs, [0, 0, 1, 1])])
    assert rep.per_subset["a"] == 0.5
    assert rep.per_subset["b"] == 1.0
    assert rep.mean_accuracy == 0.75


def test_evaluate_permutation_invariant(monkeypatch):
    bundle = tiny_bundle()
    ds = bundle.test_subsets[1]
    rng = SplitMix64(31)
    perm = list(range(len(ds)))
    rng.shuffle(perm)
    shuffled = DetectionDataset(ds.images[perm], ds.labels[perm], ds.subset_tag)
    model = labelling_model(monkeypatch, lambda batch: analytic_g1_detector(batch).astype(int))
    a = TR.evaluate(model, [ds]).per_subset[ds.subset_tag]
    b = TR.evaluate(model, [shuffled]).per_subset[ds.subset_tag]
    assert a == b


def test_analytic_oracle_reaches_one_on_g1(monkeypatch):
    bundle = tiny_bundle(test=32)
    g1 = next(ds for ds in bundle.test_subsets if ds.subset_tag == "G1_checkerboard")
    real = next(ds for ds in bundle.test_subsets if ds.subset_tag == "real")
    model = labelling_model(monkeypatch, lambda batch: analytic_g1_detector(batch).astype(int))
    rep = TR.evaluate(model, [real, g1])
    assert rep.per_subset["G1_checkerboard"] == 1.0
    assert rep.per_subset["real"] == 1.0


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError):
        TR.evaluate(tiny_model(), [])


def test_report_serialization_roundtrip(tmp_path, monkeypatch):
    rep = TR.EvalReport(per_subset={"real": 1.0, "G1_checkerboard": 0.5},
                        mean_accuracy=0.75, seeds=[1], model_summary={"kind": "x"})
    write_json(tmp_path / "manifest.json", tiny_bundle(test=1).manifest)
    B.save_checkpoint(tiny_model(), tmp_path / "model.ckpt")
    monkeypatch.setattr(TR, "evaluate", lambda *args, **kwargs: rep)
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "eval")]) == 0
    text = (tmp_path / "eval" / "eval_report.json").read_text()
    assert '"mean_accuracy": 0.75' in text
    csv_text = (tmp_path / "eval" / "eval_report.csv").read_text()
    assert "mean,0.750000" in csv_text


# -- feature export -----------------------------------------------------------------


def test_export_features_shape_and_determinism(tmp_path):
    model = tiny_model()
    bundle = tiny_bundle(test=6)
    ds = bundle.test_subsets[0]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    n = TR.export_features(model, [ds], path_a)
    TR.export_features(model, [ds], path_b)
    assert n == len(ds)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0].split(",")
    assert header[:2] == ["subset_tag", "label"]
    assert len(header) == 2 + model.cfg.embed_dim
    assert len(path_a.read_text().splitlines()) == 1 + len(ds)


# -- cross-generator experiment (miniature) -----------------------------------------------


def test_cross_generator_experiment_grid_complete():
    out = TR.cross_generator_experiment(
        families=["vssd"], seeds=[1, 2], train_count=24, val_count=12,
        test_count=8, train_cfg=TR.TrainConfig(epochs=1, seed=0),
    )
    assert len(out["results"]) == 2  # family x seed grid
    for row in out["results"]:
        assert set(row["per_subset"]) == {"real", "G1_checkerboard",
                                          "G2_ringing", "G3_gridnoise"}
    agg = out["aggregates"]["vssd"]
    assert 0.0 <= agg["in_distribution"]["mean"] <= 1.0
    assert "sd" in agg["out_of_distribution"]


def test_cross_generator_trains_on_the_requested_generator():
    out = TR.cross_generator_experiment(
        families=["vssd"], seeds=[1], train_count=24, val_count=12,
        test_count=8, train_generator="G2_ringing",
        train_cfg=TR.TrainConfig(epochs=1, seed=0),
    )
    assert out["train_generator"] == "G2_ringing"
    acc = out["results"][0]["per_subset"]
    assert out["aggregates"]["vssd"]["in_distribution"]["mean"] == np.mean(
        [acc["real"], acc["G2_ringing"]])


@pytest.mark.parametrize("families, seeds", [
    pytest.param([], [1], id="no-family"),
    pytest.param(["vssd"], [], id="no-seed"),
    pytest.param(["nope"], [1], id="unknown-family"),
    pytest.param(["vssd", "vssd"], [1], id="repeated-family"),
    pytest.param(["vssd"], [1, 1], id="repeated-seed"),
    pytest.param(["vssd", "vssd"], [1, 1], id="repeated-both"),
])
def test_cross_generator_rejects_a_bad_job_list_before_drawing(monkeypatch, families, seeds):
    drawn = []
    monkeypatch.setattr(TR, "make_dataset", lambda **kw: drawn.append(kw))
    with pytest.raises(ValueError):
        TR.cross_generator_experiment(families=families, seeds=seeds,
                                      train_cfg=TR.TrainConfig())
    with pytest.raises(ValueError):
        TR.crossgen_jobs(families, seeds)
    assert drawn == []


MINI_FAMILIES, MINI_SEEDS = ["vssd", "mambavision"], [2, 1]


@pytest.fixture(scope="module")
def mini_crossgen():
    """A 2-family x 2-seed run and the rows its progress callback saw."""
    seen = []
    out = TR.cross_generator_experiment(
        MINI_FAMILIES, MINI_SEEDS, TR.TrainConfig(epochs=1, seed=0), seen.append,
        train_count=24, val_count=12, test_count=8)
    return out, seen


def test_crossgen_rows_survive_a_json_round_trip(mini_crossgen):
    out, _ = mini_crossgen
    assert len(out["results"]) == 4
    for row in out["results"]:
        assert json.loads(json.dumps(row)) == row


def test_crossgen_report_of_rows_read_back_equals_the_report_in_memory(mini_crossgen):
    out, _ = mini_crossgen
    rows = json.loads(json.dumps(out["results"]))
    assert TR.crossgen_report(rows, out["train_generator"]) == out
    assert (out["families"], out["seeds"]) == (MINI_FAMILIES, MINI_SEEDS)


def test_crossgen_progress_sees_the_rows_in_job_order(mini_crossgen):
    out, seen = mini_crossgen
    assert seen == out["results"]
    assert [(row["seed"], row["family"]) for row in seen] == [
        (2, "vssd"), (2, "mambavision"), (1, "vssd"), (1, "mambavision")]
    assert TR.crossgen_jobs(MINI_FAMILIES, MINI_SEEDS) == [
        (row["seed"], row["family"]) for row in seen]
