import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as O
from oracles import analytic_g1_detector
from vissm import data as D
from vissm.data import SynthGenSpec, make_dataset
from vissm.files import write_json
from vissm.rng import SplitMix64, hash_combine


# -- real images -----------------------------------------------------------------


def test_real_is_deterministic():
    a = D.synth_real(123, 32, 32)
    b = D.synth_real(123, 32, 32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, D.synth_real(124, 32, 32))


def test_real_pixel_range():
    for seed in range(20):
        img = D.synth_real(seed, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_real_rejects_tiny_extents():
    with pytest.raises(ValueError):
        D.synth_real(0, 4, 32)


def test_real_energy_is_low_frequency():
    # oracle: FFT energy above half-Nyquist, averaged over 100 samples
    ratios = []
    for seed in range(100):
        img = D.synth_real(seed, 32, 32)
        power = np.abs(np.fft.fft2(img)) ** 2
        power[0, 0] = 0.0  # DC carries the mid-gray offset, not texture
        fy = np.abs(np.fft.fftfreq(32))[:, None]
        fx = np.abs(np.fft.fftfreq(32))[None, :]
        hi = np.maximum(fy, fx) > 0.25
        ratios.append(power[hi].sum() / power.sum())
    assert np.mean(ratios) < 0.10


# -- fake images ------------------------------------------------------------------


def test_fake_strength_zero_limit():
    real = D.synth_real(7, 32, 32)
    for gen in D.GENERATORS:
        near = D.synth_fake(7, 32, 32, SynthGenSpec(gen, 1e-9))
        assert np.max(np.abs(near - real)) < 1e-8, gen


def test_fake_is_deterministic():
    spec = SynthGenSpec("G3_gridnoise", 0.7)
    assert np.array_equal(D.synth_fake(5, 32, 32, spec), D.synth_fake(5, 32, 32, spec))


def test_g1_difference_peaks_at_nyquist():
    # oracle: FFT magnitude of (fake - real) peaks at the (N/2, N/2) bin
    for seed in (1, 2, 3):
        diff = D.synth_fake(seed, 32, 32, SynthGenSpec("G1_checkerboard", 0.8)) \
            - D.synth_real(seed, 32, 32)
        mag = np.abs(np.fft.fft2(diff))
        mag[0, 0] = 0.0
        assert np.unravel_index(np.argmax(mag), mag.shape) == (16, 16)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        SynthGenSpec("G4_dream", 0.5)
    with pytest.raises(ValueError):
        SynthGenSpec("G1_checkerboard", 0.0)


def test_generators_differ_from_each_other():
    imgs = [D.synth_fake(9, 32, 32, SynthGenSpec(g, 0.8)) for g in D.GENERATORS]
    assert not np.array_equal(imgs[0], imgs[1])
    assert not np.array_equal(imgs[1], imgs[2])


# -- analytic reference detector -----------------------------------------------------


def test_analytic_detector_separates_g1():
    fakes = np.stack([D.synth_fake(s, 32, 32, SynthGenSpec("G1_checkerboard", 0.8))
                      for s in range(50)])
    reals = np.stack([D.synth_real(10_000 + s, 32, 32) for s in range(50)])
    assert analytic_g1_detector(fakes).all()
    assert not analytic_g1_detector(reals).any()


# -- dataset assembly ------------------------------------------------------------------


def test_dataset_counts_and_purity():
    bundle = make_dataset(seed=1, train_count=100, val_count=20, test_count=50)
    assert len(bundle.train) == 100
    assert len(bundle.val) == 20
    assert [len(ds) for ds in bundle.test_subsets] == [50, 50, 50, 50]
    tags = [ds.subset_tag for ds in bundle.test_subsets]
    assert tags == ["real", "G1_checkerboard", "G2_ringing", "G3_gridnoise"]
    for ds in bundle.test_subsets:
        expected = ds.subset_tag != "real"
        assert np.all(ds.labels == expected)
    assert bundle.train.labels.sum() == 50  # even real/fake split


def test_dataset_splits_share_no_images():
    bundle = make_dataset(seed=2, train_count=40, val_count=20, test_count=20)
    pools = [bundle.train.images, bundle.val.images] + \
        [ds.images for ds in bundle.test_subsets]
    seen = set()
    for pool in pools:
        for img in pool:
            key = img.tobytes()
            assert key not in seen
            seen.add(key)


def test_seed_ranges_disjoint_in_manifest():
    bundle = make_dataset(seed=3, train_count=10, val_count=10, test_count=10)
    ranges = sorted(bundle.manifest["seed_ranges"].values())
    for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
        assert hi1 < lo2


def test_dataset_regenerates_from_manifest(tmp_path):
    bundle = make_dataset(seed=4, train_count=30, val_count=10, test_count=10)
    path = tmp_path / "manifest.json"
    write_json(path, bundle.manifest)
    again = D.dataset_from_manifest(D.load_manifest(path))
    assert np.array_equal(again.train.images, bundle.train.images)
    assert np.array_equal(again.test_subsets[2].images, bundle.test_subsets[2].images)


def record_drawn_splits(monkeypatch) -> list:
    """A list that gets the split of every block of images drawn from now on."""
    drawn, gen_block = [], D._gen_block

    def recorded(seed, split, *args):
        drawn.append(split)
        return gen_block(seed, split, *args)

    monkeypatch.setattr(D, "_gen_block", recorded)
    return drawn


def test_a_manifest_draws_only_the_splits_asked_for(monkeypatch):
    bundle = make_dataset(seed=6, train_count=5, val_count=3, test_count=2)
    drawn = record_drawn_splits(monkeypatch)
    for splits in (("test",), ("train", "val"), ("val",)):
        drawn.clear()
        part = D.dataset_from_manifest(bundle.manifest, splits)
        assert set(drawn) == set(splits)
        for split, ours, theirs in zip(D.SPLITS, (part.train, part.val, part.test_subsets),
                                       (bundle.train, bundle.val, bundle.test_subsets)):
            if split not in splits:
                assert ours is None
                continue
            for a, b in zip(*((ds,) if split != "test" else ds for ds in (ours, theirs))):
                assert (a.subset_tag, len(a)) == (b.subset_tag, len(b))
                assert np.array_equal(a.images, b.images)
                assert np.array_equal(a.labels, b.labels)


def test_manifest_schema_guard(tmp_path):
    # a foreign schema, and content that is not UTF-8 at all; either names the file
    for content in (json.dumps({"schema": "other/9"}).encode(), b"\xff{}"):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            D.load_manifest(path)


@pytest.mark.parametrize("keys, value, message", [
    (("counts", "train"), 8.0, "'counts.train' must be int"),
    (("seed",), 1.5, "'seed' must be int"),
    (("seed",), True, "'seed' must be int"),
    (("image", "h"), "32", "'image.h' must be int"),
    (("image",), [32, 32], "'image' must be an object"),
    (("counts", "val"), None, "'counts.val' must be int"),
    (("train_generator",), "G9_unknown", "'train_generator' must be one of"),
    (("specs",), {}, "'specs' must be list"),
    (("specs", 0, "artifact_strength"), "0.8", "'specs' must list"),
    (("specs", 1), {"generator_id": "G2_ringing"}, "'specs' must list"),
    (("counts", "test_per_subset"), KeyError, "'counts.test_per_subset' is missing"),
    (("image", "d"), 1, "unknown manifest key 'image.d'"),
])
def test_manifest_values_are_checked_on_load(tmp_path, keys, value, message):
    manifest = make_dataset(seed=2, train_count=2, val_count=2, test_count=1).manifest
    *parents, last = keys
    holder = manifest
    for key in parents:
        holder = holder[key]
    if value is KeyError:
        del holder[last]
    else:
        holder[last] = value
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    with pytest.raises(ValueError, match=message):
        D.load_manifest(path)


@pytest.mark.parametrize("other", [True, 1.0])
def test_manifest_strengths_share_one_type(tmp_path, other):
    # True == 1 == 1.0 in Python, but make_dataset writes one strength of one type
    manifest = make_dataset(seed=2, train_count=2, val_count=2, test_count=1,
                            strength=1).manifest
    manifest["specs"][2]["artifact_strength"] = other
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    with pytest.raises(ValueError, match="'specs' must list"):
        D.load_manifest(path)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), counts=st.tuples(*[st.integers(1, 5)] * 3),
       h=st.integers(8, 12), w=st.integers(8, 12), train_generator=st.sampled_from(D.GENERATORS),
       strength=st.sampled_from([1, 1.0, 0.8]) | st.floats(0.01, 1.0))
def test_every_manifest_make_dataset_writes_loads_and_regenerates(
        tmp_path_factory, seed, counts, h, w, train_generator, strength):
    bundle = make_dataset(seed, *counts, h=h, w=w, train_generator=train_generator,
                          strength=strength)
    path = tmp_path_factory.mktemp("m") / "manifest.json"
    write_json(path, bundle.manifest)
    manifest = D.load_manifest(path)
    assert manifest == bundle.manifest
    assert type(manifest["specs"][0]["artifact_strength"]) is type(strength)
    again = D.dataset_from_manifest(manifest)
    assert again.manifest == bundle.manifest
    for ours, theirs in zip([bundle.train, bundle.val, *bundle.test_subsets],
                            [again.train, again.val, *again.test_subsets]):
        assert ours.subset_tag == theirs.subset_tag
        assert np.array_equal(ours.images, theirs.images)
        assert np.array_equal(ours.labels, theirs.labels)


def splits_of(bundle) -> list:
    return [bundle.train, bundle.val, *bundle.test_subsets]


def chunk_of(h: int, w: int) -> int:
    """The images ``data`` draws together at extents (h, w)."""
    return max(1, D._CHUNK_BYTES // (8 * h * w))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-2**70, 2**70) | st.sampled_from([-5, 2**63 + 5, 2**64 - 1, 2**70 + 3]),
       h=st.integers(8, 40), w=st.integers(8, 40), split=st.sampled_from(D.SPLITS),
       offset=st.sampled_from([None, -1, 0, 1]), train_generator=st.sampled_from(D.GENERATORS),
       strength=st.floats(0.0, 1.0, exclude_min=True))
@example(seed=16, h=9, w=13, split="test", offset=1, train_generator="G2_ringing",
         strength=1.0)
def test_batched_corpus_is_the_per_image_corpus(seed, h, w, split, offset,
                                                train_generator, strength):
    # one block of the drawn split holds 1 image (offset None), or one below, at or
    # one above the chunk size; the other splits hold 1 or 2
    count = 1 if offset is None else chunk_of(h, w) + offset
    counts = {"train": 2, "val": 1, "test": 1}
    counts[split] = count if split == "test" else 2 * count - 1  # real gets `count`
    args = (seed, counts["train"], counts["val"], counts["test"])
    kwargs = dict(h=h, w=w, train_generator=train_generator, strength=strength)
    batched = make_dataset(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_gen_block", O.gen_block_per_image)
        per_image = make_dataset(*args, **kwargs)
        redrawn = D.draw_split(batched.manifest, split)
    for ours, theirs in zip(splits_of(batched), splits_of(per_image)):
        assert ours.images.tobytes() == theirs.images.tobytes()
        assert np.array_equal(ours.labels, theirs.labels)
    drawn = getattr(batched, split) if split != "test" else batched.test_subsets
    for ours, theirs in zip(*((ds,) if split != "test" else ds for ds in (drawn, redrawn))):
        assert ours.images.tobytes() == theirs.images.tobytes()


def test_batched_images_cover_every_wave_count():
    count = chunk_of(32, 32) + 5
    first = D.SEED_RANGES["train/real"][0]
    waves = {D._MIN_WAVES + SplitMix64(hash_combine(hash_combine(7, first + i), D._TAG_BASE))
             .below(D._MAX_WAVES - D._MIN_WAVES + 1) for i in range(count)}
    assert waves == set(range(D._MIN_WAVES, D._MAX_WAVES + 1))
    for spec in (None, *(SynthGenSpec(g, 0.6) for g in D.GENERATORS)):
        ours = D._gen_block(7, "train", "real", count, 32, 32, spec)
        assert ours.tobytes() == O.gen_block_per_image(7, "train", "real", count, 32, 32,
                                                       spec).tobytes()


@pytest.mark.parametrize("counts, extent", [
    ((1000, 200, 500), 32),  # criterion 7's corpus
    ((8, 2, 2), 256),        # four 256x256 reals a block: the chunk must shrink to fit
])
def test_synthesis_memory_is_bounded_by_bytes(counts, extent):
    tracemalloc.start()
    try:
        bundle = make_dataset(1, *counts, h=extent, w=extent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    corpus = sum(ds.images.nbytes + ds.labels.nbytes for ds in splits_of(bundle))
    assert peak <= corpus + 4 * 2**20


def test_make_dataset_validation():
    with pytest.raises(ValueError):
        make_dataset(seed=0, train_count=0, val_count=10, test_count=10)
    with pytest.raises(ValueError):
        make_dataset(seed=0, train_count=10, val_count=10, test_count=10,
                     train_generator="G9_unknown")


def test_write_pgm(tmp_path):
    img = D.synth_real(5, 16, 16)
    path = tmp_path / "img.pgm"
    D.write_pgm(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    assert len(raw) == len(b"P5\n16 16\n255\n") + 256
