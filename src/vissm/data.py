"""Procedural real-vs-synthetic image corpus.

"Real" images are band-limited smooth random fields plus mild sensor noise.
"Fake" images start from the same base field and composite one of three
generator signatures on top:

  G1_checkerboard  period-2 checkerboard (peak at the Nyquist frequency)
  G2_ringing       over-sharpening overshoot around the field's edges
  G3_gridnoise     noise bursts along a 4x4 block-boundary lattice

All sampling flows through the splitmix stream, keyed by (dataset seed,
split, subset, index), so any image can be regenerated from the manifest
alone; datasets are never stored as pixels unless explicitly exported.

Images are drawn in byte-bounded batches: a chunk is as many images as fit
``_CHUNK_BYTES``, and the streams' closed form reads all of a chunk's draws at
once, so its fields, signatures and noise are (chunk, h, w) arrays, formed by
the same operations in the same order as for one image. Any one image still
regenerates from its seed alone, with the same bits, as the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import files
from .rng import advance, below_array, hash_combine_array, normals, stream_u64, uniforms

GENERATORS = ("G1_checkerboard", "G2_ringing", "G3_gridnoise")

# stream tags keep base-field draws and artifact draws independent
_TAG_BASE = 0x42415345  # "BASE"
_TAG_ART = 0x46414B45   # "FAKE"

NOISE_SIGMA = 0.02
_MIN_WAVES, _MAX_WAVES = 3, 6
_FREQ_LO, _FREQ_HI = 0.5, 3.0  # cycles per image: well below Nyquist/2
_AMP_LO, _AMP_HI = 0.04, 0.12
_RING_GAIN = 3.0
_BLOCK = 4


@dataclass
class SynthGenSpec:
    generator_id: str
    artifact_strength: float

    def __post_init__(self):
        if self.generator_id not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator_id!r}; known: {GENERATORS}"
            )
        if not 0.0 < self.artifact_strength <= 1.0:
            raise ValueError("artifact_strength must lie in (0, 1]")


# each wave draws its amplitude, x frequency and sign, y frequency and sign, phase
_WAVE_DRAWS = 6
# a chunk is as many images as fit one (chunk, h, w) float64 array in this budget;
# its working set is a few such arrays, so about 2 MiB whatever the image count
_CHUNK_BYTES = 1 << 18


def _smooth_fields(draws: np.ndarray, n_waves: np.ndarray, h: int, w: int) -> np.ndarray:
    """Each image's sum of its ``n_waves`` random low-frequency plane waves
    around mid-gray, shape (len, h, w): row i of ``draws`` holds image i's
    base-stream outputs after its wave count, ``_WAVE_DRAWS`` per wave."""
    yy = np.arange(h, dtype=np.float64)[:, None] / h
    xx = np.arange(w, dtype=np.float64)[None, :] / w
    # most waves first, so the images that have a wave j are a prefix: sin, the
    # cost floor, runs only where a wave is
    order = np.argsort(n_waves)[::-1]
    draws = draws[order]
    field = np.full((len(draws), h, w), 0.5)
    for j in range(_MAX_WAVES):
        k = np.count_nonzero(n_waves > j)
        amp, fx, fx_pos, fy, fy_pos, phase = \
            draws[:k, _WAVE_DRAWS * j:_WAVE_DRAWS * (j + 1)].T[..., None, None]
        amp = uniforms(amp, _AMP_LO, _AMP_HI)
        fx = uniforms(fx, _FREQ_LO, _FREQ_HI) * np.where(below_array(fx_pos, 2), 1.0, -1.0)
        fy = uniforms(fy, _FREQ_LO, _FREQ_HI) * np.where(below_array(fy_pos, 2), 1.0, -1.0)
        phase = uniforms(phase, 0.0, 2.0 * np.pi)
        field[:k] += amp * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    return field[np.argsort(order)]


def _box_blur3(img: np.ndarray) -> np.ndarray:
    """3x3 box blur over the last two axes, with edge replication."""
    h, w = img.shape[-2:]
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    out = np.zeros_like(img)
    for i in range(3):
        for j in range(3):
            out += padded[..., i:i + h, j:j + w]
    return out / 9.0


def _checker(h: int, w: int) -> np.ndarray:
    """The period-2 +/-1 checkerboard, +1 at (0, 0): the G1 signature."""
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    return np.where((ii + jj) % 2 == 0, 1.0, -1.0)


def _artifact(seeds, h: int, w: int, field: np.ndarray, spec: SynthGenSpec) -> np.ndarray:
    s = spec.artifact_strength
    gen = spec.generator_id
    if gen == "G1_checkerboard":
        return 0.1 * s * _checker(h, w)
    if gen == "G2_ringing":
        # over-shoot sharpening of the base field: halo ringing at edges
        return s * _RING_GAIN * (field - _box_blur3(field))
    # G3: noise bursts pinned to the 4x4 block lattice
    states = np.reshape(hash_combine_array(seeds, _TAG_ART, GENERATORS.index(gen)), -1)
    burst = uniforms(stream_u64(states, h * w), -1.0, 1.0).reshape(field.shape)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    mask = ((ii % _BLOCK == 0) | (jj % _BLOCK == 0)).astype(np.float64)
    return 0.1 * s * burst * mask


def _synth(seeds, h: int, w: int, spec: SynthGenSpec | None = None) -> np.ndarray:
    """The images of the sample ``seeds`` (an int, or a uint64 array), shape
    (len, h, w) in [0, 1]: reals for ``spec`` None, else fakes of ``spec``.

    Each image's base stream, hash_combine(seed, _TAG_BASE), draws its wave
    count, then ``_WAVE_DRAWS`` per wave, then its noise; the streams' closed
    form reads every image's draws at once, at those offsets.
    """
    if h < 8 or w < 8:
        raise ValueError(f"image extents must be >= 8, got ({h}, {w})")
    base = np.reshape(hash_combine_array(seeds, _TAG_BASE), -1)
    draws = stream_u64(base, 1 + _WAVE_DRAWS * _MAX_WAVES)
    n_waves = _MIN_WAVES + below_array(draws[:, 0], _MAX_WAVES - _MIN_WAVES + 1)
    # the noise before the field, so its raw draws, the largest arrays, and the
    # field's are never alive at once
    noise = normals(stream_u64(advance(base, 1 + _WAVE_DRAWS * n_waves), 2 * h * w),
                    0.0, NOISE_SIGMA).reshape(-1, h, w)
    field = _smooth_fields(draws[:, 1:], n_waves, h, w)
    if spec is None:
        return np.clip(field + noise, 0.0, 1.0)
    return np.clip(field + _artifact(seeds, h, w, field, spec) + noise, 0.0, 1.0)


def synth_real(seed: int, h: int, w: int) -> np.ndarray:
    """Deterministic pseudo-natural image in [0, 1]: the batch of one seed."""
    return _synth(seed, h, w)[0]


def synth_fake(seed: int, h: int, w: int, spec: SynthGenSpec) -> np.ndarray:
    """Base field of the same seed plus the generator's signature: the batch
    of one seed.

    As artifact_strength -> 0 this converges to synth_real(seed, h, w).
    """
    return _synth(seed, h, w, spec)[0]


# -- datasets --------------------------------------------------------------------


@dataclass
class DetectionDataset:
    images: np.ndarray  # (M, H, W) in [0, 1]
    labels: np.ndarray  # (M,) bool, True = fake
    subset_tag: str

    def __len__(self):
        return len(self.images)


@dataclass
class DatasetBundle:
    train: DetectionDataset | None
    val: DetectionDataset | None
    test_subsets: list | None
    manifest: dict


# a manifest's "seed_ranges": the first and last sample index of each disjoint
# "split/subset" block; 2^20 samples each is far beyond any desk-scale count
_BLOCK_WIDTH = 1 << 20
SEED_RANGES = {key: [i * _BLOCK_WIDTH, (i + 1) * _BLOCK_WIDTH - 1] for i, key in enumerate((
    "train/real", "train/fake", "val/real", "val/fake", "test/real",
    *(f"test/{g}" for g in GENERATORS)))}
SCHEMA = "vissm.dataset/1"


def _gen_block(dataset_seed, split, subset, count, h, w, spec=None):
    first = SEED_RANGES[f"{split}/{subset}"][0]
    imgs = np.empty((count, h, w))
    chunk = max(1, _CHUNK_BYTES // (8 * h * w))
    for start in range(0, count, chunk):
        stop = min(count, start + chunk)
        seeds = hash_combine_array(dataset_seed, np.arange(first + start, first + stop))
        imgs[start:stop] = _synth(seeds, h, w, spec)
    return imgs


def check_corpus(train_count: int, val_count: int, test_count: int,
                 train_generator: str, strength: float) -> None:
    """ValueError for what ``make_dataset`` rejects before drawing any image."""
    if min(train_count, val_count, test_count) < 1:
        raise ValueError("all split counts must be >= 1")
    SynthGenSpec(train_generator, strength)


def _spec_list(strength) -> list:
    """A manifest's "specs": every generator in ``GENERATORS`` at ``strength``."""
    return [{"generator_id": g, "artifact_strength": strength} for g in GENERATORS]


def make_dataset(seed: int, train_count: int, val_count: int, test_count: int,
                 h: int = 32, w: int = 32,
                 train_generator: str = "G1_checkerboard",
                 strength: float = 0.8) -> DatasetBundle:
    """Train/val on one generator; test subsets for real and for every
    generator in ``GENERATORS``, all fakes drawn at one ``strength``.

    train_count / val_count are totals, split evenly between real and fake
    (real gets the extra sample when odd). test_count is per subset. Each
    (split, subset) pair draws from its own disjoint sample-seed block. The
    bundle's manifest holds these arguments, and ``load_manifest`` reads only
    manifests of that form.
    """
    check_corpus(train_count, val_count, test_count, train_generator, strength)
    manifest = {
        "schema": SCHEMA,
        "seed": seed,
        "image": {"h": h, "w": w},
        "counts": {"train": train_count, "val": val_count, "test_per_subset": test_count},
        "train_generator": train_generator,
        "specs": _spec_list(strength),
        "seed_ranges": {key: list(ends) for key, ends in SEED_RANGES.items()},
    }
    return dataset_from_manifest(manifest)


SPLITS = ("train", "val", "test")


def draw_split(manifest: dict, split: str):
    """One split of the corpus ``manifest`` describes, as ``make_dataset`` draws
    it: a DetectionDataset for "train" and "val", the list of test subsets
    (real, then each generator in ``GENERATORS``) for "test"."""
    seed, h, w = manifest["seed"], manifest["image"]["h"], manifest["image"]["w"]
    specs = {spec["generator_id"]: SynthGenSpec(**spec) for spec in manifest["specs"]}
    if split == "test":
        count = manifest["counts"]["test_per_subset"]
        # specs has no "real" entry, so the real subset draws with spec None
        return [DetectionDataset(_gen_block(seed, "test", tag, count, h, w, specs.get(tag)),
                                 np.full(count, tag != "real"), subset_tag=tag)
                for tag in ("real", *GENERATORS)]
    total, generator = manifest["counts"][split], manifest["train_generator"]
    n_real = (total + 1) // 2
    n_fake = total - n_real
    reals = _gen_block(seed, split, "real", n_real, h, w)
    fakes = _gen_block(seed, split, "fake", n_fake, h, w, specs[generator])
    images = np.concatenate([reals, fakes])
    labels = np.concatenate([np.zeros(n_real, bool), np.ones(n_fake, bool)])
    return DetectionDataset(images, labels, subset_tag=f"real+{generator}")


_MANIFEST_KINDS = {
    "schema": str, "seed": int, "image": {"h": int, "w": int},
    "counts": {"train": int, "val": int, "test_per_subset": int},
    "train_generator": str, "specs": list, "seed_ranges": dict,
}


def load_manifest(path) -> dict:
    """A manifest ``make_dataset`` could have written: exactly the keys and types
    of ``_MANIFEST_KINDS``, the values it always writes and one strength for every
    generator. ValueError naming the file and key if not; value ranges are left
    to ``make_dataset``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        manifest = files.json_object(text, _MANIFEST_KINDS, _MANIFEST_KINDS, "manifest")
        specs = manifest["specs"]
        strength = specs[0].get("artifact_strength") if specs and type(specs[0]) is dict else None
        for key, ok, want in (
                ("schema", manifest["schema"] == SCHEMA, f"must be {SCHEMA!r}"),
                ("train_generator", manifest["train_generator"] in GENERATORS,
                 f"must be one of {GENERATORS}"),
                ("specs", type(strength) in (int, float) and specs == _spec_list(strength)
                 and {type(spec["artifact_strength"]) for spec in specs} == {type(strength)},
                 f"must list every generator of {GENERATORS} in order at one "
                 f"int or float artifact_strength"),
                ("seed_ranges", manifest["seed_ranges"] == SEED_RANGES,
                 "must equal the sample-index blocks make_dataset draws from")):
            if not ok:
                raise ValueError(f"manifest key {key!r} {want}, got {manifest[key]!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return manifest


def dataset_from_manifest(manifest: dict, splits=SPLITS) -> DatasetBundle:
    """Regenerate the bundle from a ``load_manifest`` result, bit-identical for
    equal manifests; a split left out of ``splits`` is not drawn and is None."""
    drawn = [draw_split(manifest, split) if split in splits else None for split in SPLITS]
    return DatasetBundle(*drawn, manifest=manifest)


# -- image export -------------------------------------------------------------------


def write_pgm(image: np.ndarray, path) -> None:
    """8-bit binary PGM (P5), for eyeballing generated samples."""
    files.write_netpbm(path, np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8))
