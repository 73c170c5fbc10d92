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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import files
from .rng import SplitMix64, hash_combine

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


def _smooth_field(rng: SplitMix64, h: int, w: int) -> np.ndarray:
    """Sum of a few random low-frequency plane waves around mid-gray."""
    yy = np.arange(h, dtype=np.float64)[:, None] / h
    xx = np.arange(w, dtype=np.float64)[None, :] / w
    field = np.full((h, w), 0.5)
    n_waves = _MIN_WAVES + rng.below(_MAX_WAVES - _MIN_WAVES + 1)
    for _ in range(n_waves):
        amp = rng.uniform(_AMP_LO, _AMP_HI)
        fx = rng.uniform(_FREQ_LO, _FREQ_HI) * (1.0 if rng.below(2) else -1.0)
        fy = rng.uniform(_FREQ_LO, _FREQ_HI) * (1.0 if rng.below(2) else -1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += amp * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    return field


def _box_blur3(img: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge replication."""
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for i in range(3):
        for j in range(3):
            out += padded[i:i + img.shape[0], j:j + img.shape[1]]
    return out / 9.0


def _checker(h: int, w: int) -> np.ndarray:
    """The period-2 +/-1 checkerboard, +1 at (0, 0): the G1 signature."""
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    return np.where((ii + jj) % 2 == 0, 1.0, -1.0)


def _base_parts(seed: int, h: int, w: int):
    rng = SplitMix64(hash_combine(seed, _TAG_BASE))
    field = _smooth_field(rng, h, w)
    noise = rng.normal_array((h, w), 0.0, NOISE_SIGMA)
    return field, noise


def synth_real(seed: int, h: int, w: int) -> np.ndarray:
    """Deterministic pseudo-natural image in [0, 1]."""
    if h < 8 or w < 8:
        raise ValueError(f"image extents must be >= 8, got ({h}, {w})")
    field, noise = _base_parts(seed, h, w)
    return np.clip(field + noise, 0.0, 1.0)


def _artifact(seed: int, h: int, w: int, field: np.ndarray,
              spec: SynthGenSpec) -> np.ndarray:
    s = spec.artifact_strength
    gen = spec.generator_id
    if gen == "G1_checkerboard":
        return 0.1 * s * _checker(h, w)
    if gen == "G2_ringing":
        # over-shoot sharpening of the base field: halo ringing at edges
        return s * _RING_GAIN * (field - _box_blur3(field))
    # G3: noise bursts pinned to the 4x4 block lattice
    rng = SplitMix64(hash_combine(seed, _TAG_ART, GENERATORS.index(gen)))
    burst = rng.uniform_array((h, w), -1.0, 1.0)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    mask = ((ii % _BLOCK == 0) | (jj % _BLOCK == 0)).astype(np.float64)
    return 0.1 * s * burst * mask


def synth_fake(seed: int, h: int, w: int, spec: SynthGenSpec) -> np.ndarray:
    """Base field of the same seed plus the generator's signature.

    As artifact_strength -> 0 this converges to synth_real(seed, h, w).
    """
    if h < 8 or w < 8:
        raise ValueError(f"image extents must be >= 8, got ({h}, {w})")
    field, noise = _base_parts(seed, h, w)
    art = _artifact(seed, h, w, field, spec)
    return np.clip(field + art + noise, 0.0, 1.0)


# -- datasets --------------------------------------------------------------------


@dataclass
class DetectionDataset:
    images: np.ndarray  # (M, H, W) in [0, 1]
    labels: np.ndarray  # (M,) bool, True = fake
    subset_tag: str
    split: str

    def __len__(self):
        return len(self.images)


@dataclass
class DatasetBundle:
    train: DetectionDataset
    val: DetectionDataset
    test_subsets: list
    manifest: dict


# disjoint sample-index blocks per (split, subset); 2^20 samples each is
# far beyond any desk-scale count
_BLOCK_WIDTH = 1 << 20
_RANGE_KEYS = (
    ("train", "real"), ("train", "fake"),
    ("val", "real"), ("val", "fake"),
    ("test", "real"),
    ("test", GENERATORS[0]), ("test", GENERATORS[1]), ("test", GENERATORS[2]),
)
_RANGE_OFFSET = {key: i * _BLOCK_WIDTH for i, key in enumerate(_RANGE_KEYS)}


def _sample_seed(dataset_seed: int, split: str, subset: str, index: int) -> int:
    return hash_combine(dataset_seed, _RANGE_OFFSET[(split, subset)] + index)


def _gen_block(dataset_seed, split, subset, count, h, w, spec=None):
    imgs = np.empty((count, h, w))
    for i in range(count):
        seed = _sample_seed(dataset_seed, split, subset, i)
        imgs[i] = synth_real(seed, h, w) if spec is None else synth_fake(seed, h, w, spec)
    return imgs


def check_corpus(train_count: int, val_count: int, test_count: int,
                 train_generator: str, strength: float) -> None:
    """ValueError for what ``make_dataset`` rejects before drawing any image."""
    if min(train_count, val_count, test_count) < 1:
        raise ValueError("all split counts must be >= 1")
    SynthGenSpec(train_generator, strength)


def make_dataset(seed: int, train_count: int, val_count: int, test_count: int,
                 h: int = 32, w: int = 32,
                 train_generator: str = "G1_checkerboard",
                 strength: float = 0.8,
                 specs: list | None = None) -> DatasetBundle:
    """Train/val on one generator; test subsets for every generator plus real.

    train_count / val_count are totals, split evenly between real and fake
    (real gets the extra sample when odd). test_count is per subset. Each
    (split, subset) pair draws from its own disjoint sample-seed block.
    """
    check_corpus(train_count, val_count, test_count, train_generator, strength)
    if specs is None:
        specs = [SynthGenSpec(g, strength) for g in GENERATORS]
    if not specs:
        raise ValueError("at least one generator spec is required")
    by_id = {s.generator_id: s for s in specs}
    if train_generator not in by_id:
        raise ValueError(f"training generator {train_generator!r} not in specs")
    train_spec = by_id[train_generator]

    def mixed(split, total):
        n_real = (total + 1) // 2
        n_fake = total - n_real
        reals = _gen_block(seed, split, "real", n_real, h, w)
        fakes = _gen_block(seed, split, "fake", n_fake, h, w, train_spec)
        images = np.concatenate([reals, fakes])
        labels = np.concatenate([np.zeros(n_real, bool), np.ones(n_fake, bool)])
        return DetectionDataset(images, labels, subset_tag=f"real+{train_generator}",
                                split=split)

    train = mixed("train", train_count)
    val = mixed("val", val_count)

    tests = [DetectionDataset(
        _gen_block(seed, "test", "real", test_count, h, w),
        np.zeros(test_count, bool), subset_tag="real", split="test")]
    for s in specs:
        tests.append(DetectionDataset(
            _gen_block(seed, "test", s.generator_id, test_count, h, w, s),
            np.ones(test_count, bool), subset_tag=s.generator_id, split="test"))

    manifest = {
        "schema": "vissm.dataset/1",
        "seed": seed,
        "image": {"h": h, "w": w},
        "counts": {"train": train_count, "val": val_count, "test_per_subset": test_count},
        "train_generator": train_generator,
        "specs": [{"generator_id": s.generator_id,
                   "artifact_strength": s.artifact_strength} for s in specs],
        "seed_ranges": {f"{sp}/{su}": [_RANGE_OFFSET[(sp, su)],
                                       _RANGE_OFFSET[(sp, su)] + _BLOCK_WIDTH - 1]
                        for sp, su in _RANGE_KEYS},
    }
    return DatasetBundle(train=train, val=val, test_subsets=tests, manifest=manifest)


def _manifest_value(doc: dict, name: str, kinds: tuple, path) -> object:
    """The value under the dotted key ``name``; ValueError naming the key if it
    is missing or of another type (exact types: neither a bool nor a float is
    an int)."""
    value = doc
    for key in name.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{path}: manifest key {name!r} is missing")
        value = value[key]
    if type(value) not in kinds:
        raise ValueError(f"{path}: manifest key {name!r} must be "
                         f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def load_manifest(path) -> dict:
    """Read a manifest and check every value that ``dataset_from_manifest`` uses."""
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("schema") != "vissm.dataset/1":
        raise ValueError(f"{path} is not a dataset manifest (schema mismatch)")
    for name in ("seed", "counts.train", "counts.val", "counts.test_per_subset",
                 "image.h", "image.w"):
        _manifest_value(manifest, name, (int,), path)
    if manifest.get("train_generator") not in GENERATORS:
        raise ValueError(f"{path}: manifest key 'train_generator' must be one of "
                         f"{GENERATORS}, got {manifest.get('train_generator')!r}")
    for i, spec in enumerate(_manifest_value(manifest, "specs", (list,), path)):
        if not isinstance(spec, dict) or set(spec) != {"generator_id", "artifact_strength"}:
            raise ValueError(f"{path}: manifest key 'specs' entry {i} must hold exactly "
                             f"generator_id and artifact_strength, got {spec!r}")
        _manifest_value(spec, "artifact_strength", (float, int), path)
    return manifest


def dataset_from_manifest(manifest: dict) -> DatasetBundle:
    """Regenerate the full bundle; bit-identical for equal manifests."""
    specs = [SynthGenSpec(**s) for s in manifest["specs"]]
    return make_dataset(
        seed=manifest["seed"],
        train_count=manifest["counts"]["train"],
        val_count=manifest["counts"]["val"],
        test_count=manifest["counts"]["test_per_subset"],
        h=manifest["image"]["h"], w=manifest["image"]["w"],
        train_generator=manifest["train_generator"],
        specs=specs,
    )


# -- image export -------------------------------------------------------------------


def write_pgm(image: np.ndarray, path) -> None:
    """8-bit binary PGM (P5), for eyeballing generated samples."""
    files.write_netpbm(path, np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8))
