"""1D visitation orders over a 2D patch grid.

A ScanOrder maps grid cells (flattened row-major) to sequence positions:
``order[k]`` is the flat raster index of the k-th cell visited. Full orders
are permutations of 0..h*w-1; a partial order (used by the atrous strategy,
whose members jointly partition the grid) visits an injective subset.
``inverse[cell]`` recovers the visitation rank, -1 for unvisited cells.

A MultiScan bundles one or more orders over the same grid; the models sum
the per-direction outputs on the grid. ``make_scan`` always returns one, and
returns the same one for the same arguments, so a model's forwards share it.
``MultiScan.groups`` lists what a model runs its core on: each direction, or
each distinct set of visited cells, for cores whose output does not depend
on the visiting order. Both lists, and which of their orders is the
identity, are computed once, when the scan is built. Every index array of a
scan is read-only, so a shared scan cannot be changed under its users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScanOrder:
    h: int
    w: int
    order: np.ndarray  # (k,) int, visitation sequence of flat raster indices
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        order = _frozen(np.array(self.order, dtype=np.intp))  # a copy, not the caller's
        object.__setattr__(self, "order", order)
        n = self.h * self.w
        vals = order.tolist()
        if len(set(vals)) != len(vals) or (vals and (min(vals) < 0 or max(vals) >= n)):
            raise ValueError(f"order entries must be distinct cells in 0..{n - 1}")
        inv = np.full(n, -1, dtype=np.intp)
        inv[order] = np.arange(len(order), dtype=np.intp)
        object.__setattr__(self, "inverse", _frozen(inv))

    def __len__(self):
        return len(self.order)

    def reversed_order(self) -> "ScanOrder":
        return ScanOrder(self.h, self.w, self.order[::-1])


@dataclass(frozen=True)
class MultiScan:
    directions: tuple
    _groups: tuple = field(init=False, repr=False, compare=False)  # (directions, cell sets)

    def __post_init__(self):
        dirs = tuple(self.directions)
        object.__setattr__(self, "directions", dirs)
        if not dirs:
            raise ValueError("MultiScan needs at least one direction")
        h, w = dirs[0].h, dirs[0].w
        if any(d.h != h or d.w != w for d in dirs):
            raise ValueError("all directions must share the same grid extents")
        raster = tuple(range(h * w))
        counts: dict = {}
        for d in dirs:
            key = tuple(sorted(d.order.tolist()))
            counts[key] = counts.get(key, 0) + 1
        object.__setattr__(self, "_groups", (
            tuple((d.order, 1, tuple(d.order.tolist()) == raster) for d in dirs),
            tuple((_frozen(np.array(cells, dtype=np.intp)), count, cells == raster)
                  for cells, count in counts.items())))

    @property
    def h(self):
        return self.directions[0].h

    @property
    def w(self):
        return self.directions[0].w

    def groups(self, equivariant: bool = False) -> tuple:
        """(order, count, identity) per run of a sequence core: each direction
        with count 1, or, when ``equivariant``, each distinct set of visited
        cells, in order of first appearance, as its flat raster indices sorted,
        with how many directions visit exactly that set. ``identity`` marks an
        order that visits every cell in raster order."""
        return self._groups[equivariant]


def _check_extents(h: int, w: int) -> None:
    if h < 1 or w < 1:
        raise ValueError(f"grid extents must be positive, got ({h}, {w})")


def raster_scan(h: int, w: int) -> ScanOrder:
    """Row-major order: the identity permutation."""
    _check_extents(h, w)
    return ScanOrder(h, w, np.arange(h * w, dtype=np.intp))


def cross_scan(h: int, w: int) -> MultiScan:
    """Row-major, reversed row-major, column-major, reversed column-major."""
    _check_extents(h, w)
    row = raster_scan(h, w)
    col_order = np.arange(h * w, dtype=np.intp).reshape(h, w).T.reshape(-1)
    col = ScanOrder(h, w, col_order)
    return MultiScan((row, row.reversed_order(), col, col.reversed_order()))


def zigzag_scan(h: int, w: int) -> ScanOrder:
    """Serpentine: even rows left-to-right, odd rows right-to-left."""
    _check_extents(h, w)
    rows = []
    for r in range(h):
        cells = np.arange(r * w, (r + 1) * w, dtype=np.intp)
        rows.append(cells if r % 2 == 0 else cells[::-1])
    return ScanOrder(h, w, np.concatenate(rows))


def local_scan(h: int, w: int, win: int) -> ScanOrder:
    """Windows visited row-major; raster order inside each window.

    Extents must be divisible by the window side; padding would break the
    bijection contract, so it is a hard error instead.
    """
    _check_extents(h, w)
    if win < 1 or h % win != 0 or w % win != 0:
        raise ValueError(
            f"window {win} must divide both extents ({h}, {w}); choose a divisor"
        )
    order = []
    for wr in range(h // win):
        for wc in range(w // win):
            for r in range(wr * win, (wr + 1) * win):
                for c in range(wc * win, (wc + 1) * win):
                    order.append(r * w + c)
    return ScanOrder(h, w, np.array(order, dtype=np.intp))


def efficient_scan(h: int, w: int, stride: int) -> MultiScan:
    """Atrous decimation: stride^2 partial orders that partition the grid.

    Member (i, j) visits exactly the cells with
    (row % stride, col % stride) == (i, j), in raster order of the decimated
    subgrid. With stride 1 this degenerates to a single raster order.
    """
    _check_extents(h, w)
    if stride < 1 or h % stride != 0 or w % stride != 0:
        raise ValueError(
            f"stride {stride} must divide both extents ({h}, {w}); choose a divisor"
        )
    orders = []
    for i in range(stride):
        for j in range(stride):
            sub = [r * w + c for r in range(i, h, stride) for c in range(j, w, stride)]
            orders.append(ScanOrder(h, w, np.array(sub, dtype=np.intp)))
    return MultiScan(tuple(orders))


def rank_grid(order: ScanOrder) -> np.ndarray:
    """(h, w) array of visitation ranks (-1 where a partial order skips)."""
    return order.inverse.reshape(order.h, order.w).copy()


STRATEGIES = ("raster", "bidirectional", "cross", "zigzag", "local", "efficient")


@lru_cache(maxsize=64)
def make_scan(strategy: str, h: int, w: int, win: int = 2, stride: int = 2) -> MultiScan:
    """Build a strategy's directions by name.

    Single-order strategies come back as one-direction MultiScans. Built
    scans are kept: a repeated call returns the same (read-only) MultiScan.
    """
    if strategy == "raster":
        return MultiScan((raster_scan(h, w),))
    if strategy == "bidirectional":
        row = raster_scan(h, w)
        return MultiScan((row, row.reversed_order()))
    if strategy == "cross":
        return cross_scan(h, w)
    if strategy == "zigzag":
        return MultiScan((zigzag_scan(h, w),))
    if strategy == "local":
        return MultiScan((local_scan(h, w, win),))
    if strategy == "efficient":
        return efficient_scan(h, w, stride)
    raise ValueError(f"unknown scan strategy {strategy!r}; choose one of {STRATEGIES}")
