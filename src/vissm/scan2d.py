"""1D visitation orders over a 2D patch grid.

An order is a read-only 1-D ``intp`` array: ``order[k]`` is the flat
raster index of the k-th cell visited. Full orders are permutations of
0..h*w-1; a partial order (used by the atrous strategy, whose members
jointly partition the grid) visits an injective subset. ``rank_grid``
recovers the visitation rank of every cell, -1 for unvisited cells.

A MultiScan holds one or more orders over one (h, w) grid; the models sum
the per-direction outputs on the grid. ``make_scan`` is its one builder, and
returns the same scan for the same arguments, so a model's forwards share it.
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
class MultiScan:
    h: int
    w: int
    directions: tuple  # of (k,) intp orders, each its own read-only copy
    _groups: tuple = field(init=False, repr=False, compare=False)  # (directions, cell sets)

    def __post_init__(self):
        n = self.h * self.w
        dirs = tuple(_frozen(np.array(d, dtype=np.intp)) for d in self.directions)
        object.__setattr__(self, "directions", dirs)
        if not dirs:
            raise ValueError("MultiScan needs at least one direction")
        counts: dict = {}
        for d in dirs:
            if d.ndim != 1 or np.any((d < 0) | (d >= n)) or len(set(d.tolist())) != len(d):
                raise ValueError(f"each order must list distinct cells of 0..{n - 1}")
            key = tuple(sorted(d.tolist()))
            counts[key] = counts.get(key, 0) + 1
        raster = tuple(range(n))
        object.__setattr__(self, "_groups", (
            tuple((d, 1, tuple(d.tolist()) == raster) for d in dirs),
            tuple((_frozen(np.array(cells, dtype=np.intp)), count, cells == raster)
                  for cells, count in counts.items())))

    def groups(self, equivariant: bool = False) -> tuple:
        """(order, count, identity) per run of a sequence core: each direction
        with count 1, or, when ``equivariant``, each distinct set of visited
        cells, in order of first appearance, as its flat raster indices sorted,
        with how many directions visit exactly that set. ``identity`` marks an
        order that visits every cell in raster order."""
        return self._groups[equivariant]


def rank_grid(order: np.ndarray, h: int, w: int) -> np.ndarray:
    """(h, w) array of visitation ranks (-1 where a partial order skips)."""
    ranks = np.full(h * w, -1, dtype=np.intp)
    ranks[order] = np.arange(len(order))
    return ranks.reshape(h, w)


STRATEGIES = ("raster", "bidirectional", "cross", "zigzag", "local", "efficient")


@lru_cache(maxsize=64)
def make_scan(strategy: str, h: int, w: int, win: int = 2, stride: int = 2) -> MultiScan:
    """A strategy's directions by name, as one MultiScan:

    raster       row-major, the identity permutation;
    bidirectional  row-major and its reverse;
    cross        those two, then column-major and its reverse;
    zigzag       serpentine: even rows left-to-right, odd rows right-to-left;
    local        ``win`` x ``win`` windows visited row-major, raster order inside;
    efficient    atrous decimation: member (i, j) visits the cells with
                 (row % stride, col % stride) == (i, j) in raster order, so the
                 stride^2 members partition the grid (stride 1: one raster).

    A window or stride must divide both extents; padding would break the
    bijection contract, so it is a hard error instead. Built scans are kept:
    a repeated call returns the same (read-only) MultiScan.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown scan strategy {strategy!r}; choose one of {STRATEGIES}")
    if h < 1 or w < 1:
        raise ValueError(f"grid extents must be positive, got ({h}, {w})")
    name, k = {"local": ("window", win), "efficient": ("stride", stride)}.get(strategy, ("", 1))
    if k < 1 or h % k or w % k:
        raise ValueError(f"{name} {k} must divide both extents ({h}, {w}); choose a divisor")
    cells = np.arange(h * w).reshape(h, w)
    if strategy == "zigzag":
        cells[1::2] = cells[1::2, ::-1]
    elif strategy == "local":
        cells = cells.reshape(h // k, k, w // k, k).transpose(0, 2, 1, 3)
    elif strategy == "efficient":
        return MultiScan(h, w, [cells[i::k, j::k].reshape(-1) for i in range(k) for j in range(k)])
    row = cells.reshape(-1)
    if strategy == "cross":
        col = cells.T.reshape(-1)
        return MultiScan(h, w, [row, row[::-1], col, col[::-1]])
    return MultiScan(h, w, [row, row[::-1]] if strategy == "bidirectional" else [row])
