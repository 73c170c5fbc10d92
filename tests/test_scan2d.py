import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gather, scatter
from vissm import scan2d
from vissm.rng import SplitMix64
from vissm.scan2d import (
    MultiScan,
    ScanOrder,
    cross_scan,
    efficient_scan,
    local_scan,
    make_scan,
    raster_scan,
    rank_grid,
    zigzag_scan,
)


def assert_full_bijection(order: ScanOrder):
    n = order.h * order.w
    assert sorted(order.order.tolist()) == list(range(n))
    assert np.array_equal(order.inverse[order.order], np.arange(n))


# -- raster ---------------------------------------------------------------------


def test_raster_2x2():
    assert raster_scan(2, 2).order.tolist() == [0, 1, 2, 3]


def test_raster_single_row_is_identity():
    assert raster_scan(1, 5).order.tolist() == list(range(5))


def test_raster_inverse_equals_order():
    o = raster_scan(3, 4)
    assert np.array_equal(o.order, o.inverse)


def test_zero_extent_rejected():
    with pytest.raises(ValueError):
        raster_scan(0, 3)


# -- bidirectional ----------------------------------------------------------------


def test_bidirectional_members():
    ms = make_scan("bidirectional", 2, 2)
    assert ms.directions[0].order.tolist() == [0, 1, 2, 3]
    assert ms.directions[1].order.tolist() == [3, 2, 1, 0]
    for d in ms.directions:
        assert_full_bijection(d)


def test_double_reversal_is_identity():
    o = zigzag_scan(3, 3)
    assert np.array_equal(o.reversed_order().reversed_order().order, o.order)


# -- cross ------------------------------------------------------------------------


def test_cross_2x2_matches_enumeration():
    # oracle: enumerate the four directions on a 2x2 grid by definition
    ms = cross_scan(2, 2)
    got = [d.order.tolist() for d in ms.directions]
    assert got == [[0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3], [3, 1, 2, 0]]


def test_cross_single_row_degenerates():
    ms = cross_scan(1, 4)
    assert ms.directions[0].order.tolist() == ms.directions[2].order.tolist()


def test_cross_all_bijections():
    for d in cross_scan(3, 5).directions:
        assert_full_bijection(d)


# -- zigzag -----------------------------------------------------------------------


def test_zigzag_2x3():
    assert zigzag_scan(2, 3).order.tolist() == [0, 1, 2, 5, 4, 3]


def test_zigzag_single_row_is_raster():
    assert np.array_equal(zigzag_scan(1, 6).order, raster_scan(1, 6).order)


def zigzag_is_grid_connected(order: ScanOrder) -> bool:
    """Oracle: consecutive visited cells are 4-neighbors."""
    for a, b in zip(order.order[:-1], order.order[1:]):
        ra, ca = divmod(int(a), order.w)
        rb, cb = divmod(int(b), order.w)
        if abs(ra - rb) + abs(ca - cb) != 1:
            return False
    return True


def test_zigzag_adjacency():
    for h, w in [(2, 3), (4, 4), (5, 7), (1, 9), (8, 1)]:
        assert zigzag_is_grid_connected(zigzag_scan(h, w)), (h, w)


def test_raster_is_not_grid_connected_when_multirow():
    # sanity check that the adjacency oracle can fail
    assert not zigzag_is_grid_connected(raster_scan(2, 3))


# -- local -------------------------------------------------------------------------


def test_local_4x4_win2_matches_window_enumeration():
    # oracle: enumerate windows row-major, then raster within each window
    expected = [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
    assert local_scan(4, 4, 2).order.tolist() == expected


def test_local_trivial_windows():
    assert np.array_equal(local_scan(4, 4, 4).order, raster_scan(4, 4).order)
    assert np.array_equal(local_scan(4, 4, 1).order, raster_scan(4, 4).order)


def test_local_rejects_non_divisible():
    with pytest.raises(ValueError):
        local_scan(4, 6, 4)


# -- efficient ----------------------------------------------------------------------


def test_efficient_member_00():
    ms = efficient_scan(4, 4, 2)
    assert ms.directions[0].order.tolist() == [0, 2, 8, 10]


def test_efficient_stride1_is_single_raster():
    ms = efficient_scan(4, 4, 1)
    assert len(ms.directions) == 1
    assert np.array_equal(ms.directions[0].order, raster_scan(4, 4).order)


def test_efficient_members_partition_indices():
    ms = efficient_scan(4, 4, 2)
    combined = np.concatenate([d.order for d in ms.directions])
    assert sorted(combined.tolist()) == list(range(16))


def test_efficient_rejects_non_divisible():
    with pytest.raises(ValueError):
        efficient_scan(4, 5, 2)


# -- gather / scatter ---------------------------------------------------------------


def test_raster_gather_is_identity():
    rng = SplitMix64(3)
    x = rng.normal_array((6, 4))
    assert np.array_equal(gather(x, raster_scan(2, 3)), x)


def test_gather_scatter_roundtrip():
    rng = SplitMix64(5)
    x = rng.normal_array((2, 12, 3))  # batched tokens
    for order in (zigzag_scan(3, 4), local_scan(4, 3, 1), raster_scan(4, 3).reversed_order()):
        assert np.array_equal(scatter(gather(x, order), order), x)


def test_gather_with_reversal_reverses():
    x = np.arange(8, dtype=float).reshape(4, 2)
    rev = raster_scan(2, 2).reversed_order()
    assert np.array_equal(gather(x, rev), x[::-1])


def test_partial_scatter_sums_to_identity():
    rng = SplitMix64(7)
    x = rng.normal_array((16, 3))
    ms = efficient_scan(4, 4, 2)
    total = sum(scatter(gather(x, d), d) for d in ms.directions)
    assert np.array_equal(total, x)


def test_gather_count_mismatch():
    with pytest.raises(ValueError):
        gather(np.zeros((5, 2)), raster_scan(2, 3))
    with pytest.raises(ValueError):
        scatter(np.zeros((5, 2)), raster_scan(2, 3))


# -- property sweep -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 16), w=st.integers(1, 16), pick=st.integers(0, 5))
def test_every_strategy_full_bijection_and_roundtrip(h, w, pick):
    strategy = scan2d.STRATEGIES[pick]
    kwargs = {}
    if strategy == "local":
        kwargs["win"] = next(d for d in range(min(h, w), 0, -1) if h % d == 0 and w % d == 0)
    if strategy == "efficient":
        kwargs["stride"] = next(d for d in range(min(h, w), 0, -1) if h % d == 0 and w % d == 0)
    scan = make_scan(strategy, h, w, **kwargs)
    orders = scan.directions
    x = np.arange(h * w * 2, dtype=float).reshape(h * w, 2)
    if strategy == "efficient":
        combined = np.concatenate([d.order for d in orders])
        assert sorted(combined.tolist()) == list(range(h * w))
        total = sum(scatter(gather(x, d), d) for d in orders)
        assert np.array_equal(total, x)
    else:
        for d in orders:
            assert_full_bijection(d)
            assert np.array_equal(scatter(gather(x, d), d), x)


def test_rank_grid_display():
    grid = rank_grid(zigzag_scan(2, 3))
    assert grid.tolist() == [[0, 1, 2], [5, 4, 3]]


def test_multiscan_extent_mismatch():
    with pytest.raises(ValueError):
        MultiScan((raster_scan(2, 2), raster_scan(2, 3)))


def test_make_scan_unknown_strategy():
    with pytest.raises(ValueError):
        make_scan("hilbert", 4, 4)


def test_ssm_over_gathered_tokens_smoke():
    # run an LTI recurrence over a scan-ordered sequence; output stays
    # finite and scatters back to the right shape
    from vissm.ssm import discretize_zoh, random_stable_system, run_recurrent

    rng = SplitMix64(11)
    d = discretize_zoh(random_stable_system(rng, 3))
    x = rng.normal_array((16,))
    for strategy in ("zigzag", "local"):
        (order,) = make_scan(strategy, 4, 4, win=2).directions
        y = run_recurrent(d, gather(x, order))
        back = scatter(y, order)
        assert back.shape == x.shape
        assert np.all(np.isfinite(back))


def test_make_scan_returns_multiscan_for_every_strategy():
    counts = {"raster": 1, "bidirectional": 2, "cross": 4, "zigzag": 1, "local": 1,
              "efficient": 4}
    for strategy in scan2d.STRATEGIES:
        scan = make_scan(strategy, 4, 4)
        assert isinstance(scan, MultiScan)
        assert len(scan.directions) == counts[strategy]
        sets = [(cells.tolist(), count) for cells, count, _ in scan.groups(equivariant=True)]
        if strategy == "efficient":
            # stride 2: four disjoint sets of 4 cells, one direction each
            assert [(len(cells), count) for cells, count in sets] == [(4, 1)] * 4
            assert sorted(sum((cells for cells, _ in sets), [])) == list(range(16))
        else:
            # every direction visits the whole grid: one set, all directions
            assert sets == [(list(range(16)), counts[strategy])]
