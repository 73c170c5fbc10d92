import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gather, scatter
from vissm import scan2d
from vissm.rng import SplitMix64
from vissm.scan2d import MultiScan, make_scan, rank_grid


def only(strategy, h, w, **kwargs):
    """The one order of a single-direction strategy."""
    (order,) = make_scan(strategy, h, w, **kwargs).directions
    return order


def assert_full_bijection(order, h, w):
    n = h * w
    assert sorted(order.tolist()) == list(range(n))
    assert np.array_equal(rank_grid(order, h, w).reshape(-1)[order], np.arange(n))


# -- raster ---------------------------------------------------------------------


def test_raster_2x2():
    assert only("raster", 2, 2).tolist() == [0, 1, 2, 3]


def test_raster_single_row_is_identity():
    assert only("raster", 1, 5).tolist() == list(range(5))


def test_raster_inverse_equals_order():
    o = only("raster", 3, 4)
    assert np.array_equal(rank_grid(o, 3, 4).reshape(-1), o)


def test_zero_extent_rejected():
    for strategy in scan2d.STRATEGIES:
        for h, w in ((0, 3), (3, 0), (-1, -1)):
            with pytest.raises(ValueError, match="grid extents must be positive"):
                make_scan(strategy, h, w)


# -- bidirectional ----------------------------------------------------------------


def test_bidirectional_members():
    ms = make_scan("bidirectional", 2, 2)
    assert ms.directions[0].tolist() == [0, 1, 2, 3]
    assert ms.directions[1].tolist() == [3, 2, 1, 0]
    for d in ms.directions:
        assert_full_bijection(d, 2, 2)


# -- cross ------------------------------------------------------------------------


def test_cross_2x2_matches_enumeration():
    # oracle: enumerate the four directions on a 2x2 grid by definition
    ms = make_scan("cross", 2, 2)
    got = [d.tolist() for d in ms.directions]
    assert got == [[0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3], [3, 1, 2, 0]]


def test_cross_single_row_degenerates():
    ms = make_scan("cross", 1, 4)
    assert ms.directions[0].tolist() == ms.directions[2].tolist()


def test_cross_all_bijections():
    for d in make_scan("cross", 3, 5).directions:
        assert_full_bijection(d, 3, 5)


# -- zigzag -----------------------------------------------------------------------


def test_zigzag_2x3():
    assert only("zigzag", 2, 3).tolist() == [0, 1, 2, 5, 4, 3]


def test_zigzag_single_row_is_raster():
    assert np.array_equal(only("zigzag", 1, 6), only("raster", 1, 6))


def zigzag_is_grid_connected(order, w: int) -> bool:
    """Oracle: consecutive visited cells of a grid ``w`` wide are 4-neighbors."""
    for a, b in zip(order[:-1], order[1:]):
        ra, ca = divmod(int(a), w)
        rb, cb = divmod(int(b), w)
        if abs(ra - rb) + abs(ca - cb) != 1:
            return False
    return True


def test_zigzag_adjacency():
    for h, w in [(2, 3), (4, 4), (5, 7), (1, 9), (8, 1)]:
        assert zigzag_is_grid_connected(only("zigzag", h, w), w), (h, w)


def test_raster_is_not_grid_connected_when_multirow():
    # sanity check that the adjacency oracle can fail
    assert not zigzag_is_grid_connected(only("raster", 2, 3), 3)


# -- local -------------------------------------------------------------------------


def test_local_4x4_win2_matches_window_enumeration():
    # oracle: enumerate windows row-major, then raster within each window
    expected = [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
    assert only("local", 4, 4, win=2).tolist() == expected


def test_local_trivial_windows():
    assert np.array_equal(only("local", 4, 4, win=4), only("raster", 4, 4))
    assert np.array_equal(only("local", 4, 4, win=1), only("raster", 4, 4))


def test_local_rejects_non_divisible():
    with pytest.raises(ValueError, match="window 4 must divide"):
        make_scan("local", 4, 6, win=4)


# -- efficient ----------------------------------------------------------------------


def test_efficient_member_00():
    ms = make_scan("efficient", 4, 4, stride=2)
    assert ms.directions[0].tolist() == [0, 2, 8, 10]


def test_efficient_stride1_is_single_raster():
    assert np.array_equal(only("efficient", 4, 4, stride=1), only("raster", 4, 4))


def test_efficient_members_partition_indices():
    ms = make_scan("efficient", 4, 4, stride=2)
    combined = np.concatenate(ms.directions)
    assert sorted(combined.tolist()) == list(range(16))


def test_efficient_rejects_non_divisible():
    with pytest.raises(ValueError, match="stride 2 must divide"):
        make_scan("efficient", 4, 5, stride=2)


# -- gather / scatter ---------------------------------------------------------------


def test_raster_gather_is_identity():
    rng = SplitMix64(3)
    x = rng.normal_array((6, 4))
    assert np.array_equal(gather(x, only("raster", 2, 3), 6), x)


def test_gather_scatter_roundtrip():
    rng = SplitMix64(5)
    x = rng.normal_array((2, 12, 3))  # batched tokens
    for order in (only("zigzag", 3, 4), only("local", 4, 3, win=1),
                  make_scan("bidirectional", 4, 3).directions[1]):
        assert np.array_equal(scatter(gather(x, order, 12), order, 12), x)


def test_gather_with_reversal_reverses():
    x = np.arange(8, dtype=float).reshape(4, 2)
    rev = make_scan("bidirectional", 2, 2).directions[1]
    assert np.array_equal(gather(x, rev, 4), x[::-1])


def test_partial_scatter_sums_to_identity():
    rng = SplitMix64(7)
    x = rng.normal_array((16, 3))
    ms = make_scan("efficient", 4, 4, stride=2)
    total = sum(scatter(gather(x, d, 16), d, 16) for d in ms.directions)
    assert np.array_equal(total, x)


def test_gather_count_mismatch():
    with pytest.raises(ValueError):
        gather(np.zeros((5, 2)), only("raster", 2, 3), 6)
    with pytest.raises(ValueError):
        scatter(np.zeros((5, 2)), only("raster", 2, 3), 6)


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
        combined = np.concatenate(orders)
        assert sorted(combined.tolist()) == list(range(h * w))
        total = sum(scatter(gather(x, d, h * w), d, h * w) for d in orders)
        assert np.array_equal(total, x)
    else:
        for d in orders:
            assert_full_bijection(d, h, w)
            assert np.array_equal(scatter(gather(x, d, h * w), d, h * w), x)


def test_rank_grid_display():
    grid = rank_grid(only("zigzag", 2, 3), 2, 3)
    assert grid.tolist() == [[0, 1, 2], [5, 4, 3]]
    partial = make_scan("efficient", 2, 2, stride=2).directions[1]
    assert rank_grid(partial, 2, 2).tolist() == [[-1, 0], [-1, -1]]


@pytest.mark.parametrize("directions", [(), ([0, 1, 1],), ([0, 4],), ([-1],), ([[0, 1]],)],
                         ids=["none", "repeated-cell", "past-the-grid", "negative", "not-1d"])
def test_multiscan_rejects_orders_off_the_grid(directions):
    with pytest.raises(ValueError, match="direction|distinct cells of 0..3"):
        MultiScan(2, 2, directions)


def test_multiscan_copies_its_orders_read_only():
    order = np.array([3, 2, 1, 0])
    scan = MultiScan(2, 2, (order,))
    order[0] = 0
    assert scan.directions[0].tolist() == [3, 2, 1, 0]
    with pytest.raises(ValueError, match="read-only"):
        scan.directions[0][0] = 1


def test_make_scan_unknown_strategy():
    with pytest.raises(ValueError, match="unknown scan strategy"):
        make_scan("hilbert", 4, 4)


def test_ssm_over_gathered_tokens_smoke():
    # run an LTI recurrence over a scan-ordered sequence; output stays
    # finite and scatters back to the right shape
    from vissm.ssm import discretize_zoh, random_stable_system, run_recurrent

    rng = SplitMix64(11)
    d = discretize_zoh(random_stable_system(rng, 3))
    x = rng.normal_array((16,))
    for strategy in ("zigzag", "local"):
        order = only(strategy, 4, 4, win=2)
        y = run_recurrent(d, gather(x, order, 16))
        back = scatter(y, order, 16)
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
