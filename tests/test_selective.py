import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import constant_projection, finite_difference, ordered_sum, shared_state_graph
from test_blocks import values_and_grads
from vissm import selective as S
from vissm import tensor as T
from vissm.rng import SplitMix64
from vissm.ssm import DiscreteSsm, run_recurrent
from vissm.tensor import Tensor


def random_projection(rng, channels, state_dim, rank=2, scale=0.4):
    return S.SelectiveProjection(
        w_b=Tensor(rng.normal_array((channels, state_dim)) * scale, requires_grad=True),
        w_c=Tensor(rng.normal_array((channels, state_dim)) * scale, requires_grad=True),
        w_dt_down=Tensor(rng.normal_array((channels, rank)) * scale, requires_grad=True),
        w_dt_up=Tensor(rng.normal_array((rank, channels)) * scale, requires_grad=True),
        delta_base=Tensor(rng.normal_array((channels,)) * 0.5, requires_grad=True),
        b_b=Tensor(rng.normal_array((state_dim,)) * scale, requires_grad=True),
        b_c=Tensor(rng.normal_array((state_dim,)) * scale, requires_grad=True),
    )


def random_decay(rng, channels, state_dim):
    return Tensor(-rng.uniform_array((channels, state_dim), 0.5, 4.0))


# -- parameter projection ------------------------------------------------------


def test_projection_zero_token_softplus_bias():
    proj = constant_projection(3, 4, b_const=0.0, c_const=0.0, delta_const=math.log(2.0))
    # delta_base chosen so softplus gives back log 2; now force it to zero
    proj.delta_base = Tensor(np.zeros(3))
    x = Tensor(np.zeros((1, 3)))
    _, _, dt = S.project_params(x, proj)
    assert np.allclose(dt.data, math.log(1 + math.exp(0.0)), atol=1e-15)


def test_zero_weight_projection_reduces_to_feedthrough():
    # B = C = 0 -> state contributes nothing; y = D (*) x = 0 for D = 0... use D=1, x arbitrary
    rng = SplitMix64(2)
    proj = constant_projection(3, 4, b_const=0.0, c_const=0.0, delta_const=0.1)
    x = Tensor(rng.normal_array((5, 3)))
    a = random_decay(rng, 3, 4)
    y = S.selective_scan_sequential(x, proj, a, Tensor(np.ones(3)))
    assert np.array_equal(y.data, x.data)
    # and with x = 0 the output is identically zero
    y0 = S.selective_scan_sequential(Tensor(np.zeros((5, 3))), proj, a, Tensor(np.ones(3)))
    assert np.array_equal(y0.data, np.zeros((5, 3)))


def test_identity_projection_passes_basis_vector():
    proj = constant_projection(4, 4, b_const=0.0, c_const=0.0, delta_const=0.1)
    proj.w_b = Tensor(np.eye(4))
    e1 = np.zeros((1, 4))
    e1[0, 0] = 1.0
    b, _, _ = S.project_params(Tensor(e1), proj)
    assert np.array_equal(b.data, e1)


def test_projection_dim_mismatch():
    proj = constant_projection(3, 4, 0.0, 0.0, 0.1)
    with pytest.raises(T.ShapeError):
        S.project_params(Tensor(np.zeros((2, 5))), proj)


# -- sequential scan -----------------------------------------------------------


def test_single_step_unrolls_by_hand():
    rng = SplitMix64(3)
    ch, n = 3, 5
    proj = random_projection(rng, ch, n)
    a = random_decay(rng, ch, n)
    d = Tensor(rng.normal_array((ch,)))
    x = Tensor(rng.normal_array((1, ch)))
    y = S.selective_scan_sequential(x, proj, a, d)

    bt, ct, dt = S.project_params(x, proj)
    h = bt.data[0][None, :] * (dt.data[0] * x.data[0])[:, None]  # (ch, n)
    expected = h @ ct.data[0] + d.data * x.data[0]
    assert np.max(np.abs(y.data[0] - expected)) < 1e-14


def test_lti_reduction_matches_core_recurrence():
    # constant parameters -> per channel this is a diagonal LTI system
    rng = SplitMix64(5)
    worst = 0.0
    for _ in range(25):
        ch = 1 + rng.below(3)
        n = 1 + rng.below(6)
        length = 4 + rng.below(20)
        b_const = rng.normal_array((n,))
        c_const = rng.normal_array((n,))
        delta = rng.uniform_array((ch,), 0.05, 0.8)
        proj = constant_projection(ch, n, b_const, c_const, delta)
        a = random_decay(rng, ch, n)
        d = Tensor(rng.normal_array((ch,)))
        x = rng.normal_array((length, ch))
        y = S.selective_scan_sequential(Tensor(x), proj, a, d)
        for c in range(ch):
            dssm = DiscreteSsm(
                a_bar=np.exp(delta[c] * a.data[c]),
                b_bar=delta[c] * b_const,
                c=c_const,
                d=d.data[c],
            )
            oracle = run_recurrent(dssm, x[:, c])
            worst = max(worst, np.max(np.abs(y.data[:, c] - oracle)))
    assert worst < 1e-10, worst


def test_causality_of_sequential_scan():
    rng = SplitMix64(7)
    proj = random_projection(rng, 4, 3)
    a = random_decay(rng, 4, 3)
    d = Tensor(rng.normal_array((4,)))
    x = rng.normal_array((12, 4))
    y = S.selective_scan_sequential(Tensor(x), proj, a, d).data
    x2 = x.copy()
    x2[8:] += rng.normal_array((4, 4))  # perturb the future
    y2 = S.selective_scan_sequential(Tensor(x2), proj, a, d).data
    assert np.array_equal(y[:8], y2[:8])
    assert not np.array_equal(y[8:], y2[8:])


def test_channel_independence_with_constant_params():
    # with input-independent parameters the channels are fully decoupled
    rng = SplitMix64(9)
    ch, n, length = 5, 3, 10
    proj = constant_projection(ch, n, rng.normal_array((n,)), rng.normal_array((n,)),
                                 rng.uniform_array((ch,), 0.05, 0.5))
    a = random_decay(rng, ch, n)
    d = Tensor(rng.normal_array((ch,)))
    x = rng.normal_array((length, ch))
    y = S.selective_scan_sequential(Tensor(x), proj, a, d).data
    xz = x.copy()
    xz[:, 2] = 0.0
    yz = S.selective_scan_sequential(Tensor(xz), proj, a, d).data
    keep = [c for c in range(ch) if c != 2]
    assert np.array_equal(y[:, keep], yz[:, keep])


def _block_bytes(steps, x_shape, n):
    """The ``_BLOCK_BYTES`` at which a scan of an x of ``x_shape`` with state
    size n runs blocks of ``steps`` steps: a step's states and its decays."""
    return steps * 16 * math.prod(x_shape[:-2]) * n * x_shape[-1]


def _scan_on_route(route, x, proj, a, d, block_steps=None):
    """The fused scan of the array x, recorded (x requires grad) or under
    no_grad, in blocks of ``block_steps`` steps if given."""
    with pytest.MonkeyPatch.context() as mp:
        if block_steps is not None:
            mp.setattr(S, "_BLOCK_BYTES", _block_bytes(block_steps, x.shape, proj.state_dim))
        if route == "recorded":
            return S.selective_scan_sequential(Tensor(x, requires_grad=True), proj, a, d)
        with T.no_grad():
            return S.selective_scan_sequential(Tensor(x), proj, a, d)


ROUTES = ["recorded", "no-grad"]


def _errors_on_routes(x, proj, a, d):
    """The NumericError message of the fused scan of x on each route, in
    blocks of 2 steps."""
    messages = []
    for route in ROUTES:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(T.NumericError) as ei:
            _scan_on_route(route, x, proj, a, d, block_steps=2)
        messages.append(str(ei.value))
    return messages


def test_non_finite_state_reports_step():
    proj = constant_projection(1, 1, b_const=1e308, c_const=1e308, delta_const=1.0)
    a = Tensor(np.array([[-0.001]]))
    recorded, no_grad = _errors_on_routes(np.full((3, 1), 1e308), proj, a, Tensor(np.ones(1)))
    assert "step" in recorded
    assert no_grad == recorded


def test_non_finite_state_names_the_first_bad_step():
    # exp(dt * A) = e^700 per step: h_0 = 1, h_1 ~ 1e304, h_2 overflows, the
    # first step of the second no-grad block
    proj = constant_projection(1, 1, b_const=1.0, c_const=1.0, delta_const=1.0)
    a = Tensor(np.array([[700.0]]))
    assert _errors_on_routes(np.ones((4, 1)), proj, a, Tensor(np.ones(1))) \
        == ["non-finite hidden state at step 2"] * 2


@pytest.mark.parametrize("cause, length, step", [
    *((cause, length, step) for cause in ("nan", "inf")
      for length, step in ((6, 0), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (1, 0))),
    *(("decay", 6, step) for step in (1, 2, 3, 4, 5)),  # step 0 has no decay
])
def test_non_finite_state_is_found_from_the_last_state(cause, length, step):
    """The scan checks only the last state of each block and, on failure,
    names the first bad step: a NaN or inf in x at that token, or a decay
    exp(dt * A) that overflows there (A > 0, with dt = softplus(x) large at
    that token only). Recorded and no-grad scans name it alike; the no-grad
    one runs blocks of 2 steps, so steps 2 and 4 open a block and steps 3
    and 5 lie inside a later one."""
    rng = SplitMix64(47)
    ch, n = 2, 3
    if cause == "decay":
        proj = constant_projection(ch, n, b_const=1.0, c_const=1.0, delta_const=1.0)
        proj.w_dt_down = Tensor(np.ones((ch, 1)) / ch)
        proj.w_dt_up = Tensor(np.ones((1, ch)))
        a = Tensor(np.full((ch, n), 1.0))
        x = np.ones((2, length, ch))
        x[1, step] = 800.0  # dt ~ 800 there: exp(800) overflows, the injection does not
    else:
        proj = random_projection(rng, ch, n)
        a = random_decay(rng, ch, n)
        x = rng.normal_array((2, length, ch))
        x[1, step, 0] = np.nan if cause == "nan" else np.inf
    assert _errors_on_routes(x, proj, a, Tensor(np.ones(ch))) \
        == [f"non-finite hidden state at step {step}"] * 2


# -- chunk-parallel scan ----------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 2, 7, 16, 64])
def test_parallel_matches_sequential(chunk):
    rng = SplitMix64(13)
    ch, n, length = 4, 3, 64
    proj = random_projection(rng, ch, n)
    a = random_decay(rng, ch, n)
    d = Tensor(rng.normal_array((ch,)))
    x = Tensor(rng.normal_array((length, ch)))
    ys = S.selective_scan_sequential(x, proj, a, d).data
    yp = S.selective_scan_parallel(x, proj, a, d, chunk).data
    assert np.max(np.abs(ys - yp)) < 1e-9


def test_parallel_batched_input():
    rng = SplitMix64(15)
    proj = random_projection(rng, 3, 2)
    a = random_decay(rng, 3, 2)
    d = Tensor(rng.normal_array((3,)))
    x = Tensor(rng.normal_array((2, 10, 3)))  # batch of 2
    ys = S.selective_scan_sequential(x, proj, a, d).data
    yp = S.selective_scan_parallel(x, proj, a, d, 4).data
    assert np.max(np.abs(ys - yp)) < 1e-9
    # batch rows are independent: row 0 alone gives the same answer
    y0 = S.selective_scan_sequential(T.take(x, [0], 0), proj, a, d).data
    assert np.max(np.abs(y0[0] - ys[0])) < 1e-12


def test_parallel_rejects_bad_chunk():
    proj = constant_projection(2, 2, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        S.selective_scan_parallel(Tensor(np.zeros((4, 2))), proj,
                                  Tensor(-np.ones((2, 2))), Tensor(np.ones(2)), 0)


def _scan_values_and_grads(route, proj, a_log, d, x, readout):
    p = S.SelectiveProjection(**{k: Tensor(v.data, requires_grad=True)
                                 for k, v in proj.tensors().items()})
    leaves = list(p.tensors().values()) + [Tensor(t, requires_grad=True) for t in (a_log, d, x)]
    al, dd, xx = leaves[-3:]
    y = route(xx, p, T.neg(T.exp(al)), dd)
    T.backward(T.sum_(T.mul(y, Tensor(readout))))
    return y.data, [t.grad for t in leaves]


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 9), ch=st.integers(1, 9), n=st.integers(1, 9),
       lead=st.lists(st.integers(1, 3), max_size=2), chunk=st.sampled_from([1, 2, 7, None]),
       seed=st.integers(0, 2**32 - 1))
@example(length=1, ch=3, n=2, lead=[2], chunk=None, seed=5)
@example(length=1, ch=1, n=1, lead=[], chunk=1, seed=6)
def test_fused_scan_matches_parallel_oracle(length, ch, n, lead, chunk, seed):
    """The fused op (sequential route) against the graph-recorded chunked
    oracle: values and all nine gradients, over random shapes with edges."""
    rng = SplitMix64(seed)
    proj = random_projection(rng, ch, n)
    a_log = rng.normal_array((ch, n)) * 0.3
    d = rng.normal_array((ch,))
    x = rng.normal_array(tuple(lead) + (length, ch))
    readout = rng.normal_array(x.shape)
    chunk = chunk or length
    y_f, g_f = _scan_values_and_grads(S.selective_scan_sequential, proj, a_log, d, x, readout)
    y_o, g_o = _scan_values_and_grads(
        lambda *args: S.selective_scan_parallel(*args, chunk), proj, a_log, d, x, readout)
    assert np.max(np.abs(y_f - y_o)) < 1e-12
    names = list(proj.tensors()) + ["a_log", "d", "x"]
    for name, gf, go in zip(names, g_f, g_o):
        assert rel_err(gf, go) < 1e-10, (name, rel_err(gf, go))


def _block_steps(kind, length):
    """k steps per block: 1, 2, one full block and a shorter tail, or more
    than the whole scan."""
    return {"one": 1, "two": 2, "tail": length // 2 + 1, "all": length + 1}[kind]


@settings(max_examples=80, deadline=None)
@given(length=st.integers(1, 40), ch=st.integers(1, 16), n=st.integers(1, 8),
       rank=st.integers(1, 3), lead=st.sampled_from([(), (1,), (2, 3)]),
       block=st.sampled_from(["one", "two", "tail", "all"]), seed=st.integers(0, 2**32 - 1))
@example(length=7, ch=3, n=2, rank=2, lead=(2, 3), block="tail", seed=1)
@example(length=1, ch=1, n=1, rank=1, lead=(), block="one", seed=2)
def test_no_grad_scan_equals_the_recorded_scan_bit_for_bit(length, ch, n, rank, lead, block,
                                                           seed):
    """The no-grad scan, which streams its states through a reused block of
    k steps, against the recorded scan, which keeps all L of them."""
    rng = SplitMix64(seed)
    proj = random_projection(rng, ch, n, rank=rank)
    a = random_decay(rng, ch, n)
    d = Tensor(rng.normal_array((ch,)))
    x = rng.normal_array(lead + (length, ch))
    recorded = _scan_on_route("recorded", x, proj, a, d)
    assert recorded.requires_grad
    streamed = _scan_on_route("no-grad", x, proj, a, d, _block_steps(block, length))
    assert not streamed.requires_grad
    assert np.array_equal(streamed.data, recorded.data)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 40), ch=st.integers(1, 16), n=st.integers(1, 8),
       rank=st.integers(1, 3), lead=st.sampled_from([(), (1,), (2, 3)]),
       block=st.sampled_from(["one", "two", "tail", "all"]), seed=st.integers(0, 2**32 - 1))
@example(length=7, ch=3, n=2, rank=2, lead=(2, 3), block="tail", seed=1)
@example(length=2, ch=1, n=1, rank=1, lead=(), block="one", seed=2)
def test_recorded_scan_in_any_blocks_equals_the_default_blocks_bit_for_bit(
        length, ch, n, rank, lead, block, seed):
    """The recorded scan writes its stored states block by block, each block
    with its own decays: its values and all ten gradients at k steps per
    block equal those at the default block (here all L steps) bit for bit."""
    rng = SplitMix64(seed)
    proj = random_projection(rng, ch, n, rank=rank)
    a_log = rng.normal_array((ch, n)) * 0.3
    d = rng.normal_array((ch,))
    x = rng.normal_array(lead + (length, ch))
    readout = rng.normal_array(x.shape)
    y, grads = _scan_values_and_grads(S.selective_scan_sequential, proj, a_log, d, x, readout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_BLOCK_BYTES", _block_bytes(_block_steps(block, length), x.shape, n))
        y_k, grads_k = _scan_values_and_grads(S.selective_scan_sequential, proj, a_log, d, x,
                                              readout)
    assert y_k.tobytes() == y.tobytes()
    assert [g.tobytes() for g in grads_k] == [g.tobytes() for g in grads]


def _desk_vim_scan(batch):
    """The operands of a scan at the desk-vim shape (L 65, C 32, N 4,
    dt_rank 1), with x an array of ``batch`` sequences."""
    rng = SplitMix64(91)
    length, ch, n = 65, 32, 4
    proj = random_projection(rng, ch, n, rank=1)
    a = random_decay(rng, ch, n)
    d = Tensor(rng.normal_array((ch,)))
    return rng.normal_array((batch, length, ch)), proj, a, d


def _stored_states_bytes(x, proj):
    """The bytes of one (L, ..., N, C) array of the scan of x."""
    return x.size * proj.state_dim * 8


def test_no_grad_scan_holds_less_than_one_stored_state_array():
    """At the desk-vim scan shape at batch 64 the tracemalloc peak of one
    no-grad call stays below one (L, 64, N, C) array of hidden states, and
    a recorded call, which keeps one state per block and its own time-major
    x for the backward pass, peaks above the no-grad call by less than one."""
    x, proj, a, d = _desk_vim_scan(64)
    stored = _stored_states_bytes(x, proj)

    def peak(route):
        tracemalloc.start()
        try:
            _scan_on_route(route, x, proj, a, d)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    no_grad = peak("no-grad")
    assert no_grad < stored
    assert no_grad < peak("recorded") < no_grad + stored


# bytes a recorded desk-vim-shape scan at batch 32 holds from its forward to
# its backward pass (its output, x, dt, B and C time-major, and the state
# before each of its 9 blocks), measured with numpy 2.4; a scan that kept
# all L states held 3.70 MiB
RECORDED_HELD_MIB = 1.99
# under the 2.03 MiB of one (L, 32, N, C) array, so storing one fails
RECORDED_HELD_MARGIN_MIB = 0.25


def test_recorded_scan_holds_one_state_per_block_until_its_backward():
    x, proj, a, d = _desk_vim_scan(32)
    assert RECORDED_HELD_MARGIN_MIB * 2**20 < _stored_states_bytes(x, proj)
    x = Tensor(x, requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = S.selective_scan_sequential(x, proj, a, d)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held / 2**20 <= RECORDED_HELD_MIB + RECORDED_HELD_MARGIN_MIB, held / 2**20


@pytest.mark.parametrize("route", ROUTES)
def test_fused_scan_runs_softplus_in_its_own_dt_array(route, monkeypatch):
    """The scan's softplus writes into the dt array the scan hands it (its
    low-rank GEMM's output), so it makes no (L, ..., C) array of its own."""
    calls = []
    softplus = T._softplus_np

    def spy(arr, out=None):
        calls.append((arr, out))
        return softplus(arr, out=out)

    monkeypatch.setattr(T, "_softplus_np", spy)
    rng = SplitMix64(92)
    proj = random_projection(rng, 4, 3)
    x = rng.normal_array((2, 5, 4))
    _scan_on_route(route, x, proj, random_decay(rng, 4, 3), Tensor(rng.normal_array((4,))))
    assert len(calls) == 1
    arr, out = calls[0]
    assert out is arr and arr.shape == (10, 4)


def test_fused_scan_is_one_graph_node():
    rng = SplitMix64(41)
    proj = random_projection(rng, 3, 2)
    x = Tensor(rng.normal_array((2, 5, 3)), requires_grad=True)
    a = Tensor(-rng.uniform_array((3, 2), 0.5, 4.0), requires_grad=True)
    d = Tensor(rng.normal_array((3,)), requires_grad=True)
    y = S.selective_scan_sequential(x, proj, a, d)
    leaves = (x, a, d) + tuple(proj.tensors().values())
    assert y._parents == leaves
    assert len(T.toposort(y)) == len(leaves) + 1  # the ten leaves and the scan


@pytest.mark.parametrize("live", ["x", "weights"])
def test_fused_scan_partial_gradients_match_parallel_oracle(live):
    """Only x, or only the seven projection tensors, require grad: the fused
    op gives those operands the oracle's gradients and the others none."""
    rng = SplitMix64(43 if live == "x" else 44)
    ch, n, length = 4, 3, 7
    arrays = {k: t.data for k, t in random_projection(rng, ch, n).tensors().items()}
    a = Tensor(-rng.uniform_array((ch, n), 0.5, 4.0))
    d = Tensor(rng.normal_array((ch,)))
    x_arr = rng.normal_array((2, length, ch))
    readout = rng.normal_array(x_arr.shape)

    def run(route):
        proj = S.SelectiveProjection(**{k: Tensor(v, requires_grad=live == "weights")
                                        for k, v in arrays.items()})
        x = Tensor(x_arr, requires_grad=live == "x")
        T.backward(T.sum_(T.mul(route(x, proj, a, d), Tensor(readout))))
        return [x.grad] + [t.grad for t in proj.tensors().values()]

    fused = run(S.selective_scan_sequential)
    oracle = run(lambda *args: S.selective_scan_parallel(*args, 3))
    assert a.grad is None and d.grad is None
    for name, gf, go in zip(["x"] + list(arrays), fused, oracle):
        if go is None:
            assert gf is None, name
            continue
        assert rel_err(gf, go) < 1e-10, (name, rel_err(gf, go))
    assert sum(g is not None for g in fused) == (1 if live == "x" else 7)


# -- recorded scans over shared parameters -------------------------------------------


def _scan_operands(seed, length=6):
    """A fused scan's shared parameters (all requiring grad), two inputs of
    ``length`` steps and their readouts."""
    rng = SplitMix64(seed)
    ch, n = 4, 3
    proj = random_projection(rng, ch, n)
    a = Tensor(-rng.uniform_array((ch, n), 0.5, 4.0), requires_grad=True)
    d = Tensor(rng.normal_array((ch,)), requires_grad=True)
    xs = [Tensor(rng.normal_array((2, length, ch)), requires_grad=True) for _ in range(2)]
    readouts = [rng.normal_array((2, length, ch)) for _ in range(2)]
    return (a, d) + tuple(proj.tensors().values()), proj, xs, readouts


def _scan_loss(x, proj, a, d, readout):
    return T.sum_(T.mul(S.selective_scan_sequential(x, proj, a, d), Tensor(readout)))


def _two_forwards_then_backwards():
    """Each input's gradients and the shared parameters', from two fused scans
    that are both recorded before either backward pass runs."""
    params, proj, xs, readouts = _scan_operands(81)
    a, d = params[:2]
    losses = [_scan_loss(x, proj, a, d, r) for x, r in zip(xs, readouts)]
    grads = []
    for x, loss in zip(xs, losses):
        T.backward(loss)
        grads.append([t.grad for t in (x,) + params])
        for t in params:
            t.zero_grad()
    return grads


def _backward_twice(length=6):
    """One pass's gradients, then the second pass's, over one fused-scan graph."""
    params, proj, xs, readouts = _scan_operands(82, length)
    leaves = (xs[0],) + params
    loss = _scan_loss(xs[0], proj, *params[:2], readouts[0])
    T.backward(loss)
    once = [t.grad.copy() for t in leaves]
    T.backward(loss)
    return once, [t.grad for t in leaves]


def test_two_live_scan_graphs_over_shared_parameters_keep_their_own_states():
    """Two recorded forwards over shared parameters hold their own states
    until their backward passes: each input's gradients are those of its
    scan recorded and run back alone, bit for bit."""
    params, proj, xs, readouts = _scan_operands(81)
    alone = []
    for x, r in zip(xs, readouts):
        T.backward(_scan_loss(x, proj, *params[:2], r))
        alone.append([t.grad for t in (x,) + params])
        for t in params:
            t.zero_grad()
    for grads, refs in zip(_two_forwards_then_backwards(), alone):
        for g, ref in zip(grads, refs):
            assert np.array_equal(g, ref)


def test_second_backward_over_one_scan_graph_doubles_the_gradient():
    once, twice = _backward_twice()
    for g1, g2 in zip(once, twice):
        assert np.array_equal(g2, 2.0 * g1)


@pytest.mark.parametrize("block_steps", [2, 4])
def test_backward_twice_in_blocks_doubles_the_default_gradients_bit_for_bit(block_steps):
    """Over L = 7 steps in blocks of 2 (a tail of 1) or of 4 (a tail of 3),
    each backward pass reruns every block from the state stored before it:
    the first pass gives the gradients of the default block (all 7 steps)
    and the second doubles them, bit for bit."""
    default, _ = _backward_twice(7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_BLOCK_BYTES", _block_bytes(block_steps, (2, 7, 4), 3))
        once, twice = _backward_twice(7)
    for g1, g2, ref in zip(once, twice, default):
        assert g1.tobytes() == ref.tobytes()
        assert g2.tobytes() == (2.0 * ref).tobytes()


# -- non-causal variant -------------------------------------------------------------


def test_ncssd_single_token_equals_sequential():
    rng = SplitMix64(17)
    proj = random_projection(rng, 4, 3)
    a = random_decay(rng, 4, 3)
    d = Tensor(rng.normal_array((4,)))
    x = Tensor(rng.normal_array((1, 4)))
    ys = S.selective_scan_sequential(x, proj, a, d).data
    yn = S.nc_ssd(x, proj, d).data
    assert np.max(np.abs(ys - yn)) < 1e-12


def test_ncssd_permutation_equivariance():
    rng = SplitMix64(19)
    proj = random_projection(rng, 3, 4)
    d = Tensor(rng.normal_array((3,)))
    x = rng.normal_array((16, 3))
    y = S.nc_ssd(Tensor(x), proj, d).data
    for _ in range(20):
        perm = list(range(16))
        rng.shuffle(perm)
        yp = S.nc_ssd(Tensor(x[perm]), proj, d).data
        assert np.array_equal(yp, y[perm])


def test_ncssd_zero_projection_feedthrough():
    proj = constant_projection(3, 4, 0.0, 0.0, 0.1)
    x = SplitMix64(21).normal_array((6, 3))
    y = S.nc_ssd(Tensor(x), proj, Tensor(np.ones(3))).data
    assert np.array_equal(y, x)


def test_ncssd_is_not_causal():
    rng = SplitMix64(23)
    proj = random_projection(rng, 3, 4)
    d = Tensor(rng.normal_array((3,)))
    x = rng.normal_array((8, 3))
    y = S.nc_ssd(Tensor(x), proj, d).data
    x2 = x.copy()
    x2[7] += 1.0
    y2 = S.nc_ssd(Tensor(x2), proj, d).data
    assert not np.array_equal(y[0], y2[0])  # future token influenced the first output


@settings(max_examples=80, deadline=None)
@given(length=st.integers(1, 9), ch=st.integers(1, 9), n=st.integers(1, 9),
       lead=st.lists(st.integers(1, 3), max_size=2),
       live=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32 - 1))
@example(length=1, ch=3, n=2, lead=[2], live=(True, True, True), seed=1)
@example(length=6, ch=4, n=1, lead=[], live=(True, False, True), seed=2)
@example(length=7, ch=1, n=8, lead=[2], live=(True, True, True), seed=3)  # a BLAS readout breaks
def test_fused_shared_state_matches_graph_oracle(length, ch, n, lead, live, seed):
    """The fused shared-state readout against its graph composition: values
    within 1e-12, every live gradient within 1e-10 relative, no gradient for
    operands without one, and exact equivariance to token permutations."""
    rng = SplitMix64(seed)
    arrays = [rng.normal_array(tuple(lead) + (length, k)) for k in (ch, n, n)]
    readout = rng.normal_array(arrays[0].shape)
    y_f, g_f = values_and_grads(S.shared_state_readout, arrays, live, readout)
    y_o, g_o = values_and_grads(shared_state_graph, arrays, live, readout)
    assert rel_err(y_f, y_o) < 1e-12
    for name, gf, go, r in zip(("u", "B", "C"), g_f, g_o, live):
        if not r:
            assert gf is None, name
            continue
        assert gf.shape == go.shape, name
        assert rel_err(gf, go) < 1e-10, (name, rel_err(gf, go))
    perm = list(range(length))
    rng.shuffle(perm)
    y_p = S.shared_state_readout(*[np.take(a, perm, axis=-2) for a in arrays]).data
    assert np.array_equal(y_p, np.take(y_f, perm, axis=-2))


def test_fused_shared_state_rejects_mismatched_operands():
    u, bc = np.zeros((2, 5, 3)), np.zeros((2, 5, 4))
    for operands in [(u, bc, np.zeros((2, 5, 2))), (u, np.zeros((2, 4, 4)), np.zeros((2, 4, 4))),
                     (u, bc[0], bc[0]), (np.zeros(3), np.zeros(4), np.zeros(4))]:
        with pytest.raises(T.ShapeError):
            S.shared_state_readout(*operands)


def test_ordered_sum_oracle_gradients_match_finite_differences():
    for seed in range(4):
        rng = SplitMix64(1000 + 7 * seed)
        arrs = [rng.normal_array(s) * 0.7 + 0.3 for s in ((3, 4), (3,))]
        ta, tb = (Tensor(a, requires_grad=True) for a in arrs)
        T.backward(T.sum_(T.mul(ordered_sum(ta, 1), tb)))

        def scalar_fn():
            with T.no_grad():
                return T.sum_(T.mul(ordered_sum(Tensor(arrs[0]), 1), Tensor(arrs[1]))).item()

        numeric = finite_difference(scalar_fn, arrs, step=1e-5)
        for analytic, nu in zip((ta.grad, tb.grad), numeric):
            assert rel_err(analytic, nu) < 1e-4, (seed, rel_err(analytic, nu))


# -- gradients ------------------------------------------------------------------------


def rel_err(a, n):
    denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
    return np.max(np.abs(a - n)) / denom


@pytest.mark.parametrize("route", ["sequential", "parallel", "ncssd"])
def test_scan_gradients_match_finite_differences(route):
    rng = SplitMix64(29)
    ch, n, length = 3, 2, 6
    proj = random_projection(rng, ch, n)
    a_log = rng.normal_array((ch, n)) * 0.3
    d_arr = rng.normal_array((ch,))
    x_arr = rng.normal_array((length, ch))
    weight = rng.normal_array((length, ch))  # fixed readout to make a scalar

    arrays = [t.data for t in proj.tensors().values()] + [a_log, d_arr, x_arr]

    def run(record):
        p = S.SelectiveProjection(**{k: Tensor(v.data if isinstance(v, Tensor) else v,
                                               requires_grad=record)
                                     for k, v in proj.tensors().items()})
        al = Tensor(a_log, requires_grad=record)
        a = T.neg(T.exp(al))
        d = Tensor(d_arr, requires_grad=record)
        x = Tensor(x_arr, requires_grad=record)
        if route == "sequential":
            y = S.selective_scan_sequential(x, p, a, d)
        elif route == "parallel":
            y = S.selective_scan_parallel(x, p, a, d, 4)
        else:
            y = S.nc_ssd(x, p, d)
        loss = T.sum_(T.mul(y, Tensor(weight)))
        return loss, p, al, d, x

    loss, p, al, d, x = run(record=True)
    T.backward(loss)
    analytic = [t.grad for t in p.tensors().values()] + [al.grad, d.grad, x.grad]

    def f():
        with T.no_grad():
            return run(record=False)[0].item()

    numeric = finite_difference(f, arrays, step=1e-5)
    for name, an, nu in zip(list(proj.tensors()) + ["a_log", "d", "x"], analytic, numeric):
        an = np.zeros_like(nu) if an is None else an
        assert rel_err(an, nu) < 1e-4, (route, name, rel_err(an, nu))
