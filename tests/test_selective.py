import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    proj = S.constant_projection(3, 4, b_const=0.0, c_const=0.0, delta_const=math.log(2.0))
    # delta_base chosen so softplus gives back log 2; now force it to zero
    proj.delta_base = Tensor(np.zeros(3))
    x = Tensor(np.zeros((1, 3)))
    _, _, dt = S.project_params(x, proj)
    assert np.allclose(dt.data, math.log(1 + math.exp(0.0)), atol=1e-15)


def test_zero_weight_projection_reduces_to_feedthrough():
    # B = C = 0 -> state contributes nothing; y = D (*) x = 0 for D = 0... use D=1, x arbitrary
    rng = SplitMix64(2)
    proj = S.constant_projection(3, 4, b_const=0.0, c_const=0.0, delta_const=0.1)
    x = Tensor(rng.normal_array((5, 3)))
    a = random_decay(rng, 3, 4)
    y = S.selective_scan_sequential(x, proj, a, Tensor(np.ones(3)))
    assert np.array_equal(y.data, x.data)
    # and with x = 0 the output is identically zero
    y0 = S.selective_scan_sequential(Tensor(np.zeros((5, 3))), proj, a, Tensor(np.ones(3)))
    assert np.array_equal(y0.data, np.zeros((5, 3)))


def test_identity_projection_passes_basis_vector():
    proj = S.constant_projection(4, 4, b_const=0.0, c_const=0.0, delta_const=0.1)
    proj.w_b = Tensor(np.eye(4))
    e1 = np.zeros((1, 4))
    e1[0, 0] = 1.0
    b, _, _ = S.project_params(Tensor(e1), proj)
    assert np.array_equal(b.data, e1)


def test_projection_dim_mismatch():
    proj = S.constant_projection(3, 4, 0.0, 0.0, 0.1)
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
        proj = S.constant_projection(ch, n, b_const, c_const, delta)
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
                diag=True,
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
    proj = S.constant_projection(ch, n, rng.normal_array((n,)), rng.normal_array((n,)),
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


def test_non_finite_state_reports_step():
    proj = S.constant_projection(1, 1, b_const=1e308, c_const=1e308, delta_const=1.0)
    a = Tensor(np.array([[-0.001]]))
    x = Tensor(np.full((3, 1), 1e308))
    with np.errstate(over="ignore"), pytest.raises(T.NumericError) as ei:
        S.selective_scan_sequential(x, proj, a, Tensor(np.ones(1)))
    assert "step" in str(ei.value)


# -- chunk-parallel scan ----------------------------------------------------------


def test_affine_composition_identity():
    rng = SplitMix64(11)
    a1, b1, a2, b2, h = (Tensor(rng.normal_array((3, 4))) for _ in range(5))
    ca, cb = S.compose_affine(a2, b2, a1, b1)
    lhs = T.add(T.mul(ca, h), cb).data
    rhs = T.add(T.mul(a2, T.add(T.mul(a1, h), b1)), b2).data
    assert np.max(np.abs(lhs - rhs)) < 1e-12


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
    y0 = S.selective_scan_sequential(T.slice_axis(Tensor(x.data), 0, 0, 1), proj, a, d).data
    assert np.max(np.abs(y0[0] - ys[0])) < 1e-12


def test_parallel_rejects_bad_chunk():
    proj = S.constant_projection(2, 2, 0.0, 0.0, 0.1)
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
    proj = S.constant_projection(3, 4, 0.0, 0.0, 0.1)
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

    numeric = T.finite_difference(f, arrays, step=1e-5)
    for name, an, nu in zip(list(proj.tensors()) + ["a_log", "d", "x"], analytic, numeric):
        an = np.zeros_like(nu) if an is None else an
        assert rel_err(an, nu) < 1e-4, (route, name, rel_err(an, nu))
