import math

import numpy as np
import pytest

from vissm import tensor as T
from vissm.rng import SplitMix64
from vissm.tensor import Tensor


def rel_err(a, n):
    denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
    return np.max(np.abs(a - n)) / denom


# -- elementwise values --------------------------------------------------------


def test_exp_of_zero():
    out = T.exp(Tensor([[0.0]]))
    assert out.data.tolist() == [[1.0]]


def test_silu_at_zero():
    assert T.silu(Tensor([0.0])).data[0] == 0.0


def test_softplus_at_zero():
    # oracle: evaluate ln(1 + e^0) directly
    expected = math.log(1.0 + math.exp(0.0))
    out = T.softplus(Tensor([0.0]))
    assert abs(out.data[0] - expected) < 1e-15
    assert abs(out.data[0] - 0.6931471805599453) < 1e-12


def test_sigmoid_extremes_stay_finite():
    out = T.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[1] == 0.5


def _piecewise_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_piecewise_form():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, 1e-300, -1e-300,
                      36.0, -36.0, 710.0, -746.0])
    assert np.array_equal(T._sigmoid_np(edges), _piecewise_sigmoid(edges), equal_nan=True)
    rng = SplitMix64(3)
    for scale in (1.0, 10.0, 100.0):
        x = rng.normal_array((32, 65, 32)) * scale
        assert np.array_equal(T._sigmoid_np(x), _piecewise_sigmoid(x))


def test_elementwise_dispatch_and_unknown_kind():
    out = T.elementwise("add", Tensor([1.0]), Tensor([2.0]))
    assert out.data[0] == 3.0
    with pytest.raises(ValueError):
        T.elementwise("gelu", Tensor([1.0]))


def test_shape_mismatch_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as ei:
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(ei.value) and "(4, 5)" in str(ei.value)


def test_broadcast_equals_materialized():
    rng = SplitMix64(3)
    a = Tensor(rng.normal_array((4, 5)))
    b = Tensor(rng.normal_array((5,)))
    b_full = Tensor(np.broadcast_to(b.data, (4, 5)).copy())
    assert np.array_equal(T.mul(a, b).data, T.mul(a, b_full).data)


# -- matmul ---------------------------------------------------------------------


def test_matmul_identity():
    x = Tensor([[1.0], [2.0]])
    out = T.matmul(Tensor(np.eye(2)), x)
    assert np.array_equal(out.data, x.data)


def test_matmul_hand_value():
    # oracle by hand: 1*3 + 2*4 = 11
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_zeros():
    out = T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_matmul_dimension_error():
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_matmul_batched_against_loop():
    rng = SplitMix64(4)
    a = rng.normal_array((3, 2, 4))
    b = rng.normal_array((3, 4, 5))
    out = T.matmul(Tensor(a), Tensor(b)).data
    for i in range(3):
        assert np.allclose(out[i], a[i] @ b[i], atol=1e-12)


# -- backward -------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    T.backward(T.sum_(x))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_of_square():
    x = Tensor(np.array([2.0]), requires_grad=True)
    T.backward(T.sum_(T.mul(x, x)))
    assert np.array_equal(x.grad, np.array([4.0]))


def test_backward_rejects_non_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(T.ShapeError):
        T.backward(y)


def test_toposort_orders_inputs_first():
    x = Tensor([1.0], requires_grad=True)
    y = T.mul(x, x)
    z = T.sum_(T.add(y, x))
    order = T.toposort(z)
    pos = {id(t): i for i, t in enumerate(order)}
    assert pos[id(x)] < pos[id(y)] < pos[id(z)]
    assert len(order) == len({id(t) for t in order})


def test_backward_visits_each_op_exactly_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, y)  # diamond: y feeds z twice
    root = T.sum_(z)
    counts = {}
    for node in (y, z, root):
        fn = node._backward_fn

        def wrapped(g, node=node, fn=fn):
            counts[id(node)] = counts.get(id(node), 0) + 1
            fn(g)

        node._backward_fn = wrapped
    T.backward(root)
    assert all(c == 1 for c in counts.values())
    assert np.allclose(x.grad, [4.0, 8.0])  # d(2x^2)/dx


def _compose_cases():
    """(name, tensor_fn, shapes) triples exercising each differentiable op."""
    return [
        ("add", lambda a, b: T.sum_(T.add(a, b)), ((3, 4), (3, 4))),
        ("add_broadcast", lambda a, b: T.sum_(T.add(a, b)), ((3, 4), (4,))),
        ("sub", lambda a, b: T.sum_(T.sub(a, b)), ((2, 3), (2, 3))),
        ("mul", lambda a, b: T.sum_(T.mul(a, b)), ((4,), (4,))),
        ("mul_broadcast", lambda a, b: T.sum_(T.mul(a, b)), ((2, 3, 4), (4,))),
        ("div", lambda a, b: T.sum_(T.div(a, b)), ((3,), (3,))),
        ("matmul", lambda a, b: T.sum_(T.matmul(a, b)), ((3, 4), (4, 2))),
        ("matmul_batched", lambda a, b: T.sum_(T.matmul(a, b)), ((2, 3, 4), (2, 4, 2))),
        ("matmul_shared_rhs", lambda a, b: T.sum_(T.matmul(a, b)), ((2, 3, 4), (4, 2))),
        ("exp", lambda a, b: T.sum_(T.mul(T.exp(a), b)), ((5,), (5,))),
        ("log", lambda a, b: T.sum_(T.mul(T.log(T.add(T.mul(a, a), 1.0)), b)), ((5,), (5,))),
        ("sigmoid", lambda a, b: T.sum_(T.mul(T.sigmoid(a), b)), ((6,), (6,))),
        ("softplus", lambda a, b: T.sum_(T.mul(T.softplus(a), b)), ((6,), (6,))),
        ("silu", lambda a, b: T.sum_(T.mul(T.silu(a), b)), ((6,), (6,))),
        ("pow", lambda a, b: T.sum_(T.mul(T.pow_const(T.add(T.mul(a, a), 0.5), 1.5), b)), ((4,), (4,))),
        ("mean", lambda a, b: T.mean(T.mul(a, b)), ((3, 4), (3, 4))),
        ("reshape", lambda a, b: T.sum_(T.mul(T.reshape(a, (12,)), T.reshape(b, (12,)))), ((3, 4), (4, 3))),
        ("swapaxes", lambda a, b: T.sum_(T.mul(T.swapaxes(a, 0, 1), b)), ((3, 4), (4, 3))),
        ("flip", lambda a, b: T.sum_(T.mul(T.flip(a, 0), b)), ((5, 2), (5, 2))),
        ("concat", lambda a, b: T.sum_(T.mul(T.concat([a, b], 0), T.concat([b, a], 0))), ((2, 3), (2, 3))),
        ("stack", lambda a, b: T.sum_(T.pow_const(T.stack([a, b], 1), 2.0)), ((3, 2), (3, 2))),
        ("pad_slice", lambda a, b: T.sum_(T.mul(T.slice_axis(T.pad_axis(a, 0, 2, 1), 0, 1, 4), b)), ((3, 2), (3, 2))),
        ("take", lambda a, b: T.sum_(T.mul(T.take(a, [2, 0, 1, 2], 0), b)), ((3, 2), (4, 2))),
        ("getitem", lambda a, b: T.sum_(T.mul(a[1:3], b)), ((4, 2), (2, 2))),
        ("sum_axis", lambda a, b: T.sum_(T.mul(T.sum_(a, axis=1), b)), ((3, 4), (3,))),
        ("sum_keepdims", lambda a, b: T.sum_(T.mul(a, T.sum_(T.mul(a, a), axis=1, keepdims=True))), ((3, 4), (3, 4))),
    ]


@pytest.mark.parametrize("name,fn,shapes", _compose_cases(), ids=[c[0] for c in _compose_cases()])
def test_gradients_match_finite_differences(name, fn, shapes):
    # property: analytic gradient vs central differences, many random draws
    failures = []
    for seed in range(4):
        rng = SplitMix64(1000 + 7 * seed)
        arrs = [rng.normal_array(s) * 0.7 + 0.3 for s in shapes]
        ta = Tensor(arrs[0], requires_grad=True)
        tb = Tensor(arrs[1], requires_grad=True)
        out = fn(ta, tb)
        T.backward(out)

        def scalar_fn():
            with T.no_grad():
                return fn(Tensor(arrs[0]), Tensor(arrs[1])).item()

        fd = T.finite_difference(scalar_fn, arrs, step=1e-5)
        for analytic, numeric in zip((ta.grad, tb.grad), fd):
            if analytic is None:
                analytic = np.zeros_like(numeric)
            if rel_err(analytic, numeric) >= 1e-4:
                failures.append((seed, rel_err(analytic, numeric)))
    assert not failures, failures


def test_gradcheck_many_seeds_elementwise_chain():
    # 100-seed sweep on one representative composition (cheap, broad input coverage)
    bad = 0
    for seed in range(100):
        rng = SplitMix64(seed)
        x = rng.normal_array((3,))
        tx = Tensor(x, requires_grad=True)
        out = T.sum_(T.silu(T.add(T.mul(tx, tx), T.softplus(tx))))
        T.backward(out)

        def f():
            with T.no_grad():
                t = Tensor(x)
                return T.sum_(T.silu(T.add(T.mul(t, t), T.softplus(t)))).item()

        fd = T.finite_difference(f, [x], step=1e-5)[0]
        if rel_err(tx.grad, fd) >= 1e-4:
            bad += 1
    assert bad == 0


def test_grad_accumulates_over_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 7
    T.backward(T.sum_(y))
    assert np.allclose(x.grad, [7.0])


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._backward_fn is None


def test_debug_finite_mode():
    T.set_debug_finite(True)
    try:
        with np.errstate(invalid="ignore"), pytest.raises(T.NumericError):
            T.log(Tensor([-1.0]))
    finally:
        T.set_debug_finite(False)


# -- FFT ------------------------------------------------------------------------


def test_fft_of_impulse_is_flat():
    spec = T.fft_real([1.0, 0.0, 0.0, 0.0], 4)
    assert np.allclose(spec, np.ones(4), atol=1e-12)


def test_fft_roundtrip_identity():
    rng = SplitMix64(21)
    for n in (8, 64, 256):
        x = rng.normal_array((n,))
        back = T.inverse_fft(T.fft_real(x, n))
        assert np.max(np.abs(back.real - x)) < 1e-10
        assert np.max(np.abs(back.imag)) < 1e-10


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        T.fft_real([1.0, 2.0, 3.0], 3)
    with pytest.raises(ValueError):
        T.inverse_fft(np.zeros(5, dtype=complex))


def direct_conv(a, b):
    """O(n^2) linear convolution oracle."""
    out = np.zeros(len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_conv_via_fft_small_value():
    # oracle: direct convolution of [1,2] and [3,4] -> [3, 10, 8]
    expected = direct_conv([1.0, 2.0], [3.0, 4.0])
    assert expected.tolist() == [3.0, 10.0, 8.0]
    assert np.allclose(T.conv_via_fft([1.0, 2.0], [3.0, 4.0]), expected, atol=1e-12)


def test_conv_via_fft_matches_direct_up_to_256():
    rng = SplitMix64(31)
    for n in (5, 33, 100, 256):
        a = rng.normal_array((n,))
        b = rng.normal_array((n // 2 + 1,))
        assert np.max(np.abs(T.conv_via_fft(a, b) - direct_conv(a, b))) < 1e-9
