import contextlib
import decimal
import inspect
import math
import threading
import warnings
import weakref

import numpy as np
import pytest

from oracles import finite_difference
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


def _piecewise_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ulps(a, b):
    """Largest distance in units in the last place between two arrays of
    non-negative floats (their bit patterns order like their values)."""
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64))))


def _correctly_rounded(fn, x):
    """fn evaluated at each finite entry of x with 60 decimal digits, then rounded."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return np.array([float(fn(decimal.Decimal(float(v)))) for v in x])


EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, 1e-300, -1e-300,
                  36.0, -36.0, 710.0, -746.0])


def test_sigmoid_and_softplus_kernels_are_exact_at_the_edges_and_close_elsewhere():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no floating-point warning escapes
        sig, sp = T._sigmoid_np(EDGES), T._softplus_np(EDGES)
    assert sig.tolist()[:6] == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]
    assert sp.tolist()[:6] == [math.log(2.0), math.log(2.0), math.inf, 0.0, 800.0, 0.0]
    assert np.isnan(sig[6]) and np.isnan(sp[6])
    finite = EDGES[7:]
    exact_sig = _correctly_rounded(lambda d: 1 / (1 + (-d).exp()), finite)
    exact_sp = _correctly_rounded(lambda d: (1 + d.exp()).ln(), finite)
    # exact, but at -36 the one-exp forms round 1 + e^36 and log1p(e^-36): one ulp
    ok = finite != -36.0
    assert np.array_equal(sig[7:][ok], exact_sig[ok])
    assert np.array_equal(sp[7:][ok], exact_sp[ok])
    assert _ulps(sig[7:], exact_sig) <= 1 and _ulps(sp[7:], exact_sp) <= 1

    rng = SplitMix64(3)
    for scale in (1.0, 10.0, 100.0):
        x = rng.normal_array((32, 65, 32)) * scale
        assert _ulps(T._sigmoid_np(x), _piecewise_sigmoid(x)) <= 4
        assert _ulps(T._softplus_np(x), np.logaddexp(0.0, x)) <= 3


def test_no_grad_forms_hold_the_bytes_of_the_recorded_ones_at_the_edges():
    """No-grad SiLU turns its sigmoid array into the output, softplus can
    write into its input and flip is a view on both routes: each gives the
    bytes of the form it stands for, -0.0 and NaNs of either sign included.
    SiLU and its derivative are -0.0 at -inf, as at -800, and its derivative
    is 1.0 at +inf, as at 800, with no warning."""
    edges = np.concatenate([EDGES, -EDGES])
    x = Tensor(edges, requires_grad=True)
    in_place = edges.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no floating-point warning escapes
        recorded = T.silu(x)
        with T.no_grad():
            plain = T.silu(x)
        assert T._softplus_np(in_place, out=in_place) is in_place
        low = Tensor(np.array([-np.inf, -800.0, np.inf, 800.0]), requires_grad=True)
        T.backward(T.sum_(T.silu(low)))
    assert recorded.requires_grad and not plain.requires_grad
    assert plain.data.tobytes() == recorded.data.tobytes()
    assert in_place.tobytes() == T._softplus_np(edges).tobytes()
    minus_zero = np.array([-0.0, -0.0]).tobytes()
    assert recorded.data[edges == -np.inf].tobytes() == minus_zero  # -inf in EDGES and -EDGES
    assert low.grad.tobytes() == np.array([-0.0, -0.0, 1.0, 1.0]).tobytes()
    with np.errstate(invalid="ignore"):  # the plain product, NaN at -inf
        product = edges * T._sigmoid_np(edges)
    rest = edges != -np.inf
    assert recorded.data[rest].tobytes() == product[rest].tobytes()

    grid = Tensor(edges.reshape(2, 13), requires_grad=True)
    for axis in (0, 1, -1):
        recorded = T.flip(grid, axis)
        with T.no_grad():
            plain = T.flip(grid, axis)
        assert recorded.requires_grad and not plain.requires_grad
        assert np.shares_memory(recorded.data, grid.data)
        assert np.shares_memory(plain.data, grid.data)
        assert plain.data.tobytes() == recorded.data.tobytes() \
            == np.flip(edges.reshape(2, 13), axis).tobytes()
    assert edges.tobytes() == grid.data.tobytes() == x.data.tobytes()


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
        ("neg", lambda a, b: T.sum_(T.mul(T.neg(a), b)), ((3, 4), (3, 4))),
        ("mul", lambda a, b: T.sum_(T.mul(a, b)), ((4,), (4,))),
        ("mul_broadcast", lambda a, b: T.sum_(T.mul(a, b)), ((2, 3, 4), (4,))),
        ("matmul", lambda a, b: T.sum_(T.matmul(a, b)), ((3, 4), (4, 2))),
        ("matmul_batched", lambda a, b: T.sum_(T.matmul(a, b)), ((2, 3, 4), (2, 4, 2))),
        ("matmul_shared_rhs", lambda a, b: T.sum_(T.matmul(a, b)), ((2, 3, 4), (4, 2))),
        ("exp", lambda a, b: T.sum_(T.mul(T.exp(a), b)), ((5,), (5,))),
        ("log", lambda a, b: T.sum_(T.mul(T.log(T.add(T.mul(a, a), 1.0)), b)), ((5,), (5,))),
        ("softplus", lambda a, b: T.sum_(T.mul(T.softplus(a), b)), ((6,), (6,))),
        ("silu", lambda a, b: T.sum_(T.mul(T.silu(a), b)), ((6,), (6,))),
        ("pow", lambda a, b: T.sum_(T.mul(T.pow_const(T.add(T.mul(a, a), 0.5), 1.5), b)), ((4,), (4,))),
        ("mean", lambda a, b: T.mean(T.mul(a, b)), ((3, 4), (3, 4))),
        ("reshape", lambda a, b: T.sum_(T.mul(T.reshape(a, (12,)), T.reshape(b, (12,)))), ((3, 4), (4, 3))),
        ("flip", lambda a, b: T.sum_(T.mul(T.flip(a, 0), b)), ((5, 2), (5, 2))),
        ("concat", lambda a, b: T.sum_(T.mul(T.concat([a, b], 0), T.concat([b, a], 0))), ((2, 3), (2, 3))),
        ("stack", lambda a, b: T.sum_(T.pow_const(T.stack([a, b], 1), 2.0)), ((3, 2), (3, 2))),
        ("slice", lambda a, b: T.sum_(T.mul(T.slice_axis(a, 0, 1, 4), b)), ((5, 2), (3, 2))),
        ("take", lambda a, b: T.sum_(T.mul(T.take(a, [2, 0, 1, 2], 0), b)), ((3, 2), (4, 2))),
        ("sum_axis", lambda a, b: T.sum_(T.mul(T.sum_(a, axis=1), b)), ((3, 4), (3,))),
        ("sum_keepdims", lambda a, b: T.sum_(T.mul(a, T.sum_(T.mul(a, a), axis=1, keepdims=True))), ((3, 4), (3, 4))),
        ("scatter_axis", lambda a, b: T.sum_(T.mul(T.scatter_axis(a, [3, 0, 2], 0, 5), b)), ((3, 2), (5, 2))),
        ("select_index", lambda a, b: T.sum_(T.mul(T.select_index(a, 1, 2), b)), ((3, 4), (3,))),
        ("unstack", lambda a, b: T.sum_(T.mul(T.stack(T.unstack(a, 1)[::-1], 0), b)), ((3, 4), (4, 3))),
        ("unsqueeze", lambda a, b: T.sum_(T.mul(T.unsqueeze(a, 1), b)), ((3, 4), (3, 2, 4))),
    ]


def test_every_tensor_op_has_a_gradient_row():
    # an op is a public function of the module that returns a Tensor; as_tensor
    # only wraps its argument and records nothing
    covered = {name for _, fn, _ in _compose_cases() for name in fn.__code__.co_names}
    ops = [name for name, obj in vars(T).items()
           if inspect.isfunction(obj) and obj.__module__ == T.__name__
           and not name.startswith("_") and name != "as_tensor"
           and inspect.signature(obj).return_annotation in (Tensor, "Tensor")]
    assert len(ops) > 20
    assert [name for name in ops if name not in covered] == []


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

        fd = finite_difference(scalar_fn, arrs, step=1e-5)
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

        fd = finite_difference(f, [x], step=1e-5)[0]
        if rel_err(tx.grad, fd) >= 1e-4:
            bad += 1
    assert bad == 0


def test_grad_accumulates_over_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 7
    T.backward(T.sum_(y))
    assert np.allclose(x.grad, [7.0])


def test_repeated_backward_over_a_shared_op_adds_each_root_once():
    w = Tensor([2.0], requires_grad=True)
    h = T.mul(w, w)
    T.backward(T.sum_(T.mul(h, 3.0)))
    T.backward(T.sum_(T.mul(h, 5.0)))
    assert np.array_equal(w.grad, [32.0])  # (3 + 5) * 2w, not 44 from a stale h.grad


def test_backward_keeps_only_leaf_gradients():
    rng = SplitMix64(61)
    arrays = [rng.normal_array(s) for s in ((3, 4), (4, 2), (2,))]

    def graph():
        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        h = T.silu(T.add(T.matmul(x, w), b))
        root = T.sum_(T.mul(h, T.exp(h)))
        return (x, w, b), root

    leaves, root = graph()
    T.backward(root)
    interior = [node for node in T.toposort(root) if node._backward_fn is not None]
    assert len(interior) == 6
    assert all(node.grad is None for node in interior)
    # the leaves hold what one pass over a fresh copy of the graph gives
    fresh, fresh_root = graph()
    T.backward(fresh_root)
    for leaf, ref in zip(leaves, fresh):
        assert np.array_equal(leaf.grad, ref.grad)
    # and a second pass over the same graph adds exactly one more pass
    T.backward(root)
    for leaf, ref in zip(leaves, fresh):
        assert np.array_equal(leaf.grad, 2.0 * ref.grad)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._backward_fn is None


@pytest.mark.parametrize("grad_mode", [True, False])
def test_an_op_records_exactly_when_recording_says_so(grad_mode):
    live, dead = Tensor([1.0], requires_grad=True), Tensor([1.0])
    for parents in ((), (dead,), (live,), (dead, live)):
        with T.no_grad() if not grad_mode else contextlib.nullcontext():
            says = T.recording(parents)
            out = T._make(np.zeros(1), parents, lambda g: None)
        assert says == (grad_mode and live in parents)
        assert out.requires_grad == says and (out._backward_fn is not None) == says


def test_grad_mode_is_per_thread():
    """A no_grad held open in one thread leaves recording on in another."""
    entered, release = threading.Event(), threading.Event()

    def hold_no_grad():
        with T.no_grad():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    try:
        assert entered.wait(10)
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert y.requires_grad and y._parents == (x, x)


def test_workspace_buffer_is_reused_only_when_nothing_holds_it():
    assert T.buffer((2, 3)) is not T.buffer((2, 3))  # outside a workspace: always new
    with T.workspace():
        first = T.buffer((2, 3))
        first_id = id(first)
        view = first[1:]
        del first
        assert id(T.buffer((2, 3))) != first_id  # its view still holds it
        del view
        assert id(T.buffer((2, 3))) == first_id
        assert id(T.buffer((3, 2))) != first_id  # only an equal shape is reused


def test_workspace_entered_twice_hands_out_the_same_free_buffer():
    workspace = T.workspace()
    with workspace:
        first = weakref.ref(T.buffer((2, 3)))
    assert T._thread.pool is None
    assert first() is not None  # the workspace, not the scope, holds its buffers
    with workspace:
        assert T.buffer((2, 3)) is first()
    del workspace
    assert first() is None


def test_workspace_buffer_held_by_a_closure_is_not_reused():
    """A backward closure that holds a forward's buffer, and nothing else
    does, keeps it from being handed out again until the closure dies."""

    def forward():
        states = T.buffer((2, 3))

        def backward():
            return states

        return backward

    with T.workspace():
        backward = forward()
        held_id = id(backward())
        assert id(T.buffer((2, 3))) != held_id
        del backward
        assert id(T.buffer((2, 3))) == held_id


def test_debug_finite_mode():
    T.set_debug_finite(True)
    try:
        with np.errstate(invalid="ignore"), pytest.raises(T.NumericError):
            T.log(Tensor([-1.0]))
    finally:
        T.set_debug_finite(False)
