import math

import numpy as np
import pytest

from vissm import ssm
from vissm.rng import SplitMix64
from vissm.ssm import DiscreteSsm, SsmParams, conv_kernel, discretize_zoh, run_convolution, run_recurrent
from vissm.tensor import NumericError


# -- discretization ---------------------------------------------------------


def test_zoh_zero_dynamics():
    p = SsmParams(a=[[0.0]], b=[2.0], c=[1.0], d=0.0, delta=0.5)
    d = discretize_zoh(p)
    assert d.a_bar.tolist() == [[1.0]]
    assert d.b_bar.tolist() == [1.0]


def test_zoh_scalar_exponential():
    # oracle: scalar exp evaluated directly
    p = SsmParams(a=[[-1.0]], b=[1.0], c=[1.0], d=0.0, delta=1.0)
    d = discretize_zoh(p)
    assert abs(d.a_bar[0, 0] - math.exp(-1.0)) < 1e-14


def test_zoh_diagonal_elementwise():
    p = SsmParams(a=[-1.0, -2.0], b=[1.0, 1.0], c=[1.0, 1.0], d=0.0, delta=0.1, diag=True)
    d = discretize_zoh(p)
    expected = [math.exp(-0.1), math.exp(-0.2)]
    assert np.allclose(d.a_bar, expected, atol=1e-15)
    assert np.allclose(d.a_bar, [0.904837, 0.818731], atol=1e-6)


def test_zoh_overflow_raises():
    p = SsmParams(a=[[1000.0]], b=[1.0], c=[1.0], d=0.0, delta=10.0)
    with pytest.raises(NumericError):
        discretize_zoh(p)


# -- matrix exponential -------------------------------------------------------


def test_matrix_exp_vs_eigendecomposition_oracle():
    rng = SplitMix64(17)
    for trial in range(20):
        n = 2 + rng.below(6)
        raw = rng.normal_array((n, n))
        sym = (raw + raw.T) / 2.0
        # oracle: exp via eigendecomposition of a symmetric matrix
        w, v = np.linalg.eigh(sym)
        oracle = (v * np.exp(w)) @ v.T
        got = ssm.matrix_exp(sym)
        rel = np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))
        assert rel < 1e-10, (trial, rel)


def test_matrix_exp_identity_and_zero():
    assert np.allclose(ssm.matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    got = ssm.matrix_exp(np.eye(2))
    assert np.allclose(got, math.e * np.eye(2), atol=1e-12)


# -- kernel ---------------------------------------------------------------------


def test_kernel_length_one():
    d = DiscreteSsm(a_bar=np.array([[0.5]]), b_bar=np.array([1.0]), c=np.array([2.0]), d=0.0)
    k = conv_kernel(d, 1)
    assert k.tolist() == [2.0]


def test_kernel_scalar_powers():
    # oracle: direct scalar powers -> (2*1, 2*0.5, 2*0.25)
    d = DiscreteSsm(a_bar=np.array([0.5]), b_bar=np.array([1.0]), c=np.array([2.0]), d=0.0, diag=True)
    k = conv_kernel(d, 3)
    assert np.allclose(k, [2.0, 1.0, 0.5], atol=1e-15)


def test_kernel_matches_matrix_power_oracle():
    rng = SplitMix64(23)
    p = ssm.random_stable_system(rng, 4)
    d = discretize_zoh(p)
    k = conv_kernel(d, 16)
    for t in range(16):
        oracle = d.c @ np.linalg.matrix_power(d.a_bar, t) @ d.b_bar
        assert abs(k[t] - oracle) < 1e-10


def test_kernel_rejects_bad_length():
    d = DiscreteSsm(a_bar=np.array([0.5]), b_bar=np.array([1.0]), c=np.array([1.0]), d=0.0, diag=True)
    with pytest.raises(ValueError):
        conv_kernel(d, 0)


# -- recurrence and convolution ---------------------------------------------------


def test_recurrent_zero_input():
    rng = SplitMix64(29)
    d = discretize_zoh(ssm.random_stable_system(rng, 3))
    y = run_recurrent(d, np.zeros(10))
    assert np.array_equal(y, np.zeros(10))


def test_recurrent_single_step_unrolls():
    rng = SplitMix64(31)
    p = ssm.random_stable_system(rng, 3)
    d = discretize_zoh(p)
    x1 = 1.7
    y = run_recurrent(d, [x1])
    expected = d.c @ (d.b_bar * x1) + d.d * x1
    assert abs(y[0] - expected) < 1e-14


def test_convolution_impulse_reads_kernel():
    rng = SplitMix64(37)
    p = ssm.random_stable_system(rng, 4)
    d = discretize_zoh(p)
    L = 12
    x = np.zeros(L)
    x[0] = 1.0
    y = run_convolution(d, x)
    k = conv_kernel(d, L)
    expected = k.copy()
    expected[0] += d.d
    assert np.max(np.abs(y - expected)) < 1e-12


def test_convolution_zero_input():
    rng = SplitMix64(41)
    d = discretize_zoh(ssm.random_stable_system(rng, 2))
    assert np.array_equal(run_convolution(d, np.zeros(8)), np.zeros(8))


def direct_conv(a, b):
    """O(n^2) linear convolution oracle."""
    out = np.zeros(len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_convolution_small_value():
    # oracle: direct convolution of [1,2] and [3,4] -> [3, 10, 8], of which the
    # causal form keeps [3, 10]; the kernel [3, 4] is a constant mode (4) plus
    # one that vanishes after t = 0 (-1)
    expected = direct_conv([1.0, 2.0], [3.0, 4.0])
    assert expected.tolist() == [3.0, 10.0, 8.0]
    d = DiscreteSsm(a_bar=np.array([1.0, 0.0]), b_bar=np.ones(2), c=np.array([4.0, -1.0]),
                    d=0.0, diag=True)
    assert conv_kernel(d, 2).tolist() == [3.0, 4.0]
    assert np.allclose(run_convolution(d, [1.0, 2.0]), expected[:2], atol=1e-12)


def test_convolution_matches_direct_up_to_256():
    rng = SplitMix64(31)
    for n in (5, 33, 100, 256):
        d = discretize_zoh(ssm.random_stable_system(rng, 3))
        x = rng.normal_array((n,))
        expected = direct_conv(x, conv_kernel(d, n))[:n] + d.d * x
        assert np.max(np.abs(run_convolution(d, x) - expected)) < 1e-9


def test_forms_agree_on_random_systems():
    rng = SplitMix64(43)
    worst = 0.0
    for trial in range(100):
        dim = 1 + rng.below(8)
        diag = rng.below(2) == 0
        p = ssm.random_stable_system(rng, dim, diag=diag)
        d = discretize_zoh(p)
        L = 8 + rng.below(57)
        x = rng.normal_array((L,))
        ya = run_recurrent(d, x)
        yb = run_convolution(d, x)
        worst = max(worst, np.max(np.abs(ya - yb)))
    assert worst < 1e-9, worst


def test_linearity():
    rng = SplitMix64(47)
    d = discretize_zoh(ssm.random_stable_system(rng, 4))
    x1 = rng.normal_array((32,))
    x2 = rng.normal_array((32,))
    alpha, beta = 0.7, -1.3
    lhs = run_recurrent(d, alpha * x1 + beta * x2)
    rhs = alpha * run_recurrent(d, x1) + beta * run_recurrent(d, x2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_time_invariance():
    rng = SplitMix64(53)
    d = discretize_zoh(ssm.random_stable_system(rng, 3))
    L, k = 40, 7
    x = rng.normal_array((L,))
    shifted = np.concatenate([np.zeros(k), x[: L - k]])
    y = run_recurrent(d, x)
    y_shifted = run_recurrent(d, shifted)
    assert np.max(np.abs(y_shifted[k:] - y[: L - k])) < 1e-10
    assert np.max(np.abs(y_shifted[:k])) < 1e-12
