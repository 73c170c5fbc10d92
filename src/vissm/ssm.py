"""Classical linear time-invariant state space model.

A continuous system (A, B, C, D) with timescale delta is discretized by
zero-order hold and can then be evaluated two ways that must agree, both
from the zero initial state: step-by-step recurrence, or causal convolution
with the kernel (C*Bbar, C*Abar*Bbar, C*Abar^2*Bbar, ...) computed via FFT.

Single-input single-output per instance: B maps the scalar input into the
d-dimensional state, C reads the state back out to a scalar. Multi-channel
batching lives in the selective-scan module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import NumericError, ShapeError


@dataclass
class SsmParams:
    """Continuous-time parameters. ``a`` is (d, d), or (d,) when diag=True."""

    a: np.ndarray
    b: np.ndarray  # (d,)
    c: np.ndarray  # (d,)
    d: float
    delta: float
    diag: bool = False

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        self.c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        self.d = float(self.d)
        self.delta = float(self.delta)
        dim = self.b.shape[0]
        if self.diag:
            self.a = self.a.reshape(-1)
            if self.a.shape[0] != dim:
                raise ShapeError(f"diagonal a has length {self.a.shape[0]}, b has {dim}")
        else:
            if self.a.shape != (dim, dim):
                raise ShapeError(f"a shape {self.a.shape} does not match state dim {dim}")
        if self.c.shape[0] != dim:
            raise ShapeError(f"c has length {self.c.shape[0]}, state dim is {dim}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def dim(self) -> int:
        return self.b.shape[0]


@dataclass
class DiscreteSsm:
    """Discrete-time system. ``a_bar`` is (d, d), or (d,) when diag=True."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    d: float
    diag: bool = False

    @property
    def dim(self) -> int:
        return self.b_bar.shape[0]


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring with a degree-13 Pade approximant.

    No balancing or norm-dependent order selection; the fixed high order is
    plenty at the matrix sizes this package uses. Checked against an
    eigendecomposition oracle in the tests.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix_exp needs a square matrix, got {m.shape}")
    norm = np.linalg.norm(m, 1)
    if not np.isfinite(norm):
        raise NumericError("matrix_exp input contains non-finite entries")
    # scale so the Pade argument has 1-norm below ~0.5
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    a = m / (2.0 ** squarings)

    # Pade(13) coefficients
    coeffs = [
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    ]
    n = a.shape[0]
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (coeffs[13] * a6 + coeffs[11] * a4 + coeffs[9] * a2)
        + coeffs[7] * a6 + coeffs[5] * a4 + coeffs[3] * a2 + coeffs[1] * ident
    )
    v = (
        a6 @ (coeffs[12] * a6 + coeffs[10] * a4 + coeffs[8] * a2)
        + coeffs[6] * a6 + coeffs[4] * a4 + coeffs[2] * a2 + coeffs[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def discretize_zoh(params: SsmParams) -> DiscreteSsm:
    """Zero-order-hold discretization: a_bar = exp(delta * A), and b_bar the
    first-order form delta * B."""
    dt = params.delta
    with np.errstate(over="ignore"):  # overflow is caught by the finite check below
        if params.diag:
            a_bar = np.exp(dt * params.a)
        else:
            a_bar = matrix_exp(dt * params.a)
    b_bar = dt * params.b
    if not (np.all(np.isfinite(a_bar)) and np.all(np.isfinite(b_bar))):
        raise NumericError(
            f"discretization overflowed (delta={dt}); check delta * A magnitude"
        )
    return DiscreteSsm(a_bar=a_bar, b_bar=b_bar, c=params.c.copy(), d=params.d,
                       diag=params.diag)


def run_recurrent(dssm: DiscreteSsm, x) -> np.ndarray:
    """h_t = Abar h_{t-1} + Bbar x_t ; y_t = C h_t + D x_t, t = 1..L, from h_0 = 0."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    h = np.zeros(dssm.dim)
    step = np.multiply if dssm.diag else np.matmul  # apply Abar to the state
    y = np.empty_like(x)
    for t in range(len(x)):
        h = step(dssm.a_bar, h) + dssm.b_bar * x[t]
        y[t] = dssm.c @ h + dssm.d * x[t]
    return y


def conv_kernel(dssm: DiscreteSsm, length: int) -> np.ndarray:
    """k_bar[t] = C * Abar^t * Bbar, t = 0..length-1 (final term C Abar^{L-1} Bbar)."""
    if length < 1:
        raise ValueError(f"kernel length must be >= 1, got {length}")
    k = np.empty(length)
    step = np.multiply if dssm.diag else np.matmul  # apply Abar to the state
    v = dssm.b_bar.copy()
    for t in range(length):
        k[t] = dssm.c @ v
        v = step(dssm.a_bar, v)
    return k


def run_convolution(dssm: DiscreteSsm, x) -> np.ndarray:
    """Causal convolution with the SSM kernel via zero-padded FFT, plus D x
    (the recurrence from a zero initial state)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    length = len(x)
    k_bar = conv_kernel(dssm, length)
    n = 1 << (2 * length - 2).bit_length()  # power of two >= the full length 2L - 1
    y = np.fft.ifft(np.fft.fft(x, n) * np.fft.fft(k_bar, n)).real[:length]
    return y + dssm.d * x


def random_stable_system(rng, dim: int, diag: bool = False) -> SsmParams:
    """Random system with negative-real-part dynamics, for equivalence tests."""
    delta = rng.uniform(0.05, 0.5)
    b = rng.normal_array((dim,))
    c = rng.normal_array((dim,))
    d = rng.normal()
    if diag:
        a = -rng.uniform_array((dim,), 0.2, 2.0)
    else:
        raw = rng.normal_array((dim, dim))
        # symmetric negative-definite: guaranteed stable
        a = -(raw @ raw.T) / dim - 0.2 * np.eye(dim)
    return SsmParams(a=a, b=b, c=c, d=d, delta=delta, diag=diag)
