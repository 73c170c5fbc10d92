"""Selective (input-dependent) state space scans over multi-channel tokens.

Tokens are rows: x has shape (..., L, C) with C channels. Each channel
carries its own length-N hidden state. Per token, the input projections
produce a shared state-injection vector B_t (N,), a shared readout C_t (N,),
and a per-channel positive timescale dt (C,). The recurrence is

    h_t = exp(dt_t * A) (*) h_{t-1}  +  outer(dt_t * x_t, B_t)
    y_t = h_t @ C_t + D (*) x_t

with (*) elementwise over the (C, N) state. A holds negative reals so the
decay factors stay inside (0, 1); callers parameterize it as -exp(A_log).

Three evaluation routes are provided. The sequential route is the model
path: one fused tensor op runs the recurrence step by step, keeps only the
hidden states, and back-propagates through a hand-derived reverse-time
adjoint that recomputes the decay factors (the recipe of Mamba, section 3.3).
The chunked route composes affine maps h -> a (*) h + b and records every
step on the tensor graph; it is the graph-recorded oracle the fused op is
tested against. The non-causal variant collapses the recurrence into one
global state shared by all tokens (order cannot matter there, by
construction).

All routes are differentiable through the tensor graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import NumericError, ShapeError, Tensor


@dataclass
class SelectiveProjection:
    """Input-to-parameter maps.

    The timescale path is factored through a low-rank bottleneck
    (C -> rank -> C) and softened by softplus so dt stays positive:
    dt = softplus(x @ w_dt_down @ w_dt_up + delta_base). The B/C paths are
    plain affine maps into the N-dimensional state space; their biases
    default to zero and exist so that constant-parameter (time-invariant)
    configurations are expressible.
    """

    w_b: Tensor        # (C, N)
    w_c: Tensor        # (C, N)
    w_dt_down: Tensor  # (C, rank)
    w_dt_up: Tensor    # (rank, C)
    delta_base: Tensor  # (C,)
    b_b: Tensor        # (N,)
    b_c: Tensor        # (N,)

    @property
    def channels(self) -> int:
        return self.w_b.shape[0]

    @property
    def state_dim(self) -> int:
        return self.w_b.shape[1]

    def tensors(self) -> dict:
        return {
            "w_b": self.w_b, "w_c": self.w_c, "w_dt_down": self.w_dt_down,
            "w_dt_up": self.w_dt_up, "delta_base": self.delta_base,
            "b_b": self.b_b, "b_c": self.b_c,
        }


def constant_projection(channels: int, state_dim: int, b_const, c_const,
                        delta_const) -> SelectiveProjection:
    """Projection with zero input weights: B, C, dt are the same every step.

    delta_const is the desired positive timescale; the stored bias is its
    softplus preimage.
    """
    delta_const = np.broadcast_to(np.asarray(delta_const, dtype=np.float64), (channels,))
    base = np.log(np.expm1(delta_const))  # softplus^{-1}
    rank = 1
    return SelectiveProjection(
        w_b=Tensor(np.zeros((channels, state_dim))),
        w_c=Tensor(np.zeros((channels, state_dim))),
        w_dt_down=Tensor(np.zeros((channels, rank))),
        w_dt_up=Tensor(np.zeros((rank, channels))),
        delta_base=Tensor(base.copy()),
        b_b=Tensor(np.broadcast_to(np.asarray(b_const, dtype=np.float64), (state_dim,)).copy()),
        b_c=Tensor(np.broadcast_to(np.asarray(c_const, dtype=np.float64), (state_dim,)).copy()),
    )


def project_params(x, proj: SelectiveProjection):
    """(B_t, C_t, dt) for every token: shapes (..., L, N), (..., L, N), (..., L, C)."""
    x = T.as_tensor(x)
    if x.shape[-1] != proj.channels:
        raise ShapeError(
            f"token dim {x.shape[-1]} does not match projection input dim {proj.channels}"
        )
    b = T.add(T.matmul(x, proj.w_b), proj.b_b)
    c = T.add(T.matmul(x, proj.w_c), proj.b_c)
    dt_pre = T.add(T.matmul(T.matmul(x, proj.w_dt_down), proj.w_dt_up), proj.delta_base)
    dt = T.softplus(dt_pre)
    return b, c, dt


def _time_major(arr: np.ndarray) -> np.ndarray:
    """(..., L, K) -> contiguous (L, ..., K)."""
    return np.ascontiguousarray(np.moveaxis(arr, -2, 0))


def _decay(dt_t: np.ndarray, a_t: np.ndarray) -> np.ndarray:
    """exp(dt_t * A) for every step, laid out (L, ..., N, C); a_t is A transposed."""
    out = np.multiply(dt_t[..., None, :], a_t)
    return np.exp(out, out=out)


def selective_recurrence(dt, a, u, b_proj, c_proj) -> Tensor:
    """Fused op: y_t = h_t @ C_t with h_t = exp(dt_t * A) (*) h_{t-1} + outer(u_t, B_t).

    dt and u are (..., L, C), b_proj and c_proj are (..., L, N), a is (C, N);
    h_{-1} = 0 and the result is (..., L, C). The forward loop keeps the
    hidden states; the backward pass runs the adjoint recurrence
    dh_t = outer(dy_t, C_t) + exp(dt_{t+1} * A) (*) dh_{t+1} in reverse time,
    recomputing the decay factors rather than storing them. Raises
    NumericError naming the first step whose hidden state is not finite.

    Internally every per-step array is time-major with the state axis ahead
    of the channel axis, (L, ..., N, C), so the elementwise work runs along
    the longer channel axis.
    """
    dt, a, u, b_proj, c_proj = (T.as_tensor(t) for t in (dt, a, u, b_proj, c_proj))
    if u.shape != dt.shape or b_proj.shape != c_proj.shape \
            or b_proj.shape[:-1] != dt.shape[:-1]:
        raise ShapeError(
            f"scan operands disagree: dt {dt.shape}, u {u.shape}, "
            f"B {b_proj.shape}, C {c_proj.shape}"
        )
    length, ch, n = dt.shape[-2], dt.shape[-1], b_proj.shape[-1]
    a_t = np.ascontiguousarray(np.broadcast_to(a.data, (ch, n)).T)
    dt_t, u_t, b_t, c_t = (_time_major(t.data) for t in (dt, u, b_proj, c_proj))
    decay = _decay(dt_t, a_t)
    hs = b_t[..., :, None] * u_t[..., None, :]  # the injections, then the states
    for t in range(1, length):
        hs[t] += np.multiply(decay[t], hs[t - 1], out=decay[t])
    finite = np.isfinite(hs.reshape(length, -1)).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite hidden state at step {int(np.argmin(finite))}")
    y = np.moveaxis(np.einsum("l...nc,l...n->l...c", hs, c_t), 0, -2)

    def backward(g):
        g_t = _time_major(g)
        dh = c_t[..., :, None] * g_t[..., None, :]
        decay = _decay(dt_t, a_t)
        carry = np.empty_like(dh[0])
        for t in range(length - 2, -1, -1):
            dh[t] += np.multiply(decay[t + 1], dh[t + 1], out=carry)
        T._accumulate(c_proj, np.moveaxis(np.einsum("l...c,l...nc->l...n", g_t, hs), 0, -2))
        T._accumulate(b_proj, np.moveaxis(np.einsum("l...nc,l...c->l...n", dh, u_t), 0, -2))
        T._accumulate(u, np.moveaxis(np.einsum("l...nc,l...n->l...c", dh, b_t), 0, -2))
        if dt.requires_grad or a.requires_grad:
            # gradient at z_t = dt_t * A: dh_t (*) h_{t-1} (*) exp(z_t), zero at t = 0
            g_z = decay[1:]
            g_z *= dh[1:]
            g_z *= hs[:-1]
            g_dt = np.zeros_like(dt_t)
            g_dt[1:] = np.einsum("l...nc,nc->l...c", g_z, a_t)
            T._accumulate(dt, np.moveaxis(g_dt, 0, -2))
            g_a = np.einsum("knc,kc->cn", g_z.reshape(-1, n, ch), dt_t[1:].reshape(-1, ch))
            T._accumulate(a, T._unbroadcast(g_a, a.shape))

    return T._make(y, (dt, a, u, b_proj, c_proj), backward)


def selective_scan_sequential(x, proj: SelectiveProjection, a, d) -> Tensor:
    """Exact step-by-step evaluation of the selective recurrence (fused op)."""
    x = T.as_tensor(x)
    d = T.as_tensor(d)
    b_proj, c_proj, dt = project_params(x, proj)
    y = selective_recurrence(dt, a, T.mul(dt, x), b_proj, c_proj)
    return T.add(y, T.mul(d, x))


def compose_affine(a2, b2, a1, b1):
    """Composition of h -> a2 (*) h + b2 after h -> a1 (*) h + b1."""
    return T.mul(a2, a1), T.add(T.mul(a2, b1), b2)


def selective_scan_parallel(x, proj: SelectiveProjection, a, d, chunk: int) -> Tensor:
    """Chunked evaluation: sequential within chunks (vectorized across them),
    then a short sequential pass over chunk-boundary states.

    Semantically identical to the sequential route; with chunk >= L it
    degenerates to the plain recurrence. Every step is recorded on the tensor
    graph, which makes this the reference the fused op is tested against.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    x = T.as_tensor(x)
    d = T.as_tensor(d)
    b_proj, c_proj, dt = project_params(x, proj)
    a_exp = T.exp(T.mul(T.unsqueeze(dt, -1), a))                       # (..., L, C, N)
    binj = T.mul(T.unsqueeze(b_proj, -2), T.unsqueeze(T.mul(dt, x), -1))  # (..., L, C, N)
    length = x.shape[-2]
    lead = x.shape[:-2]
    ch, n = proj.channels, proj.state_dim

    k = -(-length // chunk)  # ceil
    padded = k * chunk
    if padded > length:
        # identity affine maps in the tail keep the recurrence unchanged
        pad_shape = lead + (padded - length, ch, n)
        a_exp = T.concat([a_exp, Tensor(np.ones(pad_shape))], axis=-3)
        binj = T.concat([binj, Tensor(np.zeros(pad_shape))], axis=-3)
        c_proj = T.concat([c_proj, Tensor(np.zeros(lead + (padded - length, n)))], axis=-2)
    a_exp = T.reshape(a_exp, lead + (k, chunk, ch, n))
    binj = T.reshape(binj, lead + (k, chunk, ch, n))
    c_proj = T.reshape(c_proj, lead + (k, chunk, n))

    # within-chunk prefix compositions, vectorized over the k chunks
    a_steps = T.unstack(a_exp, -3)
    b_steps = T.unstack(binj, -3)
    a_pref = [a_steps[0]]
    b_pref = [b_steps[0]]
    for j in range(1, chunk):
        pa, pb = compose_affine(a_steps[j], b_steps[j], a_pref[-1], b_pref[-1])
        a_pref.append(pa)
        b_pref.append(pb)

    # chunk-boundary states: s_{k+1} = A_last[k] (*) s_k + B_last[k]
    a_last = T.unstack(a_pref[-1], -3)
    b_last = T.unstack(b_pref[-1], -3)
    states = [Tensor(np.zeros(lead + (ch, n)))]
    for kk in range(1, k):
        states.append(T.add(T.mul(a_last[kk - 1], states[-1]), b_last[kk - 1]))
    s = T.stack(states, axis=-3)  # (..., k, ch, n)

    # reconstruct every hidden state and read it out
    hs = [T.add(T.mul(a_pref[j], s), b_pref[j]) for j in range(chunk)]
    h = T.stack(hs, axis=-3)  # (..., k, chunk, ch, n)
    if not np.all(np.isfinite(h.data)):
        raise NumericError("non-finite hidden state in chunked scan")
    y = T.sum_(T.mul(h, T.unsqueeze(c_proj, -2)), axis=-1)  # (..., k, chunk, ch)
    y = T.reshape(y, lead + (padded, ch))
    if padded > length:
        y = T.slice_axis(y, -2, 0, length)
    return T.add(y, T.mul(d, x))


def nc_ssd(x, proj: SelectiveProjection, d) -> Tensor:
    """Non-causal variant: one global state shared by every token.

    The per-step decay is dropped entirely; the state is the plain sum of
    all token injections, so the result is exactly equivariant to token
    permutations:

        H = sum_t outer(dt_t * x_t, B_t)      (per channel, length-N)
        y_t = H @ C_t + D (*) x_t
    """
    x = T.as_tensor(x)
    d = T.as_tensor(d)
    b_proj, c_proj, dt = project_params(x, proj)
    dtx = T.mul(dt, x)  # (..., L, C)
    terms = T.mul(T.unsqueeze(b_proj, -2), T.unsqueeze(dtx, -1))  # (..., L, C, N)
    # canonical-order reduction over tokens makes the shared state, and
    # therefore the whole map, bit-exactly equivariant to permutations
    big_h = T.ordered_sum(terms, axis=-3)                         # (..., C, N)
    read = T.mul(T.unsqueeze(c_proj, -2), T.unsqueeze(big_h, -3))  # (..., L, C, N)
    y = T.sum_(read, axis=-1)                                      # (..., L, C)
    return T.add(y, T.mul(d, x))

