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
path: one fused tensor op covers the whole scan path, from the B, C and dt
projections through softplus, dt * x and the recurrence to the D * x skip.
It runs the recurrence step by step in one loop over blocks of steps, each
block forming its own decay factors, keeps only the hidden states, and
back-propagates through a hand-derived reverse-time adjoint that recomputes
the decay factors (the recipe of Mamba, section 3.3). Only a recorded scan
keeps all L states; under no-grad one cache-sized block of states is
reused, so the state never fills main memory (Mamba's kernel keeps it in
SRAM). The chunked route projects with ``project_params``, composes affine
maps h -> a (*) h + b and records every step on the tensor graph; it is the
oracle the fused op is tested against. The non-causal variant collapses
the recurrence into one global state shared by all tokens; its core is one
fused op too, with a four-matmul backward, and the graph composition it
replaced is its test oracle (tests/oracles.py).

All routes are differentiable through the tensor graph.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        """The seven tensors by field name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


# the bytes of one block of steps' hidden states and decay factors together,
# so a block stays in cache (a no-grad block of states alone at 256 KiB to
# 1 MiB measured alike; all L steps slower)
_BLOCK_BYTES = 1 << 19


def _time_major(arr: np.ndarray) -> np.ndarray:
    """(..., L, K) -> contiguous (L, ..., K)."""
    return np.ascontiguousarray(np.moveaxis(arr, -2, 0))


def selective_scan_sequential(x, proj: SelectiveProjection, a, d) -> Tensor:
    """Exact step-by-step evaluation of the selective recurrence, as one fused op.

    x is (..., L, C), a is (C, N) and d is (C,); the result is (..., L, C).
    The op covers the whole path of Mamba's ``selective_scan_fn`` with
    ``delta_softplus``: the B, C and low-rank dt projections with their
    biases, dt = softplus(dt_pre), u = dt (*) x, the recurrence and the
    D (*) x skip. Each of these is evaluated with the arithmetic of its
    graph composition (``project_params``, ``T.mul``, ``T.add``), so values
    are those of the composed route bit for bit (for a single token, L = 1,
    only at dt_rank 1).

    The forward is one recurrence loop over blocks of k steps, and each
    block's last state carries into the next. A block's states and its
    decay factors fit in ``_BLOCK_BYTES`` together. Each block forms its
    decays exp(dt_t * A) with one einsum and one exp, the backward pass's
    own form, into one reused array, so a step is one multiply (into its
    decay) and one add. When the op records (see ``T.recording``) a block
    is a view of the L hidden states it stores, which the backward pass
    reads; otherwise it is one array that every block reuses, so no
    (L, ..., N, C) array exists. Every value is the same single rounding at
    any k, so both routes give the same bits at every block size. The
    backward pass runs the adjoint recurrence
    dh_t = outer(dy_t, C_t) + exp(dt_{t+1} * A) (*) dh_{t+1} in reverse
    time, recomputing the decay factors rather than storing them, takes
    softplus' derivative from the op's own output (sigmoid(z) =
    -expm1(-softplus(z))), and forms each weight gradient as one matmul over
    the flattened batch and tokens. Raises NumericError naming the first
    step whose hidden state is not finite. A non-finite entry stays
    non-finite through every later step, because the decay is >= 0 or NaN, so
    only each block's last state is checked; the block's steps are read one
    by one only after it fails.

    Internally every per-step array is time-major with the state axis ahead
    of the channel axis, (L, ..., N, C), so the elementwise work runs along
    the longer channel axis; the token-major projections are dropped as soon
    as their time-major copies exist, and dt_pre is the GEMM of the
    time-major low-rank projection, with delta_base added and softplus run
    in place in that GEMM's output. A no-grad scan reads x through a
    time-major view, where a recorded one copies it for the backward's
    weight gradients while it is still in cache (copied in the backward pass
    it cost about 5% of that pass), and each block's readout is formed
    token-major and added into its tokens of D (*) x, so a no-grad block's
    u = dt (*) x and readout are its only arrays besides its states and
    decays (the backward pass forms u again). The outer products (the
    injections outer(u_t, B_t), the adjoint seeds outer(dy_t, C_t) and the
    decays' dt_t * A) are einsums with no summed index, so they hold the
    products of the broadcast forms bit for bit without their slow
    broadcast loops. The three (L, ..., N, C) arrays of a recorded scan, the
    hidden states and the backward's adjoint and decay factors, come from
    ``T.buffer``, so inside a ``T.workspace`` a training step reuses the
    previous step's. The blocks of decays and no-grad states are not
    pooled: from a pool the no-grad block raised the page faults of a
    no-grad forward.
    """
    x, a, d = (T.as_tensor(t) for t in (x, a, d))
    if x.shape[-1] != proj.channels:
        raise ShapeError(
            f"token dim {x.shape[-1]} does not match projection input dim {proj.channels}"
        )
    T._check_broadcast(d, x)
    weights = tuple(proj.tensors().values())
    w_b, w_c, w_down, w_up, delta_base, b_b, b_c = (t.data for t in weights)
    length, ch, n = x.shape[-2], proj.channels, proj.state_dim
    states = (length,) + x.shape[:-2] + (n, ch)
    a_t = np.ascontiguousarray(np.broadcast_to(a.data, (ch, n)).T)
    r_t = _time_major(np.matmul(x.data, w_down))
    # one GEMM over every (step, lead) row; for L >= 2 the token-major product
    # is a GEMM too and the rows agree bit for bit (at L = 1 numpy takes a
    # vector kernel there instead, which agrees only at dt_rank 1)
    dt_t = np.matmul(r_t.reshape(-1, r_t.shape[-1]), w_up)
    dt_t += delta_base
    dt_t = T._softplus_np(dt_t, out=dt_t).reshape(r_t.shape[:-1] + (ch,))
    b_t = _time_major(np.matmul(x.data, w_b) + b_b)
    c_t = _time_major(np.matmul(x.data, w_c) + b_c)
    parents = (x, a, d) + weights
    # k steps of states and of their decays fit in _BLOCK_BYTES together
    k = min(length, max(1, _BLOCK_BYTES // (16 * int(np.prod(states[1:])))))
    decays = np.empty((k,) + states[1:])
    if T.recording(parents):  # backward reads x_t and every state: blocks are views of all L
        x_t, hs_all = _time_major(x.data), T.buffer(states)
    else:  # a time-major view of x, and one block of states that every block reuses
        x_t, hs_all = np.moveaxis(x.data, -2, 0), None
        block = np.empty_like(decays)
    y = d.data * x.data
    carry = np.empty_like(decays[0])  # the state before the block's first step
    for start in range(0, length, k):
        steps = slice(start, min(start + k, length))
        hs = block[:steps.stop - start] if hs_all is None else hs_all[steps]
        decay = np.einsum("l...c,nc->l...nc", dt_t[steps], a_t, out=decays[:len(hs)])
        np.exp(decay, out=decay)  # exp(dt_t * A) for the block's steps
        # the injections, then the states
        np.einsum("l...n,l...c->l...nc", b_t[steps], dt_t[steps] * x_t[steps], out=hs)
        for i in range(1 if start == 0 else 0, len(hs)):  # step 0 has no predecessor
            hs[i] += np.multiply(decay[i], hs[i - 1] if i else carry, out=decay[i])
        if not np.isfinite(hs[-1]).all():  # non-finite entries persist: the last state decides
            finite = np.isfinite(hs.reshape(len(hs), -1)).all(axis=1)
            raise NumericError(f"non-finite hidden state at step {start + int(np.argmin(finite))}")
        y[..., steps, :] += np.einsum("l...nc,l...n->...lc", hs, c_t[steps])
        np.copyto(carry, hs[-1])

    def backward(g):
        T._accumulate(d, T._unbroadcast(g * x.data, d.shape))
        g_t = _time_major(g)
        u_t = dt_t * x_t
        dh = np.einsum("l...n,l...c->l...nc", c_t, g_t, out=T.buffer(states))
        decay = np.einsum("l...c,nc->l...nc", dt_t, a_t, out=T.buffer(states))
        np.exp(decay, out=decay)  # exp(dt_t * A) for every step
        carry = np.empty_like(dh[0])
        for t in range(length - 2, -1, -1):
            dh[t] += np.multiply(decay[t + 1], dh[t + 1], out=carry)
        g_c = np.einsum("l...c,l...nc->l...n", g_t, hs_all)
        g_b = np.einsum("l...nc,l...c->l...n", dh, u_t)
        g_u = np.einsum("l...nc,l...n->l...c", dh, b_t)
        # gradient at z_t = dt_t * A: dh_t (*) h_{t-1} (*) exp(z_t), zero at t = 0
        g_z = decay[1:]
        g_z *= dh[1:]
        g_z *= hs_all[:-1]
        del dh
        g_a = np.einsum("knc,kc->cn", g_z.reshape(-1, n, ch), dt_t[1:].reshape(-1, ch))
        T._accumulate(a, T._unbroadcast(g_a, a.shape))
        g_pre = g_u * x_t
        g_pre[1:] += np.einsum("l...nc,nc->l...c", g_z, a_t)
        g_pre *= -np.expm1(-dt_t)  # softplus' derivative at dt_pre
        g_r = np.matmul(g_pre, w_up.T)
        x2, r2, g_b2, g_c2, g_r2, g_pre2 = (arr.reshape(-1, arr.shape[-1])
                                            for arr in (x_t, r_t, g_b, g_c, g_r, g_pre))
        for w, g_w in zip(weights, (x2.T @ g_b2, x2.T @ g_c2, x2.T @ g_r2, r2.T @ g_pre2,
                                    g_pre2.sum(axis=0), g_b2.sum(axis=0), g_c2.sum(axis=0))):
            T._accumulate(w, g_w)
        if x.requires_grad:
            g_x = g_u * dt_t
            g_x += np.matmul(g_b, w_b.T)
            g_x += np.matmul(g_c, w_c.T)
            g_x += np.matmul(g_r, w_down.T)
            T._accumulate(x, np.moveaxis(g_x, 0, -2) + g * d.data)

    return T._make(y, parents, backward)


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


def shared_state_readout(u, b_proj, c_proj) -> Tensor:
    """Fused op: y_t = H @ C_t with the shared state H = sum_t outer(u_t, B_t).

    u is (..., L, C), b_proj and c_proj are (..., L, N); the result is
    (..., L, C). H sums the token injections in a canonical (sorted) order,
    and every row is read out by the same elementwise arithmetic, so
    permuting the tokens of all three operands permutes the result bit for
    bit. (A BLAS matmul readout would not: its result for a row can depend on
    the row's position, e.g. at C = 1 with N >= 8.) The backward pass is four
    matmuls: dH = sum_t outer(dy_t, C_t), dC_t = H^T dy_t, du_t = dH B_t and
    dB_t = dH^T u_t.

    Internally H is held transposed, (..., N, C), so the elementwise work
    runs along the longer channel axis.
    """
    u, b_proj, c_proj = (T.as_tensor(t) for t in (u, b_proj, c_proj))
    if u.ndim < 2 or b_proj.shape != c_proj.shape or b_proj.shape[:-1] != u.shape[:-1]:
        raise ShapeError(
            f"shared-state operands disagree: u {u.shape}, "
            f"B {b_proj.shape}, C {c_proj.shape}"
        )
    terms = b_proj.data[..., :, None] * u.data[..., None, :]  # (..., L, N, C)
    terms.sort(axis=-3)
    h_t = terms.sum(axis=-3)                                  # (..., N, C)
    c = c_proj.data
    y = c[..., :, :1] * h_t[..., :1, :]
    term = np.empty_like(y)
    for k in range(1, h_t.shape[-2]):
        y += np.multiply(c[..., :, k:k + 1], h_t[..., k:k + 1, :], out=term)

    def backward(g):
        if c_proj.requires_grad:
            T._accumulate(c_proj, np.matmul(g, np.swapaxes(h_t, -1, -2)))
        if u.requires_grad or b_proj.requires_grad:
            g_h_t = np.matmul(np.swapaxes(c, -1, -2), g)  # dH transposed, (..., N, C)
            if u.requires_grad:
                T._accumulate(u, np.matmul(b_proj.data, g_h_t))
            if b_proj.requires_grad:
                T._accumulate(b_proj, np.matmul(u.data, np.swapaxes(g_h_t, -1, -2)))

    return T._make(y, (u, b_proj, c_proj), backward)


def nc_ssd(x, proj: SelectiveProjection, d) -> Tensor:
    """Non-causal variant: one global state shared by every token.

    The per-step decay is dropped entirely; the state is the plain sum of
    all token injections (``shared_state_readout``):

        H = sum_t outer(dt_t * x_t, B_t)      (per channel, length-N)
        y_t = H @ C_t + D (*) x_t

    The shared-state core is bit-exactly equivariant to token permutations.
    The whole map is only where ``project_params``' matmuls give a token's
    row the same bits at every position, which BLAS does not promise: with
    an output width of 3 or less (dt_rank 1, or N <= 3) some shapes break
    it, e.g. (L, C, N) = (27, 10, 1). The desk shape (64, 16, 4) holds.
    """
    x = T.as_tensor(x)
    d = T.as_tensor(d)
    b_proj, c_proj, dt = project_params(x, proj)
    y = shared_state_readout(T.mul(dt, x), b_proj, c_proj)
    return T.add(y, T.mul(d, x))
