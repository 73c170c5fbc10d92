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
It runs the recurrence step by step in one reused cache-sized block of
steps, each block forming its own decay factors, so the state never fills
main memory (Mamba's kernel keeps it in SRAM). Its forward is the same
whether it records or not: a recorded scan keeps only the state entering
each block, and its hand-derived reverse-time adjoint reruns each block
from that state rather than storing all L states (the recipe of Mamba,
section 3.3). The chunked route projects with ``project_params``, composes
affine maps h -> a (*) h + b and records every step on the tensor graph,
in ops the model records too, plus ``reshape``; it is the oracle the fused
op is tested against. The non-causal variant
collapses the recurrence into one global state shared by all tokens; its
core is one fused op too, with a four-matmul backward, and the graph
composition it replaced is its test oracle (tests/oracles.py).

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

    One nested ``run`` does a block of k steps' work: it forms the block's
    decays exp(dt_t * A) with one einsum and one exp, then its states, each
    step one multiply into a reused state-sized product and one add, from
    the state entering the block. A block's states and decays fit in
    ``_BLOCK_BYTES`` together, and every block reuses the same array, so no
    (L, ..., N, C) array is made by the forward. The forward walks the
    blocks with ``run`` and is the same whether the op records (see
    ``T.recording``) or not: recording decides only what the op keeps for
    its backward pass, which is the state entering each block and a
    time-major copy of x. Every value is the same single rounding at any k,
    so the op gives the same bits at every block size. Raises NumericError
    naming the first step whose hidden state is not finite. A non-finite
    entry stays non-finite through every later step, because the decay is
    >= 0 or NaN, so only each block's last state is checked; the block's
    steps are read one by one only after it fails.

    The backward pass runs the adjoint recurrence
    dh_t = outer(dy_t, C_t) + exp(dt_{t+1} * A) (*) dh_{t+1} in reverse time
    in one (L, ..., N, C) array, the op's only one. It walks the blocks
    last first: it reruns each with ``run`` from its stored entry state,
    pushes the adjoint through the block and into the block before, forms
    the block's gradients at C, B and u = dt (*) x, and then turns the
    block of dh into the gradient at z_t = dt_t * A in place. The gradient
    of A is one contraction over every step of that array, as though all L
    states had been kept, so every gradient keeps its bits. softplus'
    derivative comes from the op's own output (sigmoid(z) =
    -expm1(-softplus(z))), and each weight gradient is one matmul over the
    flattened batch and tokens.

    Internally every per-step array is time-major with the state axis ahead
    of the channel axis, (L, ..., N, C), so the elementwise work runs along
    the longer channel axis; the token-major projections are dropped as soon
    as their time-major copies exist, and dt_pre is the GEMM of the
    time-major low-rank projection, with delta_base added and softplus run
    in place in that GEMM's output. A no-grad scan reads x through a
    time-major view, where a recorded one copies it for the backward's
    weight gradients while it is still in cache (copied in the backward pass
    it cost about 5% of that pass), and each block's readout is formed
    token-major and added into its tokens of D (*) x. The outer products
    (the injections outer(u_t, B_t), the adjoint seeds outer(dy_t, C_t) and
    the decays' dt_t * A) are einsums with no summed index, so they hold the
    products of the broadcast forms bit for bit without their slow
    broadcast loops. The adjoint and the block arrays are plain allocations:
    under the malloc thresholds that importing ``tensor`` pins they come back
    from the heap's free memory, step after step, without faulting in again.
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
    recorded = T.recording(parents)
    # the backward's weight gradients read x time-major: a recorded scan copies it
    x_t = _time_major(x.data) if recorded else np.moveaxis(x.data, -2, 0)
    # k steps of states and of their decays fit in _BLOCK_BYTES together
    k = min(length, max(1, _BLOCK_BYTES // (16 * int(np.prod(states[1:])))))

    def run(start, before, work):
        """The block of steps from ``start``, from the state ``before`` it: its
        steps, and its states, decays and one step's product in ``work``."""
        steps = slice(start, min(start + k, length))
        hs, decay, term = work[:steps.stop - start], work[k:k + steps.stop - start], work[-1]
        np.einsum("l...c,nc->l...nc", dt_t[steps], a_t, out=decay)
        np.exp(decay, out=decay)  # exp(dt_t * A) for the block's steps
        # the injections, then the states
        np.einsum("l...n,l...c->l...nc", b_t[steps], dt_t[steps] * x_t[steps], out=hs)
        for i in range(1 if start == 0 else 0, len(hs)):  # step 0 has no predecessor
            hs[i] += np.multiply(decay[i], hs[i - 1] if i else before, out=term)
        return steps, hs, decay, term

    # k states, k decays and one step's product; a backward pass makes its own
    work = np.empty((2 * k + 1,) + states[1:])
    # a recorded scan keeps the state before each block (and one after the
    # last) for its backward pass; otherwise one state is reused: row j * recorded
    entries = np.empty((-(-length // k) + 1 if recorded else 1,) + states[1:])
    y = d.data * x.data
    for j, start in enumerate(range(0, length, k)):
        steps, hs, _, _ = run(start, entries[j * recorded], work)
        if not np.isfinite(hs[-1]).all():  # non-finite entries persist: the last state decides
            finite = np.isfinite(hs.reshape(len(hs), -1)).all(axis=1)
            raise NumericError(f"non-finite hidden state at step {start + int(np.argmin(finite))}")
        y[..., steps, :] += np.einsum("l...nc,l...n->...lc", hs, c_t[steps])
        np.copyto(entries[(j + 1) * recorded], hs[-1])

    def backward(g):
        T._accumulate(d, T._unbroadcast(g * x.data, d.shape))
        g_t = _time_major(g)
        u_t = dt_t * x_t
        dh = np.einsum("l...n,l...c->l...nc", c_t, g_t, out=np.empty(states))
        g_c, g_b, g_u = np.empty_like(c_t), np.empty_like(b_t), np.empty_like(x_t)
        work = np.empty((2 * k + 1,) + states[1:])  # the graph keeps no block between passes
        for start in reversed(range(0, length, k)):
            steps, hs, decay, term = run(start, entries[start // k], work)
            # dh_{t-1} += exp(z_t) (*) dh_t, into the block before from its first step
            for t in range(steps.stop - 1, max(start, 1) - 1, -1):
                dh[t - 1] += np.multiply(decay[t - start], dh[t], out=term)
            np.einsum("l...c,l...nc->l...n", g_t[steps], hs, out=g_c[steps])
            np.einsum("l...nc,l...c->l...n", dh[steps], u_t[steps], out=g_b[steps])
            np.einsum("l...nc,l...n->l...c", dh[steps], b_t[steps], out=g_u[steps])
            # dh_t becomes the gradient at z_t = dt_t * A, dh_t (*) exp(z_t) (*) h_{t-1},
            # from step 1 on (step 0 has no predecessor): h_{t-1} is the entry
            # state at the block's first step, its own state before at the others
            first = 1 if start == 0 else 0
            g_z = dh[start + first:steps.stop]
            g_z *= decay[first:]
            g_z[1 - first:] *= hs[:-1]
            g_z[:1 - first] *= entries[start // k]
        g_z = dh[1:]
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
            g_x = g_u * dt_t + g_b @ w_b.T + g_c @ w_c.T + g_r @ w_down.T
            T._accumulate(x, np.moveaxis(g_x, 0, -2) + g * d.data)

    return T._make(y, parents, backward)


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
    length = x.shape[-2]
    lead = x.shape[:-2]
    ch, n = proj.channels, proj.state_dim
    a_exp = T.exp(T.mul(T.reshape(dt, dt.shape + (1,)), a))        # (..., L, C, N)
    binj = T.mul(T.reshape(b_proj, lead + (length, 1, n)),
                 T.reshape(T.mul(dt, x), lead + (length, ch, 1)))  # (..., L, C, N)

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
    c_proj = T.reshape(c_proj, lead + (k, chunk, 1, n))

    # within-chunk prefix maps h -> a (*) h + b, vectorized over the k chunks:
    # step j's map after the prefix is a_j (*) a, a_j (*) b + b_j
    a_pref = [T.select_index(a_exp, -3, 0)]
    b_pref = [T.select_index(binj, -3, 0)]
    for j in range(1, chunk):
        a_j, b_j = T.select_index(a_exp, -3, j), T.select_index(binj, -3, j)
        a_pref.append(T.mul(a_j, a_pref[-1]))
        b_pref.append(T.add(T.mul(a_j, b_pref[-1]), b_j))

    # chunk-boundary states: s_{k+1} = A_last[k] (*) s_k + B_last[k]
    states = [Tensor(np.zeros(lead + (ch, n)))]
    for kk in range(1, k):
        a_last = T.select_index(a_pref[-1], -3, kk - 1)
        b_last = T.select_index(b_pref[-1], -3, kk - 1)
        states.append(T.add(T.mul(a_last, states[-1]), b_last))
    s = T.concat([T.reshape(st, lead + (1, ch, n)) for st in states], axis=-3)  # (..., k, ch, n)

    # reconstruct every hidden state, (..., k, chunk, ch, n), and read it out
    hs = [T.add(T.mul(a_pref[j], s), b_pref[j]) for j in range(chunk)]
    h = T.concat([T.reshape(hj, lead + (k, 1, ch, n)) for hj in hs], axis=-3)
    if not np.all(np.isfinite(h.data)):
        raise NumericError("non-finite hidden state in chunked scan")
    y = T.sum_(T.mul(h, c_proj), axis=-1)  # (..., k, chunk, ch)
    y = T.reshape(y, lead + (padded, ch))
    if padded > length:
        y = T.take(y, np.arange(length), -2)
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
