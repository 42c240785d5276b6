"""A small frozen pre-norm transformer with a hand-written backward pass.

The backbone never trains: every weight draw is seeded and the arrays are
marked read-only.  Only the paradigm tensors (see `pet`) and the classifier
head receive gradients, through `pet`'s hooks at five points: the token
input and each block's Q, K, V and MLP output.  The forward pass records
an ActivationTrace with every insertion-site input, both for backprop and
for the projection module's feature buffers.

Layout conventions: tokens are rows and samples stack on a leading batch
axis, so x is (batch, seq_len, dim), a single sample is a batch of one,
and all linear maps multiply on the right.  Attention splits columns into heads, runs as (batch, heads, rows,
rows) batched matmuls, and scores are scaled by 1/sqrt(dim/heads).  The
classifier reads the mean of the final token rows; prompt rows are
excluded from the pool so prompt length never changes what the pooled
vector means.

A batch computes the same bits as its samples run one at a time: every
per-sample product stays its own matmul over the batch axis, and weight
gradients are summed over that axis in sample order, which is the order a
running per-sample sum adds them.  Folding the batch into the row axis or
contracting it inside one product would reorder the additions.

The last block computes its query side only for the rows the pool reads.
Prompt rows still pass through its first layernorm and supply keys and
values, but their queries, attention output, second layernorm, MLP and
final layernorm are skipped, because no later block and not the pool reads
them.  This keeps every bit of the all-rows pass: each of those ops works
row by row, so a token row's values do not depend on which other rows are
computed, and in backward the skipped rows would only have carried exact
zeros.  Where such a zero entered a sum over query rows (dv, dk), it was
added ahead of the first nonzero term and changed nothing; where it was
added into a per-row term (dq @ W_q.T, the residual dz_mid), the term is
now added into the token rows alone, with IEEE addition commutative.
Every other block, and every block of a trace without prompt rows, runs
all rows through the same code with the slices starting at row 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import pet as pet_mod

LN_EPS = 1e-8
# Rows per forward when evaluating or sampling features: one forward over a
# whole test split holds every activation at once and raises peak memory,
# while the results do not depend on the chunk size.
CHUNK_ROWS = 16


class StaleTraceError(RuntimeError):
    """Raised when backward() gets a trace recorded for different parameter
    values than the ones passed in."""


@dataclass
class TransformerConfig:
    depth: int = 2
    dim: int = 32
    heads: int = 4
    seq_len: int = 4
    mlp_ratio: float = 2.0
    num_classes: int = 2
    prompt_len: int = 4
    prefix_len: int = 4
    rank: int = 4

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.dim < 1 or self.heads < 1 or self.seq_len < 1:
            raise ValueError("dim, heads and seq_len must be positive")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if not np.isfinite(self.dim * self.mlp_ratio):
            raise ValueError(f"mlp_ratio must be finite, as must dim * mlp_ratio, got {self.mlp_ratio}")
        if int(self.dim * self.mlp_ratio) < 1:
            raise ValueError("mlp hidden size must be positive")
        if self.prompt_len < 0 or self.prefix_len < 0 or self.rank < 1:
            raise ValueError("bad pet hyper-parameters")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def mlp_hidden(self) -> int:
        return int(self.dim * self.mlp_ratio)


@dataclass
class FrozenWeights:
    """Seeded, immutable backbone weights.

    `classifier` is the seeded initial head; the trainer copies it into
    mutable state and trains the copy, never this array.
    """

    cfg: TransformerConfig
    embed: np.ndarray
    layers: list[dict]
    classifier: np.ndarray

    def freeze(self) -> None:
        self.embed.flags.writeable = False
        self.classifier.flags.writeable = False
        for layer in self.layers:
            for arr in layer.values():
                arr.flags.writeable = False


def init_backbone(cfg: TransformerConfig, seed) -> FrozenWeights:
    """Gaussian weights with std 1/sqrt(dim); layer-norm has no affine.

    Deterministic for a fixed (cfg, seed) and immutable afterwards.
    """
    rng = np.random.default_rng(seed)
    d = cfg.dim
    std = 1.0 / np.sqrt(d)
    layers = []
    for _ in range(cfg.depth):
        layers.append(
            {
                "w_q": rng.normal(0.0, std, size=(d, d)),
                "w_k": rng.normal(0.0, std, size=(d, d)),
                "w_v": rng.normal(0.0, std, size=(d, d)),
                "w_o": rng.normal(0.0, std, size=(d, d)),
                "w_1": rng.normal(0.0, std, size=(d, cfg.mlp_hidden)),
                "w_2": rng.normal(0.0, std, size=(cfg.mlp_hidden, d)),
            }
        )
    w = FrozenWeights(
        cfg=cfg,
        embed=rng.normal(0.0, std, size=(d, d)),
        layers=layers,
        classifier=rng.normal(0.0, std, size=(d, cfg.num_classes)),
    )
    w.freeze()
    return w


@dataclass
class ActivationTrace:
    """Everything backward() and the feature buffers need from a forward.

    Every array has the leading batch axis.  Each layer dict holds
    `query_from`, the first row its query side computed: 0, except in the last block of a trace with prompt rows,
    where it is the number of prompt rows (the pool reads only the token
    rows, see the module docstring).  A bypass adds its entries under the
    keys its `pet.Insertion` names (y, and the GELU factor of a GELU
    bypass).  Layer-norm has no affine, so its output is the normalised
    input that its backward reads: `a_in` and `m_in` in a layer, with the
    1/sqrt(var + eps) factors `inv1` and `inv2`, and `xhat_f` with `inv_f`
    after the last block.  The arrays computed from the query side (`q`,
    `attn`, `m_in`, `inv2`, `u`, `gelu_factor`, and the entries of a bypass
    at `q` or `mlp`) cover rows `query_from:` of the layer's sequence;
    `a_in`, `inv1`, `k`, `v` and the entries of a bypass at `v` cover all
    rows.  `xhat_f` and `inv_f` cover the token rows.
    """

    x_embed: np.ndarray
    layers: list[dict]
    xhat_f: np.ndarray
    inv_f: np.ndarray
    pooled: np.ndarray
    logits: np.ndarray
    pet_ref: object
    pet_version: int


def _rowmean(x):
    """x.mean(axis=-1, keepdims=True), bit for bit, without the Python
    wrapper `ndarray.mean` goes through on every call."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layernorm(x):
    """(xhat, inv): x normalised row by row, and 1 / sqrt(var + LN_EPS)."""
    xhat = x - _rowmean(x)
    inv = _rowmean(xhat * xhat)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, inv


def _layernorm_backward(dout, xhat, inv):
    """(dout - mean(dout) - xhat * mean(dout * xhat)) * inv, written into
    dout."""
    t = dout * xhat
    np.multiply(xhat, _rowmean(t), out=t)
    dout -= _rowmean(dout)
    dout -= t
    dout *= inv
    return dout


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, rows, d = x.shape
    return x.reshape(b, rows, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, rows, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, rows, h * dh)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written into s."""
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def forward(w: FrozenWeights, pet: pet_mod.PetState, x: np.ndarray, head: np.ndarray | None,
            need_trace: bool = True, blocks: int | None = None):
    """Run a batch of tokenized samples (batch x seq_len x dim) through the network.

    Returns ((batch, classes) logits, trace); trace is None when
    need_trace is False.  `head` is a (dim, classes) classifier: the
    trainer's mutable copy, or `w.classifier` where no head trains.
    With `head` None the pass stops at the pool and returns ((batch, dim)
    pooled vectors, None): it computes no logits and checks none.
    With `blocks` below the depth only the first `blocks` blocks run, with
    the bits of a full pass, and the result is (None, trace) with their
    layers alone, a trace to read feature sites from that `backward`
    refuses.

    The head, and any paradigm tensor, may instead be per-sample: a
    (batch, dim, classes) head or a (batch, ...) tensor gives each sample
    its own copy, and each sample's logits are the bits of a
    single-sample forward with that copy.  `backward` refuses such a trace.
    """
    cfg = w.cfg
    if x.ndim != 3 or x.shape[-1] != cfg.dim:
        raise ValueError(f"token batch must be (batch, seq_len, {cfg.dim}), got {x.shape}")
    if head is not None and head.ndim != 2 and (head.ndim != 3 or head.shape[0] != x.shape[0]):
        raise ValueError(f"head must be (dim, classes) or ({x.shape[0]}, dim, classes), got {head.shape}")
    scale = math.sqrt(cfg.head_dim)

    x_embed = x @ w.embed
    z = pet_mod.insert(pet, "tokens", None, x_embed)
    prompt_rows = z.shape[1] - x_embed.shape[1]

    layers = []
    last = len(w.layers) - 1
    for li, lw in enumerate(w.layers[:blocks]):
        rec = {} if need_trace else None
        query_from = prompt_rows if li == last else 0
        a_in, inv1 = _layernorm(z)
        a_q = a_in[:, query_from:]
        q = pet_mod.insert(pet, "q", li, a_q @ lw["w_q"], a_q, rec)
        k = pet_mod.insert(pet, "k", li, a_in @ lw["w_k"], a_in, rec)
        v = pet_mod.insert(pet, "v", li, a_in @ lw["w_v"], a_in, rec)

        kh = _split_heads(k, cfg.heads)
        scores = _split_heads(q, cfg.heads) @ kh.swapaxes(-1, -2)
        scores /= scale
        attn = _softmax_rows(scores)
        z_mid = _merge_heads(attn @ _split_heads(v, cfg.heads)) @ lw["w_o"]
        z_mid += z[:, query_from:]

        m_in, inv2 = _layernorm(z_mid)
        u = m_in @ lw["w_1"]
        gelu_factor = pet_mod.gelu_factor(u)
        z = pet_mod.insert(pet, "mlp", li, pet_mod.gelu(u, gelu_factor) @ lw["w_2"], m_in, rec)
        z += z_mid
        if need_trace:
            rec.update(a_in=a_in, inv1=inv1, attn=attn, k=k, v=v, q=q, m_in=m_in, inv2=inv2, u=u,
                       gelu_factor=gelu_factor, query_from=query_from)
            layers.append(rec)
    if blocks is not None and blocks < len(w.layers):
        return None, ActivationTrace(x_embed, layers, None, None, None, None, pet, pet.version)

    xhat_f, inv_f = _layernorm(z)
    pooled = np.add.reduce(xhat_f, axis=1) / xhat_f.shape[1]
    if head is None:
        return pooled, None
    logits = head_logits(pooled, head)
    trace = None
    if need_trace:
        trace = ActivationTrace(x_embed, layers, xhat_f, inv_f, pooled, logits, pet, pet.version)
    return logits, trace


def head_logits(pooled: np.ndarray, head: np.ndarray) -> np.ndarray:
    """(batch, classes) logits of (batch, dim) pooled vectors: one
    (1 x dim) @ (dim x classes) product per sample, the same kernel for
    every batch size.  Raises FloatingPointError on a non-finite logit."""
    logits = np.matmul(pooled[:, None, :], head)[:, 0]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    return logits


def head_gradient(pooled: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
    """d(loss)/d(head) of a shared head, summed over the batch in sample
    order."""
    return (pooled[:, :, None] * dlogits[:, None, :]).sum(axis=0)


def backward(trace: ActivationTrace, w: FrozenWeights, pet: pet_mod.PetState, dlogits: np.ndarray, head: np.ndarray):
    """Backpropagate d(loss)/d(logits) to the pet tensors and the head.

    ``dlogits`` is (batch, classes), the shape of the traced logits, and
    ``head`` is the head the trace was recorded with.  Returns (pet_grads,
    head_grad), each summed over the batch in sample order.  Raises
    StaleTraceError when the trace was recorded for a different PetState
    object or version.
    """
    if trace.pet_ref is not pet or trace.pet_version != pet.version:
        raise StaleTraceError("activation trace is stale for this PetState")
    if len(trace.layers) != len(w.layers):
        raise ValueError("incomplete activation trace")
    cfg = w.cfg
    # Gradients are summed over the batch and factors enter transposed, so
    # a per-sample tensor would give wrong gradients without an error.
    for name, arr in [*pet.params.items(), ("head", head)]:
        if arr.ndim != 2:
            raise ValueError(f"backward needs shared 2-D tensors; {name} has shape {arr.shape}")
    scale = math.sqrt(cfg.head_dim)
    if dlogits.shape != trace.logits.shape:
        raise ValueError(f"dlogits shape {dlogits.shape} does not match traced logits {trace.logits.shape}")

    grads = {}
    head_grad = head_gradient(trace.pooled, dlogits)
    dpooled = np.matmul(head, dlogits[:, :, None])[..., 0]

    dz_final = np.empty_like(trace.xhat_f)
    dz_final[:] = dpooled[:, None, :] / trace.xhat_f.shape[1]
    dz = _layernorm_backward(dz_final, trace.xhat_f, trace.inv_f)

    for li in reversed(range(cfg.depth)):
        lw = w.layers[li]
        t = trace.layers[li]
        query_from = t["query_from"]

        # MLP sub-block: z_out = z_mid + mlp(m_in) [+ bypass(m_in)]
        du = pet_mod.gelu_grad(t["u"], t["gelu_factor"])
        du *= dz @ lw["w_2"].T
        dm_in = du @ lw["w_1"].T
        pet_mod.bypass_grads(pet, "mlp", li, t, t["m_in"], dz, grads, dm_in)
        dz_mid = _layernorm_backward(dm_in, t["m_in"], t["inv2"])
        dz_mid += dz

        # attention sub-block: z_mid = z_in + o @ w_o
        doh = _split_heads(dz_mid @ lw["w_o"].T, cfg.heads)
        attn = t["attn"]
        kh = _split_heads(t["k"], cfg.heads)
        vh = _split_heads(t["v"], cfg.heads)
        # dscores = attn * (dattn - rowsum(dattn * attn)) / scale, in place
        dscores = doh @ vh.swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ doh
        dscores -= np.add.reduce(dscores * attn, axis=-1, keepdims=True)
        dscores *= attn
        dscores /= scale
        dq = _merge_heads(dscores @ kh)
        dkh = dscores.swapaxes(-1, -2) @ _split_heads(t["q"], cfg.heads)
        dk = pet_mod.rows_grads(pet, "k", li, _merge_heads(dkh), grads)
        dv = pet_mod.rows_grads(pet, "v", li, _merge_heads(dvh), grads)

        # dq and dz_mid cover rows query_from: only; on the other rows they
        # would be exact zeros, so adding them into the covered rows alone,
        # with IEEE addition commutative, gives the bits of
        # dq @ W_q.T + dk @ W_k.T + dv @ W_v.T and dz_mid + ln1 backward.
        # The bypass input gradients follow the frozen terms, q then v.
        da_in = dk @ lw["w_k"].T
        da_q = da_in[:, query_from:]
        da_q += dq @ lw["w_q"].T
        da_in += dv @ lw["w_v"].T
        pet_mod.bypass_grads(pet, "q", li, t, t["a_in"][:, query_from:], dq, grads, da_q)
        pet_mod.bypass_grads(pet, "v", li, t, t["a_in"], dv, grads, da_in)

        dz = _layernorm_backward(da_in, t["a_in"], t["inv1"])
        dz[:, query_from:] += dz_mid

    pet_mod.rows_grads(pet, "tokens", None, dz, grads)
    return {name: grads[name] for name in pet.params}, head_grad
