"""A small frozen pre-norm transformer with a hand-written backward pass.

The backbone never trains: every weight draw is seeded and the arrays are
marked read-only.  Only the paradigm tensors (see `pet`) and the classifier
head receive gradients.  The forward pass records an ActivationTrace with
every insertion-site input, both for backprop and for the projection
module's feature buffers.

Layout conventions: tokens are rows and samples stack on a leading batch
axis, so x is (batch, seq_len, dim) and all linear maps multiply on the
right.  Attention splits columns into heads, runs as (batch, heads, rows,
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

from dataclasses import dataclass, field

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
        if not np.isfinite(self.mlp_ratio):
            raise ValueError(f"mlp_ratio must be finite, got {self.mlp_ratio}")
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
    lnf_g: np.ndarray
    lnf_b: np.ndarray

    def freeze(self) -> None:
        self.embed.flags.writeable = False
        self.classifier.flags.writeable = False
        self.lnf_g.flags.writeable = False
        self.lnf_b.flags.writeable = False
        for layer in self.layers:
            for arr in layer.values():
                arr.flags.writeable = False


def init_backbone(cfg: TransformerConfig, seed) -> FrozenWeights:
    """Gaussian weights with std 1/sqrt(dim), layer-norm at identity.

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
                "ln1_g": np.ones(d),
                "ln1_b": np.zeros(d),
                "ln2_g": np.ones(d),
                "ln2_b": np.zeros(d),
            }
        )
    w = FrozenWeights(
        cfg=cfg,
        embed=rng.normal(0.0, std, size=(d, d)),
        layers=layers,
        classifier=rng.normal(0.0, std, size=(d, cfg.num_classes)),
        lnf_g=np.ones(d),
        lnf_b=np.zeros(d),
    )
    w.freeze()
    return w


@dataclass
class ActivationTrace:
    """Everything backward() and the feature buffers need from a forward.

    Every array keeps the leading batch axis, also for a single sample.
    Each layer dict holds `query_from`, the first row its query side
    computed: 0, except in the last block of a trace with prompt rows,
    where it is `prompt_rows` (the pool reads only the token rows, see the
    module docstring).  The arrays computed from the query side (`q`,
    `attn`, `m_in`, `xhat2`, `inv2`, `u`, `gelu_factor`, and `y_a` and
    `adapter_factor` where set) cover rows `query_from:` of the
    layer's sequence; `a_in`, `xhat1`, `inv1`, `k` and `v` cover all rows.
    `xhat_f` and `inv_f` cover the token rows.
    """

    x_embed: np.ndarray
    prompt_rows: int
    layers: list[dict] = field(default_factory=list)
    xhat_f: np.ndarray | None = None
    inv_f: np.ndarray | None = None
    pooled: np.ndarray | None = None
    logits: np.ndarray | None = None
    pet_ref: object = None
    pet_version: int = -1


def _rowmean(x):
    """x.mean(axis=-1, keepdims=True), bit for bit, without the Python
    wrapper `ndarray.mean` goes through on every call."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layernorm(x, g, b):
    mu = _rowmean(x)
    xc = x - mu
    var = _rowmean(xc * xc)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, xhat, inv


def _layernorm_backward(dout, xhat, inv, g):
    dxhat = dout * g
    return (dxhat - _rowmean(dxhat) - xhat * _rowmean(dxhat * xhat)) * inv


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, rows, d = x.shape
    return x.reshape(b, rows, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, rows, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, rows, h * dh)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - np.maximum.reduce(s, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def forward(w: FrozenWeights, pet: pet_mod.PetState, x: np.ndarray, head: np.ndarray | None = None, need_trace: bool = True):
    """Run a batch of tokenized samples (batch x seq_len x dim) through the network.

    A single (seq_len x dim) sample is a batch of one; its logits come
    back without the batch axis, its trace keeps it.  Returns (logits,
    trace); trace is None when need_trace is False.  The head defaults to
    the frozen seeded classifier; the trainer passes its own mutable copy.
    """
    cfg = w.cfg
    if x.ndim not in (2, 3) or x.shape[-1] != cfg.dim:
        raise ValueError(f"token matrix must be ([batch,] seq_len, {cfg.dim}), got {x.shape}")
    single = x.ndim == 2
    if single:
        x = x[None]
    paradigm = pet.paradigm
    params = pet.params
    head = w.classifier if head is None else head

    x_embed = x @ w.embed
    if paradigm == "prompt":
        z = pet_mod.apply_prompt(params["prompt"], x_embed)
        prompt_rows = params["prompt"].shape[0]
    else:
        z = x_embed.copy()
        prompt_rows = 0

    trace = None
    if need_trace:
        trace = ActivationTrace(x_embed=x_embed, prompt_rows=prompt_rows, pet_ref=pet, pet_version=pet.version)

    last = len(w.layers) - 1
    for li, lw in enumerate(w.layers):
        query_from = prompt_rows if li == last else 0
        a_in, xhat1, inv1 = _layernorm(z, lw["ln1_g"], lw["ln1_b"])
        q = a_in[:, query_from:] @ lw["w_q"]
        k = a_in @ lw["w_k"]
        v = a_in @ lw["w_v"]
        y_q = y_v = None
        if paradigm == "lora":
            q, y_q = pet_mod.apply_lora(params[f"lora_q_down.{li}"], params[f"lora_q_up.{li}"], a_in, q)
            v, y_v = pet_mod.apply_lora(params[f"lora_v_down.{li}"], params[f"lora_v_up.{li}"], a_in, v)
        if paradigm == "prefix":
            k, v = pet_mod.apply_prefix(params[f"prefix_k.{li}"], params[f"prefix_v.{li}"], k, v)

        qh = _split_heads(q, cfg.heads)
        kh = _split_heads(k, cfg.heads)
        vh = _split_heads(v, cfg.heads)
        attn = _softmax_rows(qh @ kh.swapaxes(-1, -2) / np.sqrt(cfg.head_dim))
        o = _merge_heads(attn @ vh)
        attn_out = o @ lw["w_o"]
        z_mid = z[:, query_from:] + attn_out

        m_in, xhat2, inv2 = _layernorm(z_mid, lw["ln2_g"], lw["ln2_b"])
        u = m_in @ lw["w_1"]
        gelu_factor = pet_mod.gelu_factor(u)
        mlp = pet_mod.gelu(u, gelu_factor) @ lw["w_2"]
        y_a = adapter_factor = None
        if paradigm == "adapter":
            mlp, y_a, adapter_factor = pet_mod.apply_adapter(params[f"adapter_down.{li}"], params[f"adapter_up.{li}"], m_in, mlp)
        z_out = z_mid + mlp

        if trace is not None:
            trace.layers.append(
                {
                    "a_in": a_in,
                    "xhat1": xhat1,
                    "inv1": inv1,
                    "attn": attn,
                    "k": k,
                    "v": v,
                    "q": q,
                    "m_in": m_in,
                    "xhat2": xhat2,
                    "inv2": inv2,
                    "u": u,
                    "gelu_factor": gelu_factor,
                    "y_q": y_q,
                    "y_v": y_v,
                    "y_a": y_a,
                    "adapter_factor": adapter_factor,
                    "query_from": query_from,
                }
            )
        z = z_out

    z_final, xhat_f, inv_f = _layernorm(z, w.lnf_g, w.lnf_b)
    pooled = np.add.reduce(z_final, axis=1) / z_final.shape[1]
    # One (1 x dim) @ (dim x classes) product per sample, the same kernel
    # for every batch size.
    logits = np.matmul(pooled[:, None, :], head)[:, 0]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    if trace is not None:
        trace.xhat_f = xhat_f
        trace.inv_f = inv_f
        trace.pooled = pooled
        trace.logits = logits
    return (logits[0] if single else logits), trace


def backward(trace: ActivationTrace, w: FrozenWeights, pet: pet_mod.PetState, dlogits: np.ndarray, head: np.ndarray | None = None):
    """Backpropagate d(loss)/d(logits) to the pet tensors and the head.

    ``dlogits`` is (batch, classes), or (classes,) for a batch of one.
    Returns (pet_grads, head_grad), each summed over the batch in sample
    order.  Raises StaleTraceError when the trace was recorded for a
    different PetState object or version.
    """
    if trace.pet_ref is not pet or trace.pet_version != pet.version:
        raise StaleTraceError("activation trace is stale for this PetState")
    if trace.pooled is None or trace.xhat_f is None or len(trace.layers) != len(w.layers):
        raise ValueError("incomplete activation trace")
    cfg = w.cfg
    paradigm = pet.paradigm
    params = pet.params
    head = w.classifier if head is None else head
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.ndim == 1:
        dlogits = dlogits[None]
    if dlogits.shape != trace.logits.shape:
        raise ValueError(f"dlogits shape {dlogits.shape} does not match traced logits {trace.logits.shape}")

    grads = {}
    head_grad = (trace.pooled[:, :, None] * dlogits[:, None, :]).sum(axis=0)
    dpooled = np.matmul(head, dlogits[:, :, None])[..., 0]

    dz_final = np.empty_like(trace.xhat_f)
    dz_final[:] = dpooled[:, None, :] / trace.xhat_f.shape[1]
    dz = _layernorm_backward(dz_final, trace.xhat_f, trace.inv_f, w.lnf_g)

    for li in reversed(range(cfg.depth)):
        lw = w.layers[li]
        t = trace.layers[li]
        query_from = t["query_from"]

        # MLP sub-block: z_out = z_mid + mlp(m_in) [+ adapter bypass]
        dmlp = dz
        dm_in = np.zeros_like(t["m_in"])
        if paradigm == "adapter":
            w_dn = params[f"adapter_down.{li}"]
            w_up = params[f"adapter_up.{li}"]
            pre = t["y_a"] @ w_up
            g = pet_mod.gelu_grad(pre, t["adapter_factor"]) * dmlp
            grads[f"adapter_up.{li}"] = (t["y_a"].swapaxes(-1, -2) @ g).sum(axis=0)
            dy_a = g @ w_up.T
            grads[f"adapter_down.{li}"] = (t["m_in"].swapaxes(-1, -2) @ dy_a).sum(axis=0)
            dm_in += dy_a @ w_dn.T
        dact = dmlp @ lw["w_2"].T
        du = dact * pet_mod.gelu_grad(t["u"], t["gelu_factor"])
        dm_in += du @ lw["w_1"].T
        dz_mid = dz + _layernorm_backward(dm_in, t["xhat2"], t["inv2"], lw["ln2_g"])

        # attention sub-block: z_mid = z_in + o @ w_o
        do = dz_mid @ lw["w_o"].T
        doh = _split_heads(do, cfg.heads)
        attn = t["attn"]
        kh = _split_heads(t["k"], cfg.heads)
        vh = _split_heads(t["v"], cfg.heads)
        dattn = doh @ vh.swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ doh
        dscores = attn * (dattn - np.add.reduce(dattn * attn, axis=-1, keepdims=True))
        dscores /= np.sqrt(cfg.head_dim)
        dqh = dscores @ kh
        dkh = dscores.swapaxes(-1, -2) @ _split_heads(t["q"], cfg.heads)
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)

        if paradigm == "prefix":
            n_pref = params[f"prefix_k.{li}"].shape[0]
            grads[f"prefix_k.{li}"] = dk[:, :n_pref].sum(axis=0)
            grads[f"prefix_v.{li}"] = dv[:, :n_pref].sum(axis=0)
            dk = dk[:, n_pref:]
            dv = dv[:, n_pref:]

        # dq and dz_mid cover rows query_from: only; on the other rows they
        # would be exact zeros, so adding them into the covered rows alone,
        # with IEEE addition commutative, gives the bits of
        # dq @ W_q.T + dk @ W_k.T + dv @ W_v.T and dz_mid + ln1 backward.
        da_in = dk @ lw["w_k"].T
        da_in[:, query_from:] += dq @ lw["w_q"].T
        da_in += dv @ lw["w_v"].T
        if paradigm == "lora":
            for slot, dslot in (("q", dq), ("v", dv)):
                w_dn = params[f"lora_{slot}_down.{li}"]
                w_up = params[f"lora_{slot}_up.{li}"]
                y = t[f"y_{slot}"]
                grads[f"lora_{slot}_up.{li}"] = (y.swapaxes(-1, -2) @ dslot).sum(axis=0)
                dy = dslot @ w_up.T
                grads[f"lora_{slot}_down.{li}"] = (t["a_in"].swapaxes(-1, -2) @ dy).sum(axis=0)
                da_in += dy @ w_dn.T

        dz = _layernorm_backward(da_in, t["xhat1"], t["inv1"], lw["ln1_g"])
        dz[:, query_from:] += dz_mid

    if paradigm == "prompt":
        grads["prompt"] = dz[:, :trace.prompt_rows].sum(axis=0)

    return {name: grads[name] for name in params}, head_grad
