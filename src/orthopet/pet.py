"""The four parameter-efficient tuning paradigms.

This module is the single place that knows which tensors each paradigm
trains and how they touch the transformer.  `PARADIGM_TENSORS` describes
each paradigm once: every tensor's shape, its init, the block point it
changes, the feature site that constrains it and the gradient axis its
projector acts on.  `SITES` says where a site's rows sit in an activation
trace and how wide they are.  Initialization, the site list, feature
sampling, gradient projection and both passes are read from these tables.

A paradigm enters a block in one of two ways: rows prepended to the
tokens, K or V (prompt, prefix), or a down/up bypass added to Q, V or the
MLP output (LoRA; the adapter, with GELU).  The backbone calls `insert`
at the five points forward and `rows_grads`/`bypass_grads` backward, and
never names a paradigm.  Activations carry a leading batch axis, (batch,
rows, width), or are one (rows, width) sample.  In the forward pass a
paradigm tensor is either shared by every sample or per-sample, with a
leading axis of the batch size and one copy per sample; a batch computes
the same bits as its samples run one at a time with their own copies.
The backward pass takes shared tensors only.  The functions never mutate
their inputs.
"""

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np
from scipy.special import erf

PROMPT_INIT_STD = 0.02
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def check_paradigm(name: str) -> str:
    if name not in PARADIGMS:
        raise ValueError(f"unknown paradigm {name!r}; expected one of {PARADIGMS}")
    return name


def gelu_factor(x: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt 2), the factor GELU and its derivative share."""
    return 1.0 + erf(x / _SQRT_2)


def gelu(x: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """Exact (erf-based) GELU; gelu(0) = 0, which is what makes a zero-init
    adapter bypass an exact identity.  Pass `gelu_factor(x)` to reuse it;
    the result is the same either way."""
    if factor is None:
        factor = gelu_factor(x)
    return 0.5 * x * factor


def gelu_grad(x: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    if factor is None:
        factor = gelu_factor(x)
    return 0.5 * factor + x * np.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass
class PetState:
    """Trainable tensors for one paradigm, keyed by stable names.

    Keys are `prompt`, `prefix_k.<layer>` / `prefix_v.<layer>`,
    `adapter_down.<layer>` / `adapter_up.<layer>`, and
    `lora_{q,v}_{down,up}.<layer>`.  `version` counts in-place updates so a
    cached activation trace can detect staleness; it is bookkeeping, not a
    trainable quantity.
    """

    paradigm: str
    params: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = 0

    def bump(self) -> None:
        self.version += 1


@dataclass(frozen=True)
class SiteKind:
    """Where a site kind's feature rows sit in an ActivationTrace and which
    TransformerConfig field gives their width.  A per-layer kind names one
    site per layer (`attn_in.0`, ...) and reads `trace.layers[i][trace_key]`;
    the embed site reads `trace.x_embed`.
    """

    trace_key: str
    width: str
    per_layer: bool = True


SITES = {
    "embed": SiteKind("x_embed", "dim", per_layer=False),
    "attn_in": SiteKind("a_in", "dim"),
    "mlp_in": SiteKind("m_in", "dim"),
    "adapter_mid": SiteKind("y_a", "rank"),
    "lora_q_mid": SiteKind("y_q", "rank"),
    "lora_v_mid": SiteKind("y_v", "rank"),
}


@dataclass(frozen=True)
class TensorSpec:
    """One trainable tensor template of a paradigm.

    `shape` names the two TransformerConfig fields that size it.  `init` is
    "rows" (Gaussian, std PROMPT_INIT_STD), "down" (Gaussian, std
    1/sqrt(dim)) or "up" (zeros).  Rows are prepended to the block value
    at `point` ("tokens", "q", "k", "v" or "mlp"); a down and an up factor
    at the same point form a bypass added to it, wrapped in GELU when the
    up factor sets `gelu`.  `site` is the SITES kind whose feature rows the
    tensor consumes; their null-space basis constrains its gradient on
    `axis`: axis 1 projects as (g @ B) @ B.T (token rows live in feature
    space), axis 0 as B @ (B.T @ g) (factors consume features on their
    input dimension).  With `merge` set, the site basis is merged with the
    null basis of the tensor's own rows before it projects, and the merged
    basis is keyed by the tensor's name.
    """

    name: str
    shape: tuple[str, str]
    init: str
    point: str
    site: str
    axis: int
    merge: bool = False
    gelu: bool = False


PARADIGM_TENSORS = {
    "prompt": (
        TensorSpec("prompt", ("prompt_len", "dim"), "rows", "tokens", "embed", 1, merge=True),
    ),
    "prefix": (
        TensorSpec("prefix_k", ("prefix_len", "dim"), "rows", "k", "attn_in", 1),
        TensorSpec("prefix_v", ("prefix_len", "dim"), "rows", "v", "attn_in", 1),
    ),
    "adapter": (
        TensorSpec("adapter_down", ("dim", "rank"), "down", "mlp", "mlp_in", 0),
        TensorSpec("adapter_up", ("rank", "dim"), "up", "mlp", "adapter_mid", 0, gelu=True),
    ),
    "lora": (
        TensorSpec("lora_q_down", ("dim", "rank"), "down", "q", "attn_in", 0),
        TensorSpec("lora_q_up", ("rank", "dim"), "up", "q", "lora_q_mid", 0),
        TensorSpec("lora_v_down", ("dim", "rank"), "down", "v", "attn_in", 0),
        TensorSpec("lora_v_up", ("rank", "dim"), "up", "v", "lora_v_mid", 0),
    ),
}
PARADIGMS = tuple(PARADIGM_TENSORS)


class Route(NamedTuple):
    """One trainable tensor of a model: its parameter key, the site whose
    features constrain it, the key of the basis that projects its gradient,
    and its template."""

    name: str
    site: str
    basis: str
    spec: TensorSpec


def routes(paradigm: str, depth: int) -> list[Route]:
    """Every trainable tensor of a paradigm, layer by layer in table order.

    A tensor on a per-layer site gets one copy per layer, keyed
    `<name>.<layer>`; a tensor on the embed site exists once.
    """
    specs = PARADIGM_TENSORS[check_paradigm(paradigm)]
    out = []
    for layer in range(depth):
        for spec in specs:
            per_layer = SITES[spec.site].per_layer
            if per_layer or layer == 0:
                tag = f".{layer}" if per_layer else ""
                name, site = spec.name + tag, spec.site + tag
                out.append(Route(name, site, name if spec.merge else site, spec))
    return out


_INITS = {
    "rows": lambda rng, d, shape: rng.normal(0.0, PROMPT_INIT_STD, size=shape),
    "down": lambda rng, d, shape: rng.normal(0.0, 1.0 / np.sqrt(d), size=shape),
    "up": lambda rng, d, shape: np.zeros(shape),
}


def init_pet(cfg, paradigm: str, seed) -> PetState:
    """Seeded paradigm state, drawn tensor by tensor in `routes` order.

    Prompt and prefix rows are small Gaussians (std 0.02).  Bottleneck
    down-factors are Gaussian with std 1/sqrt(dim) and up-factors start at
    zero, so every bypass is exactly the identity before training.
    """
    rng = np.random.default_rng(seed)
    params = {
        r.name: _INITS[r.spec.init](rng, cfg.dim, tuple(getattr(cfg, f) for f in r.spec.shape))
        for r in routes(paradigm, cfg.depth)
    }
    return PetState(paradigm=paradigm, params=params)


def _check(what: str, x: np.ndarray, *params: np.ndarray) -> None:
    """A parameter is 2-D and shared, or 3-D with one copy per sample of
    a (batch, rows, width) input."""
    if x.ndim < 2 or any(p.ndim != 2 and (p.ndim != 3 or x.ndim != 3 or p.shape[0] != x.shape[0])
                         for p in params):
        raise ValueError(f"{what}: expected ([batch,] rows, width) inputs and 2-D parameters, "
                         f"or 3-D ones with the batch axis; got x {x.shape}, "
                         f"parameters {[p.shape for p in params]}")


def _prepend(what: str, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Concatenate the rows of p ahead of the rows of every sample in x."""
    _check(what, x, p)
    if p.shape[-1] != x.shape[-1]:
        raise ValueError(f"{what} width {p.shape[-1]} != row width {x.shape[-1]}")
    return np.concatenate([np.broadcast_to(p, x.shape[:-2] + p.shape[-2:]), x], axis=-2)


def apply_prompt(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Prepend prompt rows to the token embeddings of every sample."""
    return _prepend("prompt", p, x)


def apply_prefix(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Prepend prefix rows to every sample's attention K or V."""
    return _prepend("prefix", p, x)


def _bypass(what: str, w_down: np.ndarray, w_up: np.ndarray, x: np.ndarray, base: np.ndarray, act: bool):
    """(base + [gelu](y @ w_up), y = x @ w_down for the buffers, and the
    `gelu_factor` of y @ w_up for backward if `act` else None)."""
    _check(what, x, w_down, w_up)
    if x.shape[-1] != w_down.shape[-2] or w_down.shape[-1] != w_up.shape[-2]:
        raise ValueError(f"{what} shape mismatch: x {x.shape}, down {w_down.shape}, up {w_up.shape}")
    if base.shape != x.shape[:-1] + (w_up.shape[-1],):
        raise ValueError(f"{what}: output shape {base.shape} does not match bypass")
    y = x @ w_down
    pre = y @ w_up
    if not act:
        return base + pre, y, None
    factor = gelu_factor(pre)
    return base + gelu(pre, factor), y, factor


def apply_adapter(w_down: np.ndarray, w_up: np.ndarray, x: np.ndarray, backbone_out: np.ndarray):
    """Bottleneck bypass: backbone_out + gelu(x @ w_down @ w_up), with y and the GELU factor."""
    return _bypass("adapter", w_down, w_up, x, backbone_out, True)


def apply_lora(w_down: np.ndarray, w_up: np.ndarray, x: np.ndarray, base_out: np.ndarray):
    """Low-rank bypass: base_out + x @ w_down @ w_up, with y and no factor."""
    return _bypass("lora", w_down, w_up, x, base_out, False)


class Insertion(NamedTuple):
    """A paradigm's entry at one block point of one layer: the name of the
    `apply_*` function that runs it (looked up per call, so a rebound module
    attribute is honoured), its parameter keys (rows, or a down and an up
    factor) and, for a bypass alone, the trace key of y = x @ down and
    whether GELU wraps its output, whose factor goes under `factor_key`.
    """

    apply: str
    names: tuple[str, ...]
    trace_key: str | None = None
    gelu: bool = False

    @property
    def factor_key(self) -> str:
        return f"{self.trace_key}_factor"


@cache
def insertion(paradigm: str, point: str, layer: int | None) -> Insertion | None:
    """The Insertion of a paradigm at a block point (layer None for
    `tokens`), or None where the paradigm does not enter."""
    specs = [s for s in PARADIGM_TENSORS[check_paradigm(paradigm)] if s.point == point]
    if not specs:
        return None
    names = tuple(s.name if layer is None else f"{s.name}.{layer}" for s in specs)
    if specs[0].init == "rows":
        return Insertion(f"apply_{paradigm}", names)
    up = specs[1]
    return Insertion(f"apply_{paradigm}", names, SITES[up.site].trace_key, up.gelu)


def insert(pet: PetState, point: str, layer: int | None, base: np.ndarray, x=None, rec=None) -> np.ndarray:
    """Forward of `pet` at one block point: `base` with rows prepended, or
    plus the bypass of the rows `x`; `base` itself where the paradigm does
    not enter.  A bypass writes its trace entries into `rec` when given."""
    ins = insertion(pet.paradigm, point, layer)
    if ins is None:
        return base
    apply, p = globals()[ins.apply], pet.params
    if ins.trace_key is None:
        return apply(p[ins.names[0]], base)
    down, up = ins.names
    out, y, factor = apply(p[down], p[up], x, base)
    if rec is not None:
        rec[ins.trace_key] = y
        if ins.gelu:
            rec[ins.factor_key] = factor
    return out


def rows_grads(pet: PetState, point: str, layer: int | None, d: np.ndarray, grads: dict) -> np.ndarray:
    """Backward of prepended rows: their gradient, summed over the batch,
    goes into `grads`; returns `d` without those rows."""
    ins = insertion(pet.paradigm, point, layer)
    if ins is None or ins.trace_key is not None:
        return d
    (name,) = ins.names
    n = pet.params[name].shape[0]
    grads[name] = d[:, :n].sum(axis=0)
    return d[:, n:]


def bypass_grads(pet: PetState, point: str, layer: int | None, trace: dict, x: np.ndarray,
                 d: np.ndarray, grads: dict, dx: np.ndarray) -> None:
    """Backward of a bypass fed by rows `x` with output gradient `d`: the
    factor gradients, summed over the batch, go into `grads`, and the
    gradient into `x` is added to `dx` in place."""
    ins = insertion(pet.paradigm, point, layer)
    if ins is None or ins.trace_key is None:
        return
    down, up = ins.names
    w_up = pet.params[up]
    y = trace[ins.trace_key]
    if ins.gelu:
        d = gelu_grad(y @ w_up, trace[ins.factor_key]) * d
    grads[up] = (y.swapaxes(-1, -2) @ d).sum(axis=0)
    dy = d @ w_up.T
    grads[down] = (x.swapaxes(-1, -2) @ dy).sum(axis=0)
    dx += dy @ pet.params[down].T
