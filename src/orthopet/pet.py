"""The four parameter-efficient tuning paradigms.

This module is the single place that knows which tensors each paradigm
trains and how they touch the transformer: prompt rows concatenated ahead
of the token embeddings, per-layer key/value prefixes, a GELU bottleneck
bypass around each MLP block, and low-rank bypasses on the query/value
projections.  `PARADIGM_TENSORS` describes each paradigm once: every
tensor's shape, its init, the feature site that constrains it and the
gradient axis its projector acts on.  `SITES` says where a site's rows sit
in an activation trace and how wide they are.  Initialization, the site
list, feature sampling and gradient projection are all read from these two
tables.  The backbone calls into these `apply_*` functions with a
leading batch axis on the activations, (batch, rows, width); a single
(rows, width) sample works the same way.  The paradigm tensors carry no
batch axis and are shared by every sample.  The functions are pure and
never mutate their arguments.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erf

PROMPT_INIT_STD = 0.02


def check_paradigm(name: str) -> str:
    if name not in PARADIGMS:
        raise ValueError(f"unknown paradigm {name!r}; expected one of {PARADIGMS}")
    return name


def gelu_factor(x: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt 2), the factor GELU and its derivative share."""
    return 1.0 + erf(x / np.sqrt(2.0))


def gelu(x: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """Exact (erf-based) GELU; gelu(0) = 0, which is what makes zero-init
    adapter and LoRA bypasses exact identities.  Pass `gelu_factor(x)` to
    reuse it; the result is the same either way."""
    if factor is None:
        factor = gelu_factor(x)
    return 0.5 * x * factor


def gelu_grad(x: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    if factor is None:
        factor = gelu_factor(x)
    return 0.5 * factor + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


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
    lora_scale: float = 1.0
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
    1/sqrt(dim)) or "up" (zeros).  `site` is the SITES kind whose feature
    rows the tensor consumes; their null-space basis constrains its
    gradient on `axis`: axis 1 projects as (g @ B) @ B.T (token rows live in
    feature space), axis 0 as B @ (B.T @ g) (factors consume features on
    their input dimension).  With `merge` set, the site basis is merged
    with the null basis of the tensor's own rows before it projects, and
    the merged basis is keyed by the tensor's name.
    """

    name: str
    shape: tuple[str, str]
    init: str
    site: str
    axis: int
    merge: bool = False


PARADIGM_TENSORS = {
    "prompt": (
        TensorSpec("prompt", ("prompt_len", "dim"), "rows", "embed", 1, merge=True),
    ),
    "prefix": (
        TensorSpec("prefix_k", ("prefix_len", "dim"), "rows", "attn_in", 1),
        TensorSpec("prefix_v", ("prefix_len", "dim"), "rows", "attn_in", 1),
    ),
    "adapter": (
        TensorSpec("adapter_down", ("dim", "rank"), "down", "mlp_in", 0),
        TensorSpec("adapter_up", ("rank", "dim"), "up", "adapter_mid", 0),
    ),
    "lora": (
        TensorSpec("lora_q_down", ("dim", "rank"), "down", "attn_in", 0),
        TensorSpec("lora_q_up", ("rank", "dim"), "up", "lora_q_mid", 0),
        TensorSpec("lora_v_down", ("dim", "rank"), "down", "attn_in", 0),
        TensorSpec("lora_v_up", ("rank", "dim"), "up", "lora_v_mid", 0),
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
    return PetState(paradigm=paradigm, params=params, lora_scale=cfg.lora_scale)


def _check_params(what: str, *params: np.ndarray) -> None:
    if any(p.ndim != 2 for p in params):
        raise ValueError(f"{what}: expected 2-D parameter arrays")


def _check_rows(what: str, *xs: np.ndarray) -> None:
    if any(x.ndim < 2 for x in xs):
        raise ValueError(f"{what}: expected ([batch,] rows, width) arrays")


def _prepend(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Concatenate the rows of p ahead of the rows of every sample in x."""
    return np.concatenate([np.broadcast_to(p, x.shape[:-2] + p.shape), x], axis=-2)


def apply_prompt(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Prepend prompt rows to the token embeddings of every sample."""
    _check_params("apply_prompt", p)
    _check_rows("apply_prompt", x)
    if p.shape[0] == 0:
        return x.copy()
    if p.shape[1] != x.shape[-1]:
        raise ValueError(f"prompt width {p.shape[1]} != token width {x.shape[-1]}")
    return _prepend(p, x)


def apply_prefix(p_k: np.ndarray, p_v: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Prepend key/value prefix rows to every sample's attention K and V."""
    _check_params("apply_prefix", p_k, p_v)
    _check_rows("apply_prefix", k, v)
    if p_k.shape != p_v.shape:
        raise ValueError(f"prefix shapes differ: {p_k.shape} vs {p_v.shape}")
    if k.shape != v.shape:
        raise ValueError(f"K/V shapes differ: {k.shape} vs {v.shape}")
    if p_k.shape[1] != k.shape[-1]:
        raise ValueError(f"prefix width {p_k.shape[1]} != K width {k.shape[-1]}")
    return _prepend(p_k, k), _prepend(p_v, v)


def _check_bypass(what: str, w_down: np.ndarray, w_up: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    _check_params(what, w_down, w_up)
    _check_rows(what, x)
    if x.shape[-1] != w_down.shape[0] or w_down.shape[1] != w_up.shape[0]:
        raise ValueError(f"{what} shape mismatch: x {x.shape}, down {w_down.shape}, up {w_up.shape}")
    if out.shape != x.shape[:-1] + (w_up.shape[1],):
        raise ValueError(f"{what}: output shape {out.shape} does not match bypass")


def apply_adapter(w_down: np.ndarray, w_up: np.ndarray, x: np.ndarray, backbone_out: np.ndarray):
    """Bottleneck bypass: backbone_out + gelu(x @ w_down @ w_up).

    The activation sits outside both factors.  Returns the combined output
    and y = x @ w_down, the intermediate the projection buffers need.
    """
    _check_bypass("adapter", w_down, w_up, x, backbone_out)
    y = x @ w_down
    return backbone_out + gelu(y @ w_up), y


def apply_lora(w_down: np.ndarray, w_up: np.ndarray, s: float, x: np.ndarray, base_out: np.ndarray):
    """Low-rank bypass: base_out + s * (x @ w_down @ w_up).

    Returns the combined output and y = x @ w_down for the buffers.
    """
    _check_bypass("lora", w_down, w_up, x, base_out)
    y = x @ w_down
    return base_out + float(s) * (y @ w_up), y
