"""The four parameter-efficient tuning paradigms.

This module is the single place that knows which tensors each paradigm
trains and how they touch the transformer: prompt rows concatenated ahead
of the token embeddings, per-layer key/value prefixes, a GELU bottleneck
bypass around each MLP block, and low-rank bypasses on the query/value
projections.  The backbone calls into these `apply_*` functions with a
leading batch axis on the activations, (batch, rows, width); a single
(rows, width) sample works the same way.  The paradigm tensors carry no
batch axis and are shared by every sample.  The functions are pure and
never mutate their arguments.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

PARADIGMS = ("prompt", "prefix", "adapter", "lora")

PROMPT_INIT_STD = 0.02


def check_paradigm(name: str) -> str:
    if name not in PARADIGMS:
        raise ValueError(f"unknown paradigm {name!r}; expected one of {PARADIGMS}")
    return name


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU; gelu(0) = 0, which is what makes zero-init
    adapter and LoRA bypasses exact identities."""
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


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


def param_names(paradigm: str, depth: int) -> list[str]:
    check_paradigm(paradigm)
    if paradigm == "prompt":
        return ["prompt"]
    if paradigm == "prefix":
        names = []
        for i in range(depth):
            names += [f"prefix_k.{i}", f"prefix_v.{i}"]
        return names
    if paradigm == "adapter":
        names = []
        for i in range(depth):
            names += [f"adapter_down.{i}", f"adapter_up.{i}"]
        return names
    names = []
    for i in range(depth):
        names += [
            f"lora_q_down.{i}",
            f"lora_q_up.{i}",
            f"lora_v_down.{i}",
            f"lora_v_up.{i}",
        ]
    return names


def init_pet(cfg, paradigm: str, seed) -> PetState:
    """Seeded paradigm state.

    Prompt and prefix rows are small Gaussians (std 0.02).  Bottleneck
    down-factors are Gaussian with std 1/sqrt(dim) and up-factors start at
    zero, so every bypass is exactly the identity before training.
    """
    check_paradigm(paradigm)
    rng = np.random.default_rng(seed)
    d = cfg.dim
    params: dict[str, np.ndarray] = {}
    if paradigm == "prompt":
        params["prompt"] = rng.normal(0.0, PROMPT_INIT_STD, size=(cfg.prompt_len, d))
    elif paradigm == "prefix":
        for i in range(cfg.depth):
            params[f"prefix_k.{i}"] = rng.normal(0.0, PROMPT_INIT_STD, size=(cfg.prefix_len, d))
            params[f"prefix_v.{i}"] = rng.normal(0.0, PROMPT_INIT_STD, size=(cfg.prefix_len, d))
    elif paradigm == "adapter":
        for i in range(cfg.depth):
            params[f"adapter_down.{i}"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, cfg.rank))
            params[f"adapter_up.{i}"] = np.zeros((cfg.rank, d))
    else:
        for i in range(cfg.depth):
            for w in ("q", "v"):
                params[f"lora_{w}_down.{i}"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, cfg.rank))
                params[f"lora_{w}_up.{i}"] = np.zeros((cfg.rank, d))
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
