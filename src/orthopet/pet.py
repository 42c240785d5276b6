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
never names a paradigm.  Activations are (batch, rows, width); a single
sample is a batch of one.  In the forward pass a paradigm tensor is either
shared by every sample or per-sample, with a leading axis of the batch
size and one copy per sample; a batch computes the same bits as its
samples run one at a time with their own copies.  The backward pass takes
shared tensors only.  The functions never mutate their inputs.
"""

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

PROMPT_INIT_STD = 0.02
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Cephes ndtr.c: erf on |x| <= 1 is x T(x^2) / U(x^2); erfc on 1 < x < 8 is
# exp(-x^2) P(x) / Q(x), and R(x) / S(x) from 8 on.  U, Q and S are monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# Past sqrt(MAXLOG) = 26.64 cephes' erfc is 0; capping |x| here keeps the
# Horner sums finite while 1 - erfc still rounds to 1.
_ERFC_CAP = 27.0


def check_paradigm(name: str) -> str:
    if name not in PARADIGMS:
        raise ValueError(f"unknown paradigm {name!r}; expected one of {PARADIGMS}")
    return name


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes `polevl` at x (`p1evl` when `monic`: a leading 1 before
    `coef`), by Horner's rule in cephes' operation order, in place."""
    if monic:
        ans = x + coef[0]
    else:
        ans = x * coef[0]
        ans += coef[1]
    for c in coef[1 if monic else 2:]:
        ans *= x
        ans += c
    return ans


def erf(x: np.ndarray) -> np.ndarray:
    """The error function with the bits of `scipy.special.erf`: a port of
    Cephes `ndtr.c` `erf`/`erfc`, the algorithm scipy runs.

    Clipped to [-1, 1], x takes the odd rational branch x T(x^2) / U(x^2),
    which keeps the sign of -0.0.  The entries with |x| > 1 are gathered and
    get 1 - erfc(|x|) with the sign of x; erfc takes exp(-x^2) from libm,
    as cephes does, through numpy's complex `exp` (numpy's float64 `exp` is
    its own SIMD code and rounds some values the other way).
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    r = np.maximum(x, -1.0)
    np.minimum(r, 1.0, out=r)
    z = r * r
    out = _polevl(z, _ERF_T)
    out *= r
    out /= _polevl(z, _ERF_U, monic=True)
    idx = np.flatnonzero(np.abs(x) > 1.0)
    if idx.size:
        xs = x.take(idx)
        v = np.abs(xs)
        np.minimum(v, _ERFC_CAP, out=v)
        p = _polevl(v, _ERFC_P)
        q = _polevl(v, _ERFC_Q, monic=True)
        far = np.flatnonzero(v >= 8.0)
        if far.size:
            w = v.take(far)
            p[far] = _polevl(w, _ERFC_R)
            q[far] = _polevl(w, _ERFC_S, monic=True)
        p *= np.exp((-v * v).astype(complex)).real
        p /= q
        np.subtract(1.0, p, out=p)
        out[idx] = np.copysign(p, xs, out=p)
    return out.reshape(shape)


def gelu_factor(x: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt 2), the factor GELU and its derivative share, with
    the numpy `erf` above, so the bits are those scipy's erf gives."""
    factor = erf(x / _SQRT_2)
    factor += 1.0
    return factor


def gelu(x: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU of x, given its `gelu_factor`; gelu(0) = 0,
    which is what makes a zero-init adapter bypass an exact identity."""
    out = 0.5 * x
    out *= factor
    return out


def gelu_grad(x: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """d gelu / dx, given the `gelu_factor` of x: the bits of
    0.5 * factor + x * exp(-0.5 * x * x) / sqrt(2 pi), computed in place."""
    out = -0.5 * x
    out *= x
    np.exp(out, out=out)
    out *= x
    out /= _SQRT_2PI
    out += 0.5 * factor
    return out


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
    """Where a site kind's feature rows sit in an ActivationTrace, which
    TransformerConfig field gives their width, and the block points whose
    insertions run before its rows are read at layer 0 (`tokens` runs
    before every layer; a bypass's y-space follows its own point).  A
    per-layer kind names one site per layer (`attn_in.0`, ...) and reads
    `trace.layers[i][trace_key]`; the embed site reads `trace.x_embed`.
    """

    trace_key: str
    width: str
    after: tuple[str, ...]
    per_layer: bool = True


SITES = {
    "embed": SiteKind("x_embed", "dim", (), per_layer=False),
    "attn_in": SiteKind("a_in", "dim", ("tokens",)),
    "mlp_in": SiteKind("m_in", "dim", ("tokens", "q", "k", "v")),
    "adapter_mid": SiteKind("y_a", "rank", ("tokens", "q", "k", "v", "mlp")),
    "lora_q_mid": SiteKind("y_q", "rank", ("tokens", "q")),
    "lora_v_mid": SiteKind("y_v", "rank", ("tokens", "v")),
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
    its template, and the layer of its site (None on the embed site)."""

    name: str
    site: str
    basis: str
    spec: TensorSpec
    layer: int | None


def layer_key(name: str, layer: int | None) -> str:
    """The key of a tensor or site at one layer, `<name>.<layer>`; the name
    itself on the embed site (layer None)."""
    return name if layer is None else f"{name}.{layer}"


def routes(paradigm: str, depth: int) -> list[Route]:
    """Every trainable tensor of a paradigm, layer by layer in table order.

    A tensor on a per-layer site gets one copy per layer, keyed
    `<name>.<layer>` on site `<kind>.<layer>`; a tensor on the embed site
    exists once.
    """
    specs = PARADIGM_TENSORS[check_paradigm(paradigm)]
    out = []
    for layer in range(depth):
        for spec in specs:
            per_layer = SITES[spec.site].per_layer
            if per_layer or layer == 0:
                at = layer if per_layer else None
                name, site = layer_key(spec.name, at), layer_key(spec.site, at)
                out.append(Route(name, site, name if spec.merge else site, spec, at))
    return out


def fixed_sites(paradigm: str) -> list[str]:
    """The sites of a paradigm whose rows none of its tensors can change,
    sorted: the embed site, and each layer-0 site none of whose `after`
    points the paradigm enters.  Every later layer reads the paradigm's
    layer-0 insertions.  A fixed site's rows are known before a task
    trains."""
    specs = PARADIGM_TENSORS[check_paradigm(paradigm)]
    points = {s.point for s in specs}
    return sorted({layer_key(s.site, 0 if SITES[s.site].per_layer else None)
                   for s in specs if points.isdisjoint(SITES[s.site].after)})


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
    """The input is (batch, rows, width); a parameter is 2-D and shared,
    or 3-D with one copy per sample."""
    if x.ndim != 3 or any(p.ndim != 2 and (p.ndim != 3 or p.shape[0] != x.shape[0]) for p in params):
        raise ValueError(f"{what}: expected (batch, rows, width) inputs and 2-D parameters, "
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
    out = y @ w_up
    factor = None
    if act:
        factor = gelu_factor(out)
        out = gelu(out, factor)
    out += base
    return out, y, factor


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
    names = tuple(layer_key(s.name, layer) for s in specs)
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
