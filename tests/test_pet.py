"""Tests for the paradigm tensors and their bypass arithmetic.

The GELU oracle below is built from math.erf, elementwise in a python
loop, so it shares no code with the implementation under test.
`scipy.special.erf` is the bit oracle of `pet.erf`.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

from dataclasses import replace

from orthopet import backbone as bb
from orthopet.backbone import TransformerConfig
from orthopet import pet as pm
from orthopet import projection as pj
from orthopet import trainer as tr
from orthopet import workers

CFG = TransformerConfig(
    depth=2,
    dim=16,
    heads=4,
    seq_len=3,
    num_classes=3,
    prompt_len=2,
    prefix_len=2,
    rank=3,
)


def gelu_oracle(x):
    flat = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.ravel(x)]
    return np.array(flat).reshape(np.shape(x))


def test_gelu_matches_erf_oracle():
    x = np.linspace(-6.0, 6.0, 241)
    assert np.allclose(pm.gelu(x, pm.gelu_factor(x)), gelu_oracle(x), atol=1e-14, rtol=0.0)


def test_gelu_zero_is_exactly_zero():
    x = np.zeros(3)
    assert pm.gelu(x, pm.gelu_factor(x)).tolist() == [0.0, 0.0, 0.0]


def test_gelu_grad_matches_finite_differences():
    x = np.linspace(-4.0, 4.0, 81)
    h = 1e-6
    fd = (gelu_oracle(x + h) - gelu_oracle(x - h)) / (2.0 * h)
    assert np.allclose(pm.gelu_grad(x, pm.gelu_factor(x)), fd, atol=1e-8, rtol=0.0)


ERF_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 8.0, -8.0,
             np.nextafter(8.0, 0.0), 26.6, 26.7, 27.0, 1e200, -1e300, np.inf, -np.inf, np.nan,
             5e-324, -5e-324]


def test_erf_has_scipys_bits():
    """pet.erf returns the bits of scipy.special.erf, the sign of zero and
    NaN included, with no floating-point warning."""
    rng = np.random.default_rng(2024)
    draws = [rng.normal(0.0, scale, size=400_000) for scale in (0.3, 1.0, 3.0, 10.0, 40.0)]
    edges = np.array(ERF_EDGES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in [*draws, edges, edges.reshape(1, -1, 1), draws[1][:140_000:2].reshape(7, -1).T]:
            got = pm.erf(x)
            assert got.shape == x.shape
            assert np.array_equal(got.view(np.int64), erf(x).view(np.int64))
        zeros = pm.erf(np.array([0.0, -0.0]))
    assert zeros.tolist() == [0.0, 0.0] and np.signbit(zeros).tolist() == [False, True]


def test_check_paradigm_rejects_unknown():
    with pytest.raises(ValueError):
        pm.check_paradigm("bitfit")


def names(paradigm, depth):
    return [r.name for r in pm.routes(paradigm, depth)]


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_param_names_cover_init(paradigm):
    pet = pm.init_pet(CFG, paradigm, 5)
    assert list(pet.params) == names(paradigm, CFG.depth)


def test_param_names_fixed_lists():
    assert names("prompt", 2) == ["prompt"]
    assert names("prefix", 2) == [
        "prefix_k.0",
        "prefix_v.0",
        "prefix_k.1",
        "prefix_v.1",
    ]
    assert names("adapter", 1) == ["adapter_down.0", "adapter_up.0"]
    assert names("lora", 1) == [
        "lora_q_down.0",
        "lora_q_up.0",
        "lora_v_down.0",
        "lora_v_up.0",
    ]
    with pytest.raises(ValueError):
        pm.routes("bitfit", 1)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_route_layer_is_the_site_suffix(paradigm):
    """Route.layer is None exactly on the embed site; everywhere else it is
    the layer its site name ends in."""
    layers = set()
    for r in pm.routes(paradigm, 3):
        assert (r.layer is None) == (r.site == "embed")
        if r.layer is not None:
            assert r.site == f"{r.spec.site}.{r.layer}"
            layers.add(r.layer)
    assert layers == (set() if paradigm == "prompt" else {0, 1, 2})


def test_routes_sites_and_axes():
    prompt, = pm.routes("prompt", 2)
    assert (prompt.site, prompt.basis, prompt.spec.axis) == ("embed", "prompt", 1)
    assert [(r.site, r.basis, r.spec.axis) for r in pm.routes("prefix", 1)] == [
        ("attn_in.0", "attn_in.0", 1), ("attn_in.0", "attn_in.0", 1)]
    assert [(r.site, r.spec.axis) for r in pm.routes("adapter", 1)] == [
        ("mlp_in.0", 0), ("adapter_mid.0", 0)]
    assert [(r.site, r.spec.axis) for r in pm.routes("lora", 1)] == [
        ("attn_in.0", 0), ("lora_q_mid.0", 0), ("attn_in.0", 0), ("lora_v_mid.0", 0)]


def test_init_draws_layer_by_layer_in_table_order():
    """The table-driven init makes the same draws, in the same order, as
    writing each paradigm's tensors out by hand."""
    d, r = CFG.dim, CFG.rank
    rng = np.random.default_rng(9)
    expected = {}
    for i in range(CFG.depth):
        expected[f"prefix_k.{i}"] = rng.normal(0.0, pm.PROMPT_INIT_STD, size=(CFG.prefix_len, d))
        expected[f"prefix_v.{i}"] = rng.normal(0.0, pm.PROMPT_INIT_STD, size=(CFG.prefix_len, d))
    got = pm.init_pet(CFG, "prefix", 9).params
    assert list(got) == list(expected)
    assert all(np.array_equal(got[k], v) for k, v in expected.items())

    rng = np.random.default_rng(9)
    expected = {}
    for i in range(CFG.depth):
        for w in ("q", "v"):
            expected[f"lora_{w}_down.{i}"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, r))
            expected[f"lora_{w}_up.{i}"] = np.zeros((r, d))
    got = pm.init_pet(CFG, "lora", 9).params
    assert list(got) == list(expected)
    assert all(np.array_equal(got[k], v) for k, v in expected.items())


def test_gelu_reuses_its_factor_bit_for_bit():
    x = np.linspace(-6.0, 6.0, 241)
    factor = pm.gelu_factor(x)
    # the expressions before the factor was shared, so no bit moved
    assert np.array_equal(pm.gelu(x, factor), 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))))
    assert np.array_equal(
        pm.gelu_grad(x, factor),
        0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi),
    )


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_init_deterministic_per_seed(paradigm):
    a = pm.init_pet(CFG, paradigm, 11)
    b = pm.init_pet(CFG, paradigm, 11)
    c = pm.init_pet(CFG, paradigm, 12)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_init_shapes_and_scales():
    prompt = pm.init_pet(CFG, "prompt", 3)
    assert prompt.params["prompt"].shape == (CFG.prompt_len, CFG.dim)

    prefix = pm.init_pet(CFG, "prefix", 3)
    assert prefix.params["prefix_k.1"].shape == (CFG.prefix_len, CFG.dim)

    adapter = pm.init_pet(CFG, "adapter", 3)
    assert adapter.params["adapter_down.0"].shape == (CFG.dim, CFG.rank)
    assert adapter.params["adapter_up.0"].shape == (CFG.rank, CFG.dim)
    assert not adapter.params["adapter_up.0"].any()
    assert not adapter.params["adapter_up.1"].any()

    lora = pm.init_pet(CFG, "lora", 3)
    for i in range(CFG.depth):
        assert not lora.params[f"lora_q_up.{i}"].any()
        assert not lora.params[f"lora_v_up.{i}"].any()

    # std sanity on a wide draw: pool rows from many seeds
    rows = np.concatenate([pm.init_pet(CFG, "prompt", s).params["prompt"].ravel() for s in range(40)])
    assert 0.015 < rows.std() < 0.025
    downs = np.concatenate([pm.init_pet(CFG, "adapter", s).params["adapter_down.0"].ravel() for s in range(40)])
    assert 0.8 / np.sqrt(CFG.dim) < downs.std() < 1.2 / np.sqrt(CFG.dim)


def test_apply_prompt_prepends_rows():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(2, 4))
    x = rng.normal(size=(1, 3, 4))
    z = pm.apply_prompt(p, x)
    assert z.shape == (1, 5, 4)
    assert np.array_equal(z[0, :2], p)
    assert np.array_equal(z[:, 2:], x)


def test_apply_prompt_zero_rows_is_identity_copy():
    x = np.random.default_rng(1).normal(size=(1, 3, 4))
    z = pm.apply_prompt(np.zeros((0, 4)), x)
    assert np.array_equal(z, x)
    assert z is not x


def test_apply_prompt_width_mismatch():
    with pytest.raises(ValueError):
        pm.apply_prompt(np.zeros((2, 5)), np.zeros((1, 3, 4)))


def test_apply_prefix_prepends_to_k_and_v():
    rng = np.random.default_rng(2)
    pet = pm.init_pet(CFG, "prefix", 2)
    k, v = rng.normal(size=(2, 3, CFG.dim)), rng.normal(size=(2, 3, CFG.dim))
    for layer in range(CFG.depth):
        pk, pv = pet.params[f"prefix_k.{layer}"], pet.params[f"prefix_v.{layer}"]
        k2 = pm.insert(pet, "k", layer, k)
        v2 = pm.insert(pet, "v", layer, v)
        assert np.array_equal(k2, pm.apply_prefix(pk, k))
        assert np.array_equal(v2, pm.apply_prefix(pv, v))
        for i in range(2):
            assert np.array_equal(k2[i, :2], pk) and np.array_equal(k2[i, 2:], k[i])
            assert np.array_equal(v2[i, :2], pv) and np.array_equal(v2[i, 2:], v[i])


def test_apply_prefix_shape_errors():
    for apply in (pm.apply_prefix, pm.apply_prompt):
        with pytest.raises(ValueError, match="width"):
            apply(np.zeros((2, 5)), np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="2-D parameters"):
            apply(np.zeros(4), np.zeros((1, 3, 4)))
        for x in (np.zeros(4), np.zeros((3, 4))):
            with pytest.raises(ValueError, match="batch, rows, width"):
                apply(np.zeros((2, 4)), x)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_insertion_table_covers_every_tensor_once(paradigm):
    names = []
    for point in ("tokens", "q", "k", "v", "mlp"):
        for layer in [None] if point == "tokens" else range(CFG.depth):
            ins = pm.insertion(paradigm, point, layer)
            if ins is not None:
                names += ins.names
                assert ins.apply == f"apply_{paradigm}"
                assert ins.gelu == (paradigm == "adapter")
    assert sorted(names) == sorted(r.name for r in pm.routes(paradigm, CFG.depth))


def test_insert_returns_base_where_the_paradigm_does_not_enter():
    base = np.zeros((2, 3, CFG.dim))
    for paradigm, point, layer in (("lora", "tokens", None), ("lora", "k", 0), ("prompt", "mlp", 1),
                                   ("adapter", "q", 0), ("prefix", "mlp", 0)):
        assert pm.insert(pm.init_pet(CFG, paradigm, 0), point, layer, base) is base
    # a bypass point has no rows to take off, a prepend point no bypass
    grads = {}
    assert pm.rows_grads(pm.init_pet(CFG, "lora", 0), "v", 0, base, grads) is base
    pm.bypass_grads(pm.init_pet(CFG, "prefix", 0), "v", 0, {}, base, base, grads, base)
    assert grads == {} and not base.any()


def test_apply_adapter_hand_case():
    """One sample of one token, 2-wide, bottleneck 1: bypass = gelu(x W^d W^u)."""
    x = np.array([[[1.0, -2.0]]])
    w_down = np.array([[0.5], [0.25]])
    w_up = np.array([[2.0, -1.0]])
    base = np.array([[[0.1, 0.2]]])
    out, y, factor = pm.apply_adapter(w_down, w_up, x, base)
    assert np.allclose(y, [[[0.0]]], atol=1e-15)
    assert np.allclose(out, base + gelu_oracle(y @ w_up), atol=1e-15)
    assert np.array_equal(factor, [[[1.0, 1.0]]])

    x2 = np.array([[[2.0, 4.0]]])
    out2, y2, factor2 = pm.apply_adapter(w_down, w_up, x2, base)
    assert np.allclose(y2, [[[2.0]]], atol=1e-15)
    assert np.allclose(out2, base + gelu_oracle(np.array([[[4.0, -2.0]]])), atol=1e-14)
    assert np.array_equal(factor2, pm.gelu_factor(np.array([[[4.0, -2.0]]])))


def test_apply_adapter_zero_up_is_exact_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 3, 4))
    base = rng.normal(size=(1, 3, 4))
    out, _, _ = pm.apply_adapter(rng.normal(size=(4, 2)), np.zeros((2, 4)), x, base)
    assert np.array_equal(out, base)


def test_apply_lora_adds_the_unscaled_product():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 3, 4))
    base = rng.normal(size=(1, 3, 4))
    w_down = rng.normal(size=(4, 2))
    w_up = rng.normal(size=(2, 4))
    out0, y, _ = pm.apply_lora(w_down, w_up * 0.0, x, base)
    assert np.array_equal(out0, base)
    assert np.allclose(y, x @ w_down, atol=1e-15)
    out, _, _ = pm.apply_lora(w_down, w_up, x, base)
    assert np.array_equal(out, base + (x @ w_down) @ w_up)


def test_apply_ops_leave_inputs_unchanged():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 3, 4))
    snap = x.copy()
    pm.apply_prompt(rng.normal(size=(2, 4)), x)
    pm.apply_prefix(rng.normal(size=(2, 4)), x)
    pm.apply_adapter(rng.normal(size=(4, 2)), rng.normal(size=(2, 4)), x, x.copy())
    pm.apply_lora(rng.normal(size=(4, 2)), rng.normal(size=(2, 4)), x, x.copy())
    assert np.array_equal(x, snap)


# -- per-sample tensors ------------------------------------------------------

PER_SAMPLE = 3


@pytest.mark.parametrize("apply", [pm.apply_prompt, pm.apply_prefix])
def test_per_sample_rows_equal_stacked_shared_calls(apply):
    rng = np.random.default_rng(6)
    p = rng.normal(size=(PER_SAMPLE, 2, 4))
    x = rng.normal(size=(PER_SAMPLE, 3, 4))
    stacked = np.concatenate([apply(p[i], x[i:i + 1]) for i in range(PER_SAMPLE)])
    assert np.array_equal(apply(p, x), stacked)


@pytest.mark.parametrize("per_sample", [("down",), ("up",), ("down", "up")])
@pytest.mark.parametrize("apply", [pm.apply_adapter, pm.apply_lora])
def test_per_sample_factors_equal_stacked_shared_calls(apply, per_sample):
    """Either factor or both may carry one copy per sample; every output
    (sum, y and the GELU factor) is the shared call's, sample by sample."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(PER_SAMPLE, 3, 4))
    base = rng.normal(size=(PER_SAMPLE, 3, 4))
    w_down = rng.normal(size=(PER_SAMPLE, 4, 2) if "down" in per_sample else (4, 2))
    w_up = rng.normal(size=(PER_SAMPLE, 2, 4) if "up" in per_sample else (2, 4))
    got = apply(w_down, w_up, x, base)
    for i in range(PER_SAMPLE):
        one = apply(w_down[i] if w_down.ndim == 3 else w_down, w_up[i] if w_up.ndim == 3 else w_up,
                    x[i:i + 1], base[i:i + 1])
        for a, b in zip(got, one):
            assert (a is None and b is None) or np.array_equal(a[i], b[0])


@pytest.mark.parametrize("lead", [1, PER_SAMPLE + 1])
def test_per_sample_tensor_must_match_the_batch(lead):
    """A leading axis other than the batch size raises, also 1: it must
    not broadcast over the batch.  An input without the batch axis is
    refused with any parameter."""
    x = np.zeros((PER_SAMPLE, 3, 4))
    rows, down, up = np.zeros((lead, 2, 4)), np.zeros((lead, 4, 2)), np.zeros((lead, 2, 4))
    for apply in (pm.apply_prompt, pm.apply_prefix):
        with pytest.raises(ValueError, match="batch axis"):
            apply(rows, x)
        with pytest.raises(ValueError, match="batch axis"):
            apply(np.zeros((PER_SAMPLE, 2, 4)), x[0])
    for apply in (pm.apply_adapter, pm.apply_lora):
        with pytest.raises(ValueError, match="batch axis"):
            apply(down, up[0], x, x)
        with pytest.raises(ValueError, match="batch axis"):
            apply(down[0], up, x, x)
        with pytest.raises(ValueError, match="batch axis"):
            apply(np.zeros((PER_SAMPLE, 4, 2)), up[0], x[0], x[0])
    with pytest.raises(ValueError, match="batch axis"):
        pm.apply_prompt(np.zeros((PER_SAMPLE, 1, 2, 4)), x[None])


def test_version_bump():
    pet = pm.init_pet(CFG, "prompt", 6)
    assert pet.version == 0
    pet.bump()
    pet.bump()
    assert pet.version == 2


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_paradigm_table_is_consistent(paradigm, depth):
    """Init, backward, projection and the site list agree with the table."""
    cfg = replace(CFG, depth=depth)
    w = bb.init_backbone(cfg, 1)
    pet = pm.init_pet(cfg, paradigm, 2)
    xs = np.random.default_rng(3).normal(size=(5, cfg.seq_len, cfg.dim))
    table = names(paradigm, depth)

    logits, trace = bb.forward(w, pet, xs, w.classifier)
    grads, _ = bb.backward(trace, w, pet, np.ones_like(logits), w.classifier)
    buffers = tr.init_buffers(paradigm, cfg)
    sites = list(buffers)
    tr.update_buffers(w, pet, xs, buffers)
    bases = tr.rebuild_bases(pet, buffers, pj.ProjectionConfig(), cfg, workers.inline)
    projected = tr.project_grads(pet, grads, bases, depth)
    assert list(pet.params) == list(grads) == list(projected) == table

    feats = pj.sample_features(w, pet, xs)
    assert list(feats) == sites
    for r in pm.routes(paradigm, depth):
        assert r.site in sites
        width = pj.site_width(r, cfg)
        assert feats[r.site].shape == (5 * cfg.seq_len, width)
        assert pet.params[r.name].shape == tuple(getattr(cfg, f) for f in r.spec.shape)
        assert bases[r.basis].shape[0] == grads[r.name].shape[r.spec.axis] == width
    assert sites == list(dict.fromkeys(r.site for r in pm.routes(paradigm, depth)))
