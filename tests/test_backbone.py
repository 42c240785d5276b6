"""Backbone forward/backward checks.

Two independent oracles: a deliberately naive reference forward written
with per-head python loops and math.erf (no shared helpers with the
implementation), and central finite differences for every trainable
tensor of every paradigm.  The batch-equivalence section pins the
batched hot path bit for bit to the same samples run one at a time.
"""

import math

import numpy as np
import pytest

from orthopet import backbone as bb
from orthopet import data as dm
from orthopet import pet as pm
from orthopet import projection as pj
from orthopet import trainer as tr

CFG = bb.TransformerConfig(
    depth=2,
    dim=16,
    heads=4,
    seq_len=3,
    mlp_ratio=2.0,
    num_classes=3,
    prompt_len=2,
    prefix_len=2,
    rank=3,
    lora_scale=0.7,
)


def make_model(paradigm, seed=7, randomize=True):
    """Seeded weights, pet state and input; pet tensors are re-drawn away
    from the zero-init point so every gradient path is exercised."""
    w = bb.init_backbone(CFG, seed)
    pet = pm.init_pet(CFG, paradigm, seed + 1)
    rng = np.random.default_rng(seed + 2)
    if randomize:
        for name in sorted(pet.params):
            pet.params[name] = rng.normal(0.0, 0.05, size=pet.params[name].shape)
    x = rng.normal(0.0, 1.0, size=(CFG.seq_len, CFG.dim))
    head = w.classifier.copy()
    return w, pet, x, head


def ref_gelu(x):
    flat = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.ravel(x)]
    return np.array(flat).reshape(np.shape(x))


def ref_layernorm(x, g, b):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + bb.LN_EPS) * g + b


def reference_forward(w, pet, x, head):
    cfg = w.cfg
    dh = cfg.dim // cfg.heads
    z = x @ w.embed
    n_prompt = 0
    if pet.paradigm == "prompt":
        z = np.vstack([pet.params["prompt"], z])
        n_prompt = pet.params["prompt"].shape[0]
    for li, lw in enumerate(w.layers):
        a = ref_layernorm(z, lw["ln1_g"], lw["ln1_b"])
        q = a @ lw["w_q"]
        k = a @ lw["w_k"]
        v = a @ lw["w_v"]
        if pet.paradigm == "lora":
            q = q + pet.lora_scale * (a @ pet.params[f"lora_q_down.{li}"] @ pet.params[f"lora_q_up.{li}"])
            v = v + pet.lora_scale * (a @ pet.params[f"lora_v_down.{li}"] @ pet.params[f"lora_v_up.{li}"])
        if pet.paradigm == "prefix":
            k = np.vstack([pet.params[f"prefix_k.{li}"], k])
            v = np.vstack([pet.params[f"prefix_v.{li}"], v])
        blocks = []
        for h in range(cfg.heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            blocks.append(attn @ v[:, cols])
        z = z + np.hstack(blocks) @ lw["w_o"]
        m = ref_layernorm(z, lw["ln2_g"], lw["ln2_b"])
        mlp = ref_gelu(m @ lw["w_1"]) @ lw["w_2"]
        if pet.paradigm == "adapter":
            mlp = mlp + ref_gelu(m @ pet.params[f"adapter_down.{li}"] @ pet.params[f"adapter_up.{li}"])
        z = z + mlp
    z = ref_layernorm(z, w.lnf_g, w.lnf_b)
    return z[n_prompt:].mean(axis=0) @ head


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_forward_matches_reference(paradigm):
    w, pet, x, head = make_model(paradigm)
    logits, _ = bb.forward(w, pet, x, head=head)
    ref = reference_forward(w, pet, x, head)
    assert np.allclose(logits, ref, atol=1e-12, rtol=1e-12)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_backward_matches_finite_differences(paradigm):
    w, pet, x, head = make_model(paradigm)
    c = np.random.default_rng(99).normal(size=CFG.num_classes)

    _, trace = bb.forward(w, pet, x, head=head)
    grads, head_grad = bb.backward(trace, w, pet, c, head=head)

    def loss():
        logits, _ = bb.forward(w, pet, x, head=head, need_trace=False)
        return float(logits @ c)

    step = 1e-5

    def fd_grad(arr):
        g = np.zeros_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + step
            up = loss()
            arr.flat[i] = orig - step
            down = loss()
            arr.flat[i] = orig
            g.flat[i] = (up - down) / (2.0 * step)
        return g

    worst = 0.0
    for name in sorted(pet.params):
        fd = fd_grad(pet.params[name])
        scale = max(np.abs(fd).max(), np.abs(grads[name]).max(), 1e-8)
        worst = max(worst, np.abs(grads[name] - fd).max() / scale)
    fd_head = fd_grad(head)
    scale = max(np.abs(fd_head).max(), np.abs(head_grad).max(), 1e-8)
    worst = max(worst, np.abs(head_grad - fd_head).max() / scale)
    assert worst <= 1e-4


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_backward_zero_loss_grad_gives_zero_grads(paradigm):
    w, pet, x, head = make_model(paradigm)
    _, trace = bb.forward(w, pet, x, head=head)
    grads, head_grad = bb.backward(trace, w, pet, np.zeros(CFG.num_classes), head=head)
    assert not head_grad.any()
    for g in grads.values():
        assert not g.any()
    assert sorted(grads) == sorted(r.name for r in pm.routes(paradigm, CFG.depth))


def test_backward_shapes():
    w, pet, x, head = make_model("prompt")
    _, trace = bb.forward(w, pet, x, head=head)
    grads, head_grad = bb.backward(trace, w, pet, np.ones(CFG.num_classes), head=head)
    assert grads["prompt"].shape == (CFG.prompt_len, CFG.dim)
    assert head_grad.shape == (CFG.dim, CFG.num_classes)


def test_stale_trace_rejected():
    w, pet, x, head = make_model("adapter")
    _, trace = bb.forward(w, pet, x, head=head)
    pet.bump()
    with pytest.raises(bb.StaleTraceError):
        bb.backward(trace, w, pet, np.ones(CFG.num_classes), head=head)
    other = pm.init_pet(CFG, "adapter", 123)
    with pytest.raises(bb.StaleTraceError):
        bb.backward(trace, w, other, np.ones(CFG.num_classes), head=head)


def test_incomplete_trace_rejected():
    w, pet, x, head = make_model("lora")
    _, trace = bb.forward(w, pet, x, head=head)
    trace.layers.pop()
    with pytest.raises(ValueError):
        bb.backward(trace, w, pet, np.ones(CFG.num_classes), head=head)


def test_backward_is_repeatable():
    w, pet, x, head = make_model("prefix")
    _, trace = bb.forward(w, pet, x, head=head)
    c = np.arange(CFG.num_classes, dtype=float)
    g1, h1 = bb.backward(trace, w, pet, c, head=head)
    g2, h2 = bb.backward(trace, w, pet, c, head=head)
    assert np.array_equal(h1, h2)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_init_backbone_deterministic_and_frozen():
    a = bb.init_backbone(CFG, 42)
    b = bb.init_backbone(CFG, 42)
    other = bb.init_backbone(CFG, 43)
    assert np.array_equal(a.embed, b.embed)
    assert np.array_equal(a.classifier, b.classifier)
    for la, lb in zip(a.layers, b.layers):
        for key in la:
            assert np.array_equal(la[key], lb[key])
    assert not np.array_equal(a.embed, other.embed)
    with pytest.raises(ValueError):
        a.embed[0, 0] = 1.0
    with pytest.raises(ValueError):
        a.layers[0]["w_q"][0, 0] = 1.0


def test_forward_backward_leave_weights_bit_identical():
    w, pet, x, head = make_model("lora")
    snap_embed = w.embed.copy()
    snap_layers = [{k: v.copy() for k, v in layer.items()} for layer in w.layers]
    for _ in range(2):
        _, trace = bb.forward(w, pet, x, head=head)
        bb.backward(trace, w, pet, np.ones(CFG.num_classes), head=head)
    assert np.array_equal(w.embed, snap_embed)
    for layer, snap in zip(w.layers, snap_layers):
        for key in layer:
            assert np.array_equal(layer[key], snap[key])


def test_forward_is_deterministic():
    w, pet, x, head = make_model("prompt")
    a, _ = bb.forward(w, pet, x, head=head)
    b, _ = bb.forward(w, pet, x, head=head)
    assert np.array_equal(a, b)


def test_forward_default_head_is_frozen_classifier():
    w, pet, x, _ = make_model("adapter")
    a, _ = bb.forward(w, pet, x)
    b, _ = bb.forward(w, pet, x, head=w.classifier)
    assert np.array_equal(a, b)


def test_attention_rows_sum_to_one_and_prompt_shape():
    w, pet, x, head = make_model("prompt")
    _, trace = bb.forward(w, pet, x, head=head)
    total = CFG.prompt_len + CFG.seq_len
    assert trace.layers[0]["attn"].shape == (1, CFG.heads, total, total)
    for t in trace.layers:
        assert np.abs(t["attn"].sum(axis=-1) - 1.0).max() <= 1e-12


def test_prefix_widens_attention_columns_only():
    w, pet, x, head = make_model("prefix")
    _, trace = bb.forward(w, pet, x, head=head)
    for t in trace.layers:
        assert t["attn"].shape == (1, CFG.heads, CFG.seq_len, CFG.seq_len + CFG.prefix_len)
        assert np.abs(t["attn"].sum(axis=-1) - 1.0).max() <= 1e-12


def test_zero_bypass_paradigms_match_pet_free_forward():
    """Freshly initialized adapter/LoRA (zero up-factors) and a zero-length
    prompt all compute the identical PET-free function."""
    w = bb.init_backbone(CFG, 9)
    x = np.random.default_rng(10).normal(size=(CFG.seq_len, CFG.dim))
    free_cfg = bb.TransformerConfig(
        depth=CFG.depth,
        dim=CFG.dim,
        heads=CFG.heads,
        seq_len=CFG.seq_len,
        mlp_ratio=CFG.mlp_ratio,
        num_classes=CFG.num_classes,
        prompt_len=0,
        prefix_len=CFG.prefix_len,
        rank=CFG.rank,
        lora_scale=CFG.lora_scale,
    )
    baseline, _ = bb.forward(w, pm.init_pet(free_cfg, "prompt", 1), x)

    adapter_logits, _ = bb.forward(w, pm.init_pet(CFG, "adapter", 2), x)
    assert np.array_equal(adapter_logits, baseline)

    lora_logits, _ = bb.forward(w, pm.init_pet(CFG, "lora", 3), x)
    assert np.array_equal(lora_logits, baseline)

    scaled = pm.init_pet(CFG, "lora", 4)
    rng = np.random.default_rng(5)
    for name in sorted(scaled.params):
        scaled.params[name] = rng.normal(0.0, 0.1, size=scaled.params[name].shape)
    scaled.lora_scale = 0.0
    zero_scale_logits, _ = bb.forward(w, scaled, x)
    assert np.array_equal(zero_scale_logits, baseline)


def test_activation_variance_in_sane_range():
    cfg = bb.TransformerConfig(depth=2, dim=32, heads=4, seq_len=6, num_classes=4)
    w = bb.init_backbone(cfg, 21)
    pet = pm.init_pet(cfg, "adapter", 22)
    rng = np.random.default_rng(23)
    per_layer = [[] for _ in range(cfg.depth)]
    for _ in range(16):
        x = rng.normal(0.0, 1.0, size=(cfg.seq_len, cfg.dim))
        _, trace = bb.forward(w, pet, x)
        for li, t in enumerate(trace.layers):
            per_layer[li].append((t["a_in"].var(), t["m_in"].var(), t["u"].var()))
    for stats in per_layer:
        arr = np.array(stats).mean(axis=0)
        assert np.all(arr >= 0.1) and np.all(arr <= 10.0)


def test_forward_rejects_bad_shapes():
    w, pet, x, _ = make_model("prompt")
    with pytest.raises(ValueError):
        bb.forward(w, pet, x[:, :-1])
    with pytest.raises(ValueError):
        bb.forward(w, pet, x.ravel())


def test_non_finite_logits_raise():
    w, pet, _, head = make_model("prompt")
    x = np.full((CFG.seq_len, CFG.dim), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            bb.forward(w, pet, x, head=head)


def test_config_validation():
    with pytest.raises(ValueError):
        bb.TransformerConfig(dim=30, heads=4)
    with pytest.raises(ValueError):
        bb.TransformerConfig(depth=0)
    with pytest.raises(ValueError):
        bb.TransformerConfig(num_classes=1)
    with pytest.raises(ValueError):
        bb.TransformerConfig(rank=0)
    cfg = bb.TransformerConfig(dim=32, heads=8, mlp_ratio=1.5)
    assert cfg.head_dim == 4
    assert cfg.mlp_hidden == 48


# -- batch equivalence ------------------------------------------------------

BATCH = 6


def make_batch(paradigm, n=BATCH, seed=7):
    w, pet, _, head = make_model(paradigm, seed)
    rng = np.random.default_rng(seed + 3)
    xs = rng.normal(0.0, 1.0, size=(n, CFG.seq_len, CFG.dim))
    ys = rng.integers(0, CFG.num_classes, size=n)
    return w, pet, head, xs, ys


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_batched_pass_equals_per_sample_loop(paradigm):
    w, pet, head, xs, ys = make_batch(paradigm)
    mask = np.ones(CFG.num_classes, dtype=bool)
    logits, trace = bb.forward(w, pet, xs, head=head)
    _, dlogits = tr.masked_cross_entropy(logits, mask, ys)
    grads, head_grad = bb.backward(trace, w, pet, dlogits, head=head)
    assert logits.shape == (BATCH, CFG.num_classes)

    gsum = {name: np.zeros_like(arr) for name, arr in pet.params.items()}
    hsum = np.zeros_like(head)
    for i in range(BATCH):
        one, one_trace = bb.forward(w, pet, xs[i], head=head)
        assert np.array_equal(one, logits[i])
        _, d_one = tr.masked_cross_entropy(one, mask, int(ys[i]))
        g, h = bb.backward(one_trace, w, pet, d_one, head=head)
        for name in gsum:
            gsum[name] += g[name]
        hsum += h
    assert sorted(grads) == sorted(gsum)
    for name in gsum:
        assert np.array_equal(grads[name], gsum[name]), name
    assert np.array_equal(head_grad, hsum)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_single_sample_is_a_batch_of_one(paradigm):
    w, pet, x, head = make_model(paradigm)
    c = np.random.default_rng(98).normal(size=CFG.num_classes)
    logits, trace = bb.forward(w, pet, x, head=head)
    batch_logits, batch_trace = bb.forward(w, pet, x[None], head=head)
    assert logits.shape == (CFG.num_classes,)
    assert np.array_equal(logits, batch_logits[0])
    grads, head_grad = bb.backward(trace, w, pet, c, head=head)
    batch_grads, batch_head_grad = bb.backward(batch_trace, w, pet, c[None], head=head)
    assert np.array_equal(head_grad, batch_head_grad)
    for name in grads:
        assert np.array_equal(grads[name], batch_grads[name])


def test_backward_rejects_dlogits_of_another_batch():
    w, pet, head, xs, _ = make_batch("adapter")
    _, trace = bb.forward(w, pet, xs, head=head)
    with pytest.raises(ValueError, match="dlogits"):
        bb.backward(trace, w, pet, np.ones(CFG.num_classes), head=head)


def test_batched_masked_cross_entropy_equals_rows():
    rng = np.random.default_rng(11)
    logits = rng.normal(0.0, 3.0, size=(BATCH, CFG.num_classes))
    mask = np.array([True, False, True])
    labels = rng.choice([0, 2], size=BATCH)
    losses, grads = tr.masked_cross_entropy(logits, mask, labels)
    assert losses.shape == (BATCH,) and grads.shape == logits.shape
    for i in range(BATCH):
        loss, grad = tr.masked_cross_entropy(logits[i], mask, int(labels[i]))
        assert loss == losses[i]
        assert np.array_equal(grad, grads[i])
    with pytest.raises(ValueError, match="masked out"):
        tr.masked_cross_entropy(logits, mask, np.ones(BATCH, dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        tr.masked_cross_entropy(logits, mask, labels[:-1])


ODD_ROWS = 37  # not a multiple of bb.CHUNK_ROWS, so the last chunk is short


def test_evaluate_task_chunks_keep_row_order():
    w, pet, head, xs, _ = make_batch("prefix", n=ODD_ROWS)
    predicted = np.array([
        int(np.argmax(bb.forward(w, pet, x, head=head, need_trace=False)[0])) for x in xs
    ])
    classes = list(range(CFG.num_classes))
    shifted = (predicted + np.arange(ODD_ROWS) % 2) % CFG.num_classes

    def task(labels):
        return dm.TaskDataset(task_id=0, classes=classes, train_x=xs[:0], train_y=labels[:0],
                              test_x=xs, test_y=labels)

    # "dil" masks nothing, so each row's prediction is its plain argmax
    assert ODD_ROWS % bb.CHUNK_ROWS != 0
    assert tr.evaluate_task(w, pet, head, task(predicted), "dil", None) == 1.0
    expected = np.count_nonzero(shifted == predicted) / ODD_ROWS
    assert 0.0 < expected < 1.0
    assert tr.evaluate_task(w, pet, head, task(shifted), "dil", None) == expected


def test_sample_features_chunks_keep_row_order():
    w, pet, head, xs, _ = make_batch("lora", n=ODD_ROWS)
    sites = pj.paradigm_sites("lora", CFG.depth)
    keys = {"attn_in": "a_in", "lora_q_mid": "y_q", "lora_v_mid": "y_v"}
    expected = {site: [] for site in sites}
    for x in xs:
        _, trace = bb.forward(w, pet, x)
        for site in sites:
            kind, layer = site.split(".")
            expected[site].append(trace.layers[int(layer)][keys[kind]][0])
    rows = pj.sample_features(w, pet, xs, sites)
    assert sorted(rows) == sorted(sites)
    for site in sites:
        assert np.array_equal(rows[site], np.vstack(expected[site])), site


def test_update_buffers_reads_every_site_from_one_forward(monkeypatch):
    w, pet, head, xs, _ = make_batch("lora", n=8)
    proj_cfg = pj.ProjectionConfig(sample_count=8, buffer_cap=64)
    buffers = tr.init_buffers("lora", CFG, proj_cfg)
    calls = []
    forward = bb.forward

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return forward(*args, **kwargs)

    monkeypatch.setattr(bb, "forward", counted)
    tr.update_buffers(w, pet, xs, buffers, 0, np.random.default_rng(0))
    assert len(buffers) == 3 * CFG.depth
    assert calls == [(8, CFG.seq_len, CFG.dim)]
    for buf in buffers.values():
        assert buf.count == 8 * CFG.seq_len
