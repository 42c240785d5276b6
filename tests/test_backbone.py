"""Backbone forward/backward checks.

Two independent oracles: a deliberately naive reference forward written
with per-head python loops and math.erf (no shared helpers with the
implementation), and central finite differences for every trainable
tensor of every paradigm.  The batch-equivalence section pins the
batched hot path bit for bit to the same samples run one at a time, and
the bit-oracle section pins it bit for bit to the all-rows pass, in which
the last block also computes the prompt rows the pool drops.
"""

import math
import re

import numpy as np
import pytest
from scipy.special import erf

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
    x = rng.normal(0.0, 1.0, size=(1, CFG.seq_len, CFG.dim))
    head = w.classifier.copy()
    return w, pet, x, head


def ref_gelu(x):
    flat = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.ravel(x)]
    return np.array(flat).reshape(np.shape(x))


def ref_layernorm(x):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + bb.LN_EPS)


def reference_forward(w, pet, x, head):
    """Logits of one (seq_len, dim) sample."""
    cfg = w.cfg
    dh = cfg.dim // cfg.heads
    z = x @ w.embed
    n_prompt = 0
    if pet.paradigm == "prompt":
        z = np.vstack([pet.params["prompt"], z])
        n_prompt = pet.params["prompt"].shape[0]
    for li, lw in enumerate(w.layers):
        a = ref_layernorm(z)
        q = a @ lw["w_q"]
        k = a @ lw["w_k"]
        v = a @ lw["w_v"]
        if pet.paradigm == "lora":
            q = q + a @ pet.params[f"lora_q_down.{li}"] @ pet.params[f"lora_q_up.{li}"]
            v = v + a @ pet.params[f"lora_v_down.{li}"] @ pet.params[f"lora_v_up.{li}"]
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
        m = ref_layernorm(z)
        mlp = ref_gelu(m @ lw["w_1"]) @ lw["w_2"]
        if pet.paradigm == "adapter":
            mlp = mlp + ref_gelu(m @ pet.params[f"adapter_down.{li}"] @ pet.params[f"adapter_up.{li}"])
        z = z + mlp
    z = ref_layernorm(z)
    return z[n_prompt:].mean(axis=0) @ head


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_forward_matches_reference(paradigm):
    w, pet, x, head = make_model(paradigm)
    logits, _ = bb.forward(w, pet, x, head=head)
    ref = reference_forward(w, pet, x[0], head)
    assert np.allclose(logits[0], ref, atol=1e-12, rtol=1e-12)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_backward_matches_finite_differences(paradigm):
    w, pet, x, head = make_model(paradigm)
    c = np.random.default_rng(99).normal(size=(1, CFG.num_classes))

    _, trace = bb.forward(w, pet, x, head=head)
    grads, head_grad = bb.backward(trace, w, pet, c, head=head)

    def loss():
        logits, _ = bb.forward(w, pet, x, head=head, need_trace=False)
        return float(logits[0] @ c[0])

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
    grads, head_grad = bb.backward(trace, w, pet, np.zeros((1, CFG.num_classes)), head=head)
    assert not head_grad.any()
    for g in grads.values():
        assert not g.any()
    assert sorted(grads) == sorted(r.name for r in pm.routes(paradigm, CFG.depth))


def test_backward_shapes():
    w, pet, x, head = make_model("prompt")
    _, trace = bb.forward(w, pet, x, head=head)
    grads, head_grad = bb.backward(trace, w, pet, np.ones((1, CFG.num_classes)), head=head)
    assert grads["prompt"].shape == (CFG.prompt_len, CFG.dim)
    assert head_grad.shape == (CFG.dim, CFG.num_classes)


def test_stale_trace_rejected():
    w, pet, x, head = make_model("adapter")
    _, trace = bb.forward(w, pet, x, head=head)
    pet.bump()
    with pytest.raises(bb.StaleTraceError):
        bb.backward(trace, w, pet, np.ones((1, CFG.num_classes)), head=head)
    other = pm.init_pet(CFG, "adapter", 123)
    with pytest.raises(bb.StaleTraceError):
        bb.backward(trace, w, other, np.ones((1, CFG.num_classes)), head=head)


def test_incomplete_trace_rejected():
    w, pet, x, head = make_model("lora")
    _, trace = bb.forward(w, pet, x, head=head)
    trace.layers.pop()
    with pytest.raises(ValueError):
        bb.backward(trace, w, pet, np.ones((1, CFG.num_classes)), head=head)


def test_backward_is_repeatable():
    w, pet, x, head = make_model("prefix")
    _, trace = bb.forward(w, pet, x, head=head)
    c = np.arange(CFG.num_classes, dtype=float)[None]
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
        bb.backward(trace, w, pet, np.ones((1, CFG.num_classes)), head=head)
    assert np.array_equal(w.embed, snap_embed)
    for layer, snap in zip(w.layers, snap_layers):
        for key in layer:
            assert np.array_equal(layer[key], snap[key])


def test_forward_is_deterministic():
    w, pet, x, head = make_model("prompt")
    a, _ = bb.forward(w, pet, x, head=head)
    b, _ = bb.forward(w, pet, x, head=head)
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
    x = np.random.default_rng(10).normal(size=(1, CFG.seq_len, CFG.dim))
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
    )
    baseline, _ = bb.forward(w, pm.init_pet(free_cfg, "prompt", 1), x, w.classifier)

    adapter_logits, _ = bb.forward(w, pm.init_pet(CFG, "adapter", 2), x, w.classifier)
    assert np.array_equal(adapter_logits, baseline)

    lora_logits, _ = bb.forward(w, pm.init_pet(CFG, "lora", 3), x, w.classifier)
    assert np.array_equal(lora_logits, baseline)


def test_activation_variance_in_sane_range():
    cfg = bb.TransformerConfig(depth=2, dim=32, heads=4, seq_len=6, num_classes=4)
    w = bb.init_backbone(cfg, 21)
    pet = pm.init_pet(cfg, "adapter", 22)
    rng = np.random.default_rng(23)
    per_layer = [[] for _ in range(cfg.depth)]
    for _ in range(16):
        x = rng.normal(0.0, 1.0, size=(1, cfg.seq_len, cfg.dim))
        _, trace = bb.forward(w, pet, x, w.classifier)
        for li, t in enumerate(trace.layers):
            per_layer[li].append((t["a_in"].var(), t["m_in"].var(), t["u"].var()))
    for stats in per_layer:
        arr = np.array(stats).mean(axis=0)
        assert np.all(arr >= 0.1) and np.all(arr <= 10.0)


def test_forward_rejects_bad_shapes():
    w, pet, x, head = make_model("prompt")
    # a (seq_len, dim) sample without the batch axis is refused too
    for bad in (x[..., :-1], x.ravel(), x[0]):
        with pytest.raises(ValueError, match="token batch"):
            bb.forward(w, pet, bad, head)


def test_non_finite_logits_raise():
    w, pet, _, head = make_model("prompt")
    x = np.full((1, CFG.seq_len, CFG.dim), 1e308)
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
def test_batched_pass_equals_per_sample_loop(paradigm, monkeypatch):
    w, pet, head, xs, ys = make_batch(paradigm)
    mask = np.ones(CFG.num_classes, dtype=bool)
    logits, trace = bb.forward(w, pet, xs, head=head)
    _, dlogits = tr.masked_cross_entropy(logits, mask, ys)
    factor_calls = []
    gelu_factor = pm.gelu_factor
    monkeypatch.setattr(pm, "gelu_factor", lambda x: factor_calls.append(x) or gelu_factor(x))
    grads, head_grad = bb.backward(trace, w, pet, dlogits, head=head)
    monkeypatch.undo()
    # every GELU factor backward needs was kept by forward: no erf reruns
    assert factor_calls == []
    assert logits.shape == (BATCH, CFG.num_classes)
    if paradigm == "adapter":
        # the factor backward reads has the bits of gelu_factor(y @ w_up)
        for li, t in enumerate(trace.layers):
            ins = pm.insertion(paradigm, "mlp", li)
            assert ins.gelu
            pre = t[ins.trace_key] @ pet.params[ins.names[1]]
            assert np.array_equal(t[ins.factor_key], pm.gelu_factor(pre))

    gsum = {name: np.zeros_like(arr) for name, arr in pet.params.items()}
    hsum = np.zeros_like(head)
    for i in range(BATCH):
        one, one_trace = bb.forward(w, pet, xs[i:i + 1], head=head)
        assert np.array_equal(one[0], logits[i])
        _, d_one = tr.masked_cross_entropy(one, mask, ys[i:i + 1])
        g, h = bb.backward(one_trace, w, pet, d_one, head=head)
        for name in gsum:
            gsum[name] += g[name]
        hsum += h
    assert sorted(grads) == sorted(gsum)
    for name in gsum:
        assert np.array_equal(grads[name], gsum[name]), name
    assert np.array_equal(head_grad, hsum)


# apply_* calls of one traced forward plus backward: once per insertion
# point per block, the prompt once per pass
INSERT_CALLS = {"prompt": 1, "prefix": 2 * CFG.depth, "adapter": CFG.depth, "lora": 2 * CFG.depth}


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_passes_call_the_module_attributes(paradigm, monkeypatch):
    """The passes look `pet.apply_*`, `gelu` and `gelu_grad` up when they
    call them, so wrappers rebound over those names (as perfbench's span
    tracer does) see every insertion and every GELU."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("apply_prompt", "apply_prefix", "apply_adapter", "apply_lora", "gelu", "gelu_grad"):
        monkeypatch.setattr(pm, name, counting(name, getattr(pm, name)))
    w, pet, head, xs, _ = make_batch(paradigm)
    logits, trace = bb.forward(w, pet, xs, head=head)
    bb.backward(trace, w, pet, np.ones_like(logits), head=head)
    # the MLP runs gelu forward and gelu_grad backward in every block; the
    # adapter's bypass runs each once more
    gelus = 2 * CFG.depth if paradigm == "adapter" else CFG.depth
    assert calls == {f"apply_{paradigm}": INSERT_CALLS[paradigm], "gelu": gelus, "gelu_grad": gelus}


def _per_sample(arr, n, rng):
    """n copies of arr, each moved by its own small draw."""
    return arr + rng.normal(0.0, 0.01, size=(n,) + arr.shape)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_per_sample_tensors_equal_single_sample_forwards(paradigm):
    """A forward in which every paradigm tensor and the head, or any one of
    them, carries one copy per sample gives each sample the bits of a
    single-sample forward with its own copies."""
    w, pet, head, xs, _ = make_batch(paradigm)
    rng = np.random.default_rng(11)
    copies = {name: _per_sample(arr, BATCH, rng) for name, arr in pet.params.items()}
    heads = _per_sample(head, BATCH, rng)
    cases = [(copies, heads), ({}, heads)] + [({name: c}, head) for name, c in copies.items()]
    for tensors, case_head in cases:
        batch_pet = pm.PetState(paradigm, {**pet.params, **tensors})
        logits, trace = bb.forward(w, batch_pet, xs, head=case_head)
        assert trace is not None
        for i in range(BATCH):
            one_pet = pm.PetState(paradigm, {name: arr[i] if name in tensors else arr
                                             for name, arr in batch_pet.params.items()})
            one, _ = bb.forward(w, one_pet, xs[i:i + 1], head=case_head[i] if case_head.ndim == 3 else head,
                                need_trace=False)
            assert np.array_equal(logits[i], one[0]), (sorted(tensors), i)


@pytest.mark.parametrize("lead", [1, BATCH - 1])
@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_per_sample_tensor_of_another_batch_size_raises(paradigm, lead):
    """B = 1 included: a per-sample tensor or head never broadcasts."""
    w, pet, head, xs, _ = make_batch(paradigm)
    rng = np.random.default_rng(12)
    for name, arr in pet.params.items():
        bad = pm.PetState(paradigm, {**pet.params, name: _per_sample(arr, lead, rng)})
        with pytest.raises(ValueError, match="batch axis"):
            bb.forward(w, bad, xs, head=head, need_trace=False)
    with pytest.raises(ValueError, match="head"):
        bb.forward(w, pet, xs, head=_per_sample(head, lead, rng), need_trace=False)
    # only a leading axis of 1 fits a batch of one
    fits = lead == 1
    for name, arr in pet.params.items():
        one = pm.PetState(paradigm, {**pet.params, name: _per_sample(arr, lead, rng)})
        if fits:
            bb.forward(w, one, xs[:1], head=head, need_trace=False)
        else:
            with pytest.raises(ValueError, match="batch axis"):
                bb.forward(w, one, xs[:1], head=head, need_trace=False)


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_backward_refuses_per_sample_tensors(paradigm):
    """Backward sums over the batch and transposes factors, so a trace of
    per-sample tensors would give wrong gradients; it raises and names the
    tensor instead."""
    w, pet, head, xs, _ = make_batch(paradigm)
    rng = np.random.default_rng(13)
    for name, arr in pet.params.items():
        per_sample = pm.PetState(paradigm, {**pet.params, name: _per_sample(arr, BATCH, rng)})
        logits, trace = bb.forward(w, per_sample, xs, head=head)
        with pytest.raises(ValueError, match=re.escape(name)):
            bb.backward(trace, w, per_sample, np.ones_like(logits), head=head)
    heads = _per_sample(head, BATCH, rng)
    logits, trace = bb.forward(w, pet, xs, head=heads)
    with pytest.raises(ValueError, match="head"):
        bb.backward(trace, w, pet, np.ones_like(logits), head=heads)


def test_backward_rejects_dlogits_of_another_batch():
    w, pet, head, xs, _ = make_batch("adapter")
    _, trace = bb.forward(w, pet, xs, head=head)
    with pytest.raises(ValueError, match="dlogits"):
        bb.backward(trace, w, pet, np.ones(CFG.num_classes), head=head)
    # a batch of one takes (1, classes) dlogits, not (classes,)
    _, trace = bb.forward(w, pet, xs[:1], head=head)
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
        loss, grad = tr.masked_cross_entropy(logits[i:i + 1], mask, labels[i:i + 1])
        assert loss[0] == losses[i]
        assert np.array_equal(grad[0], grads[i])
    with pytest.raises(ValueError, match="masked out"):
        tr.masked_cross_entropy(logits, mask, np.ones(BATCH, dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        tr.masked_cross_entropy(logits, mask, labels[:-1])


ODD_ROWS = 37  # not a multiple of bb.CHUNK_ROWS, so the last chunk is short


def test_evaluate_task_chunks_keep_row_order():
    w, pet, head, xs, _ = make_batch("prefix", n=ODD_ROWS)
    predicted = np.array([
        int(np.argmax(bb.forward(w, pet, xs[i:i + 1], head=head, need_trace=False)[0])) for i in range(ODD_ROWS)
    ])
    classes = list(range(CFG.num_classes))
    shifted = (predicted + np.arange(ODD_ROWS) % 2) % CFG.num_classes

    # an identity tokenizer, whose tokens of a row are exactly its xs
    tok = dm.Tokenizer(seq_len=xs.shape[1], token_width=xs.shape[2], dim=xs.shape[2], matrix=np.eye(xs.shape[2]))
    raws = xs.reshape(ODD_ROWS, -1)

    def task(labels):
        return dm.TaskDataset(task_id=0, classes=classes, tokenizer=tok, train_raw=raws[:0],
                              train_y=labels[:0], test_raw=raws, test_y=labels)

    # "dil" masks nothing, so each row's prediction is its plain argmax
    assert ODD_ROWS % bb.CHUNK_ROWS != 0
    assert task(predicted).tokens("test").tobytes() == xs.tobytes()
    assert tr.evaluate_task(w, pet, head, task(predicted), "dil", None) == 1.0
    expected = np.count_nonzero(shifted == predicted) / ODD_ROWS
    assert 0.0 < expected < 1.0
    assert tr.evaluate_task(w, pet, head, task(shifted), "dil", None) == expected


def test_sample_features_chunks_keep_row_order():
    w, pet, head, xs, _ = make_batch("lora", n=ODD_ROWS)
    sites = {r.site: r for r in pm.routes("lora", CFG.depth)}
    expected = {site: [] for site in sites}
    for i in range(ODD_ROWS):
        _, trace = bb.forward(w, pet, xs[i:i + 1], w.classifier)
        for site, r in sites.items():
            expected[site].append(trace.layers[r.layer][pm.SITES[r.spec.site].trace_key][0])
    rows = pj.sample_features(w, pet, xs)
    assert list(rows) == list(sites)
    for site in sites:
        assert np.array_equal(rows[site], np.vstack(expected[site])), site


def test_update_buffers_reads_every_site_from_one_forward(monkeypatch):
    w, pet, head, xs, _ = make_batch("lora", n=8)
    buffers = tr.init_buffers("lora", CFG)
    calls = []
    forward = bb.forward

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return forward(*args, **kwargs)

    monkeypatch.setattr(bb, "forward", counted)
    tr.update_buffers(w, pet, xs, buffers)
    assert len(buffers) == 3 * CFG.depth
    assert calls == [(8, CFG.seq_len, CFG.dim)]
    for buf in buffers.values():
        assert buf.rows.shape[0] == 8 * CFG.seq_len


# -- bit oracle: the all-rows pass ------------------------------------------
#
# The forward and backward pass as they were before the last block learned
# to compute its query side only for the rows the pool reads: every block
# runs every row, and the pool drops the prompt rows at the end.  Frozen
# here, with its own layernorm and softmax on `ndarray.mean`/`sum`, its own
# GELU and its own prepend and bypass arithmetic, as the reference the
# trimmed pass must equal bit for bit.  Nothing in it calls into `pet`
# beyond the parameter dict, so it does not move when the code under test
# does.


def _ar_layernorm(x):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + bb.LN_EPS)
    return xc * inv, inv


def _ar_layernorm_backward(dout, xhat, inv):
    return (dout - dout.mean(axis=-1, keepdims=True) - xhat * (dout * xhat).mean(axis=-1, keepdims=True)) * inv


def _ar_split(x, heads):
    b, rows, d = x.shape
    return x.reshape(b, rows, heads, d // heads).transpose(0, 2, 1, 3)


def _ar_merge(x):
    b, h, rows, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, rows, h * dh)


def _ar_softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ar_gelu_factor(x):
    return 1.0 + erf(x / np.sqrt(2.0))


def _ar_gelu_grad(x, factor):
    return 0.5 * factor + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _ar_prepend(p, x):
    return np.concatenate([np.broadcast_to(p, x.shape[:-2] + p.shape), x], axis=-2)


def _ar_bypass(w_dn, w_up, x, base, gelu):
    """base + [gelu](x @ w_dn @ w_up), y = x @ w_dn and the GELU factor."""
    y = x @ w_dn
    pre = y @ w_up
    if not gelu:
        return base + pre, y, None
    factor = _ar_gelu_factor(pre)
    return base + 0.5 * pre * factor, y, factor


def _ar_bypass_backward(w_dn, w_up, x, y, d, factor):
    """(down gradient, up gradient, gradient into x) of one bypass."""
    if factor is not None:
        d = _ar_gelu_grad(y @ w_up, factor) * d
    g_up = (y.swapaxes(-1, -2) @ d).sum(axis=0)
    dy = d @ w_up.T
    return (x.swapaxes(-1, -2) @ dy).sum(axis=0), g_up, dy @ w_dn.T


def all_rows_forward(w, pet, xs, head):
    """Logits (batch, classes) and the per-layer cache all_rows_backward reads."""
    cfg, params, paradigm = w.cfg, pet.params, pet.paradigm
    x_embed = xs @ w.embed
    z = x_embed
    prompt_rows = 0
    if paradigm == "prompt":
        z = _ar_prepend(params["prompt"], x_embed)
        prompt_rows = params["prompt"].shape[0]
    layers = []
    for li, lw in enumerate(w.layers):
        a_in, inv1 = _ar_layernorm(z)
        q = a_in @ lw["w_q"]
        k = a_in @ lw["w_k"]
        v = a_in @ lw["w_v"]
        y_q = y_v = None
        if paradigm == "lora":
            q, y_q, _ = _ar_bypass(params[f"lora_q_down.{li}"], params[f"lora_q_up.{li}"], a_in, q, False)
            v, y_v, _ = _ar_bypass(params[f"lora_v_down.{li}"], params[f"lora_v_up.{li}"], a_in, v, False)
        if paradigm == "prefix":
            k = _ar_prepend(params[f"prefix_k.{li}"], k)
            v = _ar_prepend(params[f"prefix_v.{li}"], v)
        kh, vh = _ar_split(k, cfg.heads), _ar_split(v, cfg.heads)
        attn = _ar_softmax(_ar_split(q, cfg.heads) @ kh.swapaxes(-1, -2) / np.sqrt(cfg.head_dim))
        z_mid = z + _ar_merge(attn @ vh) @ lw["w_o"]
        m_in, inv2 = _ar_layernorm(z_mid)
        u = m_in @ lw["w_1"]
        factor = _ar_gelu_factor(u)
        mlp = (0.5 * u * factor) @ lw["w_2"]
        y_a = adapter_factor = None
        if paradigm == "adapter":
            mlp, y_a, adapter_factor = _ar_bypass(params[f"adapter_down.{li}"], params[f"adapter_up.{li}"], m_in, mlp, True)
        layers.append(dict(a_in=a_in, inv1=inv1, attn=attn, q=q, k=k, v=v, m_in=m_in,
                           inv2=inv2, u=u, factor=factor, y_q=y_q, y_v=y_v, y_a=y_a,
                           adapter_factor=adapter_factor))
        z = z_mid + mlp
    xhat_f, inv_f = _ar_layernorm(z)
    pooled = xhat_f[:, prompt_rows:].mean(axis=1)
    logits = np.matmul(pooled[:, None, :], head)[:, 0]
    cache = dict(layers=layers, prompt_rows=prompt_rows, token_rows=xs.shape[1],
                 xhat_f=xhat_f, inv_f=inv_f, pooled=pooled)
    return logits, cache


def all_rows_backward(cache, w, pet, dlogits, head):
    """(pet_grads, head_grad) of the all-rows pass, summed over the batch."""
    cfg, params, paradigm = w.cfg, pet.params, pet.paradigm
    grads = {}
    head_grad = (cache["pooled"][:, :, None] * dlogits[:, None, :]).sum(axis=0)
    dpooled = np.matmul(head, dlogits[:, :, None])[..., 0]
    prompt_rows, token_rows = cache["prompt_rows"], cache["token_rows"]
    dz_final = np.zeros((dlogits.shape[0], prompt_rows + token_rows, cfg.dim))
    dz_final[:, prompt_rows:] = dpooled[:, None, :] / token_rows
    dz = _ar_layernorm_backward(dz_final, cache["xhat_f"], cache["inv_f"])
    for li in reversed(range(cfg.depth)):
        lw, t = w.layers[li], cache["layers"][li]
        dm_in = np.zeros_like(t["m_in"])
        if paradigm == "adapter":
            dn, up = f"adapter_down.{li}", f"adapter_up.{li}"
            grads[dn], grads[up], dx = _ar_bypass_backward(params[dn], params[up], t["m_in"], t["y_a"], dz,
                                                           t["adapter_factor"])
            dm_in += dx
        du = (dz @ lw["w_2"].T) * _ar_gelu_grad(t["u"], t["factor"])
        dm_in += du @ lw["w_1"].T
        dz_mid = dz + _ar_layernorm_backward(dm_in, t["m_in"], t["inv2"])
        doh = _ar_split(dz_mid @ lw["w_o"].T, cfg.heads)
        attn = t["attn"]
        dattn = doh @ _ar_split(t["v"], cfg.heads).swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ doh
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(cfg.head_dim)
        dq = _ar_merge(dscores @ _ar_split(t["k"], cfg.heads))
        dk = _ar_merge(dscores.swapaxes(-1, -2) @ _ar_split(t["q"], cfg.heads))
        dv = _ar_merge(dvh)
        if paradigm == "prefix":
            n_pref = params[f"prefix_k.{li}"].shape[0]
            grads[f"prefix_k.{li}"] = dk[:, :n_pref].sum(axis=0)
            grads[f"prefix_v.{li}"] = dv[:, :n_pref].sum(axis=0)
            dk, dv = dk[:, n_pref:], dv[:, n_pref:]
        da_in = dq @ lw["w_q"].T + dk @ lw["w_k"].T + dv @ lw["w_v"].T
        if paradigm == "lora":
            for slot, dslot in (("q", dq), ("v", dv)):
                dn, up = f"lora_{slot}_down.{li}", f"lora_{slot}_up.{li}"
                grads[dn], grads[up], dx = _ar_bypass_backward(params[dn], params[up], t["a_in"], t[f"y_{slot}"],
                                                               dslot, None)
                da_in += dx
        dz = dz_mid + _ar_layernorm_backward(da_in, t["a_in"], t["inv1"])
    if paradigm == "prompt":
        grads["prompt"] = dz[:, :prompt_rows].sum(axis=0)
    return grads, head_grad


@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("prompt_len", [0, 1, 8])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_pass_matches_all_rows_reference_bit_for_bit(paradigm, depth, prompt_len, batch):
    """Logits, every pet gradient and the head gradient equal the all-rows
    pass's (`np.array_equal`, no tolerance)."""
    cfg = bb.TransformerConfig(depth=depth, dim=12, heads=4, seq_len=3, num_classes=3,
                               prompt_len=prompt_len, prefix_len=2, rank=3)
    seed = 100 * depth + 10 * prompt_len + batch
    w = bb.init_backbone(cfg, seed)
    pet = pm.init_pet(cfg, paradigm, seed + 1)
    rng = np.random.default_rng(seed + 2)
    for name in sorted(pet.params):
        pet.params[name] = rng.normal(0.0, 0.3, size=pet.params[name].shape)
    xs = rng.normal(0.0, 1.0, size=(batch, cfg.seq_len, cfg.dim))
    head = rng.normal(0.0, 0.5, size=w.classifier.shape)
    dlogits = rng.normal(0.0, 1.0, size=(batch, cfg.num_classes))

    logits, trace = bb.forward(w, pet, xs, head=head)
    grads, head_grad = bb.backward(trace, w, pet, dlogits, head=head)
    ref_logits, cache = all_rows_forward(w, pet, xs, head)
    ref_grads, ref_head_grad = all_rows_backward(cache, w, pet, dlogits, head)

    assert np.array_equal(logits, ref_logits)
    assert np.array_equal(head_grad, ref_head_grad)
    assert sorted(grads) == sorted(ref_grads)
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name
    trimmed = prompt_len if paradigm == "prompt" else 0
    assert [t["query_from"] for t in trace.layers] == [0] * (depth - 1) + [trimmed]
    assert trace.layers[-1]["a_in"].shape[1] == cfg.seq_len + trimmed
    assert trace.layers[-1]["m_in"].shape[1] == cfg.seq_len


@pytest.mark.parametrize("width", [7, 12, 32, 64])
def test_rowmean_is_ndarray_mean_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for shape in [(width,), (5, width), (6, 12, width), (2, 4, 3, width)]:
        x = rng.normal(0.0, 1.0, size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        assert np.array_equal(bb._rowmean(x), x.mean(axis=-1, keepdims=True))
        strided = np.concatenate([x, x], axis=-1)[..., ::2]
        assert np.array_equal(bb._rowmean(strided), strided.mean(axis=-1, keepdims=True))
