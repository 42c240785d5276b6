"""The worker fan-out changes where work runs, never its bits.

`trainer.rebuild_bases` factors through a `workers.pool` map and
`eval.verify_all` runs its checks through one; both must give what the
inline map gives, raise their warnings in this process, start no pool
where none is wanted, and leave no process behind.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import orthopet.backbone as bb
import orthopet.data as dm
import orthopet.eval as ev
import orthopet.linalg as linalg
import orthopet.pet as pm
import orthopet.projection as pj
import orthopet.trainer as tr
import orthopet.workers as workers

SRC = Path(__file__).resolve().parent.parent / "src"
MODEL = bb.TransformerConfig(dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
                             num_classes=4, prompt_len=4, prefix_len=4, rank=4)
PROJ = pj.ProjectionConfig(epsilon=0.3, beta=0.3)

needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="a pool starts only with two usable CPUs")


def _state(paradigm, full_rank_site=False):
    """Fresh tensors and two sampling rounds of buffers, so that both tall
    (F-ordered) and completed (C-ordered) site bases occur; with
    `full_rank_site`, a scaled identity block in the last site's buffer
    makes its basis come out empty and warn."""
    w = bb.init_backbone(MODEL, 1)
    pet = pm.init_pet(MODEL, paradigm, 2)
    buffers = tr.init_buffers(paradigm, MODEL)
    rng = np.random.default_rng(3)
    for n in (2, 3):
        tr.update_buffers(w, pet, rng.normal(size=(n, MODEL.seq_len, MODEL.dim)), buffers)
    if full_rank_site:
        last = buffers[max(buffers)]
        last.add(100.0 * np.eye(last.width))
    return pet, buffers


def _rebuild(pet, buffers, run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bases = tr.rebuild_bases(pet, buffers, PROJ, MODEL, run)
    return bases, [(w.category, str(w.message)) for w in caught]


def _layout(a):
    return a.shape, a.strides, a.flags["C_CONTIGUOUS"], a.flags["F_CONTIGUOUS"]


def _assert_same_bases(got, want):
    assert list(got) == list(want)
    for key in want:
        assert _layout(got[key]) == _layout(want[key]), key
        assert got[key].tobytes("A") == want[key].tobytes("A"), key


@needs_two_cpus
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("full_rank_site", [False, True], ids=["bases", "empty-basis"])
@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_pool_and_inline_rebuilds_are_identical(paradigm, full_rank_site):
    """Same bytes, strides, contiguity flags and warning sequence; the
    layout alone can flip an ablation verdict."""
    pet, buffers = _state(paradigm, full_rank_site)
    want, want_warned = _rebuild(pet, buffers, workers.inline)
    with workers.pool() as run:
        assert run is not workers.inline
        got, got_warned = _rebuild(pet, buffers, run)
        if full_rank_site:
            with pytest.warns(pj.EmptyBasisWarning, match=f"site {max(buffers)}:"):
                tr.rebuild_bases(pet, buffers, PROJ, MODEL, run)
    assert got_warned == want_warned
    assert all(category is pj.EmptyBasisWarning for category, _ in want_warned)
    _assert_same_bases(got, want)


@needs_two_cpus
def test_workers_call_the_svd_the_parent_bound(monkeypatch):
    """With `linalg.svd` rebound to a local closure, as the benchmark's
    span tracer does, the pool still gives the inline bases, and every
    factorization runs in a worker: the parent's closure is never called."""
    pet, buffers = _state("lora", full_rank_site=True)
    want, want_warned = _rebuild(pet, buffers, workers.inline)
    svd = linalg.svd
    parent = os.getpid()
    calls = []

    def traced(a):
        calls.append(os.getpid())
        return svd(a)

    monkeypatch.setattr(linalg, "svd", traced)
    with workers.pool() as run:
        got, got_warned = _rebuild(pet, buffers, run)
    assert parent not in calls
    assert got_warned == want_warned
    _assert_same_bases(got, want)


def _pool_is_inline(_):
    with workers.pool() as run:
        return run is workers.inline


def test_no_pool_on_one_cpu_or_inside_a_worker(monkeypatch):
    with workers.pool() as run:
        assert run(_pool_is_inline, [0, 1]) == [True, True]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with workers.pool() as run:
        assert run is workers.inline
        assert multiprocessing.active_children() == []


SPEC = dm.ScenarioSpec(scenario="cil", tasks=2, classes_per_task=2, samples_per_class=8,
                       feature_dim=64, noise=0.1, separation=4.0)
CFG = tr.TrainConfig(epochs=1, batch_size=8, lr=0.05, optimizer="sgd", scenario="cil", seed=0)


@needs_two_cpus
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_no_worker_outlives_a_run(monkeypatch):
    stream = dm.gen_stream(SPEC, dm.make_tokenizer(64, MODEL.seq_len, MODEL.dim, 0), 0)
    tr.continual_run(stream, MODEL, "lora", CFG)
    assert multiprocessing.active_children() == []

    ce = tr.masked_cross_entropy
    alive = []

    def poisoned(logits, mask, labels):
        if mask.sum() > 2:  # the second task, after the first rebuild
            alive.append(len(multiprocessing.active_children()))
            raise FloatingPointError("poisoned")
        return ce(logits, mask, labels)

    monkeypatch.setattr(tr, "masked_cross_entropy", poisoned)
    with pytest.raises(FloatingPointError, match="poisoned"):
        tr.continual_run(stream, MODEL, "lora", CFG)
    assert alive == [len(os.sched_getaffinity(0))]
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_verify_all_runs_the_checks_it_binds_on_workers(monkeypatch):
    """Stubbed checks reach the forked workers by name; the rows come back
    in order and no worker outlives the suite."""
    parent = os.getpid()
    pids = []

    def probe(**kw):
        pids.append(os.getpid())
        return {"max_error": 0.0, "hand_case_ok": os.getpid() != parent}

    monkeypatch.setattr(ev, "metrics_oracle_check", probe)
    monkeypatch.setattr(ev, "svd_suite", lambda: {"reconstruction": 1.0, "orthogonality": 0.0,
                                                  "projector": 0.0})
    monkeypatch.setattr(ev, "gradient_check", lambda paradigm: 0.0)
    monkeypatch.setattr(ev, "orthonormalize_suite", lambda: 0.0)
    monkeypatch.setattr(ev, "orthogonality_check", lambda paradigm: {
        "max_overlap": 0.0, "idempotence": 0.0})
    monkeypatch.setattr(ev, "eta_scaling_probe", lambda paradigm: {
        "proj_eta": 1.0, "unproj_eta": 1.0, "proj_ratio": 4.0, "unproj_ratio": 2.0,
        "proj_drift": 0.1, "unproj_drift_matched": 1.0})
    rows = ev.verify_all()
    assert [r["name"] for r in rows][:2] == ["svd", "orthonormalize"]
    assert [r["ok"] for r in rows] == [False] + [True] * 14
    assert pids == []
    assert multiprocessing.active_children() == []


def _alive(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed():
    holder = (
        "import multiprocessing, time\n"
        "from orthopet import workers\n"
        "with workers.pool() as run:\n"
        "    run(abs, [1, 2])\n"
        "    print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
        "    time.sleep(60)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", holder], stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    pids = [int(p) for p in proc.stdout.readline().split()]
    try:
        assert len(pids) == len(os.sched_getaffinity(0))
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        assert [pid for pid in pids if _alive(pid)] == []
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
