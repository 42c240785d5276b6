"""The worker fan-out changes where work runs, never its bits.

`trainer.rebuild_bases` factors through a `workers.pool` map and
`eval.verify_all` runs its checks through one; both must give what the
inline map gives, raise their warnings in this process, start no pool
where none is wanted, and leave no process behind.  The pool's pipes must
carry any result whole and in order, and a job's exception back here.
"""

import json
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
import orthopet.cli as cli
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
reads_proc = pytest.mark.skipif(not any(Path("/proc/self/task").glob("*/children")),
                                reason="reads child processes and their states from /proc")


def _alive(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children():
    """Live children of this process.  The pool forks with `os.fork`, so
    `multiprocessing.active_children()` cannot see its workers; /proc lists
    every thread's children."""
    pids = {int(pid) for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()}
    return sorted(filter(_alive, pids))


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
    with workers.pool(2) as run:
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
    with workers.pool(2) as run:
        got, got_warned = _rebuild(pet, buffers, run)
    assert parent not in calls
    assert got_warned == want_warned
    _assert_same_bases(got, want)


def _pool_is_inline(_):
    with workers.pool(2) as run:
        return run is workers.inline


@reads_proc
def test_no_pool_on_one_cpu_or_inside_a_worker(monkeypatch):
    with workers.pool(2) as run:
        assert run(_pool_is_inline, [0, 1]) == [True, True]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with workers.pool(2) as run:
        assert run is workers.inline
        assert run(abs, [-1, -2]) == [1, 2]
        assert _children() == []


@reads_proc
def test_pool_starts_no_more_workers_than_jobs(monkeypatch):
    """The first map forks all the workers, so `jobs` caps them; one job
    runs inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    with workers.pool(3) as run:
        assert run(abs, [-1, -2]) == [1, 2]
        assert len(_children()) == 3
    assert _children() == []
    with workers.pool(1) as run:
        assert run is workers.inline


@reads_proc
def test_maps_of_fewer_jobs_than_workers_and_empty_maps(monkeypatch):
    """An empty map forks nothing; later maps of any size reuse the
    workers the first one forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    with workers.pool(3) as run:
        assert run(abs, []) == []
        assert _children() == []
        assert run(abs, [-5]) == [5]
        forked = _children()
        assert len(forked) == 3
        assert run(pow, [2, 3], [3, 2, 7]) == [8, 9]
        assert run(abs, []) == []
        assert run(os.getpid, []) == []
        assert _children() == forked
    assert _children() == []


def _scaled(a, k):
    return a * k


@needs_two_cpus
def test_results_larger_than_a_pipe_buffer_come_back_whole():
    """Bytes, strides and contiguity flags as inline, in input order, for
    results far above a pipe's 64 KiB buffer: the factors of 640-row
    buffers, and 1 MiB arrays in C, Fortran and strided layouts."""
    rng = np.random.default_rng(11)
    rows = [rng.normal(size=(640, 32)), rng.normal(size=(640, 16)), rng.normal(size=(16, 640))]
    big = rng.normal(size=(512, 256))
    arrays = [big, np.asfortranarray(big), big[:, :128], big.T]
    with workers.pool(2) as run:
        factors = run(pj.svd_factors, rows)
        scaled = run(_scaled, arrays, range(1, 5))
    want = [pj.svd_factors(r) for r in rows]
    assert len(factors) == len(want)
    for got, ref in zip(factors, want):
        for g, r in zip(got, ref):
            assert _layout(g) == _layout(r)
            assert g.tobytes("A") == r.tobytes("A")
    want = [a * k for a, k in zip(arrays, range(1, 5))]
    assert [_layout(g) for g in scaled] == [_layout(r) for r in want]
    assert all(g.tobytes("A") == r.tobytes("A") for g, r in zip(scaled, want))
    assert scaled[1].nbytes == 1 << 20


def _fail_at(i, failing, delay):
    """Job `i`: raises `failing[i]` after `delay[i]` seconds, if listed."""
    time.sleep(delay.get(i, 0.0))
    if i in failing:
        raise failing[i]
    return i


@needs_two_cpus
@reads_proc
def test_a_job_exception_is_raised_here():
    """Same type and message; of several, the lowest index's, even when a
    later job fails first; the pool still maps afterwards and leaves no
    child behind."""
    jobs = range(6)
    with workers.pool(2) as run:
        with pytest.raises(ValueError, match="^job 2$"):
            run(_fail_at, jobs, [{2: ValueError("job 2")}] * 6, [{}] * 6)
        failing = {1: LookupError("job 1"), 3: ValueError("job 3"), 4: KeyError("job 4")}
        with pytest.raises(LookupError, match="^job 1$") as raised:
            run(_fail_at, jobs, [failing] * 6, [{1: 0.5}] * 6)
        assert type(raised.value) is LookupError
        cause = raised.value.__cause__
        assert isinstance(cause, workers.WorkerTraceback)
        assert "in _fail_at" in str(cause) and "LookupError: job 1" in str(cause)
        assert run(_fail_at, jobs, [{}] * 6, [{}] * 6) == list(jobs)
    assert _children() == []


@needs_two_cpus
@reads_proc
def test_started_maps_are_in_flight_at_once():
    """`start` returns before its jobs finish; each map's `wait` gives its
    results in input order whichever map is waited on first, and a job's
    exception surfaces at its own map's `wait`."""
    with workers.pool(2) as run:
        began = time.monotonic()
        slow = run.start(_fail_at, range(4), [{}] * 4, [{0: 1.0}] * 4)
        failing = run.start(_fail_at, range(3), [{1: ValueError("job 1")}] * 3, [{}] * 3)
        fast = run.start(pow, [2, 3], [3, 2])
        assert time.monotonic() - began < 0.9
        assert fast() == [8, 9]
        with pytest.raises(ValueError, match="^job 1$"):
            failing()
        assert slow() == [0, 1, 2, 3]
        assert slow() == [0, 1, 2, 3]
        assert run(abs, [-1]) == [1]
        unwaited = run.start(_fail_at, [0], [{}], [{0: 60.0}])
    assert _children() == []
    with pytest.raises(ChildProcessError, match="stopped before this map finished"):
        unwaited()


def test_an_inline_map_computes_at_start():
    """The inline `start` runs every job, and raises a job's exception,
    before it returns."""
    calls = []
    wait = workers.inline.start(calls.append, [1, 2])
    assert calls == [1, 2]
    assert wait() == [None, None]
    with pytest.raises(KeyError, match="job 1"):
        workers.inline.start(_fail_at, range(2), [{1: KeyError("job 1")}] * 2, [{}] * 2)
    assert workers.inline(abs, [-3]) == [3]


SPEC = dm.ScenarioSpec(scenario="cil", tasks=2, classes_per_task=2, samples_per_class=8,
                       feature_dim=64, noise=0.1, separation=4.0)
CFG = tr.TrainConfig(epochs=1, batch_size=8, lr=0.05, optimizer="sgd", scenario="cil", seed=0)


@needs_two_cpus
@reads_proc
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_no_worker_outlives_a_run(monkeypatch):
    stream = dm.gen_stream(SPEC, dm.make_tokenizer(64, MODEL.seq_len, MODEL.dim, 0), 0)
    tr.continual_run(stream, MODEL, "lora", CFG)
    assert _children() == []

    ce = tr.masked_cross_entropy
    alive = []

    def poisoned(logits, mask, labels):
        if mask.sum() > 2:  # the second task, after the first rebuild
            alive.append(len(_children()))
            raise FloatingPointError("poisoned")
        return ce(logits, mask, labels)

    monkeypatch.setattr(tr, "masked_cross_entropy", poisoned)
    with pytest.raises(FloatingPointError, match="poisoned"):
        tr.continual_run(stream, MODEL, "lora", CFG)
    jobs = len(tr.rebuild_jobs("lora", MODEL.depth))
    assert alive == [min(len(os.sched_getaffinity(0)), jobs)]
    assert _children() == []


@needs_two_cpus
@reads_proc
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
    assert _children() == []


def _kill_pool_holder(when):
    """SIGKILL a process holding a two-worker pool whose workers are `when`
    ("idle" or "mid-job", in a 60 s job); its workers must be gone within
    5 s."""
    holder = (
        "import os, sys, time\n"
        "from orthopet import workers\n"
        "def pid(_):\n"
        "    return os.getpid()\n"
        "def nap(_):\n"
        "    os.write(1, b'%d\\n' % os.getpid())\n"
        "    time.sleep(60)\n"
        "with workers.pool(2) as run:\n"
        "    pids = run(pid, [0, 1])\n"
        "    if sys.argv[1] == 'idle':\n"
        "        print(*pids, sep='\\n', flush=True)\n"
        "        time.sleep(60)\n"
        "    run(nap, [0, 1])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", holder, when], stdout=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=path))
    pids = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        assert len(set(pids)) == 2
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


@needs_two_cpus
@reads_proc
def test_workers_exit_when_their_parent_is_killed():
    _kill_pool_holder("idle")


@needs_two_cpus
@reads_proc
def test_workers_exit_mid_job_when_their_parent_is_killed():
    _kill_pool_holder("mid-job")


@needs_two_cpus
@reads_proc
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_a_site_wrongly_marked_fixed_fails_the_run(monkeypatch):
    """A site whose rows training changes, if marked fixed, would be
    factored from stale rows; the run refuses, naming the site."""
    stream = dm.gen_stream(SPEC, dm.make_tokenizer(64, MODEL.seq_len, MODEL.dim, 0), 0)
    monkeypatch.setattr(pm, "fixed_sites", lambda paradigm: ["attn_in.0", "lora_q_mid.0"])
    with pytest.raises(RuntimeError, match="^site lora_q_mid.0 is fixed, but training changed its rows$"):
        tr.continual_run(stream, MODEL, "lora", CFG)
    assert _children() == []


@reads_proc
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("when", ["before", "after"])
def test_a_failing_rebuild_job_fails_the_run(monkeypatch, when):
    """A prompt run deals its embed-site SVD before the task trains and the
    SVD of the prompt's own rows after; either one failing fails the run
    with its own exception and leaves no worker behind."""
    stream = dm.gen_stream(SPEC, dm.make_tokenizer(64, MODEL.seq_len, MODEL.dim, 0), 0)
    svd = linalg.svd

    def failing(a):
        if (a.shape[0] == MODEL.prompt_len) == (when == "after"):
            raise ArithmeticError(f"svd {when} training")
        return svd(a)

    monkeypatch.setattr(linalg, "svd", failing)
    with pytest.raises(ArithmeticError, match=f"^svd {when} training$") as raised:
        tr.continual_run(stream, MODEL, "prompt", CFG)
    if len(os.sched_getaffinity(0)) > 1:
        assert "in failing" in str(raised.value.__cause__)
    assert _children() == []


TINY = {
    "model": {"dim": 16, "depth": 2, "heads": 2, "mlp_ratio": 2.0, "seq_len": 4,
              "num_classes": 4, "prompt_len": 4, "rank": 4},
    "data": {"scenario": "cil", "tasks": 2, "classes_per_task": 2, "samples_per_class": 20,
             "feature_dim": 64, "noise": 0.1, "separation": 4.0},
    "train": {"epochs": 2, "batch_size": 8, "lr": 0.05, "optimizer": "adam", "seed": 0,
              "backbone_seed": 0},
    "projection": {"epsilon": 0.02, "sample_count": 8},
}


def _train_outputs(tmp_path, paradigm, name):
    config = tmp_path / f"{paradigm}.json"
    config.write_text(json.dumps({"paradigm": paradigm, **TINY}))
    out = tmp_path / name
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@needs_two_cpus
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("paradigm", ["prompt", "lora"])
def test_pooled_and_inline_runs_write_the_same_bytes(tmp_path, monkeypatch, paradigm):
    """The reports and every checkpoint of a pipelined run on a pool are
    those of the same run computed inline."""
    pooled = _train_outputs(tmp_path, paradigm, "pooled")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = _train_outputs(tmp_path, paradigm, "inline")
    assert sorted(pooled) == ["checkpoints/task_0.npz", "checkpoints/task_1.npz",
                              "report.jsonl", "report.txt"]
    assert pooled == inline
