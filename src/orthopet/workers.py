"""An ordered map over forked worker processes, for work whose bits do not
depend on the process that runs it.

`pool(jobs)` yields `run`.  `run.start(fn, *iterables)` deals the jobs of
`map(fn, *iterables)` and returns at once with a `wait()` that gives
`list(map(fn, *iterables))`; `run(fn, *iterables)` starts and waits.  The
first map forks one worker per usable CPU, but no more workers than
`jobs`, and the workers live until the block ends.  The pool runs inline
instead when that leaves fewer than two workers (one usable CPU, a
platform that cannot tell, or a single job) or the caller is itself a
worker, so pools never nest; an inline map computes, and raises a job's
exception, at `start`.

Each worker reads jobs from its own job pipe and writes their outcomes to
its own result pipe.  A job is the pickle of `(fn, args)`, so `fn` crosses
by its qualified name and must be a module-level function; the outcome is
the pickle of the result, or of the exception `fn` raised with its
formatted traceback.  Arrays cross in band with their bytes, shape and C
or Fortran order.  The jobs of several maps can be in flight at once.
Jobs are dealt in start order and within a map in input order, each to
whichever worker is idle, whenever this process is in `start` or `wait`:
a job left over at `start` waits for a later call.  After a job of a map
raises, no further job of that map is dealt; once its jobs in flight
finish, its `wait` raises the exception of its lowest-index failing job,
chained to the worker's traceback.

A worker exits at EOF on its job pipe.  It also runs a daemon thread
blocked on a third pipe whose write end only the parent holds, and exits
at once, mid-job too, when that pipe reads EOF: when the block ends, when
a map is interrupted, and when the parent dies, even by SIGKILL.  A map
still in flight when its workers stop raises `ChildProcessError` at its
`wait`.
"""

import contextlib
import functools
import os
import pickle
import select
import threading

_worker = False  # set in a forked worker, whose pools then run inline


class WorkerTraceback(Exception):
    """The traceback, as text, of a job's exception in its worker; chained
    as the `__cause__` of that exception where its map is waited on."""


class _Run:
    """A pool's map: `run(fn, *iterables)` is `run.start(fn, *iterables)()`."""

    def __call__(self, fn, *iterables) -> list:
        return self.start(fn, *iterables)()


class _Inline(_Run):
    def start(self, fn, *iterables):
        """Compute the map now, raising what a job raises; its `wait`
        returns the list."""
        results = list(map(fn, *iterables))
        return lambda: results


inline = _Inline()


def _exit_at_eof(fd):
    os.read(fd, 1)
    os._exit(1)


def _failure(exc) -> tuple:
    """The outcome of a job that raised `exc`, which is being handled."""
    import traceback  # only a failing job needs it

    return False, (exc, traceback.format_exc())


def _serve(jobs_fd, results_fd, life_fd):
    """A worker's loop: run each job of the job pipe until its EOF."""
    global _worker
    _worker = True
    threading.Thread(target=_exit_at_eof, args=(life_fd,), daemon=True).start()
    with open(jobs_fd, "rb") as jobs, open(results_fd, "wb") as results:
        while True:
            try:
                fn, args = pickle.load(jobs)
            except EOFError:
                return
            try:
                outcome = True, fn(*args)
            except Exception as exc:
                outcome = _failure(exc)
            try:
                data = pickle.dumps(outcome, 5)
            except Exception as exc:  # the result or exception would not pickle
                data = pickle.dumps(_failure(exc), 5)
            results.write(data)
            results.flush()


def _fork(procs, workers):
    """Append `procs` forked workers to `workers` as `(pid, job writer,
    result reader, life fd)`; a child closes its siblings' parent ends."""
    for _ in range(procs):
        fds = os.pipe() + os.pipe() + os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        jobs_r, jobs_w, results_r, results_w, life_r, life_w = fds
        if pid == 0:
            code = 1
            try:
                for _, jobs, results, life in workers:
                    for fd in (jobs.fileno(), results.fileno(), life):
                        os.close(fd)
                for fd in (jobs_w, results_r, life_w):
                    os.close(fd)
                _serve(jobs_r, results_w, life_r)
                code = 0
            finally:
                os._exit(code)
        for fd in (jobs_r, results_w, life_r):
            os.close(fd)
        workers.append((pid, open(jobs_w, "wb"), open(results_r, "rb"), life_w))


class _Map:
    """A started map: its jobs' arguments until dealt, the `(ok, result or
    (exception, traceback))` of each job back, and its dealing state."""

    def __init__(self, fn, arglists):
        self.fn, self.arglists = fn, arglists
        self.outcomes = [None] * len(arglists)
        self.dealt = self.out = 0
        self.failed = False
        self.lost = None  # the error its `wait` raises if its pool stopped first

    def dealable(self) -> bool:
        return not self.failed and self.dealt < len(self.arglists)

    def done(self) -> bool:
        return self.lost is not None or (self.out == 0 and not self.dealable())

    def result(self) -> list:
        if self.lost is not None:
            raise self.lost
        for ok, value in self.outcomes[:self.dealt]:
            if not ok:
                exc, text = value
                exc.__cause__ = WorkerTraceback(text)
                raise exc
        return [value for _, value in self.outcomes]


class _Pool(_Run):
    def __init__(self, procs):
        self.procs = procs
        self.workers, self.idle = [], []  # workers as `_fork` appends them
        self.busy = {}  # result fd -> (worker, map, job index)
        self.maps = []  # started maps with jobs left to deal, in start order
        self.poll = select.poll()

    def start(self, fn, *iterables):
        m = _Map(fn, list(zip(*iterables)))
        if m.arglists:
            self.maps.append(m)
            self._advance(block=False)
        return functools.partial(self._wait, m)

    def _wait(self, m) -> list:
        while not m.done():
            self._advance(block=True)
        return m.result()

    def _advance(self, block):
        """Deal to idle workers and take in outcomes: every outcome already
        back, or with `block` at least one."""
        try:
            if not self.workers:
                _fork(self.procs, self.workers)
                self.idle = list(self.workers)
            self._deal()
            while ready := self.poll.poll(None if block else 0):
                for fd, _ in ready:
                    self._take(fd)
                self._deal()
                if block:
                    return
        except BaseException as exc:
            self.stop(exc)
            raise

    def _deal(self):
        self.maps = [m for m in self.maps if m.dealable()]
        for m in self.maps:
            while self.idle and m.dealable():
                worker = self.idle.pop()
                i = m.dealt
                pickle.dump((m.fn, m.arglists[i]), worker[1], 5)
                worker[1].flush()
                m.arglists[i] = None
                m.dealt += 1
                m.out += 1
                self.busy[worker[2].fileno()] = worker, m, i
                self.poll.register(worker[2], select.POLLIN)

    def _take(self, fd):
        worker, m, i = self.busy.pop(fd)
        self.poll.unregister(fd)
        try:
            m.outcomes[i] = pickle.load(worker[2])
        except EOFError:
            raise ChildProcessError(f"worker {worker[0]} exited during a job") from None
        m.out -= 1
        m.failed = m.failed or not m.outcomes[i][0]
        self.idle.append(worker)

    def stop(self, exc=None):
        """End and reap every worker, busy or not; each map still in flight
        then fails at its `wait`, with `exc` as the cause."""
        lost = ChildProcessError("the pool stopped before this map finished")
        lost.__cause__ = exc
        for m in self.maps + [m for _, m, _ in self.busy.values()]:
            m.lost = lost
        self.maps, self.idle, self.busy = [], [], {}
        self.poll = select.poll()
        while self.workers:
            pid, jobs, results, life = self.workers.pop()
            os.close(life)
            with contextlib.suppress(OSError):  # a job left half-written
                jobs.close()
            results.close()
            os.waitpid(pid, 0)


@contextlib.contextmanager
def pool(jobs: int):
    """Yield `run` for maps of `jobs` jobs; pool workers live until the
    block ends."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    procs = min(cpus, jobs)
    if procs < 2 or _worker:
        yield inline
        return
    run = _Pool(procs)
    try:
        yield run
    finally:
        run.stop()
