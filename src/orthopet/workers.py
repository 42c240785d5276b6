"""An ordered map over forked worker processes, for work whose bits do not
depend on the process that runs it.

`pool(jobs)` yields `run(fn, *iterables)`, which returns `list(map(fn,
*iterables))` for maps of `jobs` jobs.  Its first map forks one worker
per usable CPU, but no more workers than jobs, and the workers live until
the block ends.  It runs inline instead when that leaves fewer than two
workers (one usable CPU, a platform that cannot tell, or a single job) or
the caller is itself a worker, so pools never nest.

Each worker reads jobs from its own job pipe and writes their outcomes to
its own result pipe.  A job is the pickle of `(fn, args)`, so `fn` crosses
by its qualified name and must be a module-level function; the outcome is
the pickle of the result or of the exception `fn` raised.  Arrays cross in
band with their bytes, shape and C or Fortran order.  Jobs are dealt in
input order, each to whichever worker is idle, and results come back in
input order.  After a job raises, no further job is dealt; once the jobs
in flight finish, the exception of the lowest-index failing job is raised
here.

A worker exits at EOF on its job pipe.  It also runs a daemon thread
blocked on a third pipe whose write end only the parent holds, and exits
at once, mid-job too, when that pipe reads EOF: when the block ends, when
a map is interrupted, and when the parent dies, even by SIGKILL.
"""

import contextlib
import os
import pickle
import threading

_worker = False  # set in a forked worker, whose pools then run inline


def inline(fn, *iterables) -> list:
    return list(map(fn, *iterables))


def _exit_at_eof(fd):
    os.read(fd, 1)
    os._exit(1)


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
                outcome = False, exc
            try:
                data = pickle.dumps(outcome, 5)
            except Exception as exc:  # the result or exception would not pickle
                data = pickle.dumps((False, exc), 5)
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


def _deal(workers, fn, arglists) -> list:
    """`(ok, result or exception)` of each job dealt, in input order; no job
    is dealt after one that failed."""
    import select

    outcomes = [None] * len(arglists)
    idle, busy, dealt = list(workers), {}, 0
    poll = select.poll()
    while busy or dealt < len(arglists):
        while idle and dealt < len(arglists):
            worker = idle.pop()
            _, jobs, results, _ = worker
            pickle.dump((fn, arglists[dealt]), jobs, 5)
            jobs.flush()
            busy[results.fileno()] = worker, dealt
            poll.register(results, select.POLLIN)
            dealt += 1
        for fd, _ in poll.poll():
            worker, i = busy.pop(fd)
            poll.unregister(fd)
            try:
                outcomes[i] = pickle.load(worker[2])
            except EOFError:
                raise ChildProcessError(f"worker {worker[0]} exited during a job") from None
            if not outcomes[i][0]:
                del arglists[dealt:]
            idle.append(worker)
    return outcomes[:dealt]


def _stop(workers):
    """End and reap every worker, busy or not, and empty `workers`."""
    while workers:
        pid, jobs, results, life = workers.pop()
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
    workers = []

    def run(fn, *iterables) -> list:
        arglists = list(zip(*iterables))
        try:
            if arglists and not workers:
                _fork(procs, workers)
            outcomes = _deal(workers, fn, arglists)
        except BaseException:
            _stop(workers)
            raise
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    try:
        yield run
    finally:
        _stop(workers)
