"""An ordered map over worker processes, for work whose bits do not depend
on the process that runs it.

`pool(jobs)` yields `run(fn, *iterables)`, which returns `list(map(fn,
*iterables))` for maps of `jobs` jobs.  It runs on a fork-context process
pool of one worker per usable CPU, but no more workers than jobs: at
fork, the pool starts all its workers at the first submit.  It runs
inline when that leaves fewer than two workers (one usable CPU, a
platform that cannot tell, or a single job) or the caller is itself a
worker, so pools never nest.  `fn` crosses to the workers by its
qualified name, so it must be a module-level function.
"""

import contextlib
import os


def inline(fn, *iterables) -> list:
    return list(map(fn, *iterables))


def _exit_with_parent():
    """Worker initializer: a worker holds the write end of its own call
    queue and never reads EOF there, so it watches its parent sentinel."""
    import multiprocessing.connection
    import threading

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextlib.contextmanager
def pool(jobs: int):
    """Yield `run` for maps of `jobs` jobs; pool workers live until the
    block ends."""
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    procs = min(cpus, jobs)
    if procs < 2 or multiprocessing.parent_process() is not None:
        yield inline
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork"),
                             initializer=_exit_with_parent) as ex:
        yield lambda fn, *iterables: list(ex.map(fn, *iterables))
