"""One benchmark repetition: run a single orthopet CLI command in this process.

    python3 child.py TIMING_JSON MODE -- ORTHOPET_ARGS...

MODE is one of
  run    run the command;
  setup  stop at the first call into the command's entry point
         (`trainer.continual_run` or `eval.verify_all`);
  trace  run the command with the span tracer installed and write the
         spans to TIMING_JSON with the suffix ".spans.npz".

TIMING_JSON receives CLOCK_MONOTONIC nanoseconds for the entry call and for
the return of the command, so the parent, which noted when it started this
process, can split set-up time from run time.  It also receives the peak
resident set size of this program: VmHWM, which counts only memory mapped
since exec.  The parent cannot use the child's ru_maxrss, because Linux
carries the spawning process's high-water mark over into it.  orthopet is
imported from PYTHONPATH, which the runner points at the checkout's `src`.
"""

import json
import os
import sys
import time

MODES = ("run", "setup", "trace")


def peak_rss_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] not in MODES or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timing_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[4:]

    from orthopet import cli
    from orthopet import eval as ev
    from orthopet import trainer as tr

    timing = {"orthopet": os.path.dirname(cli.__file__)}

    def write_timing():
        with open(timing_path, "w") as fh:
            json.dump(timing, fh)

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer().install()

    def entered(fn):
        def entry(*args, **kwargs):
            timing.setdefault("entry_ns", time.monotonic_ns())
            if mode == "setup":
                write_timing()
                sys.stdout.flush()
                os._exit(0)
            return fn(*args, **kwargs)

        return entry

    tr.continual_run = entered(tr.continual_run)
    ev.verify_all = entered(ev.verify_all)
    rc = cli.main(argv)
    timing["return_ns"] = time.monotonic_ns()
    timing["rc"] = rc
    timing["peak_rss_bytes"] = peak_rss_bytes()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(timing_path + ".spans.npz")
    write_timing()
    return rc


if __name__ == "__main__":
    sys.exit(main())
