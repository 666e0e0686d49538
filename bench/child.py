"""One benchmark child: a fresh interpreter that imports tjl from the
checkout's ``src``, runs one workload and writes what the parent cannot see
from outside to a JSON meta file.

    python3 -I bench/child.py META TRACE COMMAND...

TRACE is 0 or 1.  COMMAND is one of
  verify ARGS...       ``tjl.cli.run(["verify", *ARGS])``
  census Q:N:LEVEL...  for each group, ``tjl irreps`` through ``tjl.cli.run``,
                       then one JSON line of ``chi_multiplicity`` for every
                       (irrep, c) pair
  setup                import only; measures set-up time

The meta file holds ``setup_mark`` (``time.monotonic()`` once ``tjl.cli`` is
imported, comparable with the parent's clock), ``peak_rss_kib`` (this
process's own peak resident set, VmHWM), ``probes`` (see below) and, when
traced, the spans and counts.  The workload's own output goes to stdout
unchanged.

Speed probes: the CPU speed of a shared VM can change by 1.8x within a
second, and each vCPU changes on its own, so only the child itself can see
the speed it ran at.  From its start to its end a timer signal every
PROBE_EVERY_S runs ``probe_loop``, a fixed pure-Python loop that uses no
tjl code, and records ``[start, duration]``.  The parent turns these into
the host's slowdown over the child's life (run.py, ``slowdown``).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def census(cli, groups: list[str]) -> int:
    from tjl import metacyclic

    rc = 0
    for spec in groups:
        q, n, level = spec.split(":")
        rc |= cli.run(["irreps", "--q", q, "--n", n, "--N", level])
        G = metacyclic.gamma(int(q), int(n), int(level))
        chi = [{"sigma": lb.to_json(),
                "multiplicities": [metacyclic.chi_multiplicity(G, lb, c)
                                   for c in range(G.M)]}
               for lb in metacyclic.enumerate_irreps(G)]
        print(json.dumps({"q": int(q), "n": int(n), "N": int(level),
                          "chi": chi}, sort_keys=True, separators=(",", ":")))
    return rc


def peak_rss_kib() -> int | None:
    """VmHWM, the peak resident set of this program image.  Unlike
    ``ru_maxrss`` it does not count the parent's pages at spawn time."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


PROBE_EVERY_S = 0.02
PROBES: list[list[float]] = []


def probe_loop() -> Fraction:
    """About 0.1 ms of interpreter work; run.py's PROBE_REF_S is its
    duration at the reference speed, so change both together.  Sums of
    Fractions allocate and call as tjl's exact arithmetic does, so they
    follow the host's slow state more closely than a loop over small ints:
    the spread left after dividing by the slowdown is about half as wide."""
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k % 5 + 1, k + 2)
    return f


def on_probe_timer(signum, frame) -> None:
    start = time.monotonic()
    probe_loop()
    PROBES.append([start, time.monotonic() - start])


def main() -> int:
    # One CPU, so numpy's OpenBLAS starts no thread of its own.  Its thread
    # start-up ran either beside the import or in series with it, as the
    # scheduler chose, and set-up took 0.13 s or 0.2 s accordingly.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, on_probe_timer)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    meta_path, traced, command = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, SRC)
    import tjl.cli as cli
    setup_mark = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"tjl imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        kind, args = command[0], command[1:]
        if kind == "verify":
            rc = cli.run(["verify", *args])
        elif kind == "census":
            rc = census(cli, args)
        elif kind == "setup":
            rc = 0
        else:
            print(f"unknown child command {kind!r}", file=sys.stderr)
            rc = 2
    finally:
        sys.stdout.flush()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        meta = {"setup_mark": setup_mark, "peak_rss_kib": peak_rss_kib(),
                "probes": PROBES}
        if tracer is not None:
            meta["trace"] = tracer.dump()
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
