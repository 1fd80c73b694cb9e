"""Row blocks, and an ordered, bounded map of a function over them.

The infer-mode forward and the rolling statistics work a block of rows at
a time, and their blocks are independent: each reads shared inputs and
writes only its own rows.  :func:`map_blocks` runs such blocks on every
CPU the process may use.  Each block still runs the same operations on
the same rows, with whatever BLAS thread count the process has, so the
results do not depend on the number of CPUs.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor


def row_blocks(n: int, size: int) -> list:
    """Near-equal (lo, hi) row blocks covering [0, n), none shorter than
    ``size`` unless n itself is."""
    count = max(1, n // size)
    edges = [i * n // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def workers(count: int) -> int:
    """Spans :func:`map_blocks` runs at once over ``count`` spans: one per
    CPU the process may use (``os.sched_getaffinity``), at most ``count``
    and at least one."""
    return max(1, min(len(os.sched_getaffinity(0)), count))


def _pin(cpus: set) -> None:
    """Run the calling thread on ``cpus`` only.  Placement does not change
    any result, so a CPU that cannot be set (it went offline, say) is
    skipped."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def map_blocks(fn, spans, at_once: int, ahead: int):
    """Yield ``fn(span, worker)`` for each span, in span order, on
    ``at_once`` workers (see :func:`workers`): the calling thread is worker
    0 and a thread pool runs workers 1 to ``at_once - 1``.

    Each worker takes the next span not yet started when it is free, so a
    worker on a slower CPU runs fewer spans instead of holding up the
    others.  The calling thread runs spans while the result it waits for
    is not ready.  A worker runs one span at a time: per-worker scratch
    buffers, picked by ``worker``, never clash.  Span i starts only once
    the consumer has asked for the result after span i - ``ahead``, so at
    most ``ahead`` spans are started and not yet done with: span i may
    keep its result in the (i mod ``ahead``)-th of ``ahead`` buffers.

    Each worker keeps to its own usable CPU while the map runs, and the
    calling thread gets its CPU set back when the map ends: left to
    itself, the scheduler of a 2-vCPU guest ran a new pool thread on the
    calling thread's CPU for a second or two after an idle spell, and two
    workers took as long as one.  With one worker every span runs in the
    calling thread, which stays where it is.

    The pool closes before the generator returns or raises, so no thread
    outlives it; its workers run in a copy of the caller's context, so
    NumPy's error state (``np.errstate``) holds in them too.  A failing
    span raises its exception when its turn in span order comes.
    """
    spans = list(spans)
    ahead = max(1, ahead)
    cpus = sorted(os.sched_getaffinity(0))
    ready = threading.Condition()
    done = {}       # span index -> (ok, result or exception), not yet yielded
    started = 0     # spans started, in span order
    taken = 0       # spans whose results the consumer is done with
    stop = False

    def claim():
        """The next span a worker may start, or None; under ``ready``."""
        nonlocal started
        if stop or started == len(spans) or started == taken + ahead:
            return None
        started += 1
        return started - 1

    def run(i, worker):
        try:
            out = True, fn(spans[i], worker)
        except BaseException as exc:
            out = False, exc
        with ready:
            done[i] = out
            ready.notify_all()

    def serve(worker):
        _pin({cpus[worker % len(cpus)]})
        while True:
            with ready:
                while (i := claim()) is None:
                    if stop or started == len(spans):
                        return
                    ready.wait()
            run(i, worker)

    with ThreadPoolExecutor(max_workers=max(1, at_once - 1)) as pool:
        try:
            if at_once > 1:
                _pin({cpus[0]})
            for worker in range(1, at_once):
                pool.submit(contextvars.copy_context().run, serve, worker)
            for i in range(len(spans)):
                while True:
                    with ready:
                        if i in done:
                            ok, out = done.pop(i)
                            break
                        j = claim()
                        if j is None:
                            ready.wait()
                            continue
                    run(j, 0)
                if not ok:
                    raise out
                yield out
                with ready:
                    taken = i + 1
                    ready.notify_all()
        finally:
            with ready:
                stop = True
                ready.notify_all()
            if at_once > 1:
                _pin(set(cpus))
