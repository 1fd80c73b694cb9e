"""Row blocks, and an ordered, bounded map of a function over them.

The infer-mode forward, its only user, works a block of rows at a time,
and its blocks are independent: each reads shared inputs and writes only
its own rows.  :func:`map_blocks` runs such blocks on a pool of one
thread per CPU the process may use, each pinned to its own CPU.  The
calling thread runs no block and is never pinned: it allocates the
caller's scratch buffers and takes the results in block order, the seams
of the infer pass's overlap-add.  Each block still runs the same
operations on the same rows, with whatever BLAS thread count the process
has, so the results do not depend on the number of CPUs.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import threading
from collections import deque
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


def map_blocks(fn, spans, at_once: int, ahead: int):
    """Yield ``fn(span, worker)`` for each span, in span order, on
    ``at_once`` workers (see :func:`workers`).

    With one worker every span runs in the calling thread.  Otherwise a
    thread pool of ``at_once`` workers runs every span, and the calling
    thread only queues spans and waits for their results; it is never
    pinned.  Worker k is the k-th thread the pool starts, and it keeps to
    the k-th usable CPU (mod their count) for its life: left to itself, the
    scheduler of a 2-vCPU guest ran a new pool thread on the calling
    thread's CPU for a second or two after an idle spell, and two workers
    took as long as one.  A free worker takes the next span queued, so a
    worker on a slower CPU runs fewer spans instead of holding up the
    others.  A worker runs one span at a time: per-worker scratch buffers,
    picked by ``worker``, never clash.

    Span i is queued once the consumer has asked for the result after span
    i - ``ahead``, so at most ``ahead`` spans are started and not yet done
    with: span i may keep its result in the (i mod ``ahead``)-th of
    ``ahead`` buffers.  Each span runs in a copy of the caller's context,
    so NumPy's error state (``np.errstate``) and ufunc buffer size
    (``np.setbufsize``) hold in it too.  A failing
    span raises its exception when its turn in span order comes.  The pool
    closes before the generator returns or raises: spans not yet started
    are cancelled and running ones waited for, so no thread outlives it.
    """
    if at_once <= 1:
        for span in spans:
            yield fn(span, 0)
        return
    cpus = sorted(os.sched_getaffinity(0))
    numbers = itertools.count()
    local = threading.local()

    def start():
        local.worker = next(numbers)
        # placement changes no result, so a CPU that cannot be set (it
        # went offline, say) is skipped
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[local.worker % len(cpus)]})

    def run(span):
        return fn(span, local.worker)

    spans = iter(spans)
    queued = deque()
    pool = ThreadPoolExecutor(max_workers=at_once, initializer=start)

    def submit(count):
        for span in itertools.islice(spans, count):
            queued.append(pool.submit(contextvars.copy_context().run, run, span))

    try:
        submit(max(1, ahead))
        while queued:
            yield queued.popleft().result()
            submit(1)
    finally:
        pool.shutdown(cancel_futures=True)
