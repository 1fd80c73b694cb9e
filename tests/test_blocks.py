"""The ordered, bounded block map, and byte identity across CPU counts.

``map_blocks`` runs row blocks on one thread per usable CPU, each thread
taking the next block when it is free.  Its results come back in span
order with a bounded number of spans in flight, and the forward built on
it is byte-identical whether the process may use one CPU or several.  The
rolling statistics run on the calling thread alone, and are byte-identical
on any CPU count too.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from dartclean import detector
from dartclean.blocks import map_blocks, workers
from dartclean.detector import ROLLING_BLOCK_ROWS
from dartclean.errors import NumericError
from dartclean.model import ModelConfig, Vae, infer_block
from tests.conftest import perturbed_model
from tests.oracles import oracle_infer, oracle_infer_series
from tests.test_infer import identical
from tests.test_kernels import oracle_rolling_median_std


# the CPUs the test process may use, taken before any map runs: a map that
# left the calling thread pinned would shrink every later reading
CPUS = os.sched_getaffinity(0)


def usable_cpus(monkeypatch, count):
    """Make the process see ``count`` usable CPUs; the workers' pinning to
    those made-up CPUs is dropped, so the test process keeps its own."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


class Tracker:
    """Counts the spans running, from the start of ``fn`` to its return,
    and the spans pending, from the start of ``fn`` until the consumer has
    taken the span's result and asked for the next; and the workers and
    result slots (span mod ``ahead``) in use.  The first spans, as many as
    may run at once, meet at a barrier, so they must run at once."""

    def __init__(self, workers, ahead, spans):
        self.ahead = ahead
        self.parties = min(workers, ahead, spans)
        self.barrier = threading.Barrier(self.parties, timeout=10)
        self.lock = threading.Lock()
        self.running = self.pending = 0
        self.most_running = self.most_pending = 0
        self.busy, self.slots = set(), set()
        self.clashes = 0

    def fn(self, span, worker):
        with self.lock:
            self.running += 1
            self.pending += 1
            self.most_running = max(self.most_running, self.running)
            self.most_pending = max(self.most_pending, self.pending)
            self.clashes += (worker in self.busy) + (span % self.ahead in self.slots)
            self.busy.add(worker)
            self.slots.add(span % self.ahead)
        if span < self.parties:
            self.barrier.wait()
        time.sleep(0.0005 * (span % 3))   # later spans often finish first
        with self.lock:
            self.running -= 1
            self.busy.discard(worker)
        return span

    def taken(self, span):
        with self.lock:
            self.pending -= 1
            self.slots.discard(span % self.ahead)


@pytest.mark.parametrize("workers, ahead, spans", [
    (1, 1, 7), (1, 3, 7), (1, 1, 1), (2, 1, 5), (2, 2, 9), (2, 4, 9), (3, 3, 3), (3, 5, 20),
    (4, 8, 40)])
def test_yields_in_order_with_bounded_spans_in_flight(workers, ahead, spans):
    tracker = Tracker(workers, ahead, spans)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = []
        for result in map_blocks(tracker.fn, range(spans), workers, ahead):
            got.append(result)
            time.sleep(0.0002)   # the consumer's own work, as the overlap-add
            tracker.taken(result)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(spans))
    assert tracker.running == tracker.pending == 0
    assert tracker.most_running == tracker.parties and tracker.most_pending <= ahead
    assert tracker.clashes == 0


@pytest.mark.parametrize("ahead", [2, 4, 12])
def test_a_held_up_worker_holds_up_no_other(ahead):
    # a pool worker whose CPU is taken away on its first span: while that
    # span is held up, the calling thread runs every later span that the
    # look-ahead allows
    held, released = [], threading.Event()
    during = {}   # span -> started while the held span was running

    def fn(span, worker):
        if worker == 1 and not held:
            held.append(span)
            time.sleep(0.3)
            released.set()
        else:
            while not held:   # let the pool worker take its span first
                time.sleep(0.0001)
            during[span] = not released.is_set()
        return span

    assert list(map_blocks(fn, range(12), 2, ahead)) == list(range(12))
    h = held[0]
    assert all(during[span] for span in range(h + 1, min(12, h + ahead)))


@pytest.mark.parametrize("cpus, count, expect", [(1, 5, 1), (2, 5, 2), (2, 1, 1), (4, 3, 3),
                                                 (2, 0, 1)])
def test_one_worker_per_usable_cpu(monkeypatch, cpus, count, expect):
    usable_cpus(monkeypatch, cpus)
    assert workers(count) == expect


def test_no_spans_runs_nothing():
    before = threading.active_count()
    assert list(map_blocks(lambda span, worker: 1 / 0, [], 2, 2)) == []
    assert threading.active_count() == before


@pytest.mark.parametrize("count", [1, 2, 4])
def test_first_failing_span_in_span_order_raises(count):
    before = threading.active_count()

    def fn(span, worker):
        if span == 3:
            time.sleep(0.01)   # fails after span 4 has failed
            raise ValueError("span 3")
        if span >= 4:
            raise KeyError(span)
        return span

    got = []
    with pytest.raises(ValueError, match="span 3"):
        for result in map_blocks(fn, range(8), count, 2 * count):
            got.append(result)
    assert got == [0, 1, 2]
    assert threading.active_count() == before
    assert os.sched_getaffinity(0) == CPUS


@pytest.mark.parametrize("count", [1, 2, 3])
def test_no_thread_outlives_the_map(count):
    before = threading.active_count()
    doubled = map_blocks(lambda span, worker: span * 2, range(10), count, count)
    assert list(doubled) == list(range(0, 20, 2))
    assert threading.active_count() == before
    assert os.sched_getaffinity(0) == CPUS
    blocks = map_blocks(lambda span, worker: span, range(10), count, count)
    assert next(blocks) == 0
    blocks.close()   # a consumer that stops early
    assert threading.active_count() == before
    assert os.sched_getaffinity(0) == CPUS


@pytest.mark.parametrize("count", [1, 2])
def test_each_worker_keeps_to_its_own_cpu(count):
    cpus = sorted(CPUS)
    barrier = threading.Barrier(count, timeout=10)

    def fn(span, worker):   # the spans meet, so each runs on its own worker
        barrier.wait()
        return worker, os.sched_getaffinity(0)

    got = sorted(map_blocks(fn, range(count), count, count))
    if count == 1:   # the calling thread alone stays where it is
        assert got == [(0, set(cpus))]
    else:
        assert got == [(0, {cpus[0]}), (1, {cpus[1 % len(cpus)]})]
    assert os.sched_getaffinity(0) == CPUS


def test_workers_keep_the_callers_numpy_error_state():
    barrier = threading.Barrier(2, timeout=10)

    def fn(span, worker):   # the two spans meet, so each runs on its own worker
        barrier.wait()
        try:
            return worker, bool(np.isinf(np.ones(4) / np.zeros(4)).all())
        except FloatingPointError:
            return worker, "raised"

    with np.errstate(divide="raise"):
        assert sorted(map_blocks(fn, range(2), 2, 2)) == [(0, "raised"), (1, "raised")]
    with np.errstate(divide="ignore"):
        assert sorted(map_blocks(fn, range(2), 2, 2)) == [(0, True), (1, True)]


# ------------------------------------------------- byte identity by CPU count

ROWS = [1, 75, 1023, 1025, 2085, 5000]
SAMPLES = [4095, 4097, 20000]


@pytest.fixture(scope="module")
def model():
    return perturbed_model((128, 64, 32), seed=3)


def on_cpus(monkeypatch, fn):
    """``fn()`` with one usable CPU, then with two."""
    results = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        results.append(fn())
    return results


def assert_identical(one, two):
    for a, b in zip(one, two, strict=True):
        assert np.array_equal(a, b) and identical(a, b)


@pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
@pytest.mark.parametrize("rows", ROWS)
def test_infer_is_identical_on_one_and_two_cpus(monkeypatch, model, rows, blend):
    rng = np.random.default_rng(rows)
    X = rng.normal(size=(rows, model.config.window))
    prev_z = rng.normal(size=(rows, model.config.latent)) if blend else None

    def infer():
        logvar = np.empty((rows, model.config.latent))
        return (*model.infer(X, prev_z, 0.5, logvar_out=logvar), logvar)

    assert_identical(*on_cpus(monkeypatch, infer))


@pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
@pytest.mark.parametrize("n", [rows + 47 for rows in ROWS] + SAMPLES)
def test_infer_series_is_identical_on_one_and_two_cpus(monkeypatch, model, n, blend):
    # n - 47 windows of 48 samples
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + np.linspace(0.0, 3.0, n)
    prev_z = rng.normal(size=(n - 47, model.config.latent)) if blend else None
    # each run overwrites the latents it is given, so each gets a copy
    assert_identical(*on_cpus(monkeypatch, lambda: model.infer_series(
        x, None if prev_z is None else prev_z.copy(), 0.5)))


# window counts at the seam of 48-sample windows: one block shorter than
# the 47-row seam, as long as it or a window, either side of the 76-row
# floor, and either side of the second block at 2 * rows windows
SEAM_CASES = [(hidden, count) for hidden in [(128, 64, 32), (512, 256, 128)]
              for rows in [infer_block(ModelConfig(hidden=hidden))[0]]
              for count in [1, 46, 47, 48, 75, 76, 2 * rows - 1, 2 * rows]]


@pytest.fixture(scope="module")
def models(model):
    return {(128, 64, 32): model, (512, 256, 128): perturbed_model((512, 256, 128), seed=3)}


def assert_series_matches_oracle(monkeypatch, model, count, blend):
    w = model.config.window
    rng = np.random.default_rng(count)
    x = rng.normal(size=count + w - 1) + np.linspace(0.0, 3.0, count + w - 1)
    prev_z = rng.normal(size=(count, model.config.latent)) if blend else None
    want = oracle_infer_series(model, x, prev_z, 0.5)
    # each run overwrites the latents it is given, so each gets a copy
    for got in on_cpus(monkeypatch, lambda: model.infer_series(
            x, None if prev_z is None else prev_z.copy(), 0.5)):
        assert_identical(got, want)


@pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
@pytest.mark.parametrize("hidden, count", SEAM_CASES)
def test_seam_hand_off_matches_oracle_on_one_and_two_cpus(monkeypatch, models, hidden, count,
                                                          blend):
    assert_series_matches_oracle(monkeypatch, models[hidden], count, blend)


@pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
def test_blocks_shorter_than_the_seam_match_oracle(monkeypatch, blend):
    # 200-sample windows over a 2 000-wide layer: 400 windows in five
    # blocks of 80 rows, each seam cut to its block, so a sample takes
    # the seams of up to three blocks
    model = perturbed_model((2000,), seed=4, window=200)
    assert infer_block(model.config)[0] == 76
    assert_series_matches_oracle(monkeypatch, model, 400, blend)


def test_seam_hand_off_loses_no_sum_under_contention(monkeypatch, model):
    # four workers on at most two CPUs, the interpreter switching threads
    # every microsecond: the workers add their blocks to recon while the
    # calling thread adds the seams, and one lost sum changes the bits
    usable_cpus(monkeypatch, 4)
    x = np.random.default_rng(9).normal(size=8 * 1024 + 47)
    want = oracle_infer_series(model, x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_identical(model.infer_series(x), want)
    finally:
        sys.setswitchinterval(interval)


# the view of n samples has n - w + 1 rows; one row past a whole number of
# rolling blocks makes one more block
@pytest.mark.parametrize("w, n", [
    *[(48, n) for n in [48, 75, 1023, 1025, 2085, 5000, *SAMPLES]],
    *[(48, blocks * ROLLING_BLOCK_ROWS + 47 + row) for blocks in (1, 2) for row in (0, 1)],
    *[(480, n) for n in [1023, 1025, 2085, 5000, *SAMPLES]],
    (480, 4 * ROLLING_BLOCK_ROWS + 479), (480, 4 * ROLLING_BLOCK_ROWS + 480),
])
def test_rolling_median_std_is_identical_on_one_and_two_cpus(monkeypatch, w, n):
    x = np.random.default_rng(n).normal(size=n).round(2)   # ties in the medians
    assert_identical(*on_cpus(monkeypatch, lambda: detector.rolling_median_std(x, w)))


def test_rolling_median_std_starts_no_thread(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def refuse(thread):
        raise AssertionError(f"started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    n = 2 * ROLLING_BLOCK_ROWS + 48   # a view of three blocks
    x = np.random.default_rng(n).normal(size=n).round(2)
    for got, expect in zip(detector.rolling_median_std(x, 48),
                           oracle_rolling_median_std(x, 48)):
        assert np.array_equal(got, expect)


def test_encoder_fault_beats_decoder_fault_on_two_cpus(monkeypatch):
    usable_cpus(monkeypatch, 2)
    model = perturbed_model((16, 8), window=6)
    model.out_layer.b[0] = np.inf
    x = np.random.default_rng(0).normal(size=5000)
    with pytest.raises(NumericError, match="decoder"):
        model.infer_series(x)
    x[-1] = np.nan   # only the last window, in the last encoder block
    with pytest.raises(NumericError, match="non-finite encoder outputs"):
        model.infer_series(x)
    x[-1] = 0.0
    model.enc_dense[0].W[0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite encoder outputs"):
        model.infer_series(x)


@pytest.mark.parametrize("hidden", [(3,), (5, 2)])
def test_latent_wider_than_every_layer(monkeypatch, hidden):
    model = Vae(ModelConfig(window=4, hidden=hidden, latent=9), seed=2)
    X = np.random.default_rng(1).normal(size=(2100, 4))
    prev_z = np.random.default_rng(2).normal(size=(2100, 9))
    want = oracle_infer(model, X, prev_z, 0.5)
    for got in on_cpus(monkeypatch, lambda: model.infer(X, prev_z, 0.5)):
        assert_identical(got, want)
