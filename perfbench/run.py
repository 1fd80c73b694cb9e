"""dartclean benchmark: clean and train throughput, traced layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload clean-acceptance --seed 0 --seconds 10 --trace 0

The benchmark is a closed loop: one process runs one operation at a time,
each operation one in-process ``dartclean clean`` or ``dartclean train``
invocation on files the benchmark wrote.  Rounds of operations repeat until
``--seconds`` have passed; at least one round always runs.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run sets up once under the tracer, runs one untraced and
one traced round, and reports per-layer metrics.  End-to-end times are in
reference seconds, corrected for the host's speed by a probe run before and
after each timed unit (workloads.probe_speed).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Set up at least SETUP_REPEATS times, until set-up has taken SETUP_MIN_S in
# all and its trainings SETUP_TRAIN_MIN_S, then report the median.  The
# set-up trainings are the clean workloads' training sample: pooled over
# 8 s they span several of a shared host's speed swings, which last
# seconds, where the median of three 2 s trainings did not.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_TRAIN_MIN_S = 8.0
WORKLOADS = ("clean-acceptance", "clean-station-year", "train-acceptance")


def cap_blas_threads() -> int:
    """Run BLAS on one thread unless asked for more, and never on more than
    the CPUs this process may use; must run before NumPy is imported.  On a
    shared host a second BLAS thread makes every matrix product wait for the
    slower of two CPUs, which spreads the timings more than it speeds them."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        asked = os.environ.get(var, "")
        n = int(asked) if asked.isdigit() and int(asked) > 0 else 1
        os.environ[var] = str(min(n, nproc))
    return nproc


def machine_record(nproc) -> dict:
    import ctypes
    import glob

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def enough_setups(walls, ops) -> bool:
    trained = sum(o.wall_s for o in ops)
    return (len(walls) >= SETUP_REPEATS and sum(walls) >= SETUP_MIN_S
            and (not ops or trained >= SETUP_TRAIN_MIN_S))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _rate(items, seconds):
    return items / seconds if seconds > 0 else 0.0


def end_to_end(setup_times, setup_ops, ops, seconds="ref_s"):
    """Metrics a user of dartclean sees, from untraced operations, in
    reference seconds (``seconds="ref_s"``) or wall seconds ("wall_s")."""
    cleans = [o for o in ops if o.kind == "clean" and o.ok]
    trains = [o for o in setup_ops + ops if o.kind == "train" and o.ok]
    return {
        "clean_samples_per_s": (_rate(sum(o.samples for o in cleans),
                                      sum(getattr(o, seconds) for o in cleans)), "1/s"),
        "train_windows_per_s": (_rate(sum(o.epochs * o.train_windows for o in trains),
                                      sum(getattr(o, seconds) for o in trains)), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def quality(setup_ops, ops):
    """Accuracy of the outputs; varies with the inputs, so it is reported
    from the traced run without a bound."""
    scored = [o.quality for o in ops if o.kind == "clean" and o.quality]
    trained = [o.quality["train_val_total"] for o in setup_ops + ops
               if o.kind == "train" and "train_val_total" in o.quality]
    steps = sum(q["steps"] for q in scored)
    return {
        "spike_f1": (min((q["spike_f1"] for q in scored), default=0.0), "ratio"),
        # a workload without true steps scores 1.0, as `dartclean eval` does
        "step_recall": (sum(q["step_hits"] for q in scored) / steps if steps else 1.0, "ratio"),
        "cleaned_rmse_m": (max((q["cleaned_rmse_m"] for q in scored), default=0.0), "m"),
        "train_val_total": (max(trained, default=0.0), "loss"),
    }


def per_layer(setup_prof, round_prof, traced_ops, untraced_wall):
    """Self time and exact counts per layer from one traced set-up and one
    traced round; ratios that describe a clean come from the round only."""
    profs = (setup_prof, round_prof)

    def self_s(*names):
        return sum(p.self_s(*names) for p in profs)

    def total_s(*names):
        return sum(p.total_s(*names) for p in profs)

    def calls(name):
        return sum(p.calls(name) for p in profs)

    def work(name):
        return [w for p in profs for w in p.work(name)]

    def cli_self(command):
        out = 0.0
        for p in profs:
            for root in p.roots():
                tree = p.subtree(root)
                if any(p.spans[i][0] == f"cli.cmd_{command}" for i in tree):
                    out += sum(p.self_time[i] for i in tree if p.spans[i][0].startswith("cli."))
        return out

    # gated samples per re-decoded window row, per refinement iteration
    cleans = [o for o in traced_ops if o.kind == "clean"]
    fractions, last = [], []
    for op, refine in zip(cleans, round_prof.select("refiner.refine")):
        rows = [round_prof.spans[i][4] for i in round_prof.subtree(refine)
                if round_prof.spans[i][0] == "model.Vae.decode"]
        per_iter = [m / r for m, r in zip(op.iteration_log, rows) if r]
        fractions += per_iter
        last += per_iter[-1:]
    vetoes = work("postprocess.validate_steps")
    candidates = sum(c for c, _ in vetoes)
    samples = sum(o.samples for o in traced_ops)
    epochs = calls("trainer.early_stop_check")
    covered = sum(round_prof.spans[i][2] - round_prof.spans[i][1] for i in round_prof.roots())
    op_wall = sum(o.wall_s for o in traced_ops)

    return {
        "detector.rolling_median_std_s": (self_s("detector.rolling_median_std"), "s"),
        "detector.rolling_median_std_calls": (calls("detector.rolling_median_std"), "count"),
        "detector.step_mean_shift_s": (self_s("detector.step_mean_shift"), "s"),
        "detector.step_mean_shift_calls": (calls("detector.step_mean_shift"), "count"),
        "detector.hybrid_score_s": (self_s("detector.hybrid_score"), "s"),
        "refiner.refine_s": (self_s("refiner.refine"), "s"),
        "refiner.iterations": (sum(len(o.iteration_log) for o in cleans), "count"),
        "refiner.windows_to_series_s": (self_s("refiner.windows_to_series"), "s"),
        "refiner.gate_fraction_mean": (statistics.fmean(fractions) if fractions else 0.0, "ratio"),
        "refiner.gate_fraction_last": (statistics.fmean(last) if last else 0.0, "ratio"),
        "model.encode_s": (self_s("model.Vae.encode"), "s"),
        "model.decode_s": (self_s("model.Vae.decode"), "s"),
        "model.encode_rows_per_sample": (
            sum(round_prof.work("model.Vae.encode")) / samples if samples else 0.0, "rows/sample"),
        "model.loss_and_grads_s": (self_s("model.Vae.loss_and_grads"), "s"),
        "model.loss_and_grads_calls": (calls("model.Vae.loss_and_grads"), "count"),
        "layers.dense_forward_s": (self_s("layers.Dense.forward"), "s"),
        "layers.dense_backward_s": (self_s("layers.Dense.backward"), "s"),
        "layers.batchnorm_forward_s": (self_s("layers.BatchNorm.forward"), "s"),
        "layers.batchnorm_backward_s": (self_s("layers.BatchNorm.backward"), "s"),
        "layers.dense_macs": (sum(work("layers.Dense.forward") + work("layers.Dense.backward")),
                              "MAC"),
        "optim.adam_step_s": (self_s("optim.Adam.step"), "s"),
        "optim.adam_steps": (calls("optim.Adam.step"), "count"),
        "optim.clip_by_global_norm_s": (total_s("optim.clip_by_global_norm"), "s"),
        "trainer.epoch_s": (total_s("trainer.train") / epochs if epochs else 0.0, "s"),
        "trainer.validation_s": (total_s("trainer._validation_loss",
                                         "trainer.validation_recon_loss"), "s"),
        "preprocess.make_windows_s": (self_s("preprocess.make_windows"), "s"),
        "preprocess.make_windows_calls": (calls("preprocess.make_windows"), "count"),
        "preprocess.fill_gaps_s": (self_s("preprocess.fill_gaps"), "s"),
        "preprocess.zscore_normalize_s": (self_s("preprocess.zscore_normalize"), "s"),
        "postprocess.validate_steps_s": (self_s("postprocess.validate_steps"), "s"),
        "postprocess.steps_vetoed_ratio": (
            sum(v for _, v in vetoes) / candidates if candidates else 0.0, "ratio"),
        "postprocess.realign_steps_s": (self_s("postprocess.realign_steps"), "s"),
        "postprocess.gaussian_smooth_s": (self_s("postprocess.gaussian_smooth"), "s"),
        "series_io.parse_dart_file_s": (self_s("series_io.parse_dart_file"), "s"),
        "series_io.write_cleaned_csv_s": (self_s("series_io.write_cleaned_csv"), "s"),
        "series_io.load_checkpoint_s": (self_s("series_io.load_checkpoint"), "s"),
        "series_io.save_checkpoint_s": (self_s("series_io.save_checkpoint"), "s"),
        "series_io.bytes_written": (sum(work("series_io.write_cleaned_csv")
                                        + work("series_io.save_checkpoint")
                                        + work("series_io.emit_dart")), "bytes"),
        "pipeline.clean_series_s": (self_s("pipeline.clean_series"), "s"),
        "pipeline.detect_anomalies_s": (self_s("pipeline.detect_anomalies"), "s"),
        "cli.clean_s": (cli_self("clean"), "s"),
        "cli.train_s": (cli_self("train"), "s"),
        "synth.generate_s": (self_s("synth.generate"), "s"),
        "trace.overhead_ratio": (op_wall / untraced_wall if untraced_wall else 0.0, "ratio"),
        "trace.unaccounted_share": ((op_wall - covered) / op_wall if op_wall else 0.0, "ratio"),
    }


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run(args) -> int:
    nproc = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "dartclean", "__init__.py")):
        print(f"perfbench: no dartclean sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads as wl

    machine = machine_record(nproc)
    workload = wl.make_workload(args.workload, args.seed)
    program = wl.program_digest(os.path.join(SRC, "dartclean"))
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    # Outputs repeat bit for bit only under the same program, benchmark
    # inputs and BLAS thread count, which sets the order of summation.
    bench = wl.program_digest(os.path.dirname(os.path.abspath(__file__)))
    runner = wl.Runner(workload, run_dir, os.path.join(WORK, "digests.json"),
                       f"{program}/{bench}/blas{machine['blas_threads']}/"
                       f"{args.workload}/seed{args.seed}")

    setup_walls, setup_refs, setup_ops = [], [], []
    setup_tracer, round_tracer = spans.Tracer(), spans.Tracer()
    runner.tracer = setup_tracer if args.trace else None
    try:
        while True:
            wall, ref, ops = runner.setup()
            setup_walls.append(wall)
            setup_refs.append(ref)
            setup_ops += ops
            if args.trace or enough_setups(setup_walls, setup_ops):
                break
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runner.tracer = None
    runner.load_inputs()

    ops = []
    start = time.perf_counter()
    while True:
        ops += runner.round()
        if time.perf_counter() - start >= args.seconds or args.trace:
            break
    if args.trace:
        untraced_wall = sum(o.wall_s for o in ops)
        runner.tracer = round_tracer
        traced_ops = runner.round()
        runner.tracer = None
        ops += traced_ops
    runner.check_digests(setup_ops + ops)

    wall_metrics = {}
    if args.trace:
        metrics = per_layer(spans.Profile(setup_tracer.spans), spans.Profile(round_tracer.spans),
                            traced_ops, untraced_wall)
        metrics.update(quality(setup_ops, traced_ops))
        setup_tracer.write(os.path.join(run_dir, "spans_setup.jsonl"))
        round_tracer.write(os.path.join(run_dir, "spans_round.jsonl"))
    else:
        metrics = end_to_end(setup_refs, setup_ops, ops)
        wall_metrics = end_to_end(setup_walls, setup_ops, ops, "wall_s")
        del wall_metrics["peak_rss_mb"]

    declared = declared_metrics(args.trace)
    if declared is not None and set(declared) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    failed = [o for o in setup_ops + ops if not o.ok]
    attempted = len(setup_ops) + len(ops)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, program=program, machine=machine,
                  setup_walls_s=setup_walls, setup_ref_s=setup_refs,
                  wall_metrics={k: v for k, (v, _) in wall_metrics.items()},
                  ops=[vars(o) for o in setup_ops + ops])
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for op in failed:
        print(f"FAILED {op.kind} {op.series} ({op.phase}): {'; '.join(op.reasons)}",
              file=sys.stderr)
    print("machine " + json.dumps(machine))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for name, (value, unit) in wall_metrics.items():
        print(f"{name + ' (wall)':36s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
