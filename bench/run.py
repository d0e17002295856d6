"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload grid-linear --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
Set-up (imports, inputs, warm-up) is timed apart from the measured passes.
Passes of identical work repeat until ``--seconds`` have elapsed. Each timed
metric comes from the median time of each of its identical windows over all
passes, in reference seconds (see ``workloads.reduce_windows``); the other
metrics are medians over passes. With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` the public functions of the
package are wrapped and the last line holds the per-layer metrics instead.
"""
import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "cell_s": "s",
    "train_s": "s",
    "save_s": "s",
    "load_s": "s",
    "model_bytes": "bytes",
    "predict_pts_per_s": "pts/s",
    "test_gmean": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "subsvdd" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import numpy  # noqa: F401
    import subsvdd  # noqa: F401

    import tracing  # noqa: F401
    import workloads
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report = measure(workload, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report["detail"], indent=1) + "\n", encoding="utf-8")
    for problem in report["detail"]["problems"][:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(report["result"]))
    return 0


def measure(workload, args, workdir, import_s):
    import tracing
    import workloads

    # set-up time in reference seconds, as the timed windows (see workloads.py)
    setups, references = [], [workloads.reference_loop()]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        state = workload.setup(args.seed)
        workload.run_pass(workload.setup(args.seed, warm=True), workdir)
        setups.append(time.perf_counter() - start)
        references.append(workloads.reference_loop())
    setup_ref_s = (workloads.REFERENCE_S * (import_s + statistics.median(setups))
                   / statistics.fmean(references))

    tracer = None
    peak_mb = 0.0
    if args.trace:
        import tracemalloc

        tracer = tracing.Tracer()
        tracer.install()
        # one untimed pass with allocation tracking, for the dual's peak memory
        tracer.measure_memory = True
        tracemalloc.start()
        workload.run_pass(state, workdir)
        tracemalloc.stop()
        tracer.measure_memory = False
        peak_mb = tracing.peak_mb(tracer.summary())
        tracer.clear()

    passes, pass_s, layers, samples, windows = [], [], [], {}, {}
    attempted = failed = 0
    problems, notes = [], {}
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            pass_start = time.perf_counter()
            outcome = workload.run_pass(state, workdir, parse_store=bool(args.trace))
            pass_s.append(time.perf_counter() - pass_start)
            passes.append(outcome.samples)
            for name, values in outcome.samples.items():
                samples.setdefault(name, []).extend(values)
            reference = statistics.fmean(outcome.references)
            for name, pieces in outcome.windows.items():
                for piece, timed in pieces.items():
                    windows.setdefault(name, {}).setdefault(piece, []).extend(
                        (seconds, items, reference) for seconds, items in timed)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            notes = outcome.notes
            if tracer is not None:
                summary = tracer.summary()
                tracer.clear()
                row = {name: read(summary) for name, (_, read) in tracing.PER_LAYER.items()}
                row.update(outcome.store_bytes)
                layers.append((row, summary))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "pass_s": pass_s, "setup_runs_s": setups,
              "import_s": import_s,
              "problems": problems, "notes": notes}
    if tracer is None:
        values = {name: statistics.median(values) for name, values in samples.items()}
        values.update({name: workloads.reduce_windows(name, pieces)
                       for name, pieces in windows.items()})
        values["setup_s"] = setup_ref_s
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        detail["per_pass"] = passes
        detail["windows_s"] = {
            name: {piece: {"median_s": statistics.median(s for s, _, _ in timed),
                           "items": timed[0][1], "seconds": [s for s, _, _ in timed],
                           "reference_s": [ref for _, _, ref in timed]}
                   for piece, timed in pieces.items()}
            for name, pieces in windows.items()}
    else:
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        units.update({"model_store.npt_bytes": "bytes", "model_store.y_train_bytes": "bytes",
                      "svdd.solve_dual_peak_mb": "MB"})
        values = {name: statistics.median(row[name] for row, _ in layers)
                  for name in layers[0][0]}
        values["svdd.solve_dual_peak_mb"] = peak_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in sorted(units.items())}
        detail["self_s"] = self_time_table([summary for _, summary in layers])
    return {
        "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "detail": detail,
    }


def self_time_table(summaries):
    """Median self time and calls per pass of every traced function."""
    names = sorted({name for s in summaries for name in s})
    table = {
        name: {
            "self_s": statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries),
            "calls": statistics.median(s.get(name, {}).get("calls", 0) for s in summaries),
        }
        for name in names
    }
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


if __name__ == "__main__":
    sys.exit(main())
