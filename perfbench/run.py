"""lanecast benchmark entry point.

    python3 perfbench/run.py --workload train|forecast|ingest|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Sets a workload up SETUP_REPEATS times from the seed, then runs rounds of it
until S seconds have passed and checks every round's outputs. The last line of
standard output is the result: `correct`, `attempted` and `failed` rounds,
and the end-to-end metrics (`--trace 0`) or the per-layer metrics from
traced rounds (`--trace 1`). Earlier lines give the machine and the figures
under the names a lanecast user knows. See perfbench/README.md.
"""

import os

BLAS_THREADS = 1
# Pinned before numpy loads: unpinned, OpenBLAS timings jump several-fold
# from run to run on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Calibration kernel time around the set-ups and before the first round,
# and after each round as a share of that round's time.
CALIBRATION_GAP_S = 0.2
CALIBRATION_SHARE = 0.1
WORKLOAD_NAMES = ("train", "forecast", "ingest")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one lanecast benchmark workload.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corridor and corpus: checks that every workload runs")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def measure(workload, seconds: float, trace: bool):
    """Set up, run rounds until `seconds` have passed, return (result, report).

    The calibration kernels run between set-ups and between rounds; the
    run's timings are scaled by the machine speed they measured. With tracing,
    rounds alternate untraced and traced so that the tracing overhead is
    measured within one process.
    """
    import hooks
    from calibrate import Calibration
    from spans import Tracer

    # set-ups and rounds are calibrated separately, each by kernel samples
    # taken before, between and after them
    setup_speed, round_speed = Calibration(), Calibration()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        setup_speed.sample_for(CALIBRATION_GAP_S)
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    setup_speed.sample_for(CALIBRATION_GAP_S)

    tracer = Tracer()
    walls, good, failed, first_facts = [], [], 0, None
    round_speed.sample_for(CALIBRATION_GAP_S)
    start = time.perf_counter()
    while True:
        traced = trace and len(walls) % 2 == 1
        tracer.run = len(walls)
        t0 = time.perf_counter()
        try:
            if traced:
                hooks.install(tracer, workload.shape, workload.sizes.filters)
            try:
                result = workload.round()
            finally:
                tracer.restore()
        except Exception:  # a failed round is counted and the loop goes on
            traceback.print_exc()
            result = None
        walls.append(time.perf_counter() - t0)
        round_speed.sample_for(CALIBRATION_SHARE * walls[-1])
        if result is not None:
            if first_facts is None:
                first_facts = result.facts
            elif result.facts != first_facts:
                result.problems.append(f"outputs {result.facts} differ from the first round's {first_facts}")
            for problem in result.problems:
                print(f"check failed ({workload.name}): {problem}", file=sys.stderr)
        if result is None or result.problems:
            failed += 1
        else:
            good.append((tracer.run, traced, result))
        if len(walls) >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
            break

    untraced = [r for _, t, r in good if not t]
    traced_rounds = [r for _, t, r in good if t]
    if not untraced or (trace and not traced_rounds):
        raise RuntimeError(f"{workload.name}: no round completed its checks")
    median = statistics.median
    throughput = median(r.items / r.main_s for r in untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        traced = median(r.items / r.main_s for r in traced_rounds)
        units = hooks.UNITS
        values = hooks.per_layer(tracer, [run for run, t, _ in good if t], 100.0 * (throughput / traced - 1.0))
    else:
        # timings at the reference machine speed
        units = {"setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
        values = {
            "setup_s": median(setup_s) * setup_speed.speed(),
            "throughput_per_s": throughput / round_speed.speed(),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload.name,
        **{name: median(r.figures[name] for r in untraced) for name in untraced[0].figures},
        **first_facts,
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / len(walls),
        "rounds": len(walls),
        "round_throughputs": [r.items / r.main_s for r in untraced],
        "machine_speed": {"setup": setup_speed.speed(), "rounds": round_speed.speed()},
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lanecast" / "__init__.py").is_file():
        print(f"perfbench: no lanecast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    print(json.dumps({"environment": environment()}), flush=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            workload = workloads.WORKLOADS[name](args.seed, sizes, str(workdir))
            try:
                result, report = measure(workload, args.seconds, bool(args.trace))
            except Exception:
                traceback.print_exc()
                return 1
            print(json.dumps({"report": report}), flush=True)
            results[name] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(json.dumps({name: result}), flush=True)
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
