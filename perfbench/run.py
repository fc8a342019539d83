"""Run one benchmark workload against the program and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the machine, the request count and any
failure notes.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, set before numpy is first
# imported: numpy links a threaded OpenBLAS here, and its pool would
# compete with the measured work for the machine's CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-cold", "serve-warm", "ingest-mixed", "serve-sharded")


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    from perfbench import workloads as wl
    if workload == "ingest-mixed":
        return wl.run_ingest(seed, seconds, trace, workdir)
    cls = {"serve-cold": wl.ServeCold, "serve-warm": wl.ServeWarm,
           "serve-sharded": wl.ServeSharded}[workload]
    return wl.run_serving(cls, seed, seconds, trace, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    # Every file the run writes, temporary ones included, stays in the
    # checkout, and is removed when the run ends.
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        from perfbench import workloads as wl
        from perfbench.trace import SUM_TOLERANCE
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = wl.PER_LAYER if args.trace else wl.END_TO_END
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)),
                      "unit": unit} for name, unit in names.items()}
    correct = result["failed"] == 0
    info = {"workload": args.workload, "seed": args.seed,
            "machine": machine_facts(), "requests": result["requests"],
            "notes": result["notes"]}
    others = {name: value for name, value in result["metrics"].items()
              if name not in names}
    if others:
        info["other_metrics"] = others
    for key in ("verify_s", "serving_rss_mib"):
        if key in result:
            info[key] = result[key]
    tracer = result.get("tracer")
    if tracer is not None:
        # The sum check bounds only the time outside every span (the
        # benchmark's own call overhead); engine time no wrapper sees is
        # reported apart, as trace.unattributed_share.
        share = result["metrics"]["trace.outside_spans_share"]
        ok = share <= SUM_TOLERANCE
        correct = correct and ok
        info["self_times_s"] = result["self_times_s"]
        info["layer_sum_check"] = {
            "outside_spans_share": share,
            "tolerance": SUM_TOLERANCE, "ok": ok}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        info["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
