"""surfcrf benchmark: one workload per run, in one process.

    python3 surfbench/run.py --workload pipeline-r5 --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; surfcrf is imported from its src/.
Workloads (see workloads.py and README.md): pipeline-r5, segment-sweep,
fit-r3.  With --trace 0 the last line of standard output is a JSON object
holding every end-to-end metric of BENCHMARK.json; with --trace 1 it holds
every per-layer metric, measured in a separate traced run.  Run directories
live under .surfbench/ in the checkout; a traced run leaves its spans in
.surfbench/trace-<workload>-<seed>.json.  --toy shrinks every workload to
r=3, Z=16, one case and one epoch, for the smoke test.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".surfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="surfbench")
    p.add_argument("--workload", required=True,
                   choices=("pipeline-r5", "segment-sweep", "fit-r3"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="smoke-test size")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def facts(args):
    import platform

    import numpy
    import scipy
    from surfcrf import accel
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "nproc": os.cpu_count(),
            "backend": accel.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "git_commit": git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surfcrf", "cli.py")):
        print(f"surfbench: no surfcrf sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    import resource
    import shutil
    import signal
    import statistics
    import tempfile

    import workloads
    from tracing import Tracer
    import_s = time.perf_counter() - _T0

    # a terminated run still removes its run directories (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tracer = Tracer() if args.trace else None
    size = workloads.TOY if args.toy else workloads.FULL
    bench = workloads.Bench(args.seed, args.seconds, size, tmp, tracer)
    run_facts = facts(args)
    try:
        workloads.WORKLOADS[args.workload](bench)
    except workloads.BenchError as exc:
        print(f"surfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = workloads.end_to_end(bench, import_s, peak_rss_mb)
        wanted = spec["end_to_end"]
    else:
        values = tracer.medians()
        values["trace.op_s"] = statistics.median(bench.op_s)
        values["trace.overhead_s"] = bench.overhead_s
        wanted = spec["per_layer"]
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                    {"facts": run_facts, "untraced_ref_s": bench.op_s[0] - bench.overhead_s,
                     "per_layer": values})
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"surfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    attempted = len(bench.op_s)
    print(json.dumps({"facts": run_facts}))
    print(json.dumps({"op_s": bench.op_s, "setup_units_s": bench.setup_units,
                      "import_s": import_s, "quality": bench.quality}))
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": attempted, "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
