"""Benchmark of the tiara command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one in-process
``tiara.cli.main([...])`` call on files generated from the seed, timed
from argument parsing through the last byte written.  One client runs
operations back to back (a closed loop) for S seconds.  ``TIARA_THREADS``
is removed from the environment so the default a user gets is measured.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and the per-layer metrics are reported instead (see README.md).
Lines before it, starting with ``#``, give machine information and
details such as which percentile ``op_ms.tail`` is.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_RUNS = 5
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60


def load_program():
    """Import tiara from this checkout's sources, or exit with a message."""
    if not (SRC / "tiara" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"perfbench: no tiara sources or tests/oracles.py under {ROOT}")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import tiara.cli
    if Path(tiara.cli.__file__).resolve().parent != SRC / "tiara":
        sys.exit(f"perfbench: imported tiara from {tiara.cli.__file__}, not from {SRC}")
    return tiara.cli.main


def call(main, argv):
    """Exit code of one CLI call; None if it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return None


def digest(paths):
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 20):
                sha.update(chunk)
    return sha.hexdigest()


class Bench:
    """One workload's inputs and the operation that processes them."""

    def __init__(self, main, workload, seed, work):
        self.main = main
        self.workload = workload
        self.argv, self.outputs = self.workload.prepare(seed, work)
        self.reference = None

    def warm_up(self):
        """Run the untimed first operation and check its outputs against the
        independent references; returns the problems found."""
        code = call(self.main, self.argv)
        if code != 0:
            return [f"exit code {code}"]
        self.reference = digest(self.outputs)
        try:
            return self.workload.check()
        except (OSError, ValueError, struct.error) as exc:
            return [f"unreadable output: {exc}"]

    def op(self, tracer=None):
        """(seconds, ok) for one operation.  ok requires exit code 0 and
        output bytes equal to the warm-up operation's."""
        start = perf_counter()
        if tracer is None:
            code = call(self.main, self.argv)
        else:
            with tracer.operation():
                code = call(self.main, self.argv)
        seconds = perf_counter() - start
        return seconds, code == 0 and digest(self.outputs) == self.reference


def cold_starts(argv, runs):
    """Seconds to import tiara and finish one operation, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    seconds = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), json.dumps(argv)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
        if result is None or result["exit"] != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()[-400:]}")
        seconds.append(result["seconds"])
    return seconds


def tail(samples):
    """(value, percentile): the highest sample with TAIL_BEYOND samples above
    it, or the maximum when there are too few samples for that."""
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def blas_threads():
    """OpenBLAS thread count of NumPy's bundled library, or None if unknown."""
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return None


def machine():
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


# Metric name -> unit.  error_rate (failed / attempted) is reported as its
# complement success_rate, because a metric that reads 0 has no relative
# bound; error_rate itself is printed on a "#" line.
END_TO_END_UNITS = {
    "op_ms.p50": "ms", "op_ms.tail": "ms", "items_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "success_rate": "ratio",
}

# Per operation, from the traced operations.  NAME.ms is inclusive time and
# LAYER.self_ms is time in a layer's own code, outside any child span.
PER_LAYER_UNITS = {
    "spectral.self_ms": "ms", "spectral.dstft_bins.calls": "count",
    "spectral.dstft_bins.ms": "ms", "spectral.pad_periodic.ms": "ms",
    "spectral.dstft_bins.terms": "computed",
    "attention.self_ms": "ms", "attention.motion_profile.ms": "ms",
    "attention.row_spectrum.calls": "count", "attention.softmax_rows.ms": "ms",
    "attention.build_reweight_matrix.ms": "ms", "attention.reweighted_attention.ms": "ms",
    "attention.spectra_per_row": "ratio",
    "consistency.self_ms": "ms", "consistency.estimate_kappa.ms": "ms",
    "consistency.inconsistency_profile.ms": "ms", "consistency.homogeneity_deviation.ms": "ms",
    "consistency.stft_passes": "ratio",
    "verifier.self_ms": "ms", "verifier.make_instance.ms": "ms",
    "verifier.verify_theorem.ms": "ms", "verifier.require_feasible.calls": "count",
    "promptblend.self_ms": "ms", "promptblend.conditioning.calls": "count",
    "promptblend.conditioning.ms": "ms", "promptblend.align.ms": "ms",
    "promptblend.parse_organized.ms": "ms",
    "tensorfile.self_ms": "ms", "tensorfile.read_tensor.ms": "ms",
    "tensorfile.write_tensor.ms": "ms", "tensorfile.bytes_read": "B",
    "tensorfile.bytes_written": "B", "tensorfile.write_mb_per_s": "MB/s",
    "config.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.op_ms": "ms", "trace.overhead_ms": "ms",
}


def end_to_end(bench, seconds):
    setup = cold_starts(bench.argv, SETUP_RUNS)
    problems = bench.warm_up()
    times, failed = [], 0
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        elapsed, ok = bench.op()
        times.append(elapsed)
        failed += not ok
    done = len(times) - failed
    tail_s, tail_pct = tail(times)
    notes = [f"op_ms.tail is p{tail_pct:.1f} of {len(times)} operations",
             f"error_rate {failed / len(times):.6g} ({failed} of {len(times)})",
             f"set-up samples (s): {' '.join(f'{s:.4f}' for s in setup)}"]
    metrics = {
        "op_ms.p50": 1e3 * statistics.median(times),
        "op_ms.tail": 1e3 * tail_s,
        "items_per_s": bench.workload.items * done / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": done / len(times),
    }
    return problems, len(times), failed, metrics, notes


def per_layer(bench, seconds, spans_path):
    problems = bench.warm_up()
    tracer = Tracer()
    plain, traced, failed = [], [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        for samples, tracing in ((plain, None), (traced, tracer)):
            elapsed, ok = bench.op(tracing)
            samples.append(elapsed)
            failed += not ok
    tracer.write(spans_path)
    summary = tracer.summary()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for layer, value in summary["self_ms"].items():
        metrics[f"{layer}.self_ms"] = value
    for kind in ("ms", "calls"):
        for name, value in summary[kind].items():
            if f"{name}.{kind}" in metrics:
                metrics[f"{name}.{kind}"] = value
    metrics.update(summary["counts"])
    wl = bench.workload
    if wl.rows:
        metrics["attention.spectra_per_row"] = metrics["attention.row_spectrum.calls"] / wl.rows
    if wl.signal_samples:
        metrics["consistency.stft_passes"] = (summary["calls"].get("consistency.dstft_bins", 0)
                                              / wl.signal_samples)
    if metrics["tensorfile.write_tensor.ms"]:
        metrics["tensorfile.write_mb_per_s"] = (metrics["tensorfile.bytes_written"] / 1e3
                                                / metrics["tensorfile.write_tensor.ms"])
    metrics["trace.op_ms"] = summary["op_ms"]
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
    notes = [f"{len(traced)} traced and {len(plain)} untraced operations; per-layer figures "
             f"from the first {min(len(traced), tracer.keep_ops)} traced; "
             f"untraced op_ms.p50 {1e3 * statistics.median(plain):.3f}",
             f"spans written to {spans_path.relative_to(ROOT)}",
             "spectral.dstft_bins.terms is computed from the arguments (sum of L*|ks|)"]
    return problems, len(plain) + len(traced), failed, metrics, notes


def main(argv=None):
    program = load_program()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FACTORIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("TIARA_THREADS", None)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(program, workloads.FACTORIES[args.workload](ROOT), args.seed, work)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv"
            problems, attempted, failed, metrics, notes = per_layer(bench, args.seconds, spans_path)
            units = PER_LAYER_UNITS
        else:
            problems, attempted, failed, metrics, notes = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# machine " + json.dumps(machine()))
    print(f"# workload {args.workload} seed {args.seed} items/op {bench.workload.items}")
    for line in notes + [f"reference check: {p}" for p in problems]:
        print("# " + line)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
