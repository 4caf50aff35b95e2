"""tailjoint benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mc_power --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics from a traced run (see README.md).  Every op's output
is checked; the last line of standard output is one JSON object, and the
exit code is non-zero if any check failed.  ``--workload all`` runs every
workload in turn, each in its own process, and prints all their metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from speed import CAL_REF_S, calibration
from tracing import LAYERS, Tracer

# Fresh interpreters started per run, before the timed loop, for setup_s.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Each calibration between ops lasts at least this share of the op before it,
# so that it samples the host's speed over a comparable stretch of time.
CAL_SHARE = 0.1
# Spans of this many traced ops go to the span file; the metrics use all.
SPAN_FILE_OPS = 1


def environment(pkg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(wl.ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tailjoint": pkg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exports one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    pct = (100 * (n - 10)) // n
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def probe(name: str, seed: int, workdir: Path) -> dict:
    """Import and set-up time of one fresh interpreter (workloads.probe)."""
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "workloads.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed loop with one caller: ops back to back until the time is up."""

    def __init__(self, workload: wl.Workload, reference):
        self.workload = workload
        self.reference = reference
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.units = 0
        self.bytes_written = 0
        self.inband_attempted = 0
        self.inband_failed = 0
        self.traced_units = 0
        self.traced_bytes = 0

    def run(self, seconds: float) -> tuple[list[float], list[float]]:
        """Time per unit of work, in seconds, of each op started within
        ``seconds``: as measured, and at reference speed by the calibrations
        on either side of the op."""
        raw, scaled = [], []
        deadline = time.perf_counter() + seconds
        cal = calibration()
        while not raw or time.perf_counter() < deadline:
            start = time.perf_counter()
            t = self.step()
            after = calibration(CAL_SHARE * (time.perf_counter() - start))
            raw.append(t)
            scaled.append(t * 2.0 * CAL_REF_S / (cal + after))
            cal = after
        return raw, scaled

    def run_pairs(self, seconds: float, tracer: Tracer) -> tuple[list[float], list[float]]:
        """Untraced and traced ops in alternation, so both see the same machine."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(self.step())
            before = (self.units, self.bytes_written)
            tracer.op += 1
            tracer.install()
            try:
                traced.append(self.step())
            finally:
                tracer.uninstall()
            self.traced_units += self.units - before[0]
            self.traced_bytes += self.bytes_written - before[1]
        return untraced, traced

    def step(self) -> float:
        """One op; its time per unit of work in seconds (inf if it raised)."""
        w = self.workload
        w.before_op()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = w.op()
        except Exception as exc:  # an op that raises is a failed op
            self.fail(f"{type(exc).__name__}: {exc}")
            return math.inf
        elapsed = time.perf_counter() - start
        units = w.units(result)
        self.units += units
        self.bytes_written += w.bytes_written(result)
        attempted, failed = w.inband(result)
        self.inband_attempted += attempted
        self.inband_failed += failed
        self.verify(result)
        return elapsed / units

    def verify(self, result) -> None:
        w = self.workload
        try:
            digest = w.digest(result)
            if self.first_digest is None:
                w.check(result, self.reference)
                self.first_digest = digest
            elif digest != self.first_digest:
                raise wl.CheckFailed("output differs from the first op of this run")
        except wl.CheckFailed as exc:
            self.fail(str(exc))

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def setup_at_reference_speed(probe: dict) -> float:
    """A probe's set-up time, scaled by the calibration it ran right after."""
    return probe["setup_s"] * CAL_REF_S / probe["cal_s"]


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``: as robust to stray ops as the
    median, and steadier when a run holds only a few ops."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(scaled, probes) -> dict:
    """Op time and median set-up, both at reference speed."""
    return {
        "setup_s": (statistics.median(setup_at_reference_speed(p) for p in probes), "s"),
        "op_ms": (middle_mean(scaled) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# Call and event counts reported per unit of work, as named in README.md.
COUNTS = (
    "sample.compute_ranks.calls",
    "marginal.estimate_margins.calls",
    "marginal.hill_estimator.calls",
    "marginal.laws_expectile.calls",
    "numpy.sorts",
    "covariance.estimate_sigma_laws.calls",
    "taildep.EmpiricalTailCopula.evaluate.calls",
    "taildep.OracleTailCopula.evaluate.calls",
    "numerics.quad_calls",
    "numerics.SpdMatrix.from_array.calls",
    "numerics.spd_clips",
    "numerics.failed.NotPositiveSemidefiniteError",
    "covariance.failed.DomainError",
)


def per_layer(tracer: Tracer, units: int, bytes_written: int, rep_ok_ratio: float,
              untraced, traced, import_s: float) -> dict:
    units = max(units, 1)
    self_ns = tracer.self_ns_by_key()
    counts = tracer.counts + tracer.failures

    def per_unit_ms(key):
        return (self_ns.get(key, 0) / 1e6 / units, "ms/op")

    out = {f"{layer}.self_ms": per_unit_ms(layer) for layer in LAYERS}
    out["sample.ingest_csv.self_ms"] = per_unit_ms("sample.ingest_csv")
    for key in COUNTS:
        out[key] = (counts.get(key, 0) / units, "count/op")
    out["cli.bytes_written"] = (bytes_written / units, "B/op")
    out["cli.import_ms"] = (import_s * 1e3, "ms")
    out["simulation.rep_ok_ratio"] = (rep_ok_ratio, "ratio")
    base = statistics.median(untraced)
    out["tracing_overhead_pct"] = (100.0 * (statistics.median(traced) - base) / base, "%")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    start = time.perf_counter()
    pkg = wl.load_package()
    import_s = time.perf_counter() - start
    env = environment(pkg)
    cls = wl.WORKLOADS[args.workload]
    scratch = wl.ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = cls(pkg, args.seed, scratch / "run")
        workload.workdir.mkdir()
        workload.setup()
        if not args.trace:
            probes = [probe(args.workload, args.seed, scratch / f"probe{i}")
                      for i in range(SETUP_PROBES)]
        workload.warm_up()
        loop = Loop(workload, workload.reference())
        if args.trace:
            tracer = Tracer()
            untraced, traced = loop.run_pairs(args.seconds, tracer)
            metrics = per_layer(
                tracer, loop.traced_units, loop.traced_bytes,
                workload.rep_ok_ratio(loop), untraced, traced, import_s,
            )
            spans = wl.ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            written = tracer.write_spans(spans, SPAN_FILE_OPS)
            print(f"spans: {len(tracer.spans)} recorded, those of the first {SPAN_FILE_OPS} "
                  f"traced ops ({written}) written to {spans.relative_to(wl.ROOT)}")
            print("failures by layer and class: " + json.dumps(dict(sorted(tracer.failures.items()))))
        else:
            raw, scaled = loop.run(args.seconds)
            times = [t for t in raw if math.isfinite(t)]
            scaled = [t for t in scaled if math.isfinite(t)]
            if not times:
                raise SystemExit("perfbench: every op raised: " + "; ".join(loop.problems))
            metrics = end_to_end(scaled, probes)
            imports = sorted(p["import_s"] * 1e3 for p in probes)
            print(f"import tailjoint.cli in a fresh interpreter: min {imports[0]:.4f} ms, "
                  f"median {statistics.median(imports):.4f} ms over {len(imports)} probes")
            setups = sorted(p["setup_s"] for p in probes)
            print(f"set-up as measured: median {statistics.median(setups):.4f} s, "
                  f"min {setups[0]:.4f} s; at reference speed: median "
                  f"{metrics['setup_s'][0]:.4f} s")
            tail = tail_percentile(times)
            unit = workload.unit
            print(f"time per {unit} as measured: median {statistics.median(times) * 1e3:.4f} ms, "
                  + (f"p{tail[0]} {tail[1] * 1e3:.4f} ms, " if tail else "")
                  + f"min {min(times) * 1e3:.4f} ms, {len(times)} ops; at reference speed: "
                  f"median {statistics.median(scaled) * 1e3:.4f} ms, "
                  f"mean of the middle half {metrics['op_ms'][0]:.4f} ms")
            for line in workload.report_lines():
                print(line)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not workload.uses_seed:
        print(f"{args.workload} uses no random data; --seed {args.seed} is ignored")
    inband = max(loop.inband_attempted, 1)
    print(f"in-band failures: {loop.inband_failed}/{loop.inband_attempted} "
          f"(failed_frac {loop.inband_failed / inband:.6f}); "
          f"reference: {'stored' if loop.reference is not None else 'none, invariants only'}")
    for problem in loop.problems:
        print(f"CHECK FAILED: {problem}")
    print("environment: " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; their metrics side by side."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
