"""The benchmark's workloads: inputs, the timed op, and output checks.

Every workload calls ``tailjoint`` only through stable public entry points
(``run_mc_power``, ``cli.main``, ``theoretical_v_star_laws``/``_qb``), looked
up on the package at call time so that a traced run sees its wrappers.

Run as a script, this module is the set-up probe: a fresh interpreter that
imports the package, builds the inputs and runs the warm-up, then times the
calibration (speed.py) and prints the timings as JSON.  ``run.py`` starts it
a few times per run, before its timed loop.

    python3 perfbench/workloads.py <workload> <seed> <workdir>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

import oracle_reference
from speed import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references"

# The seeds with stored references: the default seed and one held out.
DEFAULT_SEED = 1
REFERENCE_SEEDS = (DEFAULT_SEED, 2)

CLI_REL_TOL = 1e-12
ORACLE_REL_TOL = 1e-5


class CheckFailed(Exception):
    """An output differs from its reference or breaks an invariant."""


def load_package():
    """Import ``tailjoint`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "tailjoint" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'tailjoint'}")
    sys.path.insert(0, str(SRC))
    import tailjoint
    import tailjoint.cli  # noqa: F401  (the CLI workloads and the start-up probe need it)

    if not Path(tailjoint.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: tailjoint imported from {tailjoint.__file__}, not {SRC}")
    return tailjoint


def close(a, b, rel: float) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare(got, want, rel: float, where: str = "") -> None:
    """Recursive comparison: floats to ``rel``, everything else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        if not (isinstance(got, (int, float)) and isinstance(want, (int, float))):
            raise CheckFailed(f"{where}: {got!r} != {want!r}")
        if not close(float(got), float(want), rel):
            raise CheckFailed(f"{where}: {got!r} != {want!r} (rel tol {rel:g})")
    elif isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            raise CheckFailed(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in want:
            compare(got[key], want[key], rel, f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{where}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, rel, f"{where}[{i}]")
    elif got != want:
        raise CheckFailed(f"{where}: {got!r} != {want!r}")


def reference_path(workload: str, seed: int | None) -> Path:
    return REFERENCES / (f"{workload}.json" if seed is None else f"{workload}.seed{seed}.json")


class Workload:
    """One closed-loop workload with a single caller."""

    name = ""
    unit = "op"  # what one op is, and what per-layer figures are per
    uses_seed = True

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs from the seed."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed preparation for the next op."""

    def op(self):
        """The timed work; returns what ``check`` and ``digest`` inspect."""
        raise NotImplementedError

    def units(self, result) -> int:
        """How many units of work one op did (per-layer figures are per unit)."""
        return 1

    def digest(self, result):
        """What must be identical between ops of one run."""
        return result

    def summarize(self, result):
        """The reference form of an op's output."""
        return result

    def check(self, result, reference) -> None:
        """Raise CheckFailed on invariant or reference mismatch."""
        raise NotImplementedError

    def inband(self, result) -> tuple[int, int]:
        """Items attempted and failed inside one op, as the program reports
        them: replications, per-pair or per-k rows, or the op itself."""
        return 1, 0

    def bytes_written(self, result) -> int:
        return 0

    def rep_ok_ratio(self, loop) -> float:
        """Share of Monte Carlo replications that succeeded; 1 without any."""
        return 1.0

    def report_lines(self) -> list[str]:
        """Extra human-readable lines for the end-to-end report."""
        return []

    def reference(self):
        seed = self.seed if self.uses_seed else None
        path = reference_path(self.name, seed)
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8"))


# -- mc_power -------------------------------------------------------------


class McPower(Workload):
    """Criterion 8's power run: many small samples, each used once, so
    batching can help and a per-sample cache cannot.  Some LAWS
    replications fail for real (an indefinite plug-in covariance)."""

    name = "mc_power"
    unit = "replication"
    M = 200
    N = 1000
    TAU, TAU_PRIME, ALPHA = 0.95, 0.999, 0.05

    def _run(self, M: int):
        pkg = self.pkg
        return pkg.run_mc_power(
            pkg.SimulationModel.gumbel_frechet(d=2),
            n=self.N,
            tau=self.TAU,
            tau_prime=self.TAU_PRIME,
            M=M,
            alpha=self.ALPHA,
            master_seed=self.seed,
            methods=("laws", "qb"),
        )

    def warm_up(self) -> None:
        self._run(10)

    def op(self):
        return self._run(self.M)

    def units(self, result) -> int:
        return result.replications

    def inband(self, result) -> tuple[int, int]:
        return result.replications, result.failures

    def rep_ok_ratio(self, loop) -> float:
        return 1.0 - loop.inband_failed / max(loop.inband_attempted, 1)

    def summarize(self, result):
        return {"metrics": dict(result.metrics), "failures": result.failures}

    def digest(self, result):
        return json.dumps(self.summarize(result), sort_keys=True)

    def check(self, result, reference) -> None:
        if result.replications != self.M or not 0 <= result.failures < self.M:
            raise CheckFailed(f"replications {result.replications}, failures {result.failures}")
        ok = self.M - result.failures
        for method in ("laws", "qb"):
            rate = result.metrics.get(f"rejection_pct_{method}")
            if rate is None or not 0.0 <= rate <= 100.0:
                raise CheckFailed(f"rejection rate for {method}: {rate!r}")
            rejects = rate * ok / 100.0
            if abs(rejects - round(rejects)) > 1e-6:
                raise CheckFailed(f"{method}: {rate}% is not a count over {ok} replications")
        if reference is not None:
            compare(self.summarize(result), reference, 0.0, "mc_power")


# -- CLI ------------------------------------------------------------------


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_cells(text: str) -> list:
    lines = text.splitlines()
    return [lines[0].split(",")] + [
        [_parse_cell(c) for c in line.split(",", 2)] for line in lines[1:]
    ]


def _csv_numbers(text: str) -> list[list[float]]:
    return [[float(c) for c in line.split(",")] for line in text.splitlines()[1:]]


def _laws_root(xs, tau: float) -> float:
    """Bisection on sum phi_tau(x - theta) = 0, independent of the package."""
    import numpy as np

    def psi(theta):
        r = xs - theta
        return float(np.sum(np.where(r > 0.0, tau * r, (1.0 - tau) * r)))

    lo, hi = float(xs.min()), float(xs.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * abs(hi):
            break
    return 0.5 * (lo + hi)


class CliD5(Workload):
    """One analysis session of a d=5, n=5000 gaussian_student panel read
    from CSV: ``estimate``, ``region`` and ``test`` at k=250, then
    ``trace-scan`` over k=50..500.  One large panel, many consumers at one
    level and at 451 levels.

    The margins' tail index is 1/4 rather than the model's default 1/3:
    ``estimate`` exits with an error once a margin's Hill estimate reaches
    1/2, and at 1/3 and k=250 the largest estimate comes within 0.03 of that
    for 7 of the seeds 1-200 (at most 0.42 at 1/4).
    """

    name = "cli_d5"
    unit = "session"
    N, D, K = 5000, 5, 250
    GAMMA = 0.25
    K_MIN, K_MAX = 50, 500
    COMMANDS = ("estimate", "region", "test", "trace-scan")

    def argv(self, command: str) -> list[str]:
        if command == "trace-scan":
            return [command, "--k-min", str(self.K_MIN), "--k-max", str(self.K_MAX)]
        return [command, "--k", str(self.K)]

    def setup(self) -> None:
        pkg = self.pkg
        sample = pkg.sample_model(
            pkg.SimulationModel.gaussian_student(d=self.D, gamma=self.GAMMA),
            self.N,
            pkg.rng_stream(self.seed, 0),
        )
        self.input = self.workdir / "input.csv"
        pkg.emit_csv(sample, self.input)
        self.out = self.workdir / "out"
        self.command_times: dict[str, list[float]] = {c: [] for c in self.COMMANDS}

    def _main(self, argv, out: Path):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = self.pkg.cli.main(
                [argv[0], "--input", str(self.input), "--out", str(out), *argv[1:]]
            )
        return rc, stdout.getvalue()

    def warm_up(self) -> None:
        self._main(self.argv("estimate"), self.workdir / "warm")

    def before_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self):
        """The session; returns each command's exit code and standard output."""
        result = {}
        for command in self.COMMANDS:
            start = time.perf_counter()
            result[command] = self._main(self.argv(command), self.out / command)
            self.command_times[command].append(time.perf_counter() - start)
        return result

    def report_lines(self) -> list[str]:
        return [
            f"{command}: min {min(t) * 1e3:.4f} ms, median "
            f"{statistics.median(t) * 1e3:.4f} ms over {len(t)} runs"
            for command, t in self.command_times.items()
            if t
        ]

    def outputs(self, command: str) -> dict[str, bytes]:
        out = self.out / command
        if not out.is_dir():  # the command failed before writing
            return {}
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def digest(self, result):
        h = hashlib.sha256()
        for command, (rc, _) in result.items():
            h.update(f"{command}:{rc}".encode())
            for name, data in self.outputs(command).items():
                h.update(name.encode() + b"\0" + data)
        return h.hexdigest()

    def bytes_written(self, result) -> int:
        return sum(
            len(stdout.encode()) + sum(len(b) for b in self.outputs(command).values())
            for command, (_, stdout) in result.items()
        )

    def inband(self, result) -> tuple[int, int]:
        """Margins, regions, test rows and trace-scan levels, and how many of
        them the commands reported as failed."""
        attempted, failed = self.D, 0
        region = self.outputs("region").get("regions.json", b"")
        test = self.outputs("test").get("tests.json", b"")
        scan = self.outputs("trace-scan").get("trace_scan.csv", b"")
        for text in (region, test):
            attempted += text.count(b'"status": ')
            failed += text.count(b'"status": "failed"')
        return attempted + max(scan.count(b"\n") - 1, 0), failed + scan.count(b",failed: ")

    def summarize(self, result):
        summary = {}
        for command, (rc, _) in result.items():
            files = {}
            for name, data in self.outputs(command).items():
                text = data.decode("utf-8")
                if name.endswith(".json"):
                    files[name] = json.loads(text)
                elif name.startswith("boundary_"):
                    rows = _csv_numbers(text)
                    files[name] = {
                        "rows": len(rows),
                        "column_sums": [math.fsum(c) for c in zip(*rows)],
                    }
                else:
                    files[name] = _csv_cells(text)
            summary[command] = {"rc": rc, "files": files}
        return summary

    def check(self, result, reference) -> None:
        summary = self.summarize(result)
        for command, doc in summary.items():
            if doc["rc"] not in (0, 2):
                raise CheckFailed(f"{command} exited with {doc['rc']}")
        self.check_estimate(summary["estimate"])
        self.check_region(summary["region"])
        self.check_test(summary["test"])
        self.check_trace_scan(summary["trace-scan"])
        if reference is not None:
            compare(summary, reference, CLI_REL_TOL, "cli")

    def check_estimate(self, summary) -> None:
        import numpy as np

        doc = summary["files"].get("estimate.json")
        if summary["rc"] != 0 or doc is None or len(doc["margins"]) != self.D:
            raise CheckFailed("estimate: missing margins")
        x = np.loadtxt(self.input, delimiter=",", skiprows=1)
        n, k = self.N, self.K
        tau = 1.0 - k / n
        for j, m in enumerate(doc["margins"]):
            xs = np.sort(x[:, j])
            q = xs[n - k - 1]
            gamma = float(np.mean(np.log(xs[n - k :] / q)))
            expect = {
                "gamma_hat": gamma,
                "q_hat": q,
                "xi_laws": _laws_root(xs, tau),
                "xi_qb": (1.0 / gamma - 1.0) ** -gamma * q,
            }
            for key, value in expect.items():
                if not close(float(m[key]), float(value), 1e-10):
                    raise CheckFailed(f"estimate {m['label']}.{key}: {m[key]!r} != {value!r}")
            for kind in ("interval_laws", "interval_qb"):
                iv = m[kind]
                if not 0.0 < iv["lower"] < iv["upper"]:
                    raise CheckFailed(f"estimate {m['label']}.{kind}: {iv}")
            if not m["interval_qb"]["lower"] < m["xi_star_qb"] < m["interval_qb"]["upper"]:
                raise CheckFailed(f"estimate {m['label']}: QB interval misses its centre")

    def check_region(self, summary) -> None:
        import numpy as np

        docs = summary["files"].get("regions.json") or []
        if len(docs) != self.D * (self.D - 1):
            raise CheckFailed(f"region: {len(docs)} regions")
        for doc in docs:
            if doc["status"] != "ok":
                continue
            name = f"boundary_{'-'.join(doc['margins'])}_{doc['method']}.csv"
            text = (self.out / "region" / name).read_text(encoding="utf-8")
            pts = np.array(_csv_numbers(text))
            if pts.shape != (512, 2):
                raise CheckFailed(f"region {name}: shape {pts.shape}")
            # Every boundary point lies on the ellipse r^T S^-1 r = radius^2.
            resid = np.log(pts / np.array(doc["center"])) - np.array(doc["bias_shift"])
            form = np.einsum("ij,ij->i", resid @ np.linalg.inv(np.array(doc["shape"])), resid)
            if not np.allclose(form, doc["radius"] ** 2, rtol=1e-8, atol=0.0):
                raise CheckFailed(f"region {name}: boundary off its ellipse")

    def check_test(self, summary) -> None:
        doc = summary["files"].get("tests.json")
        pairs = self.D * (self.D - 1) // 2
        if doc is None or len(doc["results"]) != 3 * (1 + pairs) + pairs:
            raise CheckFailed("test: wrong number of results")
        for row in doc["results"]:
            if row["status"] != "ok" or row["kind"] == "extremal_coefficient":
                continue
            p, alpha = row["p_value"], row["alpha"]
            if not (0.0 <= p <= 1.0 and row["statistic"] >= 0.0):
                raise CheckFailed(f"test {row['margins']} {row['kind']}: p={p}")
            if abs(p - alpha) > 1e-9 and row["reject"] != (p < alpha):
                raise CheckFailed(f"test {row['margins']} {row['kind']}: reject disagrees with p")

    def check_trace_scan(self, summary) -> None:
        rows = summary["files"].get("trace_scan.csv") or [[]]
        if rows[0] != ["k", "trace", "status"] or [r[0] for r in rows[1:]] != [
            float(k) for k in range(self.K_MIN, self.K_MAX + 1)
        ]:
            raise CheckFailed("trace-scan: wrong rows")
        for k, trace, status in rows[1:]:
            if status == "ok" and not (isinstance(trace, float) and 0.0 < trace < math.inf):
                raise CheckFailed(f"trace-scan k={k}: trace {trace!r}")
            if status != "ok" and not status.startswith("failed: "):
                raise CheckFailed(f"trace-scan k={k}: status {status!r}")


# -- oracle ---------------------------------------------------------------


class Oracle(Workload):
    """Theoretical LAWS and QB covariances of the logistic copula by adaptive
    quadrature.  No random data: the seed is ignored."""

    name = "oracle"
    unit = "pass"
    uses_seed = False
    THETA = oracle_reference.THETA
    GAMMAS = oracle_reference.GAMMAS
    LOG_DN = oracle_reference.LOG_DN

    def warm_up(self) -> None:
        pkg = self.pkg
        pkg.theoretical_v_star_qb(self.GAMMAS, pkg.OracleTailCopula.logistic(self.THETA), self.LOG_DN)

    def op(self):
        pkg = self.pkg
        copula = pkg.OracleTailCopula.logistic(self.THETA)
        laws = pkg.theoretical_v_star_laws(self.GAMMAS, copula, self.LOG_DN)
        qb = pkg.theoretical_v_star_qb(self.GAMMAS, copula, self.LOG_DN)
        return {"v_star_laws": laws.entries.tolist(), "v_star_qb": qb.entries.tolist()}

    def digest(self, result):
        return json.dumps(result)

    def check(self, result, reference) -> None:
        if reference is None:
            raise CheckFailed(f"missing {reference_path(self.name, None)}")
        config = {"theta": self.THETA, "gammas": list(self.GAMMAS), "log_dn": self.LOG_DN}
        compare({key: reference[key] for key in config}, config, 0.0, "oracle config")
        for key in ("v_star_laws", "v_star_qb"):
            compare(result[key], reference[key], ORACLE_REL_TOL, key)


WORKLOADS = {cls.name: cls for cls in (McPower, CliD5, Oracle)}


def probe(name: str, seed: int, workdir: Path) -> dict:
    """Import, input generation and warm-up in this (fresh) interpreter."""
    start = time.perf_counter()
    pkg = load_package()
    imported = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](pkg, seed, workdir)
    workload.setup()
    workload.warm_up()
    done = time.perf_counter()
    return {"import_s": imported - start, "setup_s": done - start, "cal_s": calibration()}


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
