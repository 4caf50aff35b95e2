"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, end to end and traced, and checks that
every metric named in BENCHMARK.json is printed with its unit; checks that
the stored references pass and that a perturbed reference value fails; and
checks that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle_reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    wl.McPower: {"M": 5},
    wl.CliD5: {"N": 1000, "K": 50, "K_MIN": 40, "K_MAX": 50},
    wl.Oracle: {"GAMMAS": (0.2, 0.2)},
}
UNSTORED_SEED = 99


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads; references only for the tiny oracle configuration."""
    for cls, attrs in TINY.items():
        for name, value in attrs.items():
            monkeypatch.setattr(cls, name, value)
    refs = tmp_path / "references"
    refs.mkdir()
    oracle = oracle_reference.reference(gammas=wl.Oracle.GAMMAS)
    (refs / "oracle.json").write_text(json.dumps(oracle), encoding="utf-8")
    monkeypatch.setattr(wl, "REFERENCES", refs)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return refs


def run_main(capsys, workload: str, trace: int, seed: int = UNSTORED_SEED):
    rc = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    rc, lines, result = run_main(capsys, workload, trace)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in spec:
        assert any(line.split()[::2] == [m["name"], m["unit"]] for line in lines), m["name"]


def perturbed(doc, factor: float):
    """A copy of ``doc`` with its first float scaled by ``factor``."""
    doc = json.loads(json.dumps(doc))
    stack = [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and value != 0.0:
                node[key] = value * factor
                return doc
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise AssertionError("no float to perturb")


@pytest.fixture(scope="module")
def pkg():
    return wl.load_package()


@pytest.mark.parametrize("workload", [n for n, c in wl.WORKLOADS.items() if c.uses_seed])
@pytest.mark.parametrize("seed", wl.REFERENCE_SEEDS)
def test_stored_reference_passes_and_perturbed_fails(pkg, tmp_path, workload, seed):
    w = wl.WORKLOADS[workload](pkg, seed, tmp_path)
    w.setup()
    w.before_op()
    result = w.op()
    reference = w.reference()
    assert reference is not None
    w.check(result, reference)
    with pytest.raises(wl.CheckFailed):
        w.check(result, perturbed(reference, 1.0 + 1e-9))


def test_oracle_perturbed_reference_fails(tiny, pkg, tmp_path):
    w = wl.Oracle(pkg, UNSTORED_SEED, tmp_path)
    result = w.op()
    reference = w.reference()
    w.check(result, reference)
    with pytest.raises(wl.CheckFailed):
        w.check(result, perturbed(reference, 1.0 + 1e-4))


def test_mismatch_makes_run_exit_nonzero(tiny, capsys, pkg, tmp_path):
    w = wl.McPower(pkg, UNSTORED_SEED, tmp_path)
    reference = w.summarize(w.op())
    path = wl.reference_path("mc_power", UNSTORED_SEED)
    path.write_text(json.dumps(reference), encoding="utf-8")
    assert run_main(capsys, "mc_power", 0)[0] == 0
    reference["failures"] += 1
    path.write_text(json.dumps(reference), encoding="utf-8")
    rc, lines, result = run_main(capsys, "mc_power", 0)
    assert rc != 0 and not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("CHECK FAILED") for line in lines)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_power", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
