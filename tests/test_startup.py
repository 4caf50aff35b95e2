"""Start-up cost: importing the package loads numpy and scipy.special, not
scipy.stats; the root-finding module loads on first use, and the in-package
quadrature never loads scipy.integrate."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys

import tailjoint, tailjoint.cli

LAZY = ("scipy.stats", "scipy.optimize", "scipy.integrate")
print("after import:", *sorted(m for m in LAZY if m in sys.modules))

copula = tailjoint.OracleTailCopula.logistic(2.0)
tailjoint.theoretical_v_star_laws((0.15, 0.25), copula, 3.9)
print("after quadrature:", "scipy.integrate" in sys.modules)

tailjoint.MarginOracle("student", 0.25).true_expectile(0.99)
print("after expectile:", "scipy.optimize" in sys.modules)
"""


def test_import_leaves_out_stats_optimize_and_integrate():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.splitlines()
    assert out == [
        "after import:",
        "after quadrature: False",
        "after expectile: True",
    ]
