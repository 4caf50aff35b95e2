"""Start-up cost: importing the package loads numpy and no scipy module, and
neither do the analysis commands, the oracle quadrature, a Gumbel-Frechet
power run, or a Gaussian-Student draw at tail index 1/4 (Student-t with 4
degrees of freedom) written out by emit_csv.  ``statistics`` loads with the
first normal quantile, which the commands' marginal intervals read, and not
before.  ``scipy.special`` loads with the first Student quantile at other
degrees of freedom (such as 3, the default tail index 1/3) or margin oracle
that needs it, and ``scipy.optimize`` with the first true-expectile solve."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import contextlib, io, sys, tempfile
from pathlib import Path

import numpy as np

import tailjoint, tailjoint.cli


def lazy_modules():
    # scipy's, and statistics, which the normal quantile imports on first call
    return sorted(
        m for m in sys.modules if m in ("scipy", "statistics") or m.startswith("scipy.")
    )


print("after import:", *lazy_modules())

copula = tailjoint.OracleTailCopula.logistic(2.0)
tailjoint.theoretical_v_star_laws((0.15, 0.25), copula, 3.9)
tailjoint.run_mc_power(
    tailjoint.SimulationModel.gumbel_frechet(d=2), n=200, tau=0.9, tau_prime=0.99,
    M=3, alpha=0.05, master_seed=1,
)
print("after quadrature and power:", *lazy_modules())

with tempfile.TemporaryDirectory() as tmp:
    values = (1.0 - np.random.default_rng(1).random((300, 3))) ** -0.25
    path = Path(tmp) / "panel.csv"
    path.write_text(
        "a,b,c\\n" + "".join(",".join(map(repr, row)) + "\\n" for row in values.tolist())
    )
    for argv in (["estimate", "--k", "30"], ["region", "--k", "30"],
                 ["test", "--k", "30"], ["trace-scan", "--k-min", "20", "--k-max", "40"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = tailjoint.cli.main(argv + ["--input", str(path), "--out", tmp])
        assert code == 0, (argv, code)
print("after the commands:", *lazy_modules())

with tempfile.TemporaryDirectory() as tmp:
    tailjoint.emit_csv(
        tailjoint.sample_model(
            tailjoint.SimulationModel.gaussian_student(d=5, gamma=0.25), 500,
            tailjoint.rng_stream(1, 0),
        ),
        Path(tmp) / "draw.csv",
    )
print("after a draw at gamma 1/4:", *lazy_modules())

tailjoint.sample_model(
    tailjoint.SimulationModel.gaussian_student(d=2), 50, tailjoint.rng_stream(1, 0)
)
print("after a draw:", "scipy.special" in sys.modules, "scipy.optimize" in sys.modules)

tailjoint.MarginOracle("student", 0.25).true_expectile(0.99)
print("after expectile:", "scipy.optimize" in sys.modules)
"""


def test_analysis_path_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.splitlines()
    assert out == [
        "after import:",
        "after quadrature and power:",
        "after the commands: statistics",
        "after a draw at gamma 1/4: statistics",
        "after a draw: True False",
        "after expectile: True",
    ]
