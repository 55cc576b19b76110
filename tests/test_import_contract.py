"""scipy is imported on first use: simulating, fitting, forecasting and the diagnostics never load it.

Each check runs in a fresh interpreter, because this test process has long
since imported scipy through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvarkit import io as mio
from conftest import make_ref_params

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd) -> str:
    """Run ``code`` in a new interpreter importing mvarkit from ``src/``; return its stdout."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path, "SOURCE_DATE_EPOCH": "1700000000"}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_scipy_unloaded(tmp_path):
    out = run_fresh("import sys, mvarkit; print(sorted(m for m in sys.modules if m.startswith('scipy')))",
                    tmp_path)
    assert out.strip() == "[]"


def test_simulate_fit_acf_and_forecast_leave_scipy_unloaded(tmp_path):
    mio.save_model(tmp_path / "true.json", mio.ModelFile(params=make_ref_params(), provenance={}))
    code = """
import sys
from mvarkit.cli import main
runs = [
    ["simulate", "--model", "true.json", "--n", "300", "--seed", "3", "--out", "sim.csv"],
    ["fit", "--data", "sim.csv", "--components", "2", "--orders", "1,1", "--starts", "2",
     "--out", "fit.json"],
    ["acf", "--data", "sim.csv", "--max-lag", "3", "--out", "acf.csv"],
    ["forecast", "--model", "fit.json", "--data", "sim.csv", "--horizon", "2", "--out", "fc.json"],
    ["forecast", "--model", "fit.json", "--data", "sim.csv", "--horizon", "3", "--mc-paths", "200",
     "--out", "mc.json"],
]
for argv in runs:
    assert main(argv + ["--quiet"]) == 0, argv
    print(argv[0], "scipy" in sys.modules)
"""
    commands = ["simulate", "fit", "acf", "forecast", "forecast"]
    assert run_fresh(code, tmp_path).split() == [word for c in commands for word in (c, "False")]


def test_first_calls_bind_scipy_itself(tmp_path):
    """After one ``var_es`` and one ``mvp_weights`` the module globals are scipy's objects.

    The later calls then run the same bytecode as under a module-level import,
    and the first call's results equal the bound functions' results.
    """
    code = """
import numpy as np
import scipy.linalg.lapack
import scipy.special
from mvarkit import MixtureNormal1D, mvp_weights, portfolio, risk, var_es

mix = MixtureNormal1D(np.array([0.7, 0.3]), np.array([0.1, -0.4]), np.array([1.0, 2.5]), 1, 0)
mean, cov = np.array([0.1, 0.2, -0.1]), np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
assert risk.ndtr is not scipy.special.ndtr and portfolio.dpotrf is not scipy.linalg.lapack.dpotrf
first_risk, first_sol = var_es(mix, 0.95), mvp_weights(mean, cov)
assert risk.ndtr is scipy.special.ndtr and risk.ndtri is scipy.special.ndtri
assert portfolio.dpotrf is scipy.linalg.lapack.dpotrf and portfolio.dpotrs is scipy.linalg.lapack.dpotrs
assert var_es(mix, 0.95) == first_risk
assert np.array_equal(mvp_weights(mean, cov).weights, first_sol.weights)
print("ok")
"""
    assert run_fresh(code, tmp_path).strip() == "ok"


@pytest.mark.parametrize("module, first_call, source, names", [
    ("risk", "ndtr(0.5)", "scipy.special", ("ndtr", "ndtri")),
    ("risk", "ndtri(0.5)", "scipy.special", ("ndtr", "ndtri")),
    ("portfolio", "dpotrf(np.eye(2))", "scipy.linalg.lapack", ("dpotrf", "dpotrs")),
    ("portfolio", "dpotrs(np.eye(2), np.ones(2))", "scipy.linalg.lapack", ("dpotrf", "dpotrs")),
], ids=["ndtr", "ndtri", "dpotrf", "dpotrs"])
def test_each_stub_binds_both_names(tmp_path, module, first_call, source, names):
    """Whichever stub is called first, both of its module's names are scipy's afterwards."""
    code = f"""
import numpy as np
import {source}
from mvarkit import {module}
first = {module}.{first_call}
print(*[getattr({module}, name) is getattr({source}, name) for name in {names!r}])
"""
    assert run_fresh(code, tmp_path).split() == ["True", "True"]


def test_racing_first_calls_agree(tmp_path):
    """Threads that all make the first call at once get the results of the bound functions."""
    code = """
import sys
import threading
import numpy as np
from mvarkit import crps_mixture, MixtureNormal1D, mvp_weights

mix = MixtureNormal1D(np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.array([1.0, 0.5]), 1, 0)
mean, cov = np.array([0.1, 0.2]), np.array([[2.0, 0.3], [0.3, 1.0]])
n = 8
start, results = threading.Barrier(n), [None] * n

def work(i):
    start.wait(timeout=60)
    results[i] = (crps_mixture(mix, 0.3), tuple(mvp_weights(mean, cov).weights))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
expected = (crps_mixture(mix, 0.3), tuple(mvp_weights(mean, cov).weights))
assert results == [expected] * n, results
print("ok")
"""
    assert run_fresh(code, tmp_path).strip() == "ok"


def test_estimation_logsumexp_is_scipys():
    """The name the benchmark's tracer wraps still resolves, to scipy's function."""
    import scipy.special

    import mvarkit.estimation

    assert mvarkit.estimation.logsumexp is scipy.special.logsumexp
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mvarkit.estimation.no_such_name
