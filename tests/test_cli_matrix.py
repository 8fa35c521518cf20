"""scripts/cli_matrix.py compare: a changed witness is counted as equivalent
or other, and neither fails the compare."""
import importlib.util
import json
import os

import numpy as np
import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "cli_matrix.py")


@pytest.fixture
def cli_matrix(monkeypatch):
    # the script pins BLAS threads in os.environ on import; monkeypatch
    # puts the variables back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("cli_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cmat(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _classify(**witness):
    return [0, json.dumps({"irreps": [dict(index=0, dim=2, **witness)]}), ""]


def test_compare_sorts_changed_witnesses(cli_matrix, tmp_path, capsys):
    rng = np.random.default_rng(7)
    W = rng.standard_normal((2, 2, 2)) @ [1, 1j]
    J = np.array([[0, -1], [1, 0]], dtype=complex)
    phase = np.exp(0.7j)
    real = rng.standard_normal((2, 2))
    parent = {"real": _classify(real_basis=_cmat(W)),
              "quat": _classify(quaternion_map=_cmat(J)),
              "bad real": _classify(real_basis=_cmat(W)),
              "bad quat": _classify(quaternion_map=_cmat(J))}
    child = {"real": _classify(real_basis=_cmat(phase * W @ real)),
             "quat": _classify(quaternion_map=_cmat(phase * J)),
             "bad real": _classify(real_basis=_cmat(W + 1e-9j * real)),
             "bad quat": _classify(quaternion_map=_cmat(1.01 * phase * J))}
    paths = []
    for name, runs in (("a.json", parent), ("b.json", child)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(runs, fh)
    assert cli_matrix.compare(*paths) == 0
    out = capsys.readouterr().out
    assert "changed witnesses: 2 equivalent, 2 other" in out
    assert "witness changed (equivalent): real.irreps[0].real_basis" in out
    assert "witness changed (equivalent): quat.irreps[0].quaternion_map" in out
    assert "witness changed (other): bad real.irreps[0].real_basis" in out
    assert "witness changed (other): bad quat.irreps[0].quaternion_map" in out
    assert "FAIL" not in out
