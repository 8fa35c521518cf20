"""scripts/ladder.py on D(A4): the stages of `fsclass duality` past the
dense cap, timed in a child process that alone raises the cap."""
import os
import subprocess
import sys

import fsclass.algebra

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "ladder.py")


def test_ladder_runs_the_double_of_a4():
    proc = subprocess.run([sys.executable, SCRIPT, "A4"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, row = proc.stdout.splitlines()
    names, cells = header.split(" | "), row.split(" | ")
    assert len(names) == len(cells)
    got = dict(zip(names, cells))
    # 14 irreducibles; sum nu(V) dim V = Tr(S) = #{(g, h): h^2 = 1,
    # h g h = g^-1} = 16
    assert (got["instance"], got["n"], got["irreps"]) == ("D(A4)", "144", "14")
    assert got["sum nu dim V = Tr(S)"] == "16 = 16"
    assert got["duality"] == "agree"
    assert all(float(got[stage]) >= 0 for stage in names[3:-4])
    assert got["max RSS"].endswith(" MB")
    assert fsclass.algebra.DENSE_DIM_CAP == 128
