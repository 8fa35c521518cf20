import csv
import io
import json

import numpy as np

import fsclass.cli
from fsclass.cli import main

from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_verify_group(capsys):
    code, out, err = run(capsys, "verify", data_path("q8.json"),
                         "--kind", "group")
    assert code == 0
    assert "group axioms: ok" in out
    assert "C*-norm (positive trace form): ok" in out


def test_irreps_json(capsys):
    code, out, _ = run(capsys, "irreps", data_path("s3.json"),
                       "--kind", "group", "--format", "json")
    assert code == 0
    rows = json.loads(out)["irreps"]
    assert sorted(r["dim"] for r in rows) == [1, 1, 2]


def test_indicators_csv_q8(capsys):
    code, out, _ = run(capsys, "indicators", data_path("q8.json"),
                       "--kind", "group", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    sigmas = sorted(int(r["sigma"]) for r in rows)
    assert sigmas == [-1, 1, 1, 1, 1]
    types = sorted(r["type"] for r in rows)
    assert types.count("quaternionic") == 1


def test_indicators_scheme(capsys):
    code, out, _ = run(capsys, "indicators", data_path("c5_scheme.json"),
                       "--kind", "scheme", "--format", "json")
    assert code == 0
    rows = json.loads(out)["irreps"]
    assert all(r["sigma"] == 1 for r in rows)


def test_classify_witnesses(capsys):
    code, out, _ = run(capsys, "classify", data_path("q8.json"),
                       "--kind", "group", "--format", "json")
    assert code == 0
    rows = json.loads(out)["irreps"]
    quat = [r for r in rows if r["label"] == "quaternionic"]
    assert len(quat) == 1
    J = np.array([[a + 1j * b for a, b in row]
                  for row in quat[0]["quaternion_map"]])
    assert np.abs(J @ np.conj(J) + np.eye(2)).max() < 1e-7


def test_duality_agreement(capsys):
    code, out, _ = run(capsys, "duality", data_path("z3.json"),
                       "--kind", "group")
    assert code == 0
    assert out.strip() == "algebra/coalgebra indicators agree: 3/3"


def test_groupoid_and_double_kinds(capsys):
    code, out, _ = run(capsys, "indicators", data_path("pair3_groupoid.json"),
                       "--kind", "groupoid", "--format", "json")
    assert code == 0
    assert [r["sigma"] for r in json.loads(out)["irreps"]] == [1]
    code, out, _ = run(capsys, "indicators", data_path("z2.json"),
                       "--kind", "double", "--format", "json")
    assert code == 0
    assert [r["sigma"] for r in json.loads(out)["irreps"]] == [1, 1, 1, 1]


def test_broken_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad_group.json"
    with open(data_path("z2.json")) as fh:
        doc = json.load(fh)
    doc["table"] = [[0, 0], [1, 1]]
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(bad), "--kind", "group")
    assert code == 2
    msg = json.loads(err)
    assert msg["error"] == "BadGroup"


def test_unsupported_dual_exits_2(capsys):
    code, _, err = run(capsys, "indicators", data_path("m2_algebra.json"),
                       "--kind", "algebra")
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


def test_output_flag_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p, seed in ((p1, "0"), (p2, "0")):
        code = main(["indicators", data_path("s4.json"), "--kind", "group",
                     "--format", "json", "--seed", seed, "--output", str(p)])
        capsys.readouterr()
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_irreps_of_a_coalgebra_exits_2(capsys):
    code, out, err = run(capsys, "irreps", data_path("m2_coalgebra.json"),
                         "--kind", "coalgebra")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


CONTRACT_INPUTS = [("z3.json", "group"), ("z3.json", "double"),
                   ("c5_scheme.json", "scheme"),
                   ("pair2_groupoid.json", "groupoid"),
                   ("m2_algebra.json", "algebra"),
                   ("m2_coalgebra.json", "coalgebra")]


def test_every_command_and_kind_keeps_the_exit_code_contract(capsys):
    """Exit 0, 2 or 3, never an exception; a failure prints one JSON
    object with error and message to stderr."""
    for name, kind in CONTRACT_INPUTS:
        for command in ("verify", "irreps", "indicators", "classify",
                        "duality"):
            code, _, err = run(capsys, command, data_path(name),
                               "--kind", kind)
            assert code in (0, 2, 3), (command, kind)
            if code:
                msg = json.loads(err)
                assert isinstance(msg, dict)
                assert set(msg) == {"error", "message"}, (command, kind)


def test_scheme_decomposes_with_the_command_seed(capsys, monkeypatch):
    seeds = []
    decompose = fsclass.cli.decompose

    def recorded(V, seed=0, **kw):
        seeds.append(seed)
        return decompose(V, seed=seed, **kw)
    monkeypatch.setattr(fsclass.cli, "decompose", recorded)
    code, _, _ = run(capsys, "irreps", data_path("petersen_scheme.json"),
                     "--kind", "scheme", "--seed", "5")
    assert code == 0
    assert seeds == [5]
