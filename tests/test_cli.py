import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fsclass.cli
from fsclass import cyclic_group
from fsclass.cli import main

from conftest import count_centrality_kernels, data_path


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dense", [False, True])
def test_an_overflowing_algebra_exits_2_as_not_associative(
        tmp_path, capsys, dense):
    """e0 the unit, e1 e1 = 1e200 e2, e1 e2 = e2 e1 = 1e200 e1,
    e2 e2 = 1e200 e2, identity star; dense adds e1 to e2 e2.  The products
    overflow, so the associator is NaN, first at (e1 e1) e1, and the
    threshold max(1, max |c|)^2 n is inf: NaN fails the check."""
    def entry(i, j, k, v):
        return {"i": i, "j": j, "k": k, "re": v, "im": 0.0}
    structure = [entry(0, i, i, 1.0) for i in range(3)]
    structure += [entry(i, 0, i, 1.0) for i in (1, 2)]
    structure += [entry(1, 1, 2, 1e200), entry(1, 2, 1, 1e200),
                  entry(2, 1, 1, 1e200), entry(2, 2, 2, 1e200)]
    if dense:
        structure.append(entry(2, 2, 1, 1.0))
    path = tmp_path / "overflow_algebra.json"
    path.write_text(json.dumps({
        "dim": 3, "unit": [[1, 0], [0, 0], [0, 0]], "structure": structure,
        "star": [{"i": i, "k": i, "re": 1.0, "im": 0.0} for i in range(3)]}))
    code, out, err = run(capsys, "verify", str(path), "--kind", "algebra")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "NotAssociative",
        "message": "(e1 e1) e1 != e1 (e1 e1) (residual nan, threshold inf)"}


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


def test_a_declared_dim_past_the_dense_cap_exits_2(tmp_path, capsys):
    """The loaders refuse the dim before allocating an n^3 array: exit 2
    with the cap message FDStarAlgebra gives, not a MemoryError.  The
    unit or counit has the declared length, so only the size is wrong."""
    n = 100000
    fields = {"algebra": ("unit", "structure"), "coalgebra": ("counit", "Delta")}
    for kind, (vector, tensor) in fields.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"dim": n, vector: [[0, 0]] * n,
                                    tensor: [], "star": []}))
        code, out, err = run(capsys, "verify", str(path), "--kind", kind)
        assert code == 2, kind
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "dimension 100000 exceeds the dense cap 128"}


def test_group_and_double_orders_past_the_dense_cap_exit_2_before_allocating(
        tmp_path, capsys):
    """The order (group) or the order squared (double) is checked against
    the cap right after loading, before the group table is validated, so
    neither the order^3 associativity check nor D(G)'s structure tensor is
    allocated."""
    for order, kind, dim in [(12, "double", 144), (200, "group", 200)]:
        G = cyclic_group(order)
        path = tmp_path / f"z{order}.json"
        path.write_text(json.dumps({"order": order, "table": G.table.tolist(),
                                    "inverse": G.inverse.tolist()}))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code, out, err = run(capsys, "verify", str(path), "--kind", kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, kind
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"dimension {dim} exceeds the dense cap 128"}
        assert peak - base < 10 * 2**20, (kind, peak - base)


def _count_calls(monkeypatch, name: str) -> list:
    """Wraps `name` in every fsclass module that imports it; the returned
    list gets one entry per call."""
    calls = []
    fn = getattr(fsclass, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("fsclass") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_duality_on_a_double_builds_each_derived_quantity_once(
        capsys, monkeypatch):
    counts = {name: _count_calls(monkeypatch, name)
              for name in ("check_cstar", "decompose",
                           "separability_idempotent")}
    code, _, _ = run(capsys, "duality", data_path("s3.json"), "--kind", "double")
    assert code == 0
    assert {name: len(c) for name, c in counts.items()} == {
        "check_cstar": 1, "decompose": 1, "separability_idempotent": 1}


@pytest.mark.parametrize("name, kind", [("s3.json", "double"),
                                        ("q8.json", "group"),
                                        ("petersen_scheme.json", "scheme"),
                                        ("pair3_groupoid.json", "groupoid")])
def test_duality_builds_one_separability_idempotent(capsys, monkeypatch, name,
                                                     kind):
    """The report's E is the coseparability idempotent of the dual
    coalgebra: one `duality` builds one E, and compact_decompose verifies
    that same array."""
    built = _count_calls(monkeypatch, "separability_idempotent")
    decs = []
    compact_decompose = fsclass.cli.compact_decompose
    monkeypatch.setattr(fsclass.cli, "compact_decompose",
                        lambda *a, **k: decs.append(compact_decompose(*a, **k))
                        or decs[-1])
    code, _, _ = run(capsys, "duality", data_path(name), "--kind", kind)
    assert code == 0
    assert len(built) == len(decs) == 1
    E = decs[0].E
    assert E.matrix is E.coalgebra.algebra.separability_idempotent.tensor


@pytest.mark.parametrize("name, kind", [("s4.json", "group"),
                                        ("petersen_scheme.json", "scheme"),
                                        ("pair3_groupoid.json", "groupoid"),
                                        ("s3.json", "double")])
def test_each_command_evaluates_the_centrality_identity_at_most_once(
        capsys, monkeypatch, name, kind):
    """verify, irreps and classify build no E; indicators and duality build
    the kept one and run the centrality kernel once, which the
    coseparability check of duality reads instead of running it again."""
    built, kernels = count_centrality_kernels(monkeypatch)
    counts = {}
    for command in ("verify", "irreps", "classify", "indicators", "duality"):
        code, _, _ = run(capsys, command, data_path(name), "--kind", kind)
        assert code == 0
        counts[command] = (len(built), len(kernels))
        built.clear()
        kernels.clear()
    assert counts == {"verify": (0, 0), "irreps": (0, 0), "classify": (0, 0),
                      "indicators": (1, 1), "duality": (1, 1)}


def test_duality_exits_2_on_a_corrupted_part_or_e(capsys, monkeypatch):
    """A part scaled by 1.1 keeps the star axiom but is no corepresentation;
    a copy of the kept E off by 1e-3 in one entry fails the coseparability
    check.  Both make duality exit 2 and name the failed check."""
    from fsclass import Representation
    from fsclass.coalgebra import CoseparabilityIdempotent
    compact_decompose = fsclass.cli.compact_decompose

    def scaled_first_part(C, parts):
        (V, m), *rest = parts
        bad = Representation(V.algebra, 1.1 * V.rho, V.gram, check=False)
        return compact_decompose(C, parts=[(bad, m)] + rest)
    monkeypatch.setattr(fsclass.cli, "compact_decompose", scaled_first_part)
    code, out, err = run(capsys, "duality", data_path("s3.json"),
                         "--kind", "double")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "AxiomViolation",
                               "message": "Delta(c_ij) != sum_k c_ik (x) c_kj "
                               "(residual 1.100e-01, threshold 1.210e-08)"}
    monkeypatch.setattr(fsclass.cli, "compact_decompose", compact_decompose)

    class OffByOne(CoseparabilityIdempotent):
        def __init__(self, C, matrix):
            super().__init__(C, matrix.copy())
            self.matrix[0, 1] += 1e-3
    monkeypatch.setattr(fsclass.coalgebra, "CoseparabilityIdempotent", OffByOne)
    code, out, err = run(capsys, "duality", data_path("s3.json"),
                         "--kind", "double")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "AxiomViolation",
                               "message": "E(c_(1), c_(2)) != eps(c) "
                               "(residual 1.000e-03, threshold 1.000e-06)"}


def test_duality_on_a_scheme_computes_the_trace_form_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "check_cstar")
    code, _, _ = run(capsys, "duality", data_path("petersen_scheme.json"),
                     "--kind", "scheme")
    assert code == 0
    assert len(calls) == 1


def test_verify_on_a_scheme_decomposes_nothing(capsys, monkeypatch):
    """A table algebra's canonical g is the unit, since S(b_i) = b_{i*}
    squares to the identity, so building the scheme's dual structure needs
    no decomposition."""
    calls = _count_calls(monkeypatch, "decompose")
    for name in ("petersen_scheme.json", "c5_scheme.json"):
        code, out, _ = run(capsys, "verify", data_path(name), "--kind", "scheme")
        assert code == 0
        assert "dual structure (S, g): ok" in out
    assert calls == []


def test_non_list_containers_and_non_integer_indices_exit_2(tmp_path, capsys):
    """Containers that are not lists and indices or table entries that are
    not JSON integers (strings, floats, bools) are schema errors, not Python
    exceptions or silent truncations."""
    docs = {}
    for kind, name in (("groupoid", "pair2_groupoid"), ("scheme", "c5_scheme"),
                       ("group", "z3")):
        with open(data_path(name + ".json")) as fh:
            docs[kind] = json.load(fh)
    groupoid, scheme, group = docs["groupoid"], docs["scheme"], docs["group"]
    cases = [("groupoid", {**groupoid, "arrows": {"src": 0, "tgt": 0}}),
             ("groupoid", {**groupoid, "compose": 3}),
             ("scheme", {**scheme, "matrices": 5}),
             ("scheme", {**scheme, "matrices": [[[0.5]]] * 3}),
             ("group", {**group, "table": [[0.5] * 3] * 3}),
             ("group", {**group, "inverse": ["0", "2", "1"]})]
    for bad in ("0", 0.5, True):
        arrows = [dict(a) for a in groupoid["arrows"]]
        arrows[0]["src"] = bad
        cases.append(("groupoid", {**groupoid, "arrows": arrows}))
        compose = [dict(t) for t in groupoid["compose"]]
        compose[0]["ab"] = bad
        cases.append(("groupoid", {**groupoid, "compose": compose}))
    for idx, (kind, doc) in enumerate(cases):
        path = tmp_path / f"{idx}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "--kind", kind)
        assert code == 2, (idx, err)
        assert out == ""
        assert json.loads(err)["error"] == "SchemaError", (idx, err)


def test_non_numbers_and_non_finite_values_exit_2(tmp_path, capsys):
    """Every number a loader reads (unit, counit, the re/im of a structure,
    star or Delta entry, a scheme's p) must be a finite JSON integer or
    float: objects, lists, strings, bools, NaN and infinities are schema
    errors, not TypeErrors, bare ValueErrors or silent conversions.  A
    count (dim, order, classes, objects) must not be a bool either."""
    docs = {}
    for name in ("m2_algebra", "m2_coalgebra"):
        with open(data_path(name + ".json")) as fh:
            docs[name] = json.load(fh)
    algebra, coalgebra = docs["m2_algebra"], docs["m2_coalgebra"]
    scheme = {"classes": 1, "p": [[[1]]]}
    controls = [("algebra", algebra), ("coalgebra", coalgebra),
                ("scheme", scheme),
                ("group", {"order": 1, "table": [[0]], "inverse": [0]}),
                ("groupoid", {"objects": 1, "arrows": [{"src": 0, "tgt": 0}],
                              "compose": [{"a": 0, "b": 0, "ab": 0}]})]
    bad_values = [{}, [1], "x", "1", True, float("nan"), float("inf"),
                  -float("inf"), 10 ** 400]
    cases = [("scheme", {"classes": 1, "p": {"a": 1}}),
             ("scheme", {"classes": True, "p": [[[1]]]}),
             ("group", {"order": True, "table": [[0]], "inverse": [0]}),
             ("groupoid", {"objects": True, "arrows": [{"src": 0, "tgt": 0}],
                           "compose": [{"a": 0, "b": 0, "ab": 0}]})]
    for bad in bad_values:
        cases.append(("scheme", {"classes": 1, "p": [[[bad]]]}))
        for kind, doc, vector, entries in (
                ("algebra", algebra, "unit", "structure"),
                ("algebra", algebra, "unit", "star"),
                ("coalgebra", coalgebra, "counit", "Delta")):
            vec = [list(pair) for pair in doc[vector]]
            vec[0][0] = bad
            cases.append((kind, {**doc, vector: vec}))
            for field in ("re", "im"):
                ents = [dict(e) for e in doc[entries]]
                ents[0][field] = bad
                cases.append((kind, {**doc, entries: ents}))
    for idx, (kind, doc) in enumerate(controls + cases):
        path = tmp_path / f"{idx}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "--kind", kind)
        if idx < len(controls):
            assert code == 0, (idx, err)
            continue
        assert code == 2, (idx, err)
        assert out == ""
        assert json.loads(err)["error"] == "SchemaError", (idx, err)


def test_importing_fsclass_and_its_cli_loads_no_scipy():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    code = ("import sys, fsclass, fsclass.cli; print(fsclass.__file__); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith(src)
    assert out[1] == "[]"
