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
from fsclass import (FDStarAlgebra, TableAlgebraData, cyclic_group,
                     group_from_permutations)
from fsclass import io as fio
from fsclass.cli import main

from conftest import (TOL, check_text, count_centrality_kernels, data_path,
                      load_group, s4_on_twelve_points, thin_scheme)


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


def test_csv_is_refused_where_no_command_writes_it(capsys):
    """Only irreps and indicators write csv: verify, classify and duality
    refuse it with exit 2 before the input is read, so a missing file says
    the same, and indicators writes its report's csv as before."""
    for command in ("verify", "classify", "duality"):
        for name in ("petersen_scheme.json", "missing.json"):
            code, out, err = run(capsys, command, data_path(name),
                                 "--kind", "scheme", "--format", "csv")
            assert (code, out, err.count("\n")) == (2, "", 1)
            assert json.loads(err) == {
                "error": "SchemaError", "message": f"{command} writes json "
                "or text; only irreps and indicators write csv"}
    code, out, _ = run(capsys, "indicators", data_path("q8.json"),
                       "--kind", "group", "--format", "csv")
    report = fsclass.cli.Run("group", data_path("q8.json"), TOL, 0).report
    assert (code, out) == (0, report.to_csv())


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


def test_a_duality_disagreement_exits_3(capsys, monkeypatch):
    # flipping one coalgebra indicator reaches the AgreementFailure handler
    corep = fsclass.cli.corep_indicators

    def flipped(*args):
        values = list(corep(*args))
        values[-1] = -values[-1]
        return values
    monkeypatch.setattr(fsclass.cli, "corep_indicators", flipped)
    code, out, err = run(capsys, "duality", data_path("z3.json"),
                         "--kind", "group")
    assert (code, out) == (3, "")
    report = json.loads(err)
    assert report["error"] == "AgreementFailure"
    assert report["message"].startswith(
        "algebra/coalgebra indicators agree on 2/3 irreducibles")
    assert report["message"].endswith(
        "(residual 2.000e+00, threshold 1.000e-06)")


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


@pytest.mark.parametrize("inverse", [[0, 2], [0, -1]])
@pytest.mark.parametrize("kind", ["group", "double"])
def test_an_out_of_range_group_inverse_exits_2(tmp_path, capsys, inverse,
                                               kind):
    """An inverse past the order is not an IndexError, and a negative one
    is not read from the end by numpy indexing."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]],
                                "inverse": inverse}))
    code, out, err = run(capsys, "verify", str(path), "--kind", kind)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "BadGroup",
                               "message": "inverse entries out of range"}


def test_commands_never_read_the_left_stack(capsys, monkeypatch):
    """The regular representation runs on its algebra's kernels: no irreps,
    indicators, classify or duality command forms the stack of L(e_i), on
    monomial or dense inputs.  M2 as a bare algebra has no dual structure,
    so only irreps decomposes it."""
    calls = []
    left_stack = FDStarAlgebra.left_stack

    def counted(self):
        calls.append(self.dim)
        return left_stack(self)
    monkeypatch.setattr(FDStarAlgebra, "left_stack", counted)
    decomposed = _count_calls(monkeypatch, "decompose")
    inputs = [("s3.json", "double"), ("q8.json", "group"),
              ("petersen_scheme.json", "scheme"),
              ("m2_algebra.json", "algebra")]
    for name, kind in inputs:
        for command in ("irreps", "indicators", "classify", "duality"):
            code, _, _ = run(capsys, command, data_path(name), "--kind", kind)
            want = 2 if kind == "algebra" and command != "irreps" else 0
            assert code == want, (name, command)
    assert len(decomposed) == 13
    assert calls == []


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


def _overflow_algebra(tmp_path, dense: bool) -> str:
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
    return str(path)


OVERFLOW_ERROR = {
    "error": "NotAssociative",
    "message": "(e1 e1) e1 != e1 (e1 e1) (residual nan, threshold inf)"}


@pytest.mark.parametrize("dense", [False, True])
def test_an_overflowing_algebra_exits_2_as_not_associative(
        tmp_path, capsys, dense):
    """`_overflow_algebra`; the overflow raises no numpy warning, which
    pytest would turn into an error."""
    code, out, err = run(capsys, "verify", _overflow_algebra(tmp_path, dense),
                         "--kind", "algebra")
    assert (code, out) == (2, "")
    assert json.loads(err) == OVERFLOW_ERROR


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _cli_process(*argv) -> subprocess.CompletedProcess:
    """`python -m fsclass argv` in a new process, on this checkout's src."""
    return subprocess.run([sys.executable, "-m", "fsclass", *argv],
                          env=_src_env(), capture_output=True, text=True)


def test_python_m_fsclass_runs_the_cli():
    proc = _cli_process("verify", data_path("z3.json"), "--kind", "group")
    assert (proc.returncode, proc.stderr) == (0, "")


# one command per kind, csv output once: run after the imports a forked
# benchmark command starts from, none may import a module
IMPORT_FREE_COMMANDS = [
    ("duality", "s3.json", "group"), ("duality", "c5_scheme.json", "scheme"),
    ("duality", "pair3_groupoid.json", "groupoid"),
    ("duality", "z3.json", "double"), ("irreps", "m2_algebra.json", "algebra"),
    ("verify", "m2_coalgebra.json", "coalgebra"),
    ("indicators", "q8.json", "group", "--format", "csv")]


@pytest.mark.parametrize("command", IMPORT_FREE_COMMANDS,
                         ids=lambda c: " ".join(c))
def test_a_command_imports_no_module(command, tmp_path):
    """A lazy import inside a command is paid by every forked command: the
    first `np.unique` of a process imports `numpy.ma` on numpy 2.4, 9-14 ms
    each time, about a whole small command."""
    name, path, kind, *rest = command
    script = ("import json, sys, fsclass, numpy.random, fsclass.cli\n"
              "before = set(sys.modules)\n"
              "code = fsclass.cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(set(sys.modules) - before)]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, name, data_path(path), "--kind", kind,
         *rest, "--output", str(tmp_path / "out")],
        env=_src_env(), capture_output=True, text=True)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, []]


def test_an_overflowing_algebra_writes_one_json_line_to_stderr(tmp_path):
    """In a real process, where numpy's warnings reach stderr, the whole of
    stderr is the one JSON error line."""
    proc = _cli_process("verify", _overflow_algebra(tmp_path, False),
                        "--kind", "algebra")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == OVERFLOW_ERROR


def test_an_unwritable_output_exits_2_naming_the_path(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "indicators", data_path("q8.json"),
                         "--kind", "group", "--output", str(missing))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "FileNotFoundError",
        "message": f"cannot write {missing}: No such file or directory"}


@pytest.mark.parametrize("first", [True, False])
def test_a_groupoid_pair_given_twice_exits_2(tmp_path, capsys, first):
    """A bogus composite of (0, 0), before or after the true one, is
    refused whichever entry comes first."""
    with open(data_path("pair2_groupoid.json")) as fh:
        doc = json.load(fh)
    bogus = {"a": 0, "b": 0, "ab": 3}
    doc["compose"].insert(0 if first else len(doc["compose"]), bogus)
    path = tmp_path / "repeated_groupoid.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "indicators", str(path), "--kind", "groupoid")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "BadGroupoid", "message":
                               "composite of (0, 0) is given twice"}


def test_a_groupoid_index_out_of_range_exits_2(tmp_path, capsys):
    """The loader reads arrow ends and composites as JSON integers; their
    ranges are checked once, by `GroupoidData.validated`, so an arrow end
    past the last object or below 0, or a composite that names no arrow,
    exits 2 with a `BadGroupoid` naming the arrow or the triple."""
    with open(data_path("pair2_groupoid.json")) as fh:
        doc = json.load(fh)
    cases = [("arrows", 2, "tgt", 2, "arrow 2 has an end outside 0..1"),
             ("arrows", 0, "src", -1, "arrow 0 has an end outside 0..1"),
             ("compose", 1, "ab", 4,
              "triple (0, 1, 4) names an arrow outside 0..3"),
             ("compose", 2, "a", -3,
              "triple (-3, 2, 0) names an arrow outside 0..3")]
    for idx, (field, at, key, value, message) in enumerate(cases):
        entries = [dict(e) for e in doc[field]]
        entries[at][key] = value
        path = tmp_path / f"{idx}.json"
        path.write_text(json.dumps({**doc, field: entries}))
        code, out, err = run(capsys, "verify", str(path), "--kind", "groupoid")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "BadGroupoid", "message": message}


def test_a_groupoid_with_more_objects_than_arrows_exits_2(tmp_path, capsys):
    """An object count past the arrow count, 10**400 included, is refused
    as a groupoid with an object that has no identity arrow; numpy's
    "Maximum allowed dimension exceeded" no longer escapes."""
    with open(data_path("pair2_groupoid.json")) as fh:
        doc = json.load(fh)
    for objects in (5, 10**400):
        path = tmp_path / "objects.json"
        path.write_text(json.dumps({**doc, "objects": objects}))
        code, out, err = run(capsys, "verify", str(path), "--kind", "groupoid")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "BadGroupoid", "message":
                                   "some object has no identity arrow"}


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


def test_loaders_apply_the_dense_cap_before_validating(tmp_path, capsys,
                                                      monkeypatch):
    """A groupoid with more arrows, or a scheme with more classes, than the
    cap is refused by its loader, with the message FDStarAlgebra gives,
    before the O(n^3) validators run."""
    def never(*args):
        raise AssertionError("a validator ran past the dense cap")
    monkeypatch.setattr(fsclass.cli.GroupoidData, "validated", never)
    monkeypatch.setattr(fsclass.cli.TableAlgebraData, "validated", never)
    monkeypatch.setattr(fsclass.cli, "scheme_from_matrices", never)
    m = 14                                   # the pair groupoid: m^2 arrows
    groupoid = {"objects": m,
                "arrows": [{"src": j, "tgt": i}
                           for i in range(m) for j in range(m)],
                "compose": [{"a": i * m + j, "b": j * m + k, "ab": i * m + k}
                            for i in range(m) for j in range(m)
                            for k in range(m)]}
    scheme = {"classes": 129, "matrices": [[[0]]] * 129}
    for kind, doc, dim in [("groupoid", groupoid, 196),
                           ("scheme", scheme, 129)]:
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "--kind", kind)
        assert (code, out) == (2, ""), kind
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"dimension {dim} exceeds the dense cap 128"}


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
    assert E.idempotent is E.coalgebra.algebra.separability_idempotent
    assert E.matrix is E.idempotent.tensor


@pytest.mark.parametrize("name, kind", [("s4.json", "group"),
                                        ("petersen_scheme.json", "scheme"),
                                        ("pair3_groupoid.json", "groupoid"),
                                        ("s3.json", "double")])
def test_each_command_evaluates_the_centrality_identity_at_most_once(
        capsys, monkeypatch, name, kind):
    """verify builds E only for weak Hopf data, whose Haar integral is
    read off it, once; irreps, classify, indicators and duality build the
    kept E and run the centrality kernel once: `decompose` reads its
    central element and pairing off it, the coseparability check of duality
    reads it instead of running the kernel again, and each Hom(V, D(V)) of
    classify and indicators is read with its average."""
    built, kernels = count_centrality_kernels(monkeypatch)
    counts = {}
    for command in ("verify", "irreps", "classify", "indicators", "duality"):
        code, _, _ = run(capsys, command, data_path(name), "--kind", kind)
        assert code == 0
        counts[command] = (len(built), len(kernels))
        built.clear()
        kernels.clear()
    verify = (1, 1) if kind in ("groupoid", "double") else (0, 0)
    assert counts == {"verify": verify, "irreps": (1, 1), "classify": (1, 1),
                      "indicators": (1, 1), "duality": (1, 1)}


def test_duality_exits_2_on_a_corrupted_part_or_e(capsys, monkeypatch):
    """A part scaled by 1.1 keeps the star axiom but is no homomorphism, so
    no corepresentation: building it fails its check; a copy of the kept E
    off by 1e-3 in one entry fails the coseparability check.  Both make
    duality exit 2 and name the failed check."""
    from fsclass import Representation, SeparabilityIdempotent
    from fsclass.coalgebra import CoseparabilityIdempotent
    compact_decompose = fsclass.cli.compact_decompose

    def scaled_first_part(C, parts):
        (V, m), *rest = parts
        bad = Representation(V.algebra, 1.1 * V.rho, V.gram)
        return compact_decompose(C, parts=[(bad, m)] + rest)
    monkeypatch.setattr(fsclass.cli, "compact_decompose", scaled_first_part)
    code, out, err = run(capsys, "duality", data_path("s3.json"),
                         "--kind", "double")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "NotStarRep",
                               "message": "rho(e_i e_j) != rho(e_i) rho(e_j) "
                               "(residual 1.100e-01, threshold 1.210e-08)"}
    monkeypatch.setattr(fsclass.cli, "compact_decompose", compact_decompose)

    class OffByOne(CoseparabilityIdempotent):
        def __init__(self, C, idempotent):
            tensor = idempotent.tensor.copy()
            tensor[0, 1] += 1e-3
            super().__init__(C, SeparabilityIdempotent(idempotent.algebra,
                                                       tensor))
    monkeypatch.setattr(fsclass.coalgebra, "CoseparabilityIdempotent", OffByOne)
    code, out, err = run(capsys, "duality", data_path("s3.json"),
                         "--kind", "double")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "AxiomViolation",
                               "message": "E(c_(1), c_(2)) != eps(c) "
                               "(residual 1.000e-03, threshold 1.000e-06)"}


def test_a_part_off_by_1e_7_exits_2_on_every_command_that_decomposes(
        capsys, monkeypatch):
    """One entry of one part's rho(e_5), off by 1e-7, passes the character
    pairings that accept the split, but not the part's check, which
    decompose runs where it builds the part: irreps, indicators, classify
    and duality exit 2 with NotStarRep."""
    from fsclass.reps import RegularRepresentation
    compressed = RegularRepresentation.compressed

    def corrupted(V, P, B):
        rho = compressed(V, P, B)
        if rho.shape[1] == 2:
            rho[5, 0, 1] += 1e-7
        return rho
    monkeypatch.setattr(RegularRepresentation, "compressed", corrupted)
    for command in ("irreps", "indicators", "classify", "duality"):
        code, out, err = run(capsys, command, data_path("s3.json"),
                             "--kind", "double")
        assert (code, out) == (2, ""), command
        err = json.loads(err)
        assert err["error"] == "NotStarRep", command
        assert err["message"].startswith("rho(e_i e_j) != rho(e_i) rho(e_j) "
                                         "(residual 1.0"), command


def _z_p(n: int) -> np.ndarray:
    """C[Z_n] as intersection numbers: p[i, j, (i + j) % n] = 1."""
    p = np.zeros((n, n, n))
    i, j = np.divmod(np.arange(n * n), n)
    p[i, j, (i + j) % n] = 1.0
    return p


def _verify_p(capsys, tmp_path, p) -> tuple[int, str, str]:
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"classes": len(p), "p": p.tolist()}))
    return run(capsys, "verify", str(path), "--kind", "scheme")


@pytest.mark.parametrize("at, value, text", [
    ((1, 1, 1), -0.5, "negative structure constant"),
    ((0, 1, 2), 0.5, "b_0 is not the identity"),
    ((1, 2, 0), 5e-10, "p_(i i*)^0 must be positive, i = 1"),
    ((1, 2, 0), 0.0, "p_(i i*)^0 must be positive, i = 1"),
    ((1, 1, 0), 0.5, "coefficient of b_0 in b_i b_j must vanish unless "
     "j = i*"),
    (([2, 2], [1, 2], [0, 0]), [0.0, 1.0],
     "basis involution is not a permutation"),
    ((1, 2, 0), 2.0, "p_(i i*)^0 != p_(i* i)^0, i = 1")])
def test_verify_refuses_a_corrupted_table(capsys, tmp_path, at, value, text):
    """C[Z3] as a `--kind scheme` file of intersection numbers p, with
    entries at `at` corrupted: verify exits 2 and names the table algebra
    axiom that fails.  The involution is read off p, so a row of b_0
    coefficients with none above the threshold, or several, fails the
    check of its own, and a b_0 moved within row 2 leaves 2* = 2 beside
    1* = 2.  p_(1 2)^0 = 2 beside p_(2 1)^0 = 1 is refused before any
    algebra is built: the b_0 coefficient is then no symmetric trace, the
    premise of the central element v.  The clean file verifies."""
    p = _z_p(3)
    for q, want in ((p, None), (p.copy(), text)):
        if want:
            q[at] = value
        code, out, err = _verify_p(capsys, tmp_path, q)
        if want is None:
            assert code == 0 and "table algebra axioms: ok" in out
            continue
        assert (code, out) == (2, "")
        err = json.loads(err)
        assert err["error"] == "AxiomViolation"
        got = err["message"]      # structural checks carry no residual
        assert (check_text(got) if " (residual " in got else got) == text


def _write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _scheme_file(tmp_path, name: str, mats) -> str:
    return _write(tmp_path, name, {"classes": len(mats),
                                   "matrices": [m.tolist() for m in mats]})


def _irreducibles(capsys, path: str, kind: str) -> list[dict]:
    code, out, err = run(capsys, "indicators", path, "--kind", kind,
                         "--format", "json")
    assert code == 0, err
    return [{k: v for k, v in row.items() if k != "nu_formula_raw"}
            for row in json.loads(out)["irreps"]]


def test_thin_schemes_answer_as_their_groups(capsys, tmp_path):
    """G acting on itself, written as `--kind scheme` adjacency matrices,
    has the table algebra C[G] on the basis of group elements: its
    irreducibles, in the same order, have the dims, multiplicities, nu
    and sigma of `--kind group` on G.  Z3 and A4 reach sigma = 0 and Q8
    sigma = -1 on the table path."""
    sigmas = set()
    a4 = group_from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]])
    for name, G in (("z3", load_group("z3")), ("s3", load_group("s3")),
                    ("q8", load_group("q8")), ("a4", a4)):
        group = _write(tmp_path, f"{name}.json", {
            "order": G.order, "table": G.table.tolist(),
            "inverse": G.inverse.tolist()})
        scheme = _scheme_file(tmp_path, f"{name}_thin.json", thin_scheme(G))
        rows = _irreducibles(capsys, scheme, "scheme")
        assert rows == _irreducibles(capsys, group, "group"), name
        sigmas |= {row["sigma"] for row in rows}
    assert a4.order == 12 and sigmas == {1, 0, -1}


def test_s4_on_twelve_points_has_a_two_dim_irreducible(capsys, tmp_path):
    """S4 on the cosets of <(01)>: a rank-7 non-commutative scheme whose
    irreducibles have dims 1, 1, 1 and 2."""
    mats = s4_on_twelve_points()
    rows = _irreducibles(capsys, _scheme_file(tmp_path, "s4_12.json", mats),
                         "scheme")
    assert len(mats) == 7
    assert sorted(row["dim"] for row in rows) == [1, 1, 1, 2]


def test_an_empty_scheme_class_exits_2(capsys, tmp_path):
    """An all-zero adjacency matrix is an empty class: verify exits 2 with
    an `AxiomViolation` naming it, where the counts raised IndexError."""
    mats = list(fio.load_scheme_v1(data_path("c5_scheme.json"))["matrices"])
    path = _scheme_file(tmp_path, "empty.json",
                        mats + [np.zeros_like(mats[0])])
    code, out, err = run(capsys, "verify", path, "--kind", "scheme")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "AxiomViolation",
                               "message": "class 3 is empty"}


def test_verify_refuses_a_table_involution_of_order_three(capsys, tmp_path):
    """C[Z4] with b_0 moved so that 1* = 2, 2* = 3 and 3* = 1: a
    permutation, but no involution."""
    p = _z_p(4)
    p[[1, 1, 2, 2], [3, 2, 2, 3], 0] = [0.0, 1.0, 0.0, 1.0]
    code, out, err = _verify_p(capsys, tmp_path, p)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "AxiomViolation",
        "message": "basis involution does not square to identity"}


def test_verify_reads_the_involution_within_the_axiom_threshold(
        capsys, tmp_path):
    """b_0 coefficients off the involution up to `TableAlgebraData.EPS`
    (1e-9) are within the axiom's threshold, so the involution read off p
    ignores them, and the file verifies as the library accepts its p."""
    p = _z_p(3)
    p[1, 1, 0] = p[2, 2, 0] = 5e-10
    code, out, _ = _verify_p(capsys, tmp_path, p)
    assert code == 0 and "table algebra axioms: ok" in out
    assert list(TableAlgebraData.validated(p).involution) == [0, 2, 1]


def test_each_command_factors_the_trace_form_once(capsys, monkeypatch):
    """The algebra keeps the orthonormal basis of its trace form, which
    the split of `decompose` and E read (and the central element and the
    pairing of `decompose` only through E), and a part of the
    decomposition, whose gram is the identity, keeps that as its basis:
    the 36 x 36 trace-form Gram of D(S3) is the one gram each command
    factors."""
    factored, cholesky = [], np.linalg.cholesky

    def counted(a):
        factored.append(a.shape)
        return cholesky(a)
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    counts = {}
    for command in ("indicators", "duality", "classify", "irreps"):
        code, _, _ = run(capsys, command, data_path("s3.json"),
                         "--kind", "double")
        assert code == 0
        counts[command] = list(factored)
        factored.clear()
    assert counts == {command: [(36, 36)] for command in
                      ("indicators", "duality", "classify", "irreps")}


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
    code = ("import sys, fsclass, fsclass.cli; print(fsclass.__file__); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out[0].startswith(SRC)
    assert out[1] == "[]"


PRELOADED_RUNS = """
import argparse, contextlib, io, json, sys
import fsclass
loaded = {m for m in sys.modules if m.split(".")[0] == "fsclass"}
from fsclass import cli
parsers = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    parsers.append(args)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
codes = []
for command in ("verify", "irreps", "indicators", "classify", "duality"):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([command, sys.argv[1], "--kind", "group"]))
added = {m for m in sys.modules if m.split(".")[0] == "fsclass"} - loaded
print(json.dumps({"preloaded": sorted({"fsclass.cli", "fsclass.io"} & loaded),
                  "codes": codes, "added": sorted(added),
                  "parsers": len(parsers)}))
"""


def test_import_fsclass_preloads_the_command_path():
    """After `import fsclass` a command imports no fsclass module and
    builds no argument parser: each of the five runs only its own work."""
    out = subprocess.run([sys.executable, "-c", PRELOADED_RUNS,
                          data_path("s3.json")], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {"preloaded": ["fsclass.cli", "fsclass.io"],
                               "codes": [0] * 5, "added": [], "parsers": 0}


TRACED_RUNS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, patch_cli
from fsclass import cli

def run_all():
    out = []
    for argv in json.loads(sys.argv[2]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append([code, buf.getvalue()])
    return out

plain = run_all()
tracer = Tracer(0, memory=False)
patch_cli(tracer)
traced = run_all()
print(json.dumps({"plain": plain, "traced": traced,
                  "spans": sorted({s["name"] for s in tracer.spans})}))
"""


def test_perfbench_trace_mode_leaves_the_cli_output_unchanged():
    """perfbench's trace mode replaces each library name cli.py imports,
    FDStarCoalgebra included, with a plain wrapper function, so the CLI
    must call every such name as a plain call.  Run in a subprocess, since
    the patch is process-wide: traced commands exit and print exactly as
    untraced ones, and construction is recorded as a span."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    argvs = [["verify", data_path("m2_coalgebra.json"), "--kind", "coalgebra"],
             ["duality", data_path("s3.json"), "--kind", "double"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, os.path.join(root, "perfbench"),
         json.dumps(argvs)], env=env, check=True, capture_output=True,
        text=True)
    got = json.loads(proc.stdout)
    assert [code for code, _ in got["plain"]] == [0, 0]
    assert got["traced"] == got["plain"]
    assert "constructors.build" in got["spans"]


MONOMIAL_RUNS = """
import contextlib, io, json, sys
from fsclass import algebra, cli

built = []
dense = algebra.FDStarAlgebra.structure.func
algebra.FDStarAlgebra.structure.func = lambda A: built.append(A.dim) or dense(A)
codes = []
for path, kind in json.loads(sys.argv[1]):
    for command in ("verify", "indicators", "classify", "duality"):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([command, path, "--kind", kind]))
print(json.dumps({"codes": codes, "built": built,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_monomial_commands_read_the_index_table_only():
    """verify, indicators, classify and duality on D(S3), then on C[Q8]
    and a groupoid, in one new process: no algebra, and no dual algebra of
    a coalgebra, builds its dense n^3 tensor, and numpy.ma, whose first
    import costs more than these kernels, is never imported."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    inputs = [(data_path("s3.json"), "double"), (data_path("q8.json"), "group"),
              (data_path("pair3_groupoid.json"), "groupoid")]
    proc = subprocess.run(
        [sys.executable, "-c", MONOMIAL_RUNS, json.dumps(inputs)], env=env,
        check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout) == {"codes": [0] * 12, "built": [],
                                       "numpy.ma": False}
