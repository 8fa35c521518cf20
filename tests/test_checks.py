"""The one check rule: every numerical validation passes or raises through
`errors.require`, which fails NaN and names its residual and threshold.
And the package's own structure: every import at module level, none of
them in a cycle."""
import ast
import glob
import graphlib
import json
import os

import numpy as np
import pytest

import fsclass
import fsclass.cli
import fsclass.errors
import fsclass.indicators
import test_kernels
from fsclass import (FDStarAlgebra, Representation, canonical_g, decompose,
                     dualize, full_report, group_algebra,
                     regular_representation)
from fsclass.algebra import real_form_from_S
from fsclass.cli import Run
from fsclass.errors import (AxiomViolation, BadUnit, FSClassError,
                            InconsistentAlpha, InternalConsistency,
                            NotStarRep, SchemaError, require)
from fsclass.indicators import classify_sigmas
from fsclass.reps import intertwiners

from conftest import COREP_CHECKS, TOL, check_text, data_path, load_group
from test_kernels import (invariant_gram, loop_dual_hom, loop_nu_trace,
                          loop_sigma)

# (module, function, error) of each raise under an ordering comparison that
# guards structure, not a residual: integer ranges and counts and the
# group and groupoid tables.  Schema errors are structural throughout.
STRUCTURAL = {
    ("constructors.py", "validated", "BadGroup"),          # entries in range
    ("constructors.py", "validated", "BadGroupoid"),       # identities, inverses
    ("constructors.py", "scheme_from_matrices", "AxiomViolation"),  # M.min() < 0
    ("indicators.py", "canonical_g", "InternalConsistency"),  # Hom dim > 1
    ("indicators.py", "dual_hom", "UnexpectedDimension"),  # Hom dim > 1
}
ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _compares(test: ast.expr) -> bool:
    return any(isinstance(node, ast.Compare)
               and any(isinstance(op, ORDER) for op in node.ops)
               for node in ast.walk(test))


def _raised(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _guarded_raises(path: str) -> set[tuple[str, str, str]]:
    """(module, function, error) of every raise of an FSClassError other
    than SchemaError inside an `if` whose test makes an ordering
    comparison."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.If) and _compares(node.test):
            for stmt in node.body + node.orelse:
                for sub in ast.walk(stmt):
                    name = _raised(sub) if isinstance(sub, ast.Raise) else None
                    err = getattr(fsclass.errors, name or "", None)
                    if isinstance(err, type) and issubclass(err, FSClassError) \
                            and err is not SchemaError:
                        found.add((os.path.basename(path), func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)
    with open(path) as fh:
        visit(ast.parse(fh.read()), None)
    return found


def test_every_numerical_raise_goes_through_require():
    src = os.path.dirname(fsclass.__file__)
    found = set()
    for path in glob.glob(os.path.join(src, "*.py")):
        if os.path.basename(path) != "errors.py":
            found |= _guarded_raises(path)
    assert found == STRUCTURAL


def test_require_fails_nan_and_names_the_first_failing_index():
    require(AxiomViolation, "unused {}", np.array([0.5, 1.0]), 1.0)
    require(AxiomViolation, "empty", np.zeros(0), 0.0)
    with pytest.raises(AxiomViolation, match=r"^x \(residual nan, "
                       r"threshold 1\.000e\+00\)$"):
        require(AxiomViolation, "x", float("nan"), 1.0)
    resid = np.array([[0.0, 0.5], [np.nan, 2.0]])
    with pytest.raises(AxiomViolation) as info:
        require(AxiomViolation, "at ({}, {})", resid, 0.25)
    assert str(info.value) == \
        "at (0, 1) (residual 5.000e-01, threshold 2.500e-01)"
    with pytest.raises(AxiomViolation, match=r"^at 1 \(residual 2\.000e\+00, "
                       r"threshold 1\.500e\+00\)$"):
        require(AxiomViolation, "at {}", [1.0, 2.0], [1.5, 1.5])


def test_a_strict_lower_bound_fails_at_equality():
    require(AxiomViolation, "ok", -1.0, -np.nextafter(0.0, 1.0))
    with pytest.raises(AxiomViolation):
        require(AxiomViolation, "zero", -0.0, -np.nextafter(0.0, 1.0))
    require(AxiomViolation, "ok", -1e-9, -1e-9)   # value >= bound holds


def _s3_regular_rho():
    A = group_algebra(load_group("s3"))[0]
    return A, np.array([A.left_mult(e) for e in np.eye(A.dim)])


def test_a_nan_in_rho_is_not_a_star_representation():
    A, rho = _s3_regular_rho()
    Representation(A, rho)      # permutation matrices: unitary for H = I
    rho[1, 0, 0] = np.nan
    with pytest.raises(NotStarRep) as info:
        Representation(A, rho)
    assert check_text(str(info.value)) == "rho(e_i e_j) != rho(e_i) rho(e_j)"
    assert "(residual nan," in str(info.value)


def test_a_zero_gram_is_not_positive_definite():
    A, rho = _s3_regular_rho()
    with pytest.raises(NotStarRep, match=r"^gram is not positive definite "
                       r"\(residual -0\.000e\+00, threshold -4\.941e-324\)$"):
        Representation(A, rho, np.zeros((A.dim, A.dim)))


def test_a_nan_corep_coefficient_is_refused():
    # a corepresentation is stored as its dual module, rho(e_m)[i, j] =
    # c_ij[m], and fails that module's check for the comultiplication
    A = group_algebra(load_group("s3"))[0]
    C = dualize(A)
    coeff = np.ones((1, 1, C.dim), dtype=complex)   # the trivial character
    Representation(C.algebra, coeff.transpose(2, 0, 1))
    coeff[0, 0, 2] = np.nan
    with pytest.raises(NotStarRep) as info:
        Representation(C.algebra, coeff.transpose(2, 0, 1))
    assert check_text(str(info.value)) == \
        COREP_CHECKS["Delta(c_ij) != sum_k c_ik (x) c_kj"]


def _s3_two_dim_irreducible():
    A, dual = group_algebra(load_group("s3"))
    V = next(V for V, _ in decompose(regular_representation(A)) if V.dim == 2)
    return A, dual, V


def _raised_text(error, call) -> str:
    with pytest.raises(error) as info:
        call()
    return check_text(str(info.value))


def test_a_hom_dimension_off_an_integer_is_refused():
    """W = 1.1 V is no representation: tr P = chi_W^T E chi_V = 1.1."""
    A, _, V = _s3_two_dim_irreducible()
    with pytest.raises(InternalConsistency, match=r"not an integer "
                       r"\(residual 1\.000e-01,"):
        intertwiners(A, V.rho, 1.1 * V.rho)


# D(S3) has four 2-dim irreducibles, all real, at 2..5 of its parts; the
# one at parts index 3 is entry 1 of their stack, so a message that names
# its stack position instead reads "irrep 1"
STACKED = 3


def _s3_double_run() -> Run:
    return Run("double", data_path("s3.json"), TOL, 0)


def _fires_as_the_loop_does(capsys, command, error, text, loop_call,
                            stacked_call) -> None:
    """The per-irreducible loop raises error with text; the stacked pass
    raises it too, naming irrep STACKED, and so does the CLI command,
    which exits 2 with it on stderr."""
    assert _raised_text(error, loop_call) == text
    assert _raised_text(error, stacked_call) == f"irrep {STACKED}: {text}"
    code = fsclass.cli.main([command, data_path("s3.json"), "--kind", "double"])
    err = json.loads(capsys.readouterr().err)
    assert (code, err["error"]) == (2, error.__name__)
    assert check_text(err["message"]) == f"irrep {STACKED}: {text}"


def test_the_checks_on_the_hom_v_dv_basis_fire(capsys, monkeypatch):
    """Inside the stack of D(S3)'s four 2-dim irreducibles, one is
    corrupted: g plus its central idempotent e doubles rho(g) there, so
    its involution squares to 4; g plus e times a random element moves
    F^T rho(g) off Hom(V, D(V)); a random F in place of its Hom basis is no
    intertwiner, so F conj(F) is not scalar.  Each check raises what the
    per-irreducible loop raises (`test_kernels.loop_*`) and names that
    irreducible.  A perturbed rho has no invariant gram."""
    run = _s3_double_run()
    A, dual, parts = run.A, run.dual, run.parts
    V = parts[STACKED][0]
    assert [W.dim for W, _ in parts].count(2) == 4 and V.dim == 2
    e = V.dim * (A.separability_idempotent.tensor @ V.character())
    rng = np.random.default_rng(75)
    hom = loop_dual_hom(V, dual.S.matrix)
    nu_trace, hom_of = fsclass.indicators._nu_trace, fsclass.indicators.dual_hom
    for g, text in [(dual.g + e, "duality map on Hom(V, D(V)) does not "
                     "square to the identity"),
                    (dual.g + A.left_mult(e) @ rng.standard_normal(A.dim),
                     "involution does not preserve Hom(V, D(V))")]:
        monkeypatch.setattr(fsclass.indicators, "_nu_trace",
                            lambda A, rho, names, _, F, g=g: nu_trace(
                                A, rho, names, g, F))
        _fires_as_the_loop_does(
            capsys, "indicators", InternalConsistency, text,
            lambda: loop_nu_trace(V, hom, g),
            lambda: full_report(A, dual, parts, A.separability_idempotent))
    monkeypatch.setattr(fsclass.indicators, "_nu_trace", nu_trace)
    F = rng.standard_normal((2, 2, 2)) @ [1, 1j]

    def random_f(A, S, rho, names):
        line, hom = hom_of(A, S, rho, names)
        hit = names[line] == f"irrep {STACKED}: "
        if hit.any():
            hom = hom.copy()
            hom[np.flatnonzero(hit)[0]] = F
        return line, hom
    monkeypatch.setattr(fsclass.indicators, "dual_hom", random_f)
    R = real_form_from_S(A, dual.S)
    _fires_as_the_loop_does(
        capsys, "classify", InconsistentAlpha,
        "F conj(F) is not a scalar matrix", lambda: loop_sigma(V, R, [F]),
        lambda: classify_sigmas([V for V, _ in parts], R))
    noisy = V.rho + 0.01 * rng.standard_normal(V.rho.shape)
    assert _raised_text(NotStarRep, lambda: invariant_gram(A, noisy)) == \
        "rho(a)^dagger H != H rho(a*)"


def test_a_nilpotent_intertwiner_is_refused(monkeypatch):
    """F with F[0, 1] = 1 in place of the Hom(V, D(V)) basis of C[S3]'s
    2-dim irreducible: F conj(F) = 0 is a scalar matrix, so only the
    vanishing check refuses it."""
    A, dual, V = _s3_two_dim_irreducible()
    F = np.zeros((1, 2, 2), dtype=complex)
    F[0, 0, 1] = 1
    monkeypatch.setattr(fsclass.indicators, "dual_hom",
                        lambda A, S, rho, names: (np.ones(1, bool), F))
    with pytest.raises(InconsistentAlpha) as info:
        classify_sigmas([V], real_form_from_S(A, dual.S))
    assert str(info.value) == "F conj(F) vanishes for a nonzero intertwiner " \
        "(residual -0.000e+00, threshold -1.000e-09)"


def test_a_witness_basis_that_is_not_real_is_refused(capsys, monkeypatch):
    """A complex change C of the j-fixed basis W of one 2-dim real
    irreducible inside D(S3)'s stack of four makes m(abar) = conj(m(a))
    fail for m = W^-1 rho W; the stacked check names it, as the loop's
    refuses it."""
    run = _s3_double_run()
    A, dual, parts = run.A, run.dual, run.parts
    V, R = parts[STACKED][0], real_form_from_S(A, dual.S)
    C = np.array([[1, 0.5j], [0.3, 1]])
    fixed, fixed_one = (fsclass.indicators.fixed_spaces_of_antilinear,
                        test_kernels.fixed_space_of_antilinear)

    def changed(j, tol):   # the 2-dim stack holds parts 2..5, all real
        dims, W = fixed(j, tol)
        if W.shape[-1] == 2:
            W = W.copy()
            W[STACKED - 2] = W[STACKED - 2] @ C
        return dims, W
    monkeypatch.setattr(fsclass.indicators, "fixed_spaces_of_antilinear",
                        changed)
    monkeypatch.setattr(test_kernels, "fixed_space_of_antilinear",
                        lambda j, tol: fixed_one(j, tol) @ C)
    _fires_as_the_loop_does(
        capsys, "classify", InternalConsistency,
        "real form does not act by real matrices in the j-fixed basis",
        lambda: loop_sigma(V, R, loop_dual_hom(V, dual.S.matrix)),
        lambda: classify_sigmas([V for V, _ in parts], R))


def _scopes(path: str, match) -> set[tuple[str, str]]:
    """(module, enclosing Class.function) of every node of the module at
    path that match accepts."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if match(node):
            found.add((os.path.basename(path), ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    with open(path) as fh:
        visit(ast.parse(fh.read()), ())
    return found


def _callers(path: str, name: str) -> set[tuple[str, str]]:
    """`_scopes` of every call of `name` in the module at path."""
    def called(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", None)) == name
    return _scopes(path, called)


def _readers(path: str, attr: str, receivers: set[str]
             ) -> set[tuple[str, str]]:
    """`_scopes` of every read of `attr` on one of the receivers (source
    text, as `A` or `self.algebra`) in the module at path."""
    return _scopes(path, lambda node: isinstance(node, ast.Attribute)
                   and node.attr == attr
                   and ast.unparse(node.value) in receivers)


def test_only_e_reads_the_trace_form_basis():
    """The trace-form orthonormal basis of an algebra is contracted in one
    place, E = sum_j b_j (x) b_j^* (`separability_idempotent`), and handed
    on as the regular representation's Q; `central_sum` and `decompose`
    read E instead."""
    src = os.path.dirname(fsclass.__file__)
    basis, e = set(), set()
    for path in glob.glob(os.path.join(src, "*.py")):
        basis |= _readers(path, "orthonormal_basis", {"A", "self.algebra"})
        e |= _readers(path, "separability_idempotent", {"A"})
    assert basis == {("algebra.py", "separability_idempotent"),
                     ("reps.py", "RegularRepresentation.orthonormal_basis")}
    assert {("algebra.py", "central_sum"), ("reps.py", "decompose")} <= e


def test_the_homomorphism_kernel_has_one_caller():
    """Every homomorphism check, a corepresentation's comultiplication
    check included, goes through a Representation."""
    src = os.path.dirname(fsclass.__file__)
    found = set()
    for path in glob.glob(os.path.join(src, "*.py")):
        found |= _callers(path, "hom_residual")
    assert found == {("reps.py", "Representation._hom_residual")}


def test_no_kronecker_system_and_no_nullspace():
    """Every Hom_A(V, W) is the range of the separability idempotent's
    average and every fixed space of an antilinear map is read off one
    batched SVD: no module defines or imports `kron_system` or `nullspace`
    (test oracles now), and the singular vectors the package reads are
    those of `hom_spaces` and `fixed_spaces_of_antilinear`."""
    src = os.path.dirname(fsclass.__file__)
    named, callers = [], set()
    for path in glob.glob(os.path.join(src, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        named += [path for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("kron_system", "nullspace")
                  or isinstance(node, ast.ImportFrom)
                  and {"kron_system", "nullspace"} & {a.name for a in node.names}]
        callers |= _callers(path, "svd")
    assert named == []
    assert callers == {("reps.py", "hom_spaces"),
                       ("linalg.py", "fixed_spaces_of_antilinear")}


def test_no_least_squares_and_one_twisted_hom_per_dimension(monkeypatch):
    """`canonical_g` glues its blocks exactly through the kept E, so no
    module calls `lstsq`, and it reads Hom(V, V o S^2) with one
    `hom_spaces` call per distinct dimension: on D(S3), stacks of 2, 4 and
    2 irreducibles of dims 1, 2 and 3."""
    src = os.path.dirname(fsclass.__file__)
    callers = set()
    for path in glob.glob(os.path.join(src, "*.py")):
        callers |= _callers(path, "lstsq")
    assert callers == set()
    run, calls = _s3_double_run(), []
    hom_spaces = fsclass.indicators.hom_spaces

    def counted(A, rho_v, rho_w, names):
        calls.append(rho_v.shape[1:3])
        return hom_spaces(A, rho_v, rho_w, names)
    monkeypatch.setattr(fsclass.indicators, "hom_spaces", counted)
    dual = canonical_g(run.A, run.dual.S, [V for V, _ in run.parts])
    assert calls == [(2, 1), (4, 2), (2, 3)]
    assert np.abs(dual.g - run.A.unit).max() < 1e-12


def test_the_weak_hopf_layer_runs_no_linear_algebra_of_its_own():
    """The Haar integral is read off the kept E and the co-star is
    `A.star(S)`: `constructors.py` calls no `np.linalg` function, the only
    `np.linalg.solve` calls are the per-stack d x d solves of
    `canonical_g` and `_sigma`, and tau(e_i e_j) is formed only by
    `check_cstar`."""
    src = os.path.dirname(fsclass.__file__)

    def linalg(node, name=None) -> bool:
        return isinstance(node, ast.Attribute) \
            and ast.unparse(node.value) == "np.linalg" \
            and name in (None, node.attr)

    def trace_form(node) -> bool:   # X.of_products(Y.regular_trace())
        return isinstance(node, ast.Call) \
            and getattr(node.func, "attr", None) == "of_products" \
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call) \
            and getattr(node.args[0].func, "attr", None) == "regular_trace"
    solves, forms = set(), set()
    for path in glob.glob(os.path.join(src, "*.py")):
        solves |= _scopes(path, lambda node: linalg(node, "solve"))
        forms |= _scopes(path, trace_form)
    assert _scopes(os.path.join(src, "constructors.py"), linalg) == set()
    assert solves == {("indicators.py", "canonical_g"),
                      ("indicators.py", "_sigma")}
    assert forms == {("algebra.py", "check_cstar")}


def test_the_loaders_have_no_python_loop():
    """`io.py` reads every input as arrays: it has no `for` or `while`
    statement and no comprehension, so its per-entry work runs in `map`,
    `np.fromiter` and array operations."""
    with open(os.path.join(os.path.dirname(fsclass.__file__), "io.py")) as fh:
        tree = ast.parse(fh.read())
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, loops)] == []


def test_a_right_unit_failure_names_its_basis_element():
    """e0 e0 = e0, e0 e1 = e1, all other products zero: associative, and
    e0 is a left unit but e1 e0 = 0, so only the right unit law fails, at
    e1."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = 1.0
    with pytest.raises(BadUnit, match=r"^unit axiom fails on basis element "
                       r"e1 \(residual 1\.000e\+00, threshold 2\.000e-09\)$"):
        FDStarAlgebra(c, [1.0, 0.0], np.eye(2))



def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, wherever the import stands."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module else
                      {alias.name for alias in node.names})
    return found


def test_imports_are_module_level_and_acyclic():
    src = os.path.dirname(fsclass.__file__)
    graph, local = {}, []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        local += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body]
        graph[name] = _package_imports(tree)
    assert local == []
    assert graph["cli"] >= {"coalgebra", "constructors", "io"}
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("coalgebra") < order.index("constructors")
