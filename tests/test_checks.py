"""The one check rule: every numerical validation passes or raises through
`errors.require`, which fails NaN and names its residual and threshold."""
import ast
import glob
import os

import numpy as np
import pytest

import fsclass
import fsclass.errors
from fsclass import (Corepresentation, FDStarAlgebra, Representation, dualize,
                     group_algebra)
from fsclass.errors import (AxiomViolation, BadUnit, FSClassError, NotStarRep,
                            SchemaError, require)

from conftest import check_text, load_group

# (module, function, error) of each raise under an ordering comparison that
# guards structure, not a residual: integer ranges and counts and the
# group and groupoid tables.  Schema errors are structural throughout.
STRUCTURAL = {
    ("constructors.py", "validated", "BadGroup"),          # entries in range
    ("constructors.py", "validated", "BadGroupoid"),       # identities, inverses
    ("constructors.py", "scheme_from_matrices", "AxiomViolation"),  # star[i] < 0
    ("indicators.py", "canonical_g", "InternalConsistency"),    # len(hom) > 1
    ("indicators.py", "classify_sigma", "UnexpectedDimension"),  # len(hom) > 1
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
    return A, A.left_stack().copy()


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
    A = group_algebra(load_group("s3"))[0]
    C = dualize(A)
    coeff = np.ones((1, 1, C.dim), dtype=complex)   # the trivial character
    Corepresentation(C, coeff)
    coeff[0, 0, 2] = np.nan
    with pytest.raises(AxiomViolation) as info:
        Corepresentation(C, coeff)
    assert check_text(str(info.value)) == "Delta(c_ij) != sum_k c_ik (x) c_kj"


def test_a_right_unit_failure_names_its_basis_element():
    """e0 e0 = e0, e0 e1 = e1, all other products zero: associative, and
    e0 is a left unit but e1 e0 = 0, so only the right unit law fails, at
    e1."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = 1.0
    with pytest.raises(BadUnit, match=r"^unit axiom fails on basis element "
                       r"e1 \(residual 1\.000e\+00, threshold 2\.000e-09\)$"):
        FDStarAlgebra(c, [1.0, 0.0], np.eye(2))

