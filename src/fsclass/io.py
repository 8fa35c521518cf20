"""JSON input formats.

Each kind has a fixed field set; unknown fields are rejected.  Loaders only
parse, shape-check and apply the dense cap before allocating; the algebraic
axioms are enforced by the constructors they feed.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from .algebra import dense_dim
from .errors import SchemaError


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


def _require_fields(doc: dict, required: set[str],
                    optional: set[str] = frozenset()) -> None:
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")


def _index(v, n: int, what: str) -> int:
    """v as an index into range(n): a JSON integer, not a bool or a float."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise SchemaError(f"{what} must be an integer in [0, {n})")
    return v


def _number(v, what: str) -> float:
    """v as a float: a finite JSON integer or float, not a bool."""
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise SchemaError(f"{what} must be a finite number")
    return float(v)


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a list")
    return x


def _integers(x, what: str) -> np.ndarray:
    """Nested lists of JSON integers (no bools, floats or strings) as an
    int array; ragged nesting leaves lists as entries and is refused too."""
    a = np.asarray(x, dtype=object)
    if not all(type(v) is int for v in a.flat):
        raise SchemaError(f"{what} must hold integers only")
    return a.astype(int)


def _complex_vector(entries, n: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError(f"{what} must be a list of {n} [re, im] pairs")
    out = np.zeros(n, dtype=complex)
    for idx, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{what}[{idx}] must be an [re, im] pair")
        out[idx] = complex(*(_number(x, f"{what}[{idx}]") for x in pair))
    return out


def _sparse_entries(entries, keys: tuple[str, ...], n: int, what: str):
    for idx, ent in enumerate(_list(entries, what)):
        if not isinstance(ent, dict):
            raise SchemaError(f"{what}[{idx}] must be an object")
        want = set(keys) | {"re", "im"}
        if set(ent) != want:
            raise SchemaError(f"{what}[{idx}] must have fields {sorted(want)}")
        pos = [_index(ent[k], n, f"{what}[{idx}].{k}") for k in keys]
        yield (*pos, complex(*(_number(ent[k], f"{what}[{idx}].{k}")
                               for k in ("re", "im"))))


def _load_structure_v1(path: str, unit: str, tensor: str, place
                       ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, unit, c, sigma) of an algebra or coalgebra file with fields dim,
    `unit`, `tensor` and star: c[place(i, j, k)] is the value of the
    `tensor` entry (i, j, k), sigma[k, i] that of the star entry (i, k)."""
    doc = _load(path)
    _require_fields(doc, {"dim", unit, tensor, "star"})
    n = doc["dim"]
    if type(n) is not int or n < 1:
        raise SchemaError("dim must be a positive integer")
    dense_dim(n)
    u = _complex_vector(doc[unit], n, unit)
    c = np.zeros((n, n, n), dtype=complex)
    for i, j, k, v in _sparse_entries(doc[tensor], ("i", "j", "k"), n, tensor):
        c[place(i, j, k)] += v
    sigma = np.zeros((n, n), dtype=complex)
    for i, k, v in _sparse_entries(doc["star"], ("i", "k"), n, "star"):
        sigma[k, i] += v
    return n, u, c, sigma


def load_algebra_v1(path: str) -> dict:
    """-> {dim, structure (n,n,n), unit (n,), star (n,n)}"""
    n, unit, c, sigma = _load_structure_v1(path, "unit", "structure",
                                           lambda i, j, k: (i, j, k))
    return {"dim": n, "structure": c, "unit": unit, "star": sigma}


def load_coalgebra_v1(path: str) -> dict:
    """-> {dim, Delta (n^2,n), counit (n,), star (n,n)}; Delta entry
    (i, j, k) is the coefficient of e_j (x) e_k in Delta(e_i)."""
    n, counit, c, sigma = _load_structure_v1(path, "counit", "Delta",
                                             lambda i, j, k: (j, k, i))
    return {"dim": n, "Delta": c.reshape(n * n, n), "counit": counit,
            "star": sigma}


def load_group_v1(path: str) -> dict:
    doc = _load(path)
    _require_fields(doc, {"order", "table", "inverse"})
    n = doc["order"]
    if type(n) is not int or n < 1:
        raise SchemaError("order must be a positive integer")
    table = _integers(doc["table"], "table")
    if table.shape != (n, n):
        raise SchemaError("table must be order x order")
    inverse = _integers(doc["inverse"], "inverse")
    if inverse.shape != (n,):
        raise SchemaError("inverse must be a list of length order")
    return {"order": n, "table": table, "inverse": inverse}


def load_scheme_v1(path: str) -> dict:
    """Either adjacency matrices or intersection numbers p."""
    doc = _load(path)
    keys = set(doc)
    if "matrices" in keys:
        _require_fields(doc, {"classes", "matrices"})
    else:
        _require_fields(doc, {"classes", "p"})
    r = doc["classes"]
    if type(r) is not int or r < 1:
        raise SchemaError("classes must be a positive integer")
    dense_dim(r)
    if "matrices" in doc:
        mats = [_integers(m, "matrices")
                for m in _list(doc["matrices"], "matrices")]
        if len(mats) != r:
            raise SchemaError("number of matrices must equal classes")
        size = mats[0].shape
        for m in mats:
            if m.shape != size or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise SchemaError("matrices must all be square of one size")
            if not np.isin(m, (0, 1)).all():
                raise SchemaError("matrices must be 0/1")
        return {"classes": r, "matrices": mats}
    p = np.asarray(doc["p"], dtype=object)
    if p.shape != (r, r, r):
        raise SchemaError("p must be classes^3 nested lists")
    return {"classes": r,
            "p": np.array([_number(v, "p") for v in p.flat]).reshape(p.shape)}


def load_groupoid_v1(path: str) -> dict:
    doc = _load(path)
    _require_fields(doc, {"objects", "arrows", "compose"})
    m = doc["objects"]
    if type(m) is not int or m < 1:
        raise SchemaError("objects must be a positive integer")
    arrows = []
    for idx, a in enumerate(_list(doc["arrows"], "arrows")):
        if not isinstance(a, dict) or set(a) != {"src", "tgt"}:
            raise SchemaError(f"arrows[{idx}] must have fields src, tgt")
        arrows.append(tuple(_index(a[k], m, f"arrows[{idx}].{k}")
                            for k in ("src", "tgt")))
    n = dense_dim(len(arrows))
    triples = []
    for idx, t in enumerate(_list(doc["compose"], "compose")):
        if not isinstance(t, dict) or set(t) != {"a", "b", "ab"}:
            raise SchemaError(f"compose[{idx}] must have fields a, b, ab")
        triples.append(tuple(_index(t[k], n, f"compose[{idx}].{k}")
                             for k in ("a", "b", "ab")))
    return {"objects": m, "arrows": arrows, "compose": triples}
