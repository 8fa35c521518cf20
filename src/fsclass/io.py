"""JSON input formats.

Each kind has a fixed field set; unknown fields are rejected.  Loaders only
parse and shape-check; the algebraic axioms are enforced by the builders
they feed.
"""
from __future__ import annotations

import json

import numpy as np

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


def _complex_vector(entries, n: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError(f"{what} must be a list of {n} [re, im] pairs")
    out = np.zeros(n, dtype=complex)
    for idx, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{what}[{idx}] must be an [re, im] pair")
        out[idx] = complex(float(pair[0]), float(pair[1]))
    return out


def _sparse_entries(entries, keys: tuple[str, ...], n: int, what: str):
    if not isinstance(entries, list):
        raise SchemaError(f"{what} must be a list of objects")
    for idx, ent in enumerate(entries):
        if not isinstance(ent, dict):
            raise SchemaError(f"{what}[{idx}] must be an object")
        want = set(keys) | {"re", "im"}
        if set(ent) != want:
            raise SchemaError(f"{what}[{idx}] must have fields {sorted(want)}")
        pos = []
        for k in keys:
            v = ent[k]
            if not isinstance(v, int) or not (0 <= v < n):
                raise SchemaError(f"{what}[{idx}].{k} out of range")
            pos.append(v)
        yield (*pos, complex(float(ent["re"]), float(ent["im"])))


def load_algebra_v1(path: str) -> dict:
    """-> {dim, structure (n,n,n), unit (n,), star (n,n)}"""
    doc = _load(path)
    _require_fields(doc, {"dim", "unit", "structure", "star"})
    n = doc["dim"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("dim must be a positive integer")
    unit = _complex_vector(doc["unit"], n, "unit")
    c = np.zeros((n, n, n), dtype=complex)
    for i, j, k, v in _sparse_entries(doc["structure"], ("i", "j", "k"), n,
                                      "structure"):
        c[i, j, k] += v
    sigma = np.zeros((n, n), dtype=complex)
    for i, k, v in _sparse_entries(doc["star"], ("i", "k"), n, "star"):
        sigma[k, i] += v
    return {"dim": n, "structure": c, "unit": unit, "star": sigma}


def load_coalgebra_v1(path: str) -> dict:
    """-> {dim, Delta (n^2,n), counit (n,), star (n,n)}; Delta entry
    (i, j, k) is the coefficient of e_j (x) e_k in Delta(e_i)."""
    doc = _load(path)
    _require_fields(doc, {"dim", "counit", "Delta", "star"})
    n = doc["dim"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("dim must be a positive integer")
    counit = _complex_vector(doc["counit"], n, "counit")
    D = np.zeros((n * n, n), dtype=complex)
    for i, j, k, v in _sparse_entries(doc["Delta"], ("i", "j", "k"), n, "Delta"):
        D[j * n + k, i] += v
    sigma = np.zeros((n, n), dtype=complex)
    for i, k, v in _sparse_entries(doc["star"], ("i", "k"), n, "star"):
        sigma[k, i] += v
    return {"dim": n, "Delta": D, "counit": counit, "star": sigma}


def load_group_v1(path: str) -> dict:
    doc = _load(path)
    _require_fields(doc, {"order", "table", "inverse"})
    n = doc["order"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("order must be a positive integer")
    table = np.asarray(doc["table"], dtype=object)
    try:
        table = table.astype(int)
    except (TypeError, ValueError) as exc:
        raise SchemaError("table must be an integer matrix") from exc
    if table.shape != (n, n):
        raise SchemaError("table must be order x order")
    inverse = np.asarray(doc["inverse"])
    if inverse.shape != (n,):
        raise SchemaError("inverse must be a list of length order")
    return {"order": n, "table": table, "inverse": inverse.astype(int)}


def load_scheme_v1(path: str) -> dict:
    """Either adjacency matrices or intersection numbers p."""
    doc = _load(path)
    keys = set(doc)
    if "matrices" in keys:
        _require_fields(doc, {"classes", "matrices"})
    else:
        _require_fields(doc, {"classes", "p"})
    r = doc["classes"]
    if not isinstance(r, int) or r < 1:
        raise SchemaError("classes must be a positive integer")
    if "matrices" in doc:
        mats = [np.asarray(m, dtype=int) for m in doc["matrices"]]
        if len(mats) != r:
            raise SchemaError("number of matrices must equal classes")
        size = mats[0].shape
        for m in mats:
            if m.shape != size or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise SchemaError("matrices must all be square of one size")
            if not np.isin(m, (0, 1)).all():
                raise SchemaError("matrices must be 0/1")
        return {"classes": r, "matrices": mats}
    p = np.asarray(doc["p"], dtype=float)
    if p.shape != (r, r, r):
        raise SchemaError("p must be classes^3 nested lists")
    return {"classes": r, "p": p}


def load_groupoid_v1(path: str) -> dict:
    doc = _load(path)
    _require_fields(doc, {"objects", "arrows", "compose"})
    m = doc["objects"]
    if not isinstance(m, int) or m < 1:
        raise SchemaError("objects must be a positive integer")
    arrows = []
    for idx, a in enumerate(doc["arrows"]):
        if not isinstance(a, dict) or set(a) != {"src", "tgt"}:
            raise SchemaError(f"arrows[{idx}] must have fields src, tgt")
        if not (0 <= a["src"] < m and 0 <= a["tgt"] < m):
            raise SchemaError(f"arrows[{idx}] endpoint out of range")
        arrows.append((a["src"], a["tgt"]))
    n = len(arrows)
    triples = []
    for idx, t in enumerate(doc["compose"]):
        if not isinstance(t, dict) or set(t) != {"a", "b", "ab"}:
            raise SchemaError(f"compose[{idx}] must have fields a, b, ab")
        if not all(0 <= t[k] < n for k in ("a", "b", "ab")):
            raise SchemaError(f"compose[{idx}] arrow index out of range")
        triples.append((t["a"], t["b"], t["ab"]))
    return {"objects": m, "arrows": arrows, "compose": triples}
