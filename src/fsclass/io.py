"""JSON input formats.  Each kind has a fixed field set, read as arrays by
three rules: `_array` for nested lists, `_records` for lists of objects (or
[re, im] pairs) with fixed fields, `_count` for dim, order, classes and
objects.  A value's spec is `float` (a finite JSON integer or float), `int`
(a JSON integer of at most 64 bits) or a count n (an integer in range(n));
a bool meets none.  Loaders check types, shapes, the structure and star
indices they scatter by and the dense cap; the validators check the rest.
"""
from __future__ import annotations

import json
import sys
from operator import itemgetter

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


def _require_fields(doc: dict, required: set[str]) -> dict:
    missing, unknown = required - set(doc), set(doc) - required
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")
    return doc


def _count(doc: dict, key: str) -> int:
    n = doc[key]
    if type(n) is not int or n < 1:
        raise SchemaError(f"{key} must be a positive integer")
    return n


def _noun(spec) -> str:
    return {float: "a finite number", int: "a 64-bit integer"}.get(
        spec, f"an integer in [0, {spec})")


def _values(a: np.ndarray, spec) -> tuple[np.ndarray, np.ndarray]:
    """(ok, values) of an object array of JSON values: ok where an entry
    meets spec, values the ok entries as floats or int64s, 0 elsewhere."""
    t = np.fromiter(map(type, a.flat), object, a.size).reshape(a.shape)
    ok = (t == int) | (t == float) if spec is float else t == int
    lo, hi = ((-sys.float_info.max, sys.float_info.max) if spec is float
              else (-2 ** 63, 2 ** 63 - 1) if spec is int else (0, spec - 1))
    v = np.where(ok, a, 0)
    with np.errstate(invalid="ignore"):   # NaN fails quietly
        ok &= (v >= lo) & (v <= hi)
    return ok, np.where(ok, v, 0).astype(float if spec is float else np.int64)


def _array(x, what: str, spec, shape: tuple | None = None) -> np.ndarray:
    """Nested lists x of values meeting spec as one array, naming the first
    bad entry; a ragged nesting leaves lists as entries, refused too."""
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a list")
    ok, a = _values(np.array(x, dtype=object), spec)
    if not ok.all():
        at = np.unravel_index(ok.argmin(), ok.shape)
        raise SchemaError(f"{what}{''.join(map('[{}]'.format, at))} must "
                          f"be {_noun(spec)}")
    if shape is not None and a.shape != shape:
        raise SchemaError(f"{what} must be nested lists of shape {shape}")
    return a


def _records(entries, what: str, fields: dict, kind=dict) -> tuple:
    """One array per field of a list of objects with exactly the keys of
    fields, or of lists of len(fields) (kind list, fields 0, 1, ...), each
    field's spec its value in fields; the first bad entry is named, and
    its first bad field."""
    if not isinstance(entries, list):
        raise SchemaError(f"{what} must be a list")
    m, width = len(entries), len(fields)
    # every entry of kind with every field, and no more fields in all
    shaped = set(map(type, entries)) <= {kind} and \
        sum(map(len, entries)) == m * width
    try:
        cols = shaped and list(map(lambda key: np.fromiter(
            map(itemgetter(key), entries), object, m), fields))
    except (KeyError, IndexError):
        shaped = False
    if not shaped:
        fits = np.fromiter(map(lambda e: type(e) is kind and len(e) == width
                               and (kind is list or e.keys() == fields.keys()),
                               entries), bool, m)
        form = (f"an object with fields {', '.join(fields)}" if kind is dict
                else f"a list of length {width}")
        raise SchemaError(f"{what}[{fits.argmin()}] must be {form}")
    oks, cols = zip(*map(_values, cols, fields.values()))
    bad = ~np.array(oks).T
    if bad.any():
        idx, f = divmod(int(bad.argmax()), width)
        key = list(fields)[f]
        at = (".{}" if kind is dict else "[{}]").format(key)
        raise SchemaError(f"{what}[{idx}]{at} must be {_noun(fields[key])}")
    return cols


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.array((re, im), order="F").T.view(complex)[:, 0]


def _load_structure_v1(path: str, unit: str, tensor: str) -> tuple:
    """(n, unit, c, sigma) of an algebra or coalgebra file: c[i, j, k] and
    sigma[k, i] sum the `tensor` entries (i, j, k) and the star entries
    (i, k) in file order."""
    doc = _require_fields(_load(path), {"dim", unit, tensor, "star"})
    n = dense_dim(_count(doc, "dim"))
    u = _complex(*_records(doc[unit], unit, {0: float, 1: float}, list))
    if len(u) != n:
        raise SchemaError(f"{unit} must be a list of {n} [re, im] pairs")
    i, j, k, re, im = _records(doc[tensor], tensor, {
        "i": n, "j": n, "k": n, "re": float, "im": float})
    c = np.zeros((n, n, n), dtype=complex)
    np.add.at(c, (i, j, k), _complex(re, im))
    i, k, re, im = _records(doc["star"], "star", {
        "i": n, "k": n, "re": float, "im": float})
    sigma = np.zeros((n, n), dtype=complex)
    np.add.at(sigma, (k, i), _complex(re, im))
    return n, u, c, sigma


def load_algebra_v1(path: str) -> dict:
    """-> {dim, structure (n,n,n), unit (n,), star (n,n)}"""
    n, unit, c, sigma = _load_structure_v1(path, "unit", "structure")
    return {"dim": n, "structure": c, "unit": unit, "star": sigma}


def load_coalgebra_v1(path: str) -> dict:
    """-> {dim, Delta (n^2,n), counit (n,), star (n,n)}; Delta entry
    (i, j, k) is the coefficient of e_j (x) e_k in Delta(e_i)."""
    n, counit, Dt, sigma = _load_structure_v1(path, "counit", "Delta")
    return {"dim": n, "Delta": Dt.transpose(1, 2, 0).reshape(n * n, n),
            "counit": counit, "star": sigma}


def load_group_v1(path: str) -> dict:
    """-> {order, table (n,n), inverse (n,)}, int64 arrays."""
    doc = _require_fields(_load(path), {"order", "table", "inverse"})
    n = _count(doc, "order")
    return {"order": n, "table": _array(doc["table"], "table", int, (n, n)),
            "inverse": _array(doc["inverse"], "inverse", int, (n,))}


def load_scheme_v1(path: str) -> dict:
    """-> {classes, matrices (r,N,N) of 0/1} or {classes, p (r,r,r)}."""
    doc = _load(path)
    matrices = "matrices" in doc
    _require_fields(doc, {"classes", "matrices" if matrices else "p"})
    r = dense_dim(_count(doc, "classes"))
    if not matrices:
        return {"classes": r, "p": _array(doc["p"], "p", float, (r, r, r))}
    M = _array(doc["matrices"], "matrices", 2)   # entries 0 or 1
    if M.ndim != 3 or len(M) != r or M.shape[1] != M.shape[2]:
        raise SchemaError(f"matrices must be {r} square matrices of one size")
    return {"classes": r, "matrices": M}


def load_groupoid_v1(path: str) -> dict:
    """-> {objects, arrows (n,2) of (src, tgt), compose (t,3) of (a, b,
    ab)}, int64 arrays; `GroupoidData.validated` checks their ranges."""
    doc = _require_fields(_load(path), {"objects", "arrows", "compose"})
    m = _count(doc, "objects")
    arrows = _records(doc["arrows"], "arrows", {"src": int, "tgt": int})
    dense_dim(len(arrows[0]))
    compose = _records(doc["compose"], "compose",
                       {"a": int, "b": int, "ab": int})
    return {"objects": m, "arrows": np.stack(arrows, axis=1),
            "compose": np.stack(compose, axis=1)}
