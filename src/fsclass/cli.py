"""Command-line front end.

    fsclass <command> --kind <kind> [options] input.json

Commands: verify, irreps, indicators, classify, duality.
Kinds: algebra, group, scheme, groupoid, double, coalgebra.
Exit codes: 0 success, 2 validation failure, 3 indicator disagreement.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as fio
from .algebra import (build_algebra, check_cstar, real_form_from_S,
                      separability_idempotent)
from .coalgebra import (FDStarCoalgebra, compact_decompose, corep_indicator,
                        dualize)
from .constructors import (GroupTable, GroupoidData, TableAlgebraData,
                           drinfeld_double, group_algebra, groupoid_weak_hopf,
                           scheme_from_matrices, table_algebra)
from .errors import AgreementFailure, FSClassError, SchemaError
from .indicators import canonical_g, classify_sigma, full_report
from .linalg import Tolerance
from .reps import decompose, regular_representation


def _tolerance(args) -> Tolerance:
    kw = {}
    if args.tol_rank is not None:
        kw["eps_rank"] = args.tol_rank
    if args.tol_round is not None:
        kw["eps_round"] = args.tol_round
    return Tolerance(**kw)


def _derive_scheme_star(p: np.ndarray) -> np.ndarray:
    r = p.shape[0]
    star = np.full(r, -1, dtype=int)
    for i in range(r):
        nz = np.nonzero(p[i, :, 0] > 1e-12)[0]
        if len(nz) != 1:
            raise SchemaError("cannot derive the basis involution from p")
        star[i] = nz[0]
    return star


def _build(kind: str, path: str, tol: Tolerance) -> dict:
    """Builds whatever the kind supports: algebra A, dual structure, weak
    Hopf data W, coalgebra C."""
    out = {"A": None, "dual": None, "W": None, "C": None, "checks": []}
    ck = out["checks"]
    if kind == "group":
        d = fio.load_group_v1(path)
        G = GroupTable.validated(d["order"], d["table"], d["inverse"])
        ck.append("group axioms")
        A, dual, _ = group_algebra(G, tol)
        out["A"], out["dual"] = A, dual
        ck += ["algebra axioms", "star axioms", "dual structure (S, g)"]
    elif kind == "scheme":
        d = fio.load_scheme_v1(path)
        if "matrices" in d:
            T = scheme_from_matrices(d["matrices"])
            ck.append("scheme axioms (partition, transpose-closure, "
                      "intersection numbers)")
        else:
            T = TableAlgebraData.validated(d["p"], _derive_scheme_star(d["p"]))
            ck.append("table algebra axioms")
        A, S, _, _ = table_algebra(T, tol)
        ck += ["algebra axioms", "star axioms", "central element v"]
        parts = decompose(regular_representation(A))
        out["A"] = A
        out["dual"] = canonical_g(A, S, [V for V, _ in parts])
        out["parts"] = parts
        out["table"] = T
        ck.append("dual structure (S, g)")
    elif kind == "groupoid":
        d = fio.load_groupoid_v1(path)
        Gd = GroupoidData.validated(d["objects"], d["arrows"], d["compose"])
        ck.append("groupoid axioms")
        W, dual = groupoid_weak_hopf(Gd, tol)
        out["A"], out["dual"], out["W"] = W.algebra, dual, W
        ck += ["algebra axioms", "star axioms", "comultiplication axioms",
               "dual structure (S, g)"]
    elif kind == "double":
        d = fio.load_group_v1(path)
        G = GroupTable.validated(d["order"], d["table"], d["inverse"])
        ck.append("group axioms")
        W, dual = drinfeld_double(G, tol)
        out["A"], out["dual"], out["W"] = W.algebra, dual, W
        ck += ["algebra axioms", "star axioms", "comultiplication axioms",
               "dual structure (S, g)"]
    elif kind == "algebra":
        d = fio.load_algebra_v1(path)
        out["A"] = build_algebra(d["structure"], d["unit"], d["star"], tol)
        ck += ["algebra axioms", "star axioms"]
    elif kind == "coalgebra":
        d = fio.load_coalgebra_v1(path)
        out["C"] = FDStarCoalgebra(d["Delta"], d["counit"], d["star"], tol)
        ck += ["coassociativity", "counit laws", "co-star axiom"]
    else:
        raise SchemaError(f"unknown kind {kind!r}")
    return out


def _cvec(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


def _cmat(m: np.ndarray) -> list:
    return [_cvec(row) for row in np.asarray(m)]


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args, built) -> str:
    lines = [f"{name}: ok" for name in built["checks"]]
    A = built["A"]
    if A is not None:
        _, ok = check_cstar(A)
        lines.append(f"C*-norm (positive trace form): {'ok' if ok else 'FAIL'}")
    if built["W"] is not None:
        built["W"].haar_integral()
        lines.append("Haar integral: ok")
    if args.format == "json":
        return json.dumps({"checks": lines}, indent=2, sort_keys=True)
    return "\n".join(lines)


def _parts(args, built):
    if "parts" in built:
        return built["parts"]
    return decompose(regular_representation(built["A"]), seed=args.seed)


def _cmd_irreps(args, built) -> str:
    parts = _parts(args, built)
    rows = [{"index": i, "dim": V.dim, "multiplicity": m,
             "character": _cvec(V.character())}
            for i, (V, m) in enumerate(parts)]
    if args.format == "json":
        return json.dumps({"irreps": rows}, indent=2, sort_keys=True)
    if args.format == "csv":
        out = ["index,dim,multiplicity"]
        out += [f"{r['index']},{r['dim']},{r['multiplicity']}" for r in rows]
        return "\n".join(out)
    return "\n".join(
        f"irrep {r['index']}: dim {r['dim']}, multiplicity {r['multiplicity']}"
        for r in rows)


def _require_dual(built):
    if built["dual"] is None:
        raise SchemaError("this kind carries no canonical dual structure; "
                          "use kinds group, scheme, groupoid or double")
    return built["dual"]


def _cmd_indicators(args, built) -> str:
    dual = _require_dual(built)
    A = built["A"]
    parts = _parts(args, built)
    E = separability_idempotent(A)
    report = full_report(A, dual, parts, E)
    if args.format == "json":
        return report.to_json()
    if args.format == "csv":
        return report.to_csv()
    lines = []
    for r in report.rows:
        d = r.as_dict()
        lines.append(f"irrep {r.index}: dim {r.dim}, nu {r.nu_formula:+d}, "
                     f"sigma {r.sigma:+d}, {d['type']}")
    return "\n".join(lines)


def _cmd_classify(args, built) -> str:
    dual = _require_dual(built)
    A = built["A"]
    parts = _parts(args, built)
    R = real_form_from_S(A, dual.S)
    rows = []
    for i, (V, m) in enumerate(parts):
        res = classify_sigma(V, R)
        label = {1: "real", 0: "complex", -1: "quaternionic"}[res.sigma]
        row = {"index": i, "dim": V.dim, "sigma": res.sigma, "label": label}
        if res.sigma == 1:
            row["real_basis"] = _cmat(res.witness)
        elif res.sigma == -1:
            row["quaternion_map"] = _cmat(res.j_matrix)
        rows.append(row)
    if args.format == "json":
        return json.dumps({"irreps": rows}, indent=2, sort_keys=True)
    lines = []
    for row in rows:
        lines.append(f"irrep {row['index']}: dim {row['dim']}, {row['label']}")
        if "real_basis" in row:
            lines.append(f"  real basis: {row['real_basis']}")
        if "quaternion_map" in row:
            lines.append(f"  quaternion map: {row['quaternion_map']}")
    return "\n".join(lines)


def _cmd_duality(args, built) -> str:
    dual = _require_dual(built)
    A = built["A"]
    parts = _parts(args, built)
    E = separability_idempotent(A)
    report = full_report(A, dual, parts, E)
    C = dualize(A)
    cd = compact_decompose(C, parts=parts)
    varsigma = dual.S.matrix.T
    gamma_vec = dual.g
    n_ok = 0
    pairs = []
    for i, block in enumerate(cd.blocks):
        cval = corep_indicator(C, block, varsigma, gamma_vec, cd.E)
        aval = report.rows[i].nu_formula
        pairs.append((cval, aval))
        if abs(cval - aval) <= A.tol.eps_round:
            n_ok += 1
    total = len(cd.blocks)
    if n_ok != total:
        raise AgreementFailure(
            f"algebra/coalgebra indicators agree on {n_ok}/{total} irreducibles: "
            f"{pairs}")
    msg = f"algebra/coalgebra indicators agree: {n_ok}/{total}"
    if args.format == "json":
        return json.dumps({"agree": n_ok, "total": total,
                           "message": msg}, indent=2, sort_keys=True)
    return msg


COMMANDS = {"verify": _cmd_verify, "irreps": _cmd_irreps,
            "indicators": _cmd_indicators, "classify": _cmd_classify,
            "duality": _cmd_duality}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fsclass", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("input", help="path to the input JSON file")
    ap.add_argument("--kind", required=True,
                    choices=["algebra", "group", "scheme", "groupoid",
                             "double", "coalgebra"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol-rank", type=float, default=None)
    ap.add_argument("--tol-round", type=float, default=None)
    ap.add_argument("--format", choices=["json", "csv", "text"],
                    default="text")
    ap.add_argument("--output", default=None)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        tol = _tolerance(args)
        built = _build(args.kind, args.input, tol)
        text = COMMANDS[args.command](args, built)
    except AgreementFailure as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    except (FSClassError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
