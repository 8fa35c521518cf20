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
from functools import cached_property

import numpy as np

from . import io as fio
from .algebra import (DualStructureData, build_algebra, dense_dim,
                      real_form_from_S)
from .coalgebra import (FDStarCoalgebra, compact_decompose, corep_indicators,
                        dualize)
from .constructors import (GroupTable, GroupoidData, TableAlgebraData,
                           drinfeld_double, group_algebra, groupoid_weak_hopf,
                           scheme_from_matrices, table_algebra)
from .errors import AgreementFailure, FSClassError, SchemaError, require
from .indicators import IndicatorReport, classify_sigma, full_report
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


class Run:
    """One command's pipeline over one input.  The constructor loads and
    validates the input and builds whatever the kind supports: the algebra
    A, its dual structure, weak Hopf data W or a coalgebra C, and the names
    of the checks that passed.  The decomposition and the indicator report
    are computed on first use and kept."""

    def __init__(self, kind: str, path: str, tol: Tolerance, seed: int):
        self.seed = seed
        self.A = self.W = self.C = self._dual = None
        ck = self.checks = []
        if kind in ("group", "double"):
            d = fio.load_group_v1(path)
            dense_dim(d["order"] ** (2 if kind == "double" else 1))
            G = GroupTable.validated(d["order"], d["table"], d["inverse"])
            ck.append("group axioms")
            if kind == "group":
                self.A, self._dual = group_algebra(G, tol)
                ck += ["algebra axioms", "star axioms", "dual structure (S, g)"]
            else:
                self.W, self._dual = drinfeld_double(G, tol)
        elif kind == "scheme":
            d = fio.load_scheme_v1(path)
            if "matrices" in d:
                T = scheme_from_matrices(d["matrices"])
                ck.append("scheme axioms (partition, transpose-closure, "
                          "intersection numbers)")
            else:
                T = TableAlgebraData.validated(d["p"], _derive_scheme_star(d["p"]))
                ck.append("table algebra axioms")
            self.A, S, _ = table_algebra(T, tol)
            ck += ["algebra axioms", "star axioms", "central element v"]
            # S(b_i) = b_{i*} squares to the identity: the canonical g is 1
            self._dual = DualStructureData.validated(self.A, S, self.A.unit)
            ck.append("dual structure (S, g)")
        elif kind == "groupoid":
            d = fio.load_groupoid_v1(path)
            Gd = GroupoidData.validated(d["objects"], d["arrows"], d["compose"])
            ck.append("groupoid axioms")
            self.W, self._dual = groupoid_weak_hopf(Gd, tol)
        elif kind == "algebra":
            d = fio.load_algebra_v1(path)
            self.A = build_algebra(d["structure"], d["unit"], d["star"], tol)
            ck += ["algebra axioms", "star axioms"]
        elif kind == "coalgebra":
            d = fio.load_coalgebra_v1(path)
            self.C = FDStarCoalgebra(d["Delta"], d["counit"], d["star"], tol)
            ck += ["coassociativity", "counit laws", "co-star axiom"]
        else:
            raise SchemaError(f"unknown kind {kind!r}")
        if self.W is not None:
            self.A = self.W.algebra
            ck += ["algebra axioms", "star axioms", "comultiplication axioms",
                   "dual structure (S, g)"]

    @property
    def dual(self) -> DualStructureData:
        if self._dual is None:
            raise SchemaError("this kind carries no canonical dual structure; "
                              "use kinds group, scheme, groupoid or double")
        return self._dual

    @cached_property
    def parts(self) -> list:
        if self.A is None:
            raise SchemaError("this kind carries no algebra to decompose; "
                              "use kinds group, scheme, groupoid, double or "
                              "algebra")
        return decompose(regular_representation(self.A), seed=self.seed)

    @cached_property
    def report(self) -> IndicatorReport:
        return full_report(self.A, self.dual, self.parts,
                           self.A.separability_idempotent)


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


def _cmd_verify(args, run: Run) -> str:
    lines = [f"{name}: ok" for name in run.checks]
    if run.A is not None:
        ok = run.A.trace_form[1]
        lines.append(f"C*-norm (positive trace form): {'ok' if ok else 'FAIL'}")
    if run.W is not None:
        run.W.haar_integral()
        lines.append("Haar integral: ok")
    if args.format == "json":
        return json.dumps({"checks": lines}, indent=2, sort_keys=True)
    return "\n".join(lines)


def _cmd_irreps(args, run: Run) -> str:
    rows = [{"index": i, "dim": V.dim, "multiplicity": m,
             "character": _cvec(V.character())}
            for i, (V, m) in enumerate(run.parts)]
    if args.format == "json":
        return json.dumps({"irreps": rows}, indent=2, sort_keys=True)
    if args.format == "csv":
        out = ["index,dim,multiplicity"]
        out += [f"{r['index']},{r['dim']},{r['multiplicity']}" for r in rows]
        return "\n".join(out)
    return "\n".join(
        f"irrep {r['index']}: dim {r['dim']}, multiplicity {r['multiplicity']}"
        for r in rows)


def _cmd_indicators(args, run: Run) -> str:
    report = run.report
    if args.format == "json":
        return report.to_json()
    if args.format == "csv":
        return report.to_csv()
    return "\n".join(f"irrep {r.index}: dim {r.dim}, nu {r.nu_formula:+d}, "
                     f"sigma {r.sigma:+d}, {r.as_dict()['type']}"
                     for r in report.rows)


def _cmd_classify(args, run: Run) -> str:
    dual, parts = run.dual, run.parts
    R = real_form_from_S(run.A, dual.S)
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


def _cmd_duality(args, run: Run) -> str:
    A, dual, report = run.A, run.dual, run.report
    C = dualize(A)
    cd = compact_decompose(C, parts=run.parts)
    co = corep_indicators(C, cd.blocks, dual.S.matrix.T, dual.g, cd.E)
    pairs = [(cval, row.nu_formula) for cval, row in zip(co, report.rows)]
    gaps = np.array([abs(cval - aval) for cval, aval in pairs])
    n_ok, total = int((gaps <= A.tol.eps_round).sum()), len(cd.blocks)
    require(AgreementFailure, f"algebra/coalgebra indicators agree on "
            f"{n_ok}/{total} irreducibles: {pairs}", gaps, A.tol.eps_round)
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
        run = Run(args.kind, args.input, tol, args.seed)
        text = COMMANDS[args.command](args, run)
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
