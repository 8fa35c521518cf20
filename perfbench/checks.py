"""Output checks: recorded reference answers plus independent oracles.

A command fails when it exits non-zero, raises, or prints an answer that
differs from the reference or from an applicable oracle:
  - group inputs: (1/|G|) sum_h chi(h^2) from the group table, on the
    characters `irreps --format json` prints;
  - sum of dim * multiplicity equals the algebra dimension;
  - Drinfeld doubles: the Dijkgraaf-Pasquier-Roche dimension list;
  - nu_formula = nu_trace = sigma, and duality agreeing on every irreducible;
  - the dense D(S3): answers equal to D(S3) as a multiset, and canonical_g
    equal to the transported g.
"""
from __future__ import annotations

import json
import os

import numpy as np

from workloads import DPR_DIMS

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["inputs"]


def parse(cmd: dict, text: str):
    """The answers a command printed: (rows or lines, characters, extra)."""
    doc = json.loads(text)
    g = None
    if "canonical_g" in doc:                 # dense stage output
        g = np.array([complex(*z) for z in doc["canonical_g"]])
        doc = json.loads(doc["output"])
    c = cmd["command"]
    if c == "verify":
        return doc["checks"], None, g
    if c == "duality":
        return [doc["agree"], doc["total"]], None, g
    rows = doc["irreps"]
    if c == "irreps":
        chars = [np.array([complex(*z) for z in r["character"]]) for r in rows]
        return [[r["dim"], r["multiplicity"]] for r in rows], chars, g
    if c == "indicators":
        return [[r["dim"], r["multiplicity"], r["nu_formula"], r["nu_trace"],
                 r["sigma"]] for r in rows], None, g
    return [[r["dim"], r["sigma"]] for r in rows], None, g


def expected(command: str, ref: dict):
    rows = ref.get("irreps")
    if command == "verify":
        return ref["verify"]
    if command == "duality":
        return ref["duality"]
    if command == "irreps":
        return [r[:2] for r in rows]
    if command == "indicators":
        return rows
    return [[r[0], r[4]] for r in rows]


def classical_nu(group: dict, chi: np.ndarray, basis) -> int:
    """(1/|G|) sum_h chi(h^2); chi is on the command's basis, which is the
    group basis unless the algebra was rebased by `basis`."""
    if basis is not None:
        chi = np.linalg.inv(basis).T @ chi
    t = np.asarray(group["table"])
    val = sum(chi[t[h, h]] for h in range(group["order"])) / group["order"]
    r = int(round(val.real))
    if abs(val - r) > 1e-6:
        raise ValueError(f"classical indicator {val} is not an integer")
    return r


def problems(cmd: dict, exit_code: int, text: str, ref: dict) -> list[str]:
    """Everything wrong with one command's result; empty means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        got, chars, g = parse(cmd, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    c, out = cmd["command"], []
    want = expected(c, ref)
    if c in ("verify", "duality") or cmd["ordered"]:
        same = got == want
    else:
        same = sorted(got) == sorted(want)
    if not same:
        out.append(f"answer {got} != reference {want}")
    if c in ("irreps", "indicators"):
        if sum(r[0] * r[1] for r in got) != ref["dim"]:
            out.append("sum of dim * multiplicity != algebra dimension")
    if c in ("irreps", "indicators", "classify") and ref.get("dpr"):
        if sorted(r[0] for r in got) != DPR_DIMS[ref["dpr"]]:
            out.append("dimensions differ from the DPR list")
    if c == "indicators" and any(not (r[2] == r[3] == r[4]) for r in got):
        out.append("nu_formula, nu_trace and sigma disagree")
    if c == "duality" and not (got[0] == got[1] == len(ref["irreps"])):
        out.append("duality does not agree on every irreducible")
    if chars is not None and cmd.get("group") is not None:
        try:
            mine = sorted([r[0], r[1], classical_nu(cmd["group"], x, cmd["basis"])]
                          for r, x in zip(got, chars))
        except ValueError as exc:
            out.append(str(exc))
        else:
            if mine != sorted(r[:3] for r in ref["irreps"]):
                out.append("classical group indicator differs from reference")
    if cmd.get("g") is not None:
        if g is None or np.abs(g - cmd["g"]).max() > 1e-8 * (1 + np.abs(g).max()):
            out.append("canonical_g differs from the transported g")
    return out
