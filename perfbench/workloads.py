"""Workload inputs, generated from the seed, and the command list of a pass.

Only the rebasings and the per-command --seed values depend on the seed;
every answer must not.  A command is a dict with the user-facing command
name, an input description and a callable run(tracer) that a fresh forked
child executes.
"""
from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np

GROUPS = ["z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
          "s3", "s4", "d4", "q8"]
DOUBLES = ["z2", "z3", "z4"]
GROUPOIDS = ["pair2_groupoid", "pair3_groupoid", "pair4_groupoid",
             "two_z2_groupoid"]
SCHEMES = ["c5_scheme", "petersen_scheme"]
DUAL_COMMANDS = ["verify", "irreps", "indicators", "classify", "duality"]
TIMED = ["indicators", "classify", "duality"]
# Dijkgraaf-Pasquier-Roche: an irreducible of D(G) is a conjugacy class with
# an irreducible of its centraliser, of dimension [G:C_G(g)] dim(pi).
DPR_DIMS = {"z2": [1] * 4, "z3": [1] * 9, "z4": [1] * 16,
            "s3": [1, 1, 2, 2, 2, 2, 3, 3]}


def _group(root: str, name: str) -> dict:
    with open(os.path.join(root, "data", name + ".json")) as fh:
        return json.load(fh)


def _command_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31, n)]


def random_unitary(rng, n: int, complex_: bool) -> np.ndarray:
    z = rng.standard_normal((n, n))
    if complex_:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rebase(c, unit, sigma, P):
    """Structure data on the basis f_j = sum_i P[i, j] e_i."""
    Pinv = np.linalg.inv(P)
    c2 = np.einsum("ia,jb,ijk,ck->abc", P, P, c, Pinv, optimize=True)
    return c2, Pinv @ unit, Pinv @ sigma @ np.conj(P)


def group_algebra_data(g: dict):
    n = g["order"]
    t = np.asarray(g["table"])
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n)[:, None], np.arange(n)[None, :], t] = 1.0
    sigma = np.zeros((n, n), dtype=complex)
    sigma[g["inverse"], np.arange(n)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    return c, unit, sigma


def double_data(g: dict):
    """D(G) on delta_g (x) h, index g |G| + h: structure, unit, star, S."""
    m = g["order"]
    t, inv = np.asarray(g["table"]), np.asarray(g["inverse"])
    n = m * m
    c = np.zeros((n, n, n), dtype=complex)
    sigma = np.zeros((n, n), dtype=complex)
    S = np.zeros((n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    unit[np.arange(m) * m] = 1.0
    for a in range(m):
        for h in range(m):
            conj = t[t[inv[h], a], h]                  # h^-1 a h
            c[a * m + h, conj * m + np.arange(m), a * m + t[h]] = 1.0
            sigma[conj * m + inv[h], a * m + h] = 1.0
            S[t[t[inv[h], inv[a]], h] * m + inv[h], a * m + h] = 1.0
    return c, unit, sigma, S


def write_algebra(path: str, c, unit, sigma) -> None:
    """algebra_v1 JSON; star entry (i, k) is sigma[k, i]."""
    n = len(unit)

    def cx(v):
        return {"re": float(v.real), "im": float(v.imag)}
    doc = {"dim": n,
           "unit": [[float(v.real), float(v.imag)] for v in unit],
           "structure": [{"i": int(i), "j": int(j), "k": int(k), **cx(c[i, j, k])}
                         for i, j, k in zip(*np.nonzero(c))],
           "star": [{"i": int(i), "k": int(k), **cx(sigma[k, i])}
                    for k, i in zip(*np.nonzero(sigma))]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def cli_command(command, path, kind, cseed, **info):
    """`fsclass <command> <path> --kind <kind> --seed <cseed> --format json`
    as a command dict; info carries what the checker needs."""
    argv = [command, path, "--kind", kind, "--seed", str(cseed),
            "--format", "json"]

    def run(tracer=None):
        from fsclass import cli
        if tracer is not None:
            from tracing import patch_cli
            patch_cli(tracer)
        return cli.main(argv)
    return {"command": command, "label": f"{command} {kind} "
            f"{os.path.basename(path)}", "seed": cseed, "run": run, **info}


def corpus(root: str, work: str, seed: int) -> list[dict]:
    entries = []
    for name in GROUPS:
        entries.append(("group", name, DUAL_COMMANDS, _group(root, name)))
    for name in DOUBLES:
        entries.append(("double", name, DUAL_COMMANDS, None))
    for name in GROUPOIDS:
        entries.append(("groupoid", name, DUAL_COMMANDS, None))
    for name in SCHEMES:
        entries.append(("scheme", name, DUAL_COMMANDS, None))
    entries.append(("algebra", "m2_algebra", ["verify", "irreps"], None))
    entries.append(("coalgebra", "m2_coalgebra", ["verify"], None))
    # C[Q8] rebased by a seeded complex unitary: its star has non-real
    # entries, which is what the known defect in reps.py trips over.
    U = random_unitary(np.random.default_rng([seed, 2]), 8, complex_=True)
    q8_path = os.path.join(work, "q8_unitary.json")
    write_algebra(q8_path, *rebase(*group_algebra_data(_group(root, "q8")), U))
    n_cmds = sum(len(cmds) for _, _, cmds, _ in entries) + 2
    seeds = iter(_command_seeds(seed, n_cmds))
    out = []
    for kind, name, cmds, group in entries:
        path = os.path.join(root, "data", name + ".json")
        for cmd in cmds:
            out.append(cli_command(cmd, path, kind, next(seeds),
                                   key=f"{kind}:{name}", group=group,
                                   basis=None, ordered=True))
    for cmd in ["verify", "irreps"]:
        out.append(cli_command(cmd, q8_path, "algebra", next(seeds),
                               key="algebra:q8_unitary",
                               group=_group(root, "q8"), basis=U,
                               ordered=False))
    return out


def double_s3(root: str, work: str, seed: int) -> list[dict]:
    path = os.path.join(root, "data", "s3.json")
    return [cli_command(cmd, path, "double", s, key="double:s3", group=None,
                        basis=None, ordered=True)
            for cmd, s in zip(TIMED, _command_seeds(seed, len(TIMED)))]


def double_s3_dense(root: str, work: str, seed: int) -> list[dict]:
    """D(S3) rebased by a seeded real orthogonal O, as a dense algebra file
    plus its antipode; g of D(G) is the unit, so its transport is O^T 1."""
    c, unit, sigma, S = double_data(_group(root, "s3"))
    O = random_unitary(np.random.default_rng([seed, 3]), len(unit), complex_=False)
    c2, unit2, sigma2 = rebase(c, unit, sigma, O)
    path = os.path.join(work, "ds3_dense.json")
    write_algebra(path, c2, unit2, sigma2)
    s_path = os.path.join(work, "ds3_dense_S.npy")
    np.save(s_path, O.T @ S @ O)
    out = []
    for cmd, s in zip(TIMED, _command_seeds(seed, len(TIMED))):
        out.append({"command": cmd, "label": f"{cmd} dense D(S3)", "seed": s,
                    "run": _dense_runner(cmd, path, s_path, s),
                    "key": "double:s3", "group": None, "basis": None,
                    "ordered": False, "g": unit2})
    return out


WORKLOADS = {"corpus": corpus, "double_s3": double_s3,
             "double_s3_dense": double_s3_dense}


def _dense_runner(command, path, s_path, cseed):
    def run(tracer=None):
        print(dense_command(command, path, s_path, cseed, dense_api(tracer)))
        return 0
    return run


def dense_api(tracer=None) -> SimpleNamespace:
    """The public library calls the dense stage sequence makes, wrapped in
    spans when a tracer is given."""
    import fsclass
    from fsclass import io as fio
    calls = {"load_algebra_v1": (fio.load_algebra_v1, "io.load"),
             "build_algebra": (fsclass.build_algebra, "algebra.build_algebra"),
             "validated_S": (fsclass.AntiAlgebraMap.validated,
                             "algebra.build_algebra"),
             "regular_representation": (fsclass.regular_representation,
                                        "reps.regular_representation"),
             "decompose": (fsclass.decompose, "reps.decompose"),
             "canonical_g": (fsclass.canonical_g, "indicators.canonical_g"),
             "separability_idempotent": (fsclass.separability_idempotent,
                                         "algebra.separability_idempotent"),
             "full_report": (fsclass.full_report, "indicators.full_report"),
             "real_form_from_S": (fsclass.real_form_from_S, "algebra.real_form"),
             "classify_sigma": (fsclass.classify_sigma,
                                "indicators.classify_sigma"),
             "dualize": (fsclass.dualize, "coalgebra.dualize"),
             "compact_decompose": (fsclass.compact_decompose,
                                   "coalgebra.compact_decompose"),
             "corep_indicator": (fsclass.corep_indicator,
                                 "coalgebra.corep_indicator"),
             "dumps": (json.dumps, "cli.format")}
    return SimpleNamespace(**{name: tracer.wrap(span, fn) if tracer else fn
                              for name, (fn, span) in calls.items()})


def _cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


def dense_command(command, path, s_path, cseed, api) -> str:
    """What `fsclass <command>` would do if --kind algebra took an antipode:
    load, build, decompose, canonical g, then the command's own stages."""
    d = api.load_algebra_v1(path)
    A = api.build_algebra(d["structure"], d["unit"], d["star"])
    S = api.validated_S(A, np.load(s_path))
    parts = api.decompose(api.regular_representation(A), seed=cseed)
    dual = api.canonical_g(A, S, [V for V, _ in parts])
    if command in ("indicators", "duality"):
        report = api.full_report(A, dual, parts, api.separability_idempotent(A))
    if command == "indicators":
        text = api.dumps(report.as_dict(), sort_keys=True, indent=2)
    elif command == "classify":
        R = api.real_form_from_S(A, dual.S)
        rows = []
        for i, (V, _) in enumerate(parts):
            res = api.classify_sigma(V, R)
            row = {"index": i, "dim": V.dim, "sigma": res.sigma}
            if res.sigma == 1:
                row["real_basis"] = [_cvec(r) for r in res.witness]
            elif res.sigma == -1:
                row["quaternion_map"] = [_cvec(r) for r in res.j_matrix]
            rows.append(row)
        text = api.dumps({"irreps": rows}, indent=2, sort_keys=True)
    else:
        C = api.dualize(A)
        cd = api.compact_decompose(C, seed=cseed)
        n_ok = 0
        for i, block in enumerate(cd.blocks):
            cval = api.corep_indicator(C, block, dual.S.matrix.T, dual.g, cd.E)
            n_ok += abs(cval - report.rows[i].nu_formula) <= A.tol.eps_round
        text = api.dumps({"agree": int(n_ok), "total": len(cd.blocks)},
                         indent=2, sort_keys=True)
    return json.dumps({"output": text, "canonical_g": _cvec(dual.g)})
