"""Times the library pipeline, stage by stage, on Drinfeld doubles past the
CLI's dense cap: D(A4) (dim 144), D(D8) (256) and D(S4) (576).

    python3 scripts/ladder.py [A4] [D8] [S4]

With no names it runs all three.  Each instance runs in a child process of
its own, which raises `fsclass.algebra.DENSE_DIM_CAP` past the double's
dimension (only there: the CLI keeps refusing these inputs) and pins BLAS
to one thread.  The child runs build, regular representation, the
separability idempotent, decompose, full_report, compact_decompose and
corep_indicators, the stages of `fsclass duality`, then `canonical_g` from
the irreducibles (which the CLI does not run: a double's g is the unit).
`decompose` reads its central element and its pairing off the kept E, so
E is built first, as a stage of its own: otherwise its cost would land in
`decompose` and the separability column would read 0.
It reports the seconds of each, sum nu(V) dim V against Tr(S)
(Linchenko-Montgomery), whether the coalgebra indicators agree with nu,
and its own max RSS.  Exit 1 when an instance fails, disagrees or its sum
misses Tr(S).
"""
import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
GROUPS = {"A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
          "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [7, 6, 5, 4, 3, 2, 1, 0]],
          "S4": [[1, 2, 3, 0], [1, 0, 2, 3]]}
STAGES = ["build", "regular_rep", "separability", "decompose", "full_report",
          "compact_decompose", "corep_indicators", "canonical_g"]


def child(name: str) -> dict:
    sys.path.insert(0, SRC)
    import numpy as np
    import fsclass.algebra
    from fsclass import (canonical_g, compact_decompose, decompose,
                         drinfeld_double, dualize, full_report,
                         group_from_permutations, regular_representation)
    from fsclass.coalgebra import corep_indicators
    G = group_from_permutations(GROUPS[name])
    fsclass.algebra.DENSE_DIM_CAP = G.order ** 2
    seconds, t = {}, time.perf_counter()

    def lap(stage):
        nonlocal t
        now = time.perf_counter()
        seconds[stage], t = now - t, now
    W, dual = drinfeld_double(G)
    A = W.algebra
    lap("build")
    V = regular_representation(A)
    lap("regular_rep")
    E = A.separability_idempotent
    lap("separability")
    parts = decompose(V)
    lap("decompose")
    rows = full_report(A, dual, parts, E).rows
    lap("full_report")
    C = dualize(A)
    cd = compact_decompose(C, parts=parts)
    lap("compact_decompose")
    co = corep_indicators(C, cd.blocks, dual.S.matrix.T, dual.g, cd.E)
    lap("corep_indicators")
    canonical_g(A, dual.S, [V for V, _ in parts])
    lap("canonical_g")
    return {"n": A.dim, "irreps": len(rows), "seconds": seconds,
            "sum_nu_dim": sum(r.nu_formula * r.dim for r in rows),
            "trace_S": float(np.trace(dual.S.matrix).real),
            "agree": all(abs(c - r.nu_formula) <= A.tol.eps_round
                         for c, r in zip(co, rows)),
            "max_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(names: list[str]) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    print(" | ".join(["instance", "n", "irreps"] + STAGES
                     + ["total", "sum nu dim V = Tr(S)", "duality",
                        "max RSS"]))
    status = 0
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--child", name],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            print(f"D({name}) | failed: {proc.stderr.strip()}")
            status = 1
            continue
        r = json.loads(proc.stdout)
        s = r["seconds"]
        ok = r["sum_nu_dim"] == round(r["trace_S"]) and r["agree"]
        status |= not ok
        print(" | ".join([f"D({name})", str(r["n"]), str(r["irreps"])]
                         + [f"{s[k]:.3f}" for k in STAGES]
                         + [f"{sum(s.values()):.2f}",
                            f"{r['sum_nu_dim']} = {r['trace_S']:.0f}",
                            "agree" if r["agree"] else "DISAGREE",
                            f"{r['max_rss_mb']:.0f} MB"]))
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(sys.argv[2])))
    else:
        args = sys.argv[1:] or list(GROUPS)
        unknown = [a for a in args if a not in GROUPS]
        if unknown:
            sys.exit(f"unknown instance {unknown[0]}; choose from "
                     f"{', '.join(GROUPS)}")
        sys.exit(main(args))
