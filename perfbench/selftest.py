"""Self-test of the benchmark's checker and of its seeding.

    python3 perfbench/selftest.py

1. Corrupts one nu, one sigma and one dim in real command outputs and shows
   that each is counted as a failure (and that the untouched outputs pass).
2. Generates two seeds' inputs, shows that the rebasings and the --seed
   values passed to commands differ, runs the seed-dependent commands under
   both and shows that the answers are identical.
Exits 0 when every expectation holds.
"""
import json
import os
import shutil
import sys

import run  # first: it caps BLAS threads before numpy loads

import numpy as np

SEEDS = (101, 202)


def main() -> int:
    work = os.path.join(run.OUT, "selftest")
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        ok &= bool(cond)
        print(f"{'ok  ' if cond else 'FAIL'} {what}")

    try:
        from checks import load_reference, problems
        ref = load_reference()
        by_seed = {s: run.setup("corpus", s, os.path.join(work, str(s)))
                   + run.setup("double_s3_dense", s, os.path.join(work, str(s)))
                   for s in SEEDS}

        # 1. corrupted outputs
        cmds = {c["label"]: c for c in by_seed[SEEDS[0]]}
        corrupt = [("indicators group q8.json", "nu_formula"),
                   ("classify group q8.json", "sigma"),
                   ("irreps group q8.json", "dim")]
        for label, field in corrupt:
            cmd = cmds[label]
            res = run.run_command(cmd, 0, work, traced=None)
            expect(not problems(cmd, res["exit"], res["stdout"], ref[cmd["key"]]),
                   f"{label}: genuine output passes")
            doc = json.loads(res["stdout"])
            row = doc["irreps"][-1]
            row[field] = {"nu_formula": -row.get(field, 1), "sigma": 0,
                          "dim": row[field] + 1}[field]
            found = problems(cmd, 0, json.dumps(doc), ref[cmd["key"]])
            expect(found, f"{label}: corrupted {field} counts as a failure "
                          f"({'; '.join(found)})")

        # 2. different seeds, same answers
        a, b = (by_seed[s] for s in SEEDS)
        with open(os.path.join(work, str(SEEDS[0]), "q8_unitary.json")) as f1, \
                open(os.path.join(work, str(SEEDS[1]), "q8_unitary.json")) as f2:
            expect(f1.read() != f2.read(), "complex rebasings of C[Q8] differ")
        expect(not np.allclose(a[-1]["g"], b[-1]["g"]),
               "real orthogonal rebasings of D(S3) differ")
        expect([c["label"] for c in a] == [c["label"] for c in b],
               "both seeds run the same commands")
        expect([c["seed"] for c in a] != [c["seed"] for c in b],
               "the --seed values passed to commands differ")
        picked = [i for i, c in enumerate(a)
                  if "q8_unitary" in c["label"] or c["label"] in (
                      "indicators double z4.json", "duality group s4.json",
                      "irreps scheme petersen_scheme.json",
                      "classify dense D(S3)")]
        answers = {}
        for s, cmds_s in ((SEEDS[0], a), (SEEDS[1], b)):
            outs = []
            for i in picked:
                cmd = cmds_s[i]
                res = run.run_command(cmd, i, work, traced=None)
                found = problems(cmd, res["exit"], res["stdout"], ref[cmd["key"]])
                outs.append((cmd["label"], res["exit"], _answers(cmd, res)))
                known = cmd["label"] == "irreps algebra q8_unitary.json"
                expect(bool(found) == known,
                       f"seed {s}: {cmd['label']} "
                       f"{'fails as known' if known else 'passes'}")
            answers[s] = outs
        expect(answers[SEEDS[0]] == answers[SEEDS[1]],
               "answers are identical under both seeds")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def _answers(cmd, res):
    from checks import parse
    if res["exit"] != 0:
        return None
    got = parse(cmd, res["stdout"])[0]
    return got if cmd["ordered"] or cmd["command"] in ("verify", "duality") \
        else sorted(got)


if __name__ == "__main__":
    sys.exit(main())
