"""Records reference.json: the answers of one pass over corpus and double_s3,
cross-checked against every oracle in checks.py before they are written.

    python3 perfbench/record.py

Answers do not depend on the seed, so seed 0 is used.  The complex-rebased
C[Q8] gets the answers of C[Q8] itself, since they do not depend on the
basis either (its `irreps` exits 2 in the current code; see NOTES.md).
"""
import itertools
import json
import os
import shutil
import sys

import run

SEED = 0


def input_dim(key: str) -> int:
    kind, name = key.split(":")
    with open(os.path.join(run.ROOT, "data", name + ".json")) as fh:
        doc = json.load(fh)
    return {"group": lambda: doc["order"], "double": lambda: doc["order"] ** 2,
            "groupoid": lambda: len(doc["arrows"]),
            "scheme": lambda: doc["classes"], "algebra": lambda: doc["dim"],
            "coalgebra": lambda: doc["dim"]}[kind]()


def main() -> int:
    work = os.path.join(run.OUT, "record")
    try:
        cmds = run.setup("corpus", SEED, work)
        cmds += run.setup("double_s3", SEED, work)
        results = run.run_passes(cmds, work, 0, None,
                                  itertools.count())[0]["commands"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from checks import parse, problems
    ref = {}
    for cmd, res in zip(cmds, results):
        key = cmd["key"]
        if key == "algebra:q8_unitary":
            continue
        entry = ref.setdefault(key, {"dim": input_dim(key)})
        if key.startswith("double:"):
            entry["dpr"] = key.split(":")[1]
        if res["exit"] != 0:
            print(f"{cmd['label']} exited {res['exit']}: {res['stderr']}")
            return 1
        got = parse(cmd, res["stdout"])[0]
        if cmd["command"] == "indicators":
            entry["irreps"] = got
        elif cmd["command"] in ("verify", "duality"):
            entry[cmd["command"]] = got
        elif cmd["command"] == "irreps" and "irreps" not in entry:
            entry["irreps"] = [r + [None, None, None] for r in got]
    ref["algebra:q8_unitary"] = {"dim": 8, "irreps": ref["group:q8"]["irreps"],
                                 "verify": ["algebra axioms: ok",
                                            "star axioms: ok",
                                            "C*-norm (positive trace form): ok"]}
    bad = 0
    for cmd, res in zip(cmds, results):
        found = problems(cmd, res["exit"], res["stdout"], ref[cmd["key"]])
        if found:
            bad += 1
            print(f"{cmd['label']}: {'; '.join(found)}")
    lines = [f"  {json.dumps(k)}: {json.dumps(ref[k], sort_keys=True)}"
             for k in sorted(ref)]
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        fh.write('{"note": "answers of one pass at seed 0, checked by '
                 'perfbench/record.py",\n "inputs": {\n'
                 + ",\n".join(lines) + "\n}}\n")
    print(f"wrote reference.json; {bad} command(s) failed a check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
