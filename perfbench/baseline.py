"""One traced pass per instance of the ROADMAP baseline ladder.

    python3 perfbench/baseline.py    # D(S3), then D(Q8) (minutes)

D(S3) (dim 36) runs `indicators`, `classify` and `duality`; D(Q8) (dim 64)
runs `indicators` only, whose stages are the ROADMAP's D(Q8) row (about
104 s untraced on a 2-core machine).  Both print the same span names as the
benchmark's traced runs, with calls and self time per span (timed spans,
no tracemalloc) and each command's wall time.
"""
import os
import shutil
import sys

import run

INSTANCES = [("s3", ("indicators", "classify", "duality")),
             ("q8", ("indicators",))]


def main() -> int:
    work = os.path.join(run.OUT, "baseline")
    run.setup("double_s3", 0, work)
    from tracing import SPANS
    from workloads import cli_command
    failed = 0
    try:
        for group, commands in INSTANCES:
            path = os.path.join(run.ROOT, "data", group + ".json")
            print(f"D({group.upper()}), traced:")
            results = []
            for cid, c in enumerate(commands):
                res = run.run_command(cli_command(c, path, "double", 0), cid,
                                      work, traced="time", timeout=1800)
                print(f"  {c:10s} wall {res['wall_s']:8.2f} s  exit {res['exit']}")
                failed += res["exit"] != 0
                results.append(res)
            own, calls, _ = run.span_totals(results)
            print(f"  {'span':32s} {'calls':>6s} {'self s':>9s}")
            for s in SPANS:
                print(f"  {s:32s} {calls[s]:6d} {own[s]:9.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
