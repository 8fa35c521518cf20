"""Runs the CLI over a fixed matrix of inputs, in-process, and writes every
run's exit code, stdout and stderr to one JSON file, so that two versions of
the source can be compared with a plain diff.

    python3 scripts/cli_matrix.py <src-dir> <out.json>

<src-dir> is the directory that holds the `fsclass` package (`src` of a
checkout).  The matrix is the commands verify, irreps, indicators, classify
and duality, each with `--format json`, over every file in data/ as its own
kind plus the Drinfeld doubles of z2, z3, z4, s3 and q8, under seeds 0
and 5: 260 runs.  BLAS is pinned to one thread so that repeated runs agree
to the last bit.
"""
import contextlib
import io
import json
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data")
COMMANDS = ["verify", "irreps", "indicators", "classify", "duality"]
DOUBLES = ["z2", "z3", "z4", "s3", "q8"]
SEEDS = [0, 5]


def kind_of(name: str) -> str:
    for suffix in ("scheme", "groupoid", "algebra", "coalgebra"):
        if name.endswith("_" + suffix + ".json"):
            return suffix
    return "group"


def inputs() -> list[tuple[str, str]]:
    out = [(name, kind_of(name)) for name in sorted(os.listdir(DATA))
           if name.endswith(".json")]
    return out + [(g + ".json", "double") for g in DOUBLES]


def main(src: str, out_path: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    from fsclass import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        print(f"fsclass was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 1
    runs = {}
    for name, kind in inputs():
        for command in COMMANDS:
            for seed in SEEDS:
                argv = [command, os.path.join(DATA, name), "--kind", kind,
                        "--seed", str(seed), "--format", "json"]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                runs[f"{command} {kind} {name} seed={seed}"] = [
                    code, stdout.getvalue(), stderr.getvalue()]
    with open(out_path, "w") as fh:
        json.dump(runs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(runs)} runs written to {out_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
