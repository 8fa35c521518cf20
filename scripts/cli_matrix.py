"""Runs the CLI over a fixed matrix of inputs, in-process, and writes every
run's exit code, stdout and stderr to one JSON file; compares two such
files.

    python3 scripts/cli_matrix.py <src-dir> <out.json>
    python3 scripts/cli_matrix.py compare <a.json> <b.json>

<src-dir> is the directory that holds the `fsclass` package (`src` of a
checkout).  The matrix is the commands verify, irreps, indicators, classify
and duality, each with `--format json`, over every file in data/ as its own
kind plus the Drinfeld doubles of z2, z3, z4, s3, q8 and d4, under seeds 0
and 5: 270 runs.  BLAS is pinned to one thread so that repeated runs agree
to the last bit.

`compare` checks that both files hold the same runs, with equal exit codes,
stderr and output fields (dims, multiplicities, nu, sigma, labels, verify
lines, duality counts), except that characters and `nu_formula_raw` need
only agree within TOL and a changed classify witness (`real_basis`,
`quaternion_map`) is listed, not failed: a witness is one valid choice
among many, and a change to `decompose` may change the basis of V.  Each
changed witness is counted as "equivalent" when it is the first file's
times a phase times a real invertible matrix (`real_basis`) or times a
unit scalar (`quaternion_map`), within TOL, and as "other" otherwise.
It exits 1 on any other difference.
"""
import contextlib
import io
import json
import os
import sys

import numpy as np

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data")
COMMANDS = ["verify", "irreps", "indicators", "classify", "duality"]
DOUBLES = ["z2", "z3", "z4", "s3", "q8", "d4"]
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


TOL = 1e-12
NUMERIC = {"character", "nu_formula_raw"}
WITNESSES = {"real_basis", "quaternion_map"}


def _matrix(rows) -> np.ndarray:   # `cli._cmat` rows of [re, im] pairs
    m = np.asarray(rows, dtype=float)
    return m[..., 0] + 1j * m[..., 1]


def witness_equivalent(key: str, a, b) -> bool:
    """Whether witness b is witness a times a phase times a real invertible
    matrix (`real_basis`) or times a unit scalar (`quaternion_map`), within
    TOL relative to the largest entry of b."""
    try:
        x, y = _matrix(a), _matrix(b)
        if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
            return False
        if key == "real_basis":
            m = np.linalg.solve(x, y)
            big = m.flat[np.abs(m).argmax()]
            phase = big / abs(big)
            m = phase * (m / phase).real
            if np.linalg.cond(m) > 1 / TOL:
                return False
        else:
            u = np.vdot(x, y) / np.vdot(x, x)
            if abs(abs(u) - 1) > TOL:
                return False
            m = u * np.eye(len(x))
        gap = np.abs(x @ m - y).max()
    except (ValueError, np.linalg.LinAlgError):
        return False
    return bool(gap <= TOL * max(1.0, np.abs(y).max()))


def _differences(a, b, path: str, out: dict) -> None:
    """Walks two parsed outputs and files every difference under out:
    "numeric" (the largest deviation per key), "equivalent" or "other"
    (changed witnesses) or "fail"."""
    key = path.rsplit(".", 1)[-1]
    if key in NUMERIC:
        x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if x.shape != y.shape:
            out["fail"].append(path)
            return
        worst = float(np.abs(x - y).max(initial=0.0))
        out["numeric"][key] = max(out["numeric"].get(key, 0.0), worst)
        if worst > TOL:
            out["fail"].append(f"{path} off by {worst:.2e}")
    elif key in WITNESSES:
        if a != b:
            kind = "equivalent" if witness_equivalent(key, a, b) else "other"
            out[kind].append(path)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in sorted(a):
            _differences(a[k], b[k], f"{path}.{k}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _differences(x, y, f"{path}[{i}]", out)
    elif a != b:
        out["fail"].append(path)


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    out = {"numeric": {}, "equivalent": [], "other": [], "fail": []}
    for run in sorted(a.keys() | b.keys()):
        if run not in a or run not in b:
            out["fail"].append(f"{run}: only in one file")
            continue
        (code_a, stdout_a, err_a), (code_b, stdout_b, err_b) = a[run], b[run]
        if code_a != code_b or err_a != err_b:
            out["fail"].append(f"{run}: exit code or stderr")
        elif stdout_a != stdout_b:
            parsed = [json.loads(s) if code_a == 0 else s
                      for s in (stdout_a, stdout_b)]
            _differences(*parsed, run, out)
    same = sum(a[r] == b.get(r) for r in a)
    print(f"{len(a)} runs, {same} byte-identical")
    for key, dev in sorted(out["numeric"].items()):
        print(f"largest {key} deviation: {dev:.2e}")
    print(f"changed witnesses: {len(out['equivalent'])} equivalent, "
          f"{len(out['other'])} other")
    for kind in ("equivalent", "other"):
        for path in out[kind]:
            print(f"witness changed ({kind}): {path}")
    for path in out["fail"]:
        print(f"FAIL: {path}")
    return 1 if out["fail"] else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
