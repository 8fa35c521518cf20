"""fsclass benchmark: user-facing command times on seeded workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 45 --trace 0

Run from the repository root (or anywhere; paths are taken from this file).
The program is used straight from ./src, so nothing is built.

Traffic model: one client, closed loop.  The parent process imports fsclass
and generates the workload's inputs; every command then runs in a child
forked from that parent, so it starts with no fsclass state left by an
earlier command, exactly as a fresh `fsclass ...` process would, minus the
interpreter start and imports.  A pass runs every command of the workload
once, one at a time.  Passes repeat until --seconds is used up, to the
nearest whole pass (at least one); metrics are medians over passes.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
separate traced run (spans at the CLI -> module boundary, see tracing.py):
one untraced pass, passes with timed spans until --seconds is used up, and
one pass with tracemalloc peaks per span.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Spans, per-command results, raw times, the speed factor (speed.py) and the
machine record go to
.perfbench_out/result-<workload>-<seed>-<trace>.json.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# BLAS threads are capped before numpy loads: each command runs on one core,
# which never exceeds nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 150


def setup(workload: str, seed: int, work: str) -> list[dict]:
    """Imports fsclass and generates the workload's inputs from the seed."""
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
    import fsclass  # noqa: F401
    from workloads import WORKLOADS
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[workload](ROOT, work, seed)


def probe_setup(workload: str, seed: int) -> None:
    """Fresh-process set-up time, measured from this script's first line."""
    work = os.path.join(OUT, f"probe-{os.getpid()}")
    setup(workload, seed, work)
    elapsed = time.perf_counter() - T_START
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


class SetupProbes:
    """Fresh-process set-up times.  Each probe is paired with a reference
    process that imports numpy and scipy.linalg, timed just before it: on
    the shared 2-core machine of speed.py a fresh interpreter's cost drifts
    by up to half between processes a second apart, the pair drifts
    together (over 16 pairs the probe's spread was 0.34 of its median, the
    probe-to-reference ratio's 0.10), and the forked kernel of speed.py
    does not follow it.  The pairs
    are taken between the commands of the timed passes, one per `every`
    seconds of command time, the rest after the last pass; their wall time
    is kept in `spent` so that the passes can leave it out of their budget."""

    REFERENCE = [sys.executable, "-c", "import numpy, scipy.linalg"]
    REFERENCE_NOMINAL_S = 0.5   # about its median on that machine

    def __init__(self, workload: str, seed: int, every: float):
        self.argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.every = every
        self.times: list[float] = []
        self.reference: list[float] = []
        self.spent = 0.0
        self._since = every

    def _probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.REFERENCE, cwd=ROOT, check=True, timeout=120)
        self.reference.append(time.perf_counter() - t0)
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        self.times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        self.spent += time.perf_counter() - t0

    def poll(self, command_s: float) -> None:
        self._since += command_s
        if self._since >= self.every and len(self.times) < SETUP_PROBES:
            self._since = 0.0
            self._probe()

    def finish(self) -> None:
        while len(self.times) < SETUP_PROBES:
            self._probe()

    def normalised(self) -> float:
        """Median probe time at the speed where the reference takes
        REFERENCE_NOMINAL_S."""
        return self.REFERENCE_NOMINAL_S * statistics.median(
            t / r for t, r in zip(self.times, self.reference))


def run_command(cmd: dict, cid: int, work: str, traced: str | None,
                timeout: int = COMMAND_TIMEOUT_S) -> dict:
    """Runs one command in a forked child and waits for it; traced is None,
    "time" (spans only) or "memory" (spans with tracemalloc peaks)."""
    out_path = os.path.join(work, f"{cid}.out")
    err_path = os.path.join(work, f"{cid}.err")
    span_path = os.path.join(work, f"{cid}.spans")
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            signal.alarm(timeout)
            for fd, path in ((1, out_path), (2, err_path)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            if traced:
                from tracing import ROOT as ROOT_SPAN, Tracer
                tracer = Tracer(cid, memory=traced == "memory")
                code = tracer.wrap(ROOT_SPAN, cmd["run"])(tracer)
                tracer.dump(span_path)
            else:
                code = cmd["run"]()
        except BaseException:   # the child must never return into the parent
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code if isinstance(code, int) else 70)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    res = {"id": cid, "label": cmd["label"], "command": cmd["command"],
           "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
           "exit": os.waitstatus_to_exitcode(status)}
    with open(out_path) as fh:
        res["stdout"] = fh.read()
    with open(err_path) as fh:
        res["stderr"] = fh.read()[-2000:]
    if traced and os.path.exists(span_path):
        with open(span_path) as fh:
            res["spans"] = json.load(fh)
    return res


def run_passes(cmds, work, seconds, traced, ids, speed=None, probes=None):
    """Whole passes until the next one would end more than half a pass
    after `seconds`, so that the pass count is `seconds` over the pass time
    rounded to the nearest whole number (at least one); ids hands
    out command ids; speed (if given) times its kernel and probes (if
    given) takes set-up probes between commands, whose time does not count
    towards `seconds`.  A pass's wall_s is the sum of its commands' wall
    times."""
    passes, t_begin = [], time.perf_counter()
    while True:
        results = []
        for cmd in cmds:
            last = results[-1]["wall_s"] if results else 0.0
            if speed is not None:
                speed.poll(last)
            if probes is not None:
                probes.poll(last)
            results.append(run_command(cmd, next(ids), work, traced))
        passes.append({"wall_s": sum(r["wall_s"] for r in results),
                       "commands": results})
        typical = statistics.median(p["wall_s"] for p in passes)
        elapsed = time.perf_counter() - t_begin
        if probes is not None:
            elapsed -= probes.spent
        if elapsed + typical / 2 > seconds:
            return passes


def check(passes, cmds, ref) -> tuple[int, int, bool]:
    """Marks each command ok or not; returns attempted, failed, correct."""
    from checks import problems
    attempted = failed = 0
    correct = True
    for p in passes:
        for cmd, res in zip(cmds, p["commands"]):
            res["problems"] = problems(cmd, res["exit"], res["stdout"],
                                       ref[cmd["key"]])
            attempted += 1
            if res["problems"]:
                failed += 1
                correct &= res["exit"] != 0   # a crash is counted, not wrong
    return attempted, failed, correct


def end_to_end(passes, setup_s, attempted, failed) -> dict:
    from workloads import TIMED

    def med(f):
        return statistics.median(f(p) for p in passes)
    m = {"setup_s": (setup_s, "s"),
         "pass_s": (med(lambda p: p["wall_s"]), "s")}
    for c in TIMED:
        m[f"{c}_s"] = (med(lambda p: sum(r["wall_s"] for r in p["commands"]
                                         if r["command"] == c)), "s")
    m["peak_rss_mb"] = (med(lambda p: max(r["rss_mb"] for r in p["commands"])),
                        "MB")
    m["ok_frac"] = ((attempted - failed) / attempted, "frac")
    return m


def span_totals(commands: list[dict]) -> tuple[dict, dict, dict]:
    """Self time, calls and largest peak per span name over some commands."""
    from tracing import SPANS, self_times
    own = {s: 0.0 for s in SPANS}
    calls = {s: 0 for s in SPANS}
    peak = {s: 0.0 for s in SPANS}
    for r in commands:
        spans = r.get("spans", [])
        for s, t in zip(spans, self_times(spans)):
            own[s["name"]] += t
            calls[s["name"]] += 1
            peak[s["name"]] = max(peak[s["name"]], s["peak_mb"] or 0.0)
    return own, calls, peak


def per_layer(timed, memory, untraced_pass_s) -> dict:
    """Span self times and calls: medians over the timed passes; peaks:
    the tracemalloc pass."""
    from tracing import SPANS, TIME_GROUPS, TIME_SPANS
    rows = [span_totals(p["commands"]) for p in timed]

    def med(f):
        return statistics.median(f(row) for row in rows)
    m = {}
    for s in TIME_SPANS:
        m[f"{s}.s"] = (med(lambda r: r[0][s]), "s")
    for name, members in TIME_GROUPS.items():
        m[f"{name}.s"] = (med(lambda r: sum(r[0][s] for s in members)), "s")
    peak = span_totals(memory["commands"])[2]
    for s in SPANS:
        m[f"{s}.calls"] = (med(lambda r: r[1][s]), "count")
        m[f"{s}.peak_mb"] = (peak[s], "MB")
    traced = statistics.median(p["wall_s"] for p in timed)
    m["traced_pass_s"] = (traced, "s")
    m["trace_overhead_s"] = (traced - untraced_pass_s, "s")
    return m


def machine(workload: str, seed: int) -> dict:
    import ctypes
    import glob
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "platform": platform.platform(),
            "workload": workload, "seed": seed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "double_s3", "double_s3_dense"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fsclass", "cli.py")):
        print(f"no fsclass source under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0

    work = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    ids = itertools.count()
    try:
        cmds = setup(args.workload, args.seed, work)
        from checks import load_reference
        from speed import Speed
        ref = load_reference()
        speed = Speed()
        if args.trace:
            # one untraced pass for the overhead, timed-span passes, then
            # one tracemalloc pass for the span peaks
            runs = {"untraced": run_passes(cmds, work, 0, None, ids, speed),
                    "timed": run_passes(cmds, work, args.seconds, "time", ids,
                                        speed),
                    "memory": run_passes(cmds, work, 0, "memory", ids, speed)}
            metrics = per_layer(runs["timed"], runs["memory"][0],
                                runs["untraced"][0]["wall_s"])
        else:
            probes = SetupProbes(args.workload, args.seed,
                                 args.seconds / SETUP_PROBES)
            runs = {"timed": run_passes(cmds, work, args.seconds, None, ids,
                                        speed, probes)}
            metrics = None
        attempted, failed, correct = check(sum(runs.values(), []), cmds, ref)
        if metrics is None:
            probes.finish()
            metrics = end_to_end(runs["timed"],
                                 statistics.median(probes.times), attempted,
                                 failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    factor = speed.factor()
    raw, metrics = metrics, {k: (v / factor if u == "s" else v, u)
                             for k, (v, u) in metrics.items()}
    if not args.trace:
        metrics["setup_s"] = (probes.normalised(), "s")

    record = machine(args.workload, args.seed)
    n = len(runs["timed"])
    print("machine " + json.dumps(record, sort_keys=True))
    print(f"workload {args.workload}: {n} timed passes of {len(cmds)} commands; "
          f"metrics are medians over the {n} passes; times are divided by the "
          f"speed factor {factor:.4f} ({len(speed.times)} kernel timings, "
          f"see speed.py)" + ("" if args.trace else
                              f"; setup_s is the median of {SETUP_PROBES} "
                              f"probes, each divided by its reference "
                              f"process instead"))
    for p in sum(runs.values(), []):
        for r in p["commands"]:
            r.pop("stdout")
            if r["problems"]:
                print(f"FAILED {r['label']}: {'; '.join(r['problems'])} "
                      f"{r['stderr'].strip()[-200:]}")
    print(f"  {'metric':44s} {'value':>12s} {'raw':>12s}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:12.4f} {raw[name][0]:12.4f} {unit}")
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                           f"{args.trace}.json"), "w") as fh:
        json.dump({"machine": record, "metrics": metrics, "raw_metrics": raw,
                   "speed_factor": factor, "kernel_s": speed.times,
                   "setup_probe_s": None if args.trace else probes.times,
                   "setup_reference_s": None if args.trace else probes.reference,
                   **runs}, fh)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
