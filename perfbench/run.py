"""Benchmark of verified ``limid solve`` / ``limid compare`` ops.

Usage, from the root of a checkout (``limid`` need not be installed):

    python3 perfbench/run.py --workload pigfarm-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One op is one in-process call of ``limid.cli.main(argv)`` with stdout
captured, run closed-loop from this single client process; an external
solve starts one ``limid-milp`` child, so at most two processes are busy.
The window runs whole passes over the workload's ops until ``--seconds``
of them have been timed; the untimed jobs of a run (set-up repeats and the
reference enumerator's optima) are spread between its passes.  Every answer
is checked afterwards against its optimum at 1e-6 relative.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
window and then a traced one and prints the per-layer metrics.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Results, machine details and spans are written under
``.perfbench_out/`` in the checkout.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WRONG_SHIFT = 1e-4  # relative error planted in the self-check's expectation
NAMES = ["pigfarm-small", "nmonitoring-meu", "pigfarm-cvar", "verify"]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up in this fresh process, timed by fresh_setup().
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args()


class OpResult(NamedTuple):
    op: object
    rc: Optional[int]
    wall: float
    stdout: str
    error: Optional[str]


def run_op(cli, op, paths, tracer=None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv(paths[op.instance])
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv) if tracer is None else tracer.call(
                "cli.main", cli.main, argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash of the program is a failed op
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if rc != 0 and error is None:
        error = f"exit code {rc}: " + err.getvalue().strip()[-300:]
    return OpResult(op, rc, wall, out.getvalue(), error)


@contextlib.contextmanager
def native_stdout_silenced():
    """HiGHS prints some lines with C stdio straight to file descriptor 1;
    keep them out of the result stream while it runs in this process."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def setup_once(name: str, seed: int, directory: Path):
    """Set-up as a benchmark run does it: import, generate the instances,
    write their files and run the warm-up op."""
    import limid.cli as cli
    import workloads

    ops = workloads.WORKLOADS[name]
    diagrams = workloads.generate(ops, seed)
    paths = workloads.write_instances(diagrams, directory)
    return diagrams, paths, run_op(cli, ops[0], paths)


def fresh_setup(name: str, seed: int, directory: Path) -> float:
    """Seconds from script start to the end of the warm-up op, in a fresh
    interpreter, so that every repeat pays the imports."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only", str(directory)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up of {name} exited with {proc.returncode}")
    return float(lines[-1])


def run_window(cli, ops, paths, seconds, tracer=None, on_op=None, jobs=()):
    """Whole passes over ``ops`` until ``seconds`` of them have been timed.

    The untimed ``jobs`` run between passes, the k-th of n once k/n of the
    time has been timed, and any left over after the last pass.  Spread so,
    they make the passes sample a longer stretch of a machine whose speed
    drifts from one minute to the next."""
    results, timed, due = [], 0.0, list(jobs)
    while True:
        t0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(results)
                tracer.captured = {}
            results.append(run_op(cli, op, paths, tracer))
            if on_op is not None:
                on_op(results[-1])
        timed += time.perf_counter() - t0
        while due and timed >= seconds * (len(jobs) - len(due)) / len(jobs):
            due.pop(0)()
        if timed >= seconds:
            return results, timed


def failures(results, expected, check_output):
    """(label, reason) of every op whose answer is not verified."""
    bad = []
    for r in results:
        reason = r.error or check_output(
            r.op, r.rc, r.stdout, expected[r.op.label])
        if reason is not None:
            bad.append((r.op.label, reason))
    return bad


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    mem_kb = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import limid.cli as cli
    import workloads

    ops = workloads.WORKLOADS[name]
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        diagrams, paths, warmup = setup_once(name, seed, work / "instances")

        # Untimed jobs between the timed passes: peak RSS after the first
        # pass, before any other job; set-up, several times, each in a fresh
        # process so that each pays the imports; and the expected optima, so
        # that neither set-up time nor the window includes them.
        rss, reps = [], []
        jobs = [lambda: rss.append(peak_rss_mb())]
        jobs += [lambda k=k: reps.append(
            fresh_setup(name, seed, work / f"setup{k}"))
            for k in range(SETUP_REPEATS)]
        if seed == workloads.DEFAULT_SEED:
            expected = workloads.frozen_optima(name)
        else:
            expected = {}
            jobs += [lambda op=op: expected.__setitem__(
                op.label, workloads.reference_optimum(op, diagrams[op.instance]))
                for op in ops]
        untraced, window_s = run_window(cli, ops, paths, seconds, jobs=jobs)
        rss_mb, setup_s = rss[0], statistics.median(reps)
        traced, drifts, tracer = [], [], None
        if trace:
            import tracer as tracing
            from limid import milp_backend

            tracer = tracing.Tracer()

            def after_traced_op(result):
                # Outside the op: the in-process parse and HiGHS solve of
                # the same LP text, and the exact value of its strategy.
                captured = tracer.captured
                if "solve.export_lp" in captured:
                    text = captured["solve.export_lp"][1]
                    tracer.call("milp_backend.solve_lp_text",
                                milp_backend.solve_lp_text, text)
                drift = tracing.exact_drift(captured)
                if drift is not None:
                    drifts.append(drift)

            tracer.install()
            try:
                with native_stdout_silenced():
                    traced, _ = run_window(cli, ops, paths, seconds, tracer,
                                           after_traced_op)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = failures([warmup] + untraced + traced, expected,
                   workloads.check_output)
    bad_timed = failures(untraced, expected, workloads.check_output)
    wrong = {k: v * (1.0 + WRONG_SHIFT) for k, v in expected.items()}
    self_check_ok = len(failures([warmup], wrong, workloads.check_output)) == 1

    walls = [r.wall for r in untraced]
    attempted = len(untraced)
    by_kind = {}
    for r in untraced:
        by_kind.setdefault(r.op.label, []).append(r.wall)
    # Wrong answers are counted in ``failed`` and make ``correct`` false;
    # the throughput counts every op run, so that a wrong answer does not
    # read as a change of speed.
    end_to_end = {
        "ops_per_s": (attempted / window_s, "ops/s"),
        # A workload mixes ops that differ in cost by up to 100x, so the
        # median of all walls sits on whichever kind is in the middle and
        # measures only its few samples; the geometric mean of each kind's
        # median uses every kind and every sample.
        "op_s_p50": (statistics.geometric_mean(
            [statistics.median(w) for w in by_kind.values()]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "verified_ops_per_s": ((attempted - len(bad_timed)) / window_s, "ops/s"),
        "fail_ratio": (len(bad_timed) / attempted, "failed/attempted"),
        "window_s": (window_s, "s"),
        "op_s_p50_pooled": (statistics.median(walls), "s"),
    }
    if attempted >= 100:
        info["op_s_p90"] = (statistics.quantiles(walls, n=10)[-1], "s")
    per_layer = {}
    if trace:
        untraced_mean = statistics.fmean(walls)
        per_layer = tracing.per_layer_metrics(
            tracer.spans, len(traced), untraced_mean, drifts)

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(seed),
        "samples": {"untraced_ops": attempted, "traced_ops": len(traced),
                    "setup_repeats": SETUP_REPEATS},
        "setup_reps_s": reps,
        "end_to_end": end_to_end,
        "info": info,
        "per_layer": per_layer,
        "op_walls_s": [[r.op.label, r.wall] for r in untraced],
        "failures": bad,
        "self_check_caught_wrong_optimum": self_check_ok,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(f"# workload {name}  seed {seed}  trace {int(trace)}  "
          f"ops {attempted} (traced {len(traced)})  window {window_s:.2f}s")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    shown = dict(end_to_end, **info) if not trace else per_layer
    for metric, (value, unit) in shown.items():
        samples = (SETUP_REPEATS if metric == "setup_s"
                   else len(traced) if trace else attempted)
        print(f"{metric:<34} {value:>14.6g} {unit:<16} n={samples}")
    for label, reason in bad[:10]:
        print(f"FAILED {label}: {reason}")
    if not self_check_ok:
        print("FAILED self-check: a wrong expected optimum was not caught")

    reported = per_layer if trace else end_to_end
    return {
        "correct": not bad and self_check_ok,
        "attempted": attempted,
        "failed": len(bad_timed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, untraced and, with --trace 1,
    traced too; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in range(args.trace + 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"workload {name} exited with {proc.returncode}")
            part = json.loads(lines[-1])
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for key, value in part["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = value
    return combined


def main() -> int:
    args = parse_args()
    if not (SRC / "limid" / "cli.py").is_file():
        print(f"error: no limid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.setup_only:
        raise SystemExit("--setup-only needs one workload")
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    # limid is not installed: this process and every solver child import it
    # from the checkout, and temporary files stay inside the checkout.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    tmp = WORK_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        if args.setup_only:
            *_, warmup = setup_once(args.workload, args.seed,
                                    Path(args.setup_only))
            if warmup.error:
                raise SystemExit(f"warm-up op failed: {warmup.error}")
            print(time.perf_counter() - T_START)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
