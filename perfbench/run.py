"""boundfem benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; boundfem is imported from its src/. Every
sample is a fresh `worker.py` process with BLAS pinned to one thread.

--trace 0 times the end-to-end metrics: the workload call runs once on each
of the workload's inputs (more while less than S seconds of it have been
measured), and `wall_s`, `peak_rss_mb` and `err_l2` are medians over the
inputs. `setup_s` is the median set-up time of those workers and of
SETUP_SAMPLES set-up-only workers (after one warm-up). --trace 1 runs input
0 once untraced and once traced and reports the per-layer metrics of the
traced run; `trace.overhead_s` is the difference of the two wall times.

Every run checks its outputs (see worker.py). The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full record,
with the environment and every sample, goes to .perfbench/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 4
DEADLINE_S = 170.0           # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no result is printed)."""


def metric_units(kind):
    """Unit of every `kind` metric ("end_to_end" or "per_layer") in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def worker_env():
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, args, deadline, *flags):
    """Run one worker; returns its JSON result (with "error" on failure)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--work-dir", WORK_DIR, *flags]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "elapsed_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    out["elapsed_s"] = time.perf_counter() - start
    if "boundfem_file" in out and not out["boundfem_file"].startswith(SRC + os.sep):
        raise BenchError(f"boundfem was imported from {out['boundfem_file']}, not {SRC}")
    if "error" in out:
        print(f"worker failed: {out['error']}", file=sys.stderr)
    return out


def run_ok(run):
    return "error" not in run and all(run.get("checks", {}).values())


def setup_samples(workload, args, deadline):
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = run_worker(workload, args, deadline, "--setup-only")
        if "error" in out:
            raise BenchError(f"set-up failed: {out['error']}")
        if i:                   # the first one warms the file and bytecode caches
            samples.append(out)
    return samples


def timed(workload, args, deadline):
    """End-to-end metrics: medians over the workload's inputs.

    Inputs are run in turn, and again while less than --seconds of workload
    time has been measured; an input's value is the median of its runs.
    """
    setups = setup_samples(workload, args, deadline)
    k = WORKLOADS[workload]["inputs"]
    runs, measured = [], 0.0
    while len(runs) < k or (measured < args.seconds
                            and time.monotonic() + runs[-1]["elapsed_s"] < deadline):
        index = len(runs) % k
        run = run_worker(workload, args, deadline, "--input", str(index))
        run["input"] = index
        runs.append(run)
        measured += run.get("wall_s", run["elapsed_s"])
    setup_times = [s["setup_s"] for s in setups + runs if "setup_s" in s]
    metrics = {"setup_s": statistics.median(setup_times)}
    for key in ("wall_s", "peak_rss_mb", "err_l2"):
        per_input = [[r[key] for r in runs if r["input"] == i and key in r] for i in range(k)]
        if all(per_input):
            metrics[key] = statistics.median(statistics.median(v) for v in per_input)
    return runs, setups, metrics


def traced(workload, args, deadline):
    """Per-layer metrics of one traced run, against one untraced run."""
    plain = run_worker(workload, args, deadline)
    trace = run_worker(workload, args, deadline, "--trace")
    runs = [plain, trace]
    metrics = {}
    if all("wall_s" in r for r in runs):
        metrics = dict(trace["layers"])
        metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
        metrics["app.artifact_bytes"] = trace["artifact_bytes"]
        metrics["bound_violation"] = trace["bound_violation"]
        # tracing must not change any result
        trace["checks"]["same_as_untraced"] = trace["err_l2"] == plain["err_l2"]
    return runs, [], metrics


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None, "note": "not a git checkout"}

    def git(*cmd):
        return subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"commit": None, "dirty": None, "note": str(exc)}


def src_digest():
    """sha256 over src/boundfem's sources, naming the code when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "boundfem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args, runs, setups):
    libs = next((s["env"] for s in setups + runs if "env" in s), None)
    return {"seed": args.seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "libraries": libs, "blas_env": {k: "1" for k in BLAS_ENV},
            "git": git_state(), "src_sha256": src_digest()}


def bench(workload, args):
    """Run one workload, print its summary and return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    units = metric_units("per_layer" if args.trace else "end_to_end")
    runs, setups, metrics = (traced if args.trace else timed)(workload, args, deadline)

    failed = sum(not run_ok(r) for r in runs)
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    missing = [k for k in units if k not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    env = environment(args, runs, setups)
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "metrics": metrics,
              "runs": runs, "setups": setups}
    path = os.path.join(WORK_DIR, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)}  failed {failed}  fail_frac {failed / len(runs):.3f}")
    for key, unit in units.items():
        print(f"  {key:28s} {metrics.get(key, float('nan')):.6g} {unit}")
    if not args.trace:
        viol = [r["bound_violation"] for r in runs if "bound_violation" in r]
        print(f"  {'bound_violation':28s} {max(viol, default=float('nan')):.6g} 1")
    libs = env["libraries"] or {}
    print(f"  env: nproc {env['nproc']}, {env['cpu_model']}, python {libs.get('python')}, "
          f"numpy {libs.get('numpy')}, scipy {libs.get('scipy')}, "
          f"BLAS threads {libs.get('blas_threads')}, git {env['git']}")
    print(f"  record: {path}")
    return {"correct": failed == 0 and not missing, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                        if k in metrics}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        if not os.path.isfile(os.path.join(SRC, "boundfem", "__init__.py")):
            raise BenchError(f"no boundfem package under {SRC}")
        os.makedirs(WORK_DIR, exist_ok=True)
        results = {name: bench(name, args) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        summary = results[names[0]]
    else:               # --workload all: metric names get a "<workload>/" prefix
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}/{k}": v for name, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
