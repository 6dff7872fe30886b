"""osp benchmark runner.

  python3 perfbench/run.py --workload golden|clip-attn|layout --seed N \
      --seconds S --trace 0|1

Run it from the root of a checkout; it imports osp from ./src. The
workload runs in a fresh child process (workloads.py) as a closed loop:
one caller, no think time, the next op starts when the previous one
returns. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; set-up is repeated in further fresh processes and
setup_s is the median. With --trace 1 the child runs half the time
untraced and half with every public osp function wrapped, and prints the
per-layer metrics. Failed ops are counted, never fatal; fail_ratio is
failed / attempted and ok_ratio is 1 - fail_ratio. op_s_p50 is printed
but not declared in BENCHMARK.json: the host's speed switches between
two levels, and the median of short ops flips between them from run to
run, while the 90th percentile stays put.

Each result is stamped with its environment on the line before the last.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
WORKLOADS = ("golden", "clip-attn", "layout")
SETUP_REPEATS = 3  # fresh processes whose set-up time gives the setup_s median
DEADLINE_S = 170  # whole run, so the command ends within 180 s


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def spawn(args, role: str, deadline: float, env: dict[str, str]) -> dict:
    """Run one child process to completion and return its result, with
    setup_s measured from just before the process was started."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--workdir", str(WORKDIR)]
    started = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} child of {args.workload} did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} child of {args.workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def environment(args, child: dict, load_start: tuple) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": child.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, spec: dict, env: dict[str, str] | None = None) -> dict:
    """Run the workload; return the result line and a diagnostics record."""
    load_start = os.getloadavg()
    WORKDIR.mkdir(exist_ok=True)
    deadline = monotonic() + DEADLINE_S
    env = child_env(env)
    main = spawn(args, "main", deadline, env)
    attempted, failed = main["attempted"], main["failed"]
    if args.trace:
        declared = spec["per_layer"]
        values = main["layers"]
    else:
        declared = spec["end_to_end"]
        setups = [main["setup_s"]] + [spawn(args, "setup", deadline, env)["setup_s"]
                                      for _ in range(SETUP_REPEATS - 1)]
        values = {
            "setup_s": statistics.median(setups),
            "op_s_p90": main["op_s_p90"],
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
        main["setup_runs_s"] = setups
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {k: main.get(k) for k in ("ops", "op_s_p50", "traced_ops", "spans", "first_failure",
                                        "info", "setup_runs_s", "spans_file")}
    details["fail_ratio"] = failed / attempted
    details["env"] = environment(args, main, load_start)
    return {"line": line, "details": details}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "osp" / "__init__.py").is_file():
        print(f"error: no osp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line, details = result["line"], result["details"]
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'op_s_p50':40s} {details['op_s_p50']:.6g} s ({details['ops']} untraced samples)")
    print(f"{'fail_ratio':40s} {details['fail_ratio']:.6g} ratio "
          f"({line['failed']} of {line['attempted']} ops)")
    if details["first_failure"]:
        print(f"first failure: {details['first_failure']}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
