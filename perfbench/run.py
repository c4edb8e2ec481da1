"""riskbench benchmark: closed-loop runs of one CLI workload in fresh processes.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload cv-fit --seed 1 --seconds 20 --trace 0

One client runs the workload's `riskbench` command in a fresh child process
(`child.py`), waits for it to finish, checks its outputs, and starts the next,
until `--seconds` have passed (at least MIN_REPEATS times). Every repeat uses
the same seed, so their outputs must be byte-identical. BLAS runs on
BLAS_THREADS thread(s).

--trace 0 reports the end-to-end metrics (medians over the repeats).
--trace 1 runs the workload once more with the layer wrappers of `tracer.py`
on, reports the per-layer metrics of that run, and fills the rest of the time
with untraced repeats, whose median wall time gives the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Everything a run
leaves behind goes under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, check_outputs, outputs_digest  # noqa: E402
from layers import PER_LAYER_UNITS, dominance, layer_metrics, load_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
MIN_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# name -> (unit, better); the end-to-end metrics every --trace 0 run reports.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed with the end-to-end table but not in the JSON line: each exists on
# only some workloads, or (error_rate) is 0 on a healthy run.
QUALITY = {"ctd_mean": ("1", "higher"), "mae_final_loss": ("MSE", "lower")}


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "git_commit": commit, "seed": seed,
            "peak_rss_source": "getrusage(RUSAGE_SELF).ru_maxrss of the child process only"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(root: Path, rep_dir: Path, out_rel: str, workload, seed: int,
              trace: bool, timeout: float, toy: bool = False) -> dict:
    """One workload command in a fresh process, then its output checks."""
    rep_dir.mkdir(parents=True)
    out = root / out_rel
    shutil.rmtree(out, ignore_errors=True)
    config = workload.build(seed, out_rel, toy)
    config_rel = str((rep_dir / "config.json").relative_to(root))
    job = {"src": "src", "trace": trace, "run_id": rep_dir.name, "config": config,
           "config_path": config_rel, "argv": workload.argv(config_rel)}
    (rep_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    rec = {"rep": rep_dir.name, "trace": trace, "ok": False}
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(rep_dir / "job.json"),
                 repr(time.monotonic())],
                cwd=root, env=child_env(), stdout=so, stderr=se, timeout=timeout)
        except subprocess.TimeoutExpired:
            rec["error"] = f"timed out after {timeout:.0f} s"
            return rec
    rec["exit_code"] = proc.returncode
    if proc.returncode != 0 or not (rep_dir / "child.json").is_file():
        tail = (rep_dir / "stderr.txt").read_text(errors="replace").strip()[-400:]
        rec["error"] = f"exit code {proc.returncode}: {tail}"
        return rec
    rec.update(json.loads((rep_dir / "child.json").read_text()))
    stdout = (rep_dir / "stdout.txt").read_text(errors="replace")
    try:
        rec["digest"] = outputs_digest(workload.command, out)
        rec["quality"] = check_outputs(workload.command, out, stdout, config)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        rec["error"] = f"output check: {type(exc).__name__}: {exc}"
        return rec
    rec["ok"] = True
    return rec


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = root / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out_rel = str((run_dir / "out").relative_to(root))
    compileall.compile_dir(root / "src", quiet=1)
    started = time.monotonic()
    reps = []
    while True:
        elapsed = time.monotonic() - started
        untraced = [r for r in reps if not r["trace"]]
        if reps and (elapsed >= seconds and len(untraced) >= (2 if trace else MIN_REPEATS)):
            break
        if reps and not reps[-1]["ok"]:
            break  # a broken program fails every repeat; stop at the first
        if elapsed > RUN_LIMIT_S - 30:
            break
        traced_now = trace and not reps
        reps.append(run_child(root, run_dir / f"rep{len(reps):02d}", out_rel, workload,
                              seed, traced_now, RUN_LIMIT_S - elapsed))
    first = next((r for r in reps if r["ok"]), None)
    for r in reps:
        if r["ok"] and r["digest"] != first["digest"]:
            r["ok"] = False
            r["error"] = f"outputs differ from {first['rep']} at the same seed"
    return {"workload": name, "seed": seed, "run_dir": str(run_dir.relative_to(root)),
            "reps": reps, "env": environment(root, seed)}


def end_to_end(result: dict) -> tuple[dict, dict]:
    """(metrics for the JSON line, the full table with sample counts)."""
    reps = [r for r in result["reps"] if r["ok"] and not r["trace"]]
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in reps],
    }
    for key in QUALITY:
        samples[key] = [r["quality"][key] for r in reps if key in r["quality"]]
    table = {k: {"median": statistics.median(v) if v else None, "n": len(v)}
             for k, v in samples.items()}
    metrics = {k: {"value": table[k]["median"], "unit": unit}
               for k, (unit, _better) in END_TO_END.items() if table[k]["median"] is not None}
    return metrics, table


def traced_layers(root: Path, result: dict) -> tuple[dict, str]:
    traced = next(r for r in result["reps"] if r["trace"])
    untraced = [r["wall_s"] for r in result["reps"] if r["ok"] and not r["trace"]]
    counters, spans = load_spans(root / result["run_dir"] / traced["rep"] / "spans.jsonl")
    quality = next(r["quality"] for r in result["reps"] if r["ok"])
    metrics = layer_metrics(counters, spans, statistics.median(untraced), quality)
    ok, why = dominance(result["workload"], metrics)
    summary = {
        "fits": [s["attrs"] for s in spans if s["name"] == "models.fit"],
        "searches": [s["attrs"] for s in spans if s["name"] == "pipeline.search"],
        "dominant_layer_reproduced": ok, "dominance": why,
    }
    (root / result["run_dir"] / "trace_summary.json").write_text(
        json.dumps({"metrics": metrics, **summary}, indent=2), encoding="utf-8")
    return metrics, f"{'PASS' if ok else 'FAIL'}: {why}"


def print_table(result: dict, table: dict) -> None:
    reps = result["reps"]
    failed = sum(1 for r in reps if not r["ok"])
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"runs {len(reps)}  failed {failed}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for r in reps:
        if not r["ok"]:
            print(f"  failed {r['rep']}: {r.get('error')}")
    print(f"  {'metric':<16}{'median':>14}  {'unit':<6}{'better':<8}samples")
    for key, (unit, better) in {**END_TO_END, **QUALITY}.items():
        row = table[key]
        value = "n/a" if row["median"] is None else f"{row['median']:.6g}"
        print(f"  {key:<16}{value:>14}  {unit:<6}{better:<8}{row['n']}")
    rate = failed / len(reps)
    print(f"  {'error_rate':<16}{rate:>14.6g}  {'ratio':<6}{'lower':<8}"
          f"{len(reps)} ({failed} failed of {len(reps)} attempted)")


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    result = run_workload(root, name, seed, seconds, trace)
    reps = result["reps"]
    failed = sum(1 for r in reps if not r["ok"])
    metrics, table = end_to_end(result)
    print_table(result, table)
    if trace and failed == 0:
        layer, verdict = traced_layers(root, result)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
        print(f"  traced run: {verdict}")
        print(f"  tracing overhead: {layer['trace.overhead_s']:+.3f} s "
              f"(traced {layer['cli.main_s']:.3f} s)")
    elif trace:
        metrics = {}
    line = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}
    (root / result["run_dir"] / "result.json").write_text(
        json.dumps({**result, "table": table, "line": line}, indent=2), encoding="utf-8")
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "riskbench" / "cli.py").is_file():
        print(f"no riskbench source tree under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the output checks load riskbench
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {name: measure(root, name, args.seed, args.seconds, bool(args.trace))
             for name in names}
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
