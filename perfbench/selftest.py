"""Quick self-test of the benchmark itself, at toy sizes (well under a minute).

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at toy sizes, through the
same child process, output checks and trace parser as `run.py`, then feeds
the checks and the parser inputs whose answers are known. Prints one line
per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, check_cv, printed_hash  # noqa: E402
from layers import PER_LAYER_UNITS, dominance, layer_metrics, load_spans, self_times  # noqa: E402
from run import END_TO_END, end_to_end, run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def toy_workloads(root: Path, base: Path) -> dict[str, list[dict]]:
    """Each workload once untraced, once traced; outputs must agree."""
    results = {}
    for name, workload in WORKLOADS.items():
        out_rel = str((base / name / "out").relative_to(root))
        reps = [run_child(root, base / name / f"rep{i}", out_rel, workload, SEED,
                          trace=bool(i), timeout=120, toy=True) for i in range(2)]
        for rep in reps:
            expect(rep["ok"], f"{name}: toy {'traced' if rep['trace'] else 'untraced'} "
                              f"run passes its output checks {rep.get('error', '')}")
        if all(r["ok"] for r in reps):
            expect(reps[0]["digest"] == reps[1]["digest"],
                   f"{name}: tracing leaves the outputs byte-identical")
        results[name] = reps
    return results


def trace_parser(base: Path, name: str, reps: list[dict]) -> None:
    counters, spans = load_spans(base / name / "rep1" / "spans.jsonl")
    expect(len({s["run"] for s in spans}) == 1, f"{name}: every span carries one run id")
    m = layer_metrics(counters, spans, reps[0]["wall_s"], reps[0]["quality"])
    expect(list(m) == list(PER_LAYER_UNITS), f"{name}: every per-layer metric reported")
    expect(m["cli.main_s"] > 0 and m["cli.self_s"] >= 0, f"{name}: root span timed")
    dominance(name, m)
    command = WORKLOADS[name].command
    if command in ("cv", "train"):
        fits = [s["attrs"] for s in spans if s["name"] == "models.fit"]
        expect(bool(fits) and all({"kind", "epochs_run", "max_epochs", "best_epoch",
                                   "clamped_terms"} <= set(f) for f in fits),
               f"{name}: per-fit records carry epochs, budget, best epoch, clamps")
        expect(m["gradcore.backward_calls"] > 0 and m["gradcore.nodes"] > 0,
               f"{name}: gradcore backward calls and tape nodes counted")
    if command == "cv":
        expect(m["pipeline.trials"] == 3 and m["pipeline.folds"] == 3,
               f"{name}: one search trial per fold recorded from random_search")
        expect(m["metrics.ctd_calls"] > 0 and m["metrics.pairs"] > 0,
               f"{name}: C^td calls and pairs counted")
    if command == "train":
        expect(m["models.warmup_s"] > 0, f"{name}: DSM warm-up span recorded")
    if command == "mae-train":
        expect(m["mae.steps"] == 3 and m["mae.step_s"] > 0,
               f"{name}: one MAE step per phantom per epoch")


def known_answers(base: Path) -> None:
    spans = [
        {"id": 0, "parent": -1, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "name": "b", "start": 5.0, "end": 6.0},
        {"id": 3, "parent": 1, "name": "c", "start": 1.5, "end": 2.0},
    ]
    st = self_times(spans)
    expect(st == {0: 7.0, 1: 1.5, 2: 1.0, 3: 0.5}, "self time = duration minus child spans")

    expect(printed_hash("x\nconfig_hash=00ff\ny\n") == "00ff", "printed config_hash parsed")
    out = base / "cv-fit" / "out"
    good = (out / "report.json").read_text()
    digest = json.loads(good)["config_hash"]
    for label, broken in [
        ("a wrong config_hash", good.replace(digest, "0" * len(digest))),
        ("a C^td outside [0, 1]", _with_ctd(good, 1.5)),
        ("a leak", good.replace('"leaks": 0', '"leaks": 1')),
    ]:
        (out / "report.json").write_text(broken)
        try:
            check_cv(out, digest)
            caught = False
        except CheckFailed:
            caught = True
        expect(caught, f"output check catches {label}")
    (out / "report.json").write_text(good)

    fake = {"reps": [{"ok": True, "trace": False, "wall_s": w, "setup_s": 1.0,
                      "maxrss_kb": 2048, "quality": {"ctd_mean": 0.7}}
                     for w in (3.0, 1.0, 2.0)]
            + [{"ok": False, "trace": False}]}
    metrics, table = end_to_end(fake)
    expect(metrics["wall_s"]["value"] == 2.0 and table["wall_s"]["n"] == 3
           and metrics["peak_rss_mb"]["value"] == 2.0,
           "end-to-end medians skip failed runs and keep sample counts")


def benchmark_file(root: Path) -> None:
    """BENCHMARK.json names exactly the workloads and metrics the code reports."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    expect([(w["name"], w["why"]) for w in doc["workloads"]]
           == [(w.name, w.why) for w in WORKLOADS.values()],
           "BENCHMARK.json workloads match workloads.py")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
           == [(k, unit, better) for k, (unit, better) in END_TO_END.items()],
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER_UNITS.items()),
           "BENCHMARK.json per_layer matches layers.py")


def without_program(root: Path, base: Path) -> None:
    """With only the benchmark's own files present, a run fails and prints no result."""
    bare = base / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cv-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and proc.stdout == "",
           "without the riskbench sources a run exits non-zero and prints no result")


def _with_ctd(report_text: str, value: float) -> str:
    doc = json.loads(report_text)
    fold = doc["report"]["folds"][0]
    fold["ctd"][next(iter(fold["ctd"]))] = value
    return json.dumps(doc)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "riskbench" / "cli.py").is_file():
        print("run from the root of a riskbench checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".perfbench" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    results = toy_workloads(root, base)
    for name, reps in results.items():
        if all(r["ok"] for r in reps):
            trace_parser(base, name, reps)
    if results["cv-fit"][0]["ok"]:
        known_answers(base)
    benchmark_file(root)
    without_program(root, base)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
