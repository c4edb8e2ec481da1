"""One workload command in a fresh process: the unit every timing comes from.

Usage: python3 perfbench/child.py JOB_JSON SPAWNED_AT

JOB_JSON names the config to write, the `riskbench` argv, the source tree and
whether to trace. SPAWNED_AT is the parent's `time.monotonic()` just before it
started this process; monotonic time is shared by every process on the host.
The child writes `child.json` next to the job file with:

- setup_s: from spawn to entering `cli.main` (interpreter start, importing
  `riskbench.cli`, writing the config);
- wall_s: from entering `cli.main` to its return;
- maxrss_kb: `getrusage(RUSAGE_SELF).ru_maxrss` of this process only;
- exit_code: what `cli.main` returned.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job_path, spawned_at = Path(sys.argv[1]), float(sys.argv[2])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    src = str(Path(job["src"]).resolve())
    sys.path.insert(0, src)
    import riskbench.cli as cli

    if not str(Path(cli.__file__).resolve()).startswith(src):
        print(f"riskbench imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 5
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    Path(job["config_path"]).write_text(json.dumps(job["config"], indent=2),
                                        encoding="utf-8")
    entered = time.monotonic()
    if tracer is not None:
        root = tracer.begin("cli.main")
    code = cli.main(job["argv"])
    finished = time.monotonic()
    if tracer is not None:
        tracer.end(root)
        tracer.write(job_path.parent / "spans.jsonl")
    sys.stdout.flush()
    result = {"setup_s": entered - spawned_at, "wall_s": finished - entered,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "exit_code": code}
    (job_path.parent / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
