"""Output identity check: run one fixed set of riskbench commands on two source
trees and compare every output file and every command's stdout by sha256.

    python tools/identity.py BASE_TREE CHANGE_TREE [--work DIR]

A tree is a checkout that holds `src/riskbench`. Each side gets its own
working directory (under DIR, kept, or a temporary one, removed), into which
the same inputs are written: a run config, a diagnosis-record table, an
imaging-date table and a code map. Each command then runs there in a fresh
`python -m riskbench.cli` process with the tree's `src` as PYTHONPATH,
PYTHONHASHSEED=0, one BLAS thread and `--workers 1`, so every path is
relative and both sides see the same bytes. The commands are `synth`;
`label`; `features --standardize --pca 2 --fuse`; `train` for dsm, nfg and
deephit; `cv` (nfg) with `cv.save_fold_checkpoints`; `mae-train`;
`make-volumes`; `embed`; `report`.

Prints the sha256 of every command's stdout and of every file in the working
directory, for both sides, then the ones that differ. Exits 0 when none
differs and every command exited 0 on both sides, else 1. Pointing both
arguments at the same tree checks that the runs themselves are repeatable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = {
    "seed": 7,
    "data": {"synthetic": {"n": 300, "d": 4, "shapes": [1.4, 2.2], "scales": [6.0, 8.0],
                           "betas": [[1.2, 0, 0, 0], [0, 1.2, 0, 0]],
                           "horizon": 15.0, "seed": 3}},
    "model": {"kind": "nfg", "extras": {}},
    "cv": {"k": 3, "preset": "desk", "n_iter": 2, "max_epochs": 3, "modality": "synthetic",
           "save_fold_checkpoints": True},
    "mae": {"n_phantoms": 6, "dims": [30, 20, 20, 2], "embed_dim": 16, "enc_layers": 1,
            "dec_layers": 1, "epochs": 1},
    "output": {"dir": "out"},
}

INPUTS = {
    "run.json": json.dumps(CONFIG, indent=2) + "\n",
    "records.csv": "id,code,date\na,I25,2016-06-01\nb,E11,2017-03-02\nc,I21,2015-01-20\n"
                   "d,Z00,2018-01-01\n",
    "imaging.csv": "id,date\na,2015-01-01\nb,2015-06-01\nc,2015-01-01\nd,2014-01-01\n"
                   "e,2016-01-01\n",
    "codes.json": json.dumps({"cvd": ["I25", "I21"], "t2d": ["E11"]}) + "\n",
}

_CONFIG = ["--config", "run.json"]
_TRAIN = {"dsm": {"max_epochs": 3, "warmup_iters": 20}, "nfg": {"max_epochs": 3},
          "deephit": {"max_epochs": 3}}

COMMANDS = [
    ("synth", ["synth", *_CONFIG]),
    ("label", ["label", "--records", "records.csv", "--imaging", "imaging.csv",
               "--codes", "codes.json", "--censor-date", "2020-01-01",
               "--out", "label/cohort.csv"]),
    ("features", ["features", "--cohort", "out/cohort.csv", "--standardize", "--pca", "2",
                  "--fuse", "out/cohort.csv", "--out", "features/fused.csv"]),
    *[(f"train {kind}", ["train", *_CONFIG, "--set", f"model.kind={kind}",
                         "--set", f"model.extras={json.dumps(extras)}",
                         "--set", f"output.dir=train_{kind}"])
      for kind, extras in _TRAIN.items()],
    ("cv", ["cv", *_CONFIG, "--workers", "1", "--set", "output.dir=cv"]),
    ("mae-train", ["mae-train", *_CONFIG, "--set", "output.dir=mae"]),
    ("make-volumes", ["make-volumes", *_CONFIG, "--out", "volumes"]),
    ("embed", ["embed", *_CONFIG, "--set", "mae.checkpoint=mae/mae.rbck",
               "--set", "mae.volumes_dir=volumes", "--set", "output.dir=embed"]),
    ("report", ["report", "--inputs", "cv/report.json", "--out", "merged"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_side(tree: Path, work: Path) -> tuple[dict[str, str], list[str]]:
    """Run every command of tree `tree` in `work`: the digests by name
    ("stdout <command>" or "file <path>") and the failed commands."""
    work.mkdir(parents=True)
    for name, text in INPUTS.items():
        (work / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    digests, failed = {}, []
    for name, argv in COMMANDS:
        run = subprocess.run([sys.executable, "-m", "riskbench.cli", *argv], cwd=work, env=env,
                             capture_output=True)
        digests[f"stdout {name}"] = _sha256(run.stdout)
        if run.returncode != 0:
            tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            failed.append(f"{name}: exit {run.returncode} {' '.join(tail)}")
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digests[f"file {path.relative_to(work).as_posix()}"] = _sha256(path.read_bytes())
    return digests, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree to compare against")
    parser.add_argument("change", type=Path, help="source tree under test")
    parser.add_argument("--work", type=Path,
                        help="keep the runs in DIR/base and DIR/change, which must not exist")
    args = parser.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "riskbench" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/riskbench/cli.py")

    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        sides = {}
        for side in ("base", "change"):
            start = time.perf_counter()
            sides[side] = run_side(getattr(args, side), work / side)
            print(f"{side}: {getattr(args, side)} ran {len(COMMANDS)} commands in "
                  f"{time.perf_counter() - start:.1f} s")

    (base, base_failed), (change, change_failed) = sides["base"], sides["change"]
    names = sorted(set(base) | set(change))
    for name in names:
        print(f"{base.get(name, '-'):64}  {change.get(name, '-'):64}  {name}")
    differ = [name for name in names if base.get(name) != change.get(name)]
    n_files = sum(name.startswith("file ") for name in names)
    print(f"{n_files} files, {len(COMMANDS)} stdouts; {len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    for side, failed in (("base", base_failed), ("change", change_failed)):
        for line in failed:
            print(f"failed ({side}): {line}")
    return 1 if differ or base_failed or change_failed else 0


if __name__ == "__main__":
    sys.exit(main())
