"""Output checks for one workload run, made after the child has exited.

A run passes when it exited 0, its printed `config_hash` matches the one its
outputs carry, no test-fold id reached a fit, every C^td is finite in [0, 1]
with pairs > 0, and (for mae-train) the checkpoint loads and the loss history
is finite. `outputs_digest` fingerprints the files that must be
byte-identical across repeated runs of one seed at `--workers 1`.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import HOLDOUT_SEED_OFFSET

_HASH_LINE = re.compile(r"^config_hash=([0-9a-f]+)$", re.MULTILINE)

# Files whose bytes must repeat exactly, per riskbench subcommand.
DIGEST_FILES = {
    "cv": ["report.json"],
    "train": ["dsm.rbck", "dsm.rbck.json", "dsm.history.json"],
    "mae-train": ["mae.rbck", "mae.rbck.json", "mae.history.json"],
}


class CheckFailed(Exception):
    """One output check did not hold."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def printed_hash(stdout: str) -> str:
    found = _HASH_LINE.findall(stdout)
    _require(len(found) == 1, f"expected one config_hash line, found {len(found)}")
    return found[0]


def _read_json(path: Path) -> dict:
    _require(path.is_file(), f"missing output {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def _check_ctd(values: dict[str, float], pairs: dict[str, int], where: str) -> None:
    for name, value in values.items():
        _require(math.isfinite(value) and 0.0 <= value <= 1.0,
                 f"{where}: C^td for {name} is {value}, not finite in [0, 1]")
        _require(pairs[name] > 0, f"{where}: no comparable pairs for {name}")


def outputs_digest(command: str, out: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES[command]:
        path = out / name
        _require(path.is_file(), f"missing output {name}")
        h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_cv(out: Path, digest: str) -> dict:
    doc = _read_json(out / "report.json")
    _require(doc.get("config_hash") == digest,
             f"report.json config_hash {doc.get('config_hash')} != printed {digest}")
    report = doc["report"]
    _require(report["audit"].get("leaks") == 0, f"audit.leaks = {report['audit'].get('leaks')}")
    for fold in report["folds"]:
        _check_ctd(fold["ctd"], fold["pairs"], f"fold {fold['fold']}")
    means = [report["aggregate"][name]["mean"] for name in report["risk_names"]]
    return {"ctd_mean": sum(means) / len(means)}


def check_train(out: Path, digest: str, config: dict) -> dict:
    """Hashes match, the checkpoint loads, and it scores a held-out cohort."""
    from riskbench.cohort import SynthSpec, generate_synthetic
    from riskbench.metrics import ctd_index
    from riskbench.models import load_model

    kind = config["model"]["kind"]
    history = _read_json(out / f"{kind}.history.json")
    _require(history.get("config_hash") == digest,
             f"{kind}.history.json config_hash {history.get('config_hash')} != printed {digest}")
    meta = _read_json(out / f"{kind}.rbck.meta.json")
    _require(meta.get("config_hash") == digest,
             f"{kind}.rbck.meta.json config_hash {meta.get('config_hash')} != printed {digest}")
    model = load_model(out / f"{kind}.rbck")
    synth = dict(config["data"]["synthetic"])
    n = max(100, synth.pop("n") // 3)
    synth["seed"] += HOLDOUT_SEED_OFFSET
    holdout = generate_synthetic(SynthSpec(**synth), n)
    values, pairs = {}, {}
    for r, name in enumerate(holdout.risk_names, start=1):
        res = ctd_index(holdout, model, r=r)
        values[name], pairs[name] = res.value, res.pairs
    _check_ctd(values, pairs, "held-out cohort")
    return {"ctd_mean": sum(values.values()) / len(values)}


def check_mae(out: Path, digest: str) -> dict:
    from riskbench.mae import MaeModel

    history = _read_json(out / "mae.history.json")
    _require(history.get("config_hash") == digest,
             f"mae.history.json config_hash {history.get('config_hash')} != printed {digest}")
    meta = _read_json(out / "mae.rbck.meta.json")
    _require(meta.get("config_hash") == digest,
             f"mae.rbck.meta.json config_hash {meta.get('config_hash')} != printed {digest}")
    losses = history["epoch_losses"] + history["step_losses"]
    _require(bool(losses) and all(math.isfinite(v) for v in losses),
             "mae loss history is empty or not finite")
    MaeModel.load(out / "mae.rbck")
    return {"mae_final_loss": history["epoch_losses"][-1]}


def check_outputs(command: str, out: Path, stdout: str, config: dict) -> dict:
    """Run the checks for one command; returns its quality values."""
    digest = printed_hash(stdout)
    if command == "cv":
        return check_cv(out, digest)
    if command == "train":
        return check_train(out, digest, config)
    if command == "mae-train":
        return check_mae(out, digest)
    raise ValueError(f"no checks for command {command!r}")
