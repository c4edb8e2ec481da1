"""Command-line entry point.

Subcommands: synth, label, features, train, cv, mae-train, embed, report.
Runs are driven by a JSON config with `--set section.key=value` overrides;
every key's type and bound is checked before any work, and unknown keys are
rejected. Every command prints the resolved config hash; outputs carry it
for provenance (JSON outputs embed it, CSV and checkpoint outputs get a
.meta.json sidecar). All randomness derives from the single `seed` key. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .cohort import (
    SynthSpec,
    build_labels,
    cohort_from_csv,
    cohort_to_csv,
    code_sets_from_json,
    generate_synthetic,
    imaging_dates_from_csv,
    open_input,
    records_from_csv,
    subject_ids,
)
from .errors import ConfigError, DataError, NumericError
from .features import category_map_from_json, pca_apply, pca_fit, standardize_fit_apply
from .mae import (
    MaeConfig,
    MaeModel,
    extract_embedding,
    iter_phantoms,
    load_volume,
    save_volume,
    train_mae,
)
from .models import MODEL_KINDS, BaseConfig, build_model
from .pipeline import CVReport, CvSettings, HParamGrid, emit_report, nested_cv, report_to_json_str

# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


class _Rule(dict):
    """A config leaf: "type" ("int", "float", "str" or "bool") and a bound, "min" /
    "max" / "below" (exclusive), "positive" or "choices"; or, for a non-empty list,
    "items" (each item's rule), "len" and "ordered" (non-decreasing). Numbers are finite."""

    def violation(self, value) -> str | None:
        """What `value` must be, if it breaks this rule; otherwise None."""
        if "items" in self:
            item = _Rule(self["items"])
            ok = (isinstance(value, list) and len(value) == self.get("len", len(value)) > 0
                  and not any(map(item.violation, value))
                  and (not self.get("ordered") or value == sorted(value)))
            return None if ok else self.noun()
        if not _TYPES[self["type"]][0](value):
            return self.noun()
        ok = (value in self["choices"] if "choices" in self else isinstance(value, (str, bool))
              or self.get("min", value) <= value <= self.get("max", value)
              and ("below" not in self or value < self["below"])
              and (value > 0 or not self.get("positive")))
        return None if ok else self.bound()

    def noun(self, plural: bool = False) -> str:
        if "items" in self:
            ordered = ", in non-decreasing order" if self.get("ordered") else ""
            return (f"{'lists' if plural else 'a list'} of {self.get('len', 'one or more')} "
                    f"{_Rule(self['items']).noun(plural=True)}{ordered}")
        each = plural and len(self) > 1 and f", each {self.bound()}"
        return _TYPES[self["type"]][1 + plural] + (each or "")

    def bound(self) -> str:
        if "choices" in self:
            return "one of " + ", ".join(map(repr, self["choices"]))
        if "max" in self or "below" in self:
            high = f"{self['max']}]" if "max" in self else f"{self['below']})"
            return f"in [{self['min']}, {high}"
        if self.get("positive"):
            return "positive"
        return "non-negative" if self["min"] == 0 else f"at least {self['min']}"


_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number", "finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "bool": (lambda v: isinstance(v, bool), "true or false", "booleans"),
}


def _field_rules(config_class) -> dict:
    """One rule per config dataclass field: its (string) annotation, bounded by its metadata."""
    return {f.name: _Rule(type=f.type, **f.metadata) for f in dataclasses.fields(config_class)}


_STR, _BOOL = _Rule(type="str"), _Rule(type="bool")

# The keys a dataclass field does not configure; the `data.synthetic`, `grid`,
# `mae` and `model.extras` sections take the rest from the field metadata.
_SCHEMA: dict = {
    "seed": _Rule(type="int", min=0),
    "workers": _Rule(type="int", min=1),
    "data": {"cohort_csv": _STR, "features_csv": _STR, "category_map": _STR,
             "synthetic": {"n": _Rule(type="int", min=1), **_field_rules(SynthSpec)}},
    "features": {"standardize": _BOOL, "pca_components": _Rule(type="int", min=0)},
    "model": {"kind": _Rule(type="str", choices=tuple(MODEL_KINDS))},
    "grid": _field_rules(HParamGrid),
    "cv": {"k": _Rule(type="int", min=2), "preset": _Rule(type="str", choices=("full", "desk")),
           "n_iter": _Rule(type="int", min=1), "max_epochs": _Rule(type="int", min=1),
           "patience": _Rule(type="float", min=0), "modality": _STR,
           "save_fold_checkpoints": _BOOL},
    "mae": {"n_phantoms": _Rule(type="int", min=1), "volumes_dir": _STR, "checkpoint": _STR,
            "dims": _Rule(items={"type": "int", "min": 1}, len=4), **_field_rules(MaeConfig)},
    "output": {"dir": _STR},
}


def _check_keys(doc: dict, schema: dict, path: str = "", note: str = "") -> None:
    """Check `doc` against `schema`: a _Rule is a leaf, a dict a section, and a
    (section, note) pair a section whose errors end with the note."""
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        tail = f" ({note}, field {key!r})" if note else ""
        node = schema.get(key)
        if node is None:
            raise ConfigError(f"unknown config key {where!r}{tail}")
        if isinstance(node, _Rule):
            if problem := node.violation(value):
                raise ConfigError(f"{where} must be {problem}, got {value!r}{tail}")
            continue
        section, inner = node if isinstance(node, tuple) else (node, "")
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}{tail}")
        _check_keys(value, section, where, inner)


def _parse_set(override: str) -> tuple[list[str], object]:
    if "=" not in override:
        raise ConfigError(f"--set expects section.key=value, got {override!r}")
    dotted, raw = override.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return dotted.split("."), value


def load_config(path: str | None, overrides: list[str]) -> dict:
    doc: dict = {"seed": 0, "workers": 1}
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: a config must be a JSON object, got {loaded!r}")
        doc.update(loaded)
    for override in overrides or []:
        keys, value = _parse_set(override)
        node = doc
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object {key!r}")
        node[keys[-1]] = value
    model = doc.get("model")
    kind = str(model.get("kind", "dsm")) if isinstance(model, dict) else "dsm"
    extras = _field_rules(MODEL_KINDS[kind][1] if kind in MODEL_KINDS else BaseConfig)
    _check_keys(doc, {**_SCHEMA, "model": {**_SCHEMA["model"],
                                           "extras": (extras, f"model kind {kind!r}")}})
    return doc


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_meta(out_path: Path, command: str, digest: str) -> None:
    meta = {"command": command, "config_hash": digest}
    Path(str(out_path) + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(doc: dict) -> Path:
    out = Path(doc.get("output", {}).get("dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# data loading shared by train/cv
# ---------------------------------------------------------------------------


def _load_cohort(doc: dict):
    data = doc.get("data", {})
    if "cohort_csv" in data:
        cohort = cohort_from_csv(data["cohort_csv"])
    elif "synthetic" in data:
        cohort = generate_synthetic(*_synth_spec(data["synthetic"]))
    else:
        raise ConfigError("data section needs cohort_csv or synthetic")
    if "features_csv" in data:
        cohort = _join_features(cohort, data["features_csv"])
    return cohort


def _synth_spec(synth: dict) -> tuple[SynthSpec, int]:
    """`data.synthetic`, which load_config has checked, as (spec, n); every key is required."""
    missing = [key for key in _SCHEMA["data"]["synthetic"] if key not in synth]
    if missing:
        raise ConfigError(f"data.synthetic is missing {', '.join(missing)}")
    spec = {key: value for key, value in synth.items() if key != "n"}
    try:  # the cross-field rules: one shape, scale and beta row per risk, d betas each
        return SynthSpec(**spec), synth["n"]
    except DataError as exc:
        raise ConfigError(f"data.synthetic: {exc}") from exc


def _join_features(cohort, features_csv: str):
    """Fuse an external id-keyed feature CSV onto the cohort by subject id."""
    rows: dict[str, list[float]] = {}
    lines: dict[str, int] = {}
    with open_input(features_csv) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[0] != "id":
            raise DataError(f"{features_csv}: first column must be 'id'")
        names = header[1:]
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise DataError(f"{features_csv}:{lineno}: bad field count")
            first = lines.setdefault(parts[0], lineno)
            if first != lineno:
                raise DataError(f"{features_csv}:{lineno}: id {parts[0]} repeats line {first}")
            try:
                rows[parts[0]] = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise DataError(f"{features_csv}:{lineno}: {exc}") from exc
    ids = cohort.ids
    missing = [sid for sid in ids if sid not in rows]
    if missing:
        raise DataError(f"{features_csv}: missing features for ids {missing[:5]}")
    extra = np.array([rows[sid] for sid in ids]).reshape(len(ids), len(names))
    return cohort.with_features(np.concatenate([cohort.features, extra], axis=1),
                                cohort.feature_names + names)


def _model_spec(doc: dict) -> tuple[str, dict]:
    """The model kind and its config extras, which load_config has checked."""
    model = doc.get("model", {})
    return model.get("kind", "dsm"), model.get("extras") or {}


def _cv_settings(doc: dict) -> tuple[CvSettings, int, HParamGrid, str]:
    """(settings, k, grid, model kind) of a `cv` run; k is `cv.k`, else the
    preset's (desk 3, full 5)."""
    cv = doc.get("cv", {})
    kind, extras = _model_spec(doc)
    chosen = {key: cv[key] for key in ("n_iter", "max_epochs", "patience", "modality")
              if key in cv}
    desk = cv.get("preset") == "desk"
    preset = CvSettings.desk() if desk else CvSettings()
    settings = dataclasses.replace(preset, **chosen, **doc.get("features", {}),
                                   extra_fields=extras or None)
    grid = HParamGrid(**{key: tuple(value) for key, value in doc.get("grid", {}).items()})
    return settings, cv.get("k", 3 if desk else 5), grid, kind


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    doc = load_config(args.config, args.set)
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    if "synthetic" not in doc.get("data", {}):
        raise ConfigError("synth needs a data.synthetic section")
    spec, n = _synth_spec(doc["data"]["synthetic"])
    cohort = generate_synthetic(spec, n)
    out = _out_dir(doc) / (args.out or "cohort.csv")
    cohort_to_csv(cohort, out)
    sidecar = {"config_hash": digest, "n": n, "spec": spec.to_json()}
    Path(str(out) + ".spec.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_meta(out, "synth", digest)
    print(f"wrote {out} ({cohort.n} subjects, {cohort.n_risks} risks)")
    return 0


def cmd_label(args) -> int:
    digest = config_hash({"records": args.records, "imaging": args.imaging,
                          "codes": args.codes, "censor_date": args.censor_date})
    print(f"config_hash={digest}")
    records = records_from_csv(args.records)
    imaging = imaging_dates_from_csv(args.imaging)
    codes = code_sets_from_json(args.codes)
    try:
        censor = dt.date.fromisoformat(args.censor_date)
    except ValueError as exc:
        raise ConfigError(f"bad censor date {args.censor_date!r}") from exc
    cohort, stats = build_labels(records, imaging, codes, censor)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cohort_to_csv(cohort, out)
    _write_meta(out, "label", digest)
    print(f"excluded (event before or within window): {stats.excluded_prior_or_window}")
    print(f"skipped (missing imaging date): {stats.missing_imaging_date}")
    for name, count in stats.labeled_per_risk.items():
        print(f"labeled {name}: {count}")
    print(f"censored: {stats.censored}")
    print(f"wrote {out} ({cohort.n} subjects)")
    return 0


def cmd_features(args) -> int:
    digest = config_hash({"cohort": args.cohort, "category_map": args.category_map,
                          "standardize": args.standardize, "pca": args.pca,
                          "fuse": args.fuse, "out": args.out})
    print(f"config_hash={digest}")
    cohort = cohort_from_csv(args.cohort)
    matrix, names = cohort.features, cohort.feature_names
    categories = (category_map_from_json(args.category_map, names)
                  if args.category_map else None)
    if args.standardize:
        [matrix] = standardize_fit_apply(matrix)
    if args.pca:
        matrix, names = pca_apply(pca_fit(matrix, args.pca, categories), matrix)
    if args.fuse:
        other = cohort_from_csv(args.fuse)
        if other.ids != cohort.ids:
            raise DataError("fuse: subject ids or order differ between files")
        matrix = np.concatenate([matrix, other.features], axis=1)
        names = names + other.feature_names
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cohort_to_csv(cohort.with_features(matrix, names), out)
    _write_meta(out, "features", digest)
    print(f"wrote {out} ({len(names)} feature columns)")
    return 0


def cmd_train(args) -> int:
    doc = load_config(args.config, args.set)
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    kind, extras = _model_spec(doc)
    cohort = _load_cohort(doc)
    model = build_model(kind, **extras)
    history = model.fit(cohort, seed=doc["seed"])
    out = _out_dir(doc) / f"{kind}.rbck"
    model.save(out)
    hist_path = _out_dir(doc) / f"{kind}.history.json"
    hist_path.write_text(json.dumps(
        {"config_hash": digest, **history.to_json()}, indent=2, sort_keys=True
    ) + "\n", encoding="utf-8")
    _write_meta(out, "train", digest)
    print(f"wrote {out} (best epoch {history.best_epoch})")
    return 0


def cmd_cv(args) -> int:
    overrides = list(args.set)
    if args.workers is not None:
        overrides.append(f"workers={args.workers}")
    doc = load_config(args.config, overrides)
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    settings, k, grid, kind = _cv_settings(doc)
    cohort = _load_cohort(doc)
    if "category_map" in doc.get("data", {}):
        settings.categories = category_map_from_json(doc["data"]["category_map"],
                                                     list(cohort.feature_names))
    if doc.get("cv", {}).get("save_fold_checkpoints", False):
        settings.checkpoint_dir = str(_out_dir(doc))
    report = nested_cv(cohort, kind, grid=grid, k=k,
                       seed=doc["seed"], settings=settings,
                       workers=doc.get("workers", 1))
    out = _out_dir(doc)
    report_doc = {"config_hash": digest, "report": report.to_json()}
    (out / "report.json").write_text(report_to_json_str(report_doc), encoding="utf-8")
    markdown, _table = emit_report([report])
    (out / "report.md").write_text(
        f"config_hash={digest}\n\n" + markdown, encoding="utf-8")
    for name in report.risk_names:
        agg = report.aggregate[name]
        print(f"{name}: {agg['mean']:.3f} ({agg['lo']:.3f}, {agg['hi']:.3f})")
    print(f"wrote {out / 'report.json'} and {out / 'report.md'}")
    return 0


def _mae_config(doc: dict) -> MaeConfig:
    config = MaeConfig(**{k: v for k, v in doc.get("mae", {}).items()
                          if k in MaeConfig.__dataclass_fields__})
    if config.embed_dim % config.heads:
        raise ConfigError(f"mae.embed_dim must be divisible by mae.heads, "
                          f"got {config.embed_dim} and {config.heads}")
    config.patch_size = tuple(config.patch_size)
    return config


def _mae_volumes(doc: dict) -> tuple[list[str], Iterator]:
    """Volume names, and the volumes as an iterator that reads or makes
    one at a time."""
    mae = doc.get("mae", {})
    if "volumes_dir" in mae:
        paths = sorted(Path(mae["volumes_dir"]).glob("*.rbvl"))
        if not paths:
            raise DataError(f"no .rbvl volumes in {mae['volumes_dir']}")
        return [p.stem for p in paths], map(load_volume, paths)
    n = mae.get("n_phantoms", 20)
    dims = tuple(mae.get("dims", (60, 40, 40, 2)))
    return subject_ids(n), iter_phantoms(n, dims=dims, seed=doc["seed"])


def cmd_mae_train(args) -> int:
    doc = load_config(args.config, args.set)
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    config = _mae_config(doc)
    _names, volumes = _mae_volumes(doc)
    model, history = train_mae(volumes, config, seed=doc["seed"])
    out = _out_dir(doc) / "mae.rbck"
    model.save(out)
    (_out_dir(doc) / "mae.history.json").write_text(json.dumps(
        {"config_hash": digest, **history.to_json()}, indent=2, sort_keys=True
    ) + "\n", encoding="utf-8")
    _write_meta(out, "mae-train", digest)
    print(f"wrote {out} (final epoch loss {history.epoch_losses[-1]:.6f})")
    return 0


def cmd_embed(args) -> int:
    doc = load_config(args.config, args.set)
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    checkpoint = doc.get("mae", {}).get("checkpoint")
    if checkpoint is None:
        raise ConfigError("embed needs mae.checkpoint")
    if not Path(checkpoint).exists():
        raise DataError(f"checkpoint not found: {checkpoint}")
    model = MaeModel.load(checkpoint)
    names, volumes = _mae_volumes(doc)
    out = _out_dir(doc) / (args.out or "embeddings.csv")
    dim = model.config.embed_dim
    # rows are held until every volume is read, so a bad one writes nothing
    lines = ["id," + ",".join(f"e{j + 1}" for j in range(dim))]
    for name, vol in zip(names, volumes):
        emb = extract_embedding(model, vol)
        lines.append(name + "," + ",".join(repr(float(v)) for v in emb))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    _write_meta(out, "embed", digest)
    print(f"wrote {out} ({len(names)} rows x {dim + 1} columns)")
    return 0


def _read_report(path: str) -> CVReport:
    """A `cv` report.json, or its bare "report" object, with a finite numeric
    mean/lo/hi aggregate cell per risk name; anything else is a DataError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: a report must be a JSON object")
    try:
        report = CVReport.from_json(doc.get("report", doc))
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a cv report ({type(exc).__name__}: {exc})") from exc
    if not isinstance(report.aggregate, dict) or not isinstance(report.risk_names, list):
        raise DataError(f"{path}: aggregate must be a JSON object and risk_names a list")
    for name in report.risk_names:
        cell = report.aggregate.get(name) if isinstance(name, str) else None
        if not isinstance(cell, dict):
            raise DataError(f"{path}: no aggregate cell for risk {name!r}")
        for key in ("mean", "lo", "hi"):
            value = cell.get(key)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise DataError(f"{path}: aggregate {name!r} {key} must be a finite "
                                f"number, got {value!r}")
    return report


def cmd_report(args) -> int:
    digest = config_hash({"inputs": list(args.inputs)})
    print(f"config_hash={digest}")
    markdown, table = emit_report([_read_report(path) for path in args.inputs])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.md").write_text(markdown, encoding="utf-8")
    (out / "report.json").write_text(
        report_to_json_str({"config_hash": digest, "table": table}), encoding="utf-8")
    print(markdown)
    return 0


def cmd_make_volumes(args) -> int:
    """Helper: write phantom volumes as .rbvl files for embed/mae-train."""
    doc = load_config(args.config, args.set)
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    names, volumes = _mae_volumes(doc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, vol in zip(names, volumes):
        save_volume(vol, out / f"{name}.rbvl")
    print(f"wrote {len(names)} volumes to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--set", action="append", default=[],
                   help="override a config key: section.key=value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbench",
        description="Competing-risks models, nested-CV evaluation, and a "
                    "masked-autoencoder representation learner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    _add_config_args(p)
    p.add_argument("--out", help="output file name inside output.dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("label", help="build labels from diagnosis records")
    p.add_argument("--records", required=True, help="CSV id,code,date")
    p.add_argument("--imaging", required=True, help="CSV id,date")
    p.add_argument("--codes", required=True, help="JSON risk -> code list")
    p.add_argument("--censor-date", required=True, help="ISO date")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("features", help="standardize / PCA / fuse features")
    p.add_argument("--cohort", required=True)
    p.add_argument("--category-map")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--pca", type=_non_negative, default=0, help="components (0 = no PCA)")
    p.add_argument("--fuse", help="second cohort CSV to concatenate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit one model on the full cohort")
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="nested cross-validation")
    _add_config_args(p)
    p.add_argument("--workers", type=int, help="fold job pool size (1 = serial)")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("mae-train", help="train the masked autoencoder")
    _add_config_args(p)
    p.set_defaults(func=cmd_mae_train)

    p = sub.add_parser("embed", help="extract volume embeddings to CSV")
    _add_config_args(p)
    p.add_argument("--out", help="output file name inside output.dir")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("report", help="merge CV reports into result tables")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("make-volumes", help="write phantom .rbvl files")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_volumes)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
