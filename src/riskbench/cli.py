"""Command-line entry point.

Subcommands: synth, label, features, train, cv, mae-train, embed, report.
Runs are driven by a JSON config with `--set section.key=value` overrides;
`riskbench.config` reads it and checks every key's type and bound before any
work, rejecting unknown keys. Every command prints the resolved config hash; outputs carry it
for provenance (JSON outputs embed it, CSV and checkpoint outputs get a
.meta.json sidecar). All randomness derives from the single `seed` key. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import asdict
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
    join_features_csv,
    records_from_csv,
    subject_ids,
)
from .config import build_config, load_config
from .errors import ConfigError, DataError, NumericError
from .features import category_map_from_json, pca_apply, pca_fit, standardize_fit_apply
from .files import output_dir, read_json_object, write_csv, write_json, write_text
from .mae import (
    MaeConfig,
    MaeModel,
    extract_embedding,
    iter_phantoms,
    load_volume,
    save_volume,
    train_mae,
)
from .models import build_model
from .pipeline import (
    CV_PRESETS,
    CVReport,
    CvSettings,
    FoldResult,
    HParamGrid,
    emit_report,
    nested_cv,
)

def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _print_hash(doc: dict) -> str:
    """The config hash of `doc`, printed before any work."""
    digest = config_hash(doc)
    print(f"config_hash={digest}")
    return digest


def _write_meta(out_path: Path, command: str, digest: str) -> None:
    write_json(f"{out_path}.meta.json", {"command": command, "config_hash": digest})


def _out_dir(doc: dict) -> Path:
    return output_dir(doc.get("output", {}).get("dir", "out"))


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
        cohort = join_features_csv(cohort, data["features_csv"])
    return cohort


def _synth_spec(synth: dict) -> tuple[SynthSpec, int]:
    """`data.synthetic`, which load_config has checked, as (spec, n); every key is required."""
    return build_config(SynthSpec, synth, "data.synthetic", needs=("n",)), synth["n"]


def _model_spec(doc: dict) -> tuple[str, dict]:
    """The model kind and its config extras, which load_config has checked."""
    model = doc.get("model", {})
    return model.get("kind", "dsm"), model.get("extras") or {}


def _cv_settings(doc: dict) -> tuple[CvSettings, int, HParamGrid, str]:
    """(settings, k, grid, model kind) of a `cv` run: the `cv` and `features`
    sections over the values of the preset `cv.preset` (`CV_PRESETS`)."""
    cv = doc.get("cv", {})
    kind, extras = _model_spec(doc)
    chosen = {**CV_PRESETS[cv.get("preset", "full")], **cv, **doc.get("features", {})}
    settings = build_config(CvSettings, chosen, "cv")
    settings.extra_fields = extras or None
    grid = build_config(HParamGrid, doc.get("grid", {}), "grid")
    return settings, chosen["k"], grid, kind


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    doc = load_config(args.config, args.set)
    digest = _print_hash(doc)
    if "synthetic" not in doc.get("data", {}):
        raise ConfigError("synth needs a data.synthetic section")
    spec, n = _synth_spec(doc["data"]["synthetic"])
    cohort = generate_synthetic(spec, n)
    out = _out_dir(doc) / (args.out or "cohort.csv")
    cohort_to_csv(cohort, out)
    write_json(f"{out}.spec.json",
               {"config_hash": digest, "n": n, "spec": asdict(spec)})
    _write_meta(out, "synth", digest)
    print(f"wrote {out} ({cohort.n} subjects, {cohort.n_risks} risks)")
    return 0


def cmd_label(args) -> int:
    digest = _print_hash({"records": args.records, "imaging": args.imaging,
                          "codes": args.codes, "censor_date": args.censor_date})
    records = records_from_csv(args.records)
    imaging = imaging_dates_from_csv(args.imaging)
    codes = code_sets_from_json(args.codes)
    try:
        censor = dt.date.fromisoformat(args.censor_date)
    except ValueError as exc:
        raise ConfigError(f"bad censor date {args.censor_date!r}") from exc
    cohort, stats = build_labels(records, imaging, codes, censor)
    out = Path(args.out)
    output_dir(out.parent)
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
    digest = _print_hash({"cohort": args.cohort, "category_map": args.category_map,
                          "standardize": args.standardize, "pca": args.pca,
                          "fuse": args.fuse, "out": args.out})
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
    output_dir(out.parent)
    cohort_to_csv(cohort.with_features(matrix, names), out)
    _write_meta(out, "features", digest)
    print(f"wrote {out} ({len(names)} feature columns)")
    return 0


def cmd_train(args) -> int:
    doc = load_config(args.config, args.set)
    digest = _print_hash(doc)
    kind, extras = _model_spec(doc)
    cohort = _load_cohort(doc)
    model = build_model(kind, **extras)
    out = _out_dir(doc) / f"{kind}.rbck"
    history = model.fit(cohort, seed=doc["seed"])
    model.save(out)
    write_json(out.parent / f"{kind}.history.json", {"config_hash": digest, **asdict(history)})
    _write_meta(out, "train", digest)
    print(f"wrote {out} (best epoch {history.best_epoch})")
    return 0


def cmd_cv(args) -> int:
    overrides = list(args.set)
    if args.workers is not None:
        overrides.append(f"workers={args.workers}")
    doc = load_config(args.config, overrides)
    digest = _print_hash(doc)
    settings, k, grid, kind = _cv_settings(doc)
    cohort = _load_cohort(doc)
    if "category_map" in doc.get("data", {}):
        settings.categories = category_map_from_json(doc["data"]["category_map"],
                                                     list(cohort.feature_names))
    out = _out_dir(doc)
    if doc.get("cv", {}).get("save_fold_checkpoints", False):
        settings.checkpoint_dir = str(out)
    report = nested_cv(cohort, kind, grid=grid, k=k,
                       seed=doc["seed"], settings=settings,
                       workers=doc.get("workers", 1))
    write_json(out / "report.json", {"config_hash": digest, "report": asdict(report)})
    markdown, _table = emit_report([report])
    write_text(out / "report.md", f"config_hash={digest}\n\n" + markdown)
    for name in report.risk_names:
        agg = report.aggregate[name]
        print(f"{name}: {agg['mean']:.3f} ({agg['lo']:.3f}, {agg['hi']:.3f})")
    print(f"wrote {out / 'report.json'} and {out / 'report.md'}")
    return 0


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
    digest = _print_hash(doc)
    config = build_config(MaeConfig, doc.get("mae", {}), "mae")
    _names, volumes = _mae_volumes(doc)
    model, history = train_mae(volumes, config, seed=doc["seed"],
                               before_steps=lambda: _out_dir(doc))
    out = _out_dir(doc) / "mae.rbck"
    model.save(out)
    write_json(out.parent / "mae.history.json", {"config_hash": digest, **asdict(history)})
    _write_meta(out, "mae-train", digest)
    print(f"wrote {out} (final epoch loss {history.epoch_losses[-1]:.6f})")
    return 0


def cmd_embed(args) -> int:
    doc = load_config(args.config, args.set)
    digest = _print_hash(doc)
    checkpoint = doc.get("mae", {}).get("checkpoint")
    if checkpoint is None:
        raise ConfigError("embed needs mae.checkpoint")
    model = MaeModel.load(checkpoint)
    names, volumes = _mae_volumes(doc)
    out = _out_dir(doc) / (args.out or "embeddings.csv")
    dim = model.config.embed_dim
    # rows are held until every volume is read, so a bad one writes nothing
    rows = [[name] + [repr(float(v)) for v in extract_embedding(model, vol)]
            for name, vol in zip(names, volumes)]
    write_csv(out, ["id"] + [f"e{j + 1}" for j in range(dim)], rows)
    _write_meta(out, "embed", digest)
    print(f"wrote {out} ({len(names)} rows x {dim + 1} columns)")
    return 0


def _read_report(path: str) -> CVReport:
    """A `cv` report.json, or its bare "report" object, with a finite numeric
    mean/lo/hi aggregate cell per risk name; anything else is a DataError."""
    doc = read_json_object(path)
    try:
        report = CVReport(**doc.get("report", doc))
        report.folds = [FoldResult(**fold) for fold in report.folds]
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
    digest = _print_hash({"inputs": list(args.inputs)})
    markdown, table = emit_report([_read_report(path) for path in args.inputs])
    out = output_dir(args.out)
    write_text(out / "report.md", markdown)
    write_json(out / "report.json", {"config_hash": digest, "table": table})
    print(markdown)
    return 0


def cmd_make_volumes(args) -> int:
    """Helper: write phantom volumes as .rbvl files for embed/mae-train."""
    doc = load_config(args.config, args.set)
    digest = _print_hash(doc)
    names, volumes = _mae_volumes(doc)
    out = output_dir(args.out)
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
