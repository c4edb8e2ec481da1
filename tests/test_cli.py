import json

import numpy as np
import pytest

from riskbench.cli import main
from riskbench.cohort import SynthSpec, cohort_from_csv, oracle_cif

DESK_CV = {
    "seed": 7,
    "data": {"synthetic": {"n": 150, "d": 4, "shapes": [1.4, 2.2],
                           "scales": [6.0, 8.0],
                           "betas": [[1.2, 0, 0, 0], [0, 1.2, 0, 0]],
                           "horizon": 15.0, "seed": 3}},
    "model": {"kind": "nfg", "extras": {}},
    "cv": {"k": 3, "preset": "desk", "n_iter": 2, "max_epochs": 3,
           "modality": "synthetic"},
}


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_synth_writes_header_plus_rows(tmp_path, capsys):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    doc["data"] = {"synthetic": {**DESK_CV["data"]["synthetic"], "n": 100}}
    cfg = _write_config(tmp_path, doc)
    assert main(["synth", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "cohort.csv").read_text().splitlines()
    assert len(lines) == 101
    assert "config_hash=" in capsys.readouterr().out


def test_synth_same_seed_identical_bytes(tmp_path):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "a")}}
    cfg = _write_config(tmp_path, doc)
    main(["synth", "--config", cfg])
    first = (tmp_path / "a" / "cohort.csv").read_bytes()
    main(["synth", "--config", cfg])
    assert (tmp_path / "a" / "cohort.csv").read_bytes() == first


def test_synth_spec_sidecar_reproduces_oracle(tmp_path):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    main(["synth", "--config", cfg])
    sidecar = json.loads((tmp_path / "out" / "cohort.csv.spec.json").read_text())
    spec = SynthSpec.from_json(sidecar["spec"])
    x = np.array([0.5, -0.2, 0.1, 0.0])
    direct = SynthSpec(d=4, shapes=[1.4, 2.2], scales=[6.0, 8.0],
                       betas=[[1.2, 0, 0, 0], [0, 1.2, 0, 0]],
                       horizon=15.0, seed=3)
    assert oracle_cif(spec, x, 3.0, 1) == oracle_cif(direct, x, 3.0, 1)


def test_label_toy_input(tmp_path, capsys):
    (tmp_path / "records.csv").write_text(
        "id,code,date\n"
        "a,I25,2016-06-01\n"
        "b,E11,2015-02-01\n"  # inside exclusion window
        "c,E11,2017-01-01\n",
        encoding="utf-8")
    (tmp_path / "imaging.csv").write_text(
        "id,date\na,2015-01-01\nb,2015-01-01\nc,2015-01-01\nd,2015-01-01\n",
        encoding="utf-8")
    (tmp_path / "codes.json").write_text(
        json.dumps({"cvd": ["I25"], "t2d": ["E11"]}), encoding="utf-8")
    out = tmp_path / "labels.csv"
    rc = main(["label", "--records", str(tmp_path / "records.csv"),
               "--imaging", str(tmp_path / "imaging.csv"),
               "--codes", str(tmp_path / "codes.json"),
               "--censor-date", "2020-01-01", "--out", str(out)])
    assert rc == 0
    cohort = cohort_from_csv(out, risk_names=["cvd", "t2d"])
    by_id = dict(zip(cohort.ids, cohort.events))
    assert set(by_id) == {"a", "c", "d"}
    assert by_id["a"] == 1
    assert by_id["c"] == 2
    assert by_id["d"] == 0
    stdout = capsys.readouterr().out
    assert "excluded (event before or within window): 1" in stdout


def test_label_empty_records_all_censored(tmp_path):
    (tmp_path / "records.csv").write_text("id,code,date\n", encoding="utf-8")
    (tmp_path / "imaging.csv").write_text("id,date\na,2015-01-01\n", encoding="utf-8")
    (tmp_path / "codes.json").write_text(json.dumps({"cvd": ["I25"]}), encoding="utf-8")
    out = tmp_path / "labels.csv"
    main(["label", "--records", str(tmp_path / "records.csv"),
          "--imaging", str(tmp_path / "imaging.csv"),
          "--codes", str(tmp_path / "codes.json"),
          "--censor-date", "2020-01-01", "--out", str(out)])
    cohort = cohort_from_csv(out, risk_names=["cvd"])
    assert cohort.n == 1
    assert cohort.events[0] == 0


def test_label_bad_date_names_line(tmp_path, capsys):
    (tmp_path / "records.csv").write_text(
        "id,code,date\na,I25,not-a-date\n", encoding="utf-8")
    (tmp_path / "imaging.csv").write_text("id,date\na,2015-01-01\n", encoding="utf-8")
    (tmp_path / "codes.json").write_text(json.dumps({"cvd": ["I25"]}), encoding="utf-8")
    rc = main(["label", "--records", str(tmp_path / "records.csv"),
               "--imaging", str(tmp_path / "imaging.csv"),
               "--codes", str(tmp_path / "codes.json"),
               "--censor-date", "2020-01-01", "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert ":2:" in capsys.readouterr().err  # line number of the bad row


def test_cv_writes_reports_and_cells(tmp_path):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    assert main(["cv", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config_hash"]
    md = (tmp_path / "out" / "report.md").read_text()
    import re

    assert re.search(r"\d\.\d{3} \(\d\.\d{3}, \d\.\d{3}\)", md)


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**DESK_CV, "bogus": 1})
    assert main(["cv", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_embed_shape_and_determinism(tmp_path):
    out = tmp_path / "out"
    doc = {"seed": 4,
           "mae": {"n_phantoms": 10, "dims": [30, 20, 20, 2], "embed_dim": 64,
                   "enc_layers": 1, "dec_layers": 1, "epochs": 1},
           "output": {"dir": str(out)}}
    cfg = _write_config(tmp_path, doc)
    assert main(["mae-train", "--config", cfg]) == 0
    ckpt = str(out / "mae.rbck")
    assert main(["embed", "--config", cfg, "--set", f"mae.checkpoint={ckpt}"]) == 0
    lines = (out / "embeddings.csv").read_text().splitlines()
    assert len(lines) == 11
    assert len(lines[0].split(",")) == 65
    first = (out / "embeddings.csv").read_bytes()
    main(["embed", "--config", cfg, "--set", f"mae.checkpoint={ckpt}"])
    assert (out / "embeddings.csv").read_bytes() == first


def test_embed_missing_checkpoint_exit_3(tmp_path):
    doc = {"seed": 4, "mae": {"n_phantoms": 2, "dims": [30, 20, 20, 2],
                              "checkpoint": str(tmp_path / "nope.rbck")},
           "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    assert main(["embed", "--config", cfg]) == 3


def test_features_command_standardize_and_pca(tmp_path):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    main(["synth", "--config", cfg])
    cohort_csv = str(tmp_path / "out" / "cohort.csv")
    out_csv = str(tmp_path / "out" / "reduced.csv")
    rc = main(["features", "--cohort", cohort_csv, "--standardize",
               "--pca", "2", "--out", out_csv])
    assert rc == 0
    reduced = cohort_from_csv(out_csv)
    assert reduced.d == 2
    assert reduced.feature_names == ["all_pc1", "all_pc2"]


def test_report_merges_multiple_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write_config(tmp_path, {**DESK_CV, "output": {"dir": str(out_a)}}, "a.json")
    doc_b = json.loads(json.dumps(DESK_CV))
    doc_b["model"]["kind"] = "deephit"
    doc_b["output"] = {"dir": str(out_b)}
    cfg_b = _write_config(tmp_path, doc_b, "b.json")
    main(["cv", "--config", cfg_a])
    main(["cv", "--config", cfg_b])
    merged = tmp_path / "merged"
    rc = main(["report", "--inputs", str(out_a / "report.json"),
               str(out_b / "report.json"), "--out", str(merged)])
    assert rc == 0
    table = json.loads((merged / "report.json").read_text())["table"]
    assert len(table["rows"]) == 2
    md = (merged / "report.md").read_text()
    assert "nfg" in md and "deephit" in md


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_failure_exit_4(tmp_path, capsys):
    doc = json.loads(json.dumps(DESK_CV))
    doc["model"] = {"kind": "dsm",
                    "extras": {"lr": 1e12, "warmup_iters": 0, "max_epochs": 3,
                               "layers": 1, "nodes": 8}}
    doc["output"] = {"dir": str(tmp_path / "out")}
    cfg = _write_config(tmp_path, doc)
    assert main(["train", "--config", cfg]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_cv_workers_flag_value_identical(tmp_path):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "w1")}}
    cfg = _write_config(tmp_path, doc)
    main(["cv", "--config", cfg])
    main(["cv", "--config", cfg, "--workers", "2",
          "--set", f"output.dir={tmp_path / 'w2'}"])
    one = json.loads((tmp_path / "w1" / "report.json").read_text())["report"]
    two = json.loads((tmp_path / "w2" / "report.json").read_text())["report"]
    assert one == two


def test_make_volumes_roundtrip(tmp_path):
    doc = {"seed": 9, "mae": {"n_phantoms": 3, "dims": [30, 20, 20, 2]}}
    cfg = _write_config(tmp_path, doc)
    vol_dir = tmp_path / "vols"
    assert main(["make-volumes", "--config", cfg, "--out", str(vol_dir)]) == 0
    assert len(list(vol_dir.glob("*.rbvl"))) == 3


def _cohort_with_nan_time(tmp_path) -> str:
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    main(["synth", "--config", _write_config(tmp_path, doc, "synth.json")])
    lines = (tmp_path / "out" / "cohort.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_train_nan_time_in_cohort_csv_exit_3(tmp_path, capsys):
    doc = {**DESK_CV, "data": {"cohort_csv": _cohort_with_nan_time(tmp_path)},
           "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 3
    assert "non-finite time" in capsys.readouterr().err


def test_train_bad_features_csv_cell_exit_3(tmp_path, capsys):
    feats = tmp_path / "feats.csv"
    rows = ["id,f1"] + [f"s{i:06d},{0.1 * i}" for i in range(150)]
    rows[3] = "s000002,abc"
    feats.write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = {**DESK_CV, "data": {**DESK_CV["data"], "features_csv": str(feats)},
           "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 3
    assert f"{feats}:4:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv"])
def test_unknown_model_extras_key_exit_2(tmp_path, capsys, command):
    doc = {**DESK_CV, "model": {"kind": "dsm", "extras": {"bogus": 3}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "'dsm'" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_embed_damaged_checkpoint_exit_3(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {"seed": 4,
           "mae": {"n_phantoms": 2, "dims": [30, 20, 20, 2], "embed_dim": 16,
                   "enc_layers": 1, "dec_layers": 1, "heads": 2, "epochs": 1},
           "output": {"dir": str(out)}}
    cfg = _write_config(tmp_path, doc)
    assert main(["mae-train", "--config", cfg]) == 0
    ckpt = out / "mae.rbck"
    sidecar = out / "mae.rbck.json"
    embed = ["embed", "--config", cfg, "--set", f"mae.checkpoint={ckpt}"]
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    capsys.readouterr()
    assert main(embed) == 3
    assert "data error" in capsys.readouterr().err
    ckpt.write_bytes(blob)
    meta = json.loads(sidecar.read_text())
    del meta["config"]["patch_size"]
    sidecar.write_text(json.dumps(meta))
    assert main(embed) == 3
    assert "patch_size" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv"])
@pytest.mark.parametrize("kind, extras, key", [
    ("dsm", {"k": "three"}, "'k'"),
    ("nfg", {"lr": "fast"}, "'lr'"),
    ("deephit", {"max_epochs": 2.5}, "'max_epochs'"),
])
def test_model_extras_wrong_type_exit_2(tmp_path, capsys, command, kind, extras, key):
    doc = {**DESK_CV, "model": {"kind": kind, "extras": extras},
           "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert key in err and f"'{kind}'" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_model_extras_float_field_accepts_integer_and_fraction(tmp_path):
    # `patience` is a float field with an integer default
    doc = {**DESK_CV, "model": {"kind": "nfg", "extras": {"patience": 2.5, "lr": 1,
                                                          "max_epochs": 1}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 0


@pytest.mark.parametrize("sidecar_text", [None, "{not json", "[1, 2]"])
def test_embed_missing_or_bad_sidecar_exit_3(tmp_path, capsys, sidecar_text):
    out = tmp_path / "out"
    doc = {"seed": 4,
           "mae": {"n_phantoms": 2, "dims": [30, 20, 20, 2], "embed_dim": 16,
                   "enc_layers": 1, "dec_layers": 1, "heads": 2, "epochs": 1},
           "output": {"dir": str(out)}}
    cfg = _write_config(tmp_path, doc)
    assert main(["mae-train", "--config", cfg]) == 0
    sidecar = out / "mae.rbck.json"
    if sidecar_text is None:
        sidecar.unlink()
    else:
        sidecar.write_text(sidecar_text, encoding="utf-8")
    capsys.readouterr()
    assert main(["embed", "--config", cfg, "--set", f"mae.checkpoint={out / 'mae.rbck'}"]) == 3
    assert "mae.rbck.json" in capsys.readouterr().err
