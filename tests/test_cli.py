import csv
import json

import numpy as np
import pytest

from riskbench.cli import _load_cohort, main
from riskbench.cohort import Cohort, SynthSpec, cohort_from_csv, cohort_to_csv, oracle_cif
from riskbench.config import build_config
from riskbench.mae import MaeConfig, MaeModel

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
    spec = build_config(SynthSpec, sidecar["spec"], "spec", complete=True)
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


def test_features_fuse_colliding_column_exit_3(tmp_path, capsys):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    main(["synth", "--config", _write_config(tmp_path, doc)])
    cohort_csv = str(tmp_path / "out" / "cohort.csv")
    out_csv = tmp_path / "fused.csv"
    capsys.readouterr()
    assert main(["features", "--cohort", cohort_csv, "--fuse", cohort_csv,
                 "--out", str(out_csv)]) == 3
    assert "duplicate feature column 'x1'" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cv_desk_preset_without_k_runs_three_folds(tmp_path):
    cv = {key: value for key, value in DESK_CV["cv"].items() if key != "k"}
    doc = {**DESK_CV, "cv": {**cv, "n_iter": 1, "max_epochs": 1},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["cv", "--config", _write_config(tmp_path, doc)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert report["k"] == 3
    assert [fold["fold"] for fold in report["folds"]] == [0, 1, 2]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mae_train_numeric_failure_exit_4_writes_no_checkpoint(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {"seed": 2,
           "mae": {"n_phantoms": 3, "dims": [30, 20, 20, 2], "embed_dim": 8,
                   "enc_layers": 1, "dec_layers": 1, "heads": 2, "mlp_ratio": 2,
                   "epochs": 2, "lr": 1e15},
           "output": {"dir": str(out)}}
    assert main(["mae-train", "--config", _write_config(tmp_path, doc)]) == 4
    err = capsys.readouterr().err
    assert "numeric failure: mae: non-finite loss at epoch" in err
    assert "restored" not in err
    assert not (out / "mae.rbck").exists()


def test_cv_workers_flag_value_identical(tmp_path):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "w1")}}
    cfg = _write_config(tmp_path, doc)
    main(["cv", "--config", cfg])
    main(["cv", "--config", cfg, "--workers", "2",
          "--set", f"output.dir={tmp_path / 'w2'}"])
    one = json.loads((tmp_path / "w1" / "report.json").read_text())["report"]
    two = json.loads((tmp_path / "w2" / "report.json").read_text())["report"]
    assert one == two


def test_cv_workers_report_value_equal_at_one_and_two_blas_threads(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, DESK_CV)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"blas{threads}"
        assert main(["cv", "--config", cfg, "--workers", "2", "--set", f"output.dir={out}"]) == 0
        reports.append(json.loads((out / "report.json").read_text())["report"])
    assert reports[0] == reports[1]


def test_make_volumes_roundtrip(tmp_path):
    doc = {"seed": 9, "mae": {"n_phantoms": 3, "dims": [30, 20, 20, 2]}}
    cfg = _write_config(tmp_path, doc)
    vol_dir = tmp_path / "vols"
    assert main(["make-volumes", "--config", cfg, "--out", str(vol_dir)]) == 0
    assert len(list(vol_dir.glob("*.rbvl"))) == 3


@pytest.mark.parametrize("damage", [lambda blob: b"XXXX" + blob[4:], lambda blob: blob[:-4], None],
                         ids=["bad magic", "truncated", "a directory"])
def test_corrupt_last_volume_exit_3_writes_nothing(tmp_path, capsys, damage):
    """Volumes are read one at a time, but all of them before any output."""
    doc = {"seed": 9, "mae": {"n_phantoms": 3, "dims": [30, 20, 20, 2], "embed_dim": 16,
                              "enc_layers": 1, "dec_layers": 1, "epochs": 1},
           "output": {"dir": str(tmp_path / "ok")}}
    cfg = _write_config(tmp_path, doc)
    vol_dir = tmp_path / "vols"
    assert main(["make-volumes", "--config", cfg, "--out", str(vol_dir)]) == 0
    assert main(["mae-train", "--config", cfg]) == 0
    bad = vol_dir / "zz.rbvl"  # sorts last
    if damage is None:
        bad.mkdir()
    else:
        bad.write_bytes(damage((vol_dir / "s000000.rbvl").read_bytes()))
    out = tmp_path / "bad"
    common = ["--set", f"mae.volumes_dir={vol_dir}", "--set", f"output.dir={out}"]
    capsys.readouterr()
    for argv in (["mae-train", "--config", cfg],
                 ["embed", "--config", cfg, "--set",
                  f"mae.checkpoint={tmp_path / 'ok' / 'mae.rbck'}"]):
        assert main(argv + common) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("failure", ["missing directory", "full disk"])
def test_mae_train_spill_file_error_exit_3_names_directory(tmp_path, capsys, monkeypatch,
                                                           failure):
    """The rows spill to an anonymous file under the temporary directory; an
    OSError creating or writing it ends the run with exit 3, not a traceback."""
    import tempfile

    spill_dir = tmp_path / "missing" if failure == "missing directory" else tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    if failure == "full disk":  # every write to /dev/full fails with ENOSPC
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda: open("/dev/full", "w+b"))
    doc = {"seed": 9, "mae": {"n_phantoms": 2, "dims": [30, 20, 20, 2], "embed_dim": 16,
                              "enc_layers": 1, "dec_layers": 1, "epochs": 1},
           "output": {"dir": str(tmp_path / "out")}}
    capsys.readouterr()
    assert main(["mae-train", "--config", _write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(spill_dir) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_features_csv_reads_quoted_ids_like_the_cohort_csv(tmp_path):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text('id,time,event,x1\n"s1",1.5,1,0.5\ns2,2.0,0,0.25\n', encoding="utf-8")
    feats = tmp_path / "feats.csv"
    feats.write_text('id,f1\n"s2",2.0\n"s1",1.0\n', encoding="utf-8")
    joined = _load_cohort({"data": {"cohort_csv": str(cohort), "features_csv": str(feats)}})
    assert joined.ids == cohort_from_csv(str(cohort)).ids == ["s1", "s2"]
    assert joined.feature_names == ["x1", "f1"]
    assert np.array_equal(joined.features, [[0.5, 1.0], [0.25, 2.0]])


@pytest.mark.parametrize("header, repeat, message", [
    ("id,f1", True, ":5: id s000002 repeats line 4"),
    ("id,x1", False, "duplicate feature column 'x1'"),
], ids=["repeated id", "cohort column name"])
def test_train_features_csv_that_would_overwrite_or_shadow_data_exit_3(
        tmp_path, capsys, header, repeat, message):
    feats = tmp_path / "feats.csv"
    rows = [header] + [f"s{i:06d},{0.1 * i}" for i in range(150)]
    if repeat:
        rows.insert(4, "s000002,9.5")
    feats.write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = {**DESK_CV, "data": {**DESK_CV["data"], "features_csv": str(feats)},
           "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("repeat_id, message", [
    (True, ":6: id s000002 repeats line 4"),
    (False, ": feature column 'x1' repeats"),
], ids=["repeated id", "repeated feature column"])
def test_train_cohort_csv_with_a_repeated_id_or_feature_column_exit_3(
        tmp_path, capsys, repeat_id, message):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "synth")}}
    main(["synth", "--config", _write_config(tmp_path, doc, "synth.json")])
    lines = (tmp_path / "synth" / "cohort.csv").read_text().splitlines()
    if repeat_id:  # line 6 takes line 4's id
        lines[5] = "s000002," + lines[5].split(",", 1)[1]
    else:
        assert lines[0] == "id,time,event,x1,x2,x3,x4"
        lines[0] = "id,time,event,x1,x1,x3,x4"
    path = tmp_path / "repeats.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    doc = {**DESK_CV, "data": {"cohort_csv": str(path)},
           "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "output": {"dir": str(out)}}
    capsys.readouterr()
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 3
    assert f"{path}{message}" in capsys.readouterr().err
    assert not (out / "nfg.rbck").exists()


@pytest.mark.parametrize("kind", ["dsm", "nfg", "deephit"])
def test_train_on_five_subjects_exit_3(tmp_path, capsys, kind):
    # 10% of 5 subjects rounds to no validation rows for early stopping
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    main(["synth", "--config", _write_config(tmp_path, doc, "synth.json")])
    lines = (tmp_path / "out" / "cohort.csv").read_text().splitlines()[:6]
    assert {line.split(",")[2] for line in lines[1:]} == {"0", "1", "2"}
    path = tmp_path / "five.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {**DESK_CV, "data": {"cohort_csv": str(path)},
           "model": {"kind": kind, "extras": {"max_epochs": 1}},
           "output": {"dir": str(tmp_path / "out")}}
    capsys.readouterr()
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 3
    assert "validation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv"])
def test_unknown_model_extras_key_exit_2(tmp_path, capsys, command):
    doc = {**DESK_CV, "model": {"kind": "dsm", "extras": {"bogus": 3}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "'dsm'" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("key", ["warmup_lr", "budget_weight", "budget_margin", "budget_horizon"])
def test_removed_dsm_keys_exit_2(tmp_path, capsys, key):
    doc = {**DESK_CV, "model": {"kind": "dsm", "extras": {key: 1.0}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{key}'" in err and "'dsm'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, extras", [("dsm", {"warmup_iters": 20}), ("nfg", {})])
def test_train_history_records_warmup(tmp_path, kind, extras):
    doc = {**DESK_CV, "model": {"kind": kind, "extras": {**extras, "max_epochs": 2}},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["train", "--config", _write_config(tmp_path, doc)]) == 0
    hist = json.loads((tmp_path / "out" / f"{kind}.history.json").read_text(encoding="utf-8"))
    if kind == "dsm":
        assert 0 < hist["warmup_iters"] <= 20
        assert hist["warmup_stop"] in ("gtol", "valid", "cap")
    else:
        assert (hist["warmup_iters"], hist["warmup_stop"]) == (0, "none")


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


_BAD_MAE_CONFIG = {
    "<config: unknown key>": lambda config: {**config, "bogus": 1},
    "<config: a number>": lambda config: 7,
    "<config: no patch_size>": lambda config: {k: v for k, v in config.items()
                                               if k != "patch_size"},
    "<config: patch_size not a list>": lambda config: {**config, "patch_size": 5},
    "<config: no threshold>": lambda config: {k: v for k, v in config.items()
                                              if k != "threshold"},
}


@pytest.mark.parametrize("sidecar_text", [None, "{not json", "[1, 2]", "<directory>",
                                          *_BAD_MAE_CONFIG])
def test_embed_missing_or_bad_sidecar_exit_3(tmp_path, capsys, sidecar_text):
    out = tmp_path / "out"
    doc = {"seed": 4,
           "mae": {"n_phantoms": 2, "dims": [30, 20, 20, 2], "embed_dim": 16,
                   "enc_layers": 1, "dec_layers": 1, "heads": 2, "epochs": 1},
           "output": {"dir": str(out)}}
    cfg = _write_config(tmp_path, doc)
    assert main(["mae-train", "--config", cfg]) == 0
    sidecar = out / "mae.rbck.json"
    if sidecar_text in (None, "<directory>"):
        sidecar.unlink()
        if sidecar_text:
            sidecar.mkdir()
    elif sidecar_text in _BAD_MAE_CONFIG:
        saved = json.loads(sidecar.read_text(encoding="utf-8"))
        saved["config"] = _BAD_MAE_CONFIG[sidecar_text](saved["config"])
        sidecar.write_text(json.dumps(saved), encoding="utf-8")
    else:
        sidecar.write_text(sidecar_text, encoding="utf-8")
    capsys.readouterr()
    assert main(["embed", "--config", cfg, "--set", f"mae.checkpoint={out / 'mae.rbck'}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "mae.rbck.json" in err and "Traceback" not in err


def test_cv_model_extras_epoch_budget_overrides_cv_settings(tmp_path, monkeypatch):
    from riskbench.models.base import CifModel

    epochs_run = []
    fit = CifModel.fit

    def recording_fit(self, *args, **kwargs):
        history = fit(self, *args, **kwargs)
        epochs_run.append(len(history.epochs))
        return history

    monkeypatch.setattr(CifModel, "fit", recording_fit)
    doc = {**DESK_CV, "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "cv": {**DESK_CV["cv"], "max_epochs": 4, "patience": 1e9},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["cv", "--config", _write_config(tmp_path, doc)]) == 0
    assert epochs_run == [1] * 9  # 3 folds x (2 search trials + 1 refit)


@pytest.mark.parametrize("command", ["synth", "train", "cv"])
@pytest.mark.parametrize("change, message", [
    ({"n": None}, "missing n"),
    ({"d": None}, "missing d"),
    ({"seed": None}, "missing seed"),
    ({"shapes": ["a", "b"]}, "synthetic.shapes must"),
    ({"betas": [[1.2, 0, 0, 0], "x"]}, "synthetic.betas must"),
    ({"n": -5}, "synthetic.n must"),
    ({"n": 0}, "synthetic.n must"),
    ({"horizon": 1e400}, "synthetic.horizon must"),
    ({"horizon": 0.0}, "synthetic.horizon must"),
    ({"scales": [6.0]}, "data.synthetic: shapes, scales and betas must have one entry per risk"),
    ({"betas": [[1.2, 0, 0, 0], [0, 1.2, 0]]}, "data.synthetic: beta length 3 != feature dim 4"),
    ({key: None for key in ("n", "shapes", "scales", "betas", "horizon", "seed")},
     "data.synthetic is missing n, shapes, scales, betas, horizon, seed"),
])
def test_bad_synthetic_spec_exit_2(tmp_path, capsys, command, change, message):
    synth = {**DESK_CV["data"]["synthetic"], **change}
    synth = {k: v for k, v in synth.items() if v is not None}
    doc = {**DESK_CV, "data": {"synthetic": synth}, "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "out").exists()


def _cv_with_category_map(tmp_path, mapping, pca_components):
    (tmp_path / "cats.json").write_text(json.dumps(mapping), encoding="utf-8")
    doc = {**DESK_CV,
           "data": {**DESK_CV["data"], "category_map": str(tmp_path / "cats.json")},
           "features": {"pca_components": pca_components},
           "cv": {**DESK_CV["cv"], "n_iter": 1, "max_epochs": 1,
                  "save_fold_checkpoints": True},
           "output": {"dir": str(tmp_path / "out")}}
    return main(["cv", "--config", _write_config(tmp_path, doc)])


def test_cv_category_map_too_narrow_for_pca_exit_3(tmp_path, capsys):
    mapping = {"x1": "a", "x2": "a", "x3": "a", "x4": "b"}
    assert _cv_with_category_map(tmp_path, mapping, pca_components=2) == 3
    assert "category 'b' has 1 columns" in capsys.readouterr().err


def test_cv_category_map_gives_per_category_pca(tmp_path):
    mapping = {"x1": "a", "x2": "a", "x3": "b", "x4": "b"}
    assert _cv_with_category_map(tmp_path, mapping, pca_components=1) == 0
    for fold in range(3):
        sidecar = json.loads((tmp_path / "out" / f"fold{fold}.rbck.json").read_text())
        assert sidecar["d"] == 2  # two categories x one component


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]", "<random bytes>"])
def test_features_missing_or_bad_category_map_exit_3(tmp_path, capsys, text):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    main(["synth", "--config", _write_config(tmp_path, doc)])
    cats = tmp_path / "cats.json"
    if text == "<random bytes>":
        cats.write_bytes(b"\xff" + np.random.default_rng(0).bytes(299))
    elif text is not None:
        cats.write_text(text, encoding="utf-8")
    capsys.readouterr()
    rc = main(["features", "--cohort", str(tmp_path / "out" / "cohort.csv"),
               "--category-map", str(cats), "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "cats.json" in capsys.readouterr().err


def _modules_after(code: str, *packages: str) -> str:
    """Run `code` after `import riskbench.cli` in a fresh interpreter; print
    the modules of `packages` (default scipy) it has loaded by the end."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import riskbench

    src = str(Path(riskbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    prefixes = tuple(f"{package}." for package in packages or ("scipy",))
    probe = (f"import sys, riskbench.cli\n{code}\n"
             f"print([m for m in sys.modules if (m + '.').startswith({prefixes!r})])")
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _modules_after("") == "[]"


def test_weibull_dsm_train_and_deephit_nfg_cv_load_no_scipy(tmp_path):
    # the DSM cv run scores every fold through the Weibull CIF evaluator
    weibull = {"distribution": "weibull", "warmup_iters": 20, "max_epochs": 2}
    runs = []
    for command, kind, extras, name in [
            ("train", "dsm", weibull, "dsm"), ("cv", "dsm", weibull, "dsm_cv"),
            ("cv", "deephit", {}, "deephit"), ("cv", "nfg", {}, "nfg")]:
        doc = {**DESK_CV, "model": {"kind": kind, "extras": extras},
               "cv": {**DESK_CV["cv"], "n_iter": 1, "max_epochs": 2},
               "output": {"dir": str(tmp_path / name)}}
        runs.append([command, "--config", _write_config(tmp_path, doc, f"{name}.json")])
    code = f"assert [riskbench.cli.main(argv) for argv in {runs!r}] == [0, 0, 0, 0]"
    assert _modules_after(code) == "[]"
    for out in ("dsm/dsm.rbck", "dsm_cv/report.json", "deephit/report.json", "nfg/report.json"):
        assert (tmp_path / out).exists()


def test_deephit_cv_and_mae_train_load_no_numpy_ma(tmp_path):
    cv = {**DESK_CV, "model": {"kind": "deephit", "extras": {}},
          "cv": {**DESK_CV["cv"], "n_iter": 1, "max_epochs": 2},
          "output": {"dir": str(tmp_path / "cv")}}
    mae = {"seed": 4, "mae": {"n_phantoms": 4, "dims": [30, 20, 20, 2], "embed_dim": 32,
                              "enc_layers": 1, "dec_layers": 1, "epochs": 1},
           "output": {"dir": str(tmp_path / "mae")}}
    runs = [["cv", "--config", _write_config(tmp_path, cv, "cv.json")],
            ["mae-train", "--config", _write_config(tmp_path, mae, "mae.json")]]
    code = f"assert [riskbench.cli.main(argv) for argv in {runs!r}] == [0, 0]"
    assert _modules_after(code, "numpy.ma") == "[]"
    assert (tmp_path / "cv" / "report.json").exists()
    assert (tmp_path / "mae" / "mae.rbck").exists()


def test_train_serial_cv_and_mae_train_load_no_process_pool(tmp_path):
    train = {**DESK_CV, "model": {"kind": "nfg", "extras": {"max_epochs": 2}},
             "output": {"dir": str(tmp_path / "train")}}
    cv = {**DESK_CV, "cv": {**DESK_CV["cv"], "n_iter": 1, "max_epochs": 2},
          "output": {"dir": str(tmp_path / "cv")}}
    mae = {"seed": 4, "mae": {"n_phantoms": 2, "dims": [30, 20, 20, 2], "embed_dim": 16,
                              "enc_layers": 1, "dec_layers": 1, "epochs": 1},
           "output": {"dir": str(tmp_path / "mae")}}
    runs = [["train", "--config", _write_config(tmp_path, train, "train.json")],
            ["cv", "--config", _write_config(tmp_path, cv, "cv.json"), "--workers", "1"],
            ["mae-train", "--config", _write_config(tmp_path, mae, "mae.json")]]
    code = f"assert [riskbench.cli.main(argv) for argv in {runs!r}] == [0, 0, 0]"
    assert _modules_after(code, "concurrent", "multiprocessing") == "[]"
    assert (tmp_path / "cv" / "report.json").exists()
    assert (tmp_path / "mae" / "mae.rbck").exists()


@pytest.mark.parametrize("owner, forbidden", [
    # CSV tables, JSON files and `Path.read_text`/`write_text`; `json.dumps`
    # (the config hash) stays allowed elsewhere
    ("files.py", r"^(csv\.(reader|writer)|json\.(load|dump))\(|\.(read_text|write_text)\("),
    ("seeds.py", r"(^|\.)SeedSequence\("),
    ("gradcore/checkpoint.py", r"(^|\.)(load_checkpoint|load_arrays)\("),
    # a config class called with a `**` mapping; `build_model(kind, **fields)`
    # builds from keyword arguments, the search's sampled values among them
    ("config.py", r"(^|\.)(SynthSpec|HParamGrid|CvSettings|\w+Config|config_class)\(\*\*"),
], ids=["text-io", "seeds", "model-files", "config"])
def test_only_the_owning_module_makes_these_calls(owner, forbidden):
    """Each rule has one home: text I/O in `riskbench.files`, seed derivation
    in `riskbench.seeds`, reading a model's records in `load_model_files`,
    building a config dataclass from a document in `build_config`. A call
    reads as `name()`, or `name(**)` when one of its arguments is `**`."""
    import ast
    import re
    from pathlib import Path

    import riskbench

    src = Path(riskbench.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        if path == src / owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            stars = "**" if any(keyword.arg is None for keyword in node.keywords) else ""
            call = f"{ast.unparse(node.func)}({stars})"
            if re.search(forbidden, call):
                found.append(f"{path.relative_to(src)}:{node.lineno}: {call}")
    assert found == []


@pytest.mark.parametrize("command", ["train", "cv", "mae-train"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    doc = {**DESK_CV, "seed": -1, "mae": {"n_phantoms": 1, "dims": [30, 20, 20, 2]},
           "output": {"dir": str(tmp_path / "out")}}
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "seed must be non-negative" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("command", ["train", "cv", "mae-train"])
def test_workers_below_one_exit_2(tmp_path, capsys, command, workers):
    doc = {**DESK_CV, "mae": {"n_phantoms": 1, "dims": [30, 20, 20, 2]},
           "output": {"dir": str(tmp_path / "out")}}
    argv = [command, "--config", _write_config(tmp_path, doc)]
    argv += ["--workers", str(workers)] if command == "cv" else ["--set", f"workers={workers}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "workers must be at least 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (None, "No such file"),
    ("<directory>", "Is a directory"),
    ("{not json", "invalid JSON"),
    ("<random bytes>", "invalid JSON"),
    ('{"report": {"modality": "synthetic"}}', "model_kind"),
    (json.dumps({"report": {"model_kind": "nfg", "modality": "synthetic", "k": 3, "seed": 0,
                            "risk_names": ["risk_1"], "folds": [], "bogus": 1,
                            "aggregate": {"risk_1": {"mean": 0.7, "lo": 0.6, "hi": 0.8}}}}),
     "unexpected keyword argument 'bogus'"),
    ("[1, 2]", "JSON object"),
])
def test_report_bad_input_exit_3(tmp_path, capsys, text, message):
    path = tmp_path / "in.json"
    if text == "<directory>":
        path.mkdir()
    elif text == "<random bytes>":
        path.write_bytes(b"\xff" + np.random.default_rng(0).bytes(299))
    elif text is not None:
        path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--inputs", str(path), "--out", str(tmp_path / "merged")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(path) in err and message in err
    assert not (tmp_path / "merged").exists()


@pytest.mark.parametrize("aggregate, message", [
    ({}, "'risk_1'"),
    ({"risk_1": {"mean": 0.7, "hi": 0.8}}, "lo"),
    ({"risk_1": {"mean": "0.7", "lo": 0.6, "hi": 0.8}}, "mean"),
    ({"risk_1": {"mean": 0.7, "lo": float("nan"), "hi": 0.8}}, "lo"),
    ([{"mean": 0.7, "lo": 0.6, "hi": 0.8}], "aggregate"),
], ids=["empty", "no_lo", "string_mean", "nan_lo", "list"])
def test_report_bad_aggregate_exit_3(tmp_path, capsys, aggregate, message):
    doc = {"report": {"model_kind": "nfg", "modality": "synthetic", "risk_names": ["risk_1"],
                      "k": 3, "seed": 0, "folds": [], "aggregate": aggregate}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--inputs", str(path), "--out", str(tmp_path / "merged")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(path) in err and message in err
    assert not (tmp_path / "merged").exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("train", "model.extras.max_epochs", 0, "must be at least 1"),
    ("cv", "model.extras.max_epochs", -1, "must be at least 1"),
    ("cv", "cv.max_epochs", 0, "must be at least 1"),
    ("cv", "cv.k", 1, "must be at least 2"),
    ("cv", "cv.n_iter", 0, "must be at least 1"),
])
def test_training_budget_below_minimum_exit_2(tmp_path, capsys, command, key, value, message):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    argv = [command, "--config", _write_config(tmp_path, doc), "--set", f"{key}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{key} {message}, got {value}" in err
    assert not (tmp_path / "out").exists()


# -- the config schema, tested from the schema itself ------------------------------------------


def _schema_leaves():
    """(model kind or None, dotted path, rule) for every leaf of the final schema."""
    from riskbench.config import _field_rules, _Rule, _run_schema
    from riskbench.models import MODEL_KINDS

    def walk(section, path):
        for key, node in section.items():
            if isinstance(node, _Rule):
                yield None, path + [key], node
            elif isinstance(node, dict):  # not `model.extras`, which depends on the kind
                yield from walk(node, path + [key])

    leaves = list(walk(_run_schema("dsm"), []))
    for kind, (_model, config_class) in MODEL_KINDS.items():
        leaves += [(kind, ["model", "extras", name], rule)
                   for name, rule in _field_rules(config_class).items()]
    return leaves


def _good(rule):
    """A value that meets `rule`."""
    if "items" in rule:
        return [_good(rule["items"])] * rule.get("len", 1)
    if "choices" in rule:
        return rule["choices"][0]
    if rule["type"] in ("str", "bool"):
        return {"str": "s", "bool": True}[rule["type"]]
    if "below" in rule or "max" in rule:
        return 0.5
    return rule.get("min", 1)


def _wrong_type(rule):
    return "x" if "items" in rule else {"int": 1.5, "float": "1", "str": 5, "bool": 1}[rule["type"]]


def _out_of_bound(rule) -> list:
    """Values of the right type that break `rule`'s bound."""
    if "items" in rule:
        item, size = rule["items"], rule.get("len", 1)
        bad = [[]] + [[_good(item)] * (size - 1) + [v] for v in _out_of_bound(item)]
        bad += [[_wrong_type(item)] * size]
        if "len" in rule:
            bad.append([_good(item)] * (size + 1))
        if rule.get("ordered"):
            bad.append([_good(item) + 1, _good(item)])
        return bad
    if "choices" in rule:
        return ["not-a-choice"]
    bad = [float("nan"), float("inf")] if rule["type"] == "float" else []
    if "min" in rule:
        bad.append(rule["min"] - 1)
    if rule.get("positive"):
        bad.append(0)
    for key, step in (("max", 1), ("below", 0)):
        if key in rule:
            bad.append(rule[key] + step)
    return bad


_LEAF_CASES = [(kind, path, value)
               for kind, path, rule in _schema_leaves()
               for value in [_wrong_type(rule)] + _out_of_bound(rule)]


@pytest.mark.parametrize(
    "kind, path, value", _LEAF_CASES,
    ids=[f"{kind or ''}:{'.'.join(path)}={value!r}" for kind, path, value in _LEAF_CASES])
def test_every_schema_leaf_rejects_wrong_type_and_out_of_bound(tmp_path, capsys, kind, path,
                                                               value):
    doc = json.loads(json.dumps({**DESK_CV, "output": {"dir": str(tmp_path / "out")}}))
    if kind is not None:
        doc["model"] = {"kind": kind, "extras": {}}
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    assert main(["cv", "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and ".".join(path) in err
    assert not (tmp_path / "out").exists()


def test_numbers_of_2_to_the_53_or_more_meet_open_bounds_and_break_below(tmp_path, capsys):
    """`value + 1` rounds back to `value` from 2**53 up, so an absent `below`
    must not be read as `value + 1`."""
    doc = {"seed": 1, "mae": {"n_phantoms": 1, "dims": [30, 20, 20, 2], "embed_dim": 16,
                              "enc_layers": 1, "dec_layers": 1, "epochs": 1, "lr": 1e30},
           "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    assert main(["mae-train", "--config", cfg]) == 0
    assert (tmp_path / "out" / "mae.rbck").exists()
    for key in ("mae.dropout", "mae.mask_ratio"):
        for value in (1, 1e30):
            capsys.readouterr()
            assert main(["mae-train", "--config", cfg, "--set", f"{key}={value}",
                         "--set", f"output.dir={tmp_path / 'bad'}"]) == 2
            assert f"{key} must be in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_schema_leaves_cover_every_config_dataclass_field():
    import dataclasses

    from riskbench.cohort import SynthSpec
    from riskbench.mae import MaeConfig
    from riskbench.models import MODEL_KINDS
    from riskbench.pipeline import HParamGrid

    paths = {(kind, ".".join(path)) for kind, path, _rule in _schema_leaves()}
    for section, config_class in [("data.synthetic", SynthSpec), ("grid", HParamGrid),
                                  ("mae", MaeConfig)]:
        for field in dataclasses.fields(config_class):
            assert (None, f"{section}.{field.name}") in paths
    for kind, (_model, config_class) in MODEL_KINDS.items():
        for field in dataclasses.fields(config_class):
            assert (kind, f"model.extras.{field.name}") in paths
    assert len(_LEAF_CASES) > 3 * len(paths)


@pytest.mark.parametrize("command, overrides, key", [
    ("cv", ["grid.lr_range=[1]"], "grid.lr_range"),
    ("cv", ["grid.nodes_choices=[]"], "grid.nodes_choices"),
    ("cv", ["grid.lr_range=[0.1,0.001]"], "grid.lr_range"),
    ("train", ["model.kind=dsm", 'model.extras={"nodes":0}'], "model.extras.nodes"),
    ("train", ["model.kind=dsm", 'model.extras={"k":0}'], "model.extras.k"),
    ("train", ["model.kind=deephit", 'model.extras={"bins":0}'], "model.extras.bins"),
    ("train", ["model.kind=dsm", 'model.extras={"dropout":1.0}'], "model.extras.dropout"),
    ("train", ["model.kind=nfg", 'model.extras={"dropout":1.0}'], "model.extras.dropout"),
    ("train", ["model.kind=deephit", 'model.extras={"dropout":1.0}'], "model.extras.dropout"),
    ("mae-train", ["mae.epochs=0"], "mae.epochs"),
    ("mae-train", ["mae.heads=3"], "mae.heads"),
    ("cv", ["features.pca_components=-1"], "features.pca_components"),
    ("cv", ["cv.patience=-1"], "cv.patience"),
    ("train", ["model.kind=dsm", 'model.extras={"lr":-1}'], "model.extras.lr"),
    ("train", ['model.extras={"batch_size":0}'], "model.extras.batch_size"),
    ("cv", ["grid.batch_range=[0,0]"], "grid.batch_range"),
    ("train", ["model.kind=deephit", 'model.extras={"sigma":0.001}'], "model.extras.sigma"),
])
def test_config_probe_exits_2_naming_its_key(tmp_path, capsys, command, overrides, key):
    doc = {**DESK_CV, "mae": {"n_phantoms": 1, "dims": [30, 20, 20, 2]},
           "output": {"dir": str(tmp_path / "out")}}
    argv = [command, "--config", _write_config(tmp_path, doc)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out").exists()


def _shipped_configs():
    """Every config the benchmark, the README and the tests run, as (name, doc)."""
    import re
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(root / "perfbench"))
    configs = [(f"{name}-toy{toy}", w.build(seed, "out", toy))
               for name, w in WORKLOADS.items() for toy in (False, True) for seed in (0, 1)]
    readme = (root / "README.md").read_text(encoding="utf-8")
    configs.append(("README run.json", json.loads(
        re.search(r"cat > run.json <<'EOF'\n(.*?)\nEOF", readme, re.S).group(1))))
    mae = {"n_phantoms": 10, "dims": [30, 20, 20, 2], "embed_dim": 64, "enc_layers": 1,
           "dec_layers": 1, "epochs": 1}
    configs += [
        ("DESK_CV", DESK_CV),
        ("numeric failure", {**DESK_CV, "model": {"kind": "dsm", "extras": {
            "lr": 1e12, "warmup_iters": 0, "max_epochs": 3, "layers": 1, "nodes": 8}}}),
        ("patience 1e9", {**DESK_CV, "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
                          "cv": {**DESK_CV["cv"], "max_epochs": 4, "patience": 1e9}}),
        ("float fields", {**DESK_CV, "model": {"kind": "nfg", "extras": {
            "patience": 2.5, "lr": 1, "max_epochs": 1}}}),
        ("weibull dsm", {**DESK_CV, "model": {"kind": "dsm", "extras": {
            "distribution": "weibull", "warmup_iters": 20, "max_epochs": 2}}}),
        ("category map", {**DESK_CV, "data": {**DESK_CV["data"], "category_map": "c.json",
                                              "features_csv": "f.csv"},
                          "features": {"pca_components": 1},
                          "cv": {**DESK_CV["cv"], "n_iter": 1, "save_fold_checkpoints": True}}),
        ("cohort csv", {**DESK_CV, "data": {"cohort_csv": "c.csv"}, "workers": 2}),
        ("mae", {"seed": 4, "mae": mae}),
        ("mae heads", {"seed": 4, "mae": {**mae, "embed_dim": 16, "heads": 2,
                                          "checkpoint": "m.rbck"}}),
        ("acceptance 7 mae", {"seed": 4, "mae": {**mae, "n_phantoms": 6, "embed_dim": 32}}),
        ("volumes", {"seed": 9, "mae": {"n_phantoms": 3, "dims": [30, 20, 20, 2],
                                        "volumes_dir": "vols"}}),
        ("pinned grid", {**DESK_CV, "grid": {"batch_range": [256, 256], "layers_range": [2, 2],
                                             "nodes_choices": [64], "dropout_choices": [0.0]}}),
    ]
    return configs


@pytest.mark.parametrize("name, doc", _shipped_configs(), ids=lambda v: v if isinstance(v, str)
                         else "")
def test_schema_accepts_every_shipped_config(tmp_path, name, doc):
    from riskbench.cli import _cv_settings, _synth_spec
    from riskbench.config import load_config

    loaded = load_config(_write_config(tmp_path, doc), [])
    assert loaded == {"seed": 0, "workers": 1, **doc}
    _cv_settings(loaded)
    if "mae" in loaded:
        build_config(MaeConfig, loaded["mae"], "mae")
    if "synthetic" in loaded.get("data", {}):
        _synth_spec(loaded["data"]["synthetic"])


def _label_inputs(tmp_path) -> dict:
    (tmp_path / "records.csv").write_text("id,code,date\na,I25,2016-06-01\n", encoding="utf-8")
    (tmp_path / "imaging.csv").write_text("id,date\na,2015-01-01\n", encoding="utf-8")
    (tmp_path / "codes.json").write_text(json.dumps({"cvd": ["I25"]}), encoding="utf-8")
    return {name: str(tmp_path / f"{name}.{ext}")
            for name, ext in (("records", "csv"), ("imaging", "csv"), ("codes", "json"))}


@pytest.mark.parametrize("case, message", [
    ("data.cohort_csv", "No such file"),
    ("data.features_csv", "No such file"),
    ("data.features_csv=<directory>", "Is a directory"),
    ("features --cohort", "No such file"),
    ("features --fuse", "No such file"),
    ("label --records", "No such file"),
    ("label --imaging", "No such file"),
    ("label --codes", "No such file"),
    ("label --codes=<invalid JSON>", "invalid JSON"),
    ("label --imaging=<repeated id>", ":3: id a repeats line 2"),
    ("label --imaging=<3 fields>", ":2: expected 2 fields, got 3"),
    ("label --imaging=<long field>", ":2: field larger than field limit"),
    ("data.features_csv=<blank lines>", ":1: no header"),
    ("mae.checkpoint", "No such file"),
    ("mae.checkpoint=<directory>", "Is a directory"),
] + [(f"{case}=<random bytes>", "not UTF-8 text")
     for case in ("data.cohort_csv", "data.features_csv", "features --cohort", "features --fuse",
                  "label --records", "label --imaging", "label --codes")])
def test_unreadable_input_file_exit_3_names_path(tmp_path, capsys, case, message):
    bad = tmp_path / "bad.input"
    if case.endswith("<directory>"):
        bad.mkdir()
    elif case.endswith("<invalid JSON>"):
        bad.write_text("{not json", encoding="utf-8")
    elif case.endswith("<repeated id>"):
        bad.write_text("id,date\na,2015-01-01\na,2016-01-01\n", encoding="utf-8")
    elif case.endswith("<3 fields>"):
        bad.write_text("id,date\na,2015-01-01,x\n", encoding="utf-8")
    elif case.endswith("<long field>"):  # beyond the csv module's field size limit
        bad.write_text("id,date\na," + "x" * 200_000 + "\n", encoding="utf-8")
    elif case.endswith("<blank lines>"):
        bad.write_text("\n\n", encoding="utf-8")
    elif case.endswith("<random bytes>"):
        # 0xff never occurs in UTF-8
        bad.write_bytes(b"\xff" + np.random.default_rng(0).bytes(299))
    case = case.split("=")[0]
    doc = {**DESK_CV, "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    main(["synth", "--config", cfg])
    cohort = str(tmp_path / "out" / "cohort.csv")
    label = _label_inputs(tmp_path)
    if case.startswith("data."):
        argv = ["train", "--config", cfg, "--set", f"{case}={bad}"]
    elif case.startswith("mae."):
        if bad.is_dir():  # beside a good sidecar, so the checkpoint itself is read
            (tmp_path / "bad.input.json").write_text(
                json.dumps({"config": {"patch_size": [15, 10, 10]}}), encoding="utf-8")
        argv = ["embed", "--config", cfg, "--set", f"{case}={bad}"]
    elif case.startswith("features"):
        flags = {"--cohort": cohort, "--out": str(tmp_path / "r.csv")}
        flags[case.split()[1]] = str(bad)
        argv = ["features"] + [part for pair in flags.items() for part in pair]
    else:
        label[case.split()[1].lstrip("-")] = str(bad)
        argv = ["label", "--records", label["records"], "--imaging", label["imaging"],
                "--codes", label["codes"], "--censor-date", "2020-01-01",
                "--out", str(tmp_path / "labels.csv")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err and message in err
    assert not case.startswith("mae.") or f"{bad}.json" not in err  # the checkpoint is read first
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "labels.csv").exists()


@pytest.mark.parametrize("command, target", [
    ("synth", "<file>"), ("synth --out sub/c.csv", "out/sub/c.csv"), ("label", "<file>"),
    ("features", "<file>"), ("train", "<file>"), ("cv", "<file>"), ("mae-train", "<file>"),
    ("embed", "<file>"), ("report", "<file>"), ("make-volumes", "<file>"),
])
def test_unwritable_output_exit_3_names_path(tmp_path, capsys, monkeypatch, command, target):
    """An output under a plain file, or in a directory that does not exist;
    `train` and `cv` find out before they fit any model, and `mae-train`
    before its first training step."""
    from riskbench.models.base import CifModel

    real_fit, real_forward, fits = CifModel.fit, MaeModel.forward, []

    def spy_fit(self, *args, **kwargs):
        fits.append(self.kind)
        return real_fit(self, *args, **kwargs)

    def spy_forward(self, *args, **kwargs):
        fits.append("mae")
        return real_forward(self, *args, **kwargs)

    monkeypatch.setattr(CifModel, "fit", spy_fit)
    monkeypatch.setattr(MaeModel, "forward", spy_forward)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    target = blocker if target == "<file>" else tmp_path / target
    mae = {"n_phantoms": 2, "dims": [30, 20, 20, 2], "embed_dim": 8, "enc_layers": 1,
           "dec_layers": 1, "heads": 2, "epochs": 1, "checkpoint": str(tmp_path / "mae.rbck")}
    doc = {**DESK_CV, "model": {"kind": "nfg", "extras": {"max_epochs": 1}},
           "cv": {**DESK_CV["cv"], "n_iter": 1, "max_epochs": 1}, "mae": mae,
           "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    into_file = ["--set", f"output.dir={blocker}"]
    label = _label_inputs(tmp_path)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"model_kind": "nfg", "modality": "synthetic",
                                  "risk_names": ["risk_1"], "k": 2, "seed": 0, "folds": [],
                                  "aggregate": {"risk_1": {"mean": 0.7, "lo": 0.6, "hi": 0.8}}}),
                      encoding="utf-8")
    if command == "embed":
        model = MaeModel(MaeConfig(embed_dim=8, enc_layers=1, dec_layers=1, heads=2))
        model.save(mae["checkpoint"])
    argv = {
        "synth": ["synth", "--config", cfg] + into_file,
        "synth --out sub/c.csv": ["synth", "--config", cfg, "--out", "sub/c.csv"],
        "label": ["label", "--records", label["records"], "--imaging", label["imaging"],
                  "--codes", label["codes"], "--censor-date", "2020-01-01",
                  "--out", str(blocker / "labels.csv")],
        "features": ["features", "--cohort", str(tmp_path / "cohort.csv"),
                     "--out", str(blocker / "r.csv")],
        "train": ["train", "--config", cfg] + into_file,
        "cv": ["cv", "--config", cfg] + into_file,
        "mae-train": ["mae-train", "--config", cfg] + into_file,
        "embed": ["embed", "--config", cfg] + into_file,
        "report": ["report", "--inputs", str(report), "--out", str(blocker)],
        "make-volumes": ["make-volumes", "--config", cfg, "--out", str(blocker)],
    }[command]
    if command == "features":
        main(["synth", "--config", cfg, "--set", f"output.dir={tmp_path}"])
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {target}: ") and "Traceback" not in err
    assert fits == []


@pytest.mark.parametrize("value", ["-1", "-7"])
def test_features_negative_pca_exit_2(tmp_path, capsys, value):
    doc = {**DESK_CV, "output": {"dir": str(tmp_path / "out")}}
    main(["synth", "--config", _write_config(tmp_path, doc)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["features", "--cohort", str(tmp_path / "out" / "cohort.csv"),
              "--pca", value, "--out", str(tmp_path / "r.csv")])
    assert exit_info.value.code == 2
    assert "--pca" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"run"', "null"])
def test_config_file_that_is_not_an_object_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and "JSON object" in err


def test_config_file_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff" + np.random.default_rng(0).bytes(299))
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and "invalid JSON" in err


def test_paper_chain_synth_volumes_mae_embed_cv(tmp_path):
    """The paper's chain at toy sizes: MAE embeddings of one phantom per
    subject, joined by id onto a synthetic cohort, then a nested CV over
    covariates and embeddings with per-category PCA."""
    n, dim = 60, 16
    doc = {**DESK_CV, "data": {"synthetic": {**DESK_CV["data"]["synthetic"], "n": n}},
           "mae": {"n_phantoms": n, "dims": [30, 20, 20, 2], "embed_dim": dim,
                   "enc_layers": 1, "dec_layers": 1, "epochs": 1},
           "output": {"dir": str(tmp_path / "out")}}
    cfg = _write_config(tmp_path, doc)
    vols = tmp_path / "vols"
    mae = ["--set", f"mae.volumes_dir={vols}"]
    cohort_csv, emb_csv = tmp_path / "out" / "cohort.csv", tmp_path / "out" / "embeddings.csv"
    assert main(["synth", "--config", cfg]) == 0
    assert main(["make-volumes", "--config", cfg, "--out", str(vols)]) == 0
    # one subject's id holds a comma, which both CSV files must quote
    synth = cohort_from_csv(str(cohort_csv))
    cohort_to_csv(Cohort(["s000000,a"] + synth.ids[1:], synth.features, synth.times,
                         synth.events, synth.risk_names, synth.feature_names), cohort_csv)
    (vols / "s000000.rbvl").rename(vols / "s000000,a.rbvl")
    assert main(["mae-train", "--config", cfg] + mae) == 0
    assert main(["embed", "--config", cfg, "--set",
                 f"mae.checkpoint={tmp_path / 'out' / 'mae.rbck'}"] + mae) == 0
    categories = {**{f"x{j + 1}": "covariates" for j in range(4)},
                  **{f"e{j + 1}": "embedding" for j in range(dim)}}
    (tmp_path / "categories.json").write_text(json.dumps(categories), encoding="utf-8")
    cv = {**DESK_CV, "data": {"cohort_csv": str(cohort_csv), "features_csv": str(emb_csv),
                              "category_map": str(tmp_path / "categories.json")},
          "features": {"standardize": True, "pca_components": 2},
          "cv": {**DESK_CV["cv"], "n_iter": 1, "max_epochs": 2},
          "output": {"dir": str(tmp_path / "cv")}}
    cv_cfg = _write_config(tmp_path, cv, "cv.json")
    reports = []
    for _ in range(2):
        assert main(["cv", "--config", cv_cfg, "--workers", "1"]) == 0
        reports.append((tmp_path / "cv" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["report"]["audit"]["leaks"] == 0
    # the join puts each subject's embedding row on its cohort row
    cohort = _load_cohort(cv)
    with open(emb_csv, newline="") as fh:
        emb = {row[0]: [float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]}
    assert "s000000,a" in emb
    assert cohort.ids == cohort_from_csv(str(cohort_csv)).ids == sorted(emb)
    assert cohort.feature_names[4:] == [f"e{j + 1}" for j in range(dim)]
    assert np.array_equal(cohort.features[:, 4:], [emb[sid] for sid in cohort.ids])
