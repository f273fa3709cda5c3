"""End-to-end command line behavior, exit codes, and manifests."""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoarefine import (
    LandmarkSet,
    NiftiFormatError,
    Volume,
    coronal_slice_index,
    degrade_phantom,
    fuse_labels,
    generate_phantom,
    parse_landmarks,
    read_volume,
    write_landmarks,
    write_volume,
)
from hoarefine.cli import main

from conftest import resample


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("HOA_REFINE_CONFIG", raising=False)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Three phantoms, their landmark files, and batch fuse/refine output."""
    root = tmp_path_factory.mktemp("cliwork")
    src = root / "src"
    lm = root / "lm"
    src.mkdir()
    lm.mkdir()
    for seed in (0, 1, 2):
        code = main(["phantom", str(src / f"p{seed}.nii"), "--seed", str(seed),
                     "--landmarks-out", str(lm / f"p{seed}.json")])
        assert code == 0
    fused = root / "fused"
    refined = root / "refined"
    assert main(["fuse", str(src), str(fused)]) == 0
    assert main(["refine", str(fused), str(refined),
                 "--landmarks", str(lm)]) == 0
    return root


class TestPipeline:
    def test_refined_matches_source(self, work):
        for seed in (0, 1, 2):
            src = read_volume(work / "src" / f"p{seed}.nii")
            out = read_volume(work / "refined" / f"p{seed}.nii")
            assert np.array_equal(out.data, src.data)
            assert out.taxonomy == "fine26"

    def test_taxonomy_tags_travel(self, work):
        assert read_volume(work / "src" / "p0.nii").taxonomy == "fine26"
        assert read_volume(work / "fused" / "p0.nii").taxonomy == "fused12"

    def test_manifests(self, work):
        doc = json.loads((work / "src" / "p0.nii.manifest.json").read_text())
        assert doc["command"] == "phantom"
        assert doc["seed"] == 0
        assert doc["version"]
        assert doc["elapsed_s"] >= 0
        doc = json.loads(
            (work / "refined" / "p1.nii.manifest.json").read_text())
        assert doc["command"] == "refine"
        assert [p.endswith(("p1.nii", "p1.json")) for p in doc["inputs"]] \
            == [True, True]
        assert doc["config"] == {"slice_adjust": False, "partial_rules": False}
        assert doc["output"].endswith("p1.nii")

    def test_failed_manifest_write_leaves_no_file(self, work, tmp_path,
                                                   monkeypatch, capsys):
        real_replace = os.replace

        def fail_for_manifest(src, dst):
            if str(dst).endswith(".manifest.json"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr("hoarefine.nifti.os.replace", fail_for_manifest)
        capsys.readouterr()
        assert main(["fuse", str(work / "src" / "p0.nii"),
                     str(tmp_path / "out.nii")]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["out.nii"]

    def test_jobs_do_not_change_bytes(self, work, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["refine", str(work / "fused"), str(a),
                     "--landmarks", str(work / "lm"), "--jobs", "1"]) == 0
        assert main(["refine", str(work / "fused"), str(b),
                     "--landmarks", str(work / "lm"), "--jobs", "8"]) == 0
        for seed in (0, 1, 2):
            name = f"p{seed}.nii"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["fuse", "refine"])
    def test_jobs_below_one_is_invalid(self, work, tmp_path, capsys, command, jobs):
        folder = "src" if command == "fuse" else "fused"
        argv = [command, str(work / folder), str(tmp_path / "out"), "--jobs", jobs]
        if command == "refine":
            argv += ["--landmarks", str(work / "lm")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --jobs must be at least 1, got {jobs}"]
        assert os.listdir(tmp_path) == []  # no output folder, volume or manifest

    @pytest.mark.parametrize("command", ["fuse", "refine"])
    def test_manifest_elapsed_is_per_subject(self, work, tmp_path, command):
        src = tmp_path / "in"
        src.mkdir()
        folder = "src" if command == "fuse" else "fused"
        for name in ("p0.nii", "p1.nii"):
            shutil.copy(work / folder / name, src / name)
        argv = [command, str(src), str(tmp_path / "out"), "--jobs", "1"]
        if command == "refine":
            argv += ["--landmarks", str(work / "lm")]
        t0 = time.perf_counter()
        assert main(argv) == 0
        wall = time.perf_counter() - t0
        elapsed = [json.loads((tmp_path / "out" / f"{name}.manifest.json")
                              .read_text())["elapsed_s"] for name in ("p0.nii", "p1.nii")]
        assert all(e > 0 for e in elapsed)
        assert sum(elapsed) <= wall + 0.001  # each value is rounded to 1 ms

    def test_single_file_output_name_kept(self, work, tmp_path):
        out = tmp_path / "custom_name.nii.gz"
        assert main(["fuse", str(work / "src" / "p0.nii"), str(out)]) == 0
        assert out.exists()
        assert read_volume(out).taxonomy == "fused12"


class TestEvaluate:
    def test_json_to_stdout(self, work, capsys):
        code = main(["evaluate", str(work / "refined" / "p0.nii"),
                     str(work / "src" / "p0.nii"),
                     "--landmarks", str(work / "lm" / "p0.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subject"] == "p0"
        dice_rows = [r for r in doc["rows"] if r["metric"] == "dice"]
        assert len(dice_rows) == 26
        assert all(r["value"] == 1.0 for r in dice_rows)
        pasd_rows = [r for r in doc["rows"] if r["metric"] == "pasd"]
        assert len(pasd_rows) == 15
        assert all(r["value"] == 0.0 for r in pasd_rows)

    def test_csv_to_file_with_manifest(self, work, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["evaluate", str(work / "refined" / "p0.nii"),
                     str(work / "src" / "p0.nii"),
                     "--landmarks", str(work / "lm" / "p0.json"),
                     "--format", "csv", "--out", str(out),
                     "--subject", "sub-7"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "subject,metric,region,surface,side,value"
        assert lines[1].startswith("sub-7,")
        doc = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert doc["command"] == "evaluate"

    def test_misaligned_volumes_exit_2(self, work, tmp_path, capsys):
        other = tmp_path / "other.nii"
        assert main(["phantom", str(other), "--seed", "0",
                     "--spacing", "0.8"]) == 0
        code = main(["evaluate", str(other), str(work / "src" / "p0.nii"),
                     "--landmarks", str(work / "lm" / "p0.json")])
        assert code == 2
        assert "affine" in capsys.readouterr().err


    @pytest.mark.parametrize("label", [27, -1])
    def test_label_outside_taxonomy_exit_2(self, work, tmp_path, capsys, label):
        src = read_volume(work / "src" / "p0.nii")
        data = src.data.copy()
        data[0, 0, 0] = label
        pred = tmp_path / "pred.nii"
        write_volume(src.with_data(data), pred)
        capsys.readouterr()
        code = main(["evaluate", str(pred), str(work / "src" / "p0.nii"),
                     "--landmarks", str(work / "lm" / "p0.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"label {label}" in err

    @pytest.mark.parametrize("role", ["predicted", "reference"])
    def test_fused_volume_is_invalid(self, work, capsys, role):
        # fused ids 1..12 lie in the fine range 0..26 but name other structures
        fused, fine = str(work / "fused" / "p0.nii"), str(work / "src" / "p0.nii")
        pred, gt = (fused, fine) if role == "predicted" else (fine, fused)
        capsys.readouterr()
        code = main(["evaluate", pred, gt, "--landmarks", str(work / "lm" / "p0.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and f"{role} volume is tagged fused12" in err[0]

    def test_skipped_sides_in_json(self, work, tmp_path, capsys):
        doc = json.loads((work / "lm" / "p0.json").read_text())
        doc["landmarks"] = [e for e in doc["landmarks"] if e["id"] != 9]
        lm_path = tmp_path / "no3v.json"
        lm_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["evaluate", str(work / "refined" / "p0.nii"),
                     str(work / "src" / "p0.nii"), "--landmarks", str(lm_path)])
        assert code == 0
        skipped = json.loads(capsys.readouterr().out)["skipped"]
        assert skipped == [{"metric": "pasd", "region": "3V",
                            "surface": "anterior", "side": "mid",
                            "reason": "landmark #9 missing"}]


class TestRoundtrip:
    def test_clean_phantom_passes(self, work, capsys):
        code = main(["roundtrip", str(work / "src" / "p0.nii"),
                     "--landmarks", str(work / "lm" / "p0.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean dice: 1.000000" in out
        assert "mean pasd: 0.000000 mm" in out

    def test_jittered_landmarks_fail_threshold(self, work, tmp_path, capsys):
        vol, lms = generate_phantom(0)
        _, moved = degrade_phantom(vol, lms, "landmark-jitter", 1.0, seed=1)
        lm_path = tmp_path / "jittered.json"
        write_landmarks(moved, lm_path)
        code = main(["roundtrip", str(work / "src" / "p0.nii"),
                     "--landmarks", str(lm_path), "--threshold", "0.999"])
        captured = capsys.readouterr()
        assert code == 2
        assert "below threshold" in captured.err
        assert "mean dice: 0.9" in captured.out

    def test_collinear_plane_exits_3(self, work, tmp_path, capsys):
        _, lms = generate_phantom(0)
        pts = {lid: lms[lid].copy() for lid in lms.ids}
        ac, pc = pts[10], pts[15]
        pts[16] = ac + 2.0 * (pc - ac)  # drop PPF onto the AC-PC line
        lm_path = tmp_path / "collinear.json"
        write_landmarks(LandmarkSet(pts), lm_path)
        code = main(["roundtrip", str(work / "src" / "p0.nii"),
                     "--landmarks", str(lm_path)])
        assert code == 3
        assert "collinear" in capsys.readouterr().err


# text inputs that are not UTF-8, or not JSON where JSON is due
_BAD_TEXT = {
    "landmarks.json-not-utf8": b'\xff{"space": "world_mm"}',
    "landmarks.csv-not-utf8": b"id,name,x,y,z\n10,A\xff,1,2,3\n",
    "config.json-not-utf8": b'{"slice_adjust": "\xff"}',
    "table.csv-not-utf8": b"subject,dice\ns\xff,0.5\n",
    "table.csv-header-only": b"subject,dice\n",
    "model.json-not-utf8": b"\xff",
    "landmarks.json-not-json": b'{"space": "world_mm", "landmarks": [}',
    "model.json-not-json": b"{",
}


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["fuse", str(tmp_path / "nope.nii"),
                     str(tmp_path / "out.nii")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_missing_landmark_file_is_io_error(self, work, tmp_path):
        assert main(["refine", str(work / "fused" / "p0.nii"),
                     str(tmp_path / "out.nii"),
                     "--landmarks", str(tmp_path / "nope.json")]) == 1

    def test_fusing_fused_volume_is_invalid(self, work, tmp_path, capsys):
        code = main(["fuse", str(work / "fused" / "p0.nii"),
                     str(tmp_path / "out.nii")])
        assert code == 2
        assert "fused" in capsys.readouterr().err

    def test_incomplete_landmarks_named_in_error(self, work, tmp_path, capsys):
        doc = json.loads((work / "lm" / "p0.json").read_text())
        doc["landmarks"] = [e for e in doc["landmarks"] if e["id"] != 16]
        lm_path = tmp_path / "short.json"
        lm_path.write_text(json.dumps(doc))
        code = main(["refine", str(work / "fused" / "p0.nii"),
                     str(tmp_path / "out.nii"), "--landmarks", str(lm_path)])
        assert code == 2
        assert "16" in capsys.readouterr().err


    @pytest.mark.parametrize("command, defect, code", [
        ("fuse", "truncated-gz", 1),
        ("fuse", "vox-offset-0", 1),
        ("fuse", "vox-offset-352.9", 1),
        ("fuse", "spacing-beyond-float32", 1),
        ("fuse", "scl-slope-2", 1),
        ("refine", "scl-slope-2", 1),
        ("evaluate", "scl-slope-2", 1),
        ("refine", "truncated-gz", 1),
        ("evaluate", "truncated-gz", 1),
        ("refine", "oblique-affine", 1),
        ("evaluate", "oblique-affine", 1),
        ("refine", "landmark-without-xyz", 2),
        ("evaluate", "landmark-without-xyz", 2),
        ("refine", "landmark-without-id", 2),
        ("evaluate", "landmark-without-id", 2),
        ("refine", "landmark-file-key-units", 2),
        ("evaluate", "landmark-entry-key-xyz_mm", 2),
        ("refine", "landmarks.json-not-utf8", 2),
        ("evaluate", "landmarks.csv-not-utf8", 2),
        ("refine", "config.json-not-utf8", 2),
        ("stats", "table.csv-not-utf8", 2),
        ("stats", "table.csv-header-only", 2),
        ("shape", "model.json-not-utf8", 2),
        ("refine", "landmarks.json-not-json", 2),
        ("shape", "model.json-not-json", 2),
    ])
    def test_malformed_input_is_one_line(self, work, tmp_path, capsys,
                                         command, defect, code):
        vol = work / ("fused" if command == "refine" else "src") / "p0.nii"
        lm = work / "lm" / "p0.json"
        extra, bad = [], None
        if defect in _BAD_TEXT:  # the line names the bad file
            bad = tmp_path / defect.split("-")[0]
            bad.write_bytes(_BAD_TEXT[defect])
            if bad.stem == "landmarks":
                lm = bad
            elif bad.name == "config.json":
                extra = ["--config", str(bad)]
        elif defect == "truncated-gz":
            gz = tmp_path / "in.nii.gz"
            write_volume(read_volume(vol), gz)
            raw = gz.read_bytes()
            gz.write_bytes(raw[:len(raw) // 2])
            vol = gz
        elif defect.startswith("vox-offset-"):
            raw = bytearray(vol.read_bytes())
            struct.pack_into("<f", raw, 108, float(defect.rsplit("-", 1)[1]))
            vol = tmp_path / "bad-offset.nii"
            vol.write_bytes(bytes(raw))
        elif defect == "scl-slope-2":  # labels read as twice their value
            raw = bytearray(vol.read_bytes())
            struct.pack_into("<f", raw, 112, 2.0)
            vol = tmp_path / "scaled.nii"
            vol.write_bytes(bytes(raw))
        elif defect == "spacing-beyond-float32":
            # each srow value fits float32, the x column's norm does not
            raw = bytearray(vol.read_bytes())
            struct.pack_into("<f", raw, 280, 3e38)  # srow_x[0]
            struct.pack_into("<f", raw, 296, 3e38)  # srow_y[0]
            vol = tmp_path / "huge.nii"
            vol.write_bytes(bytes(raw))
        elif defect == "oblique-affine":
            # 45 degrees about y: two stored axes tie for world x
            c = np.sqrt(0.5)
            rot = np.array([[c, 0, c], [0, 1, 0], [-c, 0, c]])
            src = read_volume(vol)
            lms = parse_landmarks(lm)
            vol, lm = tmp_path / "oblique.nii", tmp_path / "oblique.json"
            affine = np.eye(4)
            affine[:3] = rot @ src.affine[:3]
            write_volume(Volume(src.data, affine, taxonomy=src.taxonomy), vol)
            write_landmarks(LandmarkSet({i: rot @ lms[i] for i in lms.ids}), lm)
        else:
            doc = json.loads(lm.read_text())
            key = defect.rsplit("-", 1)[1]
            if defect.startswith("landmark-file-key"):
                doc[key] = "cm"  # would rescale every point if it were read
            elif defect.startswith("landmark-entry-key"):
                doc["landmarks"][0][key] = doc["landmarks"][0]["xyz"]
            else:
                del doc["landmarks"][0][key]
            lm = tmp_path / "broken.json"
            lm.write_text(json.dumps(doc))
        out = str(tmp_path / "out.nii")
        argv = {"fuse": ["fuse", str(vol), out],
                "refine": ["refine", str(vol), out, "--landmarks", str(lm)],
                "evaluate": ["evaluate", str(vol), str(vol),
                             "--landmarks", str(lm)],
                "stats": ["stats", str(bad), str(bad), "--out", out],
                "shape": ["shape", "apply", str(bad), "--out", out]}[command]
        capsys.readouterr()
        assert main(argv + extra) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        if bad is not None:
            assert str(bad) in err[0]


def test_gzip_cut_mid_payload_is_one_line(tmp_path, capsys):
    """A .nii.gz whose stream ends inside the voxels, chunks past the
    header, is refused by ``fuse`` with one NiftiFormatError line, exit 1."""
    data = np.random.default_rng(0).integers(0, 27, (128, 128, 128), dtype=np.uint8)
    gz = tmp_path / "cut.nii.gz"
    write_volume(Volume(data, np.eye(4), taxonomy="fine26"), gz)
    raw = gz.read_bytes()
    gz.write_bytes(raw[:len(raw) * 3 // 4])
    with pytest.raises(NiftiFormatError, match="damaged gzip data"):
        read_volume(gz)
    capsys.readouterr()
    assert main(["fuse", str(gz), str(tmp_path / "out.nii")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "damaged gzip data" in err[0]
    assert not (tmp_path / "out.nii").exists()


class TestConfigPrecedence:
    def test_env_then_file_then_flags(self, work, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"slice_adjust": True, "partial_rules": "yes"}))
        cli_cfg = tmp_path / "cli.json"
        cli_cfg.write_text(json.dumps({"slice_adjust": False}))
        monkeypatch.setenv("HOA_REFINE_CONFIG", str(env_cfg))
        out = tmp_path / "out.nii"
        argv = ["refine", str(work / "fused" / "p0.nii"), str(out),
                "--landmarks", str(work / "lm" / "p0.json"), "--config", str(cli_cfg)]
        manifest = tmp_path / "out.nii.manifest.json"
        assert main(argv) == 0
        cfg = json.loads(manifest.read_text())["config"]
        assert cfg["slice_adjust"] is False   # file beats env
        assert cfg["partial_rules"] is True   # env survives elsewhere
        assert main([*argv, "--slice-adjust"]) == 0
        cfg = json.loads(manifest.read_text())["config"]
        assert cfg["slice_adjust"] is True    # flag beats both

    def test_bad_config_file_is_invalid(self, work, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"slice_adjust": "maybe"}))
        code = main(["refine", str(work / "fused" / "p0.nii"),
                     str(tmp_path / "out.nii"),
                     "--landmarks", str(work / "lm" / "p0.json"),
                     "--config", str(bad)])
        assert code == 2
        assert "slice_adjust" in capsys.readouterr().err

    def test_deeply_nested_config_is_invalid(self, work, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"slice_adjust": ' + "[" * 100_000 + "]" * 100_000 + "}")
        capsys.readouterr()
        assert main(["refine", str(work / "fused" / "p0.nii"), str(tmp_path / "out.nii"),
                     "--landmarks", str(work / "lm" / "p0.json"), "--config", str(deep)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["refine", "evaluate"])
    def test_deeply_nested_landmarks_are_invalid(self, work, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        vol = str(work / ("fused" if command == "refine" else "src") / "p0.nii")
        out = str(tmp_path / "out.nii")
        argv = {"refine": ["refine", vol, out, "--landmarks", str(deep)],
                "evaluate": ["evaluate", vol, vol, "--landmarks", str(deep)]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "nested too deeply" in err

    # the protocol fixes these conventions; naming one is an error,
    # even at the value the protocol uses
    @pytest.mark.parametrize("source", ["config", "env"])
    @pytest.mark.parametrize("key, value", [
        ("separator_mode", "linear"), ("third_ventricle_target", 3),
        ("midline_right_inclusive", True), ("extent_strict", True),
        ("vdc_anterior_strict", True)])
    def test_fixed_convention_key_is_invalid(self, work, tmp_path, monkeypatch, capsys,
                                             source, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["refine", str(work / "fused" / "p0.nii"), str(tmp_path / "out.nii"),
                "--landmarks", str(work / "lm" / "p0.json")]
        if source == "env":
            monkeypatch.setenv("HOA_REFINE_CONFIG", str(cfg))
        else:
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0]
        assert not (tmp_path / "out.nii").exists()


class TestStats:
    def _tables(self, tmp_path, flip_subject=False):
        rng = np.random.default_rng(0)
        n = 12
        header = "subject,dice,pasd"
        rows_a, rows_b = [header], [header]
        for i in range(n):
            d = rng.normal(0.9, 0.01)
            p = rng.normal(0.5, 0.05)
            rows_a.append(f"s{i},{d + 0.05},{p + 0.3}")
            name = f"x{i}" if flip_subject and i == 3 else f"s{i}"
            rows_b.append(f"{name},{d},{p}")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join(rows_a) + "\n")
        b.write_text("\n".join(rows_b) + "\n")
        return a, b

    def test_shifted_columns_significant(self, tmp_path, capsys):
        a, b = self._tables(tmp_path)
        assert main(["stats", str(a), str(b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 0.05
        assert [r["column"] for r in doc["results"]] == ["dice", "pasd"]
        assert all(r["significant"] for r in doc["results"])
        assert all(r["p_value"] <= 0.001 for r in doc["results"])

    def test_degenerate_column_serializes_null(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("subject,flat\n" +
                     "".join(f"s{i},0.5\n" for i in range(8)))
        b.write_text("subject,flat\n" +
                     "".join(f"s{i},0.5\n" for i in range(8)))
        assert main(["stats", str(a), str(b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["p_value"] is None
        assert doc["results"][0]["significant"] is False

    def test_subject_mismatch_is_invalid(self, tmp_path, capsys):
        a, b = self._tables(tmp_path, flip_subject=True)
        assert main(["stats", str(a), str(b)]) == 2
        assert "subject mismatch" in capsys.readouterr().err

    def test_reordered_subjects_name_first_difference(self, tmp_path, capsys):
        a, b = self._tables(tmp_path)
        lines = b.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # same subjects, s1 before s0
        b.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["stats", str(a), str(b)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: subject mismatch between tables: subject row 1 is "
                       f"'s0' in {a} and 's1' in {b}"]

    def test_missing_subject_row_is_named(self, tmp_path, capsys):
        a, b = self._tables(tmp_path)
        b.write_text("\n".join(b.read_text().splitlines()[:-1]) + "\n")
        capsys.readouterr()
        assert main(["stats", str(a), str(b)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith(f"subject row 12 is 's11' in {a} and no row in {b}")

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_repeated_subject_is_invalid(self, tmp_path, capsys, which):
        a, b = self._tables(tmp_path)
        path = a if which == "a" else b
        path.write_text(path.read_text().replace("s2,", "s1,", 1))
        out = tmp_path / "stats.json"
        capsys.readouterr()
        assert main(["stats", str(a), str(b), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: subject 's1' appears twice"]
        assert not out.exists()

    def test_header_required(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("name,dice\ns0,0.5\n")
        assert main(["stats", str(a), str(a)]) == 2
        assert "header" in capsys.readouterr().err

    def test_header_only_has_no_subject_rows(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("subject,dice\n\n")
        assert main(["stats", str(a), str(a)]) == 2
        assert f"{a}: no subject rows" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["5", "nan", "-1", "0"])
    def test_q_outside_unit_interval_is_invalid(self, tmp_path, capsys, q):
        a, b = self._tables(tmp_path)
        out = tmp_path / "stats.json"
        capsys.readouterr()
        assert main(["stats", str(a), str(b), "--q", q, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "FDR level" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blank_lines_are_skipped(self, tmp_path, capsys, fmt):
        a, b = self._tables(tmp_path)
        capsys.readouterr()
        assert main(["stats", str(a), str(b), "--format", fmt]) == 0
        want = capsys.readouterr().out
        a.write_text(a.read_text() + "\n")
        b.write_text(b.read_text().replace("\n", "\n\n", 1))
        assert main(["stats", str(a), str(b), "--format", fmt]) == 0
        assert capsys.readouterr().out == want

    def test_csv_output(self, tmp_path, capsys):
        a, b = self._tables(tmp_path)
        assert main(["stats", str(a), str(b), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "column,statistic,p_value,significant"
        assert lines[1].startswith("dice,") and lines[1].endswith(",true")

    def test_non_finite_cell_is_invalid(self, tmp_path, capsys):
        # five finite differences, all negative: ranked with the NaN as a
        # sixth pair, p fell from 0.0625 to 0.03125 and turned significant
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("subject,x\n" + "".join(f"s{i},{v}\n" for i, v in
                                              enumerate([1, 2, 3, 4, 5, "nan"])))
        b.write_text("subject,x\n" + "".join(f"s{i},{2 * i + 2}\n" for i in range(6)))
        out = tmp_path / "stats.json"
        capsys.readouterr()
        assert main(["stats", str(a), str(b), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'s5'" in err[0] and "nan" in err[0]
        assert not out.exists()


class TestByteOrderMark:
    """A text input that starts with a UTF-8 byte-order mark, as Excel
    writes CSV, reads the same as the file without one."""

    @pytest.mark.parametrize("kind", ["landmarks-csv", "landmarks-json", "config",
                                      "stats", "model"])
    def test_same_result_with_bom(self, work, tmp_path, capsys, kind):
        lm = work / "lm" / "p0.json"
        out = tmp_path / "out.json"
        if kind in ("landmarks-csv", "landmarks-json"):
            path = tmp_path / ("p0." + kind.split("-")[1])
            write_landmarks(parse_landmarks(lm), path)
            argv = ["evaluate", str(work / "refined" / "p0.nii"), str(work / "src" / "p0.nii"),
                    "--landmarks", "{}", "--out", str(out)]
        elif kind == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"slice_adjust": True, "partial_rules": True}))
            out = tmp_path / "out.nii"
            argv = ["refine", str(work / "fused" / "p0.nii"), str(out),
                    "--landmarks", str(lm), "--config", "{}"]
        elif kind == "stats":
            path, b = tmp_path / "a.csv", tmp_path / "b.csv"
            path.write_text("subject,x\n" + "".join(f"s{i},{i}\n" for i in range(8)))
            b.write_text("subject,x\n" + "".join(f"s{i},{i * i}\n" for i in range(8)))
            argv = ["stats", "{}", str(b), "--out", str(out)]
        else:
            path = tmp_path / "model.json"
            assert main(["shape", "fit", *(str(work / "lm" / f"p{i}.json") for i in (0, 1, 2)),
                         "--selector", "3", "--out", str(path)]) == 0
            argv = ["shape", "apply", "{}", "--coeffs", "1.0,0.5", "--out", str(out)]
        bom = tmp_path / ("bom-" + path.name)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        results = []
        for src in (path, bom):
            capsys.readouterr()
            assert main([str(src) if a == "{}" else a for a in argv]) == 0, \
                capsys.readouterr().err
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            results.append((out.read_bytes(), manifest.get("config")))
        assert results[0] == results[1]


class TestPhantomCommand:
    @pytest.mark.parametrize("amount", ["inf", "1.5", "nan"])
    def test_erosion_amount_must_be_whole(self, tmp_path, capsys, amount):
        out = tmp_path / "eroded.nii"
        capsys.readouterr()
        assert main(["phantom", str(out), "--degrade", "erosion", "--amount", amount]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "whole step count" in err[0]
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        assert main(["phantom", str(a), "--seed", "9"]) == 0
        assert main(["phantom", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degrade_writes_fused_volume(self, tmp_path):
        out = tmp_path / "noisy.nii"
        assert main(["phantom", str(out), "--seed", "1",
                     "--degrade", "boundary-noise", "--amount", "0.2"]) == 0
        vol = read_volume(out)
        assert vol.taxonomy == "fused12"
        assert int(vol.data.max()) <= 12
        # stored LAS, refined, then fuse, refine, fuse: each fuse gives back
        # the labels refined, but for the fused-3 voxels strictly anterior
        # of #9's slice, which rule (iii) makes CSF (fused 2)
        affine = vol.affine.copy()
        affine[:3, 3] += affine[:3, 0] * (vol.dims[0] - 1)
        affine[:3, 0] = -affine[:3, 0]
        write_volume(Volume(vol.data[::-1], affine, taxonomy="fused12"), tmp_path / "las.nii")
        lm = str(tmp_path / "noisy.landmarks.json")
        for command, src, dst in [("refine", "las", "fine"), ("fuse", "fine", "a"),
                                  ("refine", "a", "b"), ("fuse", "b", "c")]:
            argv = [command, str(tmp_path / f"{src}.nii"), str(tmp_path / f"{dst}.nii")]
            assert main(argv + (["--landmarks", lm] if command == "refine" else [])) == 0
        las, a, c = (read_volume(tmp_path / f"{n}.nii") for n in ("las", "a", "c"))
        anterior = np.arange(vol.dims[1])[None, :, None] \
            > coronal_slice_index(las, parse_landmarks(lm)[9])
        assert np.array_equal(a.data, np.where((las.data == 3) & anterior, 2, las.data))
        assert np.array_equal(c.data, a.data)

    def test_degraded_landmarks_move(self, tmp_path):
        clean = tmp_path / "clean.nii"
        noisy = tmp_path / "noisy.nii"
        assert main(["phantom", str(clean), "--seed", "2"]) == 0
        assert main(["phantom", str(noisy), "--seed", "2", "--degrade",
                     "landmark-jitter", "--amount", "1.5"]) == 0
        a = json.loads((tmp_path / "clean.landmarks.json").read_text())
        b = json.loads((tmp_path / "noisy.landmarks.json").read_text())
        assert a["landmarks"][0]["xyz"] != b["landmarks"][0]["xyz"]


class TestShapeCommands:
    def test_fit_apply_iterate_sample(self, work, tmp_path, capsys):
        lm_files = [str(work / "lm" / f"p{s}.json") for s in (0, 1, 2)]
        model_path = tmp_path / "model.json"
        assert main(["shape", "fit", *lm_files, "--selector", "3",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["n_components"] == 2  # three samples span two modes

        lm_out = tmp_path / "reconstructed.json"
        assert main(["shape", "apply", str(model_path),
                     "--coeffs", "1.0,0.5", "--out", str(lm_out)]) == 0
        assert len(json.loads(lm_out.read_text())["landmarks"]) == 16

        trace_path = tmp_path / "trace.json"
        assert main(["shape", "iterate", str(model_path),
                     "--target", lm_files[1], "--steps", "4",
                     "--out", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        errs = [s["mean_error_mm"] for s in trace["steps"]]
        assert errs[0] > 0.1
        assert errs[1] < 1e-9  # full-confidence oracle lands in one step
        assert len(trace["final_landmarks"]) == 16

        sample_path = tmp_path / "patches.json"
        assert main(["shape", "sample", "--center", "1,2,3", "--radius", "4",
                     "--count", "100", "--seed", "7",
                     "--out", str(sample_path)]) == 0
        doc = json.loads(sample_path.read_text())
        assert doc["side"] == 16
        assert len(doc["points"]) == 100

    @pytest.mark.parametrize("center, radius", [
        ("nan,0,0", "4"), ("0,inf,0", "4"), ("1,2,3", "nan"), ("1,2,3", "inf")])
    def test_non_finite_sample_is_invalid(self, tmp_path, capsys, center, radius):
        out = tmp_path / "patches.json"
        capsys.readouterr()
        assert main(["shape", "sample", "--center", center, "--radius", radius,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]
        assert not out.exists()

    def test_too_many_coefficients(self, work, tmp_path, capsys):
        lm_files = [str(work / "lm" / f"p{s}.json") for s in (0, 1)]
        model_path = tmp_path / "model.json"
        assert main(["shape", "fit", *lm_files, "--selector", "1",
                     "--out", str(model_path)]) == 0
        code = main(["shape", "apply", str(model_path),
                     "--coeffs", "1,2,3,4", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs", ["0,,1", ",1", "1,", " "])
    def test_empty_coefficient_is_invalid(self, work, tmp_path, capsys, coeffs):
        # "0,,1" once read as "0,1": the 1 moved to the second mode
        lm_files = [str(work / "lm" / f"p{s}.json") for s in (0, 1, 2)]
        model_path = tmp_path / "model.json"
        assert main(["shape", "fit", *lm_files, "--selector", "3",
                     "--out", str(model_path)]) == 0
        out = tmp_path / "x.json"
        capsys.readouterr()
        assert main(["shape", "apply", str(model_path), "--coeffs", coeffs,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--coeffs" in err[0] and "empty field" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["apply", "iterate"])
    @pytest.mark.parametrize("text, reason", [
        ("{}", "not a shape model"),
        ("[1, 2]", "not a shape model"),
        ('{"mean": [0.0], "components_row_major": [1.0, 2.0], "mode_variances": [1.0], '
         '"variance_fraction_retained": 1.0}', "component shape"),
        ("[" * 100_000, "nested too deeply"),
    ], ids=["missing-key", "not-an-object", "1d-components", "deep"])
    def test_malformed_model_is_invalid(self, work, tmp_path, capsys, command, text, reason):
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        out = tmp_path / "out.json"
        argv = {"apply": ["--coeffs", "0.5"],
                "iterate": ["--target", str(work / "lm" / "p0.json")]}[command]
        capsys.readouterr()
        assert main(["shape", command, str(model_path), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and reason in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["apply", "iterate"])
    def test_non_finite_model_is_invalid(self, work, tmp_path, capsys, command):
        model_path = tmp_path / "model.json"
        lm_files = [str(work / "lm" / f"p{s}.json") for s in (0, 1, 2)]
        assert main(["shape", "fit", *lm_files, "--selector", "2",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        doc["mean"][5] = math.inf
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        argv = {"apply": ["--coeffs", "0.5"], "iterate": ["--target", lm_files[1]]}[command]
        capsys.readouterr()
        assert main(["shape", command, str(model_path), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-finite" in err[0]
        assert not out.exists()


class TestAtomicReports:
    """Reports, landmark files and shape models are written atomically."""

    @pytest.fixture
    def inputs(self, work, tmp_path):
        root = tmp_path / "in"
        root.mkdir()
        lm = [str(work / "lm" / f"p{s}.json") for s in (0, 1, 2)]
        assert main(["shape", "fit", *lm, "--selector", "2",
                     "--out", str(root / "model.json")]) == 0
        for name, shift in (("a", 0.5), ("b", 0.0)):
            (root / f"{name}.csv").write_text(
                "subject,dice\n" + "".join(f"s{i},{i + shift * (i % 3)}\n"
                                           for i in range(8)))
        return work, root, lm

    @pytest.mark.parametrize("command", [
        "evaluate", "roundtrip", "stats", "shape-fit", "shape-apply-json",
        "shape-apply-csv", "shape-iterate", "shape-sample"])
    def test_failed_write_leaves_no_file(self, inputs, tmp_path, monkeypatch,
                                         capsys, command):
        work, root, lm = inputs
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = str(out_dir / ("report.csv" if command.endswith("csv") else "report.json"))
        model = str(root / "model.json")
        argv = {
            "evaluate": ["evaluate", str(work / "refined" / "p0.nii"),
                         str(work / "src" / "p0.nii"), "--landmarks", lm[0]],
            "roundtrip": ["roundtrip", str(work / "src" / "p0.nii"), "--landmarks", lm[0]],
            "stats": ["stats", str(root / "a.csv"), str(root / "b.csv")],
            "shape-fit": ["shape", "fit", *lm, "--selector", "2"],
            "shape-apply-json": ["shape", "apply", model, "--coeffs", "0.5"],
            "shape-apply-csv": ["shape", "apply", model, "--coeffs", "0.5"],
            "shape-iterate": ["shape", "iterate", model, "--target", lm[1], "--steps", "2"],
            "shape-sample": ["shape", "sample", "--center", "1,2,3", "--radius", "4",
                             "--count", "10"],
        }[command] + ["--out", out]
        real_fdopen = os.fdopen

        class HalfThenFail:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                self.f.flush()  # the partial bytes reach the file
                raise OSError("disk full")

        monkeypatch.setattr("hoarefine.nifti.os.fdopen",
                            lambda fd, mode: HalfThenFail(real_fdopen(fd, mode)))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert os.listdir(out_dir) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


# (name, byte offset, struct format) of each header field the mutation
# test rewrites; the intent_name tag and the payload stay as written
HEADER_FIELDS = [("sizeof_hdr", 0, "i"), ("datatype", 70, "h"), ("bitpix", 72, "h"),
                 ("vox_offset", 108, "f"), ("scl_slope", 112, "f"),
                 ("scl_inter", 116, "f"), ("qform_code", 252, "h"),
                 ("sform_code", 254, "h"), ("magic", 344, "4s")]
HEADER_FIELDS += [(f"dim[{i}]", 40 + 2 * i, "h") for i in range(8)]
HEADER_FIELDS += [(f"pixdim[{i}]", 76 + 4 * i, "f") for i in range(8)]
HEADER_FIELDS += [(f"quatern_{c}", 256 + 4 * i, "f") for i, c in enumerate("bcd")]
HEADER_FIELDS += [(f"qoffset_{c}", 268 + 4 * i, "f") for i, c in enumerate("xyz")]
HEADER_FIELDS += [(f"srow[{i}]", 280 + 4 * i, "f") for i in range(12)]

_SHORTS = st.one_of(st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 7, 8, 16, 64, 512, 32767, -32768)),
                    st.integers(-2**15, 2**15 - 1))
_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 348.0, 352.0, 352.5, 356.0,
                                     1e-30, 3e38, float("nan"), float("inf"))),
                    st.floats(width=32))
_VALUES = {"i": st.one_of(st.sampled_from((0, 352, 0x5c010000, -348)),
                          st.integers(-2**31, 2**31 - 1)),
           "h": _SHORTS, "f": _FLOATS,
           "4s": st.one_of(st.sampled_from((b"ni1\x00", b"n+2\x00", b"\x00" * 4)),
                           st.binary(min_size=4, max_size=4))}


@pytest.fixture(scope="module")
def header_case(tmp_path_factory):
    """A small valid fine-label .nii and the fused data of its unmutated read."""
    path = tmp_path_factory.mktemp("header") / "valid.nii"
    data = np.random.default_rng(0).integers(0, 27, (5, 4, 3)).astype(np.uint8)
    affine = np.diag([0.5, 0.75, 1.0, 1.0])
    affine[:3, 3] = (-1.0, 2.0, -0.5)
    write_volume(Volume(data, affine, taxonomy="fine26"), path)
    return path.read_bytes(), fuse_labels(read_volume(path)).data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_header_mutation_is_read_exactly_or_refused(header_case, data):
    """One mutated header field: ``fuse`` either exits 0 with the data of
    the unmutated read, or exits 1 or 2 with one stderr line.  Anything
    else, a traceback included, fails."""
    raw, want = header_case
    name, offset, fmt = data.draw(st.sampled_from(HEADER_FIELDS), label="field")
    value = data.draw(_VALUES[fmt], label="value")
    mutated = bytearray(raw)
    struct.pack_into("<" + fmt, mutated, offset, value)
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.nii", Path(tmp) / "out.nii"
        src.write_bytes(bytes(mutated))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["fuse", str(src), str(out)])
        if code == 0:
            got = read_volume(out).data
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert code in (1, 2), (name, code)
            assert len(err.getvalue().splitlines()) == 1, (name, err.getvalue())


# JSON values of every kind: the documents below are mutated with these
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from((0, 1, 2, -1, 0.0, -0.0, 1.0, 0.5, 10**400, "", "3", "true", "AC")))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

# the string spellings of booleans a config file may use
_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}
_SPELLED = st.builds(lambda word, case, pad: pad + case(word) + pad,
                     st.sampled_from(sorted(_BOOL_WORDS)),
                     st.sampled_from((str, str.upper, str.title)),
                     st.sampled_from(("", " ", "\t")))
_CONFIG_KEYS = ("slice_adjust", "partial_rules")


def _run_cli(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def refine_case(tmp_path_factory):
    """A small fused volume, its landmarks as JSON and CSV, and the
    refined bytes for each of the four configs, keyed by
    (slice_adjust, partial_rules)."""
    root = tmp_path_factory.mktemp("refinecase")
    vol, lms = generate_phantom(1)
    # AC 6 mm to the right tilts the midsagittal plane, so that
    # slice_adjust moves voxels
    lms = LandmarkSet({**lms.points, 10: lms[10] + (6.0, 0.0, 0.0)})
    src = root / "in.nii"
    write_volume(resample(fuse_labels(vol), (32, 32, 32)), src)
    write_landmarks(lms, root / "lm.json")
    write_landmarks(lms, root / "lm.csv")
    want = {}
    for sa in (False, True):
        for pr in (False, True):
            cfg = root / "cfg.json"
            cfg.write_text(json.dumps({"slice_adjust": sa, "partial_rules": pr}))
            out = root / "out.nii"
            assert main(["refine", str(src), str(out), "--landmarks",
                         str(root / "lm.json"), "--config", str(cfg)]) == 0
            want[sa, pr] = out.read_bytes()
    assert want[False, False] != want[True, False]  # slice_adjust shows in the bytes
    return src, root / "lm.json", root / "lm.csv", want


def _as_bool(value):
    """The boolean a config value stands for, or None for a value that
    stands for none."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return _BOOL_WORDS.get(value.strip().lower())
    return None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_config_value_is_read_exactly_or_refused(refine_case, data):
    """A config file holding any JSON values for the two settings: ``refine``
    either exits 0 with the bytes and manifest of the equivalent boolean
    config, or, for a value that spells no boolean, exits 2 with one
    stderr line naming the key."""
    src, lm_json, _, want = refine_case
    doc = {}
    for key in _CONFIG_KEYS:
        if data.draw(st.booleans(), label=f"{key} given"):
            doc[key] = data.draw(st.one_of(st.booleans(), _SPELLED, _JSON_VALUES), label=key)
    meant = {key: _as_bool(doc.get(key, False)) for key in _CONFIG_KEYS}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out.nii"
        cfg.write_text(json.dumps(doc))
        code, err = _run_cli(["refine", str(src), str(out), "--landmarks", str(lm_json),
                              "--config", str(cfg)])
        bad = [key for key in _CONFIG_KEYS if meant[key] is None]
        if bad:
            assert code == 2, doc
            assert len(err) == 1 and any(key in err[0] for key in bad), (doc, err)
        else:
            assert code == 0, (doc, err)
            assert out.read_bytes() == want[meant["slice_adjust"], meant["partial_rules"]]
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest["config"] == meant


def _is_coordinate(value) -> bool:
    """A finite JSON number: data a mutation would move, not malform."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond float64
        return False


def _mutate_json(data, doc):
    """Delete or replace one key (or list item) of a landmark document.

    Returns the mutated path and whether the document may still be read:
    only a deleted, empty or unchanged name, or an id of the same value
    (10.0 for 10), leaves it well formed.  A replacement that is itself
    a valid coordinate, xyz list or entry is not drawn: it would move
    the landmarks, not malform them.
    """
    targets = [("space",), ("frame",), ("landmarks",)]
    for i, entry in enumerate(doc["landmarks"]):
        targets += [("landmarks", i), *(("landmarks", i, k) for k in entry)]
        targets += [("landmarks", i, "xyz", c) for c in range(3)]
    path = data.draw(st.sampled_from(targets), label="target")
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    if data.draw(st.booleans(), label="delete"):
        del holder[last]
        return path, last == "name"
    if len(path) == 4:
        values = _JSON_VALUES.filter(lambda v: not _is_coordinate(v))
    elif last == "xyz":
        values = _JSON_VALUES.filter(
            lambda v: not (isinstance(v, list) and len(v) == 3 and all(map(_is_coordinate, v))))
    elif len(path) == 2:
        values = _JSON_VALUES.filter(lambda v: not (isinstance(v, dict) and "xyz" in v))
    else:
        values = _JSON_VALUES
    old, new = holder[last], data.draw(values, label="value")
    holder[last] = new
    if last == "name":
        return path, new in (None, "", old)
    return path, last == "id" and type(new) in (int, float) and new == old


def _is_number_text(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _mutate_csv(data, rows):
    """Replace one cell, add or drop a field, or drop a row of a landmark CSV.

    Returns what was mutated and whether the file may still be read:
    only a changed header, id or name cell can leave it well formed.  A
    replacement x, y or z that reads as a finite number is not drawn: it
    would move a landmark, not malform the file.
    """
    r = data.draw(st.integers(0, len(rows) - 1), label="row")
    op = data.draw(st.sampled_from(("cell", "extra-field", "drop-field", "drop-row")),
                   label="op")
    if op == "cell":
        c = data.draw(st.integers(0, len(rows[r]) - 1), label="column")
        text = st.text(max_size=8) | st.sampled_from(("", " 10", "10.0", "AC", "x", "name"))
        if r > 0 and c >= 2:
            text = text.filter(lambda t: not _is_number_text(t))
        rows[r][c] = data.draw(text, label="value")
        return (op, r, c), r == 0 or c < 2
    if op == "extra-field":
        rows[r].append(data.draw(st.text(max_size=8), label="value"))
    elif op == "drop-field":
        rows[r].pop()
    else:
        del rows[r]
    return (op, r), False


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), fmt=st.sampled_from(("json", "csv")))
def test_landmark_mutation_is_read_exactly_or_refused(refine_case, data, fmt):
    """One mutated key, cell, field or row of a landmark file: ``refine``
    either exits 0 with the bytes of the unmutated run, or exits 1 or 2
    with one stderr line.  A traceback fails, and so does reading a file
    that the mutation surely malformed."""
    src, lm_json, lm_csv, want = refine_case
    with tempfile.TemporaryDirectory() as tmp:
        lm, out = Path(tmp) / f"lm.{fmt}", Path(tmp) / "out.nii"
        if fmt == "json":
            doc = json.loads(lm_json.read_text())
            where, may_read = _mutate_json(data, doc)
            lm.write_text(json.dumps(doc), encoding="utf-8")
        else:
            rows = list(csv.reader(io.StringIO(lm_csv.read_text(), newline="")))
            where, may_read = _mutate_csv(data, rows)
            with open(lm, "w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows(rows)
        code, err = _run_cli(["refine", str(src), str(out), "--landmarks", str(lm)])
        if code == 0:
            assert may_read, where
            assert out.read_bytes() == want[False, False], where
        else:
            assert code in (1, 2), (where, code, err)
            assert len(err) == 1, (where, err)
