"""Inputs, per-subject operations and output checks of the three workloads.

``setup`` runs in the benchmark's parent process and writes every input
to a work directory.  ``load``, ``warm_up``, ``run_subject`` and
``check`` run in the worker process that holds the timed loop, so its
peak RSS excludes set-up.  hoarefine is called through its module
attributes (``nifti.read_volume``, not a bound import) so that the
tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from hoarefine import labels, metrics, nifti, phantom, refine

HERE = Path(__file__).resolve().parent

WORKLOADS = ("cli-96", "refine-260", "audit-260")
BIG = (260, 311, 260)  # criterion 11's resample of the 96^3 phantom
SMALL = (phantom.N,) * 3
NOISE_FRACTION = 0.05  # boundary-noise share of interface voxels, audit-260
MIN_AUDIT_DICE = 0.95
CLI_TIMEOUT_S = 120

# distinct inputs per run; the timed loop cycles through them
N_INPUTS = 2


class CheckFailed(Exception):
    """An output that does not satisfy the workload's check."""


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, n)]


def resample(vol, dims):
    """Nearest-neighbour resample of a 96^3 phantom onto ``dims``, same field of view."""
    sp = np.array([0.7 * phantom.N / d for d in dims])
    affine = np.diag([sp[0], sp[1], sp[2], 1.0])
    affine[:3, 3] = [-(d - 1) / 2.0 * s for d, s in zip(dims, sp)]
    src = []
    for ax, d in enumerate(dims):
        world = (np.arange(d) - (d - 1) / 2.0) * sp[ax]
        src.append(np.clip(np.rint(world / 0.7 + (phantom.N - 1) / 2.0)
                           .astype(np.int64), 0, phantom.N - 1))
    data = vol.data[np.ix_(src[0], src[1], src[2])]
    return nifti.Volume(np.ascontiguousarray(data), affine, taxonomy=vol.taxonomy)


def to_las(vol):
    """Store a RAS volume with its x axis reversed; world coordinates are unchanged."""
    affine = vol.affine.copy()
    affine[:3, 3] += affine[:3, 0] * (vol.dims[0] - 1)
    affine[:3, 0] = -affine[:3, 0]
    return nifti.Volume(vol.data[::-1], affine, taxonomy=vol.taxonomy)


# ---------------------------------------------------------------------------
# set-up (parent process)

def _write_warm(work: Path, seed: int) -> dict:
    vol, lms = phantom.generate_phantom(seed)
    deg, _ = phantom.degrade_phantom(vol, lms, "boundary-noise", NOISE_FRACTION, seed=seed)
    nifti.write_volume(vol, work / "warm.nii.gz")
    nifti.write_volume(deg, work / "warm-degraded.nii.gz")
    labels.write_landmarks(lms, work / "warm.json")
    return {"fine": str(work / "warm.nii.gz"), "degraded": str(work / "warm-degraded.nii.gz"),
            "landmarks": str(work / "warm.json")}


def setup(workload: str, seed: int, work: Path, smoke: bool) -> dict:
    """Generate, degrade, resample and write every input of one run."""
    dims = SMALL if smoke else BIG
    n = 1 if smoke else N_INPUTS
    seeds = _seeds(seed, n + 1)
    inputs = []
    for k, s in enumerate(seeds[1:]):
        vol, lms = phantom.generate_phantom(s)
        lm_path = work / f"sub-{k}.json"
        labels.write_landmarks(lms, lm_path)
        item = {"name": f"sub-{k}", "landmarks": str(lm_path)}
        if workload == "cli-96":
            item["fine"] = str(work / f"sub-{k}.nii.gz")
            nifti.write_volume(vol, item["fine"])
        elif workload == "refine-260":
            big = resample(vol, dims)
            item["las"] = k % 2 == 1
            item["fine"] = str(work / f"sub-{k}.nii.gz")
            nifti.write_volume(to_las(big) if item["las"] else big, item["fine"])
        else:
            deg, _ = phantom.degrade_phantom(vol, lms, "boundary-noise",
                                             NOISE_FRACTION, seed=s)
            fine, deg = resample(vol, dims), resample(deg, dims)
            item["affine"] = fine.affine.tolist()
            item["fine"] = str(work / f"sub-{k}-fine.npy")
            item["degraded"] = str(work / f"sub-{k}-degraded.npy")
            np.save(item["fine"], fine.data)
            np.save(item["degraded"], deg.data)
        inputs.append(item)
    return {"warm": _write_warm(work, seeds[0]), "inputs": inputs}


# ---------------------------------------------------------------------------
# timed operations (worker process)

def load(workload: str, item: dict) -> dict:
    """Bring an input into memory before timing: audit-260 does no file I/O."""
    if workload != "audit-260":
        return item
    affine = np.asarray(item["affine"])
    return dict(item,
                fine_vol=nifti.Volume(np.load(item["fine"]), affine, taxonomy="fine26"),
                degraded_vol=nifti.Volume(np.load(item["degraded"]), affine,
                                          taxonomy="fused12"),
                lms=labels.parse_landmarks(item["landmarks"]))


def run_cli(rec, env, work: Path, subcommand: str, args: list[str], traced: bool):
    """One ``hoarefine`` process; traced processes record spans of their own."""
    if traced:
        spans_path = work / f"spans-{subcommand}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
    else:
        argv = [sys.executable, "-m", "hoarefine.cli"]
    with rec.span("cli." + subcommand) as attrs:
        proc = subprocess.run(argv + [subcommand] + args, env=env, cwd=work,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CLI_TIMEOUT_S)
        if traced and proc.returncode == 0:
            with open(spans_path, encoding="utf-8") as f:
                rec.adopt(json.load(f), rec.current())
        attrs["exit"] = proc.returncode
    if proc.returncode != 0:
        err = proc.stderr.strip().splitlines()
        raise CheckFailed(f"{subcommand} exited {proc.returncode}: "
                          f"{err[-1] if err else ''}")


def cli_subject(rec, env, work: Path, item: dict, traced: bool) -> Path:
    """The README quick-start loop: fuse, refine, evaluate, one process each."""
    name = item["name"]
    fused, refined, report = (f"{name}-fused.nii.gz", f"{name}-refined.nii.gz",
                              f"{name}-report.csv")
    run_cli(rec, env, work, "fuse", [item["fine"], fused], traced)
    run_cli(rec, env, work, "refine", [fused, refined, "--landmarks", item["landmarks"]],
            traced)
    run_cli(rec, env, work, "evaluate", [refined, item["fine"], "--landmarks",
                                         item["landmarks"], "--format", "csv",
                                         "--out", report], traced)
    return work / report


def refine_subject(work: Path, item: dict):
    fine = nifti.read_volume(item["fine"])
    fused = labels.fuse_labels(fine)
    fused_path = work / f"{item['name']}-fused.nii.gz"
    nifti.write_volume(fused, fused_path)
    fused = nifti.read_volume(fused_path)
    lms = labels.parse_landmarks(item["landmarks"])
    refined = refine.refine_full(fused, lms, refine.RefinementConfig())
    nifti.write_volume(refined, work / f"{item['name']}-refined.nii.gz")
    return fine, fused, refined


def audit_subject(item: dict):
    refined = refine.refine_full(item["degraded_vol"], item["lms"],
                                 refine.RefinementConfig(slice_adjust=True))
    report = metrics.evaluate_pair(refined, item["fine_vol"], item["lms"],
                                   subject=item["name"])
    return refined, report


def run_subject(workload, rec, env, work, item, traced):
    if workload == "cli-96":
        return cli_subject(rec, env, work, item, traced)
    if workload == "refine-260":
        return refine_subject(work, item)
    return audit_subject(item)


# ---------------------------------------------------------------------------
# output checks (untimed)

def check(workload: str, item: dict, out) -> None:
    """Raise CheckFailed unless the subject's outputs are right."""
    if workload == "cli-96":
        _check_cli_report(out)
    elif workload == "refine-260":
        _check_refined(*out)
    else:
        _check_audit(item, *out)


def _check_cli_report(path: Path) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    want = {"dice": 1.0, "pasd": 0.0}
    seen = {m: 0 for m in want}
    for r in rows:
        if r["metric"] in want:
            seen[r["metric"]] += 1
            if float(r["value"]) != want[r["metric"]]:
                raise CheckFailed(f"{r['metric']} {r['region']} {r['surface']} "
                                  f"{r['side']} = {r['value']}, "
                                  f"want {want[r['metric']]}")
    if not all(seen.values()):
        raise CheckFailed(f"report lacks rows: {seen}")


def _check_refined(fine, fused, refined) -> None:
    if not np.array_equal(fused.data, labels.FUSE_LUT[fine.data]):
        raise CheckFailed("fused volume differs from FUSE_LUT[fine]")
    if not np.array_equal(refined.data != 0, fused.data != 0):
        raise CheckFailed("refinement changed the foreground mask")
    refused = labels.FUSE_LUT[refined.data]
    moved = refused != fused.data
    # rule (iii) is the only cross-group move: third ventricle (3) to CSF (2)
    if not (np.all(fused.data[moved] == 3) and np.all(refused[moved] == 2)):
        raise CheckFailed("re-fusing the refined volume changes voxels "
                          "other than 3V -> CSF")


def _check_audit(item, refined, report) -> None:
    if not np.array_equal(refined.data != 0, item["degraded_vol"].data != 0):
        raise CheckFailed("refinement changed the foreground mask")
    pasd = [r.value for r in report.rows if r.metric == "pasd"]
    if not pasd or not all(math.isfinite(v) for v in pasd):
        raise CheckFailed(f"PASD values missing or not finite: {pasd}")
    dice = report.mean("dice")
    if not dice >= MIN_AUDIT_DICE:
        raise CheckFailed(f"mean Dice {dice:.4f} < {MIN_AUDIT_DICE}")


# ---------------------------------------------------------------------------
# warm-up and count pass (untimed)

def warm_up(workload, rec, env, work: Path, warm: dict, traced: bool) -> None:
    """One untimed 96^3 subject: writes .pyc files, fills the page cache and
    finishes lazy set-up (scipy.spatial) before timing.

    A traced run sends it through every traced function, CLI processes
    included, so its spans stand in for layers the workload's own
    subjects never call.  Otherwise it runs only the part the workload's
    processes share: the CLI for cli-96, the in-process calls for the rest.
    """
    item = {"name": "warm", "fine": warm["fine"], "landmarks": warm["landmarks"]}
    if traced or workload == "cli-96":
        check("cli-96", item, cli_subject(rec, env, work, item, traced))
    if not traced and workload == "cli-96":
        return
    fine, fused, refined = refine_subject(work, item)
    _check_refined(fine, fused, refined)
    deg = nifti.read_volume(warm["degraded"])
    lms = labels.parse_landmarks(warm["landmarks"])
    audit = dict(item, degraded_vol=deg, fine_vol=fine, lms=lms)
    _check_audit(audit, *audit_subject(audit))


def count_pass(workload: str, item: dict) -> None:
    """The workload's refine (and evaluate, where it scores) of one input, untimed.

    Run with pass counts and peak memory recording on, which would
    distort the timed subjects.
    """
    if workload == "audit-260":
        audit_subject(item)
        return
    fine = nifti.read_volume(item["fine"])
    lms = labels.parse_landmarks(item["landmarks"])
    refined = refine.refine_full(labels.fuse_labels(fine), lms, refine.RefinementConfig())
    if workload == "cli-96":
        metrics.evaluate_pair(refined, fine, lms)
