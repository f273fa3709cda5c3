"""Command line interface.

Exit codes: 0 success, 1 I/O failure, 2 invalid inputs or failed
validation, 3 landmark geometry that leaves a rule undefined.

Refinement settings resolve in fixed precedence: built-in defaults,
then the JSON file named by HOA_REFINE_CONFIG, then --config, then
explicit flags.  Every written output gets a sidecar
``<output>.manifest.json`` recording the command, inputs, resolved
configuration, package version, seed and wall time.

``fuse`` and ``refine`` accept either a single volume or a directory of
volumes; with a directory, --landmarks may be a directory holding one
landmark file per volume stem.  --jobs parallelizes across subjects
only, and outputs are byte-identical at any job count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .labels import (
    LabelError,
    LandmarkSet,
    _landmark_suffix,
    fuse_labels,
    parse_landmarks,
    validate_landmarks,
    write_landmarks,
)
from .metrics import (
    MetricError,
    MetricUndefinedError,
    PairedSampleTable,
    evaluate_pair,
    wilcoxon_fdr,
)
from .nifti import NiftiError, Volume, open_atomic, read_volume, write_volume
from .phantom import (
    DEGRADE_MODES,
    PhantomError,
    PhantomSpec,
    degrade_phantom,
    generate_phantom,
)
from .refine import RefinementConfig, RuleGeometryError, refine_full
from .shape import (
    OraclePredictor,
    ShapeModelError,
    config_from_landmarks,
    fit_shape_model,
    iterate_fit,
    landmark_error,
    landmarks_from_config,
    load_model,
    reconstruct,
    sample_patch_centers,
    save_model,
)

CONFIG_ENV = "HOA_REFINE_CONFIG"

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_GEOMETRY = 3


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise NiftiError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return doc


def resolve_config(args) -> RefinementConfig:
    """defaults < $HOA_REFINE_CONFIG < --config < explicit flags."""
    mapping: dict = {}
    env_path = os.environ.get(CONFIG_ENV)
    if env_path:
        mapping.update(_load_config_file(env_path))
    if getattr(args, "config", None):
        mapping.update(_load_config_file(args.config))
    if getattr(args, "slice_adjust", False):
        mapping["slice_adjust"] = True
    if getattr(args, "partial_rules", False):
        mapping["partial_rules"] = True
    return RefinementConfig.from_mapping(mapping)


def _write_manifest(output: Path, command: str, inputs, *, config=None,
                    seed=None, elapsed=None) -> None:
    doc = {
        "command": command,
        "inputs": [str(Path(p).resolve()) for p in inputs],
        "output": str(Path(output).resolve()),
        "version": __version__,
    }
    if config is not None:
        doc["config"] = dataclasses.asdict(config)
    if seed is not None:
        doc["seed"] = seed
    if elapsed is not None:
        doc["elapsed_s"] = round(elapsed, 3)
    with open_atomic(Path(str(output) + ".manifest.json")) as f:
        f.write((json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def _write_report(out: str | None, text: str, command: str, inputs, t0: float,
                  **manifest) -> None:
    """Write a report to ``out`` atomically, then its manifest; to stdout if no ``out``."""
    if not out:
        sys.stdout.write(text)
        return
    with open_atomic(Path(out)) as f:
        f.write(text.encode("utf-8"))
    _write_manifest(Path(out), command, inputs,
                    elapsed=time.perf_counter() - t0, **manifest)


def _volume_stem(path: Path) -> str:
    name = path.name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return path.stem


def _collect_inputs(input_arg: str) -> list[Path]:
    p = Path(input_arg)
    if p.is_dir():
        vols = sorted(q for q in p.iterdir()
                      if q.name.endswith((".nii", ".nii.gz")))
        if not vols:
            raise NiftiError(f"no .nii/.nii.gz volumes in {p}")
        return vols
    if not p.exists():
        raise NiftiError(f"input {p} does not exist")
    return [p]


def _landmarks_path_for(vol_path: Path, lm_arg: str) -> Path:
    p = Path(lm_arg)
    if p.is_dir():
        stem = _volume_stem(vol_path)
        for ext in (".json", ".csv"):
            cand = p / (stem + ext)
            if cand.exists():
                return cand
        raise NiftiError(f"no landmark file for {vol_path.name} in {p}")
    if not p.exists():
        raise NiftiError(f"landmark file {p} does not exist")
    return p


def _out_path_for(vol_path: Path, out_arg: str, batch: bool) -> Path:
    out = Path(out_arg)
    if batch or out.is_dir():
        out.mkdir(parents=True, exist_ok=True)
        return out / vol_path.name
    return out


def _landmarks_checked(path: Path, vol: Volume | None) -> LandmarkSet:
    lms = parse_landmarks(path)
    issues = validate_landmarks(lms, vol)
    if issues:
        raise LabelError(f"{path}: " + "; ".join(issues))
    return lms


# exception type -> exit code, first match wins; any other exception is
# a bug and keeps its traceback
_EXIT_CODES = {
    RuleGeometryError: EXIT_GEOMETRY,
    NiftiError: EXIT_IO,
    OSError: EXIT_IO,
    LabelError: EXIT_INVALID,
    MetricError: EXIT_INVALID,
    PhantomError: EXIT_INVALID,
    ShapeModelError: EXIT_INVALID,
    ValueError: EXIT_INVALID,
}
_EXPECTED = tuple(_EXIT_CODES)


def _exit_code(exc: Exception) -> int:
    return next(code for t, code in _EXIT_CODES.items() if isinstance(exc, t))


# ---------------------------------------------------------------------------
# batch workers (module level so multiprocessing can pickle them)

def _fuse_one(in_path, out_path) -> None:
    write_volume(fuse_labels(read_volume(in_path)), out_path)


def _refine_one(in_path, lm_path, out_path, cfg_kwargs) -> None:
    vol = read_volume(in_path)
    lms = _landmarks_checked(Path(lm_path), vol)
    write_volume(refine_full(vol, lms, RefinementConfig(**cfg_kwargs)), out_path)


def _run_task(task) -> tuple[int, str, float]:
    """Run one subject: (exit code, error message, own seconds)."""
    fn, *args = task
    t0 = time.perf_counter()
    try:
        fn(*args)
    except _EXPECTED as exc:  # reported by the parent
        return _exit_code(exc), str(exc), time.perf_counter() - t0
    return EXIT_OK, "", time.perf_counter() - t0


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")


def _run_batch(tasks, jobs: int):
    if jobs == 1 or len(tasks) == 1:
        return [_run_task(t) for t in tasks]
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(_run_task, tasks)


def _batch_exit(outputs, results, command: str) -> int:
    code = EXIT_OK
    for out, (task_code, err, _) in zip(outputs, results):
        if task_code == EXIT_OK:
            continue
        _fail(f"{command} {out}: {err}")
        if code == EXIT_OK:  # first failure decides the exit code
            code = task_code
    return code


# ---------------------------------------------------------------------------
# subcommands

def cmd_fuse(args) -> int:
    _check_jobs(args.jobs)
    inputs = _collect_inputs(args.input)
    batch = len(inputs) > 1
    outputs = [_out_path_for(p, args.output, batch) for p in inputs]
    results = _run_batch([(_fuse_one, str(p), str(out))
                          for p, out in zip(inputs, outputs)], args.jobs)
    for p, out, (code, _, elapsed) in zip(inputs, outputs, results):
        if code == EXIT_OK:
            _write_manifest(out, "fuse", [p], elapsed=elapsed)
    return _batch_exit(outputs, results, "fuse")


def cmd_refine(args) -> int:
    _check_jobs(args.jobs)
    cfg = resolve_config(args)
    inputs = _collect_inputs(args.input)
    batch = len(inputs) > 1
    lm_paths = [_landmarks_path_for(p, args.landmarks) for p in inputs]
    outputs = [_out_path_for(p, args.output, batch) for p in inputs]
    results = _run_batch([(_refine_one, str(p), str(lm), str(out), dataclasses.asdict(cfg))
                          for p, lm, out in zip(inputs, lm_paths, outputs)], args.jobs)
    for p, lm, out, (code, _, elapsed) in zip(inputs, lm_paths, outputs, results):
        if code == EXIT_OK:
            _write_manifest(out, "refine", [p, lm], config=cfg, elapsed=elapsed)
    return _batch_exit(outputs, results, "refine")


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    pred = read_volume(args.pred)
    gt = read_volume(args.gt)
    lms = _landmarks_checked(Path(args.landmarks), gt)
    subject = args.subject or _volume_stem(Path(args.pred))
    report = evaluate_pair(pred, gt, lms, subject=subject)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _write_report(args.out, text, "evaluate", [args.pred, args.gt, args.landmarks], t0)
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    t0 = time.perf_counter()
    vol = read_volume(args.input)
    lms = _landmarks_checked(Path(args.landmarks), vol)
    cfg = resolve_config(args)
    refined = refine_full(fuse_labels(vol), lms, cfg)
    report = evaluate_pair(refined, vol, lms,
                           subject=_volume_stem(Path(args.input)))
    mean_dice = report.mean("dice")
    try:
        mean_pasd = report.mean("pasd")
        pasd_text = f"{mean_pasd:.6f} mm"
    except MetricUndefinedError:
        pasd_text = "undefined"
    print(f"mean dice: {mean_dice:.6f}")
    print(f"mean pasd: {pasd_text}")
    if args.out:
        text = report.to_csv() if args.format == "csv" else report.to_json()
        _write_report(args.out, text, "roundtrip", [args.input, args.landmarks], t0, config=cfg)
    if mean_dice >= args.threshold:
        return EXIT_OK
    _fail(f"mean dice {mean_dice:.6f} below threshold {args.threshold}")
    return EXIT_INVALID


def _json_num(v: float):
    # undefined test results serialize as null, not bare NaN
    return None if isinstance(v, float) and np.isnan(v) else v


def _read_stats_table(path: str) -> tuple[list[str], list[str], np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r]  # blank lines, as csv.DictReader
    except OSError as exc:
        raise NiftiError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MetricError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows or rows[0][:1] != ["subject"]:
        raise MetricError(f"{path}: expected a header starting with 'subject'")
    columns = rows[0][1:]
    if not columns:
        raise MetricError(f"{path}: no metric columns")
    if len(rows) == 1:
        raise MetricError(f"{path}: no subject rows")
    subjects = [r[0] for r in rows[1:]]
    counts = Counter(subjects)
    repeated = next((s for s in subjects if counts[s] > 1), None)
    if repeated is not None:  # pairing by row would pair one subject twice
        raise MetricError(f"{path}: subject {repeated!r} appears twice")
    try:
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]],
                          dtype=np.float64)
    except ValueError as exc:
        raise MetricError(f"{path}: non-numeric cell: {exc}") from exc
    if values.ndim != 2 or values.shape[1] != len(columns):
        raise MetricError(f"{path}: ragged rows")
    return subjects, columns, values


def cmd_stats(args) -> int:
    t0 = time.perf_counter()
    subj_a, cols_a, a = _read_stats_table(args.table_a)
    subj_b, cols_b, b = _read_stats_table(args.table_b)
    if cols_a != cols_b:
        raise MetricError(
            f"column mismatch: {cols_a} vs {cols_b}")
    if subj_a != subj_b:  # rows pair by position: name the first that differs
        i, names = next((i, pair) for i, pair in enumerate(zip_longest(subj_a, subj_b))
                        if pair[0] != pair[1])
        a_name, b_name = ("no row" if n is None else repr(n) for n in names)
        raise MetricError(f"subject mismatch between tables: subject row {i + 1} is "
                          f"{a_name} in {args.table_a} and {b_name} in {args.table_b}")
    table = PairedSampleTable(tuple(subj_a), tuple(cols_a), a, b)
    results = wilcoxon_fdr(table, q=args.q)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["column", "statistic", "p_value", "significant"])
        for r in results:
            w.writerow([r["column"], r["statistic"], r["p_value"],
                        str(r["significant"]).lower()])
        text = buf.getvalue()
    else:
        clean = [dict(r, statistic=_json_num(r["statistic"]),
                      p_value=_json_num(r["p_value"])) for r in results]
        text = json.dumps({"q": args.q, "results": clean}, indent=2) + "\n"
    _write_report(args.out, text, "stats", [args.table_a, args.table_b], t0)
    return EXIT_OK


def cmd_phantom(args) -> int:
    t0 = time.perf_counter()
    vol, lms = generate_phantom(PhantomSpec(seed=args.seed, spacing=args.spacing))
    if args.degrade:
        vol, lms = degrade_phantom(vol, lms, args.degrade, args.amount,
                                   seed=args.seed)
    lm_out = args.landmarks_out or str(
        Path(args.output).with_name(_volume_stem(Path(args.output))
                                    + ".landmarks.json"))
    _landmark_suffix(Path(lm_out))  # refused before anything is written
    write_volume(vol, args.output)
    write_landmarks(lms, lm_out)
    _write_manifest(Path(args.output), "phantom", [], seed=args.seed,
                    elapsed=time.perf_counter() - t0)
    return EXIT_OK


def cmd_shape_fit(args) -> int:
    t0 = time.perf_counter()
    configs = []
    for path in args.landmarks:
        lms = parse_landmarks(path)
        configs.append(config_from_landmarks(lms))
    selector: int | float
    raw = args.selector
    selector = float(raw) if "." in raw or "e" in raw.lower() else int(raw)
    model = fit_shape_model(np.stack(configs), selector=selector)
    save_model(model, args.out)
    _write_manifest(Path(args.out), "shape fit", args.landmarks,
                    elapsed=time.perf_counter() - t0)
    return EXIT_OK


def cmd_shape_apply(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    b = np.zeros(model.n_components, dtype=np.float64)
    if args.coeffs:
        fields = args.coeffs.split(",")
        if not all(v.strip() for v in fields):  # would shift later values a mode down
            raise ShapeModelError(f"--coeffs {args.coeffs!r} has an empty field")
        vals = [float(v) for v in fields]
        if len(vals) > model.n_components:
            raise ShapeModelError(
                f"{len(vals)} coefficients for {model.n_components} modes")
        b[:len(vals)] = vals
    lms = landmarks_from_config(reconstruct(model, b))
    write_landmarks(lms, args.out)
    _write_manifest(Path(args.out), "shape apply", [args.model],
                    elapsed=time.perf_counter() - t0)
    return EXIT_OK


def cmd_shape_iterate(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    target = config_from_landmarks(parse_landmarks(args.target))
    predictor = OraclePredictor(model, target, confidence=args.confidence)
    trace = iterate_fit(model, predictor, steps=args.steps)
    steps_doc = []
    for t, (b, x) in enumerate(trace):
        _, mean_err = landmark_error(x, target)
        steps_doc.append({"step": t, "mean_error_mm": mean_err,
                          "b": np.asarray(b).tolist()})
    final_lms = landmarks_from_config(trace[-1][1])
    doc = {"steps": steps_doc,
           "final_landmarks": {str(i): final_lms[i].tolist()
                               for i in final_lms.ids}}
    _write_report(args.out, json.dumps(doc, indent=2) + "\n", "shape iterate",
                  [args.model, args.target], t0)
    return EXIT_OK


def cmd_shape_sample(args) -> int:
    t0 = time.perf_counter()
    center = np.array([float(v) for v in args.center.split(",")])
    if center.shape != (3,):
        raise ShapeModelError("--center needs exactly three comma-separated values")
    patches = sample_patch_centers(center, args.radius, args.count, args.seed)
    doc = {"center": center.tolist(), "radius_mm": args.radius,
           "seed": args.seed, "side": patches[0].side,
           "points": [list(p.center) for p in patches]}
    _write_report(args.out, json.dumps(doc, indent=2) + "\n", "shape sample",
                  [], t0, seed=args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hoarefine",
        description="Deterministic subcortical label fusion and refinement.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON file of refinement settings")
        p.add_argument("--slice-adjust", action="store_true",
                       help="let the hemisphere split shift per slice")
        p.add_argument("--partial-rules", action="store_true",
                       help="tolerate missing landmarks with fallbacks")

    p = sub.add_parser("fuse", help="fine 26 labels -> fused 12 labels")
    p.add_argument("input", help="volume or directory of volumes")
    p.add_argument("output", help="output volume or directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("refine", help="fused 12 labels -> fine 26 labels")
    p.add_argument("input", help="volume or directory of volumes")
    p.add_argument("output", help="output volume or directory")
    p.add_argument("--landmarks", required=True,
                   help="landmark file, or directory matched by volume stem")
    p.add_argument("--jobs", type=int, default=1)
    add_config_flags(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("evaluate", help="score a prediction against a reference")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--subject", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roundtrip",
                       help="fuse then refine a fine volume; compare to itself")
    p.add_argument("input")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--threshold", type=float, default=0.999,
                   help="minimum mean dice for success")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    add_config_flags(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("stats",
                       help="paired Wilcoxon with FDR control over two tables")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.add_argument("--q", type=float, default=0.05)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("phantom", help="generate a rule-consistent test volume")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spacing", type=float, default=0.7)
    p.add_argument("--landmarks-out", default=None)
    p.add_argument("--degrade", choices=DEGRADE_MODES, default=None)
    p.add_argument("--amount", type=float, default=0.0,
                   help="degradation strength (mm, fraction, or steps)")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("shape", help="landmark shape model operations")
    shape_sub = p.add_subparsers(dest="shape_command", required=True)

    q = shape_sub.add_parser("fit", help="fit a PCA model to landmark sets")
    q.add_argument("landmarks", nargs="+")
    q.add_argument("--selector", default="0.995",
                   help="mode count (int) or variance fraction (float)")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_shape_fit)

    q = shape_sub.add_parser("apply", help="reconstruct landmarks from coefficients")
    q.add_argument("model")
    q.add_argument("--coeffs", default="",
                   help="comma-separated mode coefficients")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_shape_apply)

    q = shape_sub.add_parser("iterate",
                             help="iteratively fit the model toward a target")
    q.add_argument("model")
    q.add_argument("--target", required=True)
    q.add_argument("--steps", type=int, default=10)
    q.add_argument("--confidence", type=float, default=1.0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_shape_iterate)

    q = shape_sub.add_parser("sample",
                             help="draw patch centers around a landmark")
    q.add_argument("--center", required=True, help="x,y,z in mm")
    q.add_argument("--radius", type=float, required=True)
    q.add_argument("--count", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_shape_sample)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED as exc:
        _fail(str(exc))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
