"""hoarefine benchmark: three closed-loop workloads, one client each.

    python3 benchmarks/run.py --workload {cli-96,refine-260,audit-260,all}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root; hoarefine is imported from ``src``.  The
parent process builds the seeded inputs (``setup_s`` is the median of
five identical set-ups), then starts one worker process that loads
them, runs one untimed warm-up subject and the timed loop, and checks
every output.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the traced pass and prints the per-layer metrics.  The last line of
standard output is one JSON object.  ``--smoke`` runs one 96^3 subject
per workload.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import tracing  # noqa: E402  (loads numpy)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
OUT = HERE / "out"  # work directories and span dumps; ignored by git
SETUP_REPS = 5
PROBE_REPS = 3
RUN_LIMIT_S = 170  # the whole run, set-up and worker included

WORKLOADS = ("cli-96", "refine-260", "audit-260")

END_TO_END = (("setup_s", "s"), ("subjects_per_s", "1/s"),
              ("subject_s_p50", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics of the traced run, with units
PER_LAYER = (
    ("cli.python_s", "s"), ("cli.import_s", "s"), ("cli.fuse_s", "s"),
    ("cli.refine_s", "s"), ("cli.evaluate_s", "s"), ("cli.self_s", "s"),
    ("nifti.read_s", "s"), ("nifti.write_s", "s"), ("nifti.reorient_s", "s"),
    ("nifti.bytes_written", "count"), ("nifti.self_s", "s"),
    ("labels.fuse_s", "s"), ("labels.validate_s", "s"), ("labels.self_s", "s"),
    ("refine.refine_full_s", "s"), ("refine.split_hemispheres_s", "s"),
    ("refine.split_hemispheres_adjust_s", "s"),
    ("refine.separate_nacc_putamen_s", "s"), ("refine.apply_coronal_extents_s", "s"),
    ("refine.split_vdc_s", "s"), ("refine.split_lv_ih_s", "s"),
    ("refine.peak_alloc_mb", "MB"), ("refine.nacc_voxels", "count"),
    ("refine.extent_moved_voxels", "count"), ("refine.vdc_anterior_voxels", "count"),
    ("refine.ih_voxels", "count"), ("refine.ih_chain_slices", "count"),
    ("refine.self_s", "s"),
    ("metrics.evaluate_pair_s", "s"), ("metrics.dice_s", "s"), ("metrics.pasd_s", "s"),
    ("metrics.lines_s", "s"), ("metrics.peak_alloc_mb", "MB"),
    ("metrics.rows", "count"), ("metrics.skipped_sides", "count"),
    ("metrics.self_s", "s"),
    ("phantom.generate_s", "s"), ("phantom.degrade_s", "s"),
    ("trace.subject_s_p50", "s"), ("trace.overhead_s", "s"),
    ("trace.uncovered_share", "fraction"),
)
# counts come from one subject, so they repeat exactly for a given seed
_FIRST_SUBJECT = ("nifti.bytes_written", "metrics.rows", "metrics.skipped_sides")
# recorded only in the untimed count pass (or warm-up), never on timed subjects
_COUNT_PASS = ("refine.nacc_voxels", "refine.extent_moved_voxels",
               "refine.vdc_anterior_voxels", "refine.ih_voxels", "refine.ih_chain_slices",
               "refine.peak_alloc_mb", "metrics.peak_alloc_mb")

# ROADMAP's 260x311x260 stage timings on a 2-core VM, seconds per
# call: (label, span name, slice_adjust refines only, baseline)
ROADMAP_BASELINE = (
    ("fuse", "labels.fuse", False, 0.46),
    ("refine_full", "refine.refine_full", False, 1.51),
    ("evaluate_pair", "metrics.evaluate_pair", False, 4.44),
    ("refine with slice_adjust", "refine.refine_full", True, 6.4),
    (".nii.gz write", "nifti.write", False, 0.31),
)


# ---------------------------------------------------------------------------
# worker process: warm-up, timed loop, checks

def _probe(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def worker(work: Path) -> None:
    job = json.loads((work / "job.json").read_text())
    name, trace, smoke = job["workload"], job["trace"], job["smoke"]
    rec = tracing.Recorder(enabled=False)
    if trace:
        tracing.install(rec)
    env = dict(os.environ)
    items = [workloads.load(name, item) for item in job["inputs"]]

    rec.enabled, rec.memory, rec.subject = trace, True, "warmup"
    workloads.warm_up(name, rec, env, work, job["warm"], trace)
    rec.enabled = rec.memory = False

    probes = {}
    if trace:
        for key, code in (("cli.python_s", "pass"), ("cli.import_s", "import hoarefine.cli")):
            probes[key] = [_probe([sys.executable, "-c", code], env)
                           for _ in range(PROBE_REPS)]

    # In a traced run each input runs untraced, then traced, so the
    # difference of the two medians is the tracing overhead.  The loop
    # stops only after whole cycles over the inputs, so every run holds
    # each input (RAS and LAS alike) equally often.
    per_input = 2 if trace else 1
    cycle = per_input * len(items)
    subjects, check_s = [], 0.0
    loop_t0 = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        item = items[(k // per_input) % len(items)]
        rec.enabled, rec.subject = traced, f"s{k}"
        err = None
        t0 = time.perf_counter()
        try:
            with rec.span("bench.subject"):
                out = workloads.run_subject(name, rec, env, work, item, traced)
        except Exception as exc:  # a failed subject is counted, not fatal
            traceback.print_exc()
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        rec.enabled = False
        t1 = time.perf_counter()
        if err is None:
            try:
                workloads.check(name, item, out)
            except workloads.CheckFailed as exc:
                err = str(exc)
        out = None
        check_s += time.perf_counter() - t1
        subjects.append({"id": f"s{k}", "input": item["name"], "traced": traced,
                         "seconds": dt, "error": err})
        if err:
            print(f"subject s{k} ({item['name']}) failed: {err}", file=sys.stderr)
        k += 1
        if k % cycle == 0 and (
                smoke or time.perf_counter() - loop_t0 - check_s >= job["seconds"]):
            break
    loop_s = time.perf_counter() - loop_t0 - check_s

    if trace:
        rec.enabled = rec.counting = rec.memory = True
        rec.subject = "count"
        workloads.count_pass(name, items[0])
        rec.enabled = rec.counting = rec.memory = False

    who = resource.RUSAGE_CHILDREN if name == "cli-96" else resource.RUSAGE_SELF
    result = {"subjects": subjects, "loop_s": loop_s, "probes": probes,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
              "spans": rec.spans}
    (work / "result.json").write_text(json.dumps(result))


# ---------------------------------------------------------------------------
# parent process: set-up, worker, metrics

def _run_worker(work: Path, deadline: float) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--worker", str(work)],
                            env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop its whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited {code}")


def _median(values):
    return statistics.median(values) if values else None


def _subject_rows(spans, subject_ids) -> dict[str, dict]:
    """Per subject: inclusive time per stage, self time per layer, counts."""
    own = tracing.self_times(spans)
    rows = {sid: defaultdict(float) for sid in subject_ids}
    for s in spans:
        row = rows.get(s["subject"])
        if row is None:
            continue
        name, attrs, dur = s["name"], s["attrs"], s["end"] - s["start"]
        if name == "bench.subject":
            row["subject_s"] = dur
            row["uncovered_s"] = own[s["id"]]
            continue
        row[name + "_s"] += dur
        row[tracing.layer(name) + ".self_s"] += own[s["id"]]
        if "peak_alloc_mb" in attrs:
            key = tracing.layer(name) + ".peak_alloc_mb"
            row[key] = max(row[key], attrs["peak_alloc_mb"])
        if name == "nifti.write":
            row["nifti.bytes_written"] += attrs["bytes"]
        elif name == "metrics.evaluate_pair":
            row["metrics.rows"] += attrs["rows"]
        elif name == "metrics.pasd":
            row["metrics.skipped_sides"] += attrs.get("error") == "MetricUndefinedError"
        for key in ("nacc_voxels", "extent_moved_voxels", "vdc_anterior_voxels",
                    "ih_voxels", "ih_chain_slices"):
            if key in attrs:
                row["refine." + key] += attrs[key]
    for row in rows.values():
        if "metrics.evaluate_pair_s" in row:
            row["metrics.lines_s"] = (row["metrics.evaluate_pair_s"]
                                      - row["metrics.dice_s"] - row["metrics.pasd_s"])
    return rows


def _per_call(spans, subject_ids, name, slice_adjust) -> float | None:
    """Median seconds of one call; refines are split by their slice_adjust setting."""
    adjusted = {s["parent"] for s in spans
                if s["name"] == "refine.split_hemispheres_adjust"}
    times = [s["end"] - s["start"] for s in spans
             if s["subject"] in subject_ids and s["name"] == name
             and (s["id"] in adjusted) == slice_adjust]
    return _median(times)


def layer_metrics(spans, subjects, probes) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and where each value came from."""
    traced = [s["id"] for s in subjects if s["traced"] and not s["error"]]
    rows = _subject_rows(spans, traced + ["warmup", "count"])
    values, source = {}, {}
    for key, _ in PER_LAYER:
        measured = [rows[sid][key] for sid in traced if key in rows[sid]]
        if key in _COUNT_PASS and key in rows["count"]:
            values[key], source[key] = rows["count"][key], "count pass"
        elif measured and key not in _COUNT_PASS:
            pick = measured[0] if key in _FIRST_SUBJECT else _median(measured)
            values[key], source[key] = pick, "timed"
        elif key in rows["warmup"]:
            values[key], source[key] = rows["warmup"][key], "warm-up"
    for key in ("cli.python_s", "cli.import_s"):
        values[key], source[key] = _median(probes[key]), "probe"
    for key, stage in (("phantom.generate_s", "phantom.generate"),
                       ("phantom.degrade_s", "phantom.degrade")):
        times = [s["end"] - s["start"] for s in spans if s["name"] == stage]
        values[key], source[key] = _median(times), "set-up"
    t_p50 = _median([rows[sid]["subject_s"] for sid in traced])
    u_p50 = _median([s["seconds"] for s in subjects if not s["traced"] and not s["error"]])
    values["trace.subject_s_p50"] = t_p50
    values["trace.overhead_s"] = t_p50 - u_p50
    values["trace.uncovered_share"] = _median(
        [rows[sid]["uncovered_s"] for sid in traced]) / t_p50
    for key in ("trace.subject_s_p50", "trace.overhead_s", "trace.uncovered_share"):
        source[key] = "timed"
    for key, unit in PER_LAYER:
        if unit == "count":
            values[key] = int(values[key])
    return values, source


def environment(args, n_inputs, subjects, p50_samples) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": n_inputs,
        "subjects": len(subjects),
        "subject_s_p50_samples": p50_samples,
        "traced_subjects": sum(s["traced"] for s in subjects),
        "setup_reps": 1 if args.smoke else SETUP_REPS,
    }


def run_workload(name: str, args, rec) -> tuple[dict, dict, int, int]:
    """One workload: returns (metrics, units, attempted, failed)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    rec.spans, rec.enabled = [], bool(args.trace)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        work = Path(tmp)
        setup_times = []
        for rep in range(1 if args.smoke else SETUP_REPS):
            rec.subject = f"setup-{rep}"
            t0 = time.perf_counter()
            inputs = workloads.setup(name, args.seed, work, args.smoke)
            setup_times.append(time.perf_counter() - t0)
        rec.enabled = False
        (work / "job.json").write_text(json.dumps(dict(
            inputs, workload=name, trace=bool(args.trace), smoke=args.smoke,
            seconds=args.seconds)))
        _run_worker(work, deadline)
        result = json.loads((work / "result.json").read_text())

    subjects = result["subjects"]
    failed = sum(bool(s["error"]) for s in subjects)
    times = [s["seconds"] for s in subjects if not s["traced"] and not s["error"]]
    env = environment(args, len(inputs["inputs"]), subjects, len(times))
    e2e = {
        "setup_s": _median(setup_times),
        "subjects_per_s": (len(subjects) - failed) / result["loop_s"],
        "subject_s_p50": _median(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print("environment: " + json.dumps(env))
    notes = {"setup_s": f"median of {env['setup_reps']} set-ups",
             "subject_s_p50": f"n={len(times)}"}
    for key, unit in END_TO_END:
        print(f"{key} = {e2e[key]:.6g} {unit}  {notes.get(key, '')}".rstrip())
    print(f"failed_fraction = {failed / len(subjects):.6g} fraction  "
          f"({failed} of {len(subjects)} subjects)")

    dump = {"environment": env, "end_to_end": e2e, "setup_times": setup_times,
            "subjects": subjects}
    if args.trace:
        spans = rec.spans + [dict(s, id=s["id"] + len(rec.spans),
                                  parent=None if s["parent"] is None
                                  else s["parent"] + len(rec.spans))
                             for s in result["spans"]]
        values, source = layer_metrics(spans, subjects, result["probes"])
        _print_layers(values, source, spans, subjects)
        dump.update(per_layer=values, spans=spans)
        metrics, units = values, dict(PER_LAYER)
    else:
        metrics, units = e2e, dict(END_TO_END)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(dump))
    return metrics, units, len(subjects), failed


def _print_layers(values, source, spans, subjects) -> None:
    print(f"{'per-layer metric':36s} {'value':>12s}  unit      source")
    for key, unit in PER_LAYER:
        print(f"{key:36s} {values[key]:12.6g}  {unit:9s} {source[key]}")
    traced = {s["id"] for s in subjects if s["traced"] and not s["error"]}
    print("stage (one call)             this run     ROADMAP 260x311x260 baseline")
    for label, name, slice_adjust, base in ROADMAP_BASELINE:
        here = _per_call(spans, traced, name, slice_adjust)
        shown = f"{here:8.3f} s" if here is not None else "  not run "
        print(f"{label:28s} {shown}   {base:.2f} s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one 96^3 subject and one set-up per workload")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hoarefine" / "__init__.py").is_file():
        print(f"error: hoarefine sources not found under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    global workloads
    import workloads  # imports hoarefine from SRC

    if args.worker is not None:
        worker(args.worker)
        return 0
    rec = tracing.Recorder(enabled=False)
    if args.trace:
        tracing.install(rec)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, units, n, f = run_workload(name, args, rec)
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in values.items()})
        attempted += n
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
