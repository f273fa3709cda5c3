"""Spans around calls into hoarefine's public functions, recorded from outside.

The package itself carries no tracing.  ``install`` replaces each traced
function, in every loaded ``hoarefine`` module that binds it, with a
wrapper that records a span (name, start, end, parent, subject) and a few
attributes read off the call's inputs and outputs.  Spans stay in memory;
``Recorder.dump`` writes them out when a run ends.

Span names are ``<layer>.<stage>``; the layer is the hoarefine module.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc

import numpy as np

# (module, function) -> span name.  refine.split_hemispheres is named by
# its config at call time, see _span_name.
TRACED = {
    ("nifti", "read_volume"): "nifti.read",
    ("nifti", "write_volume"): "nifti.write",
    ("nifti", "reorient_to_canonical"): "nifti.reorient",
    ("labels", "fuse_labels"): "labels.fuse",
    ("labels", "validate_labels"): "labels.validate",
    ("labels", "parse_landmarks"): "labels.parse_landmarks",
    ("refine", "refine_full"): "refine.refine_full",
    ("refine", "split_hemispheres"): "refine.split_hemispheres",
    ("refine", "separate_nacc_putamen"): "refine.separate_nacc_putamen",
    ("refine", "apply_coronal_extents"): "refine.apply_coronal_extents",
    ("refine", "split_vdc"): "refine.split_vdc",
    ("refine", "split_lv_ih"): "refine.split_lv_ih",
    ("metrics", "evaluate_pair"): "metrics.evaluate_pair",
    ("metrics", "dice"): "metrics.dice",
    ("metrics", "pasd"): "metrics.pasd",
    ("phantom", "generate_phantom"): "phantom.generate",
    ("phantom", "degrade_phantom"): "phantom.degrade",
}

# calls whose peak traced allocation is recorded (tracemalloc on for the
# call), except slice_adjust refines: tracemalloc slows that Python loop
# about 12x at 260x311x260
_PEAK_ALLOC = {"refine.refine_full", "metrics.evaluate_pair"}


class Recorder:
    """In-memory span store.  ``enabled`` off makes every wrapper a pass-through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # both slow a call down, so they stay off timed subjects:
        self.counting = False  # diff each refinement pass's input and output
        self.memory = False  # peak traced allocation of refine_full and evaluate_pair
        self.subject = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "subject": self.subject,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.monotonic(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Attach spans recorded in a child process under one of ours."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, id=s["id"] + base, subject=self.subject,
                     parent=parent if s["parent"] is None else s["parent"] + base)
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _slice_adjust(args, kwargs) -> bool:
    cfg = _arg(args, kwargs, 2, "cfg")  # position in refine_full and split_hemispheres
    return cfg is not None and cfg.slice_adjust


def _span_name(name, args, kwargs):
    if name == "refine.split_hemispheres" and _slice_adjust(args, kwargs):
        return "refine.split_hemispheres_adjust"
    return name


def _changed_to(before, after, ids):
    return (after != before) & np.isin(after, ids)


def _counts(name, args, kwargs, out) -> dict:
    """Voxels a refinement pass assigned, from its input and output partial map."""
    if name == "refine.separate_nacc_putamen":
        before = _arg(args, kwargs, 4, "partial")
        return {"nacc_voxels": int(_changed_to(before, out, (6, 7)).sum())}
    before = args[0]
    if name == "refine.apply_coronal_extents":
        return {"extent_moved_voxels": int(np.count_nonzero(out != before))}
    if name == "refine.split_vdc":
        return {"vdc_anterior_voxels": int(_changed_to(before, out, (23, 24)).sum())}
    if name == "refine.split_lv_ih":
        ih = _changed_to(before, out, (17, 18))
        return {"ih_voxels": int(ih.sum()),
                "ih_chain_slices": int(ih.any(axis=(0, 2)).sum())}
    return {}


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span_name = _span_name(name, args, kwargs)
        own_tracemalloc = (rec.memory and span_name in _PEAK_ALLOC
                           and not tracemalloc.is_tracing()
                           and not (name == "refine.refine_full"
                                    and _slice_adjust(args, kwargs)))
        with rec.span(span_name) as attrs:
            if own_tracemalloc:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if own_tracemalloc:
                    attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if span_name == "nifti.write":
                attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))
            elif span_name == "metrics.evaluate_pair":
                attrs["rows"] = len(out.rows)
        if rec.counting:
            attrs.update(_counts(name, args, kwargs, out))
        return out

    return traced


def install(rec: Recorder) -> None:
    """Route every traced function through ``rec``, wherever hoarefine binds it.

    Call once per process.
    """
    import hoarefine
    from hoarefine import cli  # noqa: F401  (binds the names cli re-imports)

    modules = [m for n, m in sys.modules.items()
               if n == "hoarefine" or n.startswith("hoarefine.")]
    for (mod_name, fn_name), name in TRACED.items():
        original = getattr(getattr(hoarefine, mod_name), fn_name)
        wrapper = _wrap(rec, name, original)
        for mod in modules:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapper)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
