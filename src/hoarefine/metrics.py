"""Segmentation evaluation: overlap, protocol surface distance, line
straightness, and paired nonparametric testing.

PASD (protocol-aligned surface distance) is a one-way mean nearest
neighbor distance: from each ground-truth voxel center on a protocol
boundary surface to the closest predicted voxel of the structure on the
matching anatomical side.  It is deliberately asymmetric; swapping the
arguments answers a different question.

Separation lines capture the 2D behavior of a boundary inside single
slices: the line is the coordinate of the first neighbor-label voxel
met when scanning each in-slice row from the structure's side.  MAE
compares the predicted line to the reference one; sigma_y is the
population spread of the predicted line itself, 0 for a perfectly
straight boundary.

The Wilcoxon signed-rank test uses the exact permutation null for
n <= 20 (zero differences dropped) and a tie-corrected normal
approximation above; Benjamini-Hochberg controls the FDR across
columns.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .labels import FINE_HEMISPHERE, FINE_NAME, LandmarkSet
from .nifti import Volume, _erode_6, reorient_to_canonical
from .refine import coronal_slice_index

logger = logging.getLogger("hoarefine.metrics")


class MetricError(Exception):
    """Inputs unsuitable for evaluation (misaligned grids etc.)."""


class MetricUndefinedError(MetricError):
    """The metric has no value on these inputs (empty sets, too few pairs)."""


# ---------------------------------------------------------------------------
# overlap

def _label_map(vol: Volume, role: str) -> Volume:
    """``vol``, checked to be a fine label map: integer labels, and no
    fused12 tag, whose ids 1..12 lie in the fine range but name other
    structures.  An untagged map counts as fine."""
    if not vol.is_label:
        raise MetricError(f"{role} volume needs integer labels, got {vol.data.dtype}")
    if vol.taxonomy == "fused12":
        raise MetricError(f"{role} volume is tagged fused12; evaluation needs "
                          "fine 26-label maps")
    return vol


# confusion-matrix side: background plus the fine labels 1..26
N_CLASSES = max(FINE_NAME) + 1
# voxels per bincount slab; bincount copies its input to intp, so this
# bounds that copy to 8 MB instead of 8 bytes per voxel of the volume
_SLAB_VOXELS = 1 << 20


def _confusion(pred: Volume, gt: Volume) -> np.ndarray:
    """Voxel counts of each (predicted, reference) label pair, 27 x 27.

    One bincount of ``pred * 27 + gt`` (Taha & Hanbury 2015), run slab
    by slab in int16.
    """
    if pred.dims != gt.dims:
        raise MetricError(f"dimension mismatch: {pred.dims} vs {gt.dims}")
    for vol, role in ((pred, "predicted"), (gt, "reference")):
        data = _label_map(vol, role).data
        lo, hi = (int(data.min()), int(data.max())) if data.size else (0, 0)
        if lo < 0 or hi >= N_CLASSES:
            raise MetricError(
                f"{role} volume holds label {lo if lo < 0 else hi}, outside "
                f"the fine taxonomy 0..{N_CLASSES - 1}")
    p, g = pred.data, gt.data
    if pred.order == "F":  # slab along the last axis, contiguous slabs
        p, g = p.T, g.T
    counts = np.zeros(N_CLASSES * N_CLASSES, dtype=np.int64)
    step = max(1, _SLAB_VOXELS // max(1, p[0].size))
    for i in range(0, p.shape[0], step):
        pair = p[i:i + step] * np.int16(N_CLASSES)  # at least int16: no uint8 wrap
        pair += g[i:i + step]
        counts += np.bincount(pair.ravel(order="K"), minlength=counts.size)
    return counts.reshape(N_CLASSES, N_CLASSES)


def _dice(confusion: np.ndarray, label: int) -> float:
    denom = int(confusion[label].sum()) + int(confusion[:, label].sum())
    if denom == 0:
        logger.warning("dice(label=%d): both masks empty, returning 1.0", label)
        return 1.0
    return 2.0 * int(confusion[label, label]) / denom


def dice(pred: Volume, gt: Volume, label: int) -> float:
    """Dice overlap of one label: 2|P&G| / (|P|+|G|); both-empty = 1.0."""
    if not 0 <= label < N_CLASSES:
        raise MetricError(f"label {label} outside the fine taxonomy 0..{N_CLASSES - 1}")
    return _dice(_confusion(pred, gt), label)


# ---------------------------------------------------------------------------
# protocol boundaries

@dataclass(frozen=True)
class BoundarySide:
    side: str            # left | right | mid
    label: int           # fine id of the structure on this side
    neighbor: int        # fine id across the boundary
    landmark: int | None  # defining landmark (None for lateral surfaces)
    exclusive: bool      # structure starts one slice beyond the landmark


@dataclass(frozen=True)
class BoundarySpec:
    region: str
    surface: str         # anterior | posterior | lateral
    sides: tuple[BoundarySide, ...]

    def side(self, name: str) -> BoundarySide:
        for s in self.sides:
            if s.side == name:
                return s
        raise MetricError(f"{self.region} ({self.surface}) has no side {name!r}")


def _bilateral(region, surface, labels, neighbors, landmarks, exclusive):
    return BoundarySpec(region, surface, (
        BoundarySide("left", labels[0], neighbors[0],
                     landmarks[0] if landmarks else None, exclusive),
        BoundarySide("right", labels[1], neighbors[1],
                     landmarks[1] if landmarks else None, exclusive),
    ))


DEFAULT_BOUNDARIES: tuple[BoundarySpec, ...] = (
    _bilateral("IH", "posterior", (17, 18), (1, 2), (13, 14), exclusive=True),
    _bilateral("NAcc", "lateral", (6, 7), (10, 11), None, exclusive=False),
    _bilateral("NAcc", "posterior", (6, 7), (10, 11), (7, 8), exclusive=False),
    _bilateral("Put", "anterior", (10, 11), (6, 7), (1, 2), exclusive=False),
    _bilateral("Put", "lateral", (10, 11), (6, 7), None, exclusive=False),
    BoundarySpec("3V", "anterior", (
        BoundarySide("mid", 4, 3, 9, exclusive=False),)),
    _bilateral("VDC_A", "posterior", (23, 24), (25, 26), (11, 12), exclusive=True),
    _bilateral("VDC_P", "anterior", (25, 26), (23, 24), (11, 12), exclusive=False),
)


def _surface_slice(vol: Volume, bside: BoundarySide, surface: str,
                   lms: LandmarkSet) -> int:
    if bside.landmark is None:
        raise MetricError(f"surface {surface!r} has no landmark plane")
    if bside.landmark not in lms:
        raise MetricUndefinedError(f"landmark #{bside.landmark} missing")
    j = coronal_slice_index(vol, lms[bside.landmark])
    if not bside.exclusive:
        return j
    # structure holds no voxels on the plane slice itself; its face is
    # one slice beyond, toward the structure
    return j + 1 if surface == "posterior" else j - 1


def _surface_voxels(can: Volume, spec: BoundarySpec, lms: LandmarkSet,
                    side: str) -> np.ndarray:
    """(N, 3) canonical voxel indices of the label's protocol boundary face."""
    bside = spec.side(side)
    data = _label_map(can, "reference").data
    if spec.surface in ("anterior", "posterior"):
        j = _surface_slice(can, bside, spec.surface, lms)
        if not 0 <= j < data.shape[1]:
            raise MetricUndefinedError(
                f"{spec.region} ({spec.surface}, {side}): plane slice {j} "
                "outside the volume")
        ii, kk = np.nonzero(data[:, j, :] == bside.label)
        if ii.size == 0:
            raise MetricUndefinedError(
                f"{spec.region} ({spec.surface}, {side}): label {bside.label} "
                f"absent at plane slice {j}")
        return np.stack((ii, np.full(ii.shape, j), kk), axis=1)

    if spec.surface != "lateral":
        raise MetricError(f"unknown surface kind {spec.surface!r}")
    box, nbox = can.box((bside.label,)), can.box((bside.neighbor,))
    if box is None or nbox is None:
        raise MetricUndefinedError(
            f"{spec.region} (lateral, {side}): no slice contains both label "
            f"{bside.label} and neighbor {bside.neighbor}")
    with_neighbor = np.zeros(data.shape[1], dtype=bool)
    with_neighbor[nbox[1]] = (data[nbox] == bside.neighbor).any(axis=(0, 2))
    mask = (data[box] == bside.label) & with_neighbor[box[1]][None, :, None]
    ii = np.arange(box[0].start, box[0].stop)
    absx = np.abs(can.voxel_to_world(np.column_stack((ii, 0 * ii, 0 * ii)))[:, 0])[:, None, None]
    # per (j, k) row, the label voxel nearest the separator (lowest i on
    # ties): the most lateral one of a medial structure and vice versa
    if _is_medial(bside):
        pick = np.where(mask, absx, -np.inf).argmax(axis=0)
    else:
        pick = np.where(mask, absx, np.inf).argmin(axis=0)
    jj, kk = np.nonzero(mask.any(axis=0))
    if jj.size == 0:
        raise MetricUndefinedError(
            f"{spec.region} (lateral, {side}): no slice contains both label "
            f"{bside.label} and neighbor {bside.neighbor}")
    return np.stack((pick[jj, kk] + box[0].start, jj + box[1].start,
                     kk + box[2].start), axis=1)


def extract_protocol_surface(gt: Volume, spec: BoundarySpec, lms: LandmarkSet,
                             side: str) -> np.ndarray:
    """World-mm voxel centers of the GT label's protocol boundary face.

    Coronal surfaces are the label's voxels on the landmark plane slice
    (shifted one slice toward the structure for exclusive boundaries).
    Lateral surfaces are, per coronal slice containing both the label
    and its neighbor, the row-wise label voxel closest to the separator:
    the most lateral voxel of a medial structure and vice versa.
    """
    can, _ = reorient_to_canonical(gt)
    return can.voxel_to_world(
        _surface_voxels(can, spec, lms, side).astype(np.float64))


def _is_medial(bside: BoundarySide) -> bool:
    # NAcc sits medial to Put; the medial structure's separator face is
    # its most lateral row voxel
    return bside.label in (6, 7)


def _shell_is_exact(affine: np.ndarray) -> bool:
    """Whether a mask's 6-connected shell holds the nearest mask voxel of
    every grid point outside the mask.

    Take an interior voxel p, a grid point q = p + v (v a nonzero integer
    step), spacings s and m the largest |cosine| between two grid axes.
    Along the axis c that maximises |v_c| s_c, stepping from p one voxel
    toward q changes the squared distance to q by at most
    s_c^2 - 2 |v_c| s_c^2 (1 - 2m) <= s_c^2 (4m - 1), which is negative
    for m < 1/4.  So no nearest voxel is interior.  Grids with
    orthogonal axes, rotated or not, have m = 0.
    """
    lin = np.asarray(affine)[:3, :3]
    gram = lin.T @ lin
    norms = np.sqrt(np.diag(gram))
    cosines = gram / np.outer(norms, norms) - np.eye(3)
    return bool(np.all(np.abs(cosines) < 0.25))


_CELL = 8  # edge of a search cell, voxels
# measured voxels, or query-by-cell box bounds, per vectorised step
_BLOCK = 1 << 18


def _group_min(who: np.ndarray, queries: np.ndarray, pts: np.ndarray):
    """Distinct values of the sorted ``who`` and, for each, the smallest
    squared distance from ``queries[who]`` to the matching ``pts`` rows.

    The sum is cKDTree's, dx*dx + dy*dy + dz*dz in axis order, so its
    square root equals a KD-tree query's distance bit for bit.
    """
    if who.size == 0:
        return who, np.empty(0)
    d = queries[who] - pts
    dist2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    starts = np.flatnonzero(np.r_[True, who[1:] != who[:-1]])
    return who[starts], np.minimum.reduceat(dist2, starts)


def _nearest_distances(vox: np.ndarray, queries: np.ndarray, mask: np.ndarray,
                       origin: np.ndarray, can: Volume) -> np.ndarray:
    """Distance (mm) from each world point ``queries[n]``, near the centre
    of voxel ``vox[n]`` of ``can``'s grid, to the nearest voxel of
    ``mask``, a box of that grid starting at voxel ``origin``.

    Each ``queries[n]`` must lie within a small fraction of a voxel of
    its voxel's centre, as ``_check_aligned``'s 1e-6 bound on the two
    grids gives.  Then a query whose voxel is in the mask is nearest that
    voxel.  Every other query goes to a cell pass over 8^3 cells of the
    mask's shell (``_shell_is_exact``), or of the whole mask on grids
    whose axes are too oblique: it measures the voxels of the cell whose
    world-mm bounding box is nearest, then of every cell whose box is no
    farther than the nearest voxel found there.  All distances are
    measured to voxel centres with cKDTree's sum, so they equal a KD-tree
    query over the mask's voxels bit for bit.
    """
    local = vox - origin
    out = np.full(len(vox), np.inf)  # squared distances until the end
    inside = np.all((local >= 0) & (local < mask.shape), axis=1)
    inside[inside] = mask[tuple(local[inside].T)]
    rows = np.flatnonzero(inside)
    found, dist2 = _group_min(rows, queries, can.voxel_to_world(vox[rows]))
    out[found] = dist2
    rest = np.flatnonzero(~inside)
    if rest.size:
        tree = mask & ~_erode_6(mask) if _shell_is_exact(can.affine) else mask
        _cell_pass(rest, queries, tree, origin, can, out)
    return np.sqrt(out)


def _cell_pass(rest, queries, tree, origin, can, out) -> None:
    """Squared distances of the queries ``rest`` to the voxels of ``tree``,
    a box of ``can``'s grid starting at voxel ``origin``, into ``out``, by
    8^3 cells pruned with their world-mm bounding boxes."""
    pts = np.argwhere(tree)
    key = np.ravel_multi_index(tuple((pts // _CELL).T),
                               tuple(-(-np.array(tree.shape) // _CELL)))
    order = np.argsort(key, kind="stable")
    pts, key = pts[order], key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[starts, key.size])
    world = can.voxel_to_world(pts + origin)
    lo = np.minimum.reduceat(world, starts, axis=0)
    hi = np.maximum.reduceat(world, starts, axis=0)

    def measure(rows, cells):
        """Lower out[rows[i]] to the squared distance to each voxel of
        cells[i], ``rows`` sorted, in pieces of at most _BLOCK voxels or
        one cell."""
        n = counts[cells]
        ends = np.cumsum(n)
        a = 0
        while a < cells.size:
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - n[a] + _BLOCK, side="right")))
            m = n[a:b]
            at = np.arange(m.sum()) + np.repeat(starts[cells[a:b]] - np.cumsum(m) + m, m)
            found, dist2 = _group_min(np.repeat(rows[a:b], m), queries, world[at])
            out[found] = np.minimum(out[found], dist2)
            a = b

    # bounds (queries x cells) and eight full cells per query stay near
    # _BLOCK per step: small steps keep the operands in cache
    chunk = max(1, _BLOCK // max(starts.size, 8 * int(counts.max())))
    for a in range(0, rest.size, chunk):
        rows = rest[a:a + chunk]
        p = queries[rows]
        # squared distance to a cell's box, summed as _group_min sums: float
        # rounding is monotone, so it never exceeds the float distance to a
        # voxel of the cell, and a cell above a query's minimum holds no
        # voxel that could lower it
        lb = 0.0
        for c in range(3):
            gap = np.maximum(np.maximum(lo[:, c] - p[:, c, None], p[:, c, None] - hi[:, c]), 0.0)
            lb = lb + gap * gap
        best = lb.argmin(axis=1)
        measure(rows, best)  # rows are still at inf: out becomes that cell's minimum
        lb[np.arange(rows.size), best] = np.inf
        r, cells = np.nonzero(lb <= out[rows, None])
        measure(rows[r], cells)


def pasd(gt: Volume, pred: Volume, spec: BoundarySpec, lms: LandmarkSet,
         side: str, side_filter: bool = True) -> float:
    """One-way mean distance (mm) from the GT protocol surface to the
    predicted structure's voxels on the matching side.

    side_filter keeps predicted voxels on the structure's side of the
    landmark plane (plane slice included); pass False to use every
    predicted voxel of the label.  Lateral surfaces always use the
    whole label.  Undefined (raises) when either set is empty.

    Only the predicted label's bounding box is read.  Surface and
    predicted voxels share one lattice within 1e-6, so a surface voxel
    inside the prediction is nearest itself, and one search over cells
    of the prediction's shell serves the rest (``_nearest_distances``).
    Candidates are measured in world mm with cKDTree's formula, and a
    cell is skipped only when its bounding box is farther than a voxel
    already found: the values equal a KD-tree query over every
    predicted voxel.
    """
    _check_aligned(pred, gt)
    _label_map(pred, "predicted")
    bside = spec.side(side)
    gt_can, _ = reorient_to_canonical(gt)
    vox = _surface_voxels(gt_can, spec, lms, side)
    surface = gt_can.voxel_to_world(vox.astype(np.float64))
    can, _ = reorient_to_canonical(pred)
    box = can.box((bside.label,))
    if box is not None and side_filter and spec.surface in ("anterior", "posterior") \
            and bside.landmark in lms:
        j_lm = coronal_slice_index(can, lms[bside.landmark])
        lo, hi = box[1].start, box[1].stop
        lo, hi = (max(lo, j_lm), hi) if spec.surface == "posterior" else (lo, min(hi, j_lm + 1))
        box = (box[0], slice(lo, hi), box[2]) if lo < hi else None
    mask = None if box is None else can.data[box] == bside.label
    if mask is None or not mask.any():
        raise MetricUndefinedError(
            f"{spec.region} ({spec.surface}, {side}): no predicted voxels of "
            f"label {bside.label} on the evaluation side")
    origin = np.array([s.start for s in box])
    return float(np.mean(_nearest_distances(vox, surface, mask, origin, can)))


def _check_aligned(a: Volume, b: Volume) -> None:
    if a.dims != b.dims:
        raise MetricError(f"volume dims differ: {a.dims} vs {b.dims}")
    if not np.allclose(a.affine, b.affine, atol=1e-6):
        raise MetricError("volume affines differ beyond 1e-6")


# ---------------------------------------------------------------------------
# separation lines

def line_metrics(pred_y, gt_y) -> tuple[float, float]:
    """MAE between paired line positions and sigma_y of the predicted line.

    sigma_y is the population standard deviation (divisor N), so a
    constant line scores exactly 0.
    """
    pred_y = np.asarray(pred_y, dtype=np.float64)
    gt_y = np.asarray(gt_y, dtype=np.float64)
    if pred_y.shape != gt_y.shape or pred_y.ndim != 1:
        raise MetricError("line positions must be equal-length 1D sequences")
    if pred_y.size == 0:
        raise MetricUndefinedError("empty line")
    mae = float(np.mean(np.abs(pred_y - gt_y)))
    if np.all(pred_y == pred_y[0]):
        sigma = 0.0  # constant line; keep the mean's rounding dust out
    else:
        sigma = float(np.sqrt(np.mean((pred_y - pred_y.mean()) ** 2)))
    return mae, sigma


def _separation_lines(vol: Volume, slice_axis: int, scan_axis: int,
                      labels: tuple[int, int], box):
    """Separation lines of the slices along slice_axis that box spans.

    box is a tuple of per-axis slices with explicit bounds.  Returns
    (line, world, mean_a, mean_b).  line and world are indexed (slice,
    row) from the box's corner: line marks the rows of each slice's line,
    and world holds each row's world mm position of the first B voxel
    met scanning from the A side.  mean_a and mean_b are the labels' mean
    scan positions per slice, NaN where the slice lacks the label.  A
    slice whose labels have distinct means has a line through every row
    that holds both.
    """
    a_id, b_id = labels
    row_axis = 3 - slice_axis - scan_axis
    order = (slice_axis, scan_axis, row_axis)
    origin = [box[ax].start for ax in order]
    blk = np.asarray(vol.data)[box].transpose(order)  # (slice, scan, row)
    a_mask = blk == a_id
    b_mask = blk == b_id
    # the labels' mean scan positions: exact integer sums, one division
    scan_idx = np.arange(origin[1], origin[1] + blk.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_a = a_mask.sum(axis=2) @ scan_idx / a_mask.sum(axis=(1, 2))
        mean_b = b_mask.sum(axis=2) @ scan_idx / b_mask.sum(axis=(1, 2))
    # first B voxel met scanning from the A side
    first = np.where((mean_a < mean_b)[:, None], b_mask.argmax(axis=1),
                     blk.shape[1] - 1 - b_mask[:, ::-1].argmax(axis=1)) + origin[1]
    # a slice lacking a label has no row holding both
    line = a_mask.any(axis=1) & b_mask.any(axis=1) & (mean_a != mean_b)[:, None]
    # world position of every (slice, row)'s first B voxel, in one call:
    # a row converts the same alone or among others
    pts = np.empty(first.shape + (3,))
    pts[..., scan_axis] = first
    pts[..., slice_axis] = np.arange(origin[0], origin[0] + blk.shape[0])[:, None]
    pts[..., row_axis] = np.arange(origin[2], origin[2] + blk.shape[2])
    return line, vol.voxel_to_world(pts)[..., scan_axis], mean_a, mean_b


def extract_separation_line(vol: Volume, slice_axis: int, slice_index: int,
                            labels: tuple[int, int], scan_axis: int,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Boundary line between labels A and B inside one slice.

    Returns (row indices, world mm positions along the scan axis) of the
    first B voxel met scanning from the A side, one entry per in-slice
    row containing both labels.  The scan direction comes from the two
    labels' mean positions within the slice.  Assumes a canonical-frame
    volume (axis-aligned affine).
    """
    if slice_axis == scan_axis:
        raise MetricError("scan axis must differ from slice axis")
    if not 0 <= slice_index < vol.dims[slice_axis]:
        raise MetricError(f"slice {slice_index} outside axis {slice_axis}")
    box = [slice(0, n) for n in vol.dims]
    box[slice_axis] = slice(slice_index, slice_index + 1)
    line, world, mean_a, mean_b = _separation_lines(vol, slice_axis, scan_axis, labels,
                                                    tuple(box))
    for mean, label in zip((mean_a, mean_b), labels):
        if np.isnan(mean[0]):
            raise MetricUndefinedError(f"slice {slice_index} lacks label {label}")
    if mean_a[0] == mean_b[0]:
        raise MetricUndefinedError("labels interleave symmetrically; no scan side")
    rows = np.flatnonzero(line[0])
    if rows.size == 0:
        raise MetricUndefinedError(
            f"slice {slice_index}: no row contains both labels {labels}")
    return rows, world[0, rows]


# ---------------------------------------------------------------------------
# paired testing

def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided paired Wilcoxon signed-rank test: (W+, p).

    Zero differences are dropped (the original method).  Exact
    permutation p for n <= 20 nonzero pairs via the full sign-flip null
    (computed by subset-sum counting, identical to enumerating all 2^n
    assignments); tie-corrected normal approximation beyond.  Fewer than
    5 nonzero pairs is an error.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    if n < 5:
        raise MetricUndefinedError(f"need >= 5 nonzero pairs, got {n}")
    _, inv, tie_counts = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    # 1-based average rank of each tie group: half-integers, exact in floats
    ranks = ((np.cumsum(tie_counts) - tie_counts) + (tie_counts + 1) / 2.0)[inv]
    w_plus = float(ranks[d > 0].sum())

    if n <= 20:
        # doubled ranks are integers even with ties
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        total2 = int(r2.sum())
        counts = np.zeros(total2 + 1, dtype=np.float64)
        counts[0] = 1.0
        for r in r2:
            counts[r:] += counts[:counts.size - r].copy()
        mu2 = total2 / 2.0
        dev = abs(2.0 * w_plus - mu2)
        sums = np.arange(total2 + 1, dtype=np.float64)
        extreme = np.abs(sums - mu2) >= dev - 1e-9
        p = float(counts[extreme].sum() / counts.sum())
        return w_plus, min(p, 1.0)

    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if var <= 0:
        raise MetricUndefinedError("zero variance after tie correction")
    z = (w_plus - mu) / np.sqrt(var)
    return w_plus, 2.0 * _norm_sf(float(abs(z)))


# Cephes ndtr's rational approximations of erf (T/U, |x| < 1) and erfc
# (P/Q, |x| < 8; R/S beyond); a leading 1.0 stands for Cephes' p1evl
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): exp(-x*x) underflows beyond
_SQRT1_2 = math.sqrt(0.5)


def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal for z >= 0, bit for bit scipy's
    ``norm.sf``: a port of the Cephes ``ndtr(-z)`` it runs, which is
    ``0.5 * erfc(z / sqrt(2))`` by the tables above.  ``math.erfc``
    differs from it in the last bits for most z."""
    x = z * _SQRT1_2
    if x < 1.0:  # erfc = 1 - erf; ndtr's 0.5 - erf/2 below 1/sqrt(2) rounds the same
        t = x * x
        return float(0.5 * (1.0 - x * np.polyval(_T, t) / np.polyval(_U, t)))
    if x * x > _MAXLOG:
        return 0.0
    p, q = (_P, _Q) if x < 8.0 else (_R, _S)
    return float(0.5 * (math.exp(-x * x) * np.polyval(p, x) / np.polyval(q, x)))


def benjamini_hochberg(pvalues, q: float) -> np.ndarray:
    """BH step-up: boolean significance flags at FDR level q, 0 < q <= 1."""
    if not 0.0 < q <= 1.0:  # NaN fails too
        raise MetricError(f"FDR level q must lie in (0, 1], got {q}")
    p = np.asarray(pvalues, dtype=np.float64)
    m = p.size
    flags = np.zeros(m, dtype=bool)
    if m == 0:
        return flags
    order = np.argsort(p, kind="stable")
    thresh = q * (np.arange(1, m + 1) / m)
    passing = np.nonzero(p[order] <= thresh)[0]
    if passing.size:
        cutoff = passing[-1]
        flags[order[:cutoff + 1]] = True
    return flags


@dataclass(frozen=True)
class PairedSampleTable:
    """Per-subject values for two methods over named columns."""

    subjects: tuple[str, ...]
    columns: tuple[str, ...]
    a: np.ndarray  # (n_subjects, n_columns)
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        want = (len(self.subjects), len(self.columns))
        if a.shape != want or b.shape != want:
            raise MetricError(
                f"table shapes {a.shape}/{b.shape} do not match "
                f"{len(self.subjects)} subjects x {len(self.columns)} columns")
        bad = np.argwhere(~np.isfinite(np.stack((a, b))))
        if bad.size:  # a NaN would be ranked as a difference
            t, r, c = bad[0]
            raise MetricError(f"table {'ab'[t]} holds {(a, b)[t][r, c]} for subject "
                              f"{self.subjects[r]!r}, column {self.columns[c]!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def wilcoxon_fdr(table: PairedSampleTable, q: float = 0.05):
    """Per-column Wilcoxon tests with BH correction across columns.

    Returns a list of dicts (column, statistic, p_value, significant).
    Columns with fewer than 5 nonzero differences get NaN p-values and
    are excluded from the BH family.
    """
    stats, pvals = [], []
    for c in range(len(table.columns)):
        try:
            w, p = wilcoxon_signed_rank(table.a[:, c], table.b[:, c])
        except MetricUndefinedError:
            w, p = float("nan"), float("nan")
        stats.append(w)
        pvals.append(p)
    defined = [i for i, p in enumerate(pvals) if not np.isnan(p)]
    flags = [False] * len(pvals)
    for i, f in zip(defined, benjamini_hochberg([pvals[i] for i in defined], q)):
        flags[i] = bool(f)
    return [
        {"column": col, "statistic": stats[i], "p_value": pvals[i],
         "significant": flags[i]}
        for i, col in enumerate(table.columns)
    ]


# ---------------------------------------------------------------------------
# full report

@dataclass(frozen=True)
class MetricRow:
    metric: str   # dice | pasd | mae | sigma_y
    region: str
    surface: str  # "" for dice
    side: str     # left | right | mid
    value: float


@dataclass(frozen=True)
class SkippedSide:
    """A boundary side that a metric family left out of a report, and why."""

    metric: str   # pasd | lines
    region: str
    surface: str
    side: str
    reason: str


@dataclass
class MetricReport:
    subject: str
    rows: list[MetricRow] = field(default_factory=list)
    skipped: list[SkippedSide] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        vals = [r.value for r in self.rows if r.metric == metric]
        if not vals:
            raise MetricUndefinedError(f"no {metric} rows in report")
        return float(np.mean(vals))

    def to_json(self) -> str:
        doc = {
            "subject": self.subject,
            "rows": [vars(r) for r in self.rows],
            "skipped": [vars(k) for k in self.skipped],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        doc = json.loads(text)
        return cls(doc["subject"], [MetricRow(**r) for r in doc["rows"]],
                   [SkippedSide(**k) for k in doc.get("skipped", [])])

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["subject", "metric", "region", "surface", "side", "value"])
        for r in self.rows:
            w.writerow([self.subject, r.metric, r.region, r.surface, r.side,
                        repr(r.value)])
        return buf.getvalue()


def _region_side(fine_id: int) -> tuple[str, str]:
    name = FINE_NAME[fine_id]
    hemi = FINE_HEMISPHERE[fine_id]
    if hemi in ("left", "right") and name.endswith(("_L", "_R")):
        return name[:-2], hemi
    return name, "mid"


def evaluate_pair(pred26: Volume, gt26: Volume, lms: LandmarkSet,
                  boundaries: tuple[BoundarySpec, ...] = DEFAULT_BOUNDARIES,
                  subject: str = "subject") -> MetricReport:
    """Full per-subject report: Dice per label, PASD and line metrics
    per protocol boundary side.  Boundary sides undefined on these
    volumes (absent labels or landmarks) are listed in ``skipped``.

    Labels must lie in the fine taxonomy 0..26 (MetricError otherwise).
    """
    _check_aligned(pred26, gt26)
    confusion = _confusion(pred26, gt26)
    report = MetricReport(subject)
    present = np.flatnonzero(confusion.sum(axis=0) + confusion.sum(axis=1))
    for label in present[present > 0].tolist():
        region, side = _region_side(label)
        report.rows.append(MetricRow(
            "dice", region, "", side, _dice(confusion, label)))

    pred_can, _ = reorient_to_canonical(pred26)
    gt_can, _ = reorient_to_canonical(gt26)
    for spec in boundaries:
        for bside in spec.sides:
            try:
                value = pasd(gt_can, pred_can, spec, lms, bside.side)
            except MetricUndefinedError as exc:
                report.skipped.append(SkippedSide(
                    "pasd", spec.region, spec.surface, bside.side, str(exc)))
                continue
            report.rows.append(MetricRow(
                "pasd", spec.region, spec.surface, bside.side, value))
    for spec in boundaries:
        for bside in spec.sides:
            agg = _line_metrics_for_boundary(pred_can, gt_can, spec, bside)
            if agg is None:
                report.skipped.append(SkippedSide(
                    "lines", spec.region, spec.surface, bside.side,
                    "no slice with a line in both volumes"))
                continue
            mae, sigma = agg
            report.rows.append(MetricRow(
                "mae", spec.region, spec.surface, bside.side, mae))
            report.rows.append(MetricRow(
                "sigma_y", spec.region, spec.surface, bside.side, sigma))
    return report


def _line_metrics_for_boundary(pred_can, gt_can, spec, bside):
    """Mean per-slice (MAE, sigma_y) for one boundary side, or None.

    Coronal boundaries are read in sagittal slices scanning along y;
    lateral boundaries in coronal slices scanning along x.  A slice
    contributes when both volumes yield a line and share rows.
    """
    if spec.surface in ("anterior", "posterior"):
        slice_axis, scan_axis = 0, 1
        # scan from the posterior label's side toward anterior
        if spec.surface == "posterior":
            pair = (bside.neighbor, bside.label)
        else:
            pair = (bside.label, bside.neighbor)
    else:
        slice_axis, scan_axis = 1, 0
        pair = (bside.label, bside.neighbor)
    box_p, box_g = pred_can.box(pair), gt_can.box(pair)
    if box_p is None or box_g is None:
        return None
    # one box for both volumes, so that their (slice, row) cells line up
    box = tuple(slice(min(p.start, g.start), max(p.stop, g.stop))
                for p, g in zip(box_p, box_g))
    line_p, ys_p, _, _ = _separation_lines(pred_can, slice_axis, scan_axis, pair, box)
    line_g, ys_g, _, _ = _separation_lines(gt_can, slice_axis, scan_axis, pair, box)
    common = line_p & line_g
    maes, sigmas = [], []
    for s in np.flatnonzero(common.any(axis=1)):
        # one slice at a time: np.mean's pairwise sums over the row order
        mae, sigma = line_metrics(ys_p[s, common[s]], ys_g[s, common[s]])
        maes.append(mae)
        sigmas.append(sigma)
    if not maes:
        return None
    return float(np.mean(maes)), float(np.mean(sigmas))
