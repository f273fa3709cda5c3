"""Reference evaluation: the mask-per-label implementation, kept for tests.

Dice builds two full-volume masks per label, PASD builds a KD-tree over
every predicted voxel of the label, and separation lines scan each row
of each slice in Python.  The package implementation reads each volume
once per metric family (one confusion matrix, label bounding boxes)
and finds PASD's nearest voxels on the voxel lattice with numpy, not
with a KD-tree; this one keeps scipy's cKDTree so that it stays an
independent oracle.  ``test_metrics_differential.py`` requires both to
produce equal report rows.  Boundary definitions, the report types and
the error types are imported from the package.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.spatial import cKDTree

from hoarefine.labels import FINE_HEMISPHERE, FINE_NAME, LandmarkSet
from hoarefine.metrics import (
    DEFAULT_BOUNDARIES,
    BoundarySide,
    BoundarySpec,
    MetricError,
    MetricReport,
    MetricRow,
    MetricUndefinedError,
)
from hoarefine.nifti import Volume, reorient_to_canonical
from hoarefine.refine import coronal_slice_index

logger = logging.getLogger("metrics_reference")


def dice(pred: Volume, gt: Volume, label: int) -> float:
    """Dice overlap of one label: 2|P&G| / (|P|+|G|); both-empty = 1.0."""
    p = np.asarray(pred.data) == label
    g = np.asarray(gt.data) == label
    if p.shape != g.shape:
        raise MetricError(f"dimension mismatch: {p.shape} vs {g.shape}")
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        logger.warning("dice(label=%d): both masks empty, returning 1.0", label)
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / denom


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


def extract_protocol_surface(gt: Volume, spec: BoundarySpec, lms: LandmarkSet,
                             side: str) -> np.ndarray:
    """World-mm voxel centers of the GT label's protocol boundary face.

    Coronal surfaces are the label's voxels on the landmark plane slice
    (shifted one slice toward the structure for exclusive boundaries).
    Lateral surfaces are, per coronal slice containing both the label
    and its neighbor, the row-wise label voxel closest to the separator:
    the most lateral voxel of a medial structure and vice versa.
    """
    bside = spec.side(side)
    can, _ = reorient_to_canonical(gt)
    data = can.data
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
        idx = (ii, np.full(ii.shape, j), kk)
        return can.voxel_to_world(np.stack(idx, axis=1).astype(np.float64))

    if spec.surface != "lateral":
        raise MetricError(f"unknown surface kind {spec.surface!r}")
    pts = []
    nx = data.shape[0]
    xs_axis = can.voxel_to_world(
        np.column_stack([np.arange(nx, dtype=np.float64),
                         np.zeros(nx), np.zeros(nx)]))[:, 0]
    for j in range(data.shape[1]):
        sl_label = data[:, j, :] == bside.label
        if not sl_label.any() or not (data[:, j, :] == bside.neighbor).any():
            continue
        for k in np.unique(np.nonzero(sl_label)[1]):
            col = np.nonzero(sl_label[:, k])[0]
            absx = np.abs(xs_axis[col])
            pick = col[np.argmax(absx)] if _is_medial(bside) else col[np.argmin(absx)]
            pts.append((pick, j, int(k)))
    if not pts:
        raise MetricUndefinedError(
            f"{spec.region} (lateral, {side}): no slice contains both label "
            f"{bside.label} and neighbor {bside.neighbor}")
    return can.voxel_to_world(np.asarray(pts, dtype=np.float64))


def _is_medial(bside: BoundarySide) -> bool:
    # NAcc sits medial to Put; the medial structure's separator face is
    # its most lateral row voxel
    return bside.label in (6, 7)


def pasd(gt: Volume, pred: Volume, spec: BoundarySpec, lms: LandmarkSet,
         side: str, side_filter: bool = True) -> float:
    """One-way mean distance (mm) from the GT protocol surface to the
    predicted structure's voxels on the matching side.

    side_filter keeps predicted voxels on the structure's side of the
    landmark plane (plane slice included); pass False to use every
    predicted voxel of the label.  Lateral surfaces always use the
    whole label.  Undefined (raises) when either set is empty.
    """
    _check_aligned(pred, gt)
    bside = spec.side(side)
    surface = extract_protocol_surface(gt, spec, lms, side)
    can, _ = reorient_to_canonical(pred)
    mask = can.data == bside.label
    if side_filter and spec.surface in ("anterior", "posterior") \
            and bside.landmark in lms:
        j_lm = coronal_slice_index(can, lms[bside.landmark])
        jgrid = np.arange(mask.shape[1], dtype=np.int64)[None, :, None]
        keep = jgrid >= j_lm if spec.surface == "posterior" else jgrid <= j_lm
        mask = mask & keep
    idx = np.nonzero(mask)
    if idx[0].size == 0:
        raise MetricUndefinedError(
            f"{spec.region} ({spec.surface}, {side}): no predicted voxels of "
            f"label {bside.label} on the evaluation side")
    pred_pts = can.voxel_to_world(np.stack(idx, axis=1).astype(np.float64))
    dists, _ = cKDTree(pred_pts).query(surface, k=1)
    return float(np.mean(dists))


def _check_aligned(a: Volume, b: Volume) -> None:
    if a.dims != b.dims:
        raise MetricError(f"volume dims differ: {a.dims} vs {b.dims}")
    if not np.allclose(a.affine, b.affine, atol=1e-6):
        raise MetricError("volume affines differ beyond 1e-6")


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
    a_id, b_id = labels
    data = np.asarray(vol.data)
    if not 0 <= slice_index < data.shape[slice_axis]:
        raise MetricError(f"slice {slice_index} outside axis {slice_axis}")
    sl = np.take(data, slice_index, axis=slice_axis)
    # axes of sl: the two volume axes != slice_axis, in ascending order
    kept = [ax for ax in range(3) if ax != slice_axis]
    scan_pos = kept.index(scan_axis)
    if scan_pos != 0:
        sl = sl.T
    row_axis = kept[1 - kept.index(scan_axis)]

    a_mask = sl == a_id
    b_mask = sl == b_id
    if not a_mask.any() or not b_mask.any():
        missing = a_id if not a_mask.any() else b_id
        raise MetricUndefinedError(f"slice {slice_index} lacks label {missing}")
    scan_idx = np.arange(sl.shape[0], dtype=np.float64)[:, None]
    mean_a = float((scan_idx * a_mask).sum() / a_mask.sum())
    mean_b = float((scan_idx * b_mask).sum() / b_mask.sum())
    if mean_a == mean_b:
        raise MetricUndefinedError("labels interleave symmetrically; no scan side")
    ascending = mean_a < mean_b

    rows = []
    positions = []
    for r in range(sl.shape[1]):
        col_a = a_mask[:, r]
        col_b = b_mask[:, r]
        if not col_a.any() or not col_b.any():
            continue
        hits = np.nonzero(col_b)[0]
        first = hits[0] if ascending else hits[-1]
        rows.append(r)
        positions.append(first)
    if not rows:
        raise MetricUndefinedError(
            f"slice {slice_index}: no row contains both labels {labels}")
    pts = np.zeros((len(rows), 3), dtype=np.float64)
    pts[:, scan_axis] = positions
    pts[:, slice_axis] = slice_index
    pts[:, row_axis] = rows
    world = vol.voxel_to_world(pts)[:, scan_axis]
    return np.asarray(rows, dtype=np.int64), world


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
    per protocol boundary side.  Boundaries undefined on these volumes
    (absent labels) are skipped.
    """
    _check_aligned(pred26, gt26)
    report = MetricReport(subject)
    present = sorted(
        set(np.unique(gt26.data).tolist()) | set(np.unique(pred26.data).tolist()))
    for label in present:
        if label == 0:
            continue
        region, side = _region_side(int(label))
        report.rows.append(MetricRow(
            "dice", region, "", side, dice(pred26, gt26, int(label))))

    pred_can, _ = reorient_to_canonical(pred26)
    gt_can, _ = reorient_to_canonical(gt26)
    for spec in boundaries:
        for bside in spec.sides:
            try:
                value = pasd(gt_can, pred_can, spec, lms, bside.side)
            except MetricUndefinedError:
                continue
            report.rows.append(MetricRow(
                "pasd", spec.region, spec.surface, bside.side, value))
    for spec in boundaries:
        for bside in spec.sides:
            agg = _line_metrics_for_boundary(pred_can, gt_can, spec, bside)
            if agg is None:
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
    maes, sigmas = [], []
    n_slices = pred_can.dims[slice_axis]
    for s in range(n_slices):
        try:
            rows_p, ys_p = extract_separation_line(
                pred_can, slice_axis, s, pair, scan_axis)
            rows_g, ys_g = extract_separation_line(
                gt_can, slice_axis, s, pair, scan_axis)
        except MetricUndefinedError:
            continue
        common, ip, ig = np.intersect1d(rows_p, rows_g, return_indices=True)
        if common.size == 0:
            continue
        mae, sigma = line_metrics(ys_p[ip], ys_g[ig])
        maes.append(mae)
        sigmas.append(sigma)
    if not maes:
        return None
    return float(np.mean(maes)), float(np.mean(sigmas))
