"""Independent reference implementations used to cross-check the metrics.

Everything here is written the slow, obvious way: explicit loops,
full pairwise distance matrices, and literal enumeration of sign
assignments.  None of it shares code with the package beyond the
Volume container, except that the phantom audit reference checks the
landmarks and raises as the package's audit does.
"""

import itertools
import math

import numpy as np

from hoarefine.labels import validate_landmarks
from hoarefine.phantom import N, PhantomError


def _snap(v):
    # round half away from zero
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def _grid(vol):
    spacing = np.diag(vol.affine)[:3]
    origin = vol.affine[:3, 3]
    return spacing, origin


def _world(vol, i, j, k):
    sp, o = _grid(vol)
    return (o[0] + sp[0] * i, o[1] + sp[1] * j, o[2] + sp[2] * k)


def brute_dice(pred, gt, label):
    p = 0
    g = 0
    both = 0
    for a, b in zip(pred.data.ravel().tolist(), gt.data.ravel().tolist()):
        pa = a == label
        gb = b == label
        p += pa
        g += gb
        both += pa and gb
    if p + g == 0:
        return 1.0
    return 2.0 * both / (p + g)


def _brute_surface(gt, spec, lms, side):
    """Surface voxel centers in world mm, or None when undefined."""
    bs = spec.side(side)
    sp, o = _grid(gt)
    data = gt.data
    nx, ny, nz = data.shape
    pts = []
    if spec.surface in ("anterior", "posterior"):
        if bs.landmark not in lms:
            return None
        j = _snap((float(lms[bs.landmark][1]) - o[1]) / sp[1])
        if bs.exclusive:
            j = j + 1 if spec.surface == "posterior" else j - 1
        if not 0 <= j < ny:
            return None
        for i in range(nx):
            for k in range(nz):
                if data[i, j, k] == bs.label:
                    pts.append(_world(gt, i, j, k))
        return np.asarray(pts) if pts else None

    medial = bs.label in (6, 7)
    for j in range(ny):
        sl = data[:, j, :]
        if not (sl == bs.label).any() or not (sl == bs.neighbor).any():
            continue
        for k in range(nz):
            col = [i for i in range(nx) if sl[i, k] == bs.label]
            if not col:
                continue
            lateral = [(o[0] + sp[0] * i) * (-1 if side == "left" else 1) for i in col]
            pick = col[lateral.index(max(lateral) if medial else min(lateral))]
            pts.append(_world(gt, pick, j, k))
    return np.asarray(pts) if pts else None


def brute_pasd(gt, pred, spec, lms, side, side_filter=True):
    """One-way mean surface distance, or None when undefined."""
    surface = _brute_surface(gt, spec, lms, side)
    if surface is None:
        return None
    bs = spec.side(side)
    sp, o = _grid(pred)
    j_lm = None
    if side_filter and spec.surface in ("anterior", "posterior") \
            and bs.landmark in lms:
        j_lm = _snap((float(lms[bs.landmark][1]) - o[1]) / sp[1])
    pts = []
    nx, ny, nz = pred.data.shape
    for i in range(nx):
        for j in range(ny):
            if j_lm is not None:
                if spec.surface == "posterior" and j < j_lm:
                    continue
                if spec.surface == "anterior" and j > j_lm:
                    continue
            for k in range(nz):
                if pred.data[i, j, k] == bs.label:
                    pts.append(_world(pred, i, j, k))
    if not pts:
        return None
    pred_pts = np.asarray(pts)
    diff = surface[:, None, :] - pred_pts[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
    return float(dists.mean())


def brute_separation_line(vol, slice_axis, slice_index, labels, scan_axis):
    """(rows, world positions) of the A->B transition, or None."""
    a_id, b_id = labels
    sp, o = _grid(vol)
    sl = np.take(vol.data, slice_index, axis=slice_axis)
    kept = [ax for ax in range(3) if ax != slice_axis]
    if kept.index(scan_axis) != 0:
        sl = sl.T
    row_axis = kept[1 - kept.index(scan_axis)]

    a_pos = [i for i in range(sl.shape[0]) for r in range(sl.shape[1])
             if sl[i, r] == a_id]
    b_pos = [i for i in range(sl.shape[0]) for r in range(sl.shape[1])
             if sl[i, r] == b_id]
    if not a_pos or not b_pos:
        return None
    mean_a = sum(a_pos) / len(a_pos)
    mean_b = sum(b_pos) / len(b_pos)
    if mean_a == mean_b:
        return None
    ascending = mean_a < mean_b

    rows, positions = [], []
    for r in range(sl.shape[1]):
        col_a = [i for i in range(sl.shape[0]) if sl[i, r] == a_id]
        col_b = [i for i in range(sl.shape[0]) if sl[i, r] == b_id]
        if not col_a or not col_b:
            continue
        idx = min(col_b) if ascending else max(col_b)
        rows.append(r)
        positions.append(o[scan_axis] + sp[scan_axis] * idx)
    if not rows:
        return None
    return np.asarray(rows), np.asarray(positions)


def brute_line_stats(pred_pos, gt_pos):
    n = len(pred_pos)
    mae = math.fsum(abs(a - b) for a, b in zip(pred_pos, gt_pos)) / n
    mean = math.fsum(pred_pos) / n
    var = math.fsum((a - mean) ** 2 for a in pred_pos) / n
    return mae, math.sqrt(var)


def _average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def brute_wilcoxon(a, b):
    """(W+, two-sided exact p) by enumerating every sign assignment."""
    d = [float(x) - float(y) for x, y in zip(a, b)]
    d = [v for v in d if v != 0.0]
    n = len(d)
    ranks = _average_ranks([abs(v) for v in d])
    w_plus = math.fsum(r for v, r in zip(d, ranks) if v > 0)
    mu = n * (n + 1) / 4.0
    dev = abs(w_plus - mu)
    extreme = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = math.fsum(r for s, r in zip(signs, ranks) if s > 0)
        if abs(w - mu) >= dev - 1e-9:
            extreme += 1
    return w_plus, extreme / 2.0 ** n


def mask_check_phantom(vol, lms, sp, c):
    """The phantom audit the slow way: one whole-volume mask per rule and
    per hemisphere, raising the package audit's messages."""
    issues = validate_landmarks(lms, vol)
    if issues:
        raise PhantomError("landmark validation failed: " + "; ".join(issues))
    data = vol.data

    def snap_j(lid):
        return _snap(lms[lid][1] / sp + c)

    jgrid = np.arange(N)[None, :, None]
    checks = [
        ((data == 10) & (jgrid > snap_j(1)), "left putamen anterior of #1"),
        ((data == 11) & (jgrid > snap_j(2)), "right putamen anterior of #2"),
        ((data == 6) & (jgrid < snap_j(7)), "left accumbens posterior of #7"),
        ((data == 7) & (jgrid < snap_j(8)), "right accumbens posterior of #8"),
        ((data == 4) & (jgrid > snap_j(9)), "third ventricle anterior of #9"),
        ((data == 23) & (jgrid <= snap_j(11)), "left anterior VDC at/behind #11"),
        ((data == 25) & (jgrid > snap_j(11)), "left posterior VDC anterior of #11"),
        ((data == 24) & (jgrid <= snap_j(12)), "right anterior VDC at/behind #12"),
        ((data == 26) & (jgrid > snap_j(12)), "right posterior VDC anterior of #12"),
        ((data == 17) & (jgrid <= snap_j(13)), "left inferior horn at/behind #13"),
        ((data == 18) & (jgrid <= snap_j(14)), "right inferior horn at/behind #14"),
    ]
    for mask, what in checks:
        if mask.any():
            raise PhantomError(f"rule inconsistency: {what}")

    plane_x = float(lms[10][0])
    xs = (np.arange(N, dtype=np.float64) - c) * sp - plane_x
    left_cols = np.isin(data, (1, 6, 8, 10, 12, 15, 17, 19, 21, 23, 25)).any(axis=(1, 2))
    right_cols = np.isin(data, (2, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26)).any(axis=(1, 2))
    if left_cols.any() and xs[left_cols].max() > -0.4 * sp:
        raise PhantomError("left-hemisphere label too close to the midline")
    if right_cols.any() and xs[right_cols].min() < 0.4 * sp:
        raise PhantomError("right-hemisphere label too close to the midline")
