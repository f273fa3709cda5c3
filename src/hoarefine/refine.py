"""Landmark-driven refinement of 12 fused labels into 26 fine labels.

The refinement is a fixed pipeline of deterministic geometric rules,
each anchored to anatomical point landmarks:

* a midsagittal plane through AC, PC and the prepontine fissure splits
  bilateral structures into left/right instances;
* the accumbens/putamen complex is divided by a per-slice vertical
  separator interpolated between the two contact landmarks;
* the coronal rules of ``labels.CORONAL_RULES`` truncate the putamen
  anteriorly (#1/#2) and the accumbens posteriorly (#7/#8), demote
  third-ventricle voxels anterior of #9 to CSF and split the ventral
  diencephalon at the mammillary bodies (#11/#12);
* the inferior horn is carved out of the lateral ventricle anterior to
  #13/#14 by a seeded per-slice connected-component chase.

All geometry is evaluated in the canonical RAS frame (+x right,
+y anterior, +z superior); coronal slices are constant-j planes there.
A landmark's coronal slice index is the round-half-away-from-zero of
its continuous voxel j coordinate, and all slice comparisons happen in
index space after that snapping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .labels import (
    BILATERAL_FUSED,
    CORONAL_RULES,
    FALLBACK_PAIRS,
    FUSE_LUT,
    FUSED_LABELS,
    LANDMARKS,
    PASS_TABLE,
    LabelError,
    LandmarkSet,
    MIDSAGITTAL_IDS,
    validate_labels,
)
from .nifti import Volume, _world_axis, reorient_to_canonical, round_half_away


class RuleGeometryError(Exception):
    """Landmark geometry that makes a refinement rule ill-defined."""


_NO_BOX = (slice(0, 0),) * 3  # stands in for the box of absent labels
# planes per step of refine_full's start lookup: its uint8 index stays small
_GATHER_PLANES = 8
# PASS_TABLE as one flat byte table: (tag, fused) sits at tag * _ROW + fused,
# at most 2 * 13 + 12, so the index fits a uint8
_ROW = PASS_TABLE.shape[1]
_START = PASS_TABLE.astype(np.uint8).ravel()

_BOOL_SPELLINGS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                   **dict.fromkeys(("0", "false", "no", "off"), False)}


@dataclass(frozen=True)
class Plane:
    """Oriented plane in world mm: side = sign((v - point) . normal)."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        point = np.asarray(self.point, dtype=np.float64)
        normal = np.asarray(self.normal, dtype=np.float64)
        n = float(np.linalg.norm(normal))
        if abs(n - 1.0) > 1e-12:
            normal = normal / n
        point.setflags(write=False)
        normal.setflags(write=False)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "normal", normal)

    def signed_distance(self, xyz) -> np.ndarray:
        """(x - p0)*n0 + (y - p1)*n1 + (z - p2)*n2 for each row of ``xyz``,
        summed left to right with no matrix product, so a row's value
        depends neither on the other rows nor on the BLAS build."""
        x, y, z = np.moveaxis(np.asarray(xyz, dtype=np.float64), -1, 0)
        p, n = self.point, self.normal
        return (x - p[0]) * n[0] + (y - p[1]) * n[1] + (z - p[2]) * n[2]


@dataclass(frozen=True)
class RefinementConfig:
    """The two switches of the refinement protocol; the rules are fixed.

    slice_adjust: let the hemisphere dividing line shift laterally up
        to 2 voxels per coronal slice to agree with the previous slice.
    partial_rules: allow incomplete landmark sets; splits whose
        landmarks are missing fall back to the dominant member.
    """

    slice_adjust: bool = False
    partial_rules: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, bool):
                raise ValueError(f"{f.name}: expected a boolean, got {value!r}")

    @classmethod
    def from_mapping(cls, mapping) -> "RefinementConfig":
        """Build a config from a mapping; strings such as "yes" or "off" spell booleans."""
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            name = str(key).strip().replace("-", "_")
            if name not in names:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(value, str):
                value = _BOOL_SPELLINGS.get(value.strip().lower(), value)
            kwargs[name] = value
        return cls(**kwargs)


def coronal_slice_index(vol: Volume, point) -> int:
    """Snap a world point to its coronal slice index in this volume."""
    j = vol.world_to_voxel(point)[1]
    return int(round_half_away(j))


def build_midsagittal_plane(lms: LandmarkSet) -> Plane:
    """Plane through AC (#10), PC (#15) and PPF (#16), normal toward +x."""
    lms.require(MIDSAGITTAL_IDS)
    ac, pc, ppf = lms[10], lms[15], lms[16]
    cross = np.cross(pc - ac, ppf - ac)
    area = 0.5 * float(np.linalg.norm(cross))
    if area <= 1e-6:
        raise RuleGeometryError(
            f"AC/PC/PPF nearly collinear (triangle area {area:g} mm^2); "
            "no midsagittal plane is defined")
    normal = cross / np.linalg.norm(cross)
    if normal[0] == 0.0:
        raise RuleGeometryError(
            "midsagittal normal has no left-right component; "
            "plane cannot separate hemispheres")
    if normal[0] < 0:
        normal = -normal
    return Plane(ac, normal)


def split_hemispheres(
    vol12: Volume,
    plane: Plane,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Tag voxels by hemisphere: 0 untagged, 1 left, 2 right.

    Every voxel of a bilateral fused label is tagged; midline structures
    stay untagged.  Right is the non-negative side of the plane, the
    plane itself included.  With slice_adjust on, the dividing threshold
    of each coronal slice may move laterally up to 2 voxel widths to
    maximize agreement with the previous slice's assignment, sweeping
    posterior to anterior.
    """
    cfg = cfg or RefinementConfig()
    hemi = np.zeros(vol12.dims, dtype=np.uint8, order=vol12.order)
    box = vol12.box(BILATERAL_FUSED) or _NO_BOX
    h = vol12.spacing[0]  # lateral shift unit: one voxel width along x
    shifts = (-2, -1, 0, 1, 2) if cfg.slice_adjust else (0,)
    # Each slice takes the shift d whose tags match the previous
    # non-empty slice's tags at the most (i, k) positions; ties go to the
    # smaller |d|, then to the negative d.  Untagged positions hold 0 in
    # ``prev`` and so never match: shift d, tagging right (2) where
    # s >= d * h, matches count(ge & right) + count(left) - count(ge & left).
    data, out, bilateral = vol12.data[box], hemi[box], list(BILATERAL_FUSED)
    prev = None
    for j in range(data.shape[1]):
        ci, ck = np.nonzero(np.isin(data[:, j, :], bilateral))
        if ci.size == 0:
            continue
        ijk = (ci + box[0].start, j + box[1].start, ck + box[2].start)
        xyz = np.stack([_world_axis(vol12.affine, c, *ijk) for c in range(3)], axis=1)
        s = plane.signed_distance(xyz)
        best = 0
        if prev is not None and len(shifts) > 1:
            tagged = prev[ci, ck]
            left, right = tagged == 1, tagged == 2
            n_left = np.count_nonzero(left)

            def key(d):
                ge = s >= d * h
                agree = np.count_nonzero(ge & right) + n_left - np.count_nonzero(ge & left)
                return agree, -abs(d), -d
            best = max(shifts, key=key)
        prev = out[:, j, :]
        prev[ci, ck] = np.where(s >= best * h, np.uint8(2), np.uint8(1))
    return hemi


def _separator_x(x_ant, y_ant, x_post, y_post, ys: np.ndarray) -> np.ndarray:
    t = np.clip((ys - y_post) / (y_ant - y_post), 0.0, 1.0)
    return x_post + t * (x_ant - x_post)


def _rule_sides(partial, vol12, fused, lms, cfg, side_landmarks):
    """Yield (side, box, mask, landmark ids) for each side a rule splits.

    ``mask`` holds the voxels of ``partial[box]`` at the side's fallback
    member of group ``fused``, ``box`` being the group's bounding box;
    the rule writes ``partial[box]``.  Side 0 is left, side 1 right;
    ``side_landmarks[side]`` holds the ids the side's rule reads.  A side
    whose landmarks are missing keeps the fallback under partial_rules
    and raises LabelError otherwise.
    """
    box = vol12.box((fused,)) or _NO_BOX
    for side, ids in enumerate(side_landmarks):
        m = partial[box] == FALLBACK_PAIRS[fused][side]
        if not m.any():
            continue
        if all(i in lms for i in ids):
            yield side, box, m, ids
        elif not cfg.partial_rules:
            lms.require(ids)


def separate_nacc_putamen(
    vol12: Volume,
    lms: LandmarkSet,
    cfg: RefinementConfig | None = None,
    *,
    partial: np.ndarray,
) -> np.ndarray:
    """Assign fused label 5 voxels to accumbens (6/7) or putamen (10/11).

    Per hemisphere and coronal slice, a vertical separator sits at the
    world x interpolated between the anterior (#3/#4) and posterior
    (#5/#6) contact landmarks by the slice's y, clamped to the nearer
    landmark outside their span.  Voxels medial of the separator (x above
    it on the left, below it on the right, wherever the subject sits in
    the world) become accumbens, the rest putamen.  Each side reads its
    voxels from ``partial``, where they hold putamen (10/11).
    """
    cfg = cfg or RefinementConfig()
    partial = partial.copy(order="K")
    contacts = ((3, 5), (4, 6))  # (anterior, posterior) per side
    for side, box, m, (ant_id, post_id) in _rule_sides(partial, vol12, 5, lms, cfg, contacts):
        x_ant, y_ant = float(lms[ant_id][0]), float(lms[ant_id][1])
        x_post, y_post = float(lms[post_id][0]), float(lms[post_id][1])
        if not y_ant > y_post:
            raise RuleGeometryError(
                f"contact landmarks out of order: #{ant_id} y={y_ant:g} must be "
                f"anterior to #{post_id} y={y_post:g}")
        idx = np.nonzero(m)
        xs = _world_axis(vol12.affine, 0, *(a + s.start for a, s in zip(idx, box)))
        js = np.arange(box[1].start, box[1].stop)
        nx, _, nz = vol12.dims  # each box slice's y at its in-plane centre
        ys = _world_axis(vol12.affine, 1, (nx - 1) / 2, js, (nz - 1) / 2)
        sep = _separator_x(x_ant, y_ant, x_post, y_post, ys)[idx[1]]
        nacc = xs > sep if side == 0 else xs < sep  # medial: toward +x on the left
        partial[box][tuple(a[nacc] for a in idx)] = (6, 7)[side]
    return partial


def _apply_coronal_rules(partial, vol12, lms, cfg, vdc: bool) -> np.ndarray:
    """A copy of ``partial`` with the CORONAL_RULES rows of the VDC group
    (``vdc``) or of the others applied in their group's box.  A row whose
    landmark is absent is skipped under partial_rules, else LabelError."""
    partial = partial.copy(order="K")
    for src, dst, lm_id, anterior in CORONAL_RULES:
        if (FUSE_LUT[src] == 12) != vdc or (lm_id not in lms and cfg.partial_rules):
            continue
        lms.require((lm_id,))  # names it when missing
        box = vol12.box((FUSE_LUT[src],)) or _NO_BOX
        j = coronal_slice_index(vol12, lms[lm_id]) - box[1].start  # box-local
        # the slices strictly beyond j; a negative bound would wrap
        view = partial[box][:, max(j + 1, 0):] if anterior else partial[box][:, :max(j, 0)]
        view[view == src] = dst
    return partial


def apply_coronal_extents(
    partial: np.ndarray,
    vol12: Volume,
    lms: LandmarkSet,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Coronal truncation rules (i)-(iii), the CORONAL_RULES rows outside
    the VDC group: putamen strictly anterior of the #1/#2 slice becomes
    accumbens, accumbens strictly posterior of #7/#8 putamen, and third
    ventricle strictly anterior of #9 CSF; the landmark slice keeps its
    label.  Idempotent."""
    cfg = cfg or RefinementConfig()
    for lm_ant, lm_post in ((1, 7), (2, 8)):  # per side, left first
        if lm_ant in lms and lm_post in lms:
            j_ant, j_post = (coronal_slice_index(vol12, lms[i]) for i in (lm_ant, lm_post))
            if j_ant < j_post:
                raise RuleGeometryError(
                    f"extent landmarks out of order: #{lm_ant} slice {j_ant} is "
                    f"posterior to #{lm_post} slice {j_post}; rules (i)/(ii) conflict")
        elif not cfg.partial_rules:
            lms.require((lm_ant, lm_post))
    return _apply_coronal_rules(partial, vol12, lms, cfg, vdc=False)


def split_vdc(
    partial: np.ndarray,
    vol12: Volume,
    lms: LandmarkSet,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Divide fused label 12 at each hemisphere's mammillary body slice,
    the CORONAL_RULES rows of the VDC group: voxels strictly anterior of
    the #11/#12 slice turn from the posterior part (25/26), where
    ``refine_full`` starts them, to the anterior part (23/24)."""
    return _apply_coronal_rules(partial, vol12, lms, cfg or RefinementConfig(), vdc=True)


def split_lv_ih(
    partial: np.ndarray,
    vol12: Volume,
    lms: LandmarkSet,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Separate the inferior horn (17/18) from the lateral ventricle (1/2).

    Per hemisphere, ventricle voxels (1/2) at or posterior to the #13/#14
    slice stay lateral ventricle.  Anterior slices are partitioned into
    2D 4-connected components; the horn is grown slice by slice as the
    inferior-most component 26-adjacent to the horn voxels of the
    previous slice, seeded at the first non-empty anterior slice by the
    component nearest the landmark's (x, z).  A slice with no adjacent
    component ends the chain; everything else stays lateral ventricle.
    """
    cfg = cfg or RefinementConfig()
    partial = partial.copy(order="K")
    for side, box, m, (lm_id,) in _rule_sides(partial, vol12, 1, lms, cfg, ((13,), (14,))):
        j0 = max(coronal_slice_index(vol12, lms[lm_id]) - box[1].start + 1, 0)  # box-local
        ik = m[:, j0:].any(axis=1)
        if not ik.any():
            continue  # no slice anterior of the landmark's holds the side
        # crop to the side's own i and k range on those slices: raster order
        # within the crop is the box's, so component ids, ties and centroids
        # stay the same
        (i0, i1), (k0, k1) = (np.flatnonzero(ik.any(axis=a))[[0, -1]] + (0, 1) for a in (1, 0))
        m = m[i0:i1, j0:, k0:k1]
        box = tuple(slice(b.start + a, b.start + a + n) for b, a, n in zip(box, (i0, j0, k0), m.shape))
        lm_x, _, lm_z = (float(v) for v in lms[lm_id])
        # all slices labelled in one call: stacked along i with a zero row
        # after each, so no component crosses a slice and the ids run slice
        # by slice, each slice's in its own raster order
        ni, nj, nk = m.shape
        stack = np.zeros((nj, ni + 1, nk), dtype=bool)
        stack[:, :ni] = m.transpose(1, 0, 2)
        comps = _components_4(stack.reshape(-1, nk))[0].reshape(stack.shape)
        wx, wz, last = _centroids_world(vol12, stack, comps, box)
        prev_ih = None
        for j in range(nj):
            lo, hi = last[j - 1] if j else 0, last[j]  # the slice's ids: lo + 1 .. hi
            if lo == hi:
                if prev_ih is not None:
                    break  # a gap breaks 26-connectivity
                continue
            sl = comps[j, :ni]
            if prev_ih is None:
                ids = np.arange(lo + 1, hi + 1)
                pick = ids[np.argmin(np.hypot(wx[ids - 1] - lm_x, wz[ids - 1] - lm_z))]
            else:
                ids = np.unique(sl[_dilate_3x3(prev_ih) & (sl > 0)])
                if ids.size == 0:
                    break
                pick = ids[np.argmin(wz[ids - 1])]
            prev_ih = sl == pick
            partial[box][:, j, :][prev_ih] = (17, 18)[side]
    return partial


def _components_4(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2D bool mask: (int32 label image, count).

    Components are numbered from 1 in C raster order of their first
    voxel, whatever the memory layout of ``mask``.  Runs along axis 1
    are joined when they share a column in adjacent rows; the
    lowest-numbered run of each component, its first in raster order,
    is its root.
    """
    n0, n1 = mask.shape
    w = n1 + 2  # a zero column on each side keeps runs within their row
    padded = np.zeros((n0, w), dtype=np.int8)
    padded[:, 1:-1] = mask
    edge = np.diff(padded.ravel())  # +1 before a run's first voxel, -1 before one past its last
    # each run as the flat index range [start, stop) of ``padded``, in raster order
    start = np.flatnonzero(edge == 1) + 1
    stop = np.flatnonzero(edge == -1) + 1
    comps = np.zeros((n0, n1), dtype=np.int32)
    if start.size == 0:
        return comps, 0
    # the runs that share a column with a run one row down, [start - w,
    # stop - w) shifted up, form the index range [lo, hi)
    lo = np.searchsorted(stop, start - w, side="right")
    hi = np.searchsorted(start, stop - w, side="left")
    count = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(start.size), count)
    # lo, lo + 1, ..., hi - 1 for each run of ``below``
    above = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    # hook the larger root of every joined pair onto the smaller, then
    # compress paths, until each pair shares its root
    root = np.arange(start.size)
    while True:
        ra, rb = root[above], root[below]
        apart = ra != rb
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while not np.array_equal(root[root], root):
            root = root[root]
    roots, run_label = np.unique(root, return_inverse=True)
    comps[mask] = np.repeat(run_label + 1, stop - start)  # mask voxels in raster order
    return comps, roots.size


def _dilate_3x3(mask: np.ndarray) -> np.ndarray:
    """Binary dilation of a 2D mask by a full 3x3 square, zero outside."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    rows = padded[:, :-2] | padded[:, 1:-1] | padded[:, 2:]
    return rows[:-2] | rows[1:-1] | rows[2:]


def _centroids_world(vol12: Volume, stack, comps, box) -> tuple:
    """``(x, z, last)``: the world x and z of each component's centroid,
    indexed by id - 1, and the last id of each slice.  ``comps`` labels
    ``stack``, the ``box``-local slices stacked (slice, i, k), with ids
    that run slice by slice.

    The index sums, box offset included, are integers, exact in float64.
    """
    at = np.flatnonzero(stack)
    lab = comps.ravel()[at] - 1
    jj, at = np.divmod(at, stack[0].size)
    ii, kk = np.divmod(at, stack.shape[2])
    count = np.bincount(lab)
    cj = np.empty(count.size, dtype=np.int64)
    cj[lab] = jj  # each component's slice, non-decreasing in its id
    ci = np.bincount(lab, weights=ii + box[0].start) / count
    ck = np.bincount(lab, weights=kk + box[2].start) / count
    world = (_world_axis(vol12.affine, c, ci, cj + box[1].start, ck) for c in (0, 2))
    return *world, np.searchsorted(cj, np.arange(len(stack)), "right")


def refine_full(
    vol12: Volume,
    lms: LandmarkSet,
    cfg: RefinementConfig | None = None,
) -> Volume:
    """Refine a fused 12-label volume into the fine 26-label taxonomy.

    The output has the same grid, affine and foreground mask as the
    input; voxels only ever move between labels.  Fusing the result
    reproduces the input except where the third-ventricle exclusion
    moved fluid into CSF (a cross-group reassignment by design).
    """
    cfg = cfg or RefinementConfig()
    if vol12.taxonomy == "fine26":
        raise LabelError("refine_full expects the fused 12-label taxonomy")
    if not vol12.is_label:
        raise LabelError(f"refine_full needs integer labels, got {vol12.data.dtype}")
    validate_labels(vol12.data, "fused12")
    lms.require(MIDSAGITTAL_IDS)
    if not cfg.partial_rules:
        lms.require(LANDMARKS.keys())

    can, amap = reorient_to_canonical(vol12)
    plane = build_midsagittal_plane(lms)
    data = can.data
    hemi = split_hemispheres(can, plane, cfg)
    # every foreground voxel starts at its group's hemisphere (or midline)
    # member; the landmark rules below then move voxels within their
    # group.  Fine ids fit one byte, so the working partial is uint8.
    fg = can.box(FUSED_LABELS) or _NO_BOX
    partial = np.zeros(data.shape, dtype=np.uint8, order=can.order)
    # the start lookup walks slabs of partial's slowest-varying axis, the
    # first axis of ``slow``'s view, each through one uint8 index
    slow = np.transpose if can.order == "F" else np.asarray
    p, h, d = (slow(a[fg]) for a in (partial, hemi, data))
    idx = np.empty((min(_GATHER_PLANES, len(p)), *p.shape[1:]), dtype=np.uint8)
    for a in range(0, len(p), _GATHER_PLANES):
        b = min(a + _GATHER_PLANES, len(p))
        i = idx[:b - a]
        np.multiply(h[a:b], _ROW, out=i)
        np.add(i, d[a:b], out=i, dtype=np.uint8, casting="unsafe")
        np.take(_START, i, out=p[a:b], mode="clip")
    del hemi, h, p, idx  # each voxel's side is in its fine id from here on

    partial = separate_nacc_putamen(can, lms, cfg, partial=partial)
    partial = apply_coronal_extents(partial, can, lms, cfg)
    partial = split_vdc(partial, can, lms, cfg)
    partial = split_lv_ih(partial, can, lms, cfg)

    if not np.array_equal(partial[fg] != 0, data[fg] != 0):
        raise AssertionError("refinement changed the foreground mask")

    # a fresh int16 array laid out as the stored-frame view of partial
    return Volume._own(amap.invert(partial).astype(np.int16), vol12.affine,
                       taxonomy="fine26")
