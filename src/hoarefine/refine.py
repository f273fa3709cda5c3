"""Landmark-driven refinement of 12 fused labels into 26 fine labels.

The refinement is a fixed pipeline of deterministic geometric rules,
each anchored to anatomical point landmarks:

* a midsagittal plane through AC, PC and the prepontine fissure splits
  bilateral structures into left/right instances;
* the accumbens/putamen complex is divided by a per-slice vertical
  separator interpolated between the two contact landmarks;
* coronal extent rules truncate the putamen anteriorly (#1/#2), the
  accumbens posteriorly (#7/#8) and demote third-ventricle voxels
  anterior of #9 to CSF;
* the ventral diencephalon is split at the mammillary bodies (#11/#12);
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
    FALLBACK_PAIRS,
    FUSED_LABELS,
    LANDMARKS,
    PASS_TABLE,
    LabelError,
    LandmarkSet,
    MIDSAGITTAL_IDS,
    validate_labels,
)
from .nifti import Volume, reorient_to_canonical, round_half_away


class RuleGeometryError(Exception):
    """Landmark geometry that makes a refinement rule ill-defined."""


# 2D 4-connectivity for in-slice component labeling
_CROSS_2D = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_FULL_2D = np.ones((3, 3), dtype=bool)

_NO_BOX = (slice(0, 0),) * 3  # stands in for the box of absent labels

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
        xyz = np.asarray(xyz, dtype=np.float64)
        return (xyz - self.point) @ self.normal


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


def _world_coords(vol: Volume, idx, box) -> np.ndarray:
    """World mm of ``box``-local voxel indices, offset as integers first."""
    pts = np.empty((idx[0].size, 3))
    for axis, (a, s) in enumerate(zip(idx, box)):
        pts[:, axis] = a + s.start  # exact; one column's int64 temporary at a time
    return vol.voxel_to_world(pts)


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
    # box-local indices, in the C order of the full-volume call
    idx = np.nonzero(np.isin(vol12.data[box], list(BILATERAL_FUSED)))
    s = plane.signed_distance(_world_coords(vol12, idx, box))

    def assign(values, threshold=0.0):
        return np.where(values >= threshold, np.uint8(2), np.uint8(1))

    if not cfg.slice_adjust:
        hemi[box][idx] = assign(s)
        return hemi

    # Each slice takes the shift d whose tags match the previous
    # non-empty slice's tags at the most (i, k) positions; ties go to the
    # smaller |d|, then to the negative d.  Untagged positions hold 0 in
    # ``prev`` and so never match.
    h = vol12.spacing[0]  # lateral shift unit: one voxel width along x
    ii, jj, kk = idx
    order = np.argsort(jj, kind="stable")
    js, starts = np.unique(jj[order], return_index=True)
    prev = None
    for j, group in zip(js, np.split(order, starts[1:])):
        ci, ck, si = ii[group], kk[group], s[group]
        best_key, best_tags = None, None
        for d in (-2, -1, 0, 1, 2):
            tags = assign(si, d * h)
            agree = 0 if prev is None else np.count_nonzero(prev[ci, ck] == tags)
            key = (agree, -abs(d), -d)
            if best_key is None or key > best_key:
                best_key, best_tags = key, tags
        hemi[box][ci, j, ck] = best_tags
        prev = hemi[box][:, j, :]
    return hemi


def _slice_center_y(vol12: Volume, js: np.ndarray) -> np.ndarray:
    """Representative world y per coronal slice, at the in-plane center."""
    nx, _, nz = vol12.dims
    pts = np.broadcast_arrays((nx - 1) / 2.0, js.astype(np.float64), (nz - 1) / 2.0)
    return vol12.voxel_to_world(np.stack(pts, axis=1))[:, 1]


def _separator_x(x_ant, y_ant, x_post, y_post, ys: np.ndarray) -> np.ndarray:
    t = np.clip((ys - y_post) / (y_ant - y_post), 0.0, 1.0)
    return x_post + t * (x_ant - x_post)


def _rule_sides(partial, vol12, fused, hemi, lms, cfg, side_landmarks):
    """Yield (side, box, mask, landmark ids) for each side a rule splits.

    ``mask`` holds the side's voxels in the group's bounding box ``box``;
    the rule reads and writes ``partial[box]``.  Side 0 is left (tag 1),
    side 1 right (tag 2); ``side_landmarks[side]`` holds the ids the
    side's rule reads.  A non-empty side first gets the group's
    FALLBACK_PAIRS member, then the rule writes the voxels it moves to
    the other member.  A side whose landmarks are missing keeps the
    fallback under partial_rules and raises LabelError otherwise.
    """
    box = vol12.box((fused,)) or _NO_BOX
    in_group = vol12.data[box] == fused
    for side, (fallback, ids) in enumerate(zip(FALLBACK_PAIRS[fused], side_landmarks)):
        m = in_group & (hemi[box] == side + 1)
        if not m.any():
            continue
        partial[box][m] = fallback
        if all(i in lms for i in ids):
            yield side, box, m, ids
        elif not cfg.partial_rules:
            lms.require(ids)


def separate_nacc_putamen(
    vol12: Volume,
    lms: LandmarkSet,
    hemi: np.ndarray,
    cfg: RefinementConfig | None = None,
    partial: np.ndarray | None = None,
) -> np.ndarray:
    """Assign fused label 5 voxels to accumbens (6/7) or putamen (10/11).

    Per hemisphere and coronal slice, a vertical separator sits at the
    world x interpolated between the anterior (#3/#4) and posterior
    (#5/#6) contact landmarks by the slice's y, clamped to the nearer
    landmark outside their span.  Voxels more medial than the separator
    (|x| < |separator x|) become accumbens, the rest putamen.
    """
    cfg = cfg or RefinementConfig()
    partial = (np.zeros(vol12.dims, dtype=np.int16, order=vol12.order) if partial is None
               else partial.copy(order="K"))
    contacts = ((3, 5), (4, 6))  # (anterior, posterior) per side
    for side, box, m, (ant_id, post_id) in _rule_sides(partial, vol12, 5, hemi, lms, cfg, contacts):
        x_ant, y_ant = float(lms[ant_id][0]), float(lms[ant_id][1])
        x_post, y_post = float(lms[post_id][0]), float(lms[post_id][1])
        if not y_ant > y_post:
            raise RuleGeometryError(
                f"contact landmarks out of order: #{ant_id} y={y_ant:g} must be "
                f"anterior to #{post_id} y={y_post:g}")
        idx = np.nonzero(m)
        xs = _world_coords(vol12, idx, box)[:, 0]
        js = np.unique(idx[1])
        sep_per_slice = _separator_x(x_ant, y_ant, x_post, y_post,
                                     _slice_center_y(vol12, js + box[1].start))
        sep = sep_per_slice[np.searchsorted(js, idx[1])]
        nacc = np.abs(xs) < np.abs(sep)
        partial[box][tuple(a[nacc] for a in idx)] = (6, 7)[side]
    return partial


def _anterior_of(j: int) -> slice:
    """Coronal slices strictly anterior of slice j."""
    return slice(max(j + 1, 0), None)  # a negative start would wrap


def apply_coronal_extents(
    partial: np.ndarray,
    vol12: Volume,
    lms: LandmarkSet,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Coronal truncation rules on the partial fine labels.

    (i) putamen strictly anterior of the #1/#2 slice becomes accumbens;
    (ii) accumbens strictly posterior of the #7/#8 slice becomes
    putamen; (iii) third-ventricle voxels strictly anterior of the #9
    slice are demoted to CSF (fine id 3).  The landmark slice itself
    keeps its label.  Idempotent: a second application changes nothing.
    """
    cfg = cfg or RefinementConfig()
    partial = partial.copy(order="K")
    # (put id, nacc id, anterior landmark, posterior landmark) per side
    for put_id, nacc_id, lm_ant, lm_post in ((10, 6, 1, 7), (11, 7, 2, 8)):
        j_ant = coronal_slice_index(vol12, lms[lm_ant]) if lm_ant in lms else None
        j_post = coronal_slice_index(vol12, lms[lm_post]) if lm_post in lms else None
        if j_ant is None or j_post is None:
            if not cfg.partial_rules:
                lms.require((lm_ant, lm_post))
        elif j_ant < j_post:
            raise RuleGeometryError(
                f"extent landmarks out of order: #{lm_ant} slice {j_ant} is "
                f"posterior to #{lm_post} slice {j_post}; rules (i)/(ii) conflict")
        if j_ant is not None:
            view = partial[:, _anterior_of(j_ant)]
            view[view == put_id] = nacc_id
        if j_post is not None:  # slices strictly posterior of j_post
            view = partial[:, :max(j_post, 0)]
            view[view == nacc_id] = put_id

    if 9 in lms:
        ant = _anterior_of(coronal_slice_index(vol12, lms[9]))
        partial[:, ant][vol12.data[:, ant] == 3] = 3
    elif not cfg.partial_rules:
        lms.require((9,))
    return partial


def split_vdc(
    partial: np.ndarray,
    vol12: Volume,
    lms: LandmarkSet,
    hemi: np.ndarray,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Divide fused label 12 at each hemisphere's mammillary body slice.

    Voxels strictly anterior of the #11/#12 slice become the anterior
    part (23/24); the slice itself and everything posterior become the
    posterior part (25/26).
    """
    cfg = cfg or RefinementConfig()
    partial = partial.copy(order="K")
    for side, box, m, (lm_id,) in _rule_sides(partial, vol12, 12, hemi, lms, cfg, ((11,), (12,))):
        j_mb = coronal_slice_index(vol12, lms[lm_id]) - box[1].start  # box-local
        ant = _anterior_of(j_mb)
        partial[box][:, ant][m[:, ant]] = (23, 24)[side]
    return partial


def split_lv_ih(
    partial: np.ndarray,
    vol12: Volume,
    lms: LandmarkSet,
    hemi: np.ndarray,
    cfg: RefinementConfig | None = None,
) -> np.ndarray:
    """Separate the inferior horn (17/18) from the lateral ventricle (1/2).

    Per hemisphere, fused label 1 voxels at or posterior to the #13/#14
    slice stay lateral ventricle.  Anterior slices are partitioned into
    2D 4-connected components; the horn is grown slice by slice as the
    inferior-most component 26-adjacent to the horn voxels of the
    previous slice, seeded at the first non-empty anterior slice by the
    component nearest the landmark's (x, z).  A slice with no adjacent
    component ends the chain; everything else stays lateral ventricle.
    """
    import scipy.ndimage as ndi

    cfg = cfg or RefinementConfig()
    partial = partial.copy(order="K")
    for side, box, m, (lm_id,) in _rule_sides(partial, vol12, 1, hemi, lms, cfg, ((13,), (14,))):
        j_ih = coronal_slice_index(vol12, lms[lm_id]) - box[1].start  # box-local
        lm_x, _, lm_z = (float(v) for v in lms[lm_id])
        prev_ih = None
        # slices outside the box are empty: the chain has not started or ends
        for j in range(max(j_ih + 1, 0), m.shape[1]):
            sl = m[:, j, :]
            if not sl.any():
                if prev_ih is not None:
                    break  # a gap breaks 26-connectivity
                continue
            comps, n = ndi.label(sl, structure=_CROSS_2D)
            if prev_ih is None:
                ids = np.arange(1, n + 1)
                w = _centroids_world(vol12, comps, ids, box, j)
                pick = ids[np.argmin(np.hypot(w[:, 0] - lm_x, w[:, 2] - lm_z))]
            else:
                reach = ndi.binary_dilation(prev_ih, structure=_FULL_2D)
                ids = np.unique(comps[reach & (comps > 0)])
                if ids.size == 0:
                    break
                pick = ids[np.argmin(_centroids_world(vol12, comps, ids, box, j)[:, 2])]
            prev_ih = comps == pick
            partial[box][:, j, :][prev_ih] = (17, 18)[side]
    return partial


def _centroids_world(vol12: Volume, comps, ids, box, j: int) -> np.ndarray:
    """World centroids, shape (len(ids), 3), of components ``ids`` of
    ``comps``, the crop of ``box``-local slice j.

    The index sums, box offset included, are integers and so exact in
    float64.  Each centroid is mapped on its own because a batched
    matrix product may round differently from the single-point one, and
    ties between candidates must break the same way whatever their number.
    """
    ii, kk = np.nonzero(comps)
    lab = comps[ii, kk]
    count = np.bincount(lab)[ids]
    ci = np.bincount(lab, weights=ii + box[0].start)[ids] / count
    ck = np.bincount(lab, weights=kk + box[2].start)[ids] / count
    return np.array([vol12.voxel_to_world((a, float(j + box[1].start), b))
                     for a, b in zip(ci, ck)])


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
    # member; the landmark rules below then move voxels within their group
    fg = can.box(FUSED_LABELS) or _NO_BOX
    partial = np.zeros(data.shape, dtype=np.int16, order=can.order)
    partial[fg] = PASS_TABLE[hemi[fg], data[fg]]

    partial = separate_nacc_putamen(can, lms, hemi, cfg, partial=partial)
    partial = apply_coronal_extents(partial, can, lms, cfg)
    partial = split_vdc(partial, can, lms, hemi, cfg)
    partial = split_lv_ih(partial, can, lms, hemi, cfg)

    if not np.array_equal(partial[fg] != 0, data[fg] != 0):
        raise AssertionError("refinement changed the foreground mask")

    return Volume(amap.invert(partial), vol12.affine, taxonomy="fine26")
