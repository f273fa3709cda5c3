"""Reference refinement: the pass-by-pass implementation, kept for tests.

``refine_full`` here builds the partial fine-label map the long way: one
full-volume mask per hemisphere pair, per-stage copies of the
partial-rules fallback, a dict-based ``slice_adjust`` sweep and a
per-component centroid search in the inferior-horn chase.  The package
implementation is table-driven; the differential tests in
``test_refine_differential.py`` require both to agree byte for byte.
Shared pieces that are not refinement passes (plane, slice snapping,
reorientation) are imported from the package.

The reference rules read seven conventions from ``ReferenceConfig``.
Five are fixed at the protocol's values, which the package hard-codes;
``slice_adjust`` and ``partial_rules`` come from the package
``RefinementConfig`` each function is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi

from hoarefine.labels import (
    BILATERAL_FUSED,
    HEMI_PAIRS,
    LANDMARKS,
    LabelError,
    LandmarkSet,
    MIDSAGITTAL_IDS,
    validate_labels,
)
from hoarefine.nifti import Volume, reorient_to_canonical
from hoarefine.refine import (
    Plane,
    RefinementConfig,
    RuleGeometryError,
    build_midsagittal_plane,
    coronal_slice_index,
)

_CROSS_2D = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_FULL_2D = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class ReferenceConfig:
    """Conventions of the reference rules, at the protocol's values.

    separator_mode: accumbens/putamen separator placement per slice,
        "linear" (interpolated between contacts), "anterior" or
        "posterior" (constant at that contact's x).
    third_ventricle_target: fine id that anterior third-ventricle
        voxels are demoted to.
    midline_right_inclusive: voxels exactly on the midsagittal plane
        count as right.
    extent_strict: coronal extent rules leave the landmark slice
        itself untouched (strict inequality).
    vdc_anterior_strict: the mammillary slice belongs to the posterior
        VDC part.
    """

    separator_mode: str = "linear"
    slice_adjust: bool = False
    third_ventricle_target: int = 3
    midline_right_inclusive: bool = True
    extent_strict: bool = True
    vdc_anterior_strict: bool = True
    partial_rules: bool = False


def _conventions(cfg: RefinementConfig | None) -> ReferenceConfig:
    """The reference conventions for a package config (None: defaults)."""
    cfg = cfg or RefinementConfig()
    return ReferenceConfig(slice_adjust=cfg.slice_adjust, partial_rules=cfg.partial_rules)


def _world_coords(vol: Volume, idx) -> np.ndarray:
    return vol.voxel_to_world(np.stack(idx, axis=1).astype(np.float64))


def split_hemispheres(
    vol12: Volume,
    plane: Plane,
    cfg: RefinementConfig | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Tag voxels by hemisphere: 0 untagged, 1 left, 2 right.

    Only voxels in ``mask`` (default: every voxel of a bilateral fused
    label) are tagged; midline structures stay untagged.  Right is the
    non-negative side of the plane.  With slice_adjust on, the dividing
    threshold of each coronal slice may move laterally up to 2 voxel
    widths to maximize agreement with the previous slice's assignment,
    sweeping posterior to anterior.
    """
    cfg = _conventions(cfg)
    data = vol12.data
    if mask is None:
        mask = np.isin(data, list(BILATERAL_FUSED))
    hemi = np.zeros(data.shape, dtype=np.uint8)
    idx = np.nonzero(mask)
    if idx[0].size == 0:
        return hemi
    s = plane.signed_distance(_world_coords(vol12, idx))

    def assign(values, threshold=0.0):
        if cfg.midline_right_inclusive:
            return np.where(values >= threshold, np.uint8(2), np.uint8(1))
        return np.where(values > threshold, np.uint8(2), np.uint8(1))

    if not cfg.slice_adjust:
        hemi[idx] = assign(s)
        return hemi

    # lateral shift unit: one voxel width along x
    h = vol12.spacing[0]
    ii, jj, kk = idx
    prev: dict[tuple[int, int], int] = {}
    for j in np.unique(jj):
        in_slice = jj == j
        si = s[in_slice]
        ci = ii[in_slice]
        ck = kk[in_slice]
        best_tags = None
        best = (-1, 0, 0)  # (agreement, -|d| preference handled in key)
        for d in (-2, -1, 0, 1, 2):
            tags = assign(si, d * h)
            agree = 0
            if prev:
                for i0, k0, t in zip(ci, ck, tags):
                    p = prev.get((int(i0), int(k0)))
                    if p is not None and p == t:
                        agree += 1
            key = (agree, -abs(d), -d)
            if best_tags is None or key > best:
                best = key
                best_tags = tags
        hemi[ci, np.full(ci.shape, j), ck] = best_tags
        prev = {(int(i0), int(k0)): int(t) for i0, k0, t in zip(ci, ck, best_tags)}
    return hemi


def _slice_center_y(vol12: Volume, js: np.ndarray) -> np.ndarray:
    """Representative world y per coronal slice, at the in-plane center."""
    nx, _, nz = vol12.dims
    pts = np.column_stack([
        np.full(js.shape, (nx - 1) / 2.0),
        js.astype(np.float64),
        np.full(js.shape, (nz - 1) / 2.0),
    ])
    return vol12.voxel_to_world(pts)[:, 1]


def _separator_x(cfg, x_ant, y_ant, x_post, y_post, ys: np.ndarray) -> np.ndarray:
    if cfg.separator_mode == "anterior":
        return np.full(ys.shape, x_ant)
    if cfg.separator_mode == "posterior":
        return np.full(ys.shape, x_post)
    t = (ys - y_post) / (y_ant - y_post)
    t = np.clip(t, 0.0, 1.0)
    return x_post + t * (x_ant - x_post)


# per side: hemisphere tag, (NAcc id, Put id), (anterior, posterior) contact ids
_NACC_PUT_SIDES = (
    (1, (6, 10), (3, 5)),
    (2, (7, 11), (4, 6)),
)


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
    landmark outside their span.  Voxels medial of the separator (x above
    it on the left, below it on the right) become accumbens, the rest
    putamen.
    """
    cfg = _conventions(cfg)
    data = vol12.data
    partial = np.zeros(data.shape, dtype=np.int16) if partial is None else partial.copy()
    for tag, (nacc_id, put_id), (ant_id, post_id) in _NACC_PUT_SIDES:
        m = (data == 5) & (hemi == tag)
        if not m.any():
            continue
        if ant_id not in lms or post_id not in lms:
            if cfg.partial_rules:
                partial[m] = put_id
                continue
            lms.require((ant_id, post_id))
        x_ant, y_ant = float(lms[ant_id][0]), float(lms[ant_id][1])
        x_post, y_post = float(lms[post_id][0]), float(lms[post_id][1])
        if not y_ant > y_post:
            raise RuleGeometryError(
                f"contact landmarks out of order: #{ant_id} y={y_ant:g} must be "
                f"anterior to #{post_id} y={y_post:g}")
        idx = np.nonzero(m)
        xs = _world_coords(vol12, idx)[:, 0]
        js = np.unique(idx[1])
        sep_per_slice = _separator_x(cfg, x_ant, y_ant, x_post, y_post,
                                     _slice_center_y(vol12, js))
        sep = sep_per_slice[np.searchsorted(js, idx[1])]
        nacc = xs > sep if nacc_id == 6 else xs < sep  # left medial is toward +x
        vals = np.where(nacc, np.int16(nacc_id), np.int16(put_id))
        partial[idx] = vals
    return partial


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
    slice are demoted to the configured CSF target.  The landmark slice
    itself keeps its label (exclusive boundary) unless extent_strict is
    off.  Idempotent: a second application changes nothing.
    """
    cfg = _conventions(cfg)
    partial = partial.copy()
    ny = partial.shape[1]
    jgrid = np.arange(ny, dtype=np.int64)[None, :, None]

    def anterior_of(j):  # j-index test for "beyond the slice, anterior"
        return jgrid > j if cfg.extent_strict else jgrid >= j

    def posterior_of(j):
        return jgrid < j if cfg.extent_strict else jgrid <= j

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
            partial[(partial == put_id) & anterior_of(j_ant)] = nacc_id
        if j_post is not None:
            partial[(partial == nacc_id) & posterior_of(j_post)] = put_id

    if 9 in lms:
        j9 = coronal_slice_index(vol12, lms[9])
        move = (vol12.data == 3) & anterior_of(j9)
        partial[move] = np.int16(cfg.third_ventricle_target)
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
    cfg = _conventions(cfg)
    partial = partial.copy()
    data = vol12.data
    ny = partial.shape[1]
    jgrid = np.arange(ny, dtype=np.int64)[None, :, None]
    for tag, lm_id, (a_id, p_id) in ((1, 11, (23, 25)), (2, 12, (24, 26))):
        m = (data == 12) & (hemi == tag)
        if not m.any():
            continue
        if lm_id not in lms:
            if cfg.partial_rules:
                partial[m] = p_id
                continue
            lms.require((lm_id,))
        j_mb = coronal_slice_index(vol12, lms[lm_id])
        ant = jgrid > j_mb if cfg.vdc_anterior_strict else jgrid >= j_mb
        partial[m & ant] = a_id
        partial[m & ~ant] = p_id
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
    cfg = _conventions(cfg)
    partial = partial.copy()
    data = vol12.data
    ny = partial.shape[1]
    for tag, lm_id, (lv_id, ih_id) in ((1, 13, (1, 17)), (2, 14, (2, 18))):
        m = (data == 1) & (hemi == tag)
        if not m.any():
            continue
        if lm_id not in lms:
            if cfg.partial_rules:
                partial[m] = lv_id
                continue
            lms.require((lm_id,))
        j_ih = coronal_slice_index(vol12, lms[lm_id])
        partial[m] = lv_id
        lm_x, _, lm_z = (float(v) for v in lms[lm_id])

        prev_ih = None
        ended = False
        for j in range(max(j_ih + 1, 0), ny):
            sl = m[:, j, :]
            if not sl.any():
                if prev_ih is not None:
                    ended = True  # gap breaks 26-connectivity
                continue
            if ended:
                break  # remaining anterior slices stay LV
            comps, n = ndi.label(sl, structure=_CROSS_2D)
            if prev_ih is None:
                pick = _component_nearest(vol12, comps, n, j, lm_x, lm_z)
            else:
                reach = ndi.binary_dilation(prev_ih, structure=_FULL_2D)
                cand = np.unique(comps[reach & (comps > 0)])
                if cand.size == 0:
                    ended = True
                    continue
                pick = _component_most_inferior(vol12, comps, cand, j)
            ih2d = comps == pick
            ii, kk = np.nonzero(ih2d)
            partial[ii, np.full(ii.shape, j), kk] = ih_id
            prev_ih = ih2d
    return partial


def _component_centroid_world(vol12, comps, comp_id, j):
    ii, kk = np.nonzero(comps == comp_id)
    centroid = np.array([ii.mean(), float(j), kk.mean()])
    return vol12.voxel_to_world(centroid)


def _component_nearest(vol12, comps, n, j, lm_x, lm_z):
    best, best_d = None, np.inf
    for c in range(1, n + 1):
        w = _component_centroid_world(vol12, comps, c, j)
        d = float(np.hypot(w[0] - lm_x, w[2] - lm_z))
        if d < best_d:
            best, best_d = c, d
    return best


def _component_most_inferior(vol12, comps, cand, j):
    best, best_z = None, np.inf
    for c in cand:
        z = float(_component_centroid_world(vol12, comps, int(c), j)[2])
        if z < best_z:
            best, best_z = int(c), z
    return best


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
    cfg = _conventions(cfg)
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

    partial = np.zeros(data.shape, dtype=np.int16)
    for fused, (left_id, right_id) in HEMI_PAIRS.items():
        m = data == fused
        partial[m & (hemi == 1)] = left_id
        partial[m & (hemi == 2)] = right_id

    partial = separate_nacc_putamen(can, lms, hemi, cfg, partial=partial)
    partial = apply_coronal_extents(partial, can, lms, cfg)
    partial = split_vdc(partial, can, lms, hemi, cfg)
    partial = split_lv_ih(partial, can, lms, hemi, cfg)

    # midline structures pass through unchanged, except voxels a rule
    # already claimed (third-ventricle exclusion writes CSF first)
    for fused, fine in ((2, 3), (3, 4), (4, 5), (8, 14)):
        m = (data == fused) & (partial == 0)
        partial[m] = fine

    if not np.array_equal(partial != 0, data != 0):
        raise AssertionError("refinement changed the foreground mask")

    return Volume(amap.invert(partial), vol12.affine, taxonomy="fine26")
