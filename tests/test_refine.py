"""Deterministic landmark-driven refinement rules."""

import dataclasses
import functools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hoarefine import (
    LabelError,
    LandmarkSet,
    Plane,
    RefinementConfig,
    RuleGeometryError,
    Volume,
    build_midsagittal_plane,
    fuse_labels,
    generate_phantom,
    refine_full,
    reorient_to_canonical,
)
from hoarefine.labels import PASS_TABLE
from hoarefine.refine import (
    _ROW,
    _START,
    apply_coronal_extents,
    coronal_slice_index,
    separate_nacc_putamen,
    split_hemispheres,
    split_lv_ih,
    split_vdc,
)

from conftest import make_volume, resample, start_partial, to_las


def _plane_lms(ac, pc, ppf):
    return LandmarkSet({10: np.asarray(ac, dtype=float),
                        15: np.asarray(pc, dtype=float),
                        16: np.asarray(ppf, dtype=float)})


class TestPlane:
    def test_tilted_signed_distance(self):
        # cross((0,-10,0), (2,0,-10)) = (100, 0, 20) -> normal (5,0,1)/sqrt(26)
        plane = build_midsagittal_plane(
            _plane_lms((0, 0, 0), (0, -10, 0), (2, 0, -10)))
        r = np.sqrt(26.0)
        assert np.allclose(plane.normal, [5 / r, 0, 1 / r], atol=1e-12)
        assert np.isclose(plane.signed_distance([1.0, 0.0, 0.0]), 5 / r)
        assert np.isclose(plane.signed_distance([0.0, 0.0, 1.0]), 1 / r)
        assert plane.signed_distance([0.0, 7.0, 0.0]) == 0.0

    def test_each_row_is_computed_on_its_own(self):
        """A row's signed distance is the same alone as among many rows."""
        plane = Plane([0.3, -1.7, 2.9], [0.91, 0.2, -0.37])
        xyz = np.random.default_rng(0).uniform(-80, 80, (500, 3))
        together = plane.signed_distance(xyz)
        alone = [plane.signed_distance(row) for row in xyz]
        assert together.tobytes() == np.array(alone).tobytes()

    def test_normal_flipped_toward_plus_x(self):
        a = build_midsagittal_plane(
            _plane_lms((0, 0, 0), (0, -10, 0), (2, 0, -10)))
        b = build_midsagittal_plane(
            _plane_lms((0, 0, 0), (0, -10, 0), (-2, 0, 10)))
        assert a.normal[0] > 0 and b.normal[0] > 0

    def test_collinear_points_rejected(self):
        with pytest.raises(RuleGeometryError, match="collinear"):
            build_midsagittal_plane(
                _plane_lms((0, 0, 0), (0, -10, 0), (0, -20, 0)))

    def test_no_lateral_component_rejected(self):
        with pytest.raises(RuleGeometryError, match="left-right"):
            build_midsagittal_plane(
                _plane_lms((0, 0, 0), (10, 0, 0), (0, 0, 10)))

    def test_normal_is_normalized(self):
        plane = Plane(np.zeros(3), np.array([2.0, 0.0, 0.0]))
        assert np.allclose(plane.normal, [1, 0, 0])


def test_coronal_slice_index_half_away():
    vol = make_volume(np.zeros((3, 4, 3), dtype=np.int16), spacing=2.0)
    assert coronal_slice_index(vol, (0, 3.0, 0)) == 2  # j = 1.5
    assert coronal_slice_index(vol, (0, 2.9, 0)) == 1
    assert coronal_slice_index(vol, (0, -3.0, 0)) == -2


@pytest.mark.parametrize("offset", [1e20, -1e20])
def test_landmark_beyond_int64_slices_is_refused(offset):
    """A landmark so far from the grid that its slice index does not fit
    int64 raises ValueError; its rounding once cast to INT64_MIN, and #9
    far anterior then moved every third-ventricle voxel into CSF."""
    vol, lms = generate_phantom(0)
    pts = {i: lms[i] for i in lms.ids}
    pts[9] = pts[9] + (0.0, offset, 0.0)
    with pytest.raises(ValueError, match="int64"):
        refine_full(fuse_labels(vol), LandmarkSet(pts))


class TestSplitHemispheres:
    def test_midline_labels_stay_untagged(self):
        data = np.array([[[2]], [[1]], [[1]]], dtype=np.int16)
        vol = make_volume(data, origin=(-1, 0, 0))
        hemi = split_hemispheres(vol, Plane(np.zeros(3), np.array([1.0, 0, 0])))
        assert hemi[0, 0, 0] == 0 and hemi[1, 0, 0] == 2  # x == 0 counts as right

    def test_labels_outside_box_range_raise(self):
        """A stage reads the fused map's label boxes, which cover 0..31;
        called directly on a map holding 255 it raises ValueError."""
        data = np.array([[[255]], [[1]], [[1]]], dtype=np.int16)
        with pytest.raises(ValueError, match="^no boxes: label 255 is outside 0..31$"):
            split_hemispheres(make_volume(data), Plane(np.zeros(3), np.array([1.0, 0, 0])))

    def test_slice_adjust_deterministic_and_local(self):
        rng = np.random.default_rng(5)
        data = (rng.random((20, 6, 5)) < 0.9).astype(np.int16)
        vol = make_volume(data)
        plane = Plane(np.array([9.7, 0.0, 0.0]), np.array([1.0, 0.25, 0.0]))
        base = split_hemispheres(vol, plane)
        cfg = RefinementConfig(slice_adjust=True)
        adj = split_hemispheres(vol, plane, cfg)
        assert np.array_equal(adj, split_hemispheres(vol, plane, cfg))
        moved = np.nonzero(adj != base)
        assert moved[0].size > 0  # the tilt actually exercises the shift
        xyz = vol.voxel_to_world(np.stack(moved, axis=1).astype(float))
        # shifts are capped at 2 voxel widths from the plane
        assert np.all(np.abs(plane.signed_distance(xyz)) <= 2.0 + 1e-9)


    @pytest.mark.parametrize("shear", [0.5, -0.5])
    def test_slice_adjust_on_dyadic_thresholds(self, shear):
        """Voxel x = 0.5 i + shear * j - 5 and the thresholds d * h (h =
        0.5) are exact in float64, so voxels sit exactly on every s = d * h.
        The shear moves the previous slice's dividing line by a voxel
        width, so shifts of 1 and 2 win, and some slices tie on agreement
        between shifts other than 0.  The split equals a per-shift count of
        agreement written out here, voxel by voxel."""
        shifts, h = (-2, -1, 0, 1, 2), 0.5
        data = (np.random.default_rng(1).random((21, 8, 2)) < 0.6).astype(np.int16)
        affine = np.array([[h, shear, 0, -5.0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        got = split_hemispheres(Volume(data, affine), Plane(np.zeros(3), np.array([1.0, 0, 0])),
                                RefinementConfig(slice_adjust=True))
        want = np.zeros(data.shape, dtype=np.uint8)
        prev, picks, ties, on_threshold = None, [], [], set()
        for j in range(data.shape[1]):
            x = {(i, k): h * i + shear * j - 5.0 for i, k in zip(*np.nonzero(data[:, j, :]))}
            on_threshold |= {d for d in shifts if d * h in x.values()}
            best = 0
            if prev is not None:
                agree = {d: sum((prev[v] == 2 and xv >= d * h) or (prev[v] == 1 and xv < d * h)
                                for v, xv in x.items()) for d in shifts}
                ties.append({d for d in shifts if agree[d] == max(agree.values())})
                best = max(shifts, key=lambda d: (agree[d], -abs(d), -d))
            picks.append(best)
            for v, xv in x.items():
                want[v[0], j, v[1]] = 2 if xv >= best * h else 1
            prev = want[:, j, :]
        assert on_threshold == set(shifts)
        assert {abs(d) for d in picks} == {0, 1, 2}
        assert any(len(t) > 1 and 0 not in t for t in ties)
        assert np.array_equal(got, want)


class TestNaccPutamenSeparator:
    def _volume(self):
        # x = i, slice y = 5j: separator interpolates 15 -> 5 over y 0..10
        data = np.full((40, 4, 1), 5, dtype=np.int16)
        return make_volume(data, spacing=(1, 5, 1))

    def _lms(self, y_ant=10.0, y_post=0.0):
        return LandmarkSet({4: np.array([5.0, y_ant, 0.0]),
                            6: np.array([15.0, y_post, 0.0])})

    def test_linear_interpolation_with_clamp(self):
        vol = self._volume()
        hemi = np.full(vol.dims, 2, dtype=np.uint8)
        out = separate_nacc_putamen(vol, self._lms(), partial=start_partial(vol, hemi))
        for j, sep in enumerate([15, 10, 5, 5]):  # y=15 clamps to x_ant
            col = out[:, j, 0]
            assert np.all(col[:sep] == 7), f"slice {j}"
            assert np.all(col[sep:] == 11), f"slice {j}"

    def test_contact_order_error(self):
        vol = self._volume()
        hemi = np.full(vol.dims, 2, dtype=np.uint8)
        with pytest.raises(RuleGeometryError, match="anterior"):
            separate_nacc_putamen(vol, self._lms(y_ant=0.0, y_post=10.0),
                                  partial=start_partial(vol, hemi))

    def test_left_side_compares_magnitudes(self):
        data = np.full((40, 4, 1), 5, dtype=np.int16)
        vol = make_volume(data, spacing=(1, 5, 1), origin=(-39, 0, 0))
        hemi = np.full(vol.dims, 1, dtype=np.uint8)
        lms = LandmarkSet({3: np.array([-5.0, 10.0, 0.0]),
                           5: np.array([-15.0, 0.0, 0.0])})
        out = separate_nacc_putamen(vol, lms, partial=start_partial(vol, hemi))
        counts = (out == 6).sum(axis=(0, 2))
        assert counts.tolist() == [15, 10, 5, 5]
        assert np.all(out[-15:, 0, 0] == 6)  # medial voxels, nearest x=0

    def test_partial_rules_fall_back_to_putamen(self):
        vol = self._volume()
        partial = start_partial(vol, np.full(vol.dims, 2, dtype=np.uint8))
        with pytest.raises(LabelError):
            separate_nacc_putamen(vol, LandmarkSet({}), partial=partial)
        out = separate_nacc_putamen(vol, LandmarkSet({}),
                                    RefinementConfig(partial_rules=True), partial=partial)
        assert np.all(out[vol.data == 5] == 11)


class TestCoronalExtents:
    # a partial as refine_full builds it: putamen or accumbens ids on
    # fused label 5, the third ventricle (4) on fused label 3
    def _vol(self, data_value=5):
        return make_volume(np.full((1, 6, 1), data_value, dtype=np.int16))

    def _lms(self, j1=3.0, j7=1.0, j9=99.0):
        return LandmarkSet({1: np.array([0.0, j1, 0.0]),
                            7: np.array([0.0, j7, 0.0]),
                            2: np.array([0.0, j1, 0.0]),
                            8: np.array([0.0, j7, 0.0]),
                            9: np.array([0.0, j9, 0.0])})

    def test_putamen_to_accumbens_strict(self):
        partial = np.full((1, 6, 1), 10, dtype=np.int16)
        out = apply_coronal_extents(partial, self._vol(), self._lms())
        assert out[0, :, 0].tolist() == [10, 10, 10, 10, 6, 6]
        again = apply_coronal_extents(out, self._vol(), self._lms())
        assert np.array_equal(again, out)  # idempotent

    def test_accumbens_to_putamen_strict(self):
        partial = np.full((1, 6, 1), 6, dtype=np.int16)
        out = apply_coronal_extents(partial, self._vol(), self._lms())
        assert out[0, :, 0].tolist() == [10, 6, 6, 6, 6, 6]

    def test_third_ventricle_exclusion(self):
        partial = np.full((1, 6, 1), 4, dtype=np.int16)
        out = apply_coronal_extents(partial, self._vol(3), self._lms(j9=2.0))
        assert out[0, :, 0].tolist() == [4, 4, 4, 3, 3, 3]  # CSF, slice 2 kept

    def test_crossed_extent_landmarks_rejected(self):
        partial = np.zeros((1, 6, 1), dtype=np.int16)
        with pytest.raises(RuleGeometryError, match="out of order"):
            apply_coronal_extents(partial, self._vol(), self._lms(j1=1.0, j7=3.0))

    def test_missing_landmarks(self):
        partial = np.zeros((1, 6, 1), dtype=np.int16)
        with pytest.raises(LabelError):
            apply_coronal_extents(partial, self._vol(), LandmarkSet({}))
        out = apply_coronal_extents(partial, self._vol(3), LandmarkSet({}),
                                    RefinementConfig(partial_rules=True))
        assert not out.any()  # every extent rule skipped


class TestSplitVdc:
    def _setup(self, hemi_tag):
        vol = make_volume(np.full((1, 5, 1), 12, dtype=np.int16))
        partial = start_partial(vol, np.full(vol.dims, hemi_tag, dtype=np.uint8))
        lms = LandmarkSet({11: np.array([0.0, 2.0, 0.0]), 12: np.array([0.0, 2.0, 0.0])})
        return partial, vol, lms

    def test_right_split_strict(self):
        partial, vol, lms = self._setup(2)
        out = split_vdc(partial, vol, lms)
        assert out[0, :, 0].tolist() == [26, 26, 26, 24, 24]

    def test_left_split_strict(self):
        partial, vol, lms = self._setup(1)
        out = split_vdc(partial, vol, lms)
        assert out[0, :, 0].tolist() == [25, 25, 25, 23, 23]

    def test_fallback_posterior(self):
        partial, vol, _ = self._setup(2)
        with pytest.raises(LabelError):
            split_vdc(partial, vol, LandmarkSet({}))
        out = split_vdc(partial, vol, LandmarkSet({}), RefinementConfig(partial_rules=True))
        assert np.all(out == 26)


class TestSplitLvIh:
    def _run(self, voxels, lm=(2.0, 2.0, 1.0)):
        data = np.zeros((5, 8, 5), dtype=np.int16)
        for i, j, k in voxels:
            data[i, j, k] = 1
        vol = make_volume(data)
        hemi = np.where(data == 1, 1, 0).astype(np.uint8)
        lms = LandmarkSet({13: np.array(lm)})
        out = split_lv_ih(start_partial(vol, hemi), vol, lms)
        return {(i, j, k): int(out[i, j, k]) for i, j, k in voxels}

    def test_chain_growth_and_gap(self):
        voxels = [(2, 0, 3), (2, 1, 3), (2, 2, 3),       # at/posterior: ventricle
                  (2, 3, 1), (2, 3, 4),                  # seed slice
                  (3, 4, 2), (2, 4, 4),                  # diagonal step
                  (2, 5, 4),                             # horn absent: chain ends
                  (2, 6, 1), (2, 6, 4)]                  # after gap: ventricle
        got = self._run(voxels)
        horn = {v for v, lab in got.items() if lab == 17}
        assert horn == {(2, 3, 1), (3, 4, 2)}
        assert all(lab == 1 for v, lab in got.items() if v not in horn)

    def test_most_inferior_candidate_wins(self):
        voxels = [(2, 3, 1), (2, 4, 0), (2, 4, 2)]
        got = self._run(voxels)
        assert got[(2, 4, 0)] == 17 and got[(2, 4, 2)] == 1

    def test_in_slice_components_are_4_connected(self):
        # diagonal neighbours are distinct components; only the one
        # nearest the landmark seeds the horn
        got = self._run([(2, 3, 1), (3, 3, 2)])
        assert got[(2, 3, 1)] == 17 and got[(3, 3, 2)] == 1

    def test_fallback_all_ventricle(self):
        data = np.zeros((5, 8, 5), dtype=np.int16)
        data[2, 4, 1] = 1
        vol = make_volume(data)
        hemi = np.where(data == 1, 2, 0).astype(np.uint8)
        out = split_lv_ih(start_partial(vol, hemi), vol, LandmarkSet({}),
                          RefinementConfig(partial_rules=True))
        assert out[2, 4, 1] == 2


def test_start_table_is_pass_table_flat():
    """refine_full starts each voxel from the byte at tag * _ROW + fused,
    which holds PASS_TABLE[tag, fused] for every tag and fused id."""
    assert _START.dtype == np.uint8 and _START.size == 3 * _ROW <= 256
    for tag in range(3):
        for fused in range(_ROW):
            assert _START[tag * _ROW + fused] == PASS_TABLE[tag, fused]


class TestRefineFull:
    def test_rejects_fine_taxonomy(self, phantom0):
        vol, lms = phantom0
        with pytest.raises(LabelError, match="fused"):
            refine_full(vol, lms)

    def test_rejects_float_data(self, phantom0):
        _, lms = phantom0
        vol = make_volume(np.zeros((4, 4, 4), dtype=np.float32))
        with pytest.raises(LabelError, match="integer"):
            refine_full(vol, lms)

    def test_missing_landmark_named(self, phantom0):
        vol, lms = phantom0
        pts = {lid: lms[lid] for lid in lms.ids if lid != 16}
        with pytest.raises(LabelError, match="16"):
            refine_full(fuse_labels(vol), LandmarkSet(pts))

    def test_round_trip_reproduces_phantom(self, phantom0, refined0):
        vol, lms = phantom0
        assert np.array_equal(refined0.data, vol.data)
        assert refined0.taxonomy == "fine26"
        # second pass is a fixed point
        again = refine_full(fuse_labels(refined0), lms)
        assert np.array_equal(again.data, refined0.data)

    def test_slice_adjust_noop_on_clean_phantom(self, phantom0, refined0):
        vol, lms = phantom0
        adj = refine_full(fuse_labels(vol), lms,
                          RefinementConfig(slice_adjust=True))
        assert np.array_equal(adj.data, refined0.data)

    def test_partial_rules_fallbacks(self, phantom0):
        vol, lms = phantom0
        fused = fuse_labels(vol)
        sparse = LandmarkSet({lid: lms[lid] for lid in (10, 15, 16)})
        out = refine_full(fused, sparse, RefinementConfig(partial_rules=True))
        present = set(np.unique(out.data).tolist())
        # no accumbens, inferior horn or anterior VDC without their landmarks
        assert present == {0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14,
                           15, 16, 19, 20, 21, 22, 25, 26}
        assert np.array_equal(fuse_labels(out).data, fused.data)
        # the midsagittal trio stays mandatory
        with pytest.raises(LabelError):
            refine_full(fused, LandmarkSet({10: lms[10], 15: lms[15]}),
                        RefinementConfig(partial_rules=True))


    def test_stages_keep_the_dtype_of_their_partial(self, phantom0):
        vol, lms = phantom0
        can, _ = reorient_to_canonical(fuse_labels(vol))
        hemi = split_hemispheres(can, build_midsagittal_plane(lms))
        for dtype in (np.uint8, np.int16):
            partial = separate_nacc_putamen(
                can, lms, partial=start_partial(can, hemi).astype(dtype))
            assert partial.dtype == dtype
            partial = apply_coronal_extents(partial, can, lms)
            partial = split_vdc(partial, can, lms)
            assert split_lv_ih(partial, can, lms).dtype == dtype


@functools.lru_cache(maxsize=None)
def _fused_260(orientation: str):
    """Phantom 0 fused at 260x311x260, stored RAS or LAS, and its landmarks."""
    vol, lms = generate_phantom(0)
    vol12 = fuse_labels(resample(vol, (260, 311, 260)))
    return (to_las(vol12) if orientation == "LAS" else vol12), lms


@pytest.mark.parametrize("slice_adjust", [False, True])
@pytest.mark.parametrize("orientation", ["RAS", "LAS"])
def test_split_hemispheres_peak_memory_260(orientation, slice_adjust):
    """The split's traced peak stays under 1.15x its own uint8 output:
    one coronal slice's voxels are live at a time (a whole-box pass held
    2.9x, and 4.8x with slice_adjust on)."""
    vol12, lms = _fused_260(orientation)
    can, _ = reorient_to_canonical(vol12)
    plane = build_midsagittal_plane(lms)
    tracemalloc.start()
    try:
        hemi = split_hemispheres(can, plane, RefinementConfig(slice_adjust=slice_adjust))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * hemi.nbytes, f"peak {peak / 2**20:.1f} MiB"


@functools.lru_cache(maxsize=None)
def _refine_peaks_260(orientation: str) -> tuple[int, list[int]]:
    """Input bytes and the traced peaks of refine_full at 260x311x260
    with slice_adjust off and on."""
    vol12, lms = _fused_260(orientation)
    peaks = []
    for slice_adjust in (False, True):
        tracemalloc.start()
        try:
            refine_full(vol12, lms, RefinementConfig(slice_adjust=slice_adjust))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return vol12.data.nbytes, peaks


@pytest.mark.parametrize("orientation", ["RAS", "LAS"])
def test_refine_full_peak_memory_260(orientation):
    """refine_full's traced peak stays under 1.6x the int16 input (1.50-
    1.53x: the 20 MiB partial and the 40 MiB output of the final cast),
    slice_adjust costs no more than 2 % over the plain split, and a LAS
    input, refined on a flipped view of its data, costs within 10 % of a
    RAS one (they were 3.2x and 4.2x with a canonical copy, int16
    partials and a copy of the output, 2.2x with the hemisphere tags kept
    through every rule stage, and 1.70-1.73x with an (N, 3) index array
    for the NAcc/Put voxels' world x)."""
    nbytes, peaks = _refine_peaks_260(orientation)
    for peak in peaks:
        assert peak < 1.6 * nbytes, f"peak {peak / 2**20:.1f} MiB"
    off, on = peaks
    assert on <= 1.02 * off, f"on {on / 2**20:.1f} MiB, off {off / 2**20:.1f} MiB"
    if orientation == "LAS":
        for peak, ras in zip(peaks, _refine_peaks_260("RAS")[1]):
            assert peak < 1.1 * ras, f"LAS {peak / 2**20:.1f} MiB, RAS {ras / 2**20:.1f} MiB"


class TestConfig:
    def test_from_mapping_coercions(self):
        cfg = RefinementConfig.from_mapping({"slice-adjust": " Yes ", "partial_rules": "off"})
        assert cfg == RefinementConfig(slice_adjust=True, partial_rules=False)
        assert RefinementConfig.from_mapping({"partial_rules": True}).partial_rules is True

    def test_bad_values_rejected(self):
        # the five conventions the protocol fixes are not settings either
        for key in ("slice_adjusts", "separator_mode", "third_ventricle_target",
                    "midline_right_inclusive", "extent_strict", "vdc_anterior_strict"):
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                RefinementConfig.from_mapping({key: "true"})
        with pytest.raises(ValueError, match="slice_adjust: expected a boolean"):
            RefinementConfig.from_mapping({"slice_adjust": "maybe"})
        for value in (1, 0, 2, None, [], {}, 1.0, "y"):
            with pytest.raises(ValueError, match="partial_rules: expected a boolean"):
                RefinementConfig.from_mapping({"partial_rules": value})

    def test_readme_table_lists_every_setting(self):
        """The README's Configuration table names exactly the config fields."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
        assert keys == [f.name for f in dataclasses.fields(RefinementConfig)]
