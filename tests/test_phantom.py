"""Synthetic phantom generation and controlled degradation."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoarefine import (
    DEGRADE_MODES,
    FINE_LABELS,
    PhantomError,
    PhantomSpec,
    degrade_phantom,
    fuse_labels,
    generate_phantom,
    refine_full,
    validate_landmarks,
)
from hoarefine.phantom import N, _check_phantom, _fill

from oracles import mask_check_phantom

GOLDEN_SEED0 = "1d1323e9d5cc72fba08730d98151a12abf37774df7042e114c79993de5bcd3a7"


def _digest(vol, lms):
    h = hashlib.sha256()
    h.update(vol.data.tobytes(order="C"))
    for lid in lms.ids:
        h.update(np.ascontiguousarray(lms[lid]).tobytes())
    return h.hexdigest()


def test_deterministic():
    a_vol, a_lms = generate_phantom(3)
    b_vol, b_lms = generate_phantom(PhantomSpec(seed=3))
    assert np.array_equal(a_vol.data, b_vol.data)
    assert np.array_equal(a_vol.affine, b_vol.affine)
    for lid in a_lms.ids:
        assert np.array_equal(a_lms[lid], b_lms[lid])


def test_seed_zero_frozen(phantom0):
    vol, lms = phantom0
    assert _digest(vol, lms) == GOLDEN_SEED0
    assert int((vol.data != 0).sum()) == 53893


def test_basic_properties(phantom0):
    vol, lms = phantom0
    assert vol.taxonomy == "fine26"
    assert vol.data.dtype == np.int16
    assert vol.dims == (96, 96, 96)
    assert np.allclose(np.diag(vol.affine)[:3], 0.7)
    assert np.allclose(vol.affine[:3, 3], -47.5 * 0.7)
    assert set(np.unique(vol.data).tolist()) == {0, *FINE_LABELS}
    assert validate_landmarks(lms, vol) == []


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_rules_reproduce_phantom(seed):
    vol, lms = generate_phantom(seed)
    refined = refine_full(fuse_labels(vol), lms)
    assert np.array_equal(refined.data, vol.data)


def test_custom_spacing_stays_consistent():
    vol, lms = generate_phantom(PhantomSpec(seed=5, spacing=1.0))
    assert np.allclose(np.diag(vol.affine)[:3], 1.0)
    refined = refine_full(fuse_labels(vol), lms)
    assert np.array_equal(refined.data, vol.data)


class TestOverrides:
    """The generator's self-checks refuse a layout that breaks its guarantees."""

    def test_bad_spacing(self):
        with pytest.raises(PhantomError, match="spacing"):
            PhantomSpec(spacing=0.0)

    def test_overlapping_box_rejected(self, phantom0):
        data = phantom0[0].data.copy()
        with pytest.raises(PhantomError, match="overlaps"):  # sits on the striatum blob
            _fill(data, (58, 78, 56, 78, 40, 58), 9, "cau_r")

    def test_out_of_bounds_box_rejected(self):
        data = np.zeros((N, N, N), dtype=np.int16)
        with pytest.raises(PhantomError, match="leaves the volume"):
            _fill(data, (60, 120, 44, 54, 60, 68), 9, "cau_r")

    def test_forced_rule_break_caught(self, phantom0):
        vol, lms = phantom0
        data = vol.data.copy()
        data[data == 7] = 11  # right putamen anterior of its landmark #2
        with pytest.raises(PhantomError, match="rule inconsistency: right putamen"):
            _check_phantom(vol.with_data(data), lms, 0.7, (N - 1) / 2.0)


@functools.lru_cache(maxsize=None)
def _phantom(seed):
    return generate_phantom(seed)


def _audit(audit, vol, lms):
    """The audit's message, or None when it passes."""
    try:
        audit(vol, lms, 0.7, (N - 1) / 2.0)
    except PhantomError as exc:
        return str(exc)
    return None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 15),
       strays=st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1),
                                 st.integers(0, N - 1), st.integers(0, 26)),
                       min_size=1, max_size=3))
@example(seed=0, strays=[(70, 90, 50, 11)])  # right putamen far anterior
@example(seed=0, strays=[(52, 50, 50, 1)])   # a left label right of the midline
@example(seed=1, strays=[(50, 50, 50, 0)])   # background breaks no rule
def test_audit_matches_mask_audit(seed, strays):
    """Stray voxels planted in a phantom get the same verdict, message
    included, from the box audit as from the whole-volume mask audit."""
    vol, lms = _phantom(seed)
    data = vol.data.copy()
    for i, j, k, label in strays:
        data[i, j, k] = label
    planted = vol.with_data(data)
    assert _audit(_check_phantom, planted, lms) == _audit(mask_check_phantom, planted, lms)


class TestDegrade:
    def test_jitter_moves_only_landmarks(self, phantom0):
        vol, lms = phantom0
        fused = fuse_labels(vol)
        v, moved = degrade_phantom(vol, lms, "landmark-jitter", 1.5, seed=4)
        assert np.array_equal(v.data, fused.data)
        deltas = [np.linalg.norm(moved[lid] - lms[lid]) for lid in lms.ids]
        assert all(d > 0 for d in deltas)
        v2, moved2 = degrade_phantom(vol, lms, "landmark-jitter", 1.5, seed=4)
        for lid in lms.ids:
            assert np.array_equal(moved[lid], moved2[lid])
        _, frozen = degrade_phantom(vol, lms, "landmark-jitter", 0.0)
        for lid in lms.ids:
            assert np.array_equal(frozen[lid], lms[lid])

    def test_boundary_noise(self, phantom0):
        vol, lms = phantom0
        fused = fuse_labels(vol)
        v, kept = degrade_phantom(vol, lms, "boundary-noise", 0.3, seed=1)
        changed = v.data != fused.data
        assert changed.any()
        for lid in lms.ids:
            assert np.array_equal(kept[lid], lms[lid])
        # flipped voxels all sit on an interface: some 6-neighbor differed
        ii, jj, kk = np.nonzero(changed)
        for i, j, k in list(zip(ii, jj, kk))[:50]:
            nbrs = []
            for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                               (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                a, b, c = i + di, j + dj, k + dk
                if 0 <= a < 96 and 0 <= b < 96 and 0 <= c < 96:
                    nbrs.append(int(fused.data[a, b, c]))
            assert any(n != int(fused.data[i, j, k]) for n in nbrs)
        v2, _ = degrade_phantom(vol, lms, "boundary-noise", 0.3, seed=1)
        assert np.array_equal(v.data, v2.data)
        clean, _ = degrade_phantom(vol, lms, "boundary-noise", 0.0)
        assert np.array_equal(clean.data, fused.data)

    def test_erosion_shrinks_every_label(self, phantom0):
        vol, lms = phantom0
        fused = fuse_labels(vol)
        v, _ = degrade_phantom(vol, lms, "erosion", 1)
        assert np.all((v.data == 0) | (v.data == fused.data))
        for lab in np.unique(fused.data):
            if lab == 0:
                continue
            assert (v.data == lab).sum() < (fused.data == lab).sum()

    def test_bad_arguments(self, phantom0):
        vol, lms = phantom0
        assert DEGRADE_MODES == ("landmark-jitter", "boundary-noise", "erosion")
        with pytest.raises(PhantomError, match="unknown degradation"):
            degrade_phantom(vol, lms, "blur", 1.0)
        with pytest.raises(PhantomError, match="sigma"):
            degrade_phantom(vol, lms, "landmark-jitter", -1.0)
        with pytest.raises(PhantomError, match="fraction"):
            degrade_phantom(vol, lms, "boundary-noise", 1.5)
        with pytest.raises(PhantomError, match="step count"):
            degrade_phantom(vol, lms, "erosion", 0.5)

    @pytest.mark.parametrize("amount", [0, -1, 1.5, float("inf"), float("-inf"), float("nan")])
    def test_erosion_amount_is_a_whole_step_count(self, phantom0, amount):
        vol, lms = phantom0
        with pytest.raises(PhantomError, match="whole step count"):
            degrade_phantom(vol, lms, "erosion", amount)
