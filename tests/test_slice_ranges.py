"""Coronal slice-range rules against the pass-by-pass reference.

``apply_coronal_extents`` and ``split_vdc`` act on slice ranges of the
bounding box of each rule's fused group.  Each is given a partial as
``refine_full`` builds it: every voxel holds a fine member of its fused
group, and the VDC starts at its side's posterior part.  Landmark slices
are drawn up to three slices outside the volume on either side, where
an unclamped negative bound would wrap around.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hoarefine.refine as refine_mod
import refine_reference as ref
from hoarefine import FUSE_LUT, LandmarkSet, RefinementConfig

from conftest import make_volume, start_partial
from test_refine_differential import _assert_same, _outcome

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=10)


def _landmarks(draw, ids, ny, optional):
    """Landmarks ``ids``, each absent or not when ``optional``, whose
    coronal slice lies in -3..ny+3; x and z are arbitrary, y sits within
    0.4 of the slice."""
    points = {}
    for lid in ids:
        if not optional or draw(st.booleans()):
            j = draw(st.integers(-3, ny + 3)) + draw(st.floats(-0.4, 0.4))
            points[lid] = (draw(st.floats(-5, 5)), j, draw(st.floats(-5, 5)))
    return LandmarkSet(points)


def _members(rng, data):
    """Each voxel of ``data`` as a random fine member of its fused group."""
    partial = np.zeros(data.shape, dtype=np.int16)
    for fused in np.unique(data[data > 0]):
        m = data == fused
        partial[m] = rng.choice(np.flatnonzero(FUSE_LUT == fused), size=int(m.sum()))
    return partial


@st.composite
def extents_cases(draw):
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # fused ids with third ventricle (3) often present, or absent
    data = rng.choice((0, 3, 5, 12) if draw(st.booleans()) else (0, 5), size=shape)
    lms = _landmarks(draw, (1, 2, 7, 8, 9), shape[1], optional=True)
    cfg = RefinementConfig(partial_rules=draw(st.booleans()))
    return _members(rng, data), make_volume(data.astype(np.int16)), lms, cfg


@st.composite
def vdc_cases(draw):
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))  # 0: no VDC group
    data = np.where(rng.random(shape) < density, 12, rng.choice((0, 1, 3), size=shape))
    # bilateral voxels (LV, VDC) are always tagged, others never
    hemi = np.where(np.isin(data, (1, 12)), rng.integers(1, 3, size=shape), 0).astype(np.uint8)
    vol = make_volume(data.astype(np.int16))
    partial = _members(rng, data)
    vdc = data == 12
    partial[vdc] = start_partial(vol, hemi)[vdc]
    cfg = RefinementConfig(partial_rules=draw(st.booleans()))
    # both stages name a missing landmark without partial_rules, but the
    # reference does so only for a side that holds VDC voxels; refine_full
    # requires every landmark then, so both are drawn
    lms = _landmarks(draw, (11, 12), shape[1], optional=cfg.partial_rules)
    return partial, vol, lms, hemi, cfg


@PROPERTY
@given(case=extents_cases())
def test_apply_coronal_extents_matches_reference(case):
    _assert_same(_outcome(ref.apply_coronal_extents, *case),
                 _outcome(refine_mod.apply_coronal_extents, *case))


@PROPERTY
@given(case=vdc_cases())
def test_split_vdc_matches_reference(case):
    partial, vol, lms, hemi, cfg = case
    _assert_same(_outcome(ref.split_vdc, partial, vol, lms, hemi, cfg),
                 _outcome(refine_mod.split_vdc, partial, vol, lms, cfg))
