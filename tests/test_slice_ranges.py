"""Coronal slice-range rules against the pass-by-pass reference.

``apply_coronal_extents`` and ``split_vdc`` act on slice ranges of the
partial map (and, for the VDC split, of the group's bounding box).
Landmark slices are drawn up to three slices outside the volume on
either side, where an unclamped negative bound would wrap around.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hoarefine.refine as refine_mod
import refine_reference as ref
from hoarefine import LandmarkSet, RefinementConfig

from conftest import make_volume
from test_refine_differential import _assert_same, _outcome

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=10)


def _landmarks(draw, ids, ny):
    """Landmarks ``ids`` (each present or not) whose coronal slice lies
    in -3..ny+3; x and z are arbitrary, y sits within 0.4 of the slice."""
    points = {}
    for lid in ids:
        if draw(st.booleans()):
            j = draw(st.integers(-3, ny + 3)) + draw(st.floats(-0.4, 0.4))
            points[lid] = (draw(st.floats(-5, 5)), j, draw(st.floats(-5, 5)))
    return LandmarkSet(points)


@st.composite
def extents_cases(draw):
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # fused ids with third ventricle (3) often present, or absent
    data = rng.choice((0, 3, 5, 12) if draw(st.booleans()) else (0, 5), size=shape)
    partial = rng.choice((0, 6, 7, 10, 11, 25), size=shape).astype(np.int16)
    lms = _landmarks(draw, (1, 2, 7, 8, 9), shape[1])
    cfg = RefinementConfig(partial_rules=draw(st.booleans()))
    return partial, make_volume(data.astype(np.int16)), lms, cfg


@st.composite
def vdc_cases(draw):
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))  # 0: no VDC group
    data = np.where(rng.random(shape) < density, 12, rng.choice((0, 1, 3), size=shape))
    hemi = rng.integers(0, 3, size=shape).astype(np.uint8)
    partial = rng.integers(0, 27, size=shape).astype(np.int16)
    lms = _landmarks(draw, (11, 12), shape[1])
    cfg = RefinementConfig(partial_rules=draw(st.booleans()))
    return partial, make_volume(data.astype(np.int16)), lms, hemi, cfg


@PROPERTY
@given(case=extents_cases())
def test_apply_coronal_extents_matches_reference(case):
    _assert_same(_outcome(ref.apply_coronal_extents, *case),
                 _outcome(refine_mod.apply_coronal_extents, *case))


@PROPERTY
@given(case=vdc_cases())
def test_split_vdc_matches_reference(case):
    _assert_same(_outcome(ref.split_vdc, *case),
                 _outcome(refine_mod.split_vdc, *case))
