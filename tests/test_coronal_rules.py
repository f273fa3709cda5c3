"""The coronal rules see their landmarks only through the snapped slice.

#1, #2, #7, #8, #9, #11 and #12 enter the refinement only through the
rows of ``CORONAL_RULES``.  Moving any of them anywhere within its
snapped coronal slice leaves every output byte as it was; moving one of
them one slice further changes only voxels on one slice, and only
between the ``from`` and ``to`` ids of its own rows.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hoarefine import (
    LandmarkSet,
    RefinementConfig,
    Volume,
    degrade_phantom,
    generate_phantom,
    refine_full,
    reorient_to_canonical,
)
from hoarefine.labels import CORONAL_RULES
from hoarefine.refine import coronal_slice_index

from conftest import to_las

PROPERTY = settings(derandomize=True, deadline=None, max_examples=4)

TABLE_LANDMARKS = sorted({lm for _, _, lm, _ in CORONAL_RULES})
EXTENT_PAIRS = ((1, 7), (2, 8))  # (anterior, posterior) landmarks of rules (i)/(ii)

grids = pytest.mark.parametrize("grid", ["RAS", "LAS", "rotated"])
slice_adjust = pytest.mark.parametrize("slice_adjust", [False, True])


@functools.lru_cache(maxsize=None)
def _input(seed, grid):
    """Phantom ``seed`` with boundary noise, fused, and its landmarks, on
    an axis-aligned grid stored RAS or LAS, or rotated 0.2 rad about z."""
    vol, lms = generate_phantom(seed)
    fused, lms = degrade_phantom(vol, lms, "boundary-noise", 0.2, seed=seed)
    if grid == "LAS":
        fused = to_las(fused)
    elif grid == "rotated":
        rot = np.eye(4)
        rot[:2, :2] = [[math.cos(0.2), -math.sin(0.2)], [math.sin(0.2), math.cos(0.2)]]
        fused = Volume(fused.data, rot @ fused.affine, taxonomy=fused.taxonomy)
        lms = LandmarkSet({i: rot[:3, :3] @ lms[i] for i in lms.ids})
    return fused, lms


@functools.lru_cache(maxsize=None)
def _refined(seed, grid, slice_adjust):
    fused, lms = _input(seed, grid)
    return refine_full(fused, lms, RefinementConfig(slice_adjust=slice_adjust)).data


@grids
@slice_adjust
@PROPERTY
@given(seed=st.integers(0, 2),
       moves=st.dictionaries(st.sampled_from(TABLE_LANDMARKS),
                             st.tuples(st.floats(-0.45, 0.45), st.floats(-0.2, 1.2),
                                       st.floats(-0.2, 1.2)), min_size=1))
def test_moves_within_the_snapped_slice_change_nothing(grid, slice_adjust, seed, moves):
    fused, lms = _input(seed, grid)
    can, _ = reorient_to_canonical(fused)
    nx, _, nz = can.dims
    points = dict(lms.points)
    for lid, (dj, fi, fk) in moves.items():
        j = coronal_slice_index(can, lms[lid])
        points[lid] = can.voxel_to_world(np.array([fi * nx, j + dj, fk * nz]))
        assert coronal_slice_index(can, points[lid]) == j
    out = refine_full(fused, LandmarkSet(points), RefinementConfig(slice_adjust=slice_adjust))
    assert np.array_equal(out.data, _refined(seed, grid, slice_adjust))


@grids
@slice_adjust
@PROPERTY
@given(seed=st.integers(0, 2), lid=st.sampled_from(TABLE_LANDMARKS),
       step=st.sampled_from((-1, 1)))
def test_one_slice_further_changes_one_slice_of_its_rows(grid, slice_adjust, seed, lid, step):
    fused, lms = _input(seed, grid)
    can, _ = reorient_to_canonical(fused)
    ijk = can.world_to_voxel(lms[lid])
    ijk[1] += step
    moved = {**lms.points, lid: can.voxel_to_world(ijk)}
    j_old = coronal_slice_index(can, lms[lid])
    assume(coronal_slice_index(can, moved[lid]) == j_old + step)
    assume(all(coronal_slice_index(can, moved[a]) >= coronal_slice_index(can, moved[p])
               for a, p in EXTENT_PAIRS))
    out = refine_full(fused, LandmarkSet(moved), RefinementConfig(slice_adjust=slice_adjust))

    rows = [(a, b, anterior) for a, b, lm, anterior in CORONAL_RULES if lm == lid]
    # the slice that changes side: the new landmark slice or the old one,
    # whichever lies on the rule's side of the other
    anterior = rows[0][2]
    changed_slice = max(j_old, j_old + step) if anterior else min(j_old, j_old + step)
    allowed = {pair for a, b, _ in rows for pair in ((a, b), (b, a))}
    before = reorient_to_canonical(
        Volume(_refined(seed, grid, slice_adjust), fused.affine))[0].data
    after = reorient_to_canonical(Volume(out.data, fused.affine))[0].data
    i, j, k = np.nonzero(before != after)
    assert np.all(j == changed_slice)
    assert set(zip(before[i, j, k].tolist(), after[i, j, k].tolist())) <= allowed
