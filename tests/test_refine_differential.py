"""Table-driven refinement against the pass-by-pass reference, byte for byte.

Each property runs the package implementation and ``refine_reference``
on the same input and requires either equal arrays or the same
exception type and message from both.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hoarefine.refine as refine_mod
import refine_reference as ref
from hoarefine import (
    DEGRADE_MODES,
    LANDMARKS,
    MIDSAGITTAL_IDS,
    LandmarkSet,
    Plane,
    RefinementConfig,
    Volume,
    degrade_phantom,
    fuse_labels,
    generate_phantom,
    refine_full,
)

from conftest import make_volume, resample, start_partial, to_las

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

STAGES = ("split_hemispheres", "separate_nacc_putamen", "apply_coronal_extents",
          "split_vdc", "split_lv_ih")


def _outcome(fn, *args):
    """An array result, or (exception type, message)."""
    try:
        out = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return out.data if isinstance(out, Volume) else out


def _assert_same(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    else:
        assert a == b


@functools.lru_cache(maxsize=None)
def _fused_input(seed, mode):
    vol, lms = generate_phantom(seed)
    if mode is None:
        return fuse_labels(vol), lms
    amount = {"landmark-jitter": 1.0, "boundary-noise": 0.2, "erosion": 1}[mode]
    return degrade_phantom(vol, lms, mode, amount, seed=seed)


configs = st.builds(RefinementConfig, slice_adjust=st.booleans(),
                    partial_rules=st.booleans())

# landmark ids to drop: none, any rule landmarks, or a midsagittal one
dropped_ids = st.one_of(
    st.just(frozenset()),
    st.frozensets(st.sampled_from(sorted(set(LANDMARKS) - set(MIDSAGITTAL_IDS)))),
    st.frozensets(st.sampled_from(sorted(LANDMARKS)), max_size=3),
)


@settings(PROPERTY, max_examples=40)
@given(seed=st.integers(0, 3), mode=st.sampled_from((None, *DEGRADE_MODES)),
       las=st.booleans(), cfg=configs, dropped=dropped_ids)
def test_refine_full_matches_reference(seed, mode, las, cfg, dropped):
    vol12, lms = _fused_input(seed, mode)
    if las:
        vol12 = to_las(vol12)
    lms = LandmarkSet({i: lms[i] for i in lms.ids if i not in dropped})
    _assert_same(_outcome(ref.refine_full, vol12, lms, cfg),
                 _outcome(refine_full, vol12, lms, cfg))


@pytest.mark.parametrize("slice_adjust", [False, True])
@pytest.mark.parametrize("las", [False, True], ids=["RAS", "LAS"])
def test_upsampled_phantom_matches_reference(las, slice_adjust):
    # 1.5x the phantom's grid, stored in NIfTI's F order: structures are
    # several voxels thick and the horn chase runs over more slices
    vol12, lms = _fused_input(0, "boundary-noise")
    big = resample(vol12, (144, 172, 144))
    vol12 = Volume(np.asfortranarray(big.data), big.affine, taxonomy=big.taxonomy)
    if las:
        vol12 = to_las(vol12)
    cfg = RefinementConfig(slice_adjust=slice_adjust)
    _assert_same(_outcome(ref.refine_full, vol12, lms, cfg),
                 _outcome(refine_full, vol12, lms, cfg))


shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=12)


@PROPERTY
@given(shape=shapes, seed=st.integers(0, 2**16), density=st.floats(0.05, 1.0),
       spacing=st.sampled_from((1.0, 0.7, (0.8, 1.3, 1.0))),
       tilt=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       offset=st.floats(0.0, 10.0), slice_adjust=st.booleans())
def test_slice_adjust_matches_reference(shape, seed, density, spacing, tilt, offset,
                                        slice_adjust):
    rng = np.random.default_rng(seed)
    # bilateral (1) where drawn, else background or a midline label (2)
    data = np.where(rng.random(shape) < density, 1, rng.choice((0, 2), size=shape))
    vol = make_volume(data.astype(np.int16), spacing=spacing)
    plane = Plane(np.array([offset, 0.0, 0.0]), np.array([1.0, *tilt]))
    cfg = RefinementConfig(slice_adjust=slice_adjust)
    _assert_same(ref.split_hemispheres(vol, plane, cfg),
                 refine_mod.split_hemispheres(vol, plane, cfg))


@PROPERTY
@given(shape=shapes, seed=st.integers(0, 2**16), density=st.floats(0.05, 0.8),
       partial_rules=st.booleans(), present=st.sets(st.sampled_from((13, 14))))
def test_split_lv_ih_matches_reference(shape, seed, density, partial_rules, present):
    rng = np.random.default_rng(seed)
    lv = rng.random(shape) < density
    data = np.where(lv, 1, rng.choice((0, 5), size=shape)).astype(np.int16)
    hemi = np.where(lv, rng.integers(1, 3, size=shape), 0).astype(np.uint8)
    vol = make_volume(data)
    lms = LandmarkSet({i: rng.uniform(-1.0, np.array(shape)) for i in present})
    # the ventricle starts at its side's member, fused 5 at any of its members
    partial = start_partial(vol, hemi)
    partial[data == 5] = rng.choice((6, 7, 10, 11), size=np.count_nonzero(data == 5))
    cfg = RefinementConfig(partial_rules=partial_rules)
    _assert_same(_outcome(ref.split_lv_ih, partial, vol, lms, hemi, cfg),
                 _outcome(refine_mod.split_lv_ih, partial, vol, lms, cfg))


def test_refine_full_calls_each_stage_once(monkeypatch, phantom0):
    # external tracing wraps these module attributes by name and counts a
    # rule stage's moves by diffing its input partial (separate_nacc_putamen's
    # ``partial`` keyword, the others' first argument) against its output
    calls = Counter()
    for name in STAGES:
        def counted(*args, _name=name, _fn=getattr(refine_mod, name), **kwargs):
            calls[_name] += 1
            if _name == "split_hemispheres":
                return _fn(*args, **kwargs)
            partial = kwargs["partial"] if _name == "separate_nacc_putamen" else args[0]
            before = partial.copy()
            out = _fn(*args, **kwargs)
            assert not np.shares_memory(out, partial), _name
            assert np.array_equal(partial, before), _name
            return out
        monkeypatch.setattr(refine_mod, name, counted)
    vol, lms = phantom0
    refine_full(fuse_labels(vol), lms)
    assert calls == Counter(STAGES)

