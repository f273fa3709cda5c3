"""The numpy kernels against the scipy.ndimage calls they replace:
``find_objects`` behind ``Volume.box``; ``label`` with a
4-connected cross and ``binary_dilation`` with a full 3x3 square behind
the inferior-horn chase; ``binary_erosion`` behind PASD's surface shell
and the phantom's erosion.

Each input is drawn in C order, in F order and as the strided
``[:, j, :]`` (or ``[:, j]``) view of a larger F-ordered array, the
layouts that refinement hands these kernels.
"""

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoarefine.nifti import _erode_6, _label_scan
from hoarefine.refine import _components_4, _dilate_3x3

from conftest import make_volume

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

CROSS = ndi.generate_binary_structure(2, 1)
SQUARE = np.ones((3, 3), dtype=bool)
LAYOUTS = ("C", "F", "view")


def _held_as(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` in C order, F order, or as a strided view along a new axis 1
    of an F-ordered array whose other planes hold different values."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    host = np.zeros((a.shape[0], 3, *a.shape[1:]), dtype=a.dtype, order="F")
    host[:, 0] = host[:, 2] = np.logical_not(a) if a.dtype == bool else a.max(initial=0) + 1
    host[:, 1] = a
    return host[:, 1]


masks = hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24))


@PROPERTY
@given(mask=masks, layout=st.sampled_from(LAYOUTS))
@example(mask=np.zeros((5, 7), dtype=bool), layout="view")
@example(mask=np.ones((5, 7), dtype=bool), layout="view")
@example(mask=np.ones((1, 9), dtype=bool), layout="C")
@example(mask=np.ones((9, 1), dtype=bool), layout="F")
@example(mask=np.eye(6, dtype=bool) | np.eye(6, dtype=bool)[::-1], layout="view")
@example(mask=np.indices((7, 8)).sum(axis=0) % 2 == 0, layout="view")
def test_components_4_matches_ndi_label(mask, layout):
    held = _held_as(mask, layout)
    want, n = ndi.label(mask, structure=CROSS)
    got, m = _components_4(held)
    assert m == n
    assert got.shape == mask.shape
    assert np.array_equal(got, want)


@PROPERTY
@given(shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
       seed=st.integers(0, 2**16), density=st.floats(0.3, 0.9),
       layout=st.sampled_from(LAYOUTS))
def test_components_4_matches_ndi_label_on_large_masks(shape, seed, density, layout):
    # dense random masks join many runs through long, winding paths
    mask = np.random.default_rng(seed).random(shape) < density
    want, n = ndi.label(mask, structure=CROSS)
    got, m = _components_4(_held_as(mask, layout))
    assert m == n
    assert np.array_equal(got, want)


@PROPERTY
@given(mask=masks, layout=st.sampled_from(LAYOUTS))
@example(mask=np.zeros((5, 7), dtype=bool), layout="C")
@example(mask=np.ones((5, 7), dtype=bool), layout="view")
@example(mask=np.ones((1, 9), dtype=bool), layout="F")
@example(mask=np.ones((9, 1), dtype=bool), layout="view")
@example(mask=np.ones((1, 1), dtype=bool), layout="C")
def test_dilate_3x3_matches_ndi_binary_dilation(mask, layout):
    got = _dilate_3x3(_held_as(mask, layout))
    assert got.dtype == bool
    assert np.array_equal(got, ndi.binary_dilation(mask, structure=SQUARE))


label_maps = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9).flatmap(
    lambda s: st.sampled_from((np.int16, np.int32, np.uint8)).flatmap(
        lambda dt: hnp.arrays(dt, s, elements=st.integers(
            0 if np.dtype(dt).kind == "u" else -3, min(200, np.iinfo(dt).max)))))


@PROPERTY
@given(data=label_maps, layout=st.sampled_from(LAYOUTS + ("permuted",)))
@example(data=np.zeros((3, 4, 5), dtype=np.int16), layout="view")
@example(data=np.full((3, 4, 5), -3, dtype=np.int16), layout="F")
@example(data=np.full((1, 1, 7), 200, dtype=np.int16), layout="C")
@example(data=np.arange(1, 201, dtype=np.int16).reshape(5, 8, 5), layout="view")
@example(data=np.arange(-3, 201, dtype=np.int32).reshape(1, 204, 1), layout="F")
@example(data=np.arange(0, 32, dtype=np.int16).reshape(2, 4, 4), layout="view")
@example(data=np.arange(0, 33, dtype=np.uint8).reshape(3, 1, 11), layout="permuted")
def test_label_boxes_match_find_objects(data, layout):
    """The scan's range is the array's; ``box`` of each value is
    ``find_objects``' box when every value lies in 0..31, its words do not
    depend on the layout, and ``box`` raises otherwise."""
    held = data.transpose(1, 2, 0) if layout == "permuted" else _held_as(data, layout)
    lo, hi = int(data.min()), int(data.max())
    vol = make_volume(held)
    assert _label_scan(held)[:2] == vol.label_scan[:2] == (lo, hi)
    words = vol.label_scan[2]
    if lo < 0 or hi > 31:
        assert words is None
        with pytest.raises(ValueError, match=f"^no boxes: label {lo if lo < 0 else hi} is outside"):
            vol.box((1,))
        return
    objects = ndi.find_objects(held)
    for v in range(1, hi + 1):
        assert vol.box((v,)) == objects[v - 1]
    c_words = _label_scan(np.ascontiguousarray(held))[2]
    assert len(words) == len(c_words) == 3
    assert all(np.array_equal(a, b) for a, b in zip(words, c_words))


def _brute_scan(data: np.ndarray) -> tuple:
    """``(min, max, words)`` from whole-array reductions: min and max 0 when
    empty, and words None when a value lies outside 0..31."""
    lo, hi = (int(data.min()), int(data.max())) if data.size else (0, 0)
    if lo < 0 or hi > 31:
        return lo, hi, None
    bits = np.left_shift(np.uint32(1), data.astype(np.uint32))
    return lo, hi, tuple(np.bitwise_or.reduce(bits, axis=tuple(b for b in range(3) if b != a))
                         for a in range(3))


scan_maps = hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=9).flatmap(
    lambda s: st.sampled_from((np.int16, np.int32, np.uint8)).flatmap(
        lambda dt: hnp.arrays(dt, s, elements=st.integers(
            0 if np.dtype(dt).kind == "u" else -2, 40))))


@PROPERTY
@given(data=scan_maps, layout=st.sampled_from(LAYOUTS + ("flipped", "permuted")))
@example(data=np.zeros((0, 3, 4), dtype=np.int16), layout="C")
@example(data=np.zeros((3, 0, 4), dtype=np.int16), layout="F")
@example(data=np.zeros((3, 4, 0), dtype=np.uint8), layout="permuted")
@example(data=np.full((1, 1, 1), 7, dtype=np.int16), layout="flipped")
@example(data=np.arange(3, dtype=np.int16).reshape(1, 3, 1), layout="F")
@example(data=np.arange(3, dtype=np.int16).reshape(3, 1, 1) - 1, layout="C")
@example(data=np.arange(30, 33, dtype=np.int32).reshape(3, 1, 1), layout="C")
@example(data=np.arange(0, 32, dtype=np.uint8).reshape(4, 2, 4), layout="view")
def test_label_scan_matches_brute_force(data, layout):
    """The scan, which walks 2-plane slabs of the slowest-varying memory
    axis, equals whole-array reductions in every layout, an empty axis
    and a last slab of one plane included."""
    if layout == "flipped":
        held = _held_as(data, "F")[::-1, :, ::-1]
        data = data[::-1, :, ::-1]
    elif layout == "permuted":
        held = _held_as(data, "F").transpose(1, 2, 0)
        data = data.transpose(1, 2, 0)
    else:
        held = _held_as(data, layout)
    want_lo, want_hi, want = _brute_scan(data)
    lo, hi, words = _label_scan(held)
    assert (lo, hi) == (want_lo, want_hi)
    if want is None:
        assert words is None
        return
    assert [w.dtype for w in words] == [np.dtype(np.uint32)] * 3
    assert all(not w.flags.writeable for w in words)
    assert [w.tolist() for w in words] == [w.tolist() for w in want]


@PROPERTY
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=10)),
       steps=st.integers(1, 3), layout=st.sampled_from(LAYOUTS))
@example(mask=np.ones((1, 4, 5), dtype=bool), steps=1, layout="view")
@example(mask=np.ones((9, 9, 9), dtype=bool), steps=3, layout="F")
@example(mask=np.ones((7, 7, 7), dtype=bool), steps=3, layout="C")
def test_erode_6_matches_ndi_binary_erosion(mask, steps, layout):
    held = _held_as(mask, layout)
    got = _erode_6(held, steps)
    assert got.dtype == bool
    assert np.array_equal(got, ndi.binary_erosion(mask, iterations=steps))
    assert np.array_equal(held, mask)  # the input is left as it was


@settings(PROPERTY, max_examples=50)
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=10)),
       layout=st.sampled_from(LAYOUTS))
@example(mask=np.ones((10, 10, 10), dtype=bool), layout="C")
def test_erode_6_stops_once_empty(mask, layout):
    """Enough steps empty any mask; a million more give the same bytes."""
    held = _held_as(mask, layout)
    enough = _erode_6(held, max(mask.shape))
    assert not enough.any()
    assert np.array_equal(_erode_6(held, 10**6), enough)
