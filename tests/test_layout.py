"""Memory layout and stored orientation change no result.

NIfTI stores voxels in Fortran order and ``read_volume`` keeps that
order, while volumes built in memory are usually C-ordered.  Every
kernel must give the same result whatever the memory layout of its
inputs, and refinement must commute with the axis permutation and
flips that a volume is stored under.  Where the subject sits in the
world changes no result either.
"""

import functools
import itertools
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoarefine import (
    FINE_LABELS,
    LandmarkSet,
    PhantomSpec,
    RefinementConfig,
    Volume,
    build_midsagittal_plane,
    coronal_slice_index,
    degrade_phantom,
    evaluate_pair,
    fuse_labels,
    generate_phantom,
    read_volume,
    refine_full,
    reorient_to_canonical,
    split_hemispheres,
    write_volume,
)
from hoarefine.metrics import N_CLASSES, dice

from conftest import make_volume, to_las

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

LAYOUTS = ("C", "F", "flipped", "permuted")


def _held_as(data: np.ndarray, layout: str) -> np.ndarray:
    """``data``'s values in the given memory layout: C order, F order, a
    view of a buffer reversed along two axes, or a view of a buffer whose
    axes are permuted (neither C- nor F-contiguous)."""
    if layout == "C":
        return np.ascontiguousarray(data)
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "flipped":
        return np.ascontiguousarray(data[::-1, :, ::-1])[::-1, :, ::-1]
    return np.ascontiguousarray(data.transpose(1, 2, 0)).transpose(2, 0, 1)


def _same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes(order="C") == b.tobytes(order="C")


shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9)


def label_arrays(dtype=np.int16, hi=N_CLASSES - 1):
    return shapes.flatmap(lambda s: hnp.arrays(dtype, s, elements=st.integers(0, hi)))


@PROPERTY
@given(data=label_arrays(), layout=st.sampled_from(LAYOUTS),
       picks=st.lists(st.integers(0, 30), max_size=4))
def test_label_boxes_and_box_ignore_layout(data, layout, picks):
    ref = make_volume(data)
    vol = make_volume(_held_as(data, layout))
    _same_array(vol.data, ref.data)
    lo, hi, words = ref.label_scan
    assert vol.label_scan[:2] == (lo, hi) == (data.min(), data.max())
    assert len(vol.label_scan[2]) == len(words) == 3
    assert all(np.array_equal(a, b) for a, b in zip(vol.label_scan[2], words))
    assert vol.box(picks) == ref.box(picks)
    objects = ndi.find_objects(data)
    for v in range(1, hi + 1):
        assert ref.box((v,)) == vol.box((v,)) == objects[v - 1]


@PROPERTY
@given(pair=shapes.flatmap(lambda s: st.tuples(
           hnp.arrays(np.uint8, s, elements=st.integers(0, N_CLASSES - 1)),
           hnp.arrays(np.int16, s, elements=st.integers(0, N_CLASSES - 1)))))
def test_dice_ignores_layout(pair):
    p, g = pair
    confusion = np.bincount(p.ravel().astype(np.int64) * N_CLASSES + g.ravel(),
                            minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)
    for lp, lg in itertools.product(LAYOUTS, repeat=2):  # all 16, mixed ones included
        pv, gv = make_volume(_held_as(p, lp)), make_volume(_held_as(g, lg))
        for v in range(N_CLASSES):
            denom = int(confusion[v].sum()) + int(confusion[:, v].sum())
            assert dice(pv, gv, v) == (2.0 * int(confusion[v, v]) / denom if denom else 1.0)


@PROPERTY
@given(data=label_arrays(hi=max(FINE_LABELS)), layout=st.sampled_from(LAYOUTS))
def test_fuse_labels_ignores_layout(data, layout):
    ref = fuse_labels(make_volume(data, taxonomy="fine26"))
    got = fuse_labels(make_volume(_held_as(data, layout), taxonomy="fine26"))
    _same_array(got.data, ref.data)
    assert got.taxonomy == ref.taxonomy


# per stored dtype; int64 takes the uint8 or the int16 fallback by its range
WRITE_ELEMENTS = {np.uint8: st.integers(0, 255), np.int16: st.integers(-300, 300),
                  np.int32: st.integers(0, 300), np.int64: st.integers(-300, 300),
                  np.float32: st.floats(-1e3, 1e3, width=32)}


@PROPERTY
@given(data=st.sampled_from(sorted(WRITE_ELEMENTS, key=str)).flatmap(
           lambda dt: shapes.flatmap(lambda s: hnp.arrays(dt, s, elements=WRITE_ELEMENTS[dt]))),
       layout=st.sampled_from(LAYOUTS))
def test_write_volume_bytes_ignore_layout(data, layout):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("v.nii", "v.nii.gz"):
            write_volume(make_volume(data, spacing=0.5), tmp / f"c-{name}")
            write_volume(make_volume(_held_as(data, layout), spacing=0.5), tmp / name)
            assert (tmp / name).read_bytes() == (tmp / f"c-{name}").read_bytes()


def test_read_volume_keeps_fortran_order(tmp_path):
    data = np.random.default_rng(0).integers(0, 27, (7, 6, 5)).astype(np.int16)
    for name in ("v.nii", "v.nii.gz"):
        write_volume(make_volume(data), tmp_path / name)
        vol = read_volume(tmp_path / name)
        assert vol.order == "F"
        assert vol.data.flags.f_contiguous and not vol.data.flags.writeable
        _same_array(vol.data, data)
        # a volume keeps the order it is given, and F data round-trips
        assert make_volume(data).order == "C"
        assert vol.with_data(vol.data).order == "F"


@functools.lru_cache(maxsize=None)
def _fused_input(seed: int):
    vol, lms = generate_phantom(seed)
    deg, _ = degrade_phantom(vol, lms, "boundary-noise", 0.05, seed=seed)
    return vol, deg, lms


configs = st.builds(RefinementConfig, slice_adjust=st.booleans(),
                    partial_rules=st.booleans())


@settings(PROPERTY, max_examples=20)
@given(seed=st.integers(0, 1), las=st.booleans(), cfg=configs,
       layout=st.sampled_from(LAYOUTS[1:]))
def test_refine_full_ignores_layout(seed, las, cfg, layout):
    _, vol12, lms = _fused_input(seed)
    if las:
        vol12 = to_las(vol12)
    outcomes = []
    for vol in (vol12, vol12.with_data(_held_as(vol12.data, layout))):
        try:
            out = refine_full(vol, lms, cfg)
        except Exception as exc:  # compared, not handled
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((out.data.dtype, out.data.tobytes(order="C"),
                             out.affine.tobytes()))
            # fusing the output gives the input back, except the fused-3
            # voxels strictly anterior of #9's slice: rule (iii) makes them CSF
            anterior = np.arange(vol.dims[1])[None, :, None] > coronal_slice_index(vol, lms[9])
            want = np.where((vol.data == 3) & anterior, 2, vol.data)
            assert np.array_equal(fuse_labels(out).data, want)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("las", [False, True], ids=["RAS", "LAS"])
def test_fortran_input_gives_fortran_output(las):
    """F-ordered inputs (as read from disk) give F-ordered outputs, so
    writing them needs no transposition."""
    fine, vol12, lms = _fused_input(0)
    fine, vol12 = (v.with_data(np.asfortranarray(v.data)) for v in (fine, vol12))
    if las:
        fine, vol12 = to_las(fine), to_las(vol12)
    assert fine.order == vol12.order == "F"
    assert fuse_labels(fine).order == "F"
    assert refine_full(vol12, lms).order == "F"


@pytest.mark.parametrize("layouts", [("F", "F"), ("F", "C"), ("C", "F"),
                                     ("permuted", "flipped")])
def test_evaluate_pair_ignores_layout(refined0, phantom0, layouts):
    gt, lms = phantom0
    ref = evaluate_pair(refined0, gt, lms)
    got = evaluate_pair(refined0.with_data(_held_as(refined0.data, layouts[0])),
                        gt.with_data(_held_as(gt.data, layouts[1])), lms)
    assert got.rows == ref.rows
    assert got.skipped == ref.skipped


# ---------------------------------------------------------------------------
# orientation equivariance

ORIENTATIONS = [(perm, flips) for perm in itertools.permutations(range(3))
                for flips in itertools.product((False, True), repeat=3)]


def _stored(vol: Volume, perm, flips) -> Volume:
    """``vol`` (canonical RAS) stored with canonical axis c on data axis
    perm[c], reversed when flips[c]; world coordinates are unchanged."""
    data = vol.data[tuple(slice(None, None, -1) if f else slice(None) for f in flips)]
    inv = [perm.index(s) for s in range(3)]
    lin = vol.affine[:3, :3]
    affine = np.eye(4)
    affine[:3, 3] = vol.affine[:3, 3]
    for c, (s, f) in enumerate(zip(perm, flips)):
        affine[:3, s] = -lin[:, c] if f else lin[:, c]
        if f:
            affine[:3, 3] += lin[:, c] * (vol.dims[c] - 1)
    return Volume(np.transpose(data, inv), affine, taxonomy=vol.taxonomy)


@functools.lru_cache(maxsize=None)
def _dyadic_case():
    """A fused phantom on a 0.5 mm grid: every affine entry, voxel centre
    and landmark coordinate is a dyadic rational, so reorientation and
    the voxel-to-world products are exact in any stored orientation."""
    vol, lms = generate_phantom(PhantomSpec(seed=3, spacing=0.5))
    vol12 = fuse_labels(vol)
    return vol12, lms, refine_full(vol12, lms)


@pytest.mark.parametrize("perm, flips", ORIENTATIONS,
                         ids=[f"{''.join(map(str, p))}-{''.join('F' if f else '.' for f in fl)}"
                              for p, fl in ORIENTATIONS])
def test_refine_commutes_with_stored_orientation(tmp_path, perm, flips):
    """refine of a stored permutation equals that permutation of the
    canonical result, byte for byte on disk.

    On a grid with non-dyadic spacing or origin, a flipped axis moves the
    origin by spacing * (n - 1), which can round differently from the
    canonical origin; a landmark or a voxel centre that then sits within
    an ulp of a slice midpoint or of the midsagittal plane may snap to
    the other side, so only the dyadic case is exact.
    """
    vol12, lms, canonical = _dyadic_case()
    write_volume(_stored(vol12, perm, flips), tmp_path / "in.nii.gz")
    stored = read_volume(tmp_path / "in.nii.gz")
    write_volume(refine_full(stored, lms), tmp_path / "out.nii.gz")
    write_volume(_stored(canonical, perm, flips), tmp_path / "want.nii.gz")
    assert (tmp_path / "out.nii.gz").read_bytes() == (tmp_path / "want.nii.gz").read_bytes()


def _translated(vol, dx):
    affine = vol.affine.copy()
    affine[:3, 3] += dx
    return Volume(vol.data, affine, taxonomy=vol.taxonomy)


@functools.lru_cache(maxsize=None)
def _dyadic_report():
    """The fine phantom of ``_dyadic_case`` and the report of its refine."""
    vol, lms = generate_phantom(PhantomSpec(seed=3, spacing=0.5))
    return vol, evaluate_pair(_dyadic_case()[2], vol, lms)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(dx=st.tuples(*[st.integers(-160, 160).map(lambda n: n / 4)] * 3))
@example(dx=(32.0, 0.0, 0.0))
@example(dx=(-40.0, 0.0, 0.0))
@example(dx=(16.0, -40.0, 40.0))
def test_refine_and_evaluate_ignore_where_the_subject_sits(dx):
    """Moving the volume and its landmarks by dx mm, a dyadic step along
    each world axis, changes no refined byte and no report row: medial
    and lateral are measured from the subject's separator, not from
    world x = 0, which the moved subject may lie wholly on one side of."""
    vol12, lms, canonical = _dyadic_case()
    gt, report = _dyadic_report()
    moved = LandmarkSet({i: lms[i] + dx for i in lms.ids})
    pred = refine_full(_translated(vol12, dx), moved)
    assert pred.data.tobytes() == canonical.data.tobytes()
    got = evaluate_pair(pred, _translated(gt, dx), moved)
    assert [astuple(r)[:4] for r in got.rows] == [astuple(r)[:4] for r in report.rows]
    assert got.skipped == report.skipped
    assert np.allclose([r.value for r in got.rows], [r.value for r in report.rows],
                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("base", ["C", "F"])
@pytest.mark.parametrize("perm, flips", ORIENTATIONS[::7])
def test_refine_output_strides_follow_the_stored_layout(base, perm, flips):
    """refine_full writes its int16 output in halves into an array laid
    out as ``astype`` lays out the stored-frame view of the canonical
    uint8 partial: same strides, same ``order``."""
    vol12, lms, _ = _dyadic_case()
    stored = _stored(vol12, perm, flips)
    stored = stored.with_data(np.asarray(stored.data, order=base))
    canonical, amap = reorient_to_canonical(stored)
    partial = np.zeros(canonical.dims, dtype=np.uint8, order=canonical.order)
    out = refine_full(stored, lms).data
    assert out.strides == amap.invert(partial).astype(np.int16).strides
    assert out.flags.owndata and not out.flags.writeable


# ---------------------------------------------------------------------------
# ownership: who copies, who hands over

def test_public_volume_keeps_its_own_copy():
    arr = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    vol = make_volume(arr)
    again = vol.with_data(arr)
    arr[...] = 99
    assert arr.flags.writeable
    for v in (vol, again):
        assert v.data.ravel().tolist() == list(range(24))


def test_returned_data_is_read_only(tmp_path):
    fine, vol12, lms = _fused_input(0)
    write_volume(to_las(vol12), tmp_path / "las.nii.gz")
    stored = read_volume(tmp_path / "las.nii.gz")
    canonical, _ = reorient_to_canonical(stored)
    for vol in (stored, fuse_labels(fine), refine_full(stored, lms), canonical):
        assert not vol.data.flags.writeable
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1


def test_canonical_data_is_a_view_in_the_stored_layout():
    """A LAS volume's canonical data is a flipped view of its stored
    data, and the hemisphere tags are allocated in that view's layout."""
    _, vol12, lms = _fused_input(0)
    stored = to_las(vol12.with_data(np.asfortranarray(vol12.data)))
    canonical, _ = reorient_to_canonical(stored)
    assert np.shares_memory(canonical.data, stored.data)
    assert not canonical.data.flags.f_contiguous
    assert canonical.order == stored.order == "F"
    hemi = split_hemispheres(canonical, build_midsagittal_plane(lms))
    assert hemi.flags.f_contiguous


@settings(PROPERTY, max_examples=300)
@given(orient=st.sampled_from(ORIENTATIONS), base=st.sampled_from("CF"),
       shape=st.tuples(*[st.integers(1, 5)] * 3))
def test_order_follows_stride_magnitudes(orient, base, shape):
    """Over the 48 axis permutations and flips of an F- or C-ordered
    array, ``order`` is "F" exactly when the stride magnitudes of the
    axes longer than one voxel grow along the axes; a volume's copy
    (``Volume(...)``, which keeps that memory order) agrees."""
    perm, flips = orient
    view = np.zeros(shape, dtype=np.int16, order=base)
    view = view[tuple(slice(None, None, -1) if f else slice(None) for f in flips)]
    view = view.transpose(perm)
    owned = Volume._own(view, np.eye(4))
    strides = [abs(st_) for st_, n in zip(view.strides, view.shape) if n > 1]
    grows = len(strides) > 1 and all(a < b for a, b in zip(strides, strides[1:]))
    assert owned.order == ("F" if grows else "C")
    copied = Volume(view, np.eye(4))
    assert copied.order == owned.order
    flags = copied.data.flags
    assert copied.order == ("F" if flags.f_contiguous and not flags.c_contiguous else "C")
