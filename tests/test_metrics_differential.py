"""One-pass evaluation against the mask-per-label reference, value for value.

Each property runs the package metrics and ``metrics_reference`` on the
same input and requires equal report rows (compared with ``==``), or the
same exception type and message from both.  PASD's nearest-voxel search
is also held to a brute-force minimum over every voxel, bit for bit.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as ref
from hoarefine import (
    DEFAULT_BOUNDARIES,
    DEGRADE_MODES,
    LandmarkSet,
    Volume,
    degrade_phantom,
    dice,
    evaluate_pair,
    extract_protocol_surface,
    extract_separation_line,
    fuse_labels,
    generate_phantom,
    pasd,
    refine_full,
)
from hoarefine import metrics
from hoarefine.metrics import _nearest_distances

from conftest import resample, to_las

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)

# every landmark a default boundary is defined by
BOUNDARY_LANDMARKS = sorted({s.landmark for spec in DEFAULT_BOUNDARIES
                             for s in spec.sides if s.landmark is not None})
# background, the labels of every default boundary, and one bystander (CAU)
BLOB_LABELS = np.array(sorted({0, 8} | {lab for spec in DEFAULT_BOUNDARIES
                                        for s in spec.sides
                                        for lab in (s.label, s.neighbor)}))


def _outcome(fn, *args, **kwargs):
    """The result, or (exception type, message)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _rows(report):
    return [(r.metric, r.region, r.surface, r.side, r.value) for r in report.rows]


def _assert_rows_or_skipped(report):
    """Each boundary side has PASD and line rows, or is listed as skipped
    by that family, never both."""
    scored = {r[:4] for r in _rows(report)}
    skipped = {(k.metric, k.region, k.surface, k.side) for k in report.skipped}
    for spec in DEFAULT_BOUNDARIES:
        for bside in spec.sides:
            key = (spec.region, spec.surface, bside.side)
            assert (("pasd",) + key in scored) != (("pasd",) + key in skipped)
            assert (("mae",) + key in scored) != (("lines",) + key in skipped)


def _assert_same(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    elif isinstance(a, tuple) and a and isinstance(a[0], np.ndarray):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@functools.lru_cache(maxsize=None)
def _phantom_pair(seed, mode):
    """(refined prediction, reference, landmarks) at the phantom's 96^3."""
    vol, lms = generate_phantom(seed)
    if mode is None:
        fused, used = fuse_labels(vol), lms
    else:
        amount = {"landmark-jitter": 1.0, "boundary-noise": 0.2, "erosion": 1}[mode]
        fused, used = degrade_phantom(vol, lms, mode, amount, seed=seed)
    return refine_full(fused, used), vol, lms


@PROPERTY
@given(seed=st.integers(0, 3),
       mode=st.sampled_from((None,) + tuple(DEGRADE_MODES)),
       las=st.booleans(),
       dims=st.tuples(*[st.integers(32, 64)] * 3),
       dropped=st.sets(st.sampled_from(BOUNDARY_LANDMARKS), max_size=4))
def test_phantom_reports_match(seed, mode, las, dims, dropped):
    pred, gt, lms = _phantom_pair(seed, mode)
    pred, gt = resample(pred, dims), resample(gt, dims)
    if las:
        pred, gt = to_las(pred), to_las(gt)
    lms = LandmarkSet({i: lms[i] for i in lms.ids if i not in dropped})
    got = evaluate_pair(pred, gt, lms)
    want = ref.evaluate_pair(pred, gt, lms)
    assert _rows(got) == _rows(want)
    _assert_rows_or_skipped(got)


def _grid(kind, spacing, dims):
    """A voxel-to-world affine whose canonical frame is the stored one."""
    lin = np.diag(spacing)
    if kind == "rotated":  # orthogonal axes, 0.2 rad about z
        c, s = np.cos(0.2), np.sin(0.2)
        lin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ lin
    elif kind.startswith("shear"):  # y axis column leans toward x
        lin[0, 1] = float(kind.split("-")[1]) * spacing[1]
    affine = np.eye(4)
    affine[:3, :3] = lin
    affine[:3, 3] = -lin @ ((np.array(dims) - 1) / 2.0)
    return affine


def _blobs(rng, coarse, repeat):
    cells = rng.choice(BLOB_LABELS, size=coarse)
    data = cells
    for ax, r in enumerate(repeat):
        data = np.repeat(data, r, axis=ax)
    return data.astype(np.int16)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1),
       coarse=st.tuples(*[st.integers(2, 6)] * 3),
       repeat=st.tuples(*[st.integers(1, 4)] * 3),
       noise=st.sampled_from((0.0, 0.05, 0.3)),
       spacing=st.tuples(*[st.sampled_from((0.5, 0.7, 1.0, 1.3))] * 3),
       kind=st.sampled_from(("axis", "rotated", "shear-0.15", "shear-0.9")),
       las=st.booleans())
def test_random_blobs_match(seed, coarse, repeat, noise, spacing, kind, las):
    rng = np.random.default_rng(seed)
    gt_data = _blobs(rng, coarse, repeat)
    pred_data = _blobs(rng, coarse, repeat)
    keep = rng.random(coarse) < 0.7  # most cells agree, so boundaries overlap
    for ax, r in enumerate(repeat):
        keep = np.repeat(keep, r, axis=ax)
    pred_data = np.where(keep, gt_data, pred_data)
    flip = rng.random(gt_data.shape) < noise
    pred_data[flip] = rng.choice(BLOB_LABELS, size=int(flip.sum()))
    affine = _grid(kind, np.array(spacing), gt_data.shape)
    gt, pred = Volume(gt_data, affine), Volume(pred_data, affine)
    if las:
        gt, pred = to_las(gt), to_las(pred)
    ijk = rng.integers(0, gt_data.shape, size=(len(BOUNDARY_LANDMARKS), 3))
    world = Volume(gt_data, affine).voxel_to_world(ijk.astype(np.float64))
    lms = LandmarkSet({i: world[n] for n, i in enumerate(BOUNDARY_LANDMARKS)
                       if rng.random() < 0.9})

    got = evaluate_pair(pred, gt, lms)
    assert _rows(got) == _rows(ref.evaluate_pair(pred, gt, lms))
    # random blobs give sides where only one volume holds the pair
    _assert_rows_or_skipped(got)
    for label in (0, 6, 10, 17, 26):
        assert dice(pred, gt, label) == ref.dice(pred, gt, label)
    for spec in DEFAULT_BOUNDARIES:
        for bside in spec.sides:
            args = (gt, pred, spec, lms, bside.side)
            _assert_same(_outcome(extract_protocol_surface, gt, spec, lms, bside.side),
                         _outcome(ref.extract_protocol_surface, gt, spec, lms, bside.side))
            for side_filter in (True, False):
                assert _outcome(pasd, *args, side_filter=side_filter) == \
                    _outcome(ref.pasd, *args, side_filter=side_filter)
    pair = (6, 10)
    for slice_axis, scan_axis in ((0, 1), (1, 0), (2, 0)):
        for index in range(gt_data.shape[slice_axis]):
            _assert_same(
                _outcome(extract_separation_line, pred, slice_axis, index, pair, scan_axis),
                _outcome(ref.extract_separation_line, pred, slice_axis, index, pair,
                         scan_axis))


@functools.lru_cache(maxsize=None)
def _far_pair(seed, kind):
    """(prediction, reference, landmarks): the reference mirrored across
    the midline or moved 40 slices, so that most PASD queries are far
    from the predicted label and go to the cell pass."""
    vol, lms = generate_phantom(seed)
    moved = vol.data[::-1] if kind == "mirror-x" else np.roll(vol.data, 40, axis=1)
    return vol.with_data(np.ascontiguousarray(moved)), vol, lms


@PROPERTY
@given(seed=st.integers(0, 1), kind=st.sampled_from(("mirror-x", "roll-j40")),
       las=st.booleans())
def test_far_predictions_match(seed, kind, las):
    pred, gt, lms = _far_pair(seed, kind)
    if las:
        pred, gt = to_las(pred), to_las(gt)
    got = evaluate_pair(pred, gt, lms)
    assert _rows(got) == _rows(ref.evaluate_pair(pred, gt, lms))
    assert [r.value for r in got.rows if r.metric == "pasd"]
    for spec in DEFAULT_BOUNDARIES:
        for bside in spec.sides:
            args = (gt, pred, spec, lms, bside.side)
            assert _outcome(pasd, *args, side_filter=False) == \
                _outcome(ref.pasd, *args, side_filter=False)


def _brute_nearest(queries, mask, origin, vol):
    """The smallest distance from each query to any mask voxel, by cKDTree's
    formula over the mask's world points."""
    pts = vol.voxel_to_world((np.argwhere(mask) + origin).astype(np.float64))
    d = queries[:, None, :] - pts[None, :, :]
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
                   + d[..., 2] * d[..., 2]).min(axis=1)


@settings(PROPERTY, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.tuples(*[st.integers(2, 28)] * 3),
       coarse=st.tuples(*[st.integers(1, 4)] * 3),
       density=st.sampled_from((0.2, 0.5, 0.9)),
       spacing=st.tuples(*[st.sampled_from((0.5, 0.7, 1.0, 1.3, 2.9))] * 3),
       kind=st.sampled_from(("axis", "rotated", "shear-0.15", "shear-0.3", "shear-0.9")),
       flip=st.booleans(),
       offgrid=st.booleans(),
       block=st.sampled_from((1 << 18, 50, 1)))
def test_nearest_search_is_brute_force_exact(seed, dims, coarse, density, spacing, kind,
                                             flip, offgrid, block):
    rng = np.random.default_rng(seed)
    affine = _grid(kind, np.array(spacing), dims)
    if flip:  # stored x axis reversed: not a canonical frame
        affine[:3, 0] = -affine[:3, 0]
    vol = Volume(np.zeros(dims, dtype=np.int16), affine)
    # a box of the volume holding blocky noise, one voxel at least
    lo = rng.integers(0, dims)
    hi = lo + 1 + rng.integers(0, np.array(dims) - lo)
    cells = rng.random(tuple(-(-(hi - lo) // np.array(coarse)))) < density
    for ax, r in enumerate(coarse):
        cells = np.repeat(cells, r, axis=ax)
    mask = cells[tuple(slice(0, n) for n in hi - lo)]
    mask.flat[rng.integers(mask.size)] = True
    # queries anywhere in the volume: inside the mask, next to it, far off
    vox = np.concatenate([rng.integers(0, dims, size=(20, 3)),
                          np.argwhere(mask)[:5] + lo,
                          np.clip(lo - 1 + rng.integers(0, hi - lo + 2, size=(10, 3)),
                                  0, np.array(dims) - 1)])
    queries = vol.voxel_to_world(vox.astype(np.float64))
    if offgrid:  # the two grids may differ within _check_aligned's 1e-6
        queries = queries + rng.uniform(-5e-7, 5e-7, size=queries.shape)
    with mock.patch.object(metrics, "_BLOCK", block):
        got = _nearest_distances(vox, queries, mask, lo, vol)
    want = _brute_nearest(queries, mask, lo, vol)
    assert got.dtype == np.float64
    assert np.array_equal(got, want), np.flatnonzero(got != want)


@settings(PROPERTY, max_examples=12)
@given(kind=st.sampled_from(("axis", "rotated", "shear-0.9")),
       block=st.sampled_from((1 << 18, 1)))
def test_far_queries_search_past_the_nearest_cell(kind, block):
    """Queries facing a scattered mask from afar all go to the cell pass,
    where the nearest cell box often holds no nearest voxel; at
    ``_BLOCK`` 1 each cell is measured in a piece of its own."""
    rng = np.random.default_rng(7)
    dims = (40, 36, 32)
    vol = Volume(np.zeros(dims, dtype=np.int16), _grid(kind, np.array([0.7, 1.3, 1.0]), dims))
    mask = rng.random((24, 20, 16)) < 0.05
    lo = np.array([16, 16, 16])
    vox = rng.integers((0, 16, 16), (12, 36, 32), size=(200, 3))
    queries = vol.voxel_to_world(vox.astype(np.float64))
    with mock.patch.object(metrics, "_BLOCK", block):
        got = _nearest_distances(vox, queries, mask, lo, vol)
    assert np.array_equal(got, _brute_nearest(queries, mask, lo, vol))
