"""One-pass evaluation against the mask-per-label reference, value for value.

Each property runs the package metrics and ``metrics_reference`` on the
same input and requires equal report rows (compared with ``==``), or the
same exception type and message from both.
"""

import functools

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

from conftest import resample

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


def _to_las(vol):
    """The same world volume stored with its x axis reversed."""
    affine = vol.affine.copy()
    affine[:3, 3] += affine[:3, 0] * (vol.dims[0] - 1)
    affine[:3, 0] = -affine[:3, 0]
    return Volume(vol.data[::-1], affine, taxonomy=vol.taxonomy)


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
        pred, gt = _to_las(pred), _to_las(gt)
    lms = LandmarkSet({i: lms[i] for i in lms.ids if i not in dropped})
    got = evaluate_pair(pred, gt, lms)
    want = ref.evaluate_pair(pred, gt, lms)
    assert _rows(got) == _rows(want)
    skipped = {(k.metric, k.region, k.surface, k.side) for k in got.skipped}
    for spec in DEFAULT_BOUNDARIES:
        for bside in spec.sides:
            key = (spec.region, spec.surface, bside.side)
            has_pasd = ("pasd",) + key in {r[:4] for r in _rows(got)}
            assert has_pasd != (("pasd",) + key in skipped)
            has_lines = ("mae",) + key in {r[:4] for r in _rows(got)}
            assert has_lines != (("lines",) + key in skipped)


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
        gt, pred = _to_las(gt), _to_las(pred)
    ijk = rng.integers(0, gt_data.shape, size=(len(BOUNDARY_LANDMARKS), 3))
    world = Volume(gt_data, affine).voxel_to_world(ijk.astype(np.float64))
    lms = LandmarkSet({i: world[n] for n, i in enumerate(BOUNDARY_LANDMARKS)
                       if rng.random() < 0.9})

    assert _rows(evaluate_pair(pred, gt, lms)) == _rows(ref.evaluate_pair(pred, gt, lms))
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
