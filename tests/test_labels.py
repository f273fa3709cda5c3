"""Label taxonomies, fusion, and landmark parsing/validation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoarefine import (
    BILATERAL_FUSED,
    FINE_LABELS,
    FUSE_LUT,
    FUSED_LABELS,
    LANDMARK_PAIRS,
    LANDMARKS,
    MIDLINE_FUSED,
    N_LANDMARKS,
    LabelError,
    LandmarkSet,
    fuse_labels,
    parse_landmarks,
    validate_labels,
    validate_landmarks,
    write_landmarks,
)
from hoarefine.labels import FINE_HEMISPHERE, FINE_NAME, HEMI_PAIRS

from conftest import make_volume


def test_fuse_lut_spot_values():
    # putamen and inferior horn collapse into their groups; 0 stays 0
    assert FUSE_LUT[10] == 5 and FUSE_LUT[11] == 5
    assert FUSE_LUT[17] == 1 and FUSE_LUT[18] == 1
    assert FUSE_LUT[0] == 0
    assert FUSE_LUT[25] == 12 and FUSE_LUT[26] == 12
    assert FUSE_LUT[3] == 2 and FUSE_LUT[4] == 3


def test_fused_partition_complete():
    assert set(FUSE_LUT[1:].tolist()) == set(FUSED_LABELS)
    assert BILATERAL_FUSED | MIDLINE_FUSED == set(FUSED_LABELS)
    assert not BILATERAL_FUSED & MIDLINE_FUSED
    # every bilateral group has left/right fine members with matching names
    for fused, (left, right) in HEMI_PAIRS.items():
        assert FUSE_LUT[left] == fused and FUSE_LUT[right] == fused
        assert FINE_HEMISPHERE[left] == "left"
        assert FINE_HEMISPHERE[right] == "right"
        assert FINE_NAME[left][:-2] == FINE_NAME[right][:-2]


def test_catalog_sizes():
    assert len(FINE_LABELS) == 26
    assert len(FUSED_LABELS) == 12
    assert len(LANDMARKS) == N_LANDMARKS == 16
    assert len(LANDMARK_PAIRS) == 6


def test_fuse_labels_round_values():
    data = np.zeros((2, 2, 7), dtype=np.int16)
    data[0, 0] = [0, 6, 10, 17, 23, 26, 14]
    vol = make_volume(data, taxonomy="fine26")
    fused = fuse_labels(vol)
    assert fused.data[0, 0].tolist() == [0, 5, 5, 1, 12, 12, 8]
    assert fused.taxonomy == "fused12"
    assert fused.data.dtype == np.int16


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_fuse_labels_output_is_int16(dtype):
    data = np.arange(27, dtype=dtype).reshape(3, 3, 3)
    fused = fuse_labels(make_volume(data))
    assert fused.data.dtype == np.int16
    assert fused.data.ravel().tolist() == FUSE_LUT.tolist()


def test_fuse_labels_peak_memory_260():
    """The traced peak of fuse_labels at 260x311x260 stays under 3x the
    int16 input: no int64 copy of the volume (that was 8x)."""
    import tracemalloc

    data = np.zeros((260, 311, 260), dtype=np.int16)
    data[:, :, :27] = np.arange(27, dtype=np.int16)
    vol = make_volume(data, taxonomy="fine26")
    del data
    tracemalloc.start()
    try:
        fused = fuse_labels(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fused.data[0, 0, :27].tolist() == FUSE_LUT.tolist()
    assert peak < 3 * vol.data.nbytes, f"peak {peak / 2**20:.0f} MiB"


def test_fuse_labels_rejects_fused_and_bad_values():
    with pytest.raises(LabelError):
        fuse_labels(make_volume(np.ones((2, 2, 2), dtype=np.int16),
                                taxonomy="fused12"))
    with pytest.raises(LabelError):
        fuse_labels(make_volume(np.full((2, 2, 2), 27, dtype=np.int16)))
    with pytest.raises(LabelError):
        fuse_labels(make_volume(np.ones((2, 2, 2), dtype=np.float32)))


def test_validate_labels_range():
    validate_labels(np.array([[[0, 12]]]), "fused12")
    with pytest.raises(LabelError):
        validate_labels(np.array([[[13]]]), "fused12")
    with pytest.raises(LabelError):
        validate_labels(np.array([[[-1]]]), "fine26")


def _validate_reference(data, taxonomy):
    """validate_labels as it was before the range check: np.unique always."""
    table = FINE_LABELS if taxonomy == "fine26" else FUSED_LABELS
    bad = [int(v) for v in np.unique(data) if v != 0 and int(v) not in table]
    if bad:
        raise LabelError(f"values {bad} are not {taxonomy} labels")


def _outcome(fn, data, taxonomy):
    try:
        fn(data, taxonomy)
    except Exception as exc:  # NaN and inf raise from int() in both
        return type(exc), str(exc)
    return None


@st.composite
def label_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(["uint8", "int16", "uint16", "int32", "float32"])))
    if dtype.kind == "f":
        values = st.one_of(st.integers(0, 12).map(float), st.integers(-2, 30).map(float),
                           st.sampled_from([-0.5, 0.5, 12.5, 26.5, np.nan, np.inf]),
                           st.floats(width=32))
    else:
        info = np.iinfo(dtype)
        values = st.one_of(st.integers(0, 12), st.integers(max(info.min, -2), 30),
                           st.integers(info.min, info.max))
    shape = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
    return draw(hnp.arrays(dtype, shape, elements=values))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=label_arrays(), taxonomy=st.sampled_from(["fine26", "fused12"]))
@example(data=np.array([0.5], dtype=np.float32), taxonomy="fused12")
@example(data=np.array([3, np.nan], dtype=np.float32), taxonomy="fine26")
@example(data=np.zeros((0, 2), dtype=np.uint8), taxonomy="fused12")
def test_validate_labels_matches_unique_reference(data, taxonomy):
    assert _outcome(validate_labels, data, taxonomy) \
        == _outcome(_validate_reference, data, taxonomy)


def test_validate_labels_peak_memory_260():
    """In-range labels at 260x311x260 pass with no volume-sized copy
    (np.unique's sorted copy was 40 MiB)."""
    import tracemalloc

    data = np.zeros((260, 311, 260), dtype=np.int16)
    data[:, :, :27] = np.arange(27, dtype=np.int16)
    tracemalloc.start()
    try:
        validate_labels(data, "fine26")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_landmark_set_basics():
    pts = {i: np.array([float(i), 0.0, 0.0]) for i in range(1, 17)}
    lms = LandmarkSet(pts)
    assert len(lms) == 16 and 7 in lms
    arr = lms.as_array()
    assert arr.shape == (16, 3)
    back = LandmarkSet.from_array(arr)
    assert np.allclose(back[9], lms[9])
    partial = LandmarkSet({1: pts[1]})
    with pytest.raises(LabelError, match="missing"):
        partial.as_array()
    with pytest.raises(LabelError, match="16"):
        partial.require((1, 16))
    with pytest.raises(LabelError):
        LandmarkSet({1: np.array([np.nan, 0, 0])})
    with pytest.raises(LabelError):
        LandmarkSet({99: np.zeros(3)})


def test_landmark_json_round_trip(tmp_path, phantom0):
    _, lms = phantom0
    p = tmp_path / "lms.json"
    write_landmarks(lms, p)
    back = parse_landmarks(p)
    for lid in lms.ids:
        assert np.array_equal(back[lid], lms[lid])  # repr-exact floats


def test_landmark_csv_round_trip(tmp_path, phantom0):
    _, lms = phantom0
    p = tmp_path / "lms.csv"
    write_landmarks(lms, p)
    back = parse_landmarks(p)
    for lid in lms.ids:
        assert np.array_equal(back[lid], lms[lid])


@pytest.mark.parametrize("text", [
    "id,name,x,y\n10,AC,0,1\n",       # no z column
    "id,name,x,y,z\n10,AC,0,1\n",     # short row
    "id,name,x,y,z\nten,AC,0,1,2\n",  # id not an integer
    "id,name,x,y,z\n10,AC,0,one,2\n",  # coordinate not a number
    "id,name,x,y,z\n10,AC,0,1,2,3\n",  # a field beyond the header
    "id,name,x,y,z,w\n10,AC,0,1,2,3\n",  # a column beyond id,name,x,y,z
])
def test_parse_landmarks_csv_errors(tmp_path, text):
    p = tmp_path / "a.csv"
    p.write_text(text)
    with pytest.raises(LabelError, match="line 2"):
        parse_landmarks(p)


def test_parse_landmarks_csv_reader_error(tmp_path):
    # the csv module's own refusal (here: a field beyond its size limit)
    p = tmp_path / "a.csv"
    p.write_text("id,name,x,y,z\n10,AC,0,1,\"" + "2" * 200_000 + "\"\n")
    with pytest.raises(LabelError, match="field limit"):
        parse_landmarks(p)


@pytest.mark.parametrize("field, value", [
    ("xyz", '["0", "1", "2"]'),  # strings that float() would read
    ("xyz", "[true, 1, 2]"),
    ("xyz", "[0, null, 2]"),
    ("xyz", "[0, [1], 2]"),
    ("xyz", "[1" + "0" * 400 + ", 1, 2]"),  # an int beyond float64
    ("name", "0"),
    ("name", "false"),
    ("name", "[]"),
    ("name", "{}"),
], ids=["strings", "true", "null", "nested", "int-beyond-float64",
        "name-0", "name-false", "name-list", "name-object"])
def test_parse_landmarks_json_refuses_non_numbers(tmp_path, field, value):
    entry = {"id": '10', "name": '"AC"', "xyz": "[0.0, 1.0, 2.0]", field: value}
    p = tmp_path / "a.json"
    p.write_text('{"space": "world_mm", "frame": "RAS", "landmarks": [{'
                 + ", ".join(f'"{k}": {v}' for k, v in entry.items()) + "}]}")
    with pytest.raises(LabelError, match=field if field == "name" else "10"):
        parse_landmarks(p)


@pytest.mark.parametrize("name", ['"AC"', '""', "null"])
def test_parse_landmarks_json_name_optional(tmp_path, name):
    p = tmp_path / "a.json"
    p.write_text('{"space": "world_mm", "frame": "RAS", "landmarks": '
                 f'[{{"id": 10, "name": {name}, "xyz": [0, 1.5, 2]}}]}}')
    assert parse_landmarks(p)[10].tolist() == [0.0, 1.5, 2.0]


def test_parse_landmarks_json_errors(tmp_path):
    good = ('{"space": "world_mm", "frame": "RAS", "landmarks": '
            '[{"id": 10, "name": "AC", "xyz": [0.0, 1.0, 2.0]}]}')
    p = tmp_path / "a.json"
    p.write_text(good)
    assert np.allclose(parse_landmarks(p)[10], [0, 1, 2])
    p.write_text(good.replace("world_mm", "voxel"))
    with pytest.raises(LabelError, match="space"):
        parse_landmarks(p)
    p.write_text(good.replace("RAS", "LPS"))
    with pytest.raises(LabelError, match="frame"):
        parse_landmarks(p)
    p.write_text(good.replace('"name": "AC"', '"name": "PC"'))
    with pytest.raises(LabelError, match="name"):
        parse_landmarks(p)
    dup = good.replace("]}]", (']}, {"id": 10, "name": "AC", '
                               '"xyz": [1.0, 1.0, 2.0]}]'))
    p.write_text(dup)
    with pytest.raises(LabelError, match="duplicate"):
        parse_landmarks(p)
    for broken in ('"id": 10, ', ', "xyz": [0.0, 1.0, 2.0]'):
        p.write_text(good.replace(broken, ""))
        with pytest.raises(LabelError, match="needs 'id' and 'xyz'"):
            parse_landmarks(p)
    for bad_id in ('[10]', '10.5', 'true', '"10"', 'null', '1e400'):
        p.write_text(good.replace('"id": 10', f'"id": {bad_id}'))
        with pytest.raises(LabelError, match="not an integer"):
            parse_landmarks(p)
    p.write_text(good.replace('"id": 10', '"id": 10.0'))
    assert parse_landmarks(p).ids == (10,)
    p.write_text(good.replace("[0.0, 1.0, 2.0]", '{"x": 0}'))
    with pytest.raises(LabelError, match="finite 3-vector"):
        parse_landmarks(p)
    p.write_text("[]")
    with pytest.raises(LabelError, match="space"):
        parse_landmarks(p)
    p2 = tmp_path / "a.txt"
    p2.write_text("whatever")
    with pytest.raises(LabelError):
        parse_landmarks(p2)


def test_validate_landmarks_flags(phantom0):
    vol, lms = phantom0
    assert validate_landmarks(lms, vol) == []

    # swap a left/right pair: ordering issue flagged
    pts = {lid: lms[lid].copy() for lid in lms.ids}
    pts[1], pts[2] = pts[2], pts[1]
    issues = validate_landmarks(LandmarkSet(pts), vol)
    assert any("1" in s and "2" in s for s in issues)

    # AC posterior of PC
    pts = {lid: lms[lid].copy() for lid in lms.ids}
    pts[10][1], pts[15][1] = pts[15][1], pts[10][1]
    assert any("AC" in s or "#10" in s
               for s in validate_landmarks(LandmarkSet(pts), vol))

    # far outside the volume
    pts = {lid: lms[lid].copy() for lid in lms.ids}
    pts[16] = np.array([500.0, 500.0, 500.0])
    issues = validate_landmarks(LandmarkSet(pts), vol)
    assert issues  # bounds and/or implausible distance
