"""Volume I/O: header parsing, round trips, atomic writes, orientation."""

import gzip
import io
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoarefine import (
    NiftiError,
    NiftiFormatError,
    OrientationError,
    Volume,
    read_volume,
    reorient_to_canonical,
    round_half_away,
    write_volume,
)
from hoarefine.nifti import AxisMap, _world_axis, orientation_map

from conftest import make_volume


def _hand_built_header(byte_order: str, payload: bytes) -> bytes:
    """A minimal single-file header written field by field with struct,
    independent of the package's writer.  4x4x4 uint8, 0.7 mm, sform
    only, shifted origin.
    """
    bo = byte_order
    hdr = bytearray(348)
    struct.pack_into(bo + "i", hdr, 0, 348)                 # sizeof_hdr
    struct.pack_into(bo + "c", hdr, 38, b"r")               # regular
    struct.pack_into(bo + "8h", hdr, 40, 3, 4, 4, 4, 1, 1, 1, 1)  # dim
    struct.pack_into(bo + "h", hdr, 70, 2)                  # datatype uint8
    struct.pack_into(bo + "h", hdr, 72, 8)                  # bitpix
    struct.pack_into(bo + "8f", hdr, 76, 1.0, 0.7, 0.7, 0.7, 0, 0, 0, 0)
    struct.pack_into(bo + "f", hdr, 108, 352.0)             # vox_offset
    struct.pack_into(bo + "f", hdr, 112, 1.0)               # scl_slope
    struct.pack_into(bo + "f", hdr, 116, 0.0)               # scl_inter
    struct.pack_into(bo + "h", hdr, 252, 0)                 # qform_code
    struct.pack_into(bo + "h", hdr, 254, 2)                 # sform_code
    struct.pack_into(bo + "4f", hdr, 280, 0.7, 0.0, 0.0, -1.05)  # srow_x
    struct.pack_into(bo + "4f", hdr, 296, 0.0, 0.7, 0.0, -1.05)  # srow_y
    struct.pack_into(bo + "4f", hdr, 312, 0.0, 0.0, 0.7, -1.05)  # srow_z
    struct.pack_into("4s", hdr, 344, b"n+1\x00")            # magic
    return bytes(hdr) + b"\x00\x00\x00\x00" + payload


@pytest.mark.parametrize("bo", ["<", ">"])
def test_hand_built_header_parses(tmp_path, bo):
    payload = bytes(range(64))  # Fortran-order uint8 payload
    path = tmp_path / f"hand{bo == '>' and 'be' or 'le'}.nii"
    path.write_bytes(_hand_built_header(bo, payload))
    vol = read_volume(path)
    assert vol.dims == (4, 4, 4)
    assert vol.data.dtype == np.uint8
    # payload laid out i-fastest
    expected = np.frombuffer(payload, dtype=np.uint8).reshape((4, 4, 4), order="F")
    assert np.array_equal(vol.data, expected)
    assert np.allclose(vol.affine, np.array([
        [0.7, 0, 0, -1.05], [0, 0.7, 0, -1.05],
        [0, 0, 0.7, -1.05], [0, 0, 0, 1]]), atol=1e-6)


def test_both_endiannesses_identical(tmp_path):
    payload = bytes(np.random.default_rng(0).integers(0, 255, 64, dtype=np.uint8))
    p_le = tmp_path / "le.nii"
    p_be = tmp_path / "be.nii"
    p_le.write_bytes(_hand_built_header("<", payload))
    p_be.write_bytes(_hand_built_header(">", payload))
    a, b = read_volume(p_le), read_volume(p_be)
    assert np.array_equal(a.data, b.data)
    assert np.allclose(a.affine, b.affine, atol=1e-6)


@pytest.mark.parametrize("dtype,code_vals", [
    (np.uint8, (0, 255)),
    (np.int16, (-32000, 32000)),
    (np.int32, (-2**31 + 1, 2**31 - 1)),
    (np.float32, (-1.5, 1e6)),
    (np.uint16, (0, 65000)),
])
def test_round_trip_all_dtypes_byte_identical(tmp_path, dtype, code_vals):
    rng = np.random.default_rng(7)
    lo, hi = code_vals
    if np.issubdtype(dtype, np.integer):
        data = rng.integers(lo, hi, size=(5, 6, 7)).astype(dtype)
    else:
        data = rng.uniform(lo, hi, size=(5, 6, 7)).astype(dtype)
    vol = make_volume(data, spacing=0.7)
    p1 = tmp_path / "a.nii"
    p2 = tmp_path / "b.nii"
    write_volume(vol, p1)
    back = read_volume(p1)
    assert back.data.dtype == dtype
    assert np.array_equal(back.data, data)
    write_volume(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_gzip_round_trip_deterministic(tmp_path):
    vol = make_volume(np.arange(24, dtype=np.int16).reshape(2, 3, 4))
    p1 = tmp_path / "a.nii.gz"
    p2 = tmp_path / "b.nii.gz"
    write_volume(vol, p1)
    write_volume(read_volume(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()  # gzip mtime pinned
    assert np.array_equal(read_volume(p2).data, vol.data)



def _single_blob_gz(blob: bytes) -> bytes:
    """The .nii.gz bytes of the writer that compressed the whole file in
    one ``write`` call."""
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0, filename="") as gz:
        gz.write(blob)
    return buf.getvalue()


@pytest.mark.parametrize("data, stored", [
    (np.random.default_rng(1).integers(0, 27, (40, 31, 52)).astype(np.int16), np.int16),
    (np.random.default_rng(2).integers(0, 256, (23, 17, 11)).astype(np.uint8), np.uint8),
    (np.random.default_rng(3).normal(size=(9, 8, 7)).astype(np.float32), np.float32),
    (np.random.default_rng(4).integers(0, 27, (33, 20, 19)), np.uint8),  # int64
    (np.random.default_rng(5).integers(-300, 300, (14, 15, 16)), np.int16),  # int64
    (np.random.default_rng(6).integers(0, 27, (70, 90, 1)).astype(np.int16), np.int16),
], ids=["int16", "uint8", "float32", "int64-to-uint8", "int64-to-int16", "nz1"])
def test_streamed_write_matches_single_blob(tmp_path, data, stored):
    vol = make_volume(data, spacing=(0.8, 1.0, 1.2), origin=(-3.0, 2.5, 7.0),
                      taxonomy="fine26" if stored != np.float32 else None)
    write_volume(vol, tmp_path / "v.nii")
    write_volume(vol, tmp_path / "v.nii.gz")
    plain = (tmp_path / "v.nii").read_bytes()
    blob = plain[:352] + data.astype(stored).tobytes(order="F")
    assert plain == blob
    assert (tmp_path / "v.nii.gz").read_bytes() == _single_blob_gz(blob)


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_write_volume_peak_memory_260(tmp_path, name):
    """Writing streams one k-plane at a time: the traced peak stays under
    a quarter of the input (the whole-file blob was 2x)."""
    import tracemalloc

    data = np.zeros((260, 260, 260), dtype=np.int16)
    data[:, :, :27] = np.arange(27, dtype=np.int16)
    vol = make_volume(data)
    del data
    tracemalloc.start()
    try:
        write_volume(vol, tmp_path / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < vol.data.nbytes / 4, f"peak {peak / 2**20:.1f} MiB"
    assert np.array_equal(read_volume(tmp_path / name).data, vol.data)


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_read_volume_peak_memory_260(tmp_path, name):
    """The payload is read or inflated straight into the volume's
    Fortran-ordered array, one chunk at a time: the traced peak stays
    under 1.15x the volume (it was 2x with the whole file's bytes held)."""
    import tracemalloc

    data = np.zeros((260, 260, 260), dtype=np.int16)
    data[:, :, :27] = np.arange(27, dtype=np.int16)
    write_volume(make_volume(data), tmp_path / name)
    tracemalloc.start()
    try:
        vol = read_volume(tmp_path / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * data.nbytes, f"peak {peak / 2**20:.1f} MiB"
    assert vol.order == "F"
    assert np.array_equal(vol.data, data)


def test_failed_gzip_write_leaves_no_partial_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    old = make_volume(rng.integers(0, 256, (64, 64, 64), dtype=np.uint8))
    new = old.with_data(old.data[::-1])
    target = tmp_path / "out.nii.gz"
    write_volume(old, target)
    before = target.read_bytes()

    real_write = gzip.GzipFile.write

    def write_half_then_fail(self, data):
        real_write(self, memoryview(data)[:len(data) // 2])
        self.flush()  # the partial stream reaches the file
        raise OSError("disk full")

    monkeypatch.setattr(gzip.GzipFile, "write", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_volume(new, target)
    with pytest.raises(OSError, match="disk full"):
        write_volume(new, tmp_path / "fresh.nii.gz")
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.nii.gz"]

    monkeypatch.undo()
    write_volume(new, target)
    assert read_volume(target).data.tobytes() == new.data.tobytes()
    assert os.listdir(tmp_path) == ["out.nii.gz"]

def test_volume_box_is_union_of_label_boxes():
    data = np.zeros((6, 7, 8), dtype=np.int16)
    data[1, 2, 3] = 2
    data[4, 5, 1:3] = 5
    vol = make_volume(data)
    assert vol.box((2,)) == (slice(1, 2), slice(2, 3), slice(3, 4))
    assert vol.box((5,)) == (slice(4, 5), slice(5, 6), slice(1, 3))
    assert vol.box((2, 5)) == (slice(1, 5), slice(2, 6), slice(1, 4))
    # absent labels (1, 3) and labels above the maximum (6, 40) add nothing
    assert vol.box((5, 1, 3, 6, 40, 2)) == vol.box((2, 5))
    for labels in ((1,), (3, 4), (6,), (0,), ()):
        assert vol.box(labels) is None
    assert make_volume(np.zeros((2, 2, 2), dtype=np.uint8)).box((1,)) is None
    # numpy scalar labels give the boxes of the same Python ints, up to bit 31
    data[0, 6, 7], data[5, 0, 0], data[2, 3, 4] = 20, 31, 15
    vol = make_volume(data)
    for v in (np.int16(20), np.uint8(31), np.int64(15)):
        assert vol.box((v,)) == vol.box((int(v),)) is not None
    assert vol.box((np.int16(20), np.uint8(31), 2)) == vol.box((20, 31, 2))
    # the scan's words are as locked as the data
    with pytest.raises(ValueError, match="read-only"):
        vol.label_scan[2][1][0] = 1


def test_taxonomy_tag_survives_round_trip(tmp_path):
    vol = make_volume(np.ones((3, 3, 3), dtype=np.int16), taxonomy="fine26")
    write_volume(vol, tmp_path / "t.nii.gz")
    assert read_volume(tmp_path / "t.nii.gz").taxonomy == "fine26"


def test_unsupported_int_dtype_narrows(tmp_path):
    vol = make_volume(np.arange(8, dtype=np.int64).reshape(2, 2, 2))
    write_volume(vol, tmp_path / "a.nii")
    assert read_volume(tmp_path / "a.nii").data.dtype == np.uint8
    vol2 = make_volume(np.full((2, 2, 2), -40000, dtype=np.int64))
    with pytest.raises(NiftiError):
        write_volume(vol2, tmp_path / "b.nii")


@pytest.mark.parametrize("dtype", [np.int16, np.float32], ids=["int16", "float32"])
def test_scaled_data_is_refused(tmp_path, dtype):
    vol = make_volume(np.arange(8, dtype=dtype).reshape(2, 2, 2))
    path = tmp_path / "s.nii"
    write_volume(vol, path)
    good = path.read_bytes()
    # unset fields as other tools write them still read as identity
    for slope, inter in [(0.0, 0.0), (1.0, 0.0), (float("nan"), float("nan")),
                         (0.0, float("nan"))]:
        raw = bytearray(good)
        struct.pack_into("<2f", raw, 112, slope, inter)
        path.write_bytes(bytes(raw))
        assert np.array_equal(read_volume(path).data, vol.data)
    for slope, inter in [(2.0, 1.0), (2.0, 0.0), (-1.0, 0.0), (1.0, 1.0),
                         (float("nan"), 1.0)]:
        raw = bytearray(good)
        struct.pack_into("<2f", raw, 112, slope, inter)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError, match="scaled data"):
            read_volume(path)


def test_rejects_bad_magic_and_truncation(tmp_path):
    payload = bytes(64)
    good = _hand_built_header("<", payload)
    bad_magic = bytearray(good)
    bad_magic[344:348] = b"ni1\x00"  # header/data pair, unsupported
    p = tmp_path / "bad.nii"
    p.write_bytes(bytes(bad_magic))
    with pytest.raises(NiftiFormatError):
        read_volume(p)
    p2 = tmp_path / "short.nii"
    p2.write_bytes(good[:200])
    with pytest.raises(NiftiFormatError):
        read_volume(p2)
    bad_dt = bytearray(good)
    struct.pack_into("<h", bad_dt, 70, 64)  # float64 unsupported
    struct.pack_into("<h", bad_dt, 72, 64)
    p3 = tmp_path / "dt.nii"
    p3.write_bytes(bytes(bad_dt))
    with pytest.raises(NiftiFormatError):
        read_volume(p3)


@pytest.mark.parametrize("gz", [False, True], ids=["nii", "nii.gz"])
@pytest.mark.parametrize("edit, message", [
    (lambda b: b[:-10], "data block truncated (406 bytes, need 416)"),
    (lambda b: b[:350], "data block truncated (350 bytes, need 416)"),
    (lambda b: b + bytes(3), "3 bytes after the data block"),
    # a 30000^3 claim: refused from the file's size, with no array made for it
    (lambda b: b[:42] + struct.pack("<3h", 30000, 30000, 30000) + b[48:],
     "data block truncated (416 bytes, need 27000000000352)"),
], ids=["cut-payload", "cut-extension", "trailing", "huge-claim"])
def test_payload_size_errors(tmp_path, gz, edit, message):
    raw = edit(_hand_built_header("<", bytes(range(64))))
    p = tmp_path / ("v.nii.gz" if gz else "v.nii")
    p.write_bytes(gzip.compress(raw) if gz else raw)
    with pytest.raises(NiftiFormatError, match=re.escape(message)):
        read_volume(p)


def _qform_only(hdr: bytearray) -> None:
    struct.pack_into("<h", hdr, 252, 1)   # qform_code
    struct.pack_into("<h", hdr, 254, 0)   # sform_code
    struct.pack_into("<3f", hdr, 256, float("nan"), 0.0, 0.0)  # quatern_b/c/d


@pytest.mark.parametrize("field, patch", [
    ("dim", lambda h: struct.pack_into("<h", h, 42, -4)),          # dim[1]
    ("dim", lambda h: struct.pack_into("<h", h, 46, 0)),           # dim[3]
    ("vox_offset", lambda h: struct.pack_into("<f", h, 108, float("nan"))),
    ("vox_offset", lambda h: struct.pack_into("<f", h, 108, float("inf"))),
    # a single-file image starts at byte 352 or later
    ("vox_offset", lambda h: struct.pack_into("<f", h, 108, 0.0)),
    ("vox_offset", lambda h: struct.pack_into("<f", h, 108, 348.0)),
    ("vox_offset", lambda h: struct.pack_into("<f", h, 108, 351.0)),
    # a fraction of a byte is no offset at all; int() used to truncate it
    ("vox_offset", lambda h: struct.pack_into("<f", h, 108, 352.9)),
    ("affine", lambda h: struct.pack_into("<f", h, 280, float("nan"))),  # srow_x[0]
    ("affine", lambda h: struct.pack_into("<f", h, 324, float("inf"))),  # srow_z[3]
    ("affine", _qform_only),
    # srow_y all zero: no y axis, so no inverse (a Volume refuses it too)
    ("affine linear part is singular", lambda h: struct.pack_into("<3f", h, 296, 0, 0, 0)),
], ids=["dim1-negative", "dim3-zero", "vox_offset-nan", "vox_offset-inf",
        "vox_offset-0", "vox_offset-348", "vox_offset-351", "vox_offset-352.9",
        "sform-nan", "sform-inf", "qform-nan", "sform-singular"])
def test_rejects_invalid_header_fields(tmp_path, field, patch):
    hdr = bytearray(_hand_built_header("<", bytes(range(64))))
    patch(hdr)
    p = tmp_path / "bad.nii"
    p.write_bytes(bytes(hdr))
    with pytest.raises(NiftiFormatError, match=field):
        read_volume(p)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gz=st.booleans(),
       edits=st.lists(st.tuples(st.integers(0, 351), st.integers(0, 255)),
                      min_size=1, max_size=4))
@example(gz=False, edits=[(i, 0) for i in range(280, 284)])  # srow_x[0] = 0: singular
def test_mutated_header_reads_or_is_a_format_error(tmp_path_factory, gz, edits):
    """1-4 bytes of a valid header (and its extension bytes) set to any
    value: the file reads as a volume or raises NiftiFormatError."""
    raw = bytearray(_hand_built_header("<", bytes(range(64))))
    for pos, value in edits:
        raw[pos] = value
    p = tmp_path_factory.mktemp("mutated") / ("v.nii.gz" if gz else "v.nii")
    p.write_bytes(gzip.compress(bytes(raw)) if gz else bytes(raw))
    try:
        vol = read_volume(p)
    except NiftiFormatError:
        return
    assert isinstance(vol, Volume)


@pytest.mark.parametrize("entry", [(0, 0), (1, 3)], ids=["spacing", "origin"])
def test_write_refuses_values_beyond_float32(tmp_path, entry):
    affine = np.eye(4)
    affine[entry] = 1e39
    with pytest.raises(NiftiError, match="outside float32"):
        write_volume(Volume(np.zeros((2, 2, 2), dtype=np.int16), affine), tmp_path / "v.nii")
    assert os.listdir(tmp_path) == []


def test_voxel_world_mapping_by_hand():
    vol = make_volume(np.zeros((40, 40, 40), dtype=np.int16),
                      spacing=0.7, origin=-13.65)
    w = vol.voxel_to_world([10, 20, 30])
    assert np.allclose(w, [-6.65, 0.35, 7.35])
    assert np.allclose(vol.world_to_voxel(w), [10, 20, 30], atol=1e-9)
    many = vol.voxel_to_world(np.array([[0, 0, 0], [39, 39, 39]], float))
    assert many.shape == (2, 3)
    assert np.allclose(many[0], [-13.65] * 3)


def _oblique_affine(angles, shear, spacing, flips, shift):
    """Rotation x unit upper-triangular shear x signed spacings, then a shift."""
    lin = np.eye(3)
    for axis, t in enumerate(angles):
        c, s = np.cos(t), np.sin(t)
        a, b = [ax for ax in range(3) if ax != axis]
        rot = np.eye(3)
        rot[a, a], rot[a, b], rot[b, a], rot[b, b] = c, -s, s, c
        lin = lin @ rot
    upper = np.eye(3)
    upper[0, 1], upper[0, 2], upper[1, 2] = shear
    affine = np.eye(4)
    affine[:3, :3] = lin @ upper @ np.diag(np.where(flips, -1.0, 1.0) * spacing)
    affine[:3, 3] = shift
    return affine


@settings(derandomize=True, deadline=None, max_examples=100)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       shear=st.tuples(*[st.floats(-0.9, 0.9)] * 3),
       spacing=st.tuples(*[st.floats(0.3, 3.0)] * 3),
       flips=st.tuples(*[st.booleans()] * 3),
       shift=st.tuples(*[st.floats(-200.0, 200.0)] * 3),
       n=st.integers(2, 300),
       seed=st.integers(0, 2**32 - 1))
def test_each_row_is_converted_on_its_own(angles, shear, spacing, flips, shift, n, seed):
    """A row's world (or voxel) coordinates do not depend on the other rows
    of the call: alone, in the whole batch and in a shuffled sub-batch
    they are equal under ==.  ``_world_axis`` gives each coordinate as the
    left-to-right Python sum i*a0 + j*a1 + k*a2 + a3, equal under == to the
    matching column of voxel_to_world, on int64 index arrays, with a scalar
    index, and on the (slice, row) grid of _separation_lines."""
    vol = Volume(np.zeros((2, 2, 2), dtype=np.int16),
                 _oblique_affine(angles, shear, spacing, flips, shift))
    rng = np.random.default_rng(seed)
    pts = np.where(rng.random((n, 1)) < 0.5, rng.integers(0, 300, (n, 3)),
                   rng.uniform(-300.0, 300.0, (n, 3)))
    sub = rng.permutation(n)[:rng.integers(1, n + 1)]
    for convert in (vol.voxel_to_world, vol.world_to_voxel):
        batch = convert(pts)
        assert batch.shape == (n, 3)
        assert np.array_equal(convert(pts[sub]), batch[sub])
        for row in range(n):
            assert np.array_equal(convert(pts[row]), batch[row])

    rows = vol.affine.tolist()
    ijk = rng.integers(0, 300, (n, 3))
    n_slices, n_rows = rng.integers(1, 12, 2)
    for c in range(3):
        grid = [None] * 3  # scan axis c, then the slice and row axes
        grid[c] = rng.integers(0, 300, (n_slices, n_rows))
        grid[(c + 1) % 3] = rng.integers(0, 300, (n_slices, 1))
        grid[(c + 2) % 3] = rng.integers(0, 300, n_rows)
        for idx in ([ijk[:, 0], ijk[:, 1], ijk[:, 2]], [ijk[:, 0], 17, ijk[:, 2]], grid):
            got = _world_axis(vol.affine, c, *idx)
            flat = [a.ravel() for a in np.broadcast_arrays(*idx)]
            a0, a1, a2, a3 = rows[c]
            want = [float(i) * a0 + float(j) * a1 + float(k) * a2 + a3 for i, j, k in zip(*flat)]
            assert got.ravel().tolist() == want
            assert np.array_equal(got.ravel(), vol.voxel_to_world(np.stack(flat, axis=1))[:, c])


@pytest.mark.parametrize("shape", [(3, 4), (4,), (5, 2)])
def test_world_mapping_refuses_other_widths(shape):
    vol = make_volume(np.zeros((2, 2, 2), dtype=np.int16))
    for convert in (vol.voxel_to_world, vol.world_to_voxel):
        with pytest.raises(ValueError):
            convert(np.zeros(shape))


def test_singular_affine_rejected():
    aff = np.diag([1.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), dtype=np.int16), aff)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 3), (1, 1)], ids=["translation", "linear"])
def test_non_finite_affine_rejected(entry, value):
    """A NaN or infinite affine entry is refused when the volume is built,
    naming the affine, not later in a world conversion."""
    aff = np.eye(4)
    aff[entry] = value
    data = np.zeros((2, 2, 2), dtype=np.int16)
    with pytest.raises(ValueError, match="affine is not finite"):
        Volume(data, aff)
    with pytest.raises(ValueError, match="affine is not finite"):
        Volume._own(data.copy(), aff)


def test_round_half_away():
    vals = np.array([0.5, 1.5, -0.5, -1.5, 2.49, -2.49, 3.51])
    assert round_half_away(vals).tolist() == [1, 2, -1, -2, 2, -2, 4]
    assert round_half_away(-2.0**63) == np.iinfo(np.int64).min
    for far in (1e20, -1e20, 2.0**63, np.nan, [0.5, 1e20]):
        with pytest.raises(ValueError, match="int64"):
            round_half_away(far)


def _corner_worlds(vol):
    n = np.array(vol.dims) - 1
    corners = np.array([[i, j, k] for i in (0, n[0]) for j in (0, n[1])
                        for k in (0, n[2])], dtype=float)
    return vol.voxel_to_world(corners)


@pytest.mark.parametrize("case", ["las", "permuted"])
def test_reorientation_preserves_world_geometry(case):
    rng = np.random.default_rng(5)
    data = rng.integers(0, 9, size=(4, 5, 6)).astype(np.int16)
    if case == "las":
        aff = np.array([[-0.7, 0, 0, 2.1], [0, 0.7, 0, -1.0],
                        [0, 0, 0.7, 0.5], [0, 0, 0, 1]])
    else:  # i and k swapped, k flipped
        aff = np.array([[0, 0, 0.7, -1.0], [0, 0.7, 0, 0.0],
                        [-0.8, 0, 0, 3.2], [0, 0, 0, 1]])
    vol = Volume(data, aff)
    can, amap = reorient_to_canonical(vol)
    # canonical affine is axis-aligned with positive diagonal
    assert np.allclose(can.affine[:3, :3] - np.diag(np.diag(can.affine[:3, :3])), 0)
    assert (np.diag(can.affine[:3, :3]) > 0).all()
    # the set of (world coordinate, value) pairs is unchanged
    assert sorted(map(tuple, np.round(_corner_worlds(vol), 9))) == \
        sorted(map(tuple, np.round(_corner_worlds(can), 9)))
    idx = np.nonzero(vol.data == vol.data.max())
    w_orig = vol.voxel_to_world(np.stack(idx, 1).astype(float))
    idx2 = np.nonzero(can.data == vol.data.max())
    w_can = can.voxel_to_world(np.stack(idx2, 1).astype(float))
    assert sorted(map(tuple, np.round(w_orig, 9))) == \
        sorted(map(tuple, np.round(w_can, 9)))
    # data round-trips through the map
    assert np.array_equal(amap.invert(can.data), vol.data)
    assert np.array_equal(amap.apply(vol.data), can.data)


def test_orientation_map_identity_and_errors():
    assert orientation_map(np.eye(4)).is_identity
    shared = np.eye(4)
    shared[:3, :3] = np.array([[1, 1, 0], [0.1, 1.1, 0], [0, 0, 1]]).T
    # two columns dominant along the same world axis
    bad = np.eye(4)
    bad[:3, 0] = [1, 0.2, 0]
    bad[:3, 1] = [0.9, 0.1, 0]
    bad[:3, 2] = [0, 0, 1]
    with pytest.raises(OrientationError):
        orientation_map(bad)
