"""Minimal NIfTI-1 volume I/O and geometry helpers.

Implements the subset of the NIfTI-1 format needed for label maps and
scalar images: the fixed 348-byte header, single-file ``.nii`` /
``.nii.gz`` storage, and the standard affine precedence rules.

Header fields consumed (byte offsets into the 348-byte header)::

    offset  size  field        use
    ------  ----  -----------  --------------------------------------
       0     4    sizeof_hdr   must equal 348; decides byte order
      40    16    dim[8]       number of dims + extents
      70     2    datatype     element type code
      72     2    bitpix       bits per voxel (cross-checked)
      76    32    pixdim[8]    qfac + voxel spacings
     108     4    vox_offset   start of the data block
     112     4    scl_slope    must be identity: 1, or 0 or NaN (unset)
     116     4    scl_inter    must be identity: 0, or NaN (unset)
     252     2    qform_code   quaternion transform validity
     254     2    sform_code   affine transform validity
     256    12    quatern_b/c/d
     268    12    qoffset_x/y/z
     280    48    srow_x/y/z   affine rows when sform_code > 0
     328    16    intent_name  free text; carries the taxonomy tag
     344     4    magic        "n+1\\0" single-file form

Supported element types: uint8 (2), int16 (4), int32 (8), float32 (16),
uint16 (512).  Anything else raises :class:`NiftiFormatError`.

The affine maps voxel indices (i, j, k) to world millimetres, chosen by
precedence sform > qform > pixdim-only.  World coordinates follow the
RAS convention: +x toward the subject's left-to-right, +y toward
anterior, +z toward superior.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import stat
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HDR_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# NIfTI datatype code -> numpy dtype (byte order applied separately)
DTYPE_FOR_CODE = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    512: np.dtype(np.uint16),
}
CODE_FOR_DTYPE = {dt: code for code, dt in DTYPE_FOR_CODE.items()}

# intent_name values used to tag label taxonomies on disk
TAXONOMY_TAGS = {"fine26": b"hoa-fine26", "fused12": b"hoa-fused12"}
TAXONOMY_FOR_TAG = {v: k for k, v in TAXONOMY_TAGS.items()}


class NiftiError(Exception):
    """Base class for NIfTI I/O failures."""


class NiftiFormatError(NiftiError):
    """The byte stream is not a NIfTI-1 file this reader supports."""


class OrientationError(NiftiError):
    """The affine cannot be reduced to a per-axis permutation/flip."""


_READ_CHUNK = 1 << 20  # bytes per read call
_MAX_INFLATE = 1032  # deflate's largest compression ratio


def _read_into(f, buf: memoryview) -> int:
    """Fill ``buf`` from ``f`` one chunk at a time; returns the bytes read,
    fewer than ``len(buf)`` when the stream ends first."""
    done = 0
    while done < len(buf):
        n = f.readinto(buf[done:done + _READ_CHUNK])
        if not n:
            break
        done += n
    return done


def _skip(f, limit: float) -> int:
    """Read and drop up to ``limit`` bytes of ``f``; returns how many there were."""
    scratch = memoryview(bytearray(_READ_CHUNK))
    done = 0
    while done < limit:
        n = f.readinto(scratch[:int(min(_READ_CHUNK, limit - done))])
        if not n:
            break
        done += n
    return done


def _quaternion_to_rotation(b: float, c: float, d: float) -> np.ndarray:
    # a is recovered from the unit-quaternion constraint; tiny negative
    # residue from float rounding is clamped to zero.
    a_sq = 1.0 - (b * b + c * c + d * d)
    a = float(np.sqrt(max(a_sq, 0.0)))
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )


@dataclass(frozen=True)
class Volume:
    """A 3D image with its voxel-to-world affine.

    ``data`` is locked read-only so refinement passes cannot mutate a
    shared input in place; operations return new volumes.  ``Volume(...)``
    and ``with_data`` lock a copy, which keeps the memory order it is
    given (see ``order``), so the caller's array stays the caller's.
    ``taxonomy`` is None for non-label images, otherwise "fine26" or
    "fused12".
    """

    data: np.ndarray
    affine: np.ndarray
    taxonomy: str | None = None

    def __post_init__(self):
        self._lock(np.array(self.data, order="K"), self.affine)

    @classmethod
    def _own(cls, data: np.ndarray, affine, taxonomy: str | None = None) -> "Volume":
        """A volume that takes ``data``, an array the caller has just
        built and no one else writes to, and locks it without a copy."""
        vol = object.__new__(cls)
        object.__setattr__(vol, "taxonomy", taxonomy)
        vol._lock(data, affine)
        return vol

    def _lock(self, data: np.ndarray, affine) -> None:
        if data.ndim != 3:
            raise ValueError(f"Volume data must be 3D, got shape {data.shape}")
        affine = np.array(affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ValueError(f"affine must be 4x4, got {affine.shape}")
        if abs(np.linalg.det(affine[:3, :3])) <= 1e-12:
            raise ValueError("affine linear part is singular")
        data.setflags(write=False)
        affine.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", affine)
        if self.taxonomy not in (None, "fine26", "fused12"):
            raise ValueError(f"unknown taxonomy {self.taxonomy!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape)

    @property
    def order(self) -> str:
        """Memory order of ``data``: "F" when the stride magnitudes of the
        axes longer than one voxel grow along the axes, as in NIfTI's
        voxel order and its flipped views, else "C"."""
        s = [abs(st) for st, n in zip(self.data.strides, self.data.shape) if n > 1]
        return "F" if len(s) > 1 and all(a < b for a, b in zip(s, s[1:])) else "C"

    @property
    def spacing(self) -> tuple[float, float, float]:
        """Voxel edge lengths in mm (column norms of the linear part)."""
        lin = self.affine[:3, :3]
        return tuple(float(np.linalg.norm(lin[:, i])) for i in range(3))

    @property
    def is_label(self) -> bool:
        return np.issubdtype(self.data.dtype, np.integer)

    @functools.cached_property
    def label_scan(self) -> tuple:
        """``(min, max, words)`` of an integer label map (``_label_scan``),
        computed on first use and kept, which is safe because ``data`` is
        locked."""
        if not self.is_label:
            raise ValueError(f"a label scan needs integer labels, got {self.data.dtype}")
        return _label_scan(self.data)

    def box(self, labels) -> tuple | None:
        """Per-axis slices enclosing every voxel of ``labels`` (values
        outside 1..31 add nothing), None when none is present: along each
        axis, the first to the last index whose scan word holds one of
        their bits."""
        lo, hi, words = self.label_scan
        if words is None:
            raise ValueError(f"no boxes: label {lo if lo < 0 else hi} is outside 0..{_BOX_MAX}")
        bits = sum({1 << int(v) for v in labels if 0 < v <= _BOX_MAX})
        hits = [np.flatnonzero(w & bits) for w in words]
        return tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits) if hits[0].size else None

    def voxel_to_world(self, ijk) -> np.ndarray:
        """Map voxel indices to world mm.  Accepts shape (3,) or (N, 3)."""
        return _map_rows(self.affine, ijk)

    def world_to_voxel(self, xyz) -> np.ndarray:
        """Map world mm to (fractional) voxel indices."""
        return _map_rows(np.linalg.inv(self.affine), xyz)

    def with_data(self, data: np.ndarray) -> "Volume":
        return Volume(data, self.affine, taxonomy=self.taxonomy)


def _world_axis(affine: np.ndarray, c: int, i, j, k) -> np.ndarray:
    """World coordinate c of voxel indices i, j, k, broadcast against each
    other: i*a[c,0] + j*a[c,1] + k*a[c,2] + a[c,3] summed left to right in
    float64, with no matrix product, so a point's value depends neither on
    the other points nor on the BLAS build.  Integers convert exactly."""
    a = affine[c]
    return i * a[0] + j * a[1] + k * a[2] + a[3]


def _map_rows(affine: np.ndarray, pts) -> np.ndarray:
    """``affine`` applied to each row of ``pts``, shape (..., 3), one
    ``_world_axis`` per coordinate."""
    i, j, k = np.moveaxis(np.asarray(pts, dtype=np.float64), -1, 0)
    return np.stack([_world_axis(affine, c, i, j, k) for c in range(3)], axis=-1)


# passes over fewer voxels run both halves on the calling thread: at 96^3
# a second thread cost more than it saved (on 2 cores the scan took 3.7 ms, not 1.5)
_THREAD_VOXELS = 1 << 22


def _halves(a: np.ndarray, fn) -> tuple:
    """``(fn(0, n // 2), fn(n // 2, n))`` over the first axis of ``a``, n
    long.  When ``a`` holds at least ``_THREAD_VOXELS`` elements the second
    half runs on a new thread, joined on every exit path, and an exception
    either half raises reaches the caller; numpy's large kernels release
    the GIL, so the halves of a whole-volume pass run on two cores."""
    n = len(a)
    mid, second = n // 2, {}
    if a.size < _THREAD_VOXELS:
        return fn(0, mid), fn(mid, n)

    def run():
        try:
            second["value"] = fn(mid, n)
        except BaseException as exc:
            second["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    try:
        first = fn(0, mid)
    finally:
        worker.join()
    if "error" in second:
        raise second.pop("error")
    return first, second["value"]


_BOX_MAX = 31  # bit v of a uint32 word marks value v, so boxes cover 0..31
# planes per slab and half: the bit words of the two halves' slabs are the
# scan's only temporaries
_BOX_PLANES = 2


def _label_scan(data: np.ndarray) -> tuple:
    """``(min, max, words)`` of an integer array, min and max 0 when empty.

    ``words[a]`` is a read-only uint32 array over axis ``a`` whose bit v
    is set where that index holds a voxel of value v; ``words`` is None
    when a value lies outside 0..31.  Each voxel of value v sets bit v of
    a uint32 word, and the words OR-reduce onto each axis one slab of
    planes at a time, the slab that also gives the min and max.  The two
    halves of the slowest-varying memory axis are scanned side by side.
    """
    # walk axes from the slowest-varying in memory to the fastest
    perm = sorted(range(3), key=lambda a: -abs(data.strides[a]))
    view = data.transpose(perm)
    (ranges, proj), (more, other) = _halves(view, functools.partial(_scan_planes, view))
    ranges += more
    proj = (np.concatenate((proj[0], other[0])), proj[1] | other[1], proj[2] | other[2])
    lo = int(min((r[0] for r in ranges), default=0))
    hi = int(max((r[1] for r in ranges), default=0))
    if lo < 0 or hi > _BOX_MAX:
        return lo, hi, None
    for w in proj:
        w.setflags(write=False)
    return lo, hi, tuple(proj[perm.index(a)] for a in range(3))


def _scan_planes(view: np.ndarray, start: int, stop: int) -> tuple:
    """``(ranges, words)`` of ``view[start:stop]``: the (min, max) of each
    slab, and the bit words over its three axes."""
    words = [np.zeros(n, dtype=np.uint32) for n in (stop - start, *view.shape[1:])]
    ranges = []
    for a in range(start, stop if view.size else start, _BOX_PLANES):
        slab = view[a:min(a + _BOX_PLANES, stop)]
        ranges.append((slab.min(), slab.max()))
        bits = np.left_shift(np.uint32(1), slab, dtype=np.uint32, casting="unsafe")
        rows = np.bitwise_or.reduce(bits, axis=2)
        words[0][a - start:a - start + _BOX_PLANES] = np.bitwise_or.reduce(rows, axis=1)
        words[1] |= np.bitwise_or.reduce(rows, axis=0)
        words[2] |= np.bitwise_or.reduce(bits, axis=(0, 1))
    return ranges, words


def _erode_6(mask: np.ndarray, steps: int = 1) -> np.ndarray:
    """``mask`` eroded ``steps`` times by the 6-neighbour cross, with
    everything beyond the array counted as outside (scipy's
    ``binary_erosion`` with its default structure and border 0); stops once empty."""
    out = np.array(mask, dtype=bool, order="K")
    for _ in range(steps):
        if not out.any():
            break
        prev = out.copy(order="K")
        for ax in range(out.ndim):
            lo = [slice(None)] * out.ndim
            hi = [slice(None)] * out.ndim
            lo[ax], hi[ax] = slice(None, -1), slice(1, None)
            out[tuple(lo)] &= prev[tuple(hi)]
            out[tuple(hi)] &= prev[tuple(lo)]
            lo[ax], hi[ax] = 0, -1
            out[tuple(lo)] = out[tuple(hi)] = False
    return out


def read_volume(path: str | Path) -> Volume:
    """Read a ``.nii`` or ``.nii.gz`` file into a :class:`Volume`.

    The payload is read, or inflated, straight into the volume's array.
    Raises NiftiFormatError for truncated files, bad magic, unsupported
    datatypes, scaled data (scl_slope/scl_inter other than identity), a
    non-finite or singular affine, or a volume not 3D after squeezing.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            if f.peek(2)[:2] == b"\x1f\x8b":  # the gzip magic
                with gzip.GzipFile(fileobj=f, mode="rb") as gz:
                    return _read_stream(path, gz)
            return _read_stream(path, f)
    except OSError as exc:
        raise NiftiError(f"cannot read {path}: {exc}") from exc
    except (EOFError, zlib.error) as exc:  # truncated or corrupt gzip stream
        raise NiftiFormatError(f"{path}: damaged gzip data: {exc}") from exc


def _read_stream(path: Path, f) -> Volume:
    raw = f.read(HDR_SIZE)
    if len(raw) < HDR_SIZE:
        raise NiftiFormatError(f"{path}: file shorter than a NIfTI-1 header")

    sizeof_hdr_le = struct.unpack_from("<i", raw, 0)[0]
    if sizeof_hdr_le == HDR_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", raw, 0)[0] == HDR_SIZE:
        bo = ">"
    else:
        raise NiftiFormatError(f"{path}: sizeof_hdr is not 348 in either byte order")

    magic = raw[344:348]
    if magic == MAGIC_PAIR:
        raise NiftiFormatError(f"{path}: two-file (.hdr/.img) NIfTI is not supported")
    if magic != MAGIC_SINGLE:
        raise NiftiFormatError(f"{path}: bad magic {magic!r}")

    dim = struct.unpack_from(bo + "8h", raw, 40)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise NiftiFormatError(f"{path}: dim[0]={ndim} out of range")
    if min(dim[1:ndim + 1]) < 1:
        raise NiftiFormatError(f"{path}: dim{list(dim[:ndim + 1])} has an extent below 1")
    shape = list(dim[1:ndim + 1])
    # squeeze trailing singleton dims (4D with one timepoint etc.)
    while len(shape) > 3 and shape[-1] == 1:
        shape.pop()
    if len(shape) != 3:
        raise NiftiFormatError(f"{path}: expected a 3D volume, got shape {tuple(shape)}")

    datatype = struct.unpack_from(bo + "h", raw, 70)[0]
    bitpix = struct.unpack_from(bo + "h", raw, 72)[0]
    if datatype not in DTYPE_FOR_CODE:
        raise NiftiFormatError(f"{path}: unsupported datatype code {datatype}")
    dtype = DTYPE_FOR_CODE[datatype].newbyteorder(bo)
    if bitpix != dtype.itemsize * 8:
        raise NiftiFormatError(
            f"{path}: bitpix {bitpix} does not match datatype {datatype}")

    pixdim = struct.unpack_from(bo + "8f", raw, 76)
    vox_offset = struct.unpack_from(bo + "f", raw, 108)[0]
    scl_slope = struct.unpack_from(bo + "f", raw, 112)[0]
    scl_inter = struct.unpack_from(bo + "f", raw, 116)[0]
    qform_code = struct.unpack_from(bo + "h", raw, 252)[0]
    sform_code = struct.unpack_from(bo + "h", raw, 254)[0]

    if not np.isfinite(vox_offset):
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not finite")
    if vox_offset != int(vox_offset):
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not a whole byte count")
    # a single-file image starts after the header and its 4 extension bytes
    if vox_offset < HDR_SIZE + 4:
        raise NiftiFormatError(
            f"{path}: vox_offset {vox_offset} is below {HDR_SIZE + 4}")
    n_vox = int(np.prod(shape))
    offset = int(vox_offset)
    need = offset + n_vox * dtype.itemsize
    # the extension bytes up to vox_offset, then the voxels, straight
    # into the array the volume keeps; a header that claims more than a
    # regular file can hold (its size, or deflate's ratio times it) gets
    # no array
    size = HDR_SIZE + _skip(f, offset - HDR_SIZE)
    st = os.fstat(f.fileno())
    room = (st.st_size * (_MAX_INFLATE if isinstance(f, gzip.GzipFile) else 1)
            if stat.S_ISREG(st.st_mode) else float("inf"))
    if size == offset and need - size <= room:
        data = np.empty(shape, dtype=dtype.newbyteorder("="), order="F")
        size += _read_into(f, memoryview(data.T.reshape(-1).view(np.uint8)))
    else:
        size += _skip(f, float("inf"))
    if size < need:
        raise NiftiFormatError(
            f"{path}: data block truncated ({size} bytes, need {need})")
    # bytes past the block mean the header's dims or datatype are not the writer's
    extra = _skip(f, float("inf"))
    if extra:
        raise NiftiFormatError(f"{path}: {extra} bytes after the data block")

    if sform_code > 0:
        rows = struct.unpack_from(bo + "12f", raw, 280)
        affine = np.eye(4)
        affine[0, :] = rows[0:4]
        affine[1, :] = rows[4:8]
        affine[2, :] = rows[8:12]
    elif qform_code > 0:
        b, c, d = struct.unpack_from(bo + "3f", raw, 256)
        qx, qy, qz = struct.unpack_from(bo + "3f", raw, 268)
        rot = _quaternion_to_rotation(b, c, d)
        qfac = -1.0 if pixdim[0] == -1.0 else 1.0
        sp = np.array([pixdim[1], pixdim[2], pixdim[3] * qfac])
        affine = np.eye(4)
        affine[:3, :3] = rot * sp
        affine[:3, 3] = (qx, qy, qz)
    else:
        affine = np.diag([pixdim[1] or 1.0, pixdim[2] or 1.0, pixdim[3] or 1.0, 1.0])
    if not np.all(np.isfinite(affine)):
        raise NiftiFormatError(f"{path}: affine from the header is not finite")
    if abs(np.linalg.det(affine[:3, :3])) <= 1e-12:  # Volume's test, as this file's fault
        raise NiftiFormatError(f"{path}: affine linear part is singular")

    intent_name = raw[328:344].rstrip(b"\x00")
    taxonomy = TAXONOMY_FOR_TAG.get(intent_name)

    # writers put 0 or NaN in an unscaled image's fields; any real scaling
    # would change the stored labels, so it is refused rather than applied
    slope = float(scl_slope) if scl_slope != 0.0 and np.isfinite(scl_slope) else 1.0
    inter = float(scl_inter) if np.isfinite(scl_inter) else 0.0
    if (slope, inter) != (1.0, 0.0):
        raise NiftiFormatError(
            f"{path}: scaled data (scl_slope {scl_slope}, scl_inter {scl_inter}) "
            "is not supported")

    # native byte order in memory regardless of file order; the voxels
    # stay in the file's Fortran order
    if not dtype.isnative:
        data.byteswap(inplace=True)
    return Volume._own(data, affine, taxonomy=taxonomy)


def write_volume(vol: Volume, path: str | Path) -> None:
    """Write a volume as single-file NIfTI-1, gzipped when the name ends .gz.

    Volumes whose dtype is one of the supported on-disk types are stored
    verbatim.  Other integer data falls back to int16, or uint8 when all
    labels fit below 256; other float data falls back to float32.
    """
    path = Path(path)
    data = np.asarray(vol.data)
    if data.dtype in CODE_FOR_DTYPE:
        out_dtype = data.dtype
    elif np.issubdtype(data.dtype, np.integer):
        mx = int(data.max()) if data.size else 0
        mn = int(data.min()) if data.size else 0
        if 0 <= mn and mx < 256:
            out_dtype = np.dtype(np.uint8)
        else:
            out_dtype = np.dtype(np.int16)
            if mx > np.iinfo(np.int16).max or mn < np.iinfo(np.int16).min:
                raise NiftiError(f"label values [{mn}, {mx}] overflow int16 storage")
    else:
        out_dtype = np.dtype(np.float32)

    hdr = bytearray(HDR_SIZE)
    struct.pack_into("<i", hdr, 0, HDR_SIZE)
    struct.pack_into("<B", hdr, 38, ord("r"))  # legacy "regular" flag
    dims = data.shape
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, CODE_FOR_DTYPE[np.dtype(out_dtype)])
    struct.pack_into("<h", hdr, 72, out_dtype.itemsize * 8)
    struct.pack_into("<f", hdr, 108, float(HDR_SIZE + 4))  # 4-byte extender pad
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope/scl_inter: unscaled
    struct.pack_into("<h", hdr, 252, 0)  # qform_code: sform is authoritative
    struct.pack_into("<h", hdr, 254, 2)  # sform_code: aligned to some template
    try:  # a finite value beyond float32 range has no header encoding
        struct.pack_into("<8f", hdr, 76, 1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0)
        struct.pack_into("<12f", hdr, 280, *vol.affine[:3].ravel())  # srow_x/y/z
    except OverflowError as exc:
        raise NiftiError(f"{path}: spacing or affine outside float32: {exc}") from exc
    if vol.taxonomy is not None:
        tag = TAXONOMY_TAGS[vol.taxonomy]
        hdr[328:328 + len(tag)] = tag
    hdr[344:348] = MAGIC_SINGLE

    with open_atomic(path) as f:
        # mtime pinned and name field blanked so identical volumes
        # produce identical bytes regardless of output path or run time
        with (gzip.GzipFile(fileobj=f, mode="wb", mtime=0, filename="")
              if path.suffix == ".gz" else contextlib.nullcontext(f)) as out:
            out.write(hdr + b"\x00\x00\x00\x00")
            # voxels in Fortran order, one k-plane at a time: memory stays
            # at one plane, and deflate output does not depend on how its
            # input is split
            for k in range(dims[2]):
                out.write(data[:, :, k].astype(out_dtype, copy=False).tobytes(order="F"))


@contextlib.contextmanager
def open_atomic(path: str | Path):
    """Create or replace ``path`` with what the block writes to the
    yielded binary file.

    The bytes go to a new file beside ``path`` that ``os.replace`` then
    renames over it, so readers see the old file or the complete new
    one.  When the block raises, the partial file is removed and
    ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        # O_EXCL never clobbers another file; mode 0o666 less the umask, as open()
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# canonical RAS frame

@dataclass(frozen=True)
class AxisMap:
    """Axis permutation + flips taking stored voxel axes to canonical RAS.

    ``perm[c]`` is the stored-data axis that plays canonical role c
    (0 = x/left-right, 1 = y/posterior-anterior, 2 = z/inferior-superior)
    and ``flips[c]`` says that axis runs opposite to the canonical
    direction and must be reversed.
    """

    perm: tuple[int, int, int]
    flips: tuple[bool, bool, bool]

    def apply(self, data: np.ndarray) -> np.ndarray:
        out = np.transpose(data, self.perm)
        sl = tuple(slice(None, None, -1) if f else slice(None) for f in self.flips)
        return out[sl]

    def invert(self, data: np.ndarray) -> np.ndarray:
        sl = tuple(slice(None, None, -1) if f else slice(None) for f in self.flips)
        out = data[sl]
        inv = [0, 0, 0]
        for canon, stored in enumerate(self.perm):
            inv[stored] = canon
        return np.transpose(out, inv)

    @property
    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2) and self.flips == (False, False, False)


def orientation_map(affine: np.ndarray) -> AxisMap:
    """Extract the nearest-axis orientation of an affine.

    Each data axis is assigned the world axis where its affine column
    has the largest magnitude.  Raises OrientationError when two data
    axes claim the same world axis (oblique beyond recognition) or a
    column is all zero.
    """
    lin = np.asarray(affine, dtype=np.float64)[:3, :3]
    claimed: dict[int, int] = {}
    signs = {}
    for axis in range(3):
        col = lin[:, axis]
        if not np.any(col):
            raise OrientationError(f"affine column {axis} is zero")
        world = int(np.argmax(np.abs(col)))
        if world in claimed:
            raise OrientationError(
                f"data axes {claimed[world]} and {axis} both dominate world axis {world}")
        claimed[world] = axis
        signs[world] = col[world] > 0
    perm = tuple(claimed[w] for w in range(3))
    flips = tuple(not signs[w] for w in range(3))
    return AxisMap(perm, flips)


def reorient_to_canonical(vol: Volume) -> tuple[Volume, AxisMap]:
    """Permute/flip a volume so axis 0=+x(R), 1=+y(A), 2=+z(S).

    Returns the reoriented volume together with the map used, which
    callers apply inversely to restore the original layout.  The affine
    is rebuilt so world coordinates of each voxel are unchanged.  The
    reoriented data is a view of ``vol.data``, not a copy.
    """
    amap = orientation_map(vol.affine)
    if amap.is_identity:
        return vol, amap
    data = amap.apply(vol.data)

    # Column c of the new linear part is the old column perm[c], negated
    # when flipped; the flip also shifts the origin to the far end.
    lin = vol.affine[:3, :3]
    trans = vol.affine[:3, 3].copy()
    new_lin = np.zeros((3, 3))
    for canon in range(3):
        stored = amap.perm[canon]
        col = lin[:, stored].copy()
        if amap.flips[canon]:
            n = vol.data.shape[stored]
            trans = trans + col * (n - 1)
            col = -col
        new_lin[:, canon] = col
    affine = np.eye(4)
    affine[:3, :3] = new_lin
    affine[:3, 3] = trans
    return Volume._own(data, affine, taxonomy=vol.taxonomy), amap


def round_half_away(x) -> np.ndarray:
    """Round to nearest integer with halves away from zero.

    numpy's round() goes to even; plane-to-slice snapping needs the
    away-from-zero convention so 0.5 -> 1 and -0.5 -> -1.  A value whose
    rounding does not fit int64 raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.trunc(x + np.copysign(0.5, x))
    bad = ~((r >= -2.0**63) & (r < 2.0**63))  # NaN included
    if bad.any():
        raise ValueError(f"{x[bad].flat[0]:g} is too far from the grid for an int64 index")
    return r.astype(np.int64)

