import numpy as np
import pytest

from hoarefine import Volume, fuse_labels, generate_phantom, refine_full
from hoarefine.labels import PASS_TABLE


@pytest.fixture(scope="session")
def phantom0():
    """One shared rule-consistent phantom (seed 0)."""
    return generate_phantom(0)


@pytest.fixture(scope="session")
def refined0(phantom0):
    vol, lms = phantom0
    return refine_full(fuse_labels(vol), lms)


def make_volume(data, spacing=1.0, origin=0.0, taxonomy=None):
    """Small axis-aligned volume helper for hand-built cases."""
    data = np.asarray(data)
    sp = np.broadcast_to(np.asarray(spacing, dtype=np.float64), 3)
    affine = np.diag([sp[0], sp[1], sp[2], 1.0])
    affine[:3, 3] = np.broadcast_to(np.asarray(origin, dtype=np.float64), 3)
    return Volume(data, affine, taxonomy=taxonomy)


def start_partial(vol12, hemi):
    """The int16 partial that ``refine_full`` hands its landmark rules:
    each voxel at its fused group's PASS_TABLE member for its tag."""
    return PASS_TABLE[hemi, vol12.data]


def to_las(vol):
    """The same world volume stored with its x axis reversed."""
    affine = vol.affine.copy()
    affine[:3, 3] += affine[:3, 0] * (vol.dims[0] - 1)
    affine[:3, 0] = -affine[:3, 0]
    return Volume(vol.data[::-1], affine, taxonomy=vol.taxonomy)


def resample(vol, dims):
    """Nearest-neighbour resample of an axis-aligned volume centred on the
    world origin (as phantoms are) onto ``dims`` voxels, same field of view."""
    src_dims = np.array(vol.dims)
    src_sp = np.diag(vol.affine)[:3]
    sp = src_sp * src_dims / np.array(dims)
    affine = np.diag([sp[0], sp[1], sp[2], 1.0])
    affine[:3, 3] = -(np.array(dims) - 1) / 2.0 * sp
    picks = []
    for ax, d in enumerate(dims):
        world = (np.arange(d) - (d - 1) / 2.0) * sp[ax]
        picks.append(np.clip(np.rint((world - vol.affine[ax, 3]) / src_sp[ax]),
                             0, src_dims[ax] - 1).astype(np.int64))
    return Volume(vol.data[np.ix_(*picks)], affine, taxonomy=vol.taxonomy)
