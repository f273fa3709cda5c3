"""Synthetic label volumes that satisfy every refinement rule exactly.

A phantom is a 96-voxel cube of box-shaped structures laid out so that
each landmark-driven rule has a nonempty domain and an unambiguous
answer: landmarks sit exactly on slice centers, the accumbens/putamen
separator runs along voxel boundaries (never through a center), and the
inferior-horn chain has exactly one reachable component per slice.
Fusing a phantom to 12 labels and refining it with its own landmarks
must reproduce it voxel for voxel; tests lean on that round trip.

Randomness moves the layout rigidly by up to one voxel per axis and
jitters the rule-defining slice indices within safe windows, so every
seed exercises slightly different geometry while keeping all margins.

degrade_phantom produces controlled imperfect inputs from a phantom:
jittered landmarks, label noise along boundaries, or eroded labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import LandmarkSet, fuse_labels, validate_landmarks
from .nifti import Volume, _erode_6, round_half_away

N = 96  # grid edge; the box layout below is tuned to it

DEGRADE_MODES = ("landmark-jitter", "boundary-noise", "erosion")


class PhantomError(Exception):
    """Layout violates its own guarantees (overlap, broken rule)."""


@dataclass(frozen=True)
class PhantomSpec:
    seed: int = 0
    spacing: float = 0.7

    def __post_init__(self):
        if not self.spacing > 0:
            raise PhantomError("spacing must be positive")


def _mirror(box):
    i0, i1, j0, j1, k0, k1 = box
    return (N - 1 - i1, N - 1 - i0, j0, j1, k0, k1)


def _shift(box, g):
    i0, i1, j0, j1, k0, k1 = box
    return (i0 + g[0], i1 + g[0], j0 + g[1], j1 + g[1], k0 + g[2], k1 + g[2])


def _fill(data, box, value, name):
    i0, i1, j0, j1, k0, k1 = box
    if not (0 <= i0 <= i1 < N and 0 <= j0 <= j1 < N and 0 <= k0 <= k1 < N):
        raise PhantomError(f"{name}: box {box} leaves the volume")
    region = data[i0:i1 + 1, j0:j1 + 1, k0:k1 + 1]
    if (region != 0).any():
        raise PhantomError(f"{name}: box {box} overlaps an existing structure")
    region[...] = value


def _side_params(rng) -> dict:
    j_na_post = int(rng.integers(62, 65))   # last accumbens slice (#7/#8)
    j_cp = j_na_post + int(rng.integers(0, 2))  # posterior contact (#5/#6)
    j_ca = j_cp + 7                             # anterior contact (#3/#4)
    j12 = j_ca + int(rng.integers(0, 3))    # last putamen slice (#1/#2)
    return {
        "j_na_post": j_na_post,
        "j_cp": j_cp,
        "j_ca": j_ca,
        "j12": j12,
        "m_post": int(rng.integers(16, 19)),  # separator offset, boundary grid
        "j13": int(rng.integers(36, 41)),     # inferior horn landmark slice
        "j_mb": int(rng.integers(40, 45)),    # mammillary slice
    }


def generate_phantom(spec: PhantomSpec | int = 0) -> tuple[Volume, LandmarkSet]:
    """Build one rule-consistent fine-26 phantom and its 16 landmarks."""
    if isinstance(spec, (int, np.integer)):
        spec = PhantomSpec(seed=int(spec))
    rng = np.random.default_rng(spec.seed)
    sp = spec.spacing
    c = (N - 1) / 2.0

    # draw order is part of the determinism contract
    g = rng.integers(-1, 2, size=3)
    left = _side_params(rng)
    right = _side_params(rng)
    j9 = int(rng.integers(50, 55))
    for side in (left, right):
        side["m_ant"] = side["m_post"] + 3

    affine = np.diag([sp, sp, sp, 1.0])
    affine[:3, 3] = -c * sp

    def world(idx):
        return (np.asarray(idx, dtype=np.float64) + g - c) * sp

    lm_index = {
        1: (21.0, left["j12"], 49.0),
        2: (74.0, right["j12"], 49.0),
        3: (c - left["m_ant"], left["j_ca"], 49.0),
        4: (c + right["m_ant"], right["j_ca"], 49.0),
        5: (c - left["m_post"], left["j_cp"], 49.0),
        6: (c + right["m_post"], right["j_cp"], 49.0),
        7: (34.0, left["j_na_post"], 49.0),
        8: (61.0, right["j_na_post"], 49.0),
        9: (c, j9, 52.0),
        10: (c, 60.0, 44.0),
        11: (38.0, left["j_mb"], 34.0),
        12: (57.0, right["j_mb"], 34.0),
        13: (28.0, left["j13"], 20.0),
        14: (67.0, right["j13"], 20.0),
        15: (c, 40.0, 44.0),
        16: (c, 30.0, 20.0),
    }
    lms = LandmarkSet({lid: world(idx) for lid, idx in lm_index.items()})

    boxes = {
        "blob_r": (58, 78, 56, 78, 40, 58),
        "cau_r": (62, 68, 44, 54, 60, 68),
        "gp_r": (50, 56, 58, 66, 36, 44),
        "th_r": (53, 60, 28, 42, 46, 56),
        "hf_r": (62, 72, 20, 30, 32, 40),
        "amy_r": (64, 72, 42, 52, 30, 38),
        "lv_r": (54, 60, 30, 70, 60, 70),
        "limb_r": (64, 70, right["j13"] - 4, right["j13"], 16, 70),
        "ih_r": (64, 70, right["j13"] + 1, 58, 16, 24),
        "vdc_r": (52, 62, 34, 50, 28, 40),
        "v3": (44, 51, 30, j9, 46, 58),
        "csf": (44, 51, j9 + 1, j9 + 10, 46, 58),
        "v4": (45, 50, 12, 20, 30, 38),
        "bst": (42, 53, 8, 26, 8, 28),
    }
    for name in ("blob", "cau", "gp", "th", "hf", "amy", "lv", "vdc"):
        boxes[name + "_l"] = _mirror(boxes[name + "_r"])
    boxes["limb_l"] = _mirror((64, 70, left["j13"] - 4, left["j13"], 16, 70))
    boxes["ih_l"] = _mirror((64, 70, left["j13"] + 1, 58, 16, 24))
    boxes = {name: _shift(box, g) for name, box in boxes.items()}

    data = np.zeros((N, N, N), dtype=np.int16)
    plain = {
        "cau_l": 8, "cau_r": 9, "gp_l": 12, "gp_r": 13,
        "th_l": 15, "th_r": 16, "hf_l": 19, "hf_r": 20,
        "amy_l": 21, "amy_r": 22, "lv_l": 1, "lv_r": 2,
        "limb_l": 1, "limb_r": 2, "ih_l": 17, "ih_r": 18,
        "v3": 4, "csf": 3, "v4": 5, "bst": 14,
    }
    for name, value in plain.items():
        _fill(data, boxes[name], value, name)
    for name, params, ids, lm_ids in (
            ("blob_l", left, (6, 10), (3, 5)),
            ("blob_r", right, (7, 11), (4, 6))):
        _paint_blob(data, boxes[name], params, ids, lms, lm_ids, sp, c, g, name)
    for name, params, ids in (("vdc_l", left, (23, 25)),
                              ("vdc_r", right, (24, 26))):
        i0, i1, j0, j1, k0, k1 = boxes[name]
        j_mb = params["j_mb"] + g[1]
        _fill(data, (i0, i1, j0, j_mb, k0, k1), ids[1], name + " posterior")
        _fill(data, (i0, i1, j_mb + 1, j1, k0, k1), ids[0], name + " anterior")

    vol = Volume._own(data, affine, taxonomy="fine26")
    _check_phantom(vol, lms, sp, c)
    return vol, lms


def _paint_blob(data, box, params, ids, lms, lm_ids, sp, c, g, name):
    """Accumbens/putamen complex, split by the rules it must satisfy:
    all accumbens anterior of the #1/#2 slice, all putamen posterior of
    the #7/#8 slice, and the interpolated vertical separator between.
    """
    nacc_id, put_id = ids
    ant_id, post_id = lm_ids
    i0, i1, j0, j1, k0, k1 = box
    if (data[i0:i1 + 1, j0:j1 + 1, k0:k1 + 1] != 0).any():
        raise PhantomError(f"{name}: box overlaps an existing structure")
    x_ant, y_ant = float(lms[ant_id][0]), float(lms[ant_id][1])
    x_post, y_post = float(lms[post_id][0]), float(lms[post_id][1])
    j12 = params["j12"] + g[1]
    j_na = params["j_na_post"] + g[1]
    xs = (np.arange(i0, i1 + 1, dtype=np.float64) - c) * sp
    for j in range(j0, j1 + 1):
        if j > j12:
            vals = np.full(xs.shape, nacc_id, dtype=np.int16)
        elif j < j_na:
            vals = np.full(xs.shape, put_id, dtype=np.int16)
        else:
            y = (j - c) * sp
            if y <= y_post:
                x_s = x_post
            elif y >= y_ant:
                x_s = x_ant
            else:
                x_s = x_post + (y - y_post) / (y_ant - y_post) * (x_ant - x_post)
            margin = float(np.min(np.abs(np.abs(xs) - abs(x_s))))
            if margin <= 1e-6:
                raise PhantomError(
                    f"{name}: separator within {margin:g} mm of a voxel "
                    f"center at slice {j}; classification would be fragile")
            vals = np.where(np.abs(xs) < abs(x_s), nacc_id, put_id).astype(np.int16)
        data[i0:i1 + 1, j, k0:k1 + 1] = vals[:, None]


def _snap_j(lms, lid, sp, c) -> int:
    return int(round_half_away(lms[lid][1] / sp + c))


def _check_phantom(vol: Volume, lms: LandmarkSet, sp: float, c: float) -> None:
    """Independent audit of the painted labels against the rules, read
    from the labels' boxes; an absent label breaks none."""
    issues = validate_landmarks(lms, vol)
    if issues:
        raise PhantomError("landmark validation failed: " + "; ".join(issues))
    # (label, landmark, start): a label with start None may not pass its
    # landmark's slice j, one with start d may not begin before j + d
    for label, lid, start, what in (
            # putamen may not extend anterior of its landmark slice
            (10, 1, None, "left putamen anterior of #1"),
            (11, 2, None, "right putamen anterior of #2"),
            # accumbens may not extend posterior of its landmark slice
            (6, 7, 0, "left accumbens posterior of #7"),
            (7, 8, 0, "right accumbens posterior of #8"),
            # third ventricle ends at the #9 slice
            (4, 9, None, "third ventricle anterior of #9"),
            # VDC parts sit strictly on their sides of the mammillary slice
            (23, 11, 1, "left anterior VDC at/behind #11"),
            (25, 11, None, "left posterior VDC anterior of #11"),
            (24, 12, 1, "right anterior VDC at/behind #12"),
            (26, 12, None, "right posterior VDC anterior of #12"),
            # inferior horn lives strictly anterior of its landmark slice
            (17, 13, 1, "left inferior horn at/behind #13"),
            (18, 14, 1, "right inferior horn at/behind #14")):
        box, j = vol.box((label,)), _snap_j(lms, lid, sp, c)
        if box and (box[1].stop - 1 > j if start is None else box[1].start < j + start):
            raise PhantomError(f"rule inconsistency: {what}")

    # bilateral labels must sit clearly inside their hemisphere; x grows
    # with i, as the spacing is positive
    plane_x = float(lms[10][0])
    xs = (np.arange(N, dtype=np.float64) - c) * sp - plane_x
    left = vol.box((1, 6, 8, 10, 12, 15, 17, 19, 21, 23, 25))
    right = vol.box((2, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26))
    if left and xs[left[0].stop - 1] > -0.4 * sp:
        raise PhantomError("left-hemisphere label too close to the midline")
    if right and xs[right[0].start] < 0.4 * sp:
        raise PhantomError("right-hemisphere label too close to the midline")


def degrade_phantom(
    vol26: Volume,
    lms: LandmarkSet,
    mode: str,
    amount: float,
    seed: int = 0,
) -> tuple[Volume, LandmarkSet]:
    """Fuse a fine phantom and damage it in a controlled way.

    landmark-jitter: add isotropic Gaussian noise (sigma = amount, mm)
        to every landmark; the volume is untouched.
    boundary-noise: relabel a fraction (amount) of the voxels that sit
        on a fused-label interface to a random differing 6-neighbor's
        value; landmarks are untouched.
    erosion: peel each fused label by amount (int) morphological
        erosion steps; stripped voxels become background.

    Returns the degraded fused volume and landmark set.
    """
    if mode not in DEGRADE_MODES:
        raise PhantomError(f"unknown degradation mode {mode!r}; "
                           f"choose from {DEGRADE_MODES}")
    v12 = fuse_labels(vol26)
    rng = np.random.default_rng(seed)

    if mode == "landmark-jitter":
        if amount < 0:
            raise PhantomError("jitter sigma must be >= 0")
        moved = {lid: lms[lid] + rng.normal(0.0, amount, size=3)
                 for lid in lms.ids}
        return v12, LandmarkSet(moved)

    data = v12.data.copy()  # the volume returned takes this array without a copy
    if mode == "boundary-noise":
        if not 0.0 <= amount <= 1.0:
            raise PhantomError("noise fraction must be in [0, 1]")
        iface = np.zeros(data.shape, dtype=bool)
        for ax in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[ax] = slice(None, -1)
            hi[ax] = slice(1, None)
            ne = data[tuple(lo)] != data[tuple(hi)]
            iface[tuple(lo)] |= ne
            iface[tuple(hi)] |= ne
        iface &= data != 0
        cand = np.argwhere(iface)
        n_flip = int(round(amount * len(cand)))
        if n_flip:
            picked = cand[rng.choice(len(cand), size=n_flip, replace=False)]
            offsets = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                [0, -1, 0], [0, 0, 1], [0, 0, -1]])
            for ijk in picked:
                nbrs = ijk + offsets
                ok = ((nbrs >= 0) & (nbrs < np.array(data.shape))).all(axis=1)
                vals = data[tuple(nbrs[ok].T)]
                vals = vals[vals != data[tuple(ijk)]]
                if vals.size:
                    data[tuple(ijk)] = vals[rng.integers(vals.size)]
        return Volume._own(data, v12.affine, taxonomy=v12.taxonomy), lms

    if not (float(amount).is_integer() and amount >= 1):  # refuses inf and nan too
        raise PhantomError(f"erosion amount must be a whole step count >= 1, got {amount}")
    steps = int(amount)
    # each label eroded in its box, whose edge counts as outside, as the grid's does
    for lab in range(1, v12.label_scan[1] + 1):
        box = v12.box((lab,))
        if box:
            m = data[box] == lab
            data[box][m & ~_erode_6(m, steps)] = 0
    return Volume._own(data, v12.affine, taxonomy=v12.taxonomy), lms
