"""Label taxonomies and landmark definitions.

Two label vocabularies describe the same subcortical anatomy:

* the fine 26-label set, with left/right instances of each bilateral
  structure and the ventral diencephalon split into anterior/posterior
  parts, plus distinct lateral-ventricle and inferior-horn labels;
* the fused 12-label set, where hemisphere pairs and part pairs share
  one id and the inferior horn is absorbed into the lateral ventricle.

``fuse_labels`` maps fine to fused.  The reverse direction is not a
lookup: it is the rule-driven refinement in :mod:`hoarefine.refine`.

Sixteen anatomical point landmarks drive that refinement.  They are
interchanged as JSON (one object per landmark, world-mm RAS) or CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nifti import Volume, open_atomic

BACKGROUND = 0

# fine 26-label taxonomy: id -> (short name, hemisphere, description)
FINE_LABELS = {
    1: ("LV_L", "left", "lateral ventricle, left"),
    2: ("LV_R", "right", "lateral ventricle, right"),
    3: ("CSF", "midline", "midline cerebrospinal fluid"),
    4: ("3V", "midline", "third ventricle"),
    5: ("4V", "midline", "fourth ventricle"),
    6: ("NAcc_L", "left", "nucleus accumbens, left"),
    7: ("NAcc_R", "right", "nucleus accumbens, right"),
    8: ("CAU_L", "left", "caudate nucleus, left"),
    9: ("CAU_R", "right", "caudate nucleus, right"),
    10: ("Put_L", "left", "putamen, left"),
    11: ("Put_R", "right", "putamen, right"),
    12: ("GP_L", "left", "globus pallidus, left"),
    13: ("GP_R", "right", "globus pallidus, right"),
    14: ("BST", "midline", "brainstem"),
    15: ("TH_L", "left", "thalamus, left"),
    16: ("TH_R", "right", "thalamus, right"),
    17: ("IH_L", "left", "inferior horn of the lateral ventricle, left"),
    18: ("IH_R", "right", "inferior horn of the lateral ventricle, right"),
    19: ("HF_L", "left", "hippocampal formation, left"),
    20: ("HF_R", "right", "hippocampal formation, right"),
    21: ("AMY_L", "left", "amygdala, left"),
    22: ("AMY_R", "right", "amygdala, right"),
    23: ("VDC_A_L", "left", "ventral diencephalon, anterior part, left"),
    24: ("VDC_A_R", "right", "ventral diencephalon, anterior part, right"),
    25: ("VDC_P_L", "left", "ventral diencephalon, posterior part, left"),
    26: ("VDC_P_R", "right", "ventral diencephalon, posterior part, right"),
}
FINE_NAME = {i: t[0] for i, t in FINE_LABELS.items()}
FINE_HEMISPHERE = {i: t[1] for i, t in FINE_LABELS.items()}

# fused 12-label taxonomy
FUSED_LABELS = {
    1: ("LV", "lateral ventricle incl. inferior horn"),
    2: ("CSF", "midline cerebrospinal fluid"),
    3: ("3V", "third ventricle"),
    4: ("4V", "fourth ventricle"),
    5: ("NAccPUT", "nucleus accumbens + putamen"),
    6: ("CAU", "caudate nucleus"),
    7: ("GP", "globus pallidus"),
    8: ("BST", "brainstem"),
    9: ("TH", "thalamus"),
    10: ("HF", "hippocampal formation"),
    11: ("AMY", "amygdala"),
    12: ("VDC", "ventral diencephalon"),
}

# fine id -> fused id (index 0 = background)
FUSE_LUT = np.array(
    [0,
     1, 1,        # LV_L, LV_R
     2,           # CSF
     3,           # 3V
     4,           # 4V
     5, 5,        # NAcc_L, NAcc_R
     6, 6,        # CAU_L, CAU_R
     5, 5,        # PUT_L, PUT_R
     7, 7,        # GP_L, GP_R
     8,           # BST
     9, 9,        # TH_L, TH_R
     1, 1,        # IH_L, IH_R -> LV
     10, 10,      # HF_L, HF_R
     11, 11,      # AMY_L, AMY_R
     12, 12, 12, 12],  # VDC_A_L/R, VDC_P_L/R
    dtype=np.int16,
)

# fused ids whose fine members are hemisphere-specific vs midline
BILATERAL_FUSED = frozenset({1, 5, 6, 7, 9, 10, 11, 12})
MIDLINE_FUSED = frozenset({2, 3, 4, 8})

# Every fused id must be fully covered and the two groups must tile the
# taxonomy; cheap to assert once at import.
assert BILATERAL_FUSED | MIDLINE_FUSED == set(FUSED_LABELS)
assert not BILATERAL_FUSED & MIDLINE_FUSED
assert set(FUSE_LUT[1:]) == set(FUSED_LABELS)
assert len(FUSE_LUT) == len(FINE_LABELS) + 1
# validate_labels relies on both taxonomies being the ids 1..max
assert set(FINE_LABELS) == set(range(1, max(FINE_LABELS) + 1))
assert set(FUSED_LABELS) == set(range(1, max(FUSED_LABELS) + 1))

# (left fine id, right fine id) for fused structures whose split needs
# no geometry beyond the hemisphere tag
HEMI_PAIRS = {
    6: (8, 9),     # CAU
    7: (12, 13),   # GP
    9: (15, 16),   # TH
    10: (19, 20),  # HF
    11: (21, 22),  # AMY
}

# fallback (left, right) fine ids when a rule-driven split cannot run
# because its landmarks are absent: the group's dominant member
FALLBACK_PAIRS = {
    1: (1, 2),     # LV + inferior horn -> LV
    5: (10, 11),   # NAcc + PUT -> PUT
    12: (25, 26),  # VDC -> posterior part
}


def _pass_table() -> np.ndarray:
    table = np.zeros((3, len(FUSED_LABELS) + 1), dtype=np.int16)
    for fused in MIDLINE_FUSED:
        (table[0, fused],) = np.flatnonzero(FUSE_LUT == fused)
    for fused, pair in {**HEMI_PAIRS, **FALLBACK_PAIRS}.items():
        table[1:, fused] = pair
    return table


# (hemisphere tag 0/1/2, fused id) -> the fine id refinement starts a
# voxel from: tag 0 (untagged) maps each midline structure to its one
# fine id, tags 1/2 map each bilateral structure to its left/right
# member, which for the landmark-split groups is the FALLBACK_PAIRS
# member.  Unused entries (bilateral untagged, midline tagged) are 0.
PASS_TABLE = _pass_table()
assert set(HEMI_PAIRS) | set(FALLBACK_PAIRS) == BILATERAL_FUSED
# the landmark rules read a voxel's side from its fine id alone
assert all(FINE_HEMISPHERE[int(PASS_TABLE[tag, f])] == side
           for f in BILATERAL_FUSED for tag, side in ((1, "left"), (2, "right")))

# the coronal rules: fine id ``from`` becomes ``to`` on the coronal slices
# strictly anterior (True) or posterior (False) of the landmark's slice.
# (i) and (ii) of a side act on disjoint slices unless #1/#2 is posterior of #7/#8.
CORONAL_RULES = (  # (from, to, landmark id, anterior?)
    (10, 6, 1, True), (11, 7, 2, True),      # (i) putamen -> accumbens
    (6, 10, 7, False), (7, 11, 8, False),    # (ii) accumbens -> putamen
    (4, 3, 9, True),                         # (iii) third ventricle -> CSF, across groups
    (25, 23, 11, True), (26, 24, 12, True),  # VDC posterior -> anterior part
)
assert all(FUSE_LUT[a] == FUSE_LUT[b] for a, b, *_ in CORONAL_RULES if (a, b) != (4, 3))


class LabelError(Exception):
    """Raised for values outside the active taxonomy or misuse of fuse."""


def validate_labels(data: np.ndarray, taxonomy: str) -> None:
    """Check every nonzero voxel carries an id of the given taxonomy.

    The ids are 1..max, so integer data within 0..max passes on its
    range alone; anything else goes through ``np.unique`` (a sorted
    copy) to name the bad values.
    """
    table = FINE_LABELS if taxonomy == "fine26" else FUSED_LABELS
    if data.dtype.kind in "iu" and (
            data.size == 0 or (data.min() >= 0 and data.max() <= max(table))):
        return
    present = np.unique(data)
    bad = [int(v) for v in present if v != BACKGROUND and int(v) not in table]
    if bad:
        raise LabelError(f"values {bad} are not {taxonomy} labels")


def fuse_labels(vol: Volume) -> Volume:
    """Collapse a fine 26-label volume to the fused 12-label form.

    A volume already tagged fused12 is rejected: fusing twice would
    silently reinterpret fused ids as fine ones (both ranges start at 1).
    """
    if vol.taxonomy == "fused12":
        raise LabelError("volume is already in the fused 12-label taxonomy")
    if not vol.is_label:
        raise LabelError(f"fuse_labels needs integer labels, got {vol.data.dtype}")
    validate_labels(vol.data, "fine26")
    # the gather takes the LUT's dtype, so the output is int16 with no
    # int64 temporaries; the volume takes it without a copy
    return Volume._own(FUSE_LUT[vol.data], vol.affine, taxonomy="fused12")


# ---------------------------------------------------------------------------
# landmarks

# id -> (canonical name, laterality, description).  Ids 1..16 are fixed
# protocol ids; left/right instances are consecutive (odd = left).
LANDMARKS = {
    1: ("PUT_ANT_L", "left", "first anterior appearance of the putamen, left"),
    2: ("PUT_ANT_R", "right", "first anterior appearance of the putamen, right"),
    3: ("NACC_PUT_ANT_L", "left", "anterior accumbens/putamen contact, left"),
    4: ("NACC_PUT_ANT_R", "right", "anterior accumbens/putamen contact, right"),
    5: ("NACC_PUT_POST_L", "left", "posterior accumbens/putamen contact, left"),
    6: ("NACC_PUT_POST_R", "right", "posterior accumbens/putamen contact, right"),
    7: ("NACC_POST_L", "left", "last anterior appearance of the accumbens, left"),
    8: ("NACC_POST_R", "right", "last anterior appearance of the accumbens, right"),
    9: ("3V_ANT", "midline", "first anterior appearance of the third ventricle"),
    10: ("AC", "midline", "anterior commissure"),
    11: ("MB_L", "left", "mammillary body, left"),
    12: ("MB_R", "right", "mammillary body, right"),
    13: ("IH_POST_L", "left", "first posterior appearance of the inferior horn, left"),
    14: ("IH_POST_R", "right", "first posterior appearance of the inferior horn, right"),
    15: ("PC", "midline", "posterior commissure"),
    16: ("PPF", "midline", "prepontine fissure point"),
}
NAME_FOR_ID = {i: t[0] for i, t in LANDMARKS.items()}

# (left id, right id) landmark pairs
LANDMARK_PAIRS = ((1, 2), (3, 4), (5, 6), (7, 8), (11, 12), (13, 14))

MIDSAGITTAL_IDS = (10, 15, 16)  # AC, PC, PPF define the dividing plane
N_LANDMARKS = len(LANDMARKS)
assert {lm for _, _, lm, _ in CORONAL_RULES} <= set(LANDMARKS)


@dataclass(frozen=True)
class LandmarkSet:
    """Landmark id -> world-mm RAS coordinate."""

    points: dict[int, np.ndarray]

    def __post_init__(self):
        pts = {}
        for lid, xyz in self.points.items():
            lid = int(lid)
            if lid not in LANDMARKS:
                raise LabelError(f"unknown landmark id {lid}")
            try:
                arr = np.asarray(xyz, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):  # an int beyond float64
                arr = None
            if arr is None or arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise LabelError(f"landmark {lid} needs a finite 3-vector, got {xyz!r}")
            arr.setflags(write=False)
            pts[lid] = arr
        object.__setattr__(self, "points", pts)

    def __contains__(self, lid: int) -> bool:
        return lid in self.points

    def __getitem__(self, lid: int) -> np.ndarray:
        return self.points[lid]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.points))

    def as_array(self) -> np.ndarray:
        """Stack all 16 landmarks to shape (16, 3), protocol id order.

        Only valid for complete sets; partial sets raise.
        """
        if len(self.points) != N_LANDMARKS:
            missing = sorted(set(LANDMARKS) - set(self.points))
            raise LabelError(f"landmark set incomplete, missing ids {missing}")
        return np.stack([self.points[i] for i in sorted(LANDMARKS)])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "LandmarkSet":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (N_LANDMARKS, 3):
            raise LabelError(f"expected ({N_LANDMARKS}, 3) array, got {arr.shape}")
        return cls({i + 1: arr[i] for i in range(N_LANDMARKS)})

    def require(self, ids) -> None:
        missing = sorted(set(ids) - set(self.points))
        if missing:
            names = ", ".join(f"{i} ({NAME_FOR_ID[i]})" for i in missing)
            raise LabelError(f"missing required landmarks: {names}")


# the keys of a JSON landmark file and of each of its entries
_JSON_KEYS = frozenset({"space", "frame", "landmarks"})
_ENTRY_KEYS = frozenset({"id", "name", "xyz"})


def parse_landmarks(path: str | Path) -> LandmarkSet:
    """Load landmarks from JSON or CSV, deciding by suffix.

    JSON schema::

        {"space": "world_mm", "frame": "RAS",
         "landmarks": [{"id": 10, "name": "AC", "xyz": [x, y, z]}, ...]}

    Ids and coordinates must be JSON numbers; any other key, at the top
    or in an entry, is an error.  CSV mirror: header
    ``id,name,x,y,z`` with no other or repeated column, one row per
    landmark.  Names are cross-checked against the protocol catalog
    when present.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open(path, encoding="utf-8-sig") as f:
            try:
                doc = json.load(f)
            except RecursionError:  # nesting deeper than the parser's stack
                raise LabelError(f"{path}: landmark JSON is nested too deeply") from None
            except ValueError as exc:  # not UTF-8 text, or not JSON
                raise LabelError(f"{path}: not a UTF-8 JSON file: {exc}") from None
        if (not isinstance(doc, dict) or doc.get("space") != "world_mm"
                or doc.get("frame") != "RAS"):
            raise LabelError(
                f"{path}: landmark file must declare space=world_mm frame=RAS")
        # a key this reader does not know (units, xyz_mm, ...) may change
        # what the file means, so it is refused rather than ignored
        extra = sorted(doc.keys() - _JSON_KEYS)
        if extra:
            raise LabelError(f"{path}: unknown landmark file key {extra[0]!r}")
        entries = doc.get("landmarks")
        if not isinstance(entries, list):
            raise LabelError(f"{path}: missing landmarks list")
        points = {}
        for e in entries:
            if not isinstance(e, dict) or not {"id", "xyz"} <= e.keys():
                raise LabelError(f"{path}: landmark entry {e!r} needs 'id' and 'xyz'")
            extra = sorted(e.keys() - _ENTRY_KEYS)
            if extra:
                raise LabelError(f"{path}: landmark entry {e['id']!r} has unknown "
                                 f"key {extra[0]!r}")
            lid = e["id"]  # 3.0 is an integer; 3.7, "3" and true are not
            if type(lid) is not int and not (type(lid) is float and lid.is_integer()):
                raise LabelError(f"{path}: landmark id {lid!r} is not an integer")
            lid = int(lid)
            _check_name(path, lid, e.get("name"))
            if lid in points:
                raise LabelError(f"{path}: duplicate landmark id {lid}")
            xyz = e["xyz"]  # numbers only: float() would also take "1" and true
            if isinstance(xyz, list) and any(type(v) not in (int, float) for v in xyz):
                raise LabelError(f"{path}: landmark {lid} xyz must hold numbers, got {xyz!r}")
            points[lid] = xyz
        return LandmarkSet(points)
    if path.suffix.lower() == ".csv":
        points = {}
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            try:
                header = reader.fieldnames or []
                repeated = [n for n in header if header.count(n) > 1]
                if repeated:  # DictReader would keep only the last such column
                    raise LabelError(f"{path}: header repeats column {repeated[0]!r}")
                for row in reader:
                    if not row.keys() <= {"id", "name", "x", "y", "z"}:  # key None: extra fields
                        raise LabelError(f"{path}: line {reader.line_num} has a field "
                                         "beyond id,name,x,y,z")
                    try:
                        lid = int(row["id"])
                        xyz = (float(row["x"]), float(row["y"]), float(row["z"]))
                    except (KeyError, TypeError, ValueError):
                        raise LabelError(f"{path}: line {reader.line_num} needs an "
                                         "integer id and numeric x, y, z") from None
                    _check_name(path, lid, row.get("name"))
                    if lid in points:
                        raise LabelError(f"{path}: duplicate landmark id {lid}")
                    points[lid] = xyz
            except csv.Error as exc:  # an oversized field; a NUL before Python 3.11
                raise LabelError(f"{path}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise LabelError(f"{path}: landmark file is not UTF-8 text: {exc}") from None
        if not points:
            raise LabelError(f"{path}: no landmark rows")
        return LandmarkSet(points)
    raise LabelError(f"{path}: landmark files must be .json or .csv")


def _check_name(path: Path, lid: int, name) -> None:
    if lid not in LANDMARKS:
        raise LabelError(f"{path}: unknown landmark id {lid}")
    if name not in (None, "") and name != NAME_FOR_ID[lid]:
        raise LabelError(
            f"{path}: landmark {lid} named {name!r}, catalog says {NAME_FOR_ID[lid]!r}")


def validate_landmarks(lms: LandmarkSet, vol: Volume | None = None) -> list[str]:
    """Sanity-check a landmark set, returning human-readable violations.

    Never raises: an empty list means the set passed every check.
    Checks: points inside the volume grid (when a volume is given),
    left member of each L/R pair medial-ordered (x_left < x_right),
    AC anterior to PC, and paired landmarks within 80 mm of each other.
    """
    problems: list[str] = []
    if vol is not None:
        dims = np.asarray(vol.dims, dtype=np.float64)
        for lid in lms.ids:
            idx = vol.world_to_voxel(lms[lid])
            # voxel centers: anything in [-0.5, n-0.5) falls inside the grid
            if np.any(idx < -0.5) or np.any(idx >= dims - 0.5):
                problems.append(
                    f"landmark {lid} ({NAME_FOR_ID[lid]}) outside volume bounds: "
                    f"voxel index {np.round(idx, 2).tolist()}")
    for left, right in LANDMARK_PAIRS:
        if left in lms and right in lms:
            if not lms[left][0] < lms[right][0]:
                problems.append(
                    f"laterality ordering: #{left} ({NAME_FOR_ID[left]}) x="
                    f"{lms[left][0]:g} not left of #{right} x={lms[right][0]:g}")
            gap = float(np.linalg.norm(lms[left] - lms[right]))
            if gap > 80.0:
                problems.append(
                    f"pair #{left}/#{right} implausibly far apart: {gap:.1f} mm > 80 mm")
    if 10 in lms and 15 in lms and not lms[10][1] > lms[15][1]:
        problems.append(
            f"AC/PC ordering: AC y={lms[10][1]:g} not anterior to PC y={lms[15][1]:g}")
    return problems


def _landmark_suffix(path: Path) -> str:
    """``path``'s lower-cased suffix, ".json" or ".csv"; LabelError otherwise."""
    suffix = path.suffix.lower()
    if suffix not in (".json", ".csv"):
        raise LabelError(f"{path}: landmark files must be .json or .csv")
    return suffix


def write_landmarks(lms: LandmarkSet, path: str | Path) -> None:
    path = Path(path)
    if _landmark_suffix(path) == ".json":
        doc = {
            "space": "world_mm",
            "frame": "RAS",
            "landmarks": [
                {"id": i, "name": NAME_FOR_ID[i], "xyz": [float(v) for v in lms[i]]}
                for i in lms.ids
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["id", "name", "x", "y", "z"])
        for i in lms.ids:
            x, y, z = lms[i]
            w.writerow([i, NAME_FOR_ID[i], repr(float(x)), repr(float(y)), repr(float(z))])
        text = buf.getvalue()
    with open_atomic(path) as f:
        f.write(text.encode("utf-8"))
