"""Evaluation metrics: Dice, surface distances, lines, paired testing."""

import json
import logging
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hoarefine import (
    DEFAULT_BOUNDARIES,
    LandmarkSet,
    MetricError,
    MetricReport,
    MetricRow,
    MetricUndefinedError,
    PairedSampleTable,
    Volume,
    benjamini_hochberg,
    degrade_phantom,
    dice,
    evaluate_pair,
    extract_protocol_surface,
    extract_separation_line,
    fuse_labels,
    generate_phantom,
    line_metrics,
    nifti,
    pasd,
    refine_full,
    wilcoxon_fdr,
    wilcoxon_signed_rank,
)

from hoarefine.metrics import _MAXLOG, SkippedSide, _norm_sf

from conftest import make_volume, resample, to_las
from oracles import brute_dice, brute_pasd, brute_separation_line, brute_wilcoxon


def _spec(region, surface):
    for s in DEFAULT_BOUNDARIES:
        if s.region == region and s.surface == surface:
            return s
    raise KeyError((region, surface))


class TestDice:
    def test_basic_values(self):
        gt = make_volume(np.array([[[6, 6, 6, 0]]], dtype=np.int16))
        pred = make_volume(np.array([[[6, 6, 0, 6]]], dtype=np.int16))
        assert dice(pred, gt, 6) == 2 * 2 / (3 + 3)
        assert dice(gt, gt, 6) == 1.0
        assert dice(pred, gt, 10) == 1.0  # label absent from both

    def test_disjoint(self):
        gt = make_volume(np.array([[[6, 0]]], dtype=np.int16))
        pred = make_volume(np.array([[[0, 6]]], dtype=np.int16))
        assert dice(pred, gt, 6) == 0.0

    def test_both_empty_warns(self, caplog):
        for shape in ((2, 2, 2), (0, 2, 2)):  # a zero-size grid has no label boxes
            vol = make_volume(np.zeros(shape, dtype=np.int16))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hoarefine.metrics"):
                assert dice(vol, vol, 6) == 1.0
            assert any("both masks empty" in r.message for r in caplog.records)

    def test_dimension_mismatch(self):
        a = make_volume(np.zeros((2, 2, 2), dtype=np.int16))
        b = make_volume(np.zeros((2, 2, 3), dtype=np.int16))
        with pytest.raises(MetricError, match="mismatch"):
            dice(a, b, 6)

    def test_labels_outside_taxonomy(self):
        ok = make_volume(np.array([[[6, 0]]], dtype=np.int16))
        for bad in (27, 30, -1):
            vol = make_volume(np.array([[[6, bad]]], dtype=np.int16))
            with pytest.raises(MetricError, match=f"label {bad}, outside"):
                dice(vol, ok, 6)
            with pytest.raises(MetricError, match=f"label {bad}, outside"):
                evaluate_pair(ok, vol, LandmarkSet({}))
        with pytest.raises(MetricError, match="outside"):
            dice(ok, ok, 27)
        floats = make_volume(np.array([[[6.0, 0.0]]], dtype=np.float32))
        with pytest.raises(MetricError, match="integer labels"):
            evaluate_pair(floats, ok, LandmarkSet({}))

    def test_matches_reference_count(self):
        rng = np.random.default_rng(2)
        a = make_volume(rng.integers(0, 3, size=(6, 5, 4)).astype(np.int16))
        b = make_volume(rng.integers(0, 3, size=(6, 5, 4)).astype(np.int16))
        assert dice(a, b, 2) == brute_dice(a, b, 2)


class TestLineMetrics:
    def test_hand_values(self):
        mae, sigma = line_metrics([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert mae == 1.0
        assert sigma == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
        _, sigma = line_metrics([7.0, 8.0, 7.0, 8.0], [7.0] * 4)
        assert sigma == 0.5

    def test_constant_line_is_exactly_zero(self):
        vals = [2.1000000000000001] * 7  # mean rounding must not leak in
        _, sigma = line_metrics(vals, [0.0] * 7)
        assert sigma == 0.0

    def test_errors(self):
        with pytest.raises(MetricUndefinedError):
            line_metrics([], [])
        with pytest.raises(MetricError):
            line_metrics([1.0, 2.0], [1.0])


class TestSeparationLine:
    def _volume(self, a_cols, b_cols, n_rows=5, spacing=1.0, origin=0.0):
        data = np.zeros((12, 3, n_rows), dtype=np.int16)
        data[a_cols, 1, :] = 6
        data[b_cols, 1, :] = 10
        return make_volume(data, spacing=spacing, origin=origin)

    def test_ascending_scan(self):
        vol = self._volume(slice(0, 7), slice(7, 12))
        rows, pos = extract_separation_line(vol, 1, 1, (6, 10), 0)
        assert rows.tolist() == [0, 1, 2, 3, 4]
        assert np.all(pos == 7.0)

    def test_descending_scan(self):
        vol = self._volume(slice(7, 12), slice(0, 7))
        _, pos = extract_separation_line(vol, 1, 1, (6, 10), 0)
        assert np.all(pos == 6.0)  # last B voxel met from the A side

    def test_world_units(self):
        vol = self._volume(slice(0, 7), slice(7, 12),
                           spacing=0.7, origin=(-2.0, 0.0, 0.0))
        _, pos = extract_separation_line(vol, 1, 1, (6, 10), 0)
        assert np.allclose(pos, -2.0 + 0.7 * 7)

    def test_jagged_boundary(self):
        data = np.zeros((12, 3, 4), dtype=np.int16)
        for r in range(4):
            start = 7 + (r % 2)
            data[:start, 1, r] = 6
            data[start:, 1, r] = 10
        vol = make_volume(data)
        rows, pos = extract_separation_line(vol, 1, 1, (6, 10), 0)
        assert pos.tolist() == [7.0, 8.0, 7.0, 8.0]
        _, sigma = line_metrics(pos, pos)
        assert sigma == 0.5

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            data = rng.choice([0, 6, 10], size=(10, 3, 6),
                              p=[0.3, 0.35, 0.35]).astype(np.int16)
            vol = make_volume(data, spacing=0.9)
            ref = brute_separation_line(vol, 1, 1, (6, 10), 0)
            try:
                rows, pos = extract_separation_line(vol, 1, 1, (6, 10), 0)
            except MetricUndefinedError:
                assert ref is None
                continue
            assert ref is not None
            assert np.array_equal(rows, ref[0])
            assert np.array_equal(pos, ref[1])

    def test_errors(self):
        vol = self._volume(slice(0, 7), slice(7, 12))
        with pytest.raises(MetricUndefinedError, match="lacks label"):
            extract_separation_line(vol, 1, 1, (6, 4), 0)
        with pytest.raises(MetricError, match="scan axis"):
            extract_separation_line(vol, 1, 1, (6, 10), 1)
        with pytest.raises(MetricError, match="outside"):
            extract_separation_line(vol, 1, 9, (6, 10), 0)
        sym = np.zeros((5, 3, 1), dtype=np.int16)
        sym[[0, 4], 1, 0] = 6
        sym[2, 1, 0] = 10
        with pytest.raises(MetricUndefinedError, match="symmetric"):
            extract_separation_line(make_volume(sym), 1, 1, (6, 10), 0)


class TestPasd:
    # putamen anterior face against contact landmark #1, 0.7 mm grid
    def _gt(self):
        data = np.full((4, 6, 2), 10, dtype=np.int16)
        data[:, 4:, :] = 6
        return make_volume(data, spacing=0.7)

    def _lms(self):
        return LandmarkSet({1: np.array([0.0, 3 * 0.7, 0.0])})

    def test_surface_on_landmark_slice(self):
        spec = _spec("Put", "anterior")
        pts = extract_protocol_surface(self._gt(), spec, self._lms(), "left")
        assert pts.shape == (8, 3)
        assert np.allclose(pts[:, 1], 2.1)

    def test_perfect_match_is_zero(self):
        spec = _spec("Put", "anterior")
        gt = self._gt()
        assert pasd(gt, gt, spec, self._lms(), "left") == 0.0

    def test_one_slice_retreat_costs_spacing(self):
        spec = _spec("Put", "anterior")
        gt = self._gt()
        retreated = gt.data.copy()
        retreated[:, 3, :] = 6  # putamen face pulled back one slice
        pred = make_volume(retreated, spacing=0.7)
        assert pasd(gt, pred, spec, self._lms(), "left") == pytest.approx(
            0.7, abs=1e-12)
        # one-way by construction: the retreated volume has no face
        # voxels on the landmark slice at all
        with pytest.raises(MetricUndefinedError, match="absent"):
            pasd(pred, gt, spec, self._lms(), "left")

    def test_side_filter_excludes_far_side(self):
        spec = _spec("Put", "anterior")
        gt = self._gt()
        data = np.full((4, 6, 2), 6, dtype=np.int16)
        data[:, 0, :] = 10           # kept: posterior of the landmark
        data[:, 5, :] = 10           # anterior of it: filtered out
        pred = make_volume(data, spacing=0.7)
        assert pasd(gt, pred, spec, self._lms(), "left") == pytest.approx(
            3 * 0.7, abs=1e-12)
        assert pasd(gt, pred, spec, self._lms(), "left",
                    side_filter=False) == pytest.approx(2 * 0.7, abs=1e-12)

    def test_lateral_surface(self):
        spec = _spec("NAcc", "lateral")
        data = np.zeros((6, 1, 2), dtype=np.int16)
        data[0:3, 0, :] = 10  # left putamen lateral (-x) of the accumbens
        data[3:6, 0, :] = 6
        gt = make_volume(data)
        pts = extract_protocol_surface(gt, spec, LandmarkSet({}), "left")
        assert sorted(map(tuple, pts)) == [(3.0, 0.0, 0.0), (3.0, 0.0, 1.0)]
        assert pasd(gt, gt, spec, LandmarkSet({}), "left") == 0.0

    def test_exclusive_boundary_shifts_one_slice(self):
        spec = _spec("IH", "posterior")
        data = np.zeros((2, 6, 2), dtype=np.int16)
        data[:, 0:4, :] = 1    # ventricle up to the landmark slice
        data[:, 4:6, :] = 17   # horn strictly anterior
        gt = make_volume(data)
        lms = LandmarkSet({13: np.array([0.0, 3.0, 0.0])})
        pts = extract_protocol_surface(gt, spec, lms, "left")
        assert np.allclose(pts[:, 1], 4.0)  # one slice beyond the landmark
        assert pasd(gt, gt, spec, lms, "left") == 0.0

    def test_undefined_cases(self):
        spec = _spec("Put", "anterior")
        gt = self._gt()
        empty = make_volume(np.zeros((4, 6, 2), dtype=np.int16), spacing=0.7)
        with pytest.raises(MetricUndefinedError, match="no predicted voxels"):
            pasd(gt, empty, spec, self._lms(), "left")
        far = LandmarkSet({1: np.array([0.0, 70.0, 0.0])})
        with pytest.raises(MetricUndefinedError, match="outside"):
            pasd(gt, gt, spec, far, "left")
        with pytest.raises(MetricUndefinedError, match="missing"):
            pasd(gt, gt, spec, LandmarkSet({}), "left")

    def test_alignment_and_side_checks(self):
        spec = _spec("Put", "anterior")
        gt = self._gt()
        other = make_volume(gt.data.copy(), spacing=0.8)
        with pytest.raises(MetricError, match="affine"):
            pasd(gt, other, spec, self._lms(), "left")
        with pytest.raises(MetricError, match="no side"):
            spec.side("mid")

    def test_float_labels_raise_metric_error(self):
        floats = make_volume(self._gt().data.astype(np.float32), spacing=0.7)
        with pytest.raises(MetricError, match="integer labels"):
            pasd(self._gt(), floats, _spec("Put", "anterior"), self._lms(), "left")
        with pytest.raises(MetricError, match="integer labels"):
            extract_protocol_surface(floats, _spec("NAcc", "lateral"), LandmarkSet({}), "left")

    def test_sheared_grid_nearest_voxel_may_be_interior(self):
        # the y axis leans toward x (cosine 0.67): a diagonal step is
        # shorter than any face step, so a hole in the predicted putamen
        # is nearest to a voxel deep inside it, not to the hole's rim
        affine = np.eye(4)
        affine[:3, :3] = [[1.0, 0.63, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 1.0]]
        gt = Volume(np.full((5, 5, 3), 10, dtype=np.int16), affine)
        holed = gt.data.copy()
        holed[2, 3, 1] = 0
        pred = Volume(holed, affine)
        lms = LandmarkSet({1: gt.voxel_to_world([0.0, 3.0, 0.0])})
        spec = _spec("Put", "anterior")
        nearest = np.hypot(1.0 - 0.63, 0.7)  # voxel (3, 2, 1), interior
        assert pasd(gt, pred, spec, lms, "left") == pytest.approx(
            nearest / 15, abs=1e-12)

    def test_matches_reference_distances(self):
        rng = np.random.default_rng(6)
        spec_post = _spec("NAcc", "posterior")
        spec_lat = _spec("NAcc", "lateral")
        checked = 0
        for _ in range(12):
            dims = tuple(rng.integers(8, 14, size=3))
            gt = make_volume(
                rng.choice([0, 6, 10], size=dims).astype(np.int16), spacing=0.8)
            pred = make_volume(
                rng.choice([0, 6, 10], size=dims).astype(np.int16), spacing=0.8)
            y_lm = 0.8 * float(rng.integers(0, dims[1]))
            lms = LandmarkSet({7: np.array([0.0, y_lm, 0.0])})
            for spec in (spec_post, spec_lat):
                ref = brute_pasd(gt, pred, spec, lms, "left")
                try:
                    got = pasd(gt, pred, spec, lms, "left")
                except MetricUndefinedError:
                    assert ref is None
                    continue
                assert ref == pytest.approx(got, abs=1e-9)
                checked += 1
        assert checked >= 8  # random fields must actually exercise the path


class TestWilcoxon:
    def test_five_positive_pairs(self):
        w, p = wilcoxon_signed_rank([11, 12, 13, 14, 15], [10] * 5)
        assert w == 15.0
        assert p == 0.0625  # 2 of 32 sign patterns reach W+ = 15

    def test_symmetric_differences(self):
        a = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        w, p = wilcoxon_signed_rank(a, [0.0] * 6)
        assert w == 10.5
        assert p == 1.0

    def test_eight_same_sign(self):
        _, p = wilcoxon_signed_rank(list(range(1, 9)), [0] * 8)
        assert p == 2 / 256

    def test_zeros_dropped(self):
        w, p = wilcoxon_signed_rank([10, 10, 11, 12, 13, 14, 15],
                                    [10, 10, 10, 10, 10, 10, 10])
        assert (w, p) == (15.0, 0.0625)
        with pytest.raises(MetricUndefinedError, match="5"):
            wilcoxon_signed_rank([1, 2, 3, 4, 0], [0, 0, 0, 0, 0])

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_path_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        diffs = rng.integers(-4, 5, size=n)
        diffs[diffs == 0] = 1  # keep n nonzero pairs
        a = diffs.astype(float)
        b = np.zeros(n)
        w_ref, p_ref = brute_wilcoxon(a, b)
        w, p = wilcoxon_signed_rank(a, b)
        assert w == w_ref
        assert p == p_ref  # identical dyadic rationals

    def test_large_sample_matches_normal_approximation(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0.3, 1.0, size=25)
        b = np.zeros(25)
        w, p = wilcoxon_signed_rank(a, b)
        res = scipy.stats.wilcoxon(a, b, zero_method="wilcox",
                                   correction=False, method="approx")
        assert p == pytest.approx(res.pvalue, abs=1e-12)


# where Cephes' ndtr(-z) changes branch, in z: its 1/sqrt(2) split
# (z = 1, which _norm_sf folds into one formula), erfc's x = 1 and x = 8
# switches, and exp(-x*x)'s underflow (x*x = MAXLOG)
SF_EDGES = (0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG))


def _around(z: float, steps: int = 3) -> list[float]:
    """``z`` and its ``steps`` nearest floats on either side, clipped at 0."""
    out = [z]
    for direction in (-math.inf, math.inf):
        v = z
        for _ in range(steps):
            v = math.nextafter(v, direction)
            out.append(v)
    return [v for v in out if v >= 0.0]


@pytest.mark.parametrize("z", [v for edge in SF_EDGES for v in _around(edge)]
                         + [37.52, 37.55, 37.6, 37.65, 37.67])  # subnormal results
def test_norm_sf_equals_scipy_at_branch_edges(z):
    assert _norm_sf(z) == scipy.stats.norm.sf(z)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(z=st.floats(0.0, 40.0))
def test_norm_sf_is_scipy_bit_for_bit(z):
    assert _norm_sf(z) == scipy.stats.norm.sf(z)


class TestBenjaminiHochberg:
    def test_examples(self):
        flags = benjamini_hochberg([0.01, 0.02, 0.04], 0.05)
        assert flags.tolist() == [True, True, True]
        # step-up: a late passer rescues earlier ranks
        flags = benjamini_hochberg([0.04, 0.049, 0.01], 0.05)
        assert flags.tolist() == [True, True, True]
        flags = benjamini_hochberg([0.04, 0.5, 0.9], 0.05)
        assert flags.tolist() == [False, False, False]
        assert benjamini_hochberg([], 0.05).size == 0
        assert benjamini_hochberg([0.5, 0.9], 1.0).tolist() == [True, True]
        for q in (0.0, -1.0, 1.5, 5.0, float("nan"), float("inf")):
            for p in ([0.01, 0.5], []):
                with pytest.raises(MetricError, match="FDR level"):
                    benjamini_hochberg(p, q)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = rng.random(8)
            lo = benjamini_hochberg(p, 0.01)
            hi = benjamini_hochberg(p, 0.05)
            assert not np.any(lo & ~hi)


class TestWilcoxonFdr:
    def _table(self):
        rng = np.random.default_rng(3)
        n = 12
        a = np.column_stack([
            rng.normal(1.0, 0.2, n),   # clearly shifted
            rng.normal(1.0, 0.2, n),   # clearly shifted
            np.full(n, 0.5),           # degenerate: zero differences
        ])
        b = np.column_stack([a[:, 0] - 1.0, a[:, 1] - 1.0, np.full(n, 0.5)])
        subjects = tuple(f"s{i}" for i in range(n))
        return PairedSampleTable(subjects, ("dice", "pasd", "flat"), a, b)

    def test_degenerate_column_gets_nan(self):
        rows = wilcoxon_fdr(self._table(), q=0.05)
        assert [r["column"] for r in rows] == ["dice", "pasd", "flat"]
        assert rows[0]["significant"] and rows[1]["significant"]
        assert np.isnan(rows[2]["p_value"])
        assert rows[2]["significant"] is False

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_non_finite_cell_rejected(self, bad, which):
        t = self._table()
        a, b = t.a.copy(), t.b.copy()
        (a if which == "a" else b)[4, 1] = bad
        with pytest.raises(MetricError, match=f"table {which} holds {bad}.*'s4'.*'pasd'"):
            PairedSampleTable(t.subjects, t.columns, a, b)

    def test_table_shape_validation(self):
        with pytest.raises(MetricError, match="match"):
            PairedSampleTable(("s1",), ("c1", "c2"), np.zeros((1, 1)),
                              np.zeros((1, 1)))


class TestMetricReport:
    def _report(self):
        return MetricReport("sub-01", [
            MetricRow("dice", "Put", "", "left", 0.97),
            MetricRow("dice", "Put", "", "right", 0.95),
            MetricRow("pasd", "Put", "anterior", "left", 0.4),
        ])

    def test_json_round_trip(self):
        rep = self._report()
        back = MetricReport.from_json(rep.to_json())
        assert back.subject == "sub-01"
        assert back.rows == rep.rows
        assert back.skipped == []

    def test_skipped_round_trip(self):
        rep = self._report()
        rep.skipped.append(SkippedSide("lines", "IH", "posterior", "left",
                                       "no slice with a line in both volumes"))
        text = rep.to_json()
        assert json.loads(text)["skipped"][0]["reason"].startswith("no slice")
        back = MetricReport.from_json(text)
        assert back.skipped == rep.skipped
        assert back.to_json() == text
        assert rep.to_csv() == self._report().to_csv()  # CSV schema unchanged
        doc = json.loads(text)
        del doc["skipped"]  # reports written before the list existed
        assert MetricReport.from_json(json.dumps(doc)).skipped == []

    def test_csv_layout(self):
        lines = self._report().to_csv().strip().splitlines()
        assert lines[0] == "subject,metric,region,surface,side,value"
        assert lines[1].startswith("sub-01,dice,Put,,left,")

    def test_mean(self):
        rep = self._report()
        assert rep.mean("dice") == pytest.approx(0.96)
        with pytest.raises(MetricUndefinedError):
            rep.mean("mae")


def test_evaluate_pair_self_comparison(phantom0, refined0):
    _, lms = phantom0
    report = evaluate_pair(refined0, refined0, lms, subject="phantom0")
    by_metric = {}
    for row in report.rows:
        by_metric.setdefault(row.metric, []).append(row.value)
    assert len(by_metric["dice"]) == 26
    assert all(v == 1.0 for v in by_metric["dice"])
    assert len(by_metric["pasd"]) == 15
    assert all(v == 0.0 for v in by_metric["pasd"])
    assert len(by_metric["sigma_y"]) == 15
    assert all(v == 0.0 for v in by_metric["sigma_y"])
    assert all(v == 0.0 for v in by_metric["mae"])
    assert report.mean("dice") == 1.0


def test_fused_volume_refused_in_either_role(phantom0):
    vol, lms = phantom0
    fused = fuse_labels(vol)
    spec = _spec("Put", "anterior")
    for pred, gt, role in ((fused, vol, "predicted"), (vol, fused, "reference")):
        for call in (lambda: evaluate_pair(pred, gt, lms), lambda: dice(pred, gt, 6),
                     lambda: pasd(gt, pred, spec, lms, "left")):
            with pytest.raises(MetricError, match=f"{role} volume is tagged fused12"):
                call()
    with pytest.raises(MetricError, match="reference volume is tagged fused12"):
        extract_protocol_surface(fused, spec, lms, "left")
    # an untagged map is taken as fine, as refine_full takes one as fused
    untagged = Volume(fused.data, fused.affine)
    assert evaluate_pair(untagged, vol, lms).rows
    assert evaluate_pair(vol, untagged, lms).rows


@pytest.mark.parametrize("bad", (-1, 27, 126000))
def test_pasd_and_surface_refuse_labels_outside_taxonomy(phantom0, bad):
    """The public pasd and extract_protocol_surface refuse a label outside
    0..26 in either volume, as evaluate_pair does, at the cost of one
    label scan per volume, whatever the label."""
    vol, lms = phantom0
    data = vol.data.astype(np.int32)
    data[0, 0, 0] = bad
    odd = Volume(data, vol.affine, taxonomy=vol.taxonomy)
    spec = _spec("NAcc", "lateral")
    t0 = time.perf_counter()
    for role, call in (("predicted", lambda: pasd(vol, odd, spec, lms, "left")),
                       ("reference", lambda: pasd(odd, vol, spec, lms, "left")),
                       ("reference", lambda: extract_protocol_surface(odd, spec, lms, "left"))):
        with pytest.raises(MetricError, match=f"^{role} volume holds label {bad}, outside"):
            call()
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("store", ("RAS", "LAS"))
def test_evaluate_pair_scans_each_volume_once(monkeypatch, phantom0, store):
    """evaluate_pair scans the labels of each canonical view once, and
    its checks, Dice, PASD and lines share that scan.  A RAS volume is
    its own view, so a reference reused across calls keeps its scan; a
    LAS one gets a new view, scanned again, on every call."""
    vol, lms = phantom0
    stored = to_las if store == "LAS" else (lambda v: v.with_data(v.data))
    scanned = []
    scan = nifti._label_scan
    monkeypatch.setattr(nifti, "_label_scan", lambda data: scanned.append(1) or scan(data))
    gt = stored(vol)
    for want in (2, 1 if store == "RAS" else 2):
        scanned.clear()
        assert evaluate_pair(stored(vol), gt, lms).rows
        assert len(scanned) == want


def test_evaluate_pair_budget_260():
    """evaluate_pair on a degraded 260x311x260 resample stays under 2.5 s."""
    vol, lms = generate_phantom(3)
    fused, _ = degrade_phantom(vol, lms, "boundary-noise", 0.05, seed=3)
    dims = (260, 311, 260)
    pred, gt = (resample(v, dims) for v in (refine_full(fused, lms), vol))
    t0 = time.perf_counter()
    report = evaluate_pair(pred, gt, lms)
    elapsed = time.perf_counter() - t0
    assert len(report.rows) > 26
    assert elapsed < 2.5, f"evaluate_pair took {elapsed:.2f} s at {dims}"


def test_evaluate_pair_peak_memory_ignores_orientation_260():
    """A LAS pair is scored on flipped views of its stored data, so its
    traced peak is within 10 % of the RAS pair's (a canonical copy of
    each volume made it 9x).  Every family reads only the labels' boxes,
    so either peak stays under 5 MiB (a whole-grid Dice pass made it 9.3)."""
    vol, lms = generate_phantom(3)
    fused, _ = degrade_phantom(vol, lms, "boundary-noise", 0.05, seed=3)
    dims = (260, 311, 260)
    pred, gt = (resample(v, dims) for v in (refine_full(fused, lms), vol))
    peaks = {}
    for name, pair in (("RAS", (pred, gt)), ("LAS", (to_las(pred), to_las(gt)))):
        tracemalloc.start()
        try:
            evaluate_pair(*pair, lms)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    mib = {k: v / 2**20 for k, v in peaks.items()}
    assert peaks["LAS"] < 1.1 * peaks["RAS"], mib
    assert max(mib.values()) < 5, mib
