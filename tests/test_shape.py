"""Landmark shape model: PCA fit, projection, iterative fitting, sampling."""

import json

import numpy as np
import pytest

from hoarefine import (
    CHI3_Q95,
    PATCH_SIDE,
    DisplacementPrediction,
    NoisyOraclePredictor,
    OraclePredictor,
    ShapeModel,
    ShapeModelError,
    ZeroPredictor,
    derive_sigma,
    fit_shape_model,
    iterate_fit,
    landmark_error,
    load_model,
    project,
    reconstruct,
    sample_patch_centers,
    save_model,
)
from hoarefine.shape import CONFIG_DIM, config_from_landmarks, landmarks_from_config


def _planted_spectrum(eigenvalues, n=12, seed=3):
    """Configurations whose sample covariance has exactly these eigenvalues.

    X = mean + sqrt(N-1) * Q diag(sqrt(lam)) Vt with Q column-orthonormal
    and column-mean zero, so (X - mean)^T (X - mean) / (N-1) = V lam V^T.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    r = lam.size
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, r))
    a -= a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    v, _ = np.linalg.qr(rng.standard_normal((CONFIG_DIM, r)))
    mean = rng.standard_normal(CONFIG_DIM)
    return mean + np.sqrt(n - 1) * q @ (np.sqrt(lam)[:, None] * v.T)


class TestFit:
    def test_planted_eigenvalues_recovered(self):
        X = _planted_spectrum([9.0, 0.9, 0.09, 0.009])
        model = fit_shape_model(X, selector=48)
        assert model.n_components == 4  # rank-limited
        assert np.allclose(model.mode_variances,
                           [9.0, 0.9, 0.09, 0.009], atol=1e-9)

    def test_variance_threshold_selector(self):
        # cumulative fractions 0.90009, 0.99010, 0.99910, 1.0
        X = _planted_spectrum([9.0, 0.9, 0.09, 0.009])
        assert fit_shape_model(X, selector=0.995).n_components == 3
        assert fit_shape_model(X, selector=0.9).n_components == 1
        assert fit_shape_model(X, selector=1.0).n_components == 4

    def test_fixed_count_selector(self):
        X = _planted_spectrum([9.0, 0.9, 0.09, 0.009])
        assert fit_shape_model(X, selector=2).n_components == 2
        assert fit_shape_model(X, selector=48).n_components == 4  # rank-clamped
        with pytest.raises(ShapeModelError, match="threshold"):
            fit_shape_model(X, selector=2.0)  # floats are thresholds, not counts

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ShapeModelError, match="at least 2"):
            fit_shape_model([np.zeros(CONFIG_DIM)])
        same = np.ones((5, CONFIG_DIM))
        with pytest.raises(ShapeModelError, match="identical"):
            fit_shape_model(same)
        with pytest.raises(ShapeModelError, match="selector"):
            fit_shape_model(_planted_spectrum([1.0, 0.5]), selector="auto")
        with pytest.raises(ShapeModelError, match="threshold"):
            fit_shape_model(_planted_spectrum([1.0, 0.5]), selector=1.5)

    def test_sign_convention(self):
        model = fit_shape_model(_planted_spectrum([4.0, 1.0, 0.25]), selector=3)
        for c in range(model.n_components):
            col = model.components[:, c]
            assert col[np.argmax(np.abs(col))] > 0

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((9, CONFIG_DIM))
        model = fit_shape_model(X, selector=8)
        vals, vecs = np.linalg.eigh(np.cov(X, rowvar=False))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        k = model.n_components
        assert np.allclose(model.mode_variances, vals[:k], atol=1e-8)
        # same subspace: projectors agree even where signs differ
        p_fit = model.components @ model.components.T
        p_eig = vecs[:, :k] @ vecs[:, :k].T
        assert np.allclose(p_fit, p_eig, atol=1e-8)


class TestProjectReconstruct:
    def test_orthonormal_and_lossless_at_full_rank(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, CONFIG_DIM)) * 3.0
        model = fit_shape_model(X, selector=CONFIG_DIM)
        assert model.n_components == CONFIG_DIM
        wtw = model.components.T @ model.components
        assert np.max(np.abs(wtw - np.eye(CONFIG_DIM))) < 1e-9
        for x in X[:10]:
            err = np.max(np.abs(reconstruct(model, project(model, x)) - x))
            assert err < 1e-9

    def test_truncated_residual_orthogonal(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, CONFIG_DIM))
        model = fit_shape_model(X, selector=5)
        x = X[0]
        residual = x - reconstruct(model, project(model, x))
        assert np.max(np.abs(model.components.T @ residual)) < 1e-9

    def test_projection_is_least_squares(self):
        X = _planted_spectrum([9.0, 0.9, 0.09, 0.009])
        model = fit_shape_model(X, selector=4)
        rng = np.random.default_rng(21)
        x = rng.standard_normal(CONFIG_DIM) * 2.0
        b_star = project(model, x)
        best = np.linalg.norm(x - reconstruct(model, b_star))
        for _ in range(1000):
            b = b_star + rng.standard_normal(4)
            assert np.linalg.norm(x - reconstruct(model, b)) >= best - 1e-12

    def test_shape_checks(self):
        model = fit_shape_model(_planted_spectrum([1.0, 0.5]), selector=2)
        with pytest.raises(ShapeModelError, match="length"):
            reconstruct(model, np.zeros(3))
        with pytest.raises(ShapeModelError, match="48"):
            project(model, np.zeros(47))
        with pytest.raises(ShapeModelError, match="finite"):
            project(model, np.full(CONFIG_DIM, np.nan))


class TestIterateFit:
    @pytest.fixture()
    def model(self):
        return fit_shape_model(_planted_spectrum([9.0, 0.9, 0.09, 0.009]),
                               selector=4)

    def test_oracle_converges_in_one_step(self, model):
        target_b = np.array([2.0, -1.0, 0.5, 0.25])
        target = reconstruct(model, target_b)
        traj = iterate_fit(model, OraclePredictor(model, target), steps=3)
        assert len(traj) == 4
        _, m0 = landmark_error(traj[0][1], target)
        assert m0 > 0
        for b, x in traj[1:]:
            assert np.allclose(b, target_b, atol=1e-12)
            assert landmark_error(x, target)[1] < 1e-12

    def test_zero_confidence_is_fixed_point(self, model):
        b0 = np.array([1.0, 2.0, 3.0, 4.0])
        traj = iterate_fit(model, ZeroPredictor(), b0=b0, steps=5)
        for b, _ in traj:
            assert np.array_equal(b, b0)

    def test_partial_confidence_geometric_progress(self, model):
        target = reconstruct(model, np.array([4.0, 0.0, 0.0, 0.0]))
        pred = OraclePredictor(model, target, confidence=0.5)
        traj = iterate_fit(model, pred, steps=6)
        errs = [landmark_error(x, target)[1] for _, x in traj]
        ratios = [errs[t + 1] / errs[t] for t in range(5)]
        assert np.allclose(ratios, 0.5, atol=1e-9)

    def test_landmark_space_displacement_mapped(self, model):
        # a 48-vector displacement is mapped through the components
        target_b = np.array([1.0, 1.0, 0.0, 0.0])
        target = reconstruct(model, target_b)

        def predictor(b, x, t):
            return DisplacementPrediction(target - x, 1.0)

        traj = iterate_fit(model, predictor, steps=1)
        assert np.allclose(traj[1][0], target_b, atol=1e-9)

    def test_noisy_oracle_reduces_error(self, model):
        target = reconstruct(model, np.array([3.0, -2.0, 1.0, 0.5]))
        improved = 0
        for seed in range(20):
            pred = NoisyOraclePredictor(model, target, sigma=0.2, seed=seed)
            traj = iterate_fit(model, pred, steps=10)
            if (landmark_error(traj[10][1], target)[1]
                    < landmark_error(traj[0][1], target)[1]):
                improved += 1
        assert improved >= 19

    def test_bad_predictor_output_rejected(self, model):
        def predictor(b, x, t):
            return DisplacementPrediction(np.zeros(7), 1.0)

        with pytest.raises(ShapeModelError, match="displacement"):
            iterate_fit(model, predictor, steps=1)


class TestSampler:
    def test_sigma_from_radius(self):
        assert CHI3_Q95 == 2.7954834829151074
        assert derive_sigma(CHI3_Q95) == 1.0
        assert derive_sigma(5.0) == pytest.approx(2 * derive_sigma(2.5), abs=0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ShapeModelError):
                derive_sigma(bad)
            with pytest.raises(ShapeModelError):
                sample_patch_centers((0.0, 0.0, 0.0), r=bad, n=3, seed=1)
        for bad in ((float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0)):
            with pytest.raises(ShapeModelError, match="finite"):
                sample_patch_centers(bad, r=1.0, n=3, seed=1)

    def test_in_radius_mass_near_95_percent(self):
        r = 4.0
        rng = np.random.default_rng(0)
        draws = rng.normal(0.0, derive_sigma(r), size=(200_000, 3))
        frac = float((np.linalg.norm(draws, axis=1) <= r).mean())
        assert abs(frac - 0.95) < 0.005

    def test_deterministic_patches(self):
        a = sample_patch_centers((1.0, 2.0, 3.0), r=4.0, n=50, seed=9,
                                 landmark_id=10)
        b = sample_patch_centers((1.0, 2.0, 3.0), r=4.0, n=50, seed=9,
                                 landmark_id=10)
        assert [p.center for p in a] == [p.center for p in b]
        assert all(p.side == PATCH_SIDE == 16 for p in a)
        assert all(p.landmark_id == 10 for p in a)
        c = sample_patch_centers((1.0, 2.0, 3.0), r=4.0, n=50, seed=10)
        assert [p.center for p in c] != [p.center for p in a]
        with pytest.raises(ShapeModelError):
            sample_patch_centers((0, 0, 0), r=1.0, n=0, seed=1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = fit_shape_model(_planted_spectrum([4.0, 1.0, 0.25]), selector=3)
        p = tmp_path / "model.json"
        save_model(model, p)
        back = load_model(p)
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.mode_variances, model.mode_variances)
        assert back.variance_fraction_retained == model.variance_fraction_retained

    def test_inconsistent_file_rejected(self, tmp_path):
        model = fit_shape_model(_planted_spectrum([4.0, 1.0]), selector=2)
        p = tmp_path / "model.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["components_row_major"] = doc["components_row_major"][:10]
        p.write_text(json.dumps(doc))
        with pytest.raises(ShapeModelError, match="component shape"):
            load_model(p)


    @pytest.mark.parametrize("edit, reason", [
        (lambda doc: {}, "not a shape model.*KeyError"),
        (lambda doc: [1, 2], "not a shape model"),
        (lambda doc: dict(doc, mode_variances="big"), "not a shape model"),
        (lambda doc: dict(doc, components_row_major=doc["components_row_major"][0]),
         "component shape"),
        (lambda doc: dict(doc, mean=doc["mean"][:-1]), "component shape"),
        (lambda doc: dict(doc, mode_variances=[float("nan")] * 2), "non-finite"),
        (lambda doc: dict(doc, variance_fraction_retained=float("inf")), "non-finite"),
    ], ids=["empty", "list", "string", "1d-components", "short-mean", "nan", "inf"])
    def test_malformed_file_rejected(self, tmp_path, edit, reason):
        model = fit_shape_model(_planted_spectrum([4.0, 1.0]), selector=2)
        p = tmp_path / "model.json"
        save_model(model, p)
        p.write_text(json.dumps(edit(json.loads(p.read_text()))))
        with pytest.raises(ShapeModelError, match=reason):
            load_model(p)

    def test_deeply_nested_file_rejected(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text("[" * 100_000)
        with pytest.raises(ShapeModelError, match="nested too deeply"):
            load_model(p)


def test_config_landmark_round_trip(phantom0):
    _, lms = phantom0
    x = config_from_landmarks(lms)
    assert x.shape == (CONFIG_DIM,)
    back = landmarks_from_config(x)
    for lid in lms.ids:
        assert np.array_equal(back[lid], lms[lid])
    with pytest.raises(ShapeModelError):
        landmarks_from_config(np.zeros(47))
