"""PCA landmark shape space with confidence-weighted iterative fitting.

A landmark configuration is the 48-vector of the 16 catalog landmarks'
(x, y, z) world coordinates, concatenated in id order.  The linear
model X = mean + W b spans training variation with orthonormal modes W;
b are the low-dimensional shape parameters.  Iterative fitting applies
b <- b + P * d for predictor-supplied displacements d and per-dimension
confidences P in [0, 1], reconstructing landmarks after every step.

Displacement predictors are plain callables; the bundled ones (exact
oracle, noisy oracle, zero) stand in for learned localizers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .labels import LandmarkSet, N_LANDMARKS
from .nifti import open_atomic

CONFIG_DIM = 3 * N_LANDMARKS

# 95th percentile of the norm of a standard isotropic 3D Gaussian,
# float(scipy.stats.chi.ppf(0.95, 3)); a literal so that importing the
# package does not load scipy.stats (the acceptance tests recompute it)
CHI3_Q95 = 2.7954834829151074

PATCH_SIDE = 16


class ShapeModelError(Exception):
    pass


def config_from_landmarks(lms: LandmarkSet) -> np.ndarray:
    """Flatten a complete landmark set to the 48-vector, id order."""
    return lms.as_array().reshape(-1)


def landmarks_from_config(x: np.ndarray) -> LandmarkSet:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (CONFIG_DIM,):
        raise ShapeModelError(f"expected length-{CONFIG_DIM} configuration")
    return LandmarkSet.from_array(x.reshape(N_LANDMARKS, 3))


def _check_config(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (CONFIG_DIM,):
        raise ShapeModelError(
            f"configuration must have length {CONFIG_DIM}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ShapeModelError("configuration has non-finite entries")
    return x


@dataclass(frozen=True)
class ShapeModel:
    mean: np.ndarray              # (48,)
    components: np.ndarray        # (48, n_b), orthonormal columns
    mode_variances: np.ndarray    # (n_b,), non-increasing
    variance_fraction_retained: float

    def __post_init__(self):
        for name in ("mean", "components", "mode_variances"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class DisplacementPrediction:
    """Predictor output: displacement d and confidence P (clamped to [0,1]).

    d may live in shape-parameter space (length n_b) or landmark space
    (length 48, mapped through the model's components).
    """

    d: np.ndarray
    confidence: np.ndarray | float = 1.0


@dataclass(frozen=True)
class PatchSpec:
    center: tuple[float, float, float]
    side: int = PATCH_SIDE
    landmark_id: int | None = None


def fit_shape_model(configs, selector: int | float = 0.995) -> ShapeModel:
    """PCA of landmark configurations.

    ``selector``: an int fixes the number of modes n_b (clamped to the
    data's rank); a float in (0, 1] is a variance threshold, keeping the
    smallest n_b whose cumulative variance fraction reaches it.  The
    covariance uses the N-1 divisor; each mode's largest-magnitude entry
    is made positive so fits are reproducible across runs.
    """
    X = np.array([_check_config(c) for c in configs], dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ShapeModelError(f"need at least 2 configurations, got {n}")
    mean = X.mean(axis=0)
    centered = X - mean
    # SVD route: eigenvalues of the covariance are s^2/(N-1)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = (s * s) / (n - 1)
    total = float(variances.sum())
    if total <= 0.0:
        raise ShapeModelError("configurations are all identical (zero variance)")
    rank = int(np.sum(variances > total * 1e-12))

    if isinstance(selector, (bool,)) or not isinstance(selector, (int, float, np.integer, np.floating)):
        raise ShapeModelError(f"selector must be int or float, got {selector!r}")
    if isinstance(selector, (int, np.integer)):
        if selector < 1:
            raise ShapeModelError("fixed mode count must be >= 1")
        n_b = min(int(selector), rank)
    else:
        tau = float(selector)
        if not 0.0 < tau <= 1.0:
            raise ShapeModelError("variance threshold must be in (0, 1]")
        frac = np.cumsum(variances) / total
        n_b = int(np.searchsorted(frac, tau - 1e-12) + 1)
        n_b = min(n_b, rank)

    W = vt[:n_b].T.copy()
    # deterministic sign: largest-|entry| of each column positive
    for c in range(n_b):
        col = W[:, c]
        peak = np.argmax(np.abs(col))
        if col[peak] < 0:
            W[:, c] = -col
    return ShapeModel(
        mean=mean,
        components=W,
        mode_variances=variances[:n_b].copy(),
        variance_fraction_retained=float(variances[:n_b].sum() / total),
    )


def reconstruct(model: ShapeModel, b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (model.n_components,):
        raise ShapeModelError(
            f"b must have length {model.n_components}, got shape {b.shape}")
    return model.mean + model.components @ b


def project(model: ShapeModel, x) -> np.ndarray:
    """Least-squares shape parameters of a configuration: Wt (X - mean)."""
    x = _check_config(x)
    return model.components.T @ (x - model.mean)


def iterate_fit(model: ShapeModel, predictor, b0=None, steps: int = 10):
    """Run the confidence-weighted update b <- b + P * d for `steps` steps.

    ``predictor(b_t, X_t, t)`` returns a DisplacementPrediction.  The
    returned trajectory holds (b_t, X_t) for t = 0..steps, X_t always
    the reconstruction of b_t.
    """
    if steps < 0:
        raise ShapeModelError("steps must be >= 0")
    b = (np.zeros(model.n_components) if b0 is None
         else np.asarray(b0, dtype=np.float64).copy())
    if b.shape != (model.n_components,):
        raise ShapeModelError(f"b0 must have length {model.n_components}")
    trajectory = [(b.copy(), reconstruct(model, b))]
    for t in range(steps):
        pred = predictor(b.copy(), trajectory[-1][1].copy(), t)
        d = np.asarray(pred.d, dtype=np.float64)
        if d.shape == (CONFIG_DIM,):
            d = model.components.T @ d
        elif d.shape != (model.n_components,):
            raise ShapeModelError(
                f"predictor returned displacement of shape {d.shape}; expected "
                f"({model.n_components},) or ({CONFIG_DIM},)")
        conf = np.clip(np.asarray(pred.confidence, dtype=np.float64), 0.0, 1.0)
        if conf.ndim == 0:
            conf = np.full(model.n_components, float(conf))
        elif conf.shape != (model.n_components,):
            raise ShapeModelError(
                f"confidence shape {conf.shape} does not match n_b")
        b = b + conf * d
        trajectory.append((b.copy(), reconstruct(model, b)))
    return trajectory


@dataclass
class OraclePredictor:
    """Exact displacement toward a target configuration."""

    model: ShapeModel
    target: np.ndarray
    confidence: float = 1.0
    _target_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._target_b = project(self.model, _check_config(self.target))

    def __call__(self, b, x, t) -> DisplacementPrediction:
        return DisplacementPrediction(self._target_b - b, self.confidence)


@dataclass
class NoisyOraclePredictor:
    """Oracle displacement plus zero-mean Gaussian noise."""

    model: ShapeModel
    target: np.ndarray
    sigma: float
    seed: int = 0
    confidence: float = 0.5
    _target_b: np.ndarray = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._target_b = project(self.model, _check_config(self.target))
        self._rng = np.random.default_rng(self.seed)

    def __call__(self, b, x, t) -> DisplacementPrediction:
        noise = self._rng.normal(0.0, self.sigma, b.shape)
        return DisplacementPrediction(self._target_b - b + noise, self.confidence)


class ZeroPredictor:
    """No displacement, no confidence: a guaranteed fixed point."""

    def __call__(self, b, x, t) -> DisplacementPrediction:
        return DisplacementPrediction(np.zeros_like(b), 0.0)


def derive_sigma(r: float) -> float:
    """Gaussian scale whose 3D norm stays within r for 95% of draws."""
    if not 0 <= r < np.inf:  # NaN fails too
        raise ShapeModelError(f"radius must be finite and non-negative, got {r}")
    return float(r) / CHI3_Q95


def sample_patch_centers(p, r: float, n: int, seed: int,
                         landmark_id: int | None = None) -> list[PatchSpec]:
    """Draw n patch centers around p, isotropic Gaussian of derive_sigma(r)."""
    if n < 1:
        raise ShapeModelError(f"need n >= 1, got {n}")
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,):
        raise ShapeModelError("center must be a 3-vector")
    if not np.all(np.isfinite(p)):
        raise ShapeModelError(f"center must be finite, got {p.tolist()}")
    sigma = derive_sigma(r)
    rng = np.random.default_rng(seed)
    deltas = rng.normal(0.0, sigma, size=(n, 3))
    return [
        PatchSpec(center=tuple(float(v) for v in p + d), landmark_id=landmark_id)
        for d in deltas
    ]


def landmark_error(x_pred, x_gt) -> tuple[np.ndarray, float]:
    """Per-landmark Euclidean errors (mm) and their mean."""
    a = _check_config(x_pred).reshape(N_LANDMARKS, 3)
    b = _check_config(x_gt).reshape(N_LANDMARKS, 3)
    errors = np.linalg.norm(a - b, axis=1)
    return errors, float(errors.mean())


def save_model(model: ShapeModel, path: str | Path) -> None:
    doc = {
        "landmark_order": "catalog ids 1..16, xyz interleaved",
        "n_components": model.n_components,
        "mean": model.mean.tolist(),
        "components_row_major": model.components.tolist(),
        "mode_variances": model.mode_variances.tolist(),
        "variance_fraction_retained": model.variance_fraction_retained,
    }
    with open_atomic(path) as f:
        f.write((json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def load_model(path: str | Path) -> ShapeModel:
    """Read a model written by ``save_model``; ShapeModelError when the
    file does not hold one."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            doc = json.load(f)
        except RecursionError:  # nesting deeper than the parser's stack
            raise ShapeModelError(f"{path}: model JSON is nested too deeply") from None
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise ShapeModelError(f"{path}: not a UTF-8 JSON file: {exc}") from None
    keys = ("mean", "components_row_major", "mode_variances", "variance_fraction_retained")
    try:
        mean, components, variances, fraction = (np.array(doc[k], dtype=np.float64)
                                                 for k in keys)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeModelError(f"{path}: not a shape model, an object of numeric "
                              f"{', '.join(keys)} ({type(exc).__name__}: {exc})") from None
    if components.ndim != 2 or components.shape[0] != CONFIG_DIM or fraction.ndim \
            or mean.shape != (CONFIG_DIM,) or variances.shape != components.shape[1:]:
        raise ShapeModelError(f"{path}: model file has inconsistent component shape")
    if not all(np.isfinite(v).all() for v in (mean, components, variances, fraction)):
        raise ShapeModelError(f"{path}: model file has non-finite numbers")
    return ShapeModel(mean, components, variances, float(fraction))
