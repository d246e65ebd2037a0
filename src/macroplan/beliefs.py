"""Gaussian belief propagation and local belief-space feedback controllers.

A local macro-action (LMA) pairs a stationary Kalman filter with a linear
feedback law ``u = -L (mean - target)``.  Under a stabilizing gain the closed
loop contracts a neighborhood of beliefs onto an attractor belief whose
covariance is the Riccati fixed point of the filter, so the controller acts
as a funnel in belief space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from .errors import NonConvergent, Unstabilizable, check_field_types


@dataclass(frozen=True)
class StepCost:
    """Per-step reward ``-(base + u_weight * ||u||^2)``, paid by ``lma_step``.

    Kept as a small structure instead of a bare callable so models can be
    read from config files.  Both weights are finite and non-negative: a
    step that pays a reward would let a graph DP cycle for ever.
    """

    base: float = 0.0
    u_weight: float = 0.0

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.base < 0 or self.u_weight < 0:
            raise ValueError(f"step cost weights must be non-negative, not "
                             f"base={self.base!r}, u_weight={self.u_weight!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "StepCost":
        return cls(base=d["base"], u_weight=d["u_weight"])


class Constraints:
    """State-constraint predicate; ``violates(x) == True`` means failure.
    ``x`` is a state as an ndarray or, in ``run_lma`` and graph walks, a
    list of floats."""

    def violates(self, x: Sequence[float]) -> bool:  # pragma: no cover
        raise NotImplementedError

    @staticmethod
    def from_dict(d: dict) -> "Constraints":
        kind = d["kind"]
        reads = {"none": {"kind"}, "rects": {"kind", "rects"}}
        if kind not in reads:
            raise ValueError(f"unknown constraints kind {kind!r}")
        extra = sorted(set(d) - reads[kind], key=str)
        if extra:
            raise ValueError(f"constraints of kind {kind!r} read no key "
                             f"{extra[0]!r}")
        if kind == "none":
            return NoConstraints()
        return RectConstraints(rects=d["rects"])


class NoConstraints(Constraints):
    def violates(self, x: Sequence[float]) -> bool:
        return False


class RectConstraints(Constraints):
    """Union of axis-aligned forbidden rectangles ``(lo, hi)`` over the
    leading two state dimensions; each is finite with ``lo < hi``."""

    def __init__(self, rects: Sequence[tuple] = ()):
        try:
            self.rects = [((float(x0), float(y0)), (float(x1), float(y1)))
                          for (x0, y0), (x1, y1) in rects]
        except (TypeError, ValueError):
            raise ValueError(f"constraints rects must be [[x0, y0], [x1, y1]] "
                             f"corner pairs, not {rects!r}") from None
        for (x0, y0), (x1, y1) in self.rects:
            if not (-math.inf < x0 < x1 < math.inf
                    and -math.inf < y0 < y1 < math.inf):
                raise ValueError(f"constraints rectangle {[[x0, y0], [x1, y1]]}"
                                 f" must be finite with lo < hi")

    def violates(self, x: Sequence[float]) -> bool:
        px, py = x[0], x[1]
        for (lo, hi) in self.rects:
            if lo[0] <= px <= hi[0] and lo[1] <= py <= hi[1]:
                return True
        return False


class PredicateConstraints(Constraints):
    """Arbitrary predicate of a state ndarray, for in-process use; no config
    names it."""

    def __init__(self, fn: Callable[[np.ndarray], bool]):
        self.fn = fn

    def violates(self, x: Sequence[float]) -> bool:
        return bool(self.fn(np.asarray(x, dtype=float)))


# Most covariances one model's filter path stores.  A stable filter reaches
# its fixed point within a few dozen steps of any start covariance, so the
# bound only stops growth under an endless stream of distinct starts.
FILTER_PATH_MAX = 4096

# Relative slack of the cheap ball and disk tests that decide before an
# exact membership test: far above the last-bit differences between two
# ways of computing one distance, so a cheap test that says "surely
# outside" (or "surely inside") never contradicts the exact test.
BALL_SLACK = 1e-9

# The belief metric: W_MEAN times the Euclidean distance between means plus
# W_COV times the Frobenius distance between covariances.  A milestone is
# the ball of beliefs within its epsilon of its center under this metric.
W_MEAN = 1.0
W_COV = 0.1


def _check_symmetric(m: np.ndarray, name: str, tol: float = 1e-9) -> None:
    if not np.allclose(m, m.T, atol=tol):
        raise ValueError(f"{name} must be symmetric")


def _diagonal(M: np.ndarray) -> Optional[Tuple[float, ...]]:
    """The diagonal of ``M`` as floats when ``M`` is square and every entry
    off it is zero, else None: the test that lets ``lma_step`` run each
    axis on its own."""
    if (M.ndim == 2 and M.shape[0] == M.shape[1]
            and np.count_nonzero(M) == np.count_nonzero(M.diagonal())):
        return tuple(M.diagonal().tolist())
    return None


@dataclass
class LinearGaussianModel:
    """Discrete-time linear-Gaussian dynamics and observation model.

    x' = A x + G u + w,  w ~ N(0, Q)
    z  = C x + v,        v ~ N(0, R_obs)
    """

    A: np.ndarray
    G: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R_obs: np.ndarray
    step_cost: StepCost = field(default_factory=StepCost)
    constraints: Constraints = field(default_factory=NoConstraints)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R_obs = np.atleast_2d(np.asarray(self.R_obs, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.G.shape[0] != n:
            raise ValueError("G row count must match state dim")
        if self.C.shape[1] != n:
            raise ValueError("C column count must match state dim")
        if self.Q.shape != (n, n):
            raise ValueError("Q must be state_dim x state_dim")
        m = self.C.shape[0]
        if self.R_obs.shape != (m, m):
            raise ValueError("R_obs must be obs_dim x obs_dim")
        _check_symmetric(self.Q, "Q")
        _check_symmetric(self.R_obs, "R_obs")
        if np.min(np.linalg.eigvalsh(self.Q)) < -1e-10:
            raise ValueError("Q must be PSD")
        if np.min(np.linalg.eigvalsh(self.R_obs)) <= 0:
            raise ValueError("R_obs must be PD")
        # refused even with no rectangle listed: violates reads x[0] and
        # x[1] of every state
        if isinstance(self.constraints, RectConstraints) and n < 2:
            raise ValueError(f"constraints rects span the first 2 state "
                             f"dimensions; this state has {n}")
        # state dimension, noise draw length and noise square roots,
        # computed once per model
        self._n = n
        self._n_noise = n + m
        self._sq = _psd_sqrt(self.Q)
        self._sr = _psd_sqrt(self.R_obs)
        # when A, G, C and both noise roots are square and diagonal, the
        # (a, g, c, q, r) diagonal entries of each axis, else None
        diagonals = [_diagonal(M) for M in (self.A, self.G, self.C, self._sq,
                                            self._sr)]
        self._axes: Optional[Tuple[Tuple[float, ...], ...]] = (
            None if None in diagonals else tuple(zip(*diagonals)))
        # posterior covariance bytes -> (Kalman gain, next posterior
        # covariance, the gain's _diagonal, the next covariance's bytes, how
        # far the step moves a ball's radius in the mean); see _filter_update
        self._filter_path: Dict[bytes, Tuple[
            np.ndarray, np.ndarray, Optional[Tuple[float, ...]], bytes,
            float]] = {}
        # (state weight, control weight) -> LQR gain, and the filter's
        # stationary covariance; see design_lma
        self._lqr_gains: Dict[Tuple[float, float], np.ndarray] = {}
        self._stationary_cov: Optional[np.ndarray] = None

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def control_dim(self) -> int:
        return self.G.shape[1]

    def _predict(self, cov: np.ndarray) -> np.ndarray:
        """Prior covariance one step after posterior ``cov``."""
        return self.A @ cov @ self.A.T + self.Q

    def _update(self, prior: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Kalman gain and posterior covariance after measuring at prior
        covariance ``prior``; the Joseph form keeps the covariance PSD, and
        it is returned unsymmetrized."""
        C = self.C
        S = C @ prior @ C.T + self.R_obs
        K = np.linalg.solve(S.T, (prior @ C.T).T).T
        ikc = np.eye(self._n) - K @ C
        return K, ikc @ prior @ ikc.T + K @ self.R_obs @ K.T

    def _filter_update(self, cov: np.ndarray, key: Optional[bytes] = None
                       ) -> Tuple[np.ndarray, np.ndarray,
                                  Optional[Tuple[float, ...]], bytes, float]:
        """Kalman gain, posterior covariance one predict/update step after
        posterior ``cov``, the gain's ``_diagonal``, the bytes of that next
        covariance, and the step's drift: the covariance change under the
        belief metric, ``W_COV * ||next - cov||_F / W_MEAN``, raised by
        ``BALL_SLACK`` of itself.  By the triangle inequality no ball's
        covariance term, and so no radius of ``BallIndex._cov_terms``, moves
        by more than the drift; the raise covers the rounding of the norm
        and of summing drifts over steps.  At the filter's fixed point the
        drift is 0.  ``key`` is ``cov.tobytes()``, taken here when the
        caller passes None; a walk passes the bytes the step before
        returned, so no step hashes a covariance.  None of the five depends
        on the data, so each distinct ``cov`` is solved once per model; the
        arrays returned are shared and read-only."""
        if key is None:
            key = cov.tobytes()
        hit = self._filter_path.get(key)
        if hit is None:
            K, nxt = self._update(self._predict(cov))
            nxt = 0.5 * (nxt + nxt.T)
            K.setflags(write=False)
            nxt.setflags(write=False)
            drift = (1 + BALL_SLACK) * W_COV * float(
                np.linalg.norm(nxt - cov)) / W_MEAN
            hit = (K, nxt, _diagonal(K), nxt.tobytes(), drift)
            if len(self._filter_path) < FILTER_PATH_MAX:
                self._filter_path[key] = hit
        return hit

    @classmethod
    def from_dict(cls, d: dict) -> "LinearGaussianModel":
        return cls(
            A=np.array(d["A"]), G=np.array(d["G"]), C=np.array(d["C"]),
            Q=np.array(d["Q"]), R_obs=np.array(d["R_obs"]),
            step_cost=StepCost.from_dict(d["step_cost"]),
            constraints=Constraints.from_dict(d["constraints"]),
        )


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w)) @ v.T


@dataclass(frozen=True)
class GaussianBelief:
    """Mean/covariance pair over one agent's state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).ravel())
        object.__setattr__(self, "cov", np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise ValueError("belief entries must be finite")
        _check_symmetric(self.cov, "cov", tol=1e-8)
        floor = -1e-12 * max(1.0, np.abs(self.cov).max())
        if np.linalg.eigvalsh(self.cov)[0] < floor:
            raise ValueError(f"cov must be positive semi-definite, not "
                             f"{self.cov.tolist()}")

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianBelief":
        """Validation-free constructor for hot simulation loops whose inputs
        are already float arrays with symmetrized covariances; it fills the
        instance dict, which a frozen dataclass leaves writable."""
        b = object.__new__(cls)
        fields = b.__dict__
        fields["mean"] = mean
        fields["cov"] = cov
        return b


@dataclass(frozen=True)
class Lma:
    """Local macro-action, a funnel: a feedback gain and the attractor
    belief it contracts onto; its control at belief mean ``m`` is
    ``-gain (m - attractor.mean)``."""

    gain: np.ndarray   # control x state feedback gain
    attractor: GaussianBelief
    # -gain, negated once: ``-gain @ v`` is ``(-gain) @ v``
    _neg_gain: np.ndarray = field(init=False, repr=False, compare=False)
    # when the gain is square, diagonal and as long as the attractor mean,
    # the (-gain, attractor mean) entries of each axis, else None
    _axes: Optional[Tuple[Tuple[float, float], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "_neg_gain", -gain)
        d = _diagonal(self._neg_gain)
        target = self.attractor.mean.tolist()
        axes = (tuple(zip(d, target))
                if d is not None and len(d) == len(target) else None)
        object.__setattr__(self, "_axes", axes)


def _state_array(values: List[float]) -> np.ndarray:
    """A read-only array of a ``SimState``'s floats: what a read of its
    ``truth`` or ``belief`` builds."""
    a = np.array(values)
    a.setflags(write=False)
    return a


class SimState:
    """Single-owner rollout state: ground truth plus the filtered belief.

    The state is the truth ``x`` and the belief mean ``mean``, each a list
    of floats, the belief covariance ``cov``, and ``cov_key``, the bytes of
    ``cov``, which key the filter path and the ball caches.  ``lma_step``
    and graph walks read and write these.  Reading ``truth`` or ``belief``
    builds read-only arrays of the floats; writing either replaces the
    floats, so the floats are the one copy of the state."""

    __slots__ = ("x", "mean", "cov", "cov_key", "accrued_reward")

    def __init__(self, truth: np.ndarray, belief: GaussianBelief,
                 accrued_reward: float = 0.0):
        self.truth = truth
        self.belief = belief
        self.accrued_reward = accrued_reward

    @classmethod
    def of_floats(cls, x: List[float], mean: List[float], cov: np.ndarray,
                  cov_key: bytes) -> "SimState":
        """The state with truth ``x`` and mean ``mean``, taken as they are,
        covariance ``cov`` of bytes ``cov_key``, and no reward accrued: no
        array is built and no covariance hashed."""
        sim = object.__new__(cls)
        sim.x, sim.mean, sim.cov, sim.cov_key = x, mean, cov, cov_key
        sim.accrued_reward = 0.0
        return sim

    @property
    def truth(self) -> np.ndarray:
        return _state_array(self.x)

    @truth.setter
    def truth(self, truth: np.ndarray) -> None:
        self.x = np.asarray(truth, dtype=float).ravel().tolist()

    @property
    def belief(self) -> GaussianBelief:
        return GaussianBelief._trusted(_state_array(self.mean), self.cov)

    @belief.setter
    def belief(self, belief: GaussianBelief) -> None:
        self.mean = belief.mean.tolist()
        self.cov = belief.cov
        self.cov_key = belief.cov.tobytes()


@dataclass(frozen=True)
class GainSpec:
    """Gain design family: discrete LQR weights, or an explicit fixed gain."""

    kind: str = "lqr"                       # "lqr" | "fixed"
    state_weight: float = 1.0
    control_weight: float = 1.0
    fixed_gain: Optional[np.ndarray] = None

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.kind not in ("lqr", "fixed"):
            raise ValueError(f"unknown gain spec kind {self.kind!r}")
        if self.kind == "fixed" and self.fixed_gain is None:
            raise ValueError("fixed gain spec requires fixed_gain")
        if self.kind == "lqr" and self.fixed_gain is not None:
            raise ValueError("lqr gain spec takes no fixed_gain; set it to "
                             "null")
        if self.state_weight < 0 or self.control_weight < 0:
            raise ValueError(
                f"gain weights must be non-negative, not state_weight="
                f"{self.state_weight!r}, control_weight={self.control_weight!r}")
        if self.kind == "lqr" and self.control_weight == 0:
            raise ValueError("an lqr gain needs a positive control_weight, "
                             "not 0")

    @classmethod
    def from_dict(cls, d: dict) -> "GainSpec":
        fg = d.get("fixed_gain")
        return cls(kind=d["kind"], state_weight=d["state_weight"],
                   control_weight=d["control_weight"],
                   fixed_gain=None if fg is None else np.array(fg))


# Most doublings of _dare.  Each doubling squares the decay of the closed
# loop, so a loop of spectral radius 1 - 1e-6 settles in about 25; a mode no
# gain stabilizes grows H (or A) without bound, which overflows or meets
# this cap.
DARE_MAX_DOUBLINGS = 64


def _dare(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
          R: np.ndarray) -> np.ndarray:
    """Stabilizing solution X of the discrete algebraic Riccati equation
    ``X = Q + A'XA - A'XB (R + B'XB)^-1 B'XA`` for PSD ``Q`` and PD ``R``,
    by the structure-preserving doubling algorithm: from ``G = B R^-1 B'``
    and ``H = Q``, each doubling sets ``W = I + GH`` and
    ``A <- A W^-1 A``, ``G <- G + A W^-1 G A'``, ``H <- H + A'H W^-1 A``,
    and H converges quadratically to X.  Diagonal inputs keep every
    iterate exactly diagonal.

    It stops once a doubling moves H by at most 4 ulps of max|H|.  Raises
    NonConvergent when H stops being finite, W is singular, or
    ``DARE_MAX_DOUBLINGS`` doublings do not settle H; callers name the
    equation."""
    n = A.shape[0]
    H = Q
    tol = 4 * np.finfo(float).eps
    # a diverging H overflows, and so may G on a huge B; that is caught
    # below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        G = B @ np.linalg.solve(R, B.T)
        for _ in range(DARE_MAX_DOUBLINGS):
            try:
                V = np.linalg.solve(np.eye(n) + G @ H, np.hstack([A, G]))
            except np.linalg.LinAlgError as e:
                raise NonConvergent(f"a doubling was singular: {e}") from e
            WA, WG = V[:, :n], V[:, n:]
            G_next = G + A @ WG @ A.T
            H_next = H + A.T @ H @ WA
            A = A @ WA
            G = 0.5 * (G_next + G_next.T)
            H_next = 0.5 * (H_next + H_next.T)
            scale = np.abs(H_next).max()
            if not math.isfinite(scale):
                raise NonConvergent("the doubling diverged")
            step = np.abs(H_next - H).max()
            H = H_next
            if step <= tol * scale:
                return H
    raise NonConvergent(f"the doubling did not settle in "
                        f"{DARE_MAX_DOUBLINGS} doublings")


def stationary_covariance(model: LinearGaussianModel) -> np.ndarray:
    """Posterior covariance fixed point of the Kalman filter: the measurement
    update of the prior covariance that solves the filter Riccati equation,
    the control one for (A', C', Q, R_obs) (Kalman duality), by ``_dare``.

    Raises NonConvergent when ``_dare`` fails, as it does on a mode that is
    neither observed nor stable."""
    try:
        prior = _dare(model.A.T, model.C.T, model.Q, model.R_obs)
    except NonConvergent as e:
        raise NonConvergent(f"the filter Riccati equation has no stationary "
                            f"solution: {e}") from None
    P = model._update(prior)[1]
    return 0.5 * (P + P.T)


def design_lma(model: LinearGaussianModel, target: np.ndarray,
               gain_spec: GainSpec = GainSpec()) -> Lma:
    """Design a funnel controller toward ``target``.

    An LQR gain ``(R + G'XG)^-1 G'XA`` comes from the solution X of the
    control Riccati equation for the weights, by ``_dare``.  It does not
    depend on the target, so it is designed once per model and weights,
    and the attractor covariance, the filter's stationary covariance, once
    per model; both arrays are shared and read-only.

    Raises Unstabilizable ("LQR design failed: ...") when ``_dare`` fails,
    or if the closed loop has spectral radius >= 1, and NonConvergent when
    the filter has no stationary covariance.
    """
    target = np.asarray(target, dtype=float).ravel()
    if gain_spec.kind == "fixed":
        L = np.atleast_2d(np.asarray(gain_spec.fixed_gain, dtype=float))
    else:
        weights = (gain_spec.state_weight, gain_spec.control_weight)
        L = model._lqr_gains.get(weights)
        if L is None:
            Qw = weights[0] * np.eye(model.state_dim)
            Rw = weights[1] * np.eye(model.control_dim)
            try:
                X = _dare(model.A, model.G, Qw, Rw)
            except NonConvergent as e:
                raise Unstabilizable(f"LQR design failed: {e}") from None
            L = np.linalg.solve(Rw + model.G.T @ X @ model.G,
                                model.G.T @ X @ model.A)
            L.setflags(write=False)
            model._lqr_gains[weights] = L

    closed = model.A - model.G @ L
    rho = np.max(np.abs(np.linalg.eigvals(closed)))
    if rho >= 1.0:
        raise Unstabilizable(f"closed-loop spectral radius {rho:.4f} >= 1")
    p_post = model._stationary_cov
    if p_post is None:
        p_post = stationary_covariance(model)
        p_post.setflags(write=False)
        model._stationary_cov = p_post
    return Lma(gain=L, attractor=GaussianBelief(mean=target, cov=p_post))


def _axis_step(axes: Tuple[Tuple[float, ...], ...],
               funnel: Tuple[Tuple[float, float], ...],
               k_diag: Tuple[float, ...], truth: Sequence[float],
               mean: Sequence[float], noise: Sequence[float]
               ) -> Tuple[List[float], List[float], List[float]]:
    """One step of the per-axis form: the model's per-axis entries
    ``axes``, the funnel's ``funnel`` and the Kalman gain's diagonal
    ``k_diag``; ``noise`` holds the process noise, then the observation
    noise.  Returns the next truth, the next mean and the control, as float
    lists.  Each axis is a scalar recurrence, with the products in the
    order of the matrix form."""
    n = len(axes)
    next_truth, next_mean, u = [], [], []
    # zip stops after the n process-noise entries of ``noise``
    for (a, g, c, q, r), (nl, t), k, x, m, w, v in zip(
            axes, funnel, k_diag, truth, mean, noise, noise[n:]):
        ui = nl * (m - t)
        gu = g * ui
        x = (a * x + gu) + q * w
        z = c * x + r * v
        mp = a * m + gu
        next_truth.append(x)
        next_mean.append(mp + k * (z - c * mp))
        u.append(ui)
    return next_truth, next_mean, u


def _matrix_step(lma: Lma, model: LinearGaussianModel, K: np.ndarray,
                 truth: np.ndarray, mean: np.ndarray, noise: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the matrix form, with Kalman gain ``K``: ``ndarray.dot``
    for every product.  Returns the next truth, the next mean and the
    control."""
    n = model._n
    u = lma._neg_gain.dot(mean - lma.attractor.mean)
    A, C = model.A, model.C
    gu = model.G.dot(u)
    truth = A.dot(truth) + gu + model._sq.dot(noise[:n])
    z = C.dot(truth) + model._sr.dot(noise[n:])
    # Kalman predict + update (time-varying exact filter)
    mp = A.dot(mean) + gu
    return truth, mp + K.dot(z - C.dot(mp)), u


def _step_cost(cost: StepCost, u: Sequence[float]) -> float:
    """What one step with control ``u`` pays.  At u_weight == 0 the
    product would add +0.0 to base for any finite u, so it is left out;
    BLAS may fuse the multiply-adds of u·u, so both step forms take it by
    one ``ndarray.dot``."""
    if cost.u_weight:
        u = np.asarray(u)
        return cost.base + cost.u_weight * float(u.dot(u))
    return cost.base


def lma_step(lma: Lma, sim: SimState, model: LinearGaussianModel,
             rng: np.random.Generator) -> SimState:
    """Advance truth and belief one step under the LMA; mutates ``sim``.

    The step takes one of two forms.  When the model and the funnel keep
    per-axis entries and the Kalman gain at the current covariance is
    diagonal (see ``_diagonal``), ``_axis_step`` runs each axis as a scalar
    recurrence on the state's floats.  Every other step is ``_matrix_step``,
    on arrays of them.  A row of a diagonal
    matrix has one nonzero term, so both forms give the value of ``@``;
    only the sign of an exact zero can differ, and no reward, comparison or
    distance reads it.  One draw holds the process noise, then the
    observation noise: the same numbers, in the same order, as two separate
    draws."""
    # a filter-path hit is a 5-tuple, never false
    K, cov, k_diag, key, _ = (model._filter_path.get(sim.cov_key)
                              or model._filter_update(sim.cov, sim.cov_key))
    noise = rng.standard_normal(model._n_noise)
    if k_diag is not None and model._axes is not None \
            and lma._axes is not None:
        sim.x, sim.mean, u = _axis_step(model._axes, lma._axes, k_diag,
                                        sim.x, sim.mean, noise.tolist())
    else:
        truth, mean, u = _matrix_step(lma, model, K, np.array(sim.x),
                                      np.array(sim.mean), noise)
        sim.x, sim.mean = truth.tolist(), mean.tolist()
    sim.cov, sim.cov_key = cov, key
    cost = model.step_cost
    sim.accrued_reward -= _step_cost(cost, u) if cost.u_weight else cost.base
    return sim


# Standard normals ``NormalBlocks`` draws from its generator at a time
NORMAL_BLOCK = 1024


class NormalBlocks:
    """The standard normals of one generator, drawn ``NORMAL_BLOCK`` at a
    time and handed out in order, as floats or as an array.

    ``Generator.standard_normal`` concatenates exactly: one draw of j + k
    values gives the values, and leaves the generator in the state, of a
    draw of j and then one of k.  So ``take(k)`` and ``take_array(k)``
    return what ``rng.standard_normal(k)`` would return at this point of
    the stream; only the generator's own end state differs, since it runs
    up to a block ahead of the values taken."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        # the block as an array and as floats, and the next value's place
        self._block = np.empty(0)
        self._floats: List[float] = []
        self._pos = 0

    def take(self, k: int) -> List[float]:
        pos = self._pos
        if pos + k > len(self._floats):
            pos = self._draw(k)
        self._pos = pos + k
        return self._floats[pos:pos + k]

    def take_array(self, k: int) -> np.ndarray:
        pos = self._pos
        if pos + k > len(self._floats):
            pos = self._draw(k)
        self._pos = pos + k
        return self._block[pos:pos + k]

    def _draw(self, k: int) -> int:
        """Follow the values not yet taken with a new draw of at least k;
        returns the place of the first, 0."""
        self._block = np.concatenate([
            self._block[self._pos:],
            self._rng.standard_normal(max(k, NORMAL_BLOCK))])
        self._floats = self._block.tolist()
        return 0


class TerminationRecord(NamedTuple):
    """Result of running an LMA to completion."""

    outcome: str          # "landed" | "failed" | "timeout"
    region_id: Optional[int]
    elapsed_steps: int
    accrued_reward: float

    LANDED = "landed"
    FAILED = "failed"
    TIMEOUT = "timeout"


class BallIndex:
    """Milestone balls under the belief metric, stacked once; ``first_at``
    finds the first of them, in a given order, that holds a belief.

    ``balls`` are items with ``id``, ``center`` (GaussianBelief) and
    ``epsilon`` attributes; positions in the index follow their order."""

    def __init__(self, balls: Sequence):
        self.ids = [ball.id for ball in balls]
        self._means = np.stack([ball.center.mean for ball in balls])
        self._covs = np.stack([ball.center.cov.ravel() for ball in balls])
        self._eps = np.array([ball.epsilon for ball in balls], dtype=float)
        # the means as float tuples, for the cheap test in ``scan_at``
        self._rows = [tuple(m) for m in self._means.tolist()]
        # covariance bytes -> _cov_terms() at that covariance; beliefs
        # follow their models' bounded filter paths, so few covariances occur
        self._cov_cache: Dict[bytes, tuple] = {}

    def _cov_terms(self, cov: np.ndarray, key: Optional[bytes] = None
                   ) -> tuple:
        """The weighted covariance term of every ball's distance at ``cov``,
        each ball's inner and outer radius in the mean, the largest outer
        radius in magnitude, and the covariance terms again as floats;
        ``key`` is ``cov.tobytes()``, taken here when the caller passes
        None.

        A ball holds a belief when ``W_MEAN*dm + dc <= eps``, so its mean
        distance ``dm`` is at most ``(eps - dc)/W_MEAN``.  The inner and
        outer radii move that bound by ``BALL_SLACK`` relative to ``eps``:
        a mean within the inner radius is surely inside, and one beyond the
        outer radius surely outside, whatever the rounding of either
        distance.  The terms are shared, and their array is read-only."""
        if key is None:
            key = cov.tobytes()
        terms = self._cov_cache.get(key)
        if terms is None:
            dc = W_COV * np.linalg.norm(self._covs - cov.ravel(), axis=1)
            dc.setflags(write=False)
            inner = (((1 - BALL_SLACK) * self._eps - dc) / W_MEAN).tolist()
            outer = (((1 + BALL_SLACK) * self._eps - dc) / W_MEAN).tolist()
            terms = (dc, inner, outer, max(map(abs, outer)), dc.tolist())
            if len(self._cov_cache) < FILTER_PATH_MAX:
                self._cov_cache[key] = terms
        return terms

    def distances(self, b: GaussianBelief) -> np.ndarray:
        """The belief metric from ``b`` to every ball's center."""
        return self.distances_at(b.mean, b.cov)

    def distances_at(self, mean: Sequence[float], cov: np.ndarray,
                     key: Optional[bytes] = None) -> np.ndarray:
        """``distances`` for the belief with mean ``mean`` (floats or an
        array) and covariance ``cov``, whose bytes ``key`` is if known."""
        # np.linalg.norm(diff, axis=1) without its argument handling: the
        # same products and reduction, so the same bits
        diff = self._means - mean
        dm = np.sqrt(np.add.reduce(diff * diff, axis=1))
        return W_MEAN * dm + self._cov_terms(cov, key)[0]

    def first_at(self, mean: Sequence[float], cov: np.ndarray,
                 order: Iterable[int],
                 key: Optional[bytes] = None) -> Optional[int]:
        """The position of the first ball, taken in ``order``, whose
        ``distances`` entry for the belief with float mean ``mean`` and
        covariance ``cov`` (whose bytes ``key`` is if known) is at most its
        epsilon; None if there is none.  A float mean distance decides
        outside the band between a ball's inner and outer radius; only
        within it do ``distances`` run.  Graph walks scan this way; edge
        runs, which can skip scans, take ``scan_at``."""
        _, inner, outer, _, _ = self._cov_terms(cov, key)
        rows = self._rows
        for k in order:
            d = math.dist(mean, rows[k])
            if d <= outer[k] and (d <= inner[k]
                                  or self.distances_at(mean, cov, key)[k]
                                  <= self._eps[k]):
                return k
        return None

    def scan_at(self, mean: Sequence[float], cov: np.ndarray,
                order: Iterable[int], key: Optional[bytes] = None
                ) -> Tuple[Optional[int], float]:
        """``first_at``'s position, by the same tests, and the room the scan
        leaves: 0 when it finds a ball, else the smallest ``d - outer`` over
        ``order``, with ``d`` a ball's float mean distance, less a rounding
        margin.  The room costs graph walks, which never skip a scan, a
        subtraction and a comparison per ball, so they keep ``first_at``.

        Any mean ``m`` and covariance ``P`` with ``math.dist(mean, m)``
        plus the drift from ``cov`` to ``P`` below the room find no ball,
        the drift being the sum of the steps' drifts (``_filter_update``),
        0 when ``P`` is ``cov``.  By the triangle inequality ``m``'s mean
        distance to every ball is at least ``d - dist(mean, m)``, and the
        drift bounds how far each outer radius can have grown, so that
        distance still exceeds the ball's outer radius at ``P``.  The margin
        covers the rounding of the three float distances and of the
        differences: a few ulps of ``d + |outer|`` for each ball, less what
        its ``d - outer`` exceeds the smallest, ``g``.  As ``d`` is at most
        ``d - outer`` plus ``|outer|``, and a move and drift below the room
        change ``d`` and ``|outer|`` by less than ``g`` each, that stays
        below a few ulps of ``3g + 2max|outer|``, and ``BALL_SLACK`` times
        ``g + max|outer|`` is millions of ulps of it."""
        _, inner, outer, outer_max, _ = self._cov_terms(cov, key)
        rows = self._rows
        room = math.inf
        for k in order:
            d = math.dist(mean, rows[k])
            gap = d - outer[k]
            # gap <= 0 exactly when d <= outer[k]: a float difference is 0
            # only between equal floats
            if gap <= 0.0 and (d <= inner[k]
                               or self.distances_at(mean, cov, key)[k]
                               <= self._eps[k]):
                return k, 0.0
            if gap < room:
                room = gap
        return None, (1 - BALL_SLACK) * room - BALL_SLACK * outer_max

    def nearest_at(self, mean: Sequence[float], cov: np.ndarray,
                   order: List[int], key: Optional[bytes] = None) -> int:
        """The position, among ``order``, of the ball whose ``distances``
        entry for the belief with float mean ``mean`` and covariance
        ``cov`` (whose bytes ``key`` is if known) is least, the first in
        ``order`` of equal ones: ``order[argmin]`` of those entries.

        A float distance per ball decides when the nearest is nearer than
        every other by more than ``BALL_SLACK`` of the second's distance:
        far above the few ulps by which the float and the stacked distances
        differ, so the stacked ones have the same single least.  Otherwise,
        and when no float distance is finite, ``distances`` decide."""
        dc = self._cov_terms(cov, key)[4]
        rows = self._rows
        best = second = math.inf
        best_k = -1
        for k in order:
            d = W_MEAN * math.dist(mean, rows[k]) + dc[k]
            if d < best:
                best, second, best_k = d, best, k
            elif d < second:
                second = d
        if best < (1 - BALL_SLACK) * second:
            return best_k
        return order[int(np.argmin(self.distances_at(mean, cov, key)[order]))]


def run_lma(lma: Lma, start: SimState, stops: BallIndex,
            model: LinearGaussianModel, max_steps: int,
            rng: Union[np.random.Generator, NormalBlocks],
            order: Optional[Sequence[int]] = None,
            scanned: Optional[Tuple[Sequence[float], bytes, float]] = None
            ) -> TerminationRecord:
    """Run the funnel until the belief enters a stop ball, the truth
    violates the constraint set (failure node, region id 0), or max_steps;
    leaves ``start`` at the final state.

    The belief lands in the first ball of ``stops``, taken in ``order``
    (every ball, in index order, by default), that holds it; the failure
    check comes from the model.  The balls are scanned only when the mean
    could have reached one: a scan that finds none leaves a room
    (``BallIndex.scan_at``), and the steps after it skip theirs while the
    distance of the mean from where the scan was made, plus the drift of
    the covariance since (``_filter_update``), stays below that room.
    ``scanned`` is a scan the caller already made of the same balls in the
    same order: its mean, the bytes of its covariance and its room.  When
    that covariance is the start's, the run takes it as its last scan, so
    a start within the room makes no scan of its own.  Each step is
    ``lma_step``'s, with the same values: the truth and mean stay float
    lists from the first step to the last (a matrix step also keeps the
    arrays it reads and returns), and ``start`` is left at the final
    floats, with no array built.  A ``Generator`` gives each step exactly
    the normals it uses, as ``lma_step`` draws them; ``NormalBlocks`` hands
    out the same values from draws of a block at a time, as floats to the
    per-axis form and as an array to the matrix form.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    if order is None:
        order = range(len(stops.ids))
    if isinstance(rng, NormalBlocks):
        take, take_array = rng.take, rng.take_array
    else:
        take_array = rng.standard_normal

        def take(k: int) -> List[float]:
            return rng.standard_normal(k).tolist()
    axes = model._axes if lma._axes is not None else None
    violates, cost, n_noise = (model.constraints.violates, model.step_cost,
                               model._n_noise)
    base, u_weight, path = cost.base, cost.u_weight, model._filter_path
    truth, mean, cov, key = start.x, start.mean, start.cov, start.cov_key
    # the same truth and mean as arrays, after a matrix step, which reads
    # and returns arrays; None after a per-axis step
    arrays = None
    # the mean at the last landing scan, the room the scan left
    # (BallIndex.scan_at), and the covariance's drift since: while the
    # mean's distance from the anchor plus the drift stays below the room,
    # a scan would find no ball, so none is made
    anchor, room, drift = mean, 0.0, 0.0
    if scanned is not None and scanned[1] == key:
        anchor, _, room = scanned
    start_reward = reward = start.accrued_reward
    steps = 0
    while True:
        if not math.dist(anchor, mean) + drift < room:
            k, room = stops.scan_at(mean, cov, order, key)
            if k is not None:
                outcome, region = TerminationRecord.LANDED, stops.ids[k]
                break
            anchor, drift = mean, 0.0
        if steps >= max_steps:
            outcome, region = TerminationRecord.TIMEOUT, None
            break
        hit = path.get(key)
        K, cov, k_diag, key, moved = (hit if hit is not None
                                      else model._filter_update(cov, key))
        drift += moved
        if axes is not None and k_diag is not None:
            truth, mean, u = _axis_step(axes, lma._axes, k_diag, truth, mean,
                                        take(n_noise))
            arrays = None
        else:
            if arrays is None:
                arrays = np.array(truth), np.array(mean)
            truth_a, mean_a, u = _matrix_step(lma, model, K, *arrays,
                                              take_array(n_noise))
            arrays = truth_a, mean_a
            truth, mean = truth_a.tolist(), mean_a.tolist()
        reward -= _step_cost(cost, u) if u_weight else base
        steps += 1
        if violates(truth):
            outcome, region = TerminationRecord.FAILED, 0
            break
    if steps:
        start.x, start.mean, start.cov, start.cov_key = truth, mean, cov, key
        start.accrued_reward = reward
    return TerminationRecord(outcome, region, steps, reward - start_reward)
