"""Scenario configuration, user placement, and large-scale propagation models.

A scenario is a set of cells laid out on a line, each with one base station
(BS) and N single-antenna users. Users are dropped uniformly in distance and
angle around their serving BS. Every quantity the BSs are allowed to know is
derived from the *estimated* user position (the true position plus a bounded
uniform error); the true position drives the actual channels.

One drop is a `Drop`: per-link arrays of shape (L, L*N) indexed
[BS, cell*N + user], users flattened cell-major. That is the order the
channels, pair scores and allocators compute in, so no stage reorders a drop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

TWO_PI = 2.0 * math.pi

K_MODELS = ("fixed", "distance")
LOS_MODELS = ("always", "linear_prob")

# Signal amplitudes scale with sqrt(gain); beyond this gain spread the
# weakest user's pilot signal is below the rounding error of the strongest.
_GAIN_SPREAD_LIMIT = 1.0 / np.finfo(float).eps ** 2


class ConfigError(ValueError):
    """A configuration value violates its contract."""


@dataclass(frozen=True)
class NetworkConfig:
    """All scenario parameters for one simulation.

    L, N, M        : number of cells, users per cell, BS antennas (a
                     half-wavelength uniform linear array).
    pilot_len      : pilot sequence length (number of orthogonal pilots).
    coherence_len  : channel uses per coherence block.
    snr_db         : uplink SNR in dB; `rho` is the linear value.
    cell_radius    : cell radius in meters (also the pathloss reference).
    min_dist       : minimum user distance from the serving BS in meters.
    pathloss_exp   : pathloss exponent v; gain is (d / cell_radius)**-v, so
                     a negative v gives the increasing law (d / cell_radius)**|v|.
    k_model        : "fixed" (k_db everywhere) or "distance"
                     (K in dB = k_intercept_db - k_slope_db_per_m * d).
    los_model      : "always" or "linear_prob" (P(LOS) = 1 - d/cell_radius,
                     clamped to [0, 1]).
    loc_err_var    : localization error variance in m^2 (planar MSE).

    dB-valued JSON inputs carry a `_db` suffix (snr_db, k_db).
    """

    L: int = 2
    N: int = 36
    M: int = 100
    pilot_len: int = 12
    coherence_len: int = 196
    snr_db: float = 10.0
    cell_radius: float = 400.0
    min_dist: float = 100.0
    pathloss_exp: float = 3.76
    k_model: str = "fixed"
    k_db: float = 10.0
    k_intercept_db: float = 13.0
    k_slope_db_per_m: float = 0.03
    los_model: str = "always"
    loc_err_var: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)
                                      or not math.isfinite(value)):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L}")
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if not 1 <= self.pilot_len < self.coherence_len:
            raise ConfigError(
                f"need 1 <= pilot_len < coherence_len, got "
                f"{self.pilot_len}, {self.coherence_len}"
            )
        if not 0.0 < self.min_dist < self.cell_radius:
            raise ConfigError(
                f"need 0 < min_dist < cell_radius, got "
                f"{self.min_dist}, {self.cell_radius}"
            )
        if self.k_model not in K_MODELS:
            raise ConfigError(f"k_model must be one of {K_MODELS}, got {self.k_model!r}")
        if self.los_model not in LOS_MODELS:
            raise ConfigError(f"los_model must be one of {LOS_MODELS}, got {self.los_model!r}")
        if self.loc_err_var < 0:
            raise ConfigError("loc_err_var must be >= 0")
        self._check_gains()

    @property
    def rho(self) -> float:
        """Uplink SNR as a linear power ratio."""
        return 10.0 ** (self.snr_db / 10.0)

    def _check_gains(self) -> None:
        """Gains, K-factors and the linear SNR must be finite and positive
        over every distance a drop can produce: true distances up to the far
        edge of the last cell, estimated ones moved by up to sqrt(2) error
        half-widths and clamped to >= 1 m. Both models are monotone in
        distance, so the two ends of that range bound them. The linear SNR
        must also leave the Gram matrices of noise-dominated estimates
        finite."""
        reach = math.sqrt(2.0) * error_half_width(self.loc_err_var)
        ends = np.array([min(self.min_dist, max(1.0, self.min_dist - reach)),
                         max((2 * self.L - 1) * self.cell_radius + reach, 1.0)])
        span = f"between {ends[0]:g} m and {ends[1]:g} m"
        with np.errstate(all="ignore"):
            gain, k = pathloss(ends, self), k_factor(ends, self)
            rho = np.power(10.0, self.snr_db / 10.0)
            # the largest sum the SINR engine forms is a Gram entry of
            # noise-dominated estimates, of order N * M / rho; the factor
            # 1e3 covers its spread over noise draws
            noise_gram = 1e3 * self.N * self.M / rho
            spread = gain.max() / gain.min()
            # the pair score's numerator alpha*K*(1+K) at its largest over its
            # denominator at its smallest, plus the gain ratio beside it,
            # summed over every user as the allocators sum them
            score_sum = (2.0 * self.L * self.N * gain.max() * k.max() * (1.0 + k.max())
                         / (gain.min() * k.min() * (1.0 + k.min())))
        if not (np.all(np.isfinite(gain)) and np.all(gain > 0)):
            raise ConfigError(f"pathloss leaves the positive finite range {span}: "
                              f"{gain.tolist()} (pathloss_exp={self.pathloss_exp})")
        if spread > _GAIN_SPREAD_LIMIT:
            raise ConfigError(
                f"pathloss spreads by {spread:.3g} {span}, more "
                f"than {_GAIN_SPREAD_LIMIT:.3g}: the weakest signal would drop "
                f"below the rounding error of the strongest")
        if not (np.all(np.isfinite(k)) and np.all(k > 0)):
            raise ConfigError(f"K-factor leaves the positive finite range {span}: "
                              f"{k.tolist()}")
        if not np.isfinite(score_sum):
            raise ConfigError(f"gain and K-factor spread {span} overflows the "
                              f"allocators' interference sums")
        if not (np.isfinite(rho) and rho > 0 and np.isfinite(noise_gram)):
            raise ConfigError(f"snr_db={self.snr_db} gives a linear SNR of {rho}, "
                              f"outside the range where the estimates' Gram "
                              f"matrices stay finite for N={self.N}, M={self.M}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**data)


def bs_positions(cfg: NetworkConfig) -> np.ndarray:
    """BS coordinates: L cells on a line, spaced two cell radii apart."""
    xs = 2.0 * cfg.cell_radius * np.arange(cfg.L, dtype=float)
    return np.column_stack([xs, np.zeros(cfg.L)])


def pathloss(d: float | np.ndarray, cfg: NetworkConfig):
    """Large-scale gain (d / cell_radius)**-pathloss_exp.

    The gain equals 1 at d == cell_radius; it decays with distance for a
    positive exponent and grows for a negative one. Raises on non-positive
    distances.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("pathloss requires a positive distance")
    out = (d / cfg.cell_radius) ** -cfg.pathloss_exp
    return out if out.ndim else float(out)


def k_factor(d: float | np.ndarray, cfg: NetworkConfig):
    """Rice K-factor (linear) at distance d.

    "fixed" mode returns the configured constant; "distance" mode follows the
    3GPP-style linear-in-dB decay k_intercept_db - k_slope_db_per_m * d.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("k_factor requires a non-negative distance")
    if cfg.k_model == "fixed":
        k = np.full_like(d, np.float64(10.0) ** (cfg.k_db / 10.0))
    else:
        k_db = cfg.k_intercept_db - cfg.k_slope_db_per_m * d
        k = 10.0 ** (k_db / 10.0)
    return k if k.ndim else float(k)


def los_probability(d: float | np.ndarray, cfg: NetworkConfig):
    """Probability of a LOS link at distance d."""
    d = np.asarray(d, dtype=float)
    if cfg.los_model == "always":
        p = np.ones_like(d)
    else:
        p = np.clip(1.0 - d / cfg.cell_radius, 0.0, 1.0)
    return p if p.ndim else float(p)


def error_half_width(var: float) -> float:
    """Per-axis half-width of the uniform position error.

    Each Cartesian axis is perturbed by Uniform[-a, a] with a chosen so the
    total planar MSE equals `var`: 2 * a**2 / 3 = var.
    """
    if var < 0:
        raise ConfigError("localization error variance must be >= 0")
    return math.sqrt(1.5 * var)


@dataclass(frozen=True, eq=False)
class Drop:
    """User geometry of one drop; every array is a C-contiguous (L, L*N)
    array [BS, cell*N + user], and `serving` picks each user's own BS.

    The estimated quantities are what the BSs know, derived from the
    estimated positions (distances clamped to >= 1 m). `k` is zero toward
    any BS the user has no line of sight to, and `k_est` is zeroed on the
    same links: the LOS/NLOS condition is channel state, not part of the
    position estimate. A valid config keeps every K-factor positive, so a
    link is LOS exactly where `k > 0`.

    A drop is read-only and compares by identity: construction checks the
    eight arrays share one (L, L*N) shape, stores a C-ordered copy of each
    and clears its `writeable` flag, so no array can change after the drop
    is scored.
    `score_memo` keeps the drop's pair-score matrices by antenna count, each
    computed on first use by `los_metric.pair_scores`, so every allocator of
    a drop reads one matrix; `dataclasses.replace` gives a fresh memo.
    """

    dist: np.ndarray       # true distance
    aoa: np.ndarray        # true angle of arrival, in [0, 2*pi)
    dist_est: np.ndarray   # estimated distance
    aoa_est: np.ndarray    # estimated angle of arrival
    alpha: np.ndarray      # large-scale gain from the true distance
    alpha_est: np.ndarray  # large-scale gain from the estimated distance
    k: np.ndarray          # Rice factor (linear) from the true distance
    k_est: np.ndarray      # Rice factor from the estimated distance
    score_memo: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        arrays = [getattr(self, f.name) for f in fields(self) if f.init]
        shape = np.shape(arrays[0])
        if (len(shape) != 2 or not 0 < shape[0] <= shape[1] or shape[1] % shape[0]
                or not all(isinstance(x, np.ndarray) and x.shape == shape
                           for x in arrays)):
            raise ValueError(f"drop arrays must share one (L, L*N) shape, got "
                             f"{[np.shape(x) for x in arrays]}")
        for f, x in zip(fields(self), arrays):     # the array fields come first
            object.__setattr__(self, f.name, x := x.copy(order="C"))
            x.setflags(write=False)

    @classmethod
    def from_positions(cls, cfg: NetworkConfig, pos: np.ndarray,
                       pos_est: np.ndarray, los: np.ndarray) -> "Drop":
        """Derive every per-BS quantity from finite (L, N, 2) true and
        estimated positions and the (L, L*N) [BS, cell*N + user] LOS flags."""
        for name, p in (("true", pos), ("estimated", pos_est)):
            if np.shape(p) != (cfg.L, cfg.N, 2) or not np.isfinite(p).all():
                raise ValueError(f"{name} positions must be a finite (L, N, 2) "
                                 f"array, got shape {np.shape(p)}")
        if np.shape(los) != (cfg.L, cfg.L * cfg.N):
            raise ValueError(f"LOS flags must have shape (L, L*N), got {np.shape(los)}")
        bs = bs_positions(cfg)[:, None, :]
        rel = pos.reshape(-1, 2) - bs
        rel_e = pos_est.reshape(-1, 2) - bs
        dist = np.hypot(rel[..., 0], rel[..., 1])
        dist_est = np.maximum(np.hypot(rel_e[..., 0], rel_e[..., 1]), 1.0)
        return cls(dist=dist, aoa=np.mod(np.arctan2(rel[..., 1], rel[..., 0]), TWO_PI),
                   dist_est=dist_est,
                   aoa_est=np.mod(np.arctan2(rel_e[..., 1], rel_e[..., 0]), TWO_PI),
                   alpha=pathloss(dist, cfg), alpha_est=pathloss(dist_est, cfg),
                   k=np.where(los, k_factor(dist, cfg), 0.0),
                   k_est=np.where(los, k_factor(dist_est, cfg), 0.0))

    @staticmethod
    def serving(x: np.ndarray) -> np.ndarray:
        """The (L, N) entries of an (L, L*N) array at each user's own BS."""
        cells = np.arange(x.shape[0])
        return x.reshape(cells.size, cells.size, -1)[cells, cells]


def sample_users(cfg: NetworkConfig, rng: np.random.Generator) -> Drop:
    """Drop N users per cell and derive every per-BS quantity.

    One (L, N, 4 + L) block of uniforms is drawn (4 + 0 in "always" LOS
    mode), so per user, in cell then user order, the stream holds the
    serving distance, the serving angle, two position-error uniforms, then
    one LOS uniform per BS. Each is mapped as `Generator.uniform` maps a
    draw, low + (high - low) * u, so the drop equals that sequence of
    per-user draws, with the LOS uniforms then laid out [BS, cell*N + user].
    The result is a pure function of (cfg, rng state).
    """
    bs = bs_positions(cfg)
    u = rng.random((cfg.L, cfg.N, 4 + (cfg.L if cfg.los_model != "always" else 0)))
    d = cfg.min_dist + (cfg.cell_radius - cfg.min_dist) * u[..., 0]
    theta = TWO_PI * u[..., 1]
    pos = bs[:, None, :] + d[..., None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    # per-axis Uniform[-a, a] offsets, planar MSE loc_err_var
    pos_est = pos + error_half_width(cfg.loc_err_var) * (-1.0 + 2.0 * u[..., 2:4])
    if cfg.los_model == "always":
        los = np.ones((cfg.L, cfg.L * cfg.N), dtype=bool)
    else:
        rel = pos.reshape(-1, 2) - bs[:, None, :]
        los = (u[..., 4:].transpose(2, 0, 1).reshape(cfg.L, -1)
               < los_probability(np.hypot(rel[..., 0], rel[..., 1]), cfg))
    return Drop.from_positions(cfg, pos, pos_est, los)
