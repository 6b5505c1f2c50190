"""Scenario configuration, user placement, and large-scale propagation models.

A scenario is a set of cells laid out on a line, each with one base station
(BS) and N single-antenna users. Users are dropped uniformly in distance and
angle around their serving BS. Every quantity the BSs are allowed to know is
derived from the *estimated* user position (the true position plus a bounded
uniform error); the true position drives the actual channels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

TWO_PI = 2.0 * math.pi

K_MODELS = ("fixed", "distance")
LOS_MODELS = ("always", "linear_prob")


class ConfigError(ValueError):
    """A configuration value violates its contract."""


@dataclass(frozen=True)
class NetworkConfig:
    """All scenario parameters for one simulation.

    L, N, M        : number of cells, users per cell, BS antennas.
    pilot_len      : pilot sequence length (number of orthogonal pilots).
    coherence_len  : channel uses per coherence block.
    snr_db         : uplink SNR in dB; `rho` is the linear value.
    cell_radius    : cell radius in meters (also the pathloss reference).
    min_dist       : minimum user distance from the serving BS in meters.
    pathloss_exp   : pathloss exponent v; gain is (d / cell_radius)**(sign*v).
    pathloss_sign  : -1 (gain decays with distance, default) or +1.
    k_model        : "fixed" (k_db everywhere) or "distance"
                     (K in dB = k_intercept_db - k_slope_db_per_m * d).
    los_model      : "always" or "linear_prob" (P(LOS) = 1 - d/cell_radius,
                     clamped to [0, 1]).
    antenna_spacing: antenna spacing over wavelength (r/lambda).
    loc_err_var    : localization error variance in m^2 (planar MSE).
    seed           : base RNG seed (non-negative).

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
    pathloss_sign: int = -1
    k_model: str = "fixed"
    k_db: float = 10.0
    k_intercept_db: float = 13.0
    k_slope_db_per_m: float = 0.03
    los_model: str = "always"
    antenna_spacing: float = 0.5
    loc_err_var: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def rho(self) -> float:
        """Uplink SNR as a linear power ratio."""
        return 10.0 ** (self.snr_db / 10.0)

    def validate(self) -> None:
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
        if not math.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite")
        if self.pathloss_sign not in (-1, 1):
            raise ConfigError(f"pathloss_sign must be -1 or +1, got {self.pathloss_sign}")
        if self.k_model not in K_MODELS:
            raise ConfigError(f"k_model must be one of {K_MODELS}, got {self.k_model!r}")
        if self.los_model not in LOS_MODELS:
            raise ConfigError(f"los_model must be one of {LOS_MODELS}, got {self.los_model!r}")
        if self.antenna_spacing <= 0:
            raise ConfigError("antenna_spacing must be positive")
        if self.loc_err_var < 0:
            raise ConfigError("loc_err_var must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

    def with_updates(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)


@dataclass
class UserRecord:
    """One user, with true and BS-side (estimated) geometry per BS.

    All per-BS arrays have length L and are indexed by BS. `k` is zero toward
    any BS the user has no line of sight to; the estimated `k_est` is zeroed
    on the same links (the LOS/NLOS condition is channel state, not part of
    the position estimate).
    """

    cell: int
    index: int
    pos: np.ndarray        # true (x, y), meters
    pos_est: np.ndarray    # estimated (x, y)
    dist: np.ndarray       # true distance to each BS
    aoa: np.ndarray        # true angle of arrival at each BS, in [0, 2*pi)
    dist_est: np.ndarray   # estimated distance, clamped to >= 1 m
    aoa_est: np.ndarray    # estimated angle of arrival
    alpha: np.ndarray      # large-scale gain from the true distance
    alpha_est: np.ndarray  # large-scale gain from the estimated distance
    k: np.ndarray          # Rice factor (linear) from the true distance
    k_est: np.ndarray      # Rice factor from the estimated distance
    los: np.ndarray        # bool, LOS condition toward each BS

    @property
    def d(self) -> float:
        """True distance to the serving BS."""
        return float(self.dist[self.cell])

    @property
    def theta(self) -> float:
        """True angle at the serving BS."""
        return float(self.aoa[self.cell])

    @property
    def d_est(self) -> float:
        return float(self.dist_est[self.cell])

    @property
    def theta_est(self) -> float:
        return float(self.aoa_est[self.cell])


def bs_positions(cfg: NetworkConfig) -> np.ndarray:
    """BS coordinates: L cells on a line, spaced two cell radii apart."""
    xs = 2.0 * cfg.cell_radius * np.arange(cfg.L, dtype=float)
    return np.column_stack([xs, np.zeros(cfg.L)])


def pathloss(d: float | np.ndarray, cfg: NetworkConfig):
    """Large-scale gain (d / cell_radius)**(pathloss_sign * pathloss_exp).

    With the default sign of -1 the gain decays with distance and equals 1
    at d == cell_radius. Raises on non-positive distances.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("pathloss requires a positive distance")
    out = (d / cfg.cell_radius) ** (cfg.pathloss_sign * cfg.pathloss_exp)
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
        k = np.full_like(d, 10.0 ** (cfg.k_db / 10.0))
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


def sample_los_state(d: float, cfg: NetworkConfig, rng: np.random.Generator) -> bool:
    """Draw the LOS/NLOS condition for one link.

    In "always" mode this is True without consuming randomness; in
    "linear_prob" mode the link is LOS with probability 1 - d/cell_radius
    (clamped). An NLOS link forces the user's K toward that BS to zero.
    """
    if cfg.los_model == "always":
        return True
    return bool(rng.random() < los_probability(d, cfg))


def error_half_width(var: float) -> float:
    """Per-axis half-width of the uniform position error.

    Each Cartesian axis is perturbed by Uniform[-a, a] with a chosen so the
    total planar MSE equals `var`: 2 * a**2 / 3 = var.
    """
    if var < 0:
        raise ConfigError("localization error variance must be >= 0")
    return math.sqrt(1.5 * var)


def sample_position_error(var: float, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Planar position offsets with E[||offset||^2] == var.

    Always consumes two uniforms per offset (scaled by zero when var == 0)
    so RNG streams stay aligned across error-variance sweeps.
    """
    a = error_half_width(var)
    size = (2,) if n is None else (n, 2)
    return a * rng.uniform(-1.0, 1.0, size=size)


def _finalize_user(cell: int, index: int, pos: np.ndarray, pos_est: np.ndarray,
                   los: np.ndarray, cfg: NetworkConfig) -> UserRecord:
    """Derive all per-BS quantities from the true and estimated positions."""
    bs = bs_positions(cfg)
    rel = pos[None, :] - bs
    dist = np.hypot(rel[:, 0], rel[:, 1])
    aoa = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI)
    rel_e = pos_est[None, :] - bs
    dist_est = np.maximum(np.hypot(rel_e[:, 0], rel_e[:, 1]), 1.0)
    aoa_est = np.mod(np.arctan2(rel_e[:, 1], rel_e[:, 0]), TWO_PI)
    los = np.asarray(los, dtype=bool)
    alpha = pathloss(dist, cfg)
    alpha_est = pathloss(dist_est, cfg)
    k = np.where(los, k_factor(dist, cfg), 0.0)
    k_est = np.where(los, k_factor(dist_est, cfg), 0.0)
    return UserRecord(cell=cell, index=index, pos=pos, pos_est=pos_est,
                      dist=dist, aoa=aoa, dist_est=dist_est, aoa_est=aoa_est,
                      alpha=alpha, alpha_est=alpha_est, k=k, k_est=k_est, los=los)


def apply_localization_error(user: UserRecord, cfg: NetworkConfig,
                             rng: np.random.Generator,
                             var: float | None = None) -> UserRecord:
    """Re-draw the user's estimated position and re-derive BS-side knowledge.

    The true position is perturbed by independent Uniform[-a, a] offsets per
    axis (a = sqrt(1.5 * var)); estimated distances are clamped to >= 1 m and
    alpha_est / k_est are recomputed from them. var == 0 reproduces the true
    position exactly.
    """
    if var is None:
        var = cfg.loc_err_var
    offset = sample_position_error(var, rng)
    return _finalize_user(user.cell, user.index, user.pos, user.pos + offset,
                          user.los, cfg)


def sample_users(cfg: NetworkConfig, rng: np.random.Generator) -> list[UserRecord]:
    """Drop N users per cell and populate all per-BS quantities.

    Per user, the draw order is fixed: serving distance, serving angle, two
    position-error uniforms, then (in "linear_prob" mode) one LOS uniform per
    BS. The result is a pure function of (cfg, rng state).
    """
    bs = bs_positions(cfg)
    users: list[UserRecord] = []
    for cell in range(cfg.L):
        for index in range(cfg.N):
            d = rng.uniform(cfg.min_dist, cfg.cell_radius)
            theta = rng.uniform(0.0, TWO_PI)
            pos = bs[cell] + d * np.array([math.cos(theta), math.sin(theta)])
            pos_est = pos + sample_position_error(cfg.loc_err_var, rng)
            if cfg.los_model == "always":
                los = np.ones(cfg.L, dtype=bool)
            else:
                dist = np.hypot(*(pos[None, :] - bs).T)
                los = rng.random(cfg.L) < los_probability(dist, cfg)
            users.append(_finalize_user(cell, index, pos, pos_est, los, cfg))
    return users


def group_users(users: list[UserRecord], cfg: NetworkConfig) -> list[list[UserRecord]]:
    """Arrange records into groups[cell][index], validating coverage."""
    groups: list[list[UserRecord | None]] = [[None] * cfg.N for _ in range(cfg.L)]
    for u in users:
        if not (0 <= u.cell < cfg.L) or not (0 <= u.index < cfg.N):
            raise ValueError(f"user ({u.cell}, {u.index}) outside the scenario grid")
        if groups[u.cell][u.index] is not None:
            raise ValueError(f"duplicate user ({u.cell}, {u.index})")
        groups[u.cell][u.index] = u
    for cell in range(cfg.L):
        for index in range(cfg.N):
            if groups[cell][index] is None:
                raise ValueError(f"missing user ({cell}, {index})")
    return groups  # type: ignore[return-value]
