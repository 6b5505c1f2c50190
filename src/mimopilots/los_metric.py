"""Closed-form LOS interference between user pairs, seen by the reference's BS.

The score for an (interferer, reference) pair factors into a power-ratio
part built from estimated gains and K-factors, and an AoA part equal to the
normalized squared overlap of the two estimated steering vectors. The AoA
part is a Dirichlet kernel in the "mutual AoA" pi*(sin a - sin b), the gap
between the per-antenna phases of the half-wavelength array of
`channel.steering_vector`.

Every function here is elementwise over broadcast arrays; `los_interference`
evaluates it for every user pair of a `Drop` at the reference user's serving
BS, the only BS whose scores the allocators read, and `pair_scores` keeps
that matrix on the drop, so the allocators of one drop compute it once.
A row of the drop's (L, L*N) [BS, cell*N + user] arrays is every interferer
at one BS.
"""

from __future__ import annotations

import numpy as np

from .model import TWO_PI, Drop

# below this, sin(theta/2)**2 is replaced by a series to avoid 0/0
_SIN_GUARD = 1e-6


def mutual_aoa(theta_a, theta_b):
    """Phase-per-antenna gap pi*(sin(theta_a) - sin(theta_b)), in [-2pi, 2pi].

    Zero iff the two users overlap in sine (equal angles, or angles summing
    to pi); the +-2pi endpoints alias back to total overlap.
    """
    return np.pi * (np.sin(theta_a) - np.sin(theta_b))


def dirichlet_kernel_sq(m: int, theta):
    """|sum_{i=0}^{m-1} exp(-1j*i*theta)|^2 in closed form.

    Equals m**2 when theta is a multiple of 2*pi and
    sin(m*theta/2)**2 / sin(theta/2)**2 otherwise, with a series guard near
    the alignment points. Zeros sit at theta = 2*b*pi/m, b = +-1..+-(m-1).
    """
    if m < 1:
        raise ValueError("need at least one antenna")
    # exact 2*pi periodicity; fold to [-pi, pi] where sin(theta/2) is tame
    # (fmod and the one subtraction are exact, as in IEEE remainder)
    t = np.fmod(theta, TWO_PI)
    t = np.where(np.abs(t) > np.pi, t - np.copysign(TWO_PI, t), t)
    s = np.sin(0.5 * t)
    num = np.sin(0.5 * m * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sin(m*a)/sin(a) = m*(1 - (m^2-1)*a^2/6 + O(a^4)) with a = t/2
        out = np.where(np.abs(s) < _SIN_GUARD,
                       m * m * (1.0 - (m * m - 1.0) * t * t / 12.0),
                       (num * num) / (s * s))
    return out[()]


def los_interference_from_params(alpha_a, k_a, theta_a, alpha_b, k_b, theta_b,
                                 m: int):
    """Pair score from raw estimated parameters, elementwise.

    `a` is the interferer, `b` the reference user whose serving BS observes
    the pair. The AoA factor is dirichlet_kernel_sq(m, mutual) / m**2. When
    both K-factors are positive it is multiplied by the power ratio
    (alpha_a * k_a * (1 + k_b)) / (alpha_b * k_b * (1 + k_a)); when either
    is zero (an NLOS link) the AoA factor alone is the score. Raises
    ValueError on non-finite input, a gain <= 0 or a K-factor < 0.
    """
    alpha_a, k_a, alpha_b, k_b = map(np.asarray, (alpha_a, k_a, alpha_b, k_b))
    if not all(np.all(np.isfinite(x)) for x in (alpha_a, k_a, theta_a, alpha_b, k_b, theta_b)):
        raise ValueError("gains, K-factors and angles must be finite")
    if np.any(alpha_a <= 0) or np.any(alpha_b <= 0):
        raise ValueError("large-scale gains must be positive")
    if np.any(k_a < 0) or np.any(k_b < 0):
        raise ValueError("K-factors must be non-negative")
    overlap = dirichlet_kernel_sq(m, mutual_aoa(theta_a, theta_b)) / (m * m)
    num = alpha_a * k_a * (1.0 + k_b)
    den = alpha_b * k_b * (1.0 + k_a)
    both_los = (k_a != 0) & (k_b != 0)
    ratio = np.divide(num, den, out=np.ones(np.shape(both_los)), where=both_los)
    return (ratio * overlap)[()]


def los_interference(drop: Drop, m: int) -> np.ndarray:
    """Scores of every user pair at the reference user's serving BS, from the
    estimated quantities: an (L*N, L*N) matrix [interferer, reference],
    users flattened cell-major (cell * N + user).
    """
    est = (drop.est.alpha, drop.est.k, drop.est.aoa)
    # interferers as [BS, interferer, 1] against references as [cell, 1, user]
    scores = los_interference_from_params(*(x[:, :, None] for x in est),
                                          *(Drop.serving(x)[:, None, :] for x in est), m)
    return scores.transpose(1, 0, 2).reshape(scores.shape[1], -1)


def pair_scores(drop: Drop, m: int) -> np.ndarray:
    """`los_interference(drop, m)`, computed on first use and kept in the
    drop's `score_memo`; read-only, since every allocator of the drop
    shares it."""
    scores = drop.score_memo.get(m)
    if scores is None:
        scores = drop.score_memo[m] = los_interference(drop, m)
        scores.flags.writeable = False
    return scores
