"""The invariant table: each deviation carries a NaN through to its bound."""

import numpy as np

from mimopilots import checks
from mimopilots.checks import grouped_zf_dev, kernel_vs_brute_force, pair_scores_vs_explicit
from mimopilots.model import NetworkConfig, sample_users


def nan_on_first_call(fn):
    calls = []

    def patched(*args):
        calls.append(args)
        return np.nan if len(calls) == 1 else fn(*args)
    return patched


class TestNanPropagates:
    def test_one_nan_kernel_value_makes_the_deviation_nan(self, monkeypatch):
        monkeypatch.setattr(checks, "dirichlet_kernel_sq",
                            nan_on_first_call(checks.dirichlet_kernel_sq))
        assert np.isnan(kernel_vs_brute_force(np.random.default_rng(11), 50))

    def test_one_nan_pair_score_makes_the_deviation_nan(self, monkeypatch):
        real = checks.los_interference

        def one_nan(drop, m):
            scores = real(drop, m)
            scores[0, 4] = np.nan      # reference user 1 of cell 1, at BS 1
            return scores
        monkeypatch.setattr(checks, "los_interference", one_nan)
        cfg = NetworkConfig(L=2, N=3, M=8, pilot_len=3)
        assert np.isnan(pair_scores_vs_explicit(sample_users(cfg, np.random.default_rng(14)), 8))


def test_grouped_zf_deviation_is_inf_when_no_column_merges():
    # every link LOS: no estimate columns coincide, the grouped path never runs
    cfg = NetworkConfig(L=2, N=12, M=64, pilot_len=4)
    assert grouped_zf_dev(cfg, 37) == np.inf

