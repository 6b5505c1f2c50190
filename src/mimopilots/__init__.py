"""Multi-cell massive-MIMO uplink simulator with location-aware pilot allocation."""

from .allocators import (ALLOCATORS, allocate_greedy, allocate_loc_aware,
                         allocate_random, allocate_random_iid, allocate_sector,
                         exhaustive_search, partition_tiers)
from .channel import ChannelSampler, ChannelSet, steering_vector
from .detection import estimate_sinr, spectral_efficiency, zf_combiner
from .estimation import estimated_los_channel, ls_estimate, synthesize_rx
from .harness import (ExperimentSpec, ResultRow, evaluate_drops,
                      run_oracle_compare, run_sweep, run_worst_user_cdf)
from .los_metric import (dirichlet_kernel_sq, los_interference,
                         los_interference_from_params, mutual_aoa)
from .model import (ConfigError, Drop, NetworkConfig, bs_positions, k_factor,
                    pathloss, sample_users)
from .pilots import AllocationPlan, build_pilot_book, pilot_matrix

__version__ = "0.1.0"
