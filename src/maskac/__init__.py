"""Actor-critic RL engine with sigmoid mask-attention branches.

The network carries a single-channel spatial mask on its policy and
value heads; the masks train end to end, explain decisions as heat
maps, and can be inverted or ablated at evaluation time.
"""

from .analysis import (EpisodeStats, InjectionReport, compare_variants,
                       decrease_rate, evaluate, injection_response,
                       random_baseline, record_heatmaps)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .envs import EnvSpec, InjectionSpec, make_env
from .network import (ForwardTrace, NetworkConfig, RecurrentState, forward,
                      init_weights, invert_mask)
from .training import Hyperparams, train

__all__ = [
    "EpisodeStats", "InjectionReport", "compare_variants", "decrease_rate",
    "evaluate", "injection_response", "random_baseline", "record_heatmaps",
    "CheckpointError", "load_checkpoint", "save_checkpoint",
    "EnvSpec", "InjectionSpec", "make_env",
    "ForwardTrace", "NetworkConfig", "RecurrentState", "forward",
    "init_weights", "invert_mask",
    "Hyperparams", "train",
]

__version__ = "0.1.0"
