"""Electric dial-a-ride workbench.

Instance generation, a constraint-exact episode simulator, an exhaustive
oracle for tiny instances, greedy and adaptive-large-neighborhood-search
solvers, and an edge-attention pointer policy trained with REINFORCE and
multi-start baselines.
"""

from .instance import (CostWeights, EdgeMatrices, FeatureTensors, FleetParams,
                       Instance, InstanceFormatError, Node, generate_instance,
                       load, node_kinds, normalize_features, save, validate)
from .environment import (Env, EpisodeState, MaskViolation, NoiseConfig,
                          ReplayError, Solution, charging_power, load_solution,
                          replay, sample_noise, save_solution, score_solution)
from .oracle import enumerate_rewards, exact_solve
from .greedy import greedy_solve
from .routes import RouteCtx, plan_from_solution, prune_chargers, remove_requests
from .alns import AlnsStats, OperatorWeights, alns_solve, shaw_relatedness
from .autodiff import Tape, Tensor
from .policy import (Policy, PolicyConfig, greedy_rollout, load_policy,
                     multistart_rollout, rollout_episode, save_policy)
from .training import (Adam, CURRICULUM_SIZES, StageResult, TrainConfig,
                       TrainReport, curriculum_train, pomo_advantages,
                       pomo_starts, reinforce_update, train, validation_set)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AlnsStats", "CURRICULUM_SIZES", "CostWeights",
    "EdgeMatrices", "Env", "EpisodeState", "FeatureTensors", "FleetParams",
    "Instance", "InstanceFormatError", "MaskViolation", "Node", "NoiseConfig",
    "OperatorWeights", "Policy", "PolicyConfig", "ReplayError",
    "RouteCtx", "Solution", "StageResult", "Tape", "Tensor",
    "TrainConfig", "TrainReport", "alns_solve", "charging_power",
    "curriculum_train", "enumerate_rewards", "exact_solve", "generate_instance",
    "greedy_rollout", "greedy_solve", "load", "load_policy", "load_solution",
    "multistart_rollout", "node_kinds", "normalize_features", "plan_from_solution",
    "pomo_advantages", "pomo_starts", "prune_chargers", "reinforce_update",
    "remove_requests", "replay", "rollout_episode", "sample_noise", "save",
    "save_policy", "save_solution", "score_solution", "shaw_relatedness",
    "train", "validate", "validation_set", "__version__",
]
