"""Electric robo-taxi fleet dispatch: simulator, PPO trainer, fluid bound,
baseline policies, and calibration from trip records."""

from .config import NetworkConfig, DEFAULT_CHARGING_CURVE
from .errors import (FleetlabError, ConfigError, InvalidArgument,
                     ContractViolation, TrainingDiagnostic, LpInfeasible,
                     LpUnbounded, StateSpaceTooLarge, ValueIterationNotConverged)
from .model import (SystemState, VehicleStatus, TripStatus,
                    AtomicAction, FleetAction, action_count, feasible_mask,
                    atomic_reward, epoch_reward)
from .sim import (initial_state, transition, step, run_epoch, run_day,
                  run_days, average_daily_reward, DayTrace)
from .ppo import PpoConfig, NeuralPolicy, train, evaluate_policy, clip_schedule
from .fluid import upper_bound, build_full_lp, build_reduced_lp, FluidSolution, \
    FluidRoundingPolicy
from .simplex import LpProblem, LpSolution, solve, export_mps
from .baselines import (AlwaysPassPolicy, RandomFeasiblePolicy, PowerOfKPolicy,
                        exact_value_iteration, ExactSolution)
from .scenarios import synth_scenario, TEMPLATES
from .calibrate import (TripRecord, calibrate, scale_fleet,
                        estimate_reference_fleet, read_trip_records,
                        read_region_map)

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig", "DEFAULT_CHARGING_CURVE",
    "FleetlabError", "ConfigError", "InvalidArgument", "ContractViolation",
    "TrainingDiagnostic", "LpInfeasible", "LpUnbounded",
    "StateSpaceTooLarge", "ValueIterationNotConverged",
    "SystemState", "VehicleStatus", "TripStatus",
    "AtomicAction", "FleetAction", "action_count", "feasible_mask",
    "atomic_reward", "epoch_reward",
    "initial_state", "transition", "step", "run_epoch", "run_day", "run_days",
    "average_daily_reward", "DayTrace",
    "PpoConfig", "NeuralPolicy", "train", "evaluate_policy", "clip_schedule",
    "upper_bound", "build_full_lp", "build_reduced_lp", "FluidSolution",
    "FluidRoundingPolicy",
    "LpProblem", "LpSolution", "solve", "export_mps",
    "AlwaysPassPolicy", "RandomFeasiblePolicy", "PowerOfKPolicy",
    "exact_value_iteration", "ExactSolution",
    "synth_scenario", "TEMPLATES",
    "TripRecord", "calibrate", "scale_fleet", "estimate_reference_fleet",
    "read_trip_records", "read_region_map",
]
