"""Decision networks, shoot-or-pass policies, and possession simulation."""

from .decision import Decision, DecisionPolicy, decide, ranked_options
from .estimators import EstimatorParams, estimate_network
from .network import DecisionNetwork, EdgeVector4
from .sequence import (
    PossessionSequence,
    PossessionStep,
    StepOutcome,
    efficiency,
    is_p_secure,
    is_s_efficient,
    pareto_frontier,
    security,
)
from .simulate import (
    RolloutResult,
    SimulationConfig,
    StyleReport,
    derive_seed,
    monte_carlo_compare,
    rollout,
    run_trials,
)
from .state import MatchState, Pitch, parse_match_state
from .style import LinearStyle, StyleClass

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "DecisionNetwork",
    "DecisionPolicy",
    "EdgeVector4",
    "EstimatorParams",
    "LinearStyle",
    "MatchState",
    "Pitch",
    "PossessionSequence",
    "PossessionStep",
    "RolloutResult",
    "SimulationConfig",
    "StepOutcome",
    "StyleClass",
    "StyleReport",
    "decide",
    "derive_seed",
    "efficiency",
    "estimate_network",
    "is_p_secure",
    "is_s_efficient",
    "monte_carlo_compare",
    "pareto_frontier",
    "parse_match_state",
    "ranked_options",
    "rollout",
    "run_trials",
    "security",
    "__version__",
]
