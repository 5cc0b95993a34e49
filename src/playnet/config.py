"""Tool configuration: every estimator constant and simulation default.

The config file is JSON with three sections (estimators, simulation,
policy); any subset of keys may be given and the rest keep their
built-in defaults. Unknown sections or keys are rejected (by
jsonio.check_object, as in state and log files) so typos do not silently
fall back to defaults. The file path comes from --config or the
PLAYNET_CONFIG environment variable, and every error names it.
AppConfig checks its values by building SimulationConfig and
DecisionPolicy from them, and AppConfig.simulation builds a run's.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .decision import DecisionPolicy
from .estimators import EstimatorParams
from .jsonio import check_object, parse_json, read_input
from .simulate import SimulationConfig
from .style import LinearStyle

CONFIG_ENV_VAR = "PLAYNET_CONFIG"
# each section of a config file and the keys it may hold, the field names and tie_break
_SECTION_KEYS = {
    "estimators": frozenset(f.name for f in dataclasses.fields(EstimatorParams)),
    "simulation": frozenset(("max_steps", "drift_m")),
    "policy": frozenset(("threshold", "tie_break")),
}
_ANY_POLICY = DecisionPolicy(LinearStyle(1, 1))  # a valid policy, so checking a SimulationConfig checks the rest


@dataclass(frozen=True)
class AppConfig:
    estimators: EstimatorParams = EstimatorParams()
    max_steps: int = SimulationConfig.max_steps
    drift_m: float = SimulationConfig.drift_m
    threshold: float = DecisionPolicy.threshold

    def __post_init__(self) -> None:
        # Checked here, not where a subcommand first uses the value, so a
        # bad file or flag fails at load whichever subcommand runs; the
        # threshold last, which simulation() would check first.
        SimulationConfig(_ANY_POLICY, self.estimators, self.max_steps, 0, self.drift_m)
        DecisionPolicy(_ANY_POLICY.style, self.threshold)

    def simulation(self, style: LinearStyle, seed: int = 0) -> SimulationConfig:
        """A run's SimulationConfig: this config's values, the policy of style and the threshold, and seed."""
        policy = DecisionPolicy(style, self.threshold)
        return SimulationConfig(policy, self.estimators, self.max_steps, seed, self.drift_m)

    def to_dict(self) -> dict:
        return {
            "estimators": dataclasses.asdict(self.estimators),
            "simulation": {"max_steps": self.max_steps, "drift_m": self.drift_m},
            "policy": {"threshold": self.threshold},
        }

    @classmethod
    def from_dict(cls, obj: object) -> AppConfig:
        check_object(obj, _SECTION_KEYS.keys(), (), "root")
        for section, keys in _SECTION_KEYS.items():
            check_object(obj.get(section, {}), keys, (), section)
        policy = dict(obj.get("policy", {}))
        # older configs and manifests name the one tie rule there is
        tie_break = policy.pop("tie_break", "lowest_id")
        if tie_break != "lowest_id":
            raise ValueError(f"policy: unknown tie_break {tie_break!r} (known: lowest_id)")
        return cls(EstimatorParams(**obj.get("estimators", {})), **obj.get("simulation", {}), **policy)


def config_path(path: str | None = None) -> str | None:
    """The config file in use: path if given, else PLAYNET_CONFIG, else none."""
    return path if path is not None else os.environ.get(CONFIG_ENV_VAR) or None


def load_config(path: str | None = None) -> AppConfig:
    """Built-in defaults, overridden by the config file if one is named.

    Explicit path wins over the PLAYNET_CONFIG environment variable.
    """
    path = config_path(path)
    if path is None:
        return AppConfig()
    return read_input("config", path, lambda data: AppConfig.from_dict(parse_json(data)))
