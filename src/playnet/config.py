"""Tool configuration: every estimator constant and simulation default.

The config file is JSON with three sections (estimators, simulation,
policy); any subset of keys may be given and the rest keep their
built-in defaults. Unknown sections or keys are rejected so typos do not
silently fall back to defaults. The file path comes from --config or the
PLAYNET_CONFIG environment variable.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .estimators import EstimatorParams
from .jsonio import parse_json
from .network import check_int, check_real, check_unit

CONFIG_ENV_VAR = "PLAYNET_CONFIG"


@dataclass(frozen=True)
class AppConfig:
    estimators: EstimatorParams = EstimatorParams()
    max_steps: int = 30
    drift_m: float = 2.0
    threshold: float = 0.5  # tool convention for the shoot threshold

    def __post_init__(self) -> None:
        # Checked here, not where a subcommand first uses the value, so a
        # bad file or flag fails at load whichever subcommand runs.
        check_int(self.max_steps, "max_steps", 1)
        check_real(self.drift_m, "drift_m", 0.0)
        check_unit(self.threshold, "threshold")

    def to_dict(self) -> dict:
        return {
            "estimators": dataclasses.asdict(self.estimators),
            "simulation": {"max_steps": self.max_steps, "drift_m": self.drift_m},
            "policy": {"threshold": self.threshold},
        }

    @classmethod
    def from_dict(cls, obj: object) -> AppConfig:
        if not isinstance(obj, dict):
            raise ValueError("config: expected a JSON object")
        known_sections = ("estimators", "simulation", "policy")
        for section in obj:
            if section not in known_sections:
                raise ValueError(f"config: unknown section {section!r}")
        est_obj = obj.get("estimators", {})
        if not isinstance(est_obj, dict):
            raise ValueError("config.estimators: expected an object")
        est_fields = {f.name for f in dataclasses.fields(EstimatorParams)}
        for key in est_obj:
            if key not in est_fields:
                raise ValueError(f"config.estimators: unknown key {key!r}")
        sim_obj = obj.get("simulation", {})
        if not isinstance(sim_obj, dict):
            raise ValueError("config.simulation: expected an object")
        for key in sim_obj:
            if key not in ("max_steps", "drift_m"):
                raise ValueError(f"config.simulation: unknown key {key!r}")
        pol_obj = obj.get("policy", {})
        if not isinstance(pol_obj, dict):
            raise ValueError("config.policy: expected an object")
        for key in pol_obj:
            if key not in ("threshold", "tie_break"):
                raise ValueError(f"config.policy: unknown key {key!r}")
        # older configs and manifests name the one tie rule there is
        tie_break = pol_obj.get("tie_break", "lowest_id")
        if tie_break != "lowest_id":
            raise ValueError(f"config.policy: unknown tie_break {tie_break!r} (known: lowest_id)")
        defaults = cls()
        return cls(
            estimators=EstimatorParams(**est_obj),
            max_steps=sim_obj.get("max_steps", defaults.max_steps),
            drift_m=sim_obj.get("drift_m", defaults.drift_m),
            threshold=pol_obj.get("threshold", defaults.threshold),
        )


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
    with open(path, "rb") as fh:
        obj = parse_json(fh.read(), f"config {path}: ")
    return AppConfig.from_dict(obj)
