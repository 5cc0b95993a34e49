"""Canonical file output: stable bytes for logs, reports, and manifests.

Numbers in file artifacts are written with at most six significant
digits, shortest form, integers bare: the same input always produces
the same bytes on every platform, which is what makes golden files and
the determinism checks possible. (In-memory JSON round-trips of core
types stay lossless; the trimming applies to file artifacts only.)
Manifests are the exception: they record every number exactly, in the
shortest form that reads back to the same float, because regenerate()
re-runs the command from them and a config value trimmed to six digits
(29.99999949 read back as 30) can change the rebuilt artifact.

Files are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial artifact behind. JSON read from
outside (state, config and log files) goes through parse_json, so
malformed or too deeply nested input is a ValueError, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone

TOOL_NAME = "playnet"


def parse_json(data: bytes | str, where: str = "", parse_constant=None):
    """json.loads for input from outside: bad or too deeply nested JSON raises ValueError.

    where prefixes the message (e.g. "log run.json: "); parse_constant
    is json.loads' hook for NaN and Infinity.
    """
    try:
        return json.loads(data, parse_constant=parse_constant)
    except json.JSONDecodeError as err:
        raise ValueError(f"{where}invalid JSON: {err}") from None
    except RecursionError:
        raise ValueError(f"{where}invalid JSON: nested too deeply") from None


def canonical_number(value: float):
    """Shortest stable form: integers bare, floats trimmed to 6 significant digits."""
    if isinstance(value, int):
        return value
    if value == int(value) and abs(value) < 1e15:
        return int(value)
    return float(f"{value:.6g}")


def canonicalize(obj):
    """Recursively apply canonical number formatting; dict order is preserved."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, float)):
        return canonical_number(obj)
    if isinstance(obj, dict):
        return {k: canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text for file artifacts (trailing newline included)."""
    return json.dumps(canonicalize(obj), indent=2) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write-to-temp then rename: no partial files on error."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one file artifact exactly.

    Written alongside every simulation/comparison/export output as
    <artifact>.manifest.json. The timestamp documents when the run
    happened; regeneration uses only command, config, run, and inputs.
    """

    command: str
    config: dict          # fully resolved AppConfig.to_dict()
    run: dict             # command-specific knobs: style(s), threshold, trials, seed, ...
    inputs: dict          # name -> {"path": ..., "sha256": ...}
    version: str
    timestamp: str

    @classmethod
    def build(cls, command: str, config: dict, run: dict, inputs: dict, version: str) -> RunManifest:
        return cls(
            command=command,
            config=config,
            run=run,
            inputs=inputs,
            version=version,
            timestamp=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        )

    def to_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "run": self.run,
            "inputs": self.inputs,
            "timestamp": self.timestamp,
        }


def manifest_path(artifact_path) -> str:
    return os.fspath(artifact_path) + ".manifest.json"


def write_artifact(path, text: str, manifest: RunManifest) -> None:
    """Write an artifact and its sibling manifest atomically."""
    atomic_write_text(path, text)
    atomic_write_text(manifest_path(path), json.dumps(manifest.to_dict(), indent=2) + "\n")
