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

One rule makes every number's text: number_text writes
canonical_number's value as json would, and both canonical_dumps and
the CLI's printed numbers use it. canonical_dumps writes the layout of
json.dumps(indent=2) in one walk over the value, without copying it
first; it takes str dict keys only.

Files are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial artifact behind. JSON read from
outside (state, config and log files) goes through parse_json, so
malformed or too deeply nested input is a ValueError, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from json.encoder import encode_basestring_ascii as _encode_str  # the C escaper behind ensure_ascii


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


def number_text(value) -> str:
    """The artifact text of a number: what json writes for canonical_number(value)."""
    value = canonical_number(value)
    return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text for file artifacts (trailing newline included).

    The bytes are those of json.dumps(obj, indent=2) with every number
    written as number_text writes it, produced in one walk. Accepts
    dicts with str keys, lists, tuples, str, int, float, bool and None;
    a key that is not a str, or a value of any other type, raises
    TypeError.
    """
    parts: list[str] = []
    put = parts.append
    floats: dict[float, str] = {}  # floats only: 10**16 == 1e16, but they are written apart

    def write(value, newline: str) -> None:
        kind = type(value)  # exact types first, the common case; subclasses fall through
        if kind is float:
            text = floats.get(value)
            if text is None:
                text = floats[value] = number_text(value)
            put(text)
        elif kind is str:
            put(_encode_str(value))
        elif kind is int:
            put(number_text(value))
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(sep)
                put(_encode_str(key))
                put(": ")
                write(item, inner)
                sep = "," + inner
            put(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(newline + "]")
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, str):
            put(_encode_str(value))
        elif isinstance(value, (int, float)):
            put(number_text(value))
        else:
            raise TypeError(f"cannot canonicalize {type(value).__name__}")

    try:
        write(obj, "\n")
    finally:
        del write  # write's closure holds write: a cycle keeping parts alive until a full collection
    put("\n")
    return "".join(parts)


def atomic_write_text(path, text: str) -> None:
    """Write-to-temp then rename: no partial files on error.

    The temporary file is created with the mode open(path, "w") would
    give a new file under the process umask; os.replace keeps it.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def manifest_path(artifact_path) -> str:
    return os.fspath(artifact_path) + ".manifest.json"


def write_artifact(path, text: str, manifest: dict) -> None:
    """Write an artifact and its sibling manifest atomically."""
    atomic_write_text(path, text)
    atomic_write_text(manifest_path(path), json.dumps(manifest, indent=2) + "\n")
