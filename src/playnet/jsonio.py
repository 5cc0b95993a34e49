"""Canonical file output: stable bytes for logs, reports, and manifests.

Numbers in JSON and CSV artifacts are written with at most six
significant digits, shortest form, integers bare: the same input always produces
the same bytes on every platform, which is what makes golden files and
the determinism checks possible. (In-memory JSON round-trips of core
types stay lossless; the trimming applies to file artifacts only.)
Manifests are the exception: they record every number exactly, in the
shortest form that reads back to the same float, because regenerate()
re-runs the command from them and a config value trimmed to six digits
(29.99999949 read back as 30) can change the rebuilt artifact.

One rule makes a number's text: number_text writes canonical_number's
value as json would, and canonical_dumps, the CSV report and the CLI's
printed numbers use it. Two texts are fixed-decimal instead: compare's
text table (four decimals) and a DOT graph's edge labels (three).
canonical_dumps writes the layout of json.dumps(indent=2) in one walk
over the value, without copying it first; it takes str dict keys only.
It is the one JSON writer: write_artifact writes each manifest with it,
passing exact_number_text as its number rule, so a manifest's bytes are
those of json.dumps(manifest, indent=2) plus a newline. A value that
repeats a few objects many times (a log of many trials, a row per trial)
is encoded once per distinct object: canonical_dumps writes a dict, list
or tuple object that recurs at one depth once and repeats its text, and
an Indexed array of (index, row) pairs as [{"index": i, **row}, ...],
each distinct row encoded once. An Encoded str, the kept text of a
value written at the top level, is written re-indented in its place (a
log keeps each network's text so, see sequence.py).

Files are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial file. write_artifact writes both the
artifact's and its manifest's temporary files before it renames either,
so a failed write leaves the old pair as it was; its docstring says what
a failed rename can still leave.
Each input file (state, config, log) is read by read_input, whose every
ValueError names the file ("state x.json: team[3].x: ..."); its JSON
goes through parse_json, so malformed or too deeply nested input is a
ValueError, never a crash, and each of its objects through check_object.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import sys
from json.encoder import encode_basestring_ascii as _encode_str  # the C escaper behind ensure_ascii


def parse_json(data: bytes | str):
    """json.loads for input from outside: bad or too deeply nested JSON raises ValueError.

    Bytes that do not decode and an integer literal longer than int()
    reads are invalid JSON too. NaN, Infinity and -Infinity parse to
    floats, as json.loads has them: the checks each number goes through
    next (check_real, check_unit, check_int) reject them.
    """
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"invalid JSON: {err}") from None
    except ValueError:  # int() of a literal past the digit limit: json.loads's only other ValueError
        raise ValueError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def check_object(obj: object, allowed, required: tuple, path: str) -> None:
    """Raise unless obj is a JSON object with every required key and no key outside allowed (a set).

    The common case, a dict with exactly the allowed keys, passes at once.
    """
    if type(obj) is dict and obj.keys() == allowed:  # required is a subset of allowed
        return
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if not obj.keys() <= allowed:
        for key in obj:
            if key not in allowed:
                raise ValueError(f"{path}: unexpected key {key!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{path}: missing key {key!r}")


def read_input(kind: str, path, parse):
    """parse(the bytes of the file at path), each ValueError prefixed "{kind} {path}: "."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except ValueError as err:
        raise ValueError(f"{kind} {path}: {err}") from None


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


def exact_number_text(value) -> str:
    """The manifest text of a number, as json.dumps writes it: the shortest that reads back exactly."""
    if isinstance(value, int):
        return int.__repr__(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} has no JSON text")
    return float.__repr__(value)


def canonical_dumps(obj, number=number_text) -> str:
    """Deterministic JSON text for file artifacts (trailing newline included).

    The bytes are those of json.dumps(obj, indent=2) with every number
    written as number(value) writes it, produced in one walk: number_text
    for artifacts and stdout, exact_number_text for manifests. Accepts
    dicts with str keys, lists, tuples, str, int, float, bool and None,
    an Indexed array and an Encoded text; a key that is not a str, or a
    value of any other type, raises TypeError.

    A dict, list or tuple object that recurs at the depth where it was
    first written is encoded once and its text repeated: a log of many
    trials, or a row per trial, costs one encoding per distinct object.
    Each object is kept referenced while the walk runs, so no id is
    reused for another.
    """
    parts: list[str] = []
    put = parts.append
    spans: dict[int, tuple] = {}  # id of a container -> (it, its newline, first and end index in parts)
    texts: dict[int, str] = {}  # id of a container met again at its depth -> its text

    def write(value, newline: str) -> None:
        kind = type(value)  # exact types first, the common case; subclasses fall through
        if kind is float or kind is int:
            put(number(value))
        elif kind is str:
            put(_encode_str(value))
        elif kind is Indexed:
            if not value:
                put("[]")
                return
            inner = newline + "  "
            head = "{" + inner + '  "index": '
            tails: dict[int, str] = {}  # id of a row -> its text after the index
            sep = "[" + inner
            for index, row in value:
                put(sep)
                tail = tails.get(id(row))
                if tail is None:
                    start = len(parts)
                    write({"index": index, **row}, inner)
                    tails[id(row)] = "".join(parts[start + 4 :])  # after "{", key, ": " and the index
                else:
                    put(head)
                    put(number(index))
                    put(tail)
                sep = "," + inner
            put(newline + "]")
        elif kind is Encoded:
            put(value.replace("\n", newline))
        elif isinstance(value, (dict, list, tuple)):
            span = spans.get(id(value))
            if span is not None and span[1] == newline:
                text = texts.get(id(value))
                if text is None:
                    text = texts[id(value)] = "".join(parts[span[2] : span[3]])
                put(text)
                return
            start = len(parts)
            inner = newline + "  "
            if isinstance(value, dict):
                if not value:
                    put("{}")
                    return
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
            else:
                if not value:
                    put("[]")
                    return
                sep = "[" + inner
                for item in value:
                    put(sep)
                    write(item, inner)
                    sep = "," + inner
                put(newline + "]")
            if span is None:
                spans[id(value)] = (value, newline, start, len(parts))
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, str):
            put(_encode_str(value))
        elif isinstance(value, (int, float)):
            put(number(value))
        else:
            raise TypeError(f"cannot canonicalize {type(value).__name__}")

    try:
        write(obj, "\n")
    finally:
        del write  # write's closure holds write: a cycle keeping parts alive until a full collection
    put("\n")
    return "".join(parts)


class Encoded(str):
    """canonical_dumps text of a value at the top level, its final newline cut; written as that value.

    Deeper down each of its newlines takes that depth's indent, which is
    exact: a str value's newlines are escaped, so every newline is layout.
    """

    __slots__ = ()


class Indexed(tuple):
    """(index, row) pairs that canonical_dumps writes as the array of {"index": i, **row}.

    Rows are dicts without an "index" key; a row object that recurs is
    encoded once, and each of its indices put in front of that text.
    """

    __slots__ = ()


_WRITE_SLICE = 1 << 20  # characters encoded per write, so a long text's bytes are never held whole beside it


def _write_temp(path: str, text: str) -> str:
    """Write text to a new temporary sibling of path and return its name; on error it is removed.

    The text is encoded and written one slice at a time; a text no longer
    than a slice is written whole, as its one slice is the text itself.
    The file is created with the mode open(path, "w") would give a new
    file under the process umask; os.replace keeps it.
    """
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start : start + _WRITE_SLICE])
    except BaseException:
        _remove(tmp)
        raise
    return tmp


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def sha256_of_file(data: bytes) -> str:
    """The hex SHA-256 of a file's bytes, as a manifest records an input file; pass the bytes that were read."""
    return hashlib.sha256(data).hexdigest()


def manifest_path(artifact_path) -> str:
    return os.fspath(artifact_path) + ".manifest.json"


def write_artifact(path, text: str, manifest: dict) -> None:
    """Write an artifact and its sibling manifest, each atomically.

    Both are written to temporary siblings before either is renamed into
    place, so a call that fails while writing (a full disk, text that does
    not encode) leaves the old artifact and manifest as they were. Only a
    failed rename can still part them: the manifest is renamed first, and
    if the artifact's rename then fails the new manifest is removed, so
    the old artifact is left without one, never beside a manifest that
    does not describe it. The manifest's numbers are exact
    (exact_number_text), as regenerate needs them. An OSError names path,
    the artifact the caller asked for, never a temporary file's name.
    """
    path = os.fspath(path)
    sibling = manifest_path(path)
    temps = []  # once renamed into place, a temporary file's name is gone and removing it does nothing
    try:
        temps.append(_write_temp(sibling, canonical_dumps(manifest, exact_number_text)))
        temps.append(_write_temp(path, text))
        os.replace(temps[0], sibling)
        try:
            os.replace(temps[1], path)
        except BaseException:
            _remove(sibling)
            raise
    except BaseException as err:
        for tmp in temps:
            _remove(tmp)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, path) from None
        raise
