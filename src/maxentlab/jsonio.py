"""File I/O helpers for the CLI: schema-checked JSON loading with
line/field diagnostics, result serialization, and atomic output writes
(no partial files).

Every output is the text of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline (:func:`dump_json`), written without the stdlib's pure-Python
indenting encoder for the flat lists that make up most of a result.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import InputError


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of the input file at ``path``; a file that cannot be
    opened or is not UTF-8 raises :class:`InputError` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def load_json(path: str | Path) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _fields_json(obj) -> dict:
    """The dataclass ``obj``'s fields as JSON data, keyed by field name.

    Enums become their values, arrays lists, nested results their own
    ``to_json()`` and a tuple of dataclasses (a solver trace) a list of
    their fields.  ``None`` and an empty tuple are left out; other values
    (an identity report's ``details`` dict among them) are shared, not
    copied.
    """
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = [_fields_json(item) for item in value] or None
        elif isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif hasattr(value, "to_json"):
            value = value.to_json()
        if value is not None:
            out[f.name] = value
    return out


_INDENT = "  "
# Exact types whose values the C encoder writes as the indenting encoder
# does; their subclasses and numpy scalars take the stdlib path.
_SCALARS = frozenset((str, int, float, bool, type(None)))
# One C encoder per nesting depth: a flat list at depth d, written with the
# separator that starts each item on a new line indented to d + 1, comes out
# as the indenting encoder's items.  Deeper values take the stdlib path.
_FLAT = tuple(
    json.JSONEncoder(separators=(",\n" + _INDENT * (depth + 1), ": "))
    for depth in range(16)
)


def _stdlib(obj: object, depth: int) -> str:
    """``obj`` as the indenting encoder writes it at ``depth``; JSON text
    holds no raw newline inside a string, so every newline is a line break."""
    return json.dumps(obj, indent=2, sort_keys=True).replace(
        "\n", "\n" + _INDENT * depth
    )


def _write(obj: object, depth: int, out: list[str]) -> None:
    """Append ``obj``'s text at nesting ``depth`` to ``out``.

    Dicts with ``str`` keys and lists or tuples are laid out here, and a
    list whose items are all plain scalars is one C-encoder call; anything
    else (an empty container, a subclass, a numpy scalar, other keys, a
    value nested past the encoder table) goes through :func:`_stdlib`.
    """
    kind = type(obj)
    if depth >= len(_FLAT):
        out.append(_stdlib(obj, depth))
    elif kind in _SCALARS:
        out.append(_FLAT[depth].encode(obj))
    elif kind is dict and obj and all(type(key) is str for key in obj):
        inner = "\n" + _INDENT * (depth + 1)
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], depth + 1, out)
            sep = "," + inner
        out.append("\n" + _INDENT * depth + "}")
    elif (kind is list or kind is tuple) and obj:
        inner = "\n" + _INDENT * (depth + 1)
        if _SCALARS.issuperset(map(type, obj)):
            out.append("[" + inner + _FLAT[depth].encode(obj)[1:-1])
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, depth + 1, out)
                sep = "," + inner
        out.append("\n" + _INDENT * depth + "]")
    else:
        out.append(_stdlib(obj, depth))


def dump_json(obj: object) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for
    byte: two-space indent, sorted keys, ASCII escapes, one scalar per line
    and floats as ``repr`` (``NaN``, ``Infinity``, ``-Infinity`` otherwise)."""
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The temp file is created with mode 0o666 less the umask, as ``open``
    creates a new file, so the output's mode does not depend on how it
    was written.
    """
    path = Path(path)
    tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
