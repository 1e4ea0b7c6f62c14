"""File I/O helpers for the CLI: schema-checked JSON loading with
line/field diagnostics, result serialization, and atomic output writes
(no partial files).

Every output is the text of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline (:func:`dump_json`).  Results hold what a run computed, not
copies of its input files.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import fields
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


def dump_json(obj: object) -> str:
    """``obj`` as JSON text: two-space indent, sorted keys, ASCII escapes,
    one scalar per line, floats as ``repr`` (``NaN``, ``Infinity``,
    ``-Infinity`` otherwise) and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
