"""Flat key-value config files.

Grammar, one entry per line::

    key = value        # trailing comments allowed
    # full-line comment / blank lines ignored

Keys are dotted lowercase identifiers; list-like structures use an index
segment, e.g. ``peak.0.center_nm``.  Values are kept as strings here; the
consumers (generator config, threshold set) do the typing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_kv(path: str | Path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8"))


def dump_kv(entries: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def check_keys(keys: Collection[str], required: Collection[str] = (),
               optional: Collection[str] = (), prefix: str = "") -> None:
    """Reject ``keys`` that lack a ``required`` key or hold one outside both sets.

    A misspelt key must not be dropped in silence.  Messages name each key
    with ``prefix`` in front.
    """
    missing = [prefix + k for k in required if k not in keys]
    if missing:
        raise ValueError(f"missing config keys {missing}")
    unknown = [prefix + k for k in keys if k not in required and k not in optional]
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")


def group_indexed(entries: dict[str, str], prefix: str) -> list[dict[str, str]]:
    """Collect ``prefix.<i>.<field>`` keys into a list of field dicts.

    Indices must form 0..n-1; gaps are an error so silent truncation of a
    config cannot go unnoticed.
    """
    groups: dict[int, dict[str, str]] = {}
    head = prefix + "."
    for key, value in entries.items():
        if not key.startswith(head):
            continue
        rest = key[len(head):]
        idx_s, _, fieldname = rest.partition(".")
        if not fieldname:
            raise ValueError(f"malformed key {key!r}: expected {prefix}.<i>.<field>")
        try:
            idx = int(idx_s)
        except ValueError:
            raise ValueError(f"malformed index in key {key!r}") from None
        groups.setdefault(idx, {})[fieldname] = value
    if not groups:
        return []
    if sorted(groups) != list(range(len(groups))):
        raise ValueError(f"{prefix} indices must be contiguous from 0, got {sorted(groups)}")
    return [groups[i] for i in range(len(groups))]
