"""Workload trace recording and replay.

Section 3.1: "The workload logs can be collected for pretraining to
enhance system scalability, learning stability and avoid further online
learning costs."  This module is that logging path: record an operation
stream to a newline-delimited text file, replay it later (for
unsupervised pretraining against a shadow engine, or for reproducing a
production access pattern in tests).

Format: one operation per line —

    g <key>              point lookup
    s <key> <length>     range scan
    p <key> <value>      put
    d <key>              delete

Keys must be non-empty and free of whitespace; put values may hold
spaces but no line breaks.  The writer rejects anything else, so every
trace it writes replays to the operations it was given.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.errors import ConfigError
from repro.workloads.generator import Operation

PathLike = Union[str, Path]

_KIND_TO_CODE = {"get": "g", "scan": "s", "put": "p", "delete": "d"}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}


def _encode(op: Operation, lineno: int) -> str:
    code = _KIND_TO_CODE.get(op.kind)
    if code is None:
        raise ConfigError(f"unknown operation kind {op.kind!r}")
    key = op.key
    if key.split() != [key]:
        raise ConfigError(
            f"trace keys must be non-empty and whitespace-free, "
            f"got {key!r} for trace line {lineno}"
        )
    if op.kind == "scan":
        return f"s {key} {op.length}"
    if op.kind == "put":
        value = op.value or ""
        if "\n" in value or "\r" in value:
            raise ConfigError(
                f"trace values must not contain line breaks "
                f"(trace line {lineno})"
            )
        return f"p {key} {value}"
    return f"{code} {key}"


def _decode(line: str, lineno: int) -> Operation:
    parts = line.rstrip("\n").split(" ", 2)
    code = parts[0]
    kind = _CODE_TO_KIND.get(code)
    if kind is None or len(parts) < 2 or not parts[1]:
        raise ConfigError(f"bad trace line {lineno}: {line!r}")
    key = parts[1]
    if kind == "scan":
        if len(parts) != 3:
            raise ConfigError(f"bad scan line {lineno}: {line!r}")
        try:
            length = int(parts[2])
        except ValueError:
            raise ConfigError(
                f"bad scan length on trace line {lineno}: {line!r}"
            ) from None
        return Operation("scan", key, length=length)
    if kind == "put":
        value = parts[2] if len(parts) == 3 else ""
        return Operation("put", key, value=value)
    if len(parts) == 3:
        raise ConfigError(f"extra field on trace line {lineno}: {line!r}")
    return Operation(kind, key)


def record_trace(ops: Iterable[Operation], path: PathLike) -> int:
    """Write an operation stream to ``path``; returns operations written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, op in enumerate(ops, start=1):
            fh.write(_encode(op, count))
            fh.write("\n")
    return count


def replay_trace(path: PathLike) -> Iterator[Operation]:
    """Lazily yield the operations recorded at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield _decode(line, lineno)


def load_trace(path: PathLike) -> List[Operation]:
    """Eagerly load a recorded trace."""
    return list(replay_trace(path))
