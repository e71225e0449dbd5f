"""Line-oriented text formats for concepts and worlds.

Concept files hold one or more blocks:

    concept <name>
    property <id> <degree>
    ...

World files start with a mode line. `independent` is followed by
`<id> <marginal>` lines; `exclusive <n> <m> <k>` stands alone;
`instances` is followed by `<comma-separated ids> <weight>` rows, where a
lone `-` means the row holds no properties. Files are UTF-8 with lines
ending at `\n`, `\r\n` or `\r`; blank lines are ignored and `#` starts a
comment line. Parsing takes linear time and builds each instance row's
mask as the row is read, refusing the file at its 25th distinct id.
"""

from __future__ import annotations

import math
import os
from typing import Iterator

from .errors import IntensionError, ParseError
from .model import (
    Concept,
    WorldModel,
    build_exclusive_world,
    build_independent_world,
    check_degree,
    check_universe,
    world_from_instances,
)


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is not blank or a comment, one at a time."""
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_concepts(text: str, source: str = "<string>") -> dict[str, Concept]:
    """Parse a concept file into a name -> Concept mapping."""
    concepts: dict[str, Concept] = {}
    name: str | None = None
    header_line = 0
    pending: dict[str, float] = {}

    def flush():
        if name is None:
            return
        if not pending:
            raise ParseError(source, header_line, f"concept {name!r} has no properties")
        concepts[name] = Concept(name, tuple(pending.items()))

    for lineno, line in _significant_lines(text):
        tokens = line.split()
        if tokens[0] == "concept":
            if len(tokens) != 2:
                raise ParseError(source, lineno, "expected: concept <name>")
            flush()
            if tokens[1] in concepts:
                raise ParseError(source, lineno, f"duplicate concept {tokens[1]!r}")
            name, header_line, pending = tokens[1], lineno, {}
        elif tokens[0] == "property":
            if name is None:
                raise ParseError(source, lineno, "property line before any concept header")
            if len(tokens) != 3:
                raise ParseError(source, lineno, "expected: property <id> <degree>")
            pid = tokens[1]
            if pid in pending:
                raise ParseError(source, lineno, f"duplicate property {pid!r} in concept {name!r}")
            try:
                degree = float(tokens[2])
            except ValueError:
                raise ParseError(source, lineno, f"bad degree {tokens[2]!r}") from None
            if not 0.0 <= degree <= 1.0:
                raise ParseError(source, lineno, f"degree {tokens[2]} outside [0, 1]")
            pending[pid] = degree
        else:
            raise ParseError(source, lineno, f"unknown directive {tokens[0]!r}")
    flush()
    return concepts


def parse_world(text: str, source: str = "<string>") -> WorldModel:
    """Parse a world file in any of the three modes."""
    body = _significant_lines(text)
    first = next(body, None)
    if first is None:
        raise ParseError(source, 1, "empty world file")
    lineno, header = first
    tokens = header.split()

    if tokens[0] == "independent":
        if len(tokens) != 1:
            raise ParseError(source, lineno, "expected: independent")
        return _parse_independent(body, source, lineno)
    if tokens[0] == "exclusive":
        if len(tokens) != 4:
            raise ParseError(source, lineno, "expected: exclusive <n> <m> <k>")
        extra = next(body, None)
        if extra is not None:
            raise ParseError(source, extra[0], "exclusive worlds take no further lines")
        try:
            n, m, k = (int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(source, lineno, f"bad counts in {header!r}") from None
        world, _, _ = _wrap(source, lineno, build_exclusive_world, n, m, k)
        return world
    if tokens[0] == "instances":
        if len(tokens) != 1:
            raise ParseError(source, lineno, "expected: instances")
        return _parse_instances(body, source, lineno)
    raise ParseError(source, lineno, f"unknown world mode {tokens[0]!r}")


def _parse_independent(body: Iterator[tuple[int, str]], source: str, header_line: int) -> WorldModel:
    marginals: dict[str, float] = {}
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(source, lineno, "expected: <id> <marginal>")
        pid, raw = tokens
        if pid in marginals:
            raise ParseError(source, lineno, f"duplicate property {pid!r}")
        try:
            marginal = float(raw)
        except ValueError:
            raise ParseError(source, lineno, f"bad marginal {raw!r}") from None
        marginals[pid] = _wrap(source, lineno, check_degree, marginal, "marginal")
    if not marginals:
        raise ParseError(source, header_line, "independent world needs at least one property line")
    return _wrap(source, header_line, build_independent_world, list(marginals), list(marginals.values()))


def _parse_instances(body: Iterator[tuple[int, str]], source: str, header_line: int) -> WorldModel:
    bits: dict[str, int] = {}  # id -> 1 << its position, in first-seen order
    masks: list[int] = []
    weights: list[float] = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(source, lineno, "expected: <comma-separated ids or -> <weight>")
        ids_token, raw = tokens
        mask = 0
        for pid in [] if ids_token == "-" else ids_token.split(","):
            bit = bits.get(pid)
            if bit is None:
                if not pid:
                    raise ParseError(source, lineno, f"empty id in {ids_token!r}")
                bits[pid] = bit = 1 << len(bits)
                _wrap(source, header_line, check_universe, bits)  # refuses the 25th id, at the header
            elif mask & bit:
                raise ParseError(source, lineno, f"duplicate property {pid!r} in row")
            mask |= bit
        try:
            weight = float(raw)
        except ValueError:
            raise ParseError(source, lineno, f"bad weight {raw!r}") from None
        if not 0.0 <= weight < math.inf:  # also rejects NaN
            raise ParseError(source, lineno, f"row weight must be finite and nonnegative, got {weight!r}")
        masks.append(mask)
        weights.append(weight)
    if not masks:
        raise ParseError(source, header_line, "instances world needs at least one row")
    return _wrap(source, header_line, world_from_instances, tuple(bits), masks, weights)


def _wrap(source: str, lineno: int, fn, *args):
    try:
        return fn(*args)
    except (IntensionError, ValueError) as exc:
        raise ParseError(source, lineno, str(exc)) from exc


def load_concepts(path: str | os.PathLike) -> dict[str, Concept]:
    with open(path, encoding="utf-8") as fh:
        return parse_concepts(fh.read(), source=str(path))


def load_world(path: str | os.PathLike) -> WorldModel:
    with open(path, encoding="utf-8") as fh:
        return parse_world(fh.read(), source=str(path))
