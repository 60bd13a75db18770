"""Reading and writing relation documents.

Two interchangeable forms describe the same relation: a JSON object
{"n": k, "pairs": [[x, y], ...]} for tooling, and a k-line 0/1 matrix for
humans (row = source point, column = target point).  Parsing either form
yields the same packed relation; serialization round-trips.
"""

from __future__ import annotations

import json

from .core import Relation

MAX_CARRIER = 65_536  # largest carrier a JSON document may declare


class RelationParseError(ValueError):
    """A relation document was malformed; the message pins down where."""


def _parse_json(text: str) -> Relation:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise RelationParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise RelationParseError("malformed JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise RelationParseError("top-level JSON value must be an object")
    if "n" not in doc:
        raise RelationParseError("missing field 'n'")
    if "pairs" not in doc:
        raise RelationParseError("missing field 'pairs'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise RelationParseError("field 'n': expected an integer")
    if n < 1:
        raise RelationParseError("field 'n': carrier must be nonempty")
    if n > MAX_CARRIER:
        raise RelationParseError(f"field 'n': carrier of size {n} exceeds the limit {MAX_CARRIER}")
    pairs = doc["pairs"]
    if not isinstance(pairs, list):
        raise RelationParseError("field 'pairs': expected a list of [x, y] pairs")
    rows = [0] * n
    seen = set()
    for i, item in enumerate(pairs):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise RelationParseError(f"pairs[{i}]: expected a pair [x, y] of integers")
        x, y = item
        if not (0 <= x < n and 0 <= y < n):
            raise RelationParseError(
                f"pairs[{i}]: point out of range for carrier of size {n}"
            )
        if (x, y) in seen:
            raise RelationParseError(f"pairs[{i}]: duplicate pair [{x}, {y}]")
        seen.add((x, y))
        rows[x] |= 1 << y
    return Relation(n, tuple(rows))


def _parse_matrix(text: str) -> Relation:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RelationParseError("empty document: carrier must be nonempty")
    n = len(lines)
    rows = []
    for x, line in enumerate(lines, start=1):
        cells = line.strip()
        if len(cells) != n:
            raise RelationParseError(
                f"line {x}: expected {n} columns to match {n} rows, got {len(cells)}"
            )
        row = 0
        for y, ch in enumerate(cells):
            if ch == "1":
                row |= 1 << y
            elif ch != "0":
                raise RelationParseError(f"line {x}, column {y + 1}: expected '0' or '1'")
        rows.append(row)
    return Relation(n, tuple(rows))


def parse_relation(text: str) -> Relation:
    """Parse a relation document in JSON or matrix form."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_matrix(text)


def serialize_relation(f: Relation, form: str = "json") -> str:
    """Render a relation; ``parse_relation`` inverts this exactly."""
    if form == "json":
        return json.dumps(relation_to_document(f))
    if form == "matrix":
        out = []
        for row in f.rows:
            out.append("".join("1" if (row >> y) & 1 else "0" for y in range(f.n)))
            out.append("\n")
        return "".join(out)
    raise ValueError(f"unknown form {form!r}")


def relation_to_document(f: Relation) -> dict:
    """The JSON-form document as a plain dict."""
    return {"n": f.n, "pairs": [list(p) for p in f.pairs()]}
