"""Reading and writing relation documents.

Two interchangeable forms describe the same relation: a JSON object
{"n": k, "pairs": [[x, y], ...]} for tooling, and a k-line 0/1 matrix for
humans (row = source point, column = target point).  Parsing either form
yields the same packed relation; serialization round-trips.  Each parser
checks every pair or cell once and builds its rows itself, so it returns a
``Relation._trusted``; the JSON writer prints what ``json.dumps`` would.

On at most 8 points a row is one byte, and tables built at import serve both
directions: each writer takes one lookup per row, ``_PAIRS[x][r]`` the JSON
text of row r of point x or ``_LINES[n][r]`` its line on n points.

Both readers take one rule on 1-8 points: split the text into pieces, look
each piece up in a dict for its width, and send any miss to the general path.
A matrix is split into lines, and ``_ROWS_OF[n]`` maps each line of n 0/1
cells, with any line end, to its row; blanks, blank lines, wider carriers and
malformed lines take the line-by-line path.  A JSON text laid out exactly as
``json.dumps`` writes it, with at least one pair, is split at "], [" after its
head, at most n*n times, so a longer text leaves its rest in one last piece,
which misses; ``_BIT_OF[n]`` maps each "x, y" to the bit 8*x + y, and the rows
are the bytes of the sum.  Distinct powers of two add without a carry, so a
duplicate shows as a popcount below the piece count.  A miss sends the text as
given to ``json.loads``, so every diagnostic is the one that path gives.
"""

from __future__ import annotations

import json

from .core import Relation

# largest carrier a JSON document may declare: n pairs can make rows of n*n/2
# bits in all, 1.3 MB from a 0.06 MB document at 4,096 points
MAX_CARRIER = 4_096

# built by doubling: step k extends the rows on k points to those on k + 1;
# after it, for r < 2**(k + 1), _CELLS[r] is the line of r on k + 1 points and
# _ROW_PAIRS[r] its JSON text with "x" for the point; one str.replace per
# point, cheaper at import than a format per entry, gives _PAIRS[x]
_CELLS, _ROWS_OF, _ROW_PAIRS = [""], [{}], [""]
for _k in range(8):
    _CELLS = [c + "0" for c in _CELLS] + [c + "1" for c in _CELLS]
    _ROWS_OF.append(dict(zip(_CELLS, range(len(_CELLS)))))
    _ROW_PAIRS += [f"{p}, [x, {_k}]".removeprefix(", ") for p in _ROW_PAIRS]
_LINES = [[cells + "\n" for cells in rows] for rows in _ROWS_OF]
_PAIRS = ["\n".join(_ROW_PAIRS).replace("x", str(x)).split("\n") for x in range(8)]

# the JSON layout json.dumps writes on 1-8 points: its head, through the first
# pair's "[", and each pair's "x, y", mapped to bit 8*x + y
_HEAD = {f'{{"n": {n}, "pairs": [[': n for n in range(1, 9)}
_BIT_OF = [{f"{x}, {y}": 1 << 8 * x + y for x in range(n) for y in range(n)} for n in range(9)]


class RelationParseError(ValueError):
    """A relation document was malformed; the message pins down where."""


def _parse_json(text: str) -> Relation:
    trimmed = text.strip(" \t\n\r")  # JSON's whitespace only: json.loads rejects the rest
    n = _HEAD.get(trimmed[:20])
    if n and trimmed.endswith("]]}"):
        pieces = trimmed[20:-3].split("], [", n * n)
        try:
            mask = sum(map(_BIT_OF[n].__getitem__, pieces))
        except KeyError:
            mask = 0  # a popcount below every piece count
        if mask.bit_count() == len(pieces):
            return Relation._trusted(n, tuple(mask.to_bytes(n, "little")))
    try:
        # an object if it parses: parse_relation sends only texts that lstrip() to
        # "{", and str.lstrip() strips all of JSON's whitespace and more
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise RelationParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise RelationParseError("malformed JSON: nested too deeply") from exc
    if "n" not in doc:
        raise RelationParseError("missing field 'n'")
    if "pairs" not in doc:
        raise RelationParseError("missing field 'pairs'")
    n = doc["n"]  # json.loads builds exact types, and `type(v) is int` rejects true and false
    if type(n) is not int:
        raise RelationParseError("field 'n': expected an integer")
    if n < 1:
        raise RelationParseError("field 'n': carrier must be nonempty")
    if n > MAX_CARRIER:
        raise RelationParseError(f"field 'n': carrier of size {n} exceeds the limit {MAX_CARRIER}")
    pairs = doc["pairs"]
    if type(pairs) is not list:
        raise RelationParseError("field 'pairs': expected a list of [x, y] pairs")
    rows = [0] * n
    for i, item in enumerate(pairs):
        if (type(item) is not list or len(item) != 2
                or type(item[0]) is not int or type(item[1]) is not int):
            raise RelationParseError(f"pairs[{i}]: expected a pair [x, y] of integers")
        x, y = item
        if not (0 <= x < n and 0 <= y < n):
            raise RelationParseError(f"pairs[{i}]: point out of range for carrier of size {n}")
        if (rows[x] >> y) & 1:  # set only by an earlier equal pair
            raise RelationParseError(f"pairs[{i}]: duplicate pair [{x}, {y}]")
        rows[x] |= 1 << y
    return Relation._trusted(n, tuple(rows))


def _parse_matrix(text: str) -> Relation:
    lines = text.splitlines()
    # n lines of n 0/1 cells, with any line ends, by table; a blank or a blank line misses
    if 0 < len(lines) <= 8:
        try:
            return Relation._trusted(len(lines),
                                     tuple(map(_ROWS_OF[len(lines)].__getitem__, lines)))
        except KeyError:
            pass
    # each nonblank line with its number among all lines, blank ones counted
    numbered = [(x, cells) for x, cells in enumerate(map(str.strip, lines), start=1) if cells]
    if not numbered:
        raise RelationParseError("empty document: carrier must be nonempty")
    n = len(numbered)
    rows = []
    for x, cells in numbered:
        if len(cells) != n:
            raise RelationParseError(
                f"line {x}: expected {n} columns to match {n} rows, got {len(cells)}")
        if cells.strip("01"):  # any other character; int() also reads "_" and non-ASCII digits
            y = next(y for y, ch in enumerate(cells) if ch not in "01")
            raise RelationParseError(f"line {x}, column {y + 1}: expected '0' or '1'")
        rows.append(int(cells[::-1], 2))
    return Relation._trusted(n, tuple(rows))


def parse_relation(text: str) -> Relation:
    """Parse a relation document in JSON or matrix form."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_matrix(text)


def serialize_relation(f: Relation, form: str = "json") -> str:
    """Render a relation; ``parse_relation`` inverts this exactly."""
    n = f.n
    if form == "json":
        # the text json.dumps gives for {"n": n, "pairs": [[x, y], ...]}, without the dict;
        # a lookup per row on at most 8 points, an empty row's "" dropped; on
        # sparse wide rows a piece per pair is cheaper
        body = ", ".join(filter(None, map(list.__getitem__, _PAIRS, f.rows)) if n <= 8
                         else [f"[{x}, {y}]" for x, y in f.pairs()])
        return f'{{"n": {n}, "pairs": [{body}]}}'
    if form == "matrix":
        if n <= 8:
            return "".join(map(_LINES[n].__getitem__, f.rows))
        cells = f"0{n}b"  # bit y of a row is column y, counted from the left
        return "".join([format(row, cells)[::-1] + "\n" for row in f.rows])
    raise ValueError(f"unknown form {form!r}")
