"""The benchmark's workloads: inputs made from a seed, the requests one
operation sends to finrel, and the check of every answer.

Inputs come from the benchmark's own generators, never from finrel's
samplers, so a change to finrel cannot change what it is measured on.
Answers are checked against frozen reference values or against the
benchmark's own bitmask arithmetic.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional


class Mismatch(Exception):
    """An answer from finrel differs from its reference."""


SURVEY_CSV_HEADER = (
    "# finrel survey csv v1: "
    "n,full,idempotent_full,nontrivial_idempotent,trivial_idempotent,"
    "gamma_idempotent,counterexamples"
)


@dataclass(frozen=True)
class CensusReference:
    """Frozen counts of one survey; the counterexample list is empty."""

    n: int
    mode: str
    full: int
    idempotent_full: int
    nontrivial_idempotent: int
    trivial_idempotent: int
    gamma_idempotent: int
    surjective_idempotent: int
    identity_count: int

    def csv_stdout(self) -> str:
        row = (f"{self.n},{self.full},{self.idempotent_full},{self.nontrivial_idempotent},"
               f"{self.trivial_idempotent},{self.gamma_idempotent},0")
        return f"{SURVEY_CSV_HEADER}\n{row}\n"

    def json_doc(self) -> dict:
        counts = {key: getattr(self, key) for key in (
            "full", "idempotent_full", "nontrivial_idempotent", "trivial_idempotent",
            "gamma_idempotent", "surjective_idempotent", "identity_count")}
        return {"n": self.n, "mode": self.mode, "counts": counts, "counterexamples": []}


CENSUS_N5 = CensusReference(5, "all", 28629151, 33052, 32211, 841, 32211, 14962, 1)
CENSUS_ISO_N4 = CensusReference(4, "up_to_iso", 2340, 80, 71, 9, 71, 44, 1)

LINEAR_POINTS = 5
LINEAR_LENGTH = 40
LINEAR_THREADS = math.comb(LINEAR_LENGTH + LINEAR_POINTS - 1, LINEAR_POINTS - 1)  # 135,751
GAMMA_PROBE_LENGTH = 500

DOCUMENTS = 5000
DOCUMENT_SIZES = (6, 7, 8)
DOCUMENT_DENSITIES = (0.12, 0.2, 0.3)


def verify_census(ref: CensusReference, form: str, rc: int, stdout: str) -> int:
    """Check one survey answer; returns the candidates it reports."""
    if rc != 0:
        raise Mismatch(f"survey exited {rc}")
    if form == "csv":
        if stdout != ref.csv_stdout():
            raise Mismatch(f"survey printed {stdout!r}, expected {ref.csv_stdout()!r}")
        return ref.full
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"survey --json printed invalid JSON: {exc}") from exc
    if doc != ref.json_doc():
        raise Mismatch(f"survey --json printed {doc!r}, expected {ref.json_doc()!r}")
    return ref.full


def run_cli(cli: Any, argv: list[str]) -> tuple[int, str]:
    """Run ``finrel.cli.run`` in-process; returns its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue()


# --- the benchmark's own relation arithmetic --------------------------------


def bits(mask: int) -> list[int]:
    return [y for y in range(mask.bit_length()) if (mask >> y) & 1]


def compose_rows(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for row in f:
        acc = 0
        for y in bits(row):
            acc |= g[y]
        out.append(acc)
    return tuple(out)


def idempotent_power_rows(f: tuple[int, ...]) -> tuple[int, ...]:
    """The idempotent among f, f^2, f^3, ...: the power on the cycle whose
    exponent is a multiple of the cycle length."""
    seen: dict[tuple[int, ...], int] = {}
    powers = [f]
    g, k = f, 1
    while g not in seen:
        seen[g] = k
        g = compose_rows(g, f)
        powers.append(g)
        k += 1
    start = seen[g]
    period = k - start
    return powers[period * ((start + period - 1) // period) - 1]


def transpose_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * n
    for x, row in enumerate(rows):
        for y in bits(row):
            out[y] |= 1 << x
    return tuple(out)


def pairs_of(rows: tuple[int, ...]) -> list[list[int]]:
    return [[x, y] for x, row in enumerate(rows) for y in bits(row)]


def json_text(n: int, rows: tuple[int, ...], rng: Optional[random.Random] = None) -> str:
    pairs = pairs_of(rows)
    if rng is not None:
        rng.shuffle(pairs)
    return json.dumps({"n": n, "pairs": pairs})


def matrix_text(n: int, rows: tuple[int, ...]) -> str:
    return "".join("".join("1" if (row >> y) & 1 else "0" for y in range(n)) + "\n"
                   for row in rows)


@dataclass(frozen=True)
class Document:
    """One input document with the answers the benchmark expects for it."""

    text: str
    n: int
    rows: tuple[int, ...]
    trivial: bool
    surjective: bool
    inverse_rows: tuple[int, ...]


def make_document(index: int, rng: random.Random) -> Document:
    """A random idempotent full relation on 6-8 points, as JSON on even
    indices and as a matrix on odd ones."""
    n = rng.choice(DOCUMENT_SIZES)
    density = rng.choice(DOCUMENT_DENSITIES)
    rows = []
    for _ in range(n):
        row = sum(1 << y for y in range(n) if rng.random() < density)
        rows.append(row or 1 << rng.randrange(n))
    f = idempotent_power_rows(tuple(rows))
    trivial = all(f[a] == 1 << a for row in f for a in bits(row))
    union = 0
    for row in f:
        union |= row
    text = json_text(n, f, rng) if index % 2 == 0 else matrix_text(n, f)
    return Document(text, n, f, trivial, union == (1 << n) - 1, transpose_rows(n, f))


def make_documents(seed: int, count: int = DOCUMENTS) -> list[Document]:
    rng = random.Random(f"documents:{seed}")
    return [make_document(i, rng) for i in range(count)]


# --- workloads ---------------------------------------------------------------


class Workload:
    """One set of inputs and the requests an operation makes from them.

    ``prepare`` makes the inputs; ``requests`` lists what operation number
    ``op`` sends; ``call`` sends one request to finrel and ``verify`` checks
    its answer, returning the items it covered or raising ``Mismatch``.
    ``probe`` runs known defects once, outside the measured operations.

    ``tail_percentile`` is the highest percentile of request latency that
    leaves at least ten requests beyond it in every operation.
    """

    name = ""
    tail_percentile = 50

    def prepare(self, seed: int, workdir: Path) -> None:
        self.fr = importlib.import_module("finrel")
        self.cli = importlib.import_module("finrel.cli")

    def requests(self, op: int) -> list:
        raise NotImplementedError

    def call(self, request: Any) -> Any:
        raise NotImplementedError

    def verify(self, request: Any, answer: Any) -> int:
        raise NotImplementedError

    def probe(self) -> dict[str, str]:
        return {}


class Census(Workload):
    """``finrel survey``; operations alternate between CSV and JSON output."""

    def __init__(self, name: str, ref: CensusReference, flags: list[str]) -> None:
        self.name, self.ref = name, ref
        self.argv = ["survey", "--n", str(ref.n), *flags]

    def requests(self, op: int) -> list:
        return ["csv" if op % 2 == 0 else "json"]

    def call(self, form: str) -> tuple[int, str]:
        return run_cli(self.cli, self.argv + (["--json"] if form == "json" else []))

    def verify(self, form: str, answer: tuple[int, str]) -> int:
        return verify_census(self.ref, form, *answer)


class Threads(Workload):
    """``finrel mahavier --count-only`` on a relabeled linear order."""

    name = "threads"

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        rng = random.Random(f"threads:{seed}")
        perm = rng.sample(range(LINEAR_POINTS), LINEAR_POINTS)
        rows = [0] * LINEAR_POINTS
        for x in range(LINEAR_POINTS):
            for y in range(x + 1):
                rows[perm[x]] |= 1 << perm[y]
        rows = tuple(rows)
        self.linear = workdir / "linear.rel"
        self.linear.write_text(json_text(LINEAR_POINTS, rows, rng) if rng.random() < 0.5
                               else matrix_text(LINEAR_POINTS, rows))
        a, b = rng.sample(range(2), 2)
        self.gamma = workdir / "gamma.json"
        self.gamma.write_text(json.dumps({"n": 2, "pairs": [[a, a], [a, b], [b, b]]}))

    def requests(self, op: int) -> list:
        return [self.linear]

    def call(self, path: Path) -> tuple[int, str]:
        return run_cli(self.cli, ["mahavier", str(path), "--length", str(LINEAR_LENGTH),
                                  "--count-only"])

    def verify(self, path: Path, answer: tuple[int, str]) -> int:
        return verify_thread_count(answer, LINEAR_THREADS)

    def probe(self) -> dict[str, str]:
        """The gamma relation at length 500, which overflows the recursion
        limit today; once it returns, its count must be 501."""
        key = f"mahavier gamma --length {GAMMA_PROBE_LENGTH} --count-only"
        try:
            answer = run_cli(self.cli, ["mahavier", str(self.gamma), "--length",
                                        str(GAMMA_PROBE_LENGTH), "--count-only"])
        except Exception as exc:  # the known defect: name it and go on
            return {key: type(exc).__name__}
        verify_thread_count(answer, GAMMA_PROBE_LENGTH + 1)
        return {key: "ok"}


def verify_thread_count(answer: tuple[int, str], expected: int) -> int:
    rc, stdout = answer
    if rc != 0 or stdout != f"{expected}\n":
        raise Mismatch(f"mahavier exited {rc} printing {stdout!r}, expected {expected}")
    return expected


class Documents(Workload):
    """Parse, profile, witness and round-trip a stream of documents."""

    name = "documents"
    tail_percentile = 99

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.documents = make_documents(seed)

    def requests(self, op: int) -> list:
        return self.documents

    def call(self, doc: Document) -> tuple:
        fr = self.fr
        f = fr.parse_relation(doc.text)
        report = fr.properties(f)
        witness = fr.gamma_witness(f) if report.trivial is False else None
        inv = fr.inverse(f)
        back = tuple(fr.parse_relation(fr.serialize_relation(inv, form))
                     for form in ("json", "matrix"))
        return f, report, witness, back

    def verify(self, doc: Document, answer: tuple) -> int:
        f, report, witness, back = answer
        if (f.n, f.rows) != (doc.n, doc.rows):
            raise Mismatch(f"parsed {f!r} from {doc.text!r}")
        profile = (report.full, report.idempotent, report.trivial, report.surjective)
        if profile != (True, True, doc.trivial, doc.surjective):
            raise Mismatch(f"properties {report!r} for {doc.text!r}")
        if not doc.trivial:
            u, v = witness.pair
            rows = doc.rows
            if u == v or not ((rows[u] >> u) & (rows[u] >> v) & (rows[v] >> v) & 1):
                raise Mismatch(f"gamma pair ({u}, {v}) is not a gamma pattern of {doc.text!r}")
        for g in back:
            if g.rows != doc.inverse_rows:
                raise Mismatch(f"inverse did not round-trip for {doc.text!r}")
        return 1


WORKLOADS = {w.name: w for w in (
    Census("census-n5", CENSUS_N5, ["--workers", "1"]),
    Census("census-iso-n4", CENSUS_ISO_N4, ["--up-to-iso"]),
    Threads(),
    Documents(),
)}
