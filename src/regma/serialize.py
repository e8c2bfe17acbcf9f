"""File formats and the construction mini-language shared by the CLI.

Graph files: line 1 "n m", then m lines "u v" (0-indexed). Weight files:
m lines of rationals "p/q". Matroid files: line 1 "d n", then d bit rows,
then optionally a LIFT sentinel followed by d integer rows. Catalog names
are accepted wherever a graph file is, prefixed "builtin:".

Matroid expressions: graphic(<graph>[, root]), cographic(<graph>), r10,
dual(X), simplify(X), sum1(X, Y), sum2(X@label, Y@label),
sum3(X@{a,b,c}, Y@{a2,b2,c2}) with the triples paired in order, and
file:<path> for a matroid file.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate

from .catalog import catalog
from .errors import InputError, PreconditionError, RegmaError
from .exact import BitMatrix, IntMatrix, parse_rat
from .graph import MultiGraph
from .matroid import BinaryMatroid, cographic, dual, graphic, r10, simplify, sum1, sum2, sum3


def load_graph(spec: str) -> MultiGraph:
    """A catalog name prefixed builtin:, or a path to a graph file."""
    if spec.startswith("builtin:"):
        try:
            return catalog(spec[len("builtin:"):])
        except PreconditionError as exc:
            raise InputError(str(exc)) from None
    with open(spec, encoding="utf-8") as fh:
        return MultiGraph.parse(fh.read())


def load_weights(path: str, m: int) -> tuple[Fraction, ...]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        vals = [parse_rat(ln) for ln in text.split()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed weight file {path}: {exc}") from None
    if len(vals) != m:
        raise InputError(f"expected {m} weights, got {len(vals)}")
    if any(x < 0 for x in vals):
        raise InputError(f"negative entry in weight file {path}")
    if sum(vals) == 0:
        raise InputError(f"weight file {path} has total 0")
    return tuple(vals)


def format_matroid(m: BinaryMatroid) -> str:
    lines = [f"{m.rank} {m.size}"]
    lines.extend("".join(str(m.rep.at(i, j)) for j in range(m.size))
                 for i in range(m.rank))
    if m.lift is not None:
        lines.append("LIFT")
        lines.extend(" ".join(str(x) for x in m.lift.row(i))
                     for i in range(m.rank))
    return "\n".join(lines)


def parse_matroid(text: str) -> BinaryMatroid:
    """Inverse of format_matroid; malformed text raises InputError."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    try:
        d, n = map(int, lines[0].split() if lines else ())
        rows = [[int(b) for b in ln.replace(" ", "")] for ln in lines[1 : 1 + d]]
        rest = lines[1 + d :]
        lrows = None
        if rest and rest[0] == "LIFT":
            lrows = [[int(x) for x in ln.split()] for ln in rest[1:]]
    except ValueError as exc:
        raise InputError(f"malformed matroid file: {exc}") from None
    if min(d, n) < 0 or len(rows) != d or any(len(r) != n or set(r) - {0, 1} for r in rows):
        raise InputError("bad bit row in matroid file")
    if rest and lrows is None:
        raise InputError(f"matroid file has {len(rest)} lines after its {d} bit rows")
    if lrows is not None and (len(lrows) != d or any(len(r) != n for r in lrows)):
        raise InputError("bad LIFT row in matroid file")
    rep = BitMatrix.from_rows(rows) if d else BitMatrix(0, n, ())
    lift = None
    if lrows is not None:
        lift = IntMatrix.from_rows(lrows) if d else IntMatrix(0, n, ())
    labels = tuple(f"e{i}" for i in range(n))
    try:
        return BinaryMatroid(labels, rep, lift, ("file",))
    except RegmaError as exc:
        raise InputError(f"matroid file: {exc}") from None


_CALL = re.compile(r"^(\w+)\((.*)\)$")
_MAX_NESTING = 100
_ARITY = {"graphic": (1, 2), "cographic": (1, 1), "dual": (1, 1), "simplify": (1, 1),
          "sum1": (2, 2), "sum2": (2, 2), "sum3": (2, 2)}


def parse_matroid_expr(expr: str) -> BinaryMatroid:
    """Recursive-descent parser for the construction DSL."""
    expr = expr.strip()
    if max(accumulate((c in "({") - (c in ")}") for c in expr), default=0) > _MAX_NESTING:
        raise InputError(f"matroid expression nested deeper than {_MAX_NESTING}")
    if expr == "r10":
        return r10()
    if expr.startswith("file:"):
        with open(expr[len("file:"):], encoding="utf-8") as fh:
            return parse_matroid(fh.read())
    m = _CALL.match(expr)
    if not m:
        raise InputError(f"cannot parse matroid expression {expr!r}")
    head, body = m.group(1), m.group(2)
    if head not in _ARITY:
        raise InputError(f"unknown construction {head!r}")
    args = _split_args(body)
    lo, hi = _ARITY[head]
    if not lo <= len(args) <= hi:
        raise InputError(f"wrong number of arguments to {head}: {len(args)}")
    if head == "graphic":
        g = load_graph(args[0])
        if len(args) > 1 and not (args[1].isdecimal() and int(args[1]) < g.n):
            raise InputError(f"graphic root must be a vertex number, got {args[1]!r}")
        return graphic(g, int(args[1]) if len(args) > 1 else 0)
    if head == "cographic":
        return cographic(load_graph(args[0]))
    if head == "dual":
        return dual(parse_matroid_expr(args[0]))
    if head == "simplify":
        return simplify(parse_matroid_expr(args[0]))[0]
    if head == "sum1":
        return sum1(parse_matroid_expr(args[0]), parse_matroid_expr(args[1]))
    (x, s1), (y, s2) = _split_at(args[0]), _split_at(args[1])
    m1, m2 = parse_matroid_expr(x), parse_matroid_expr(y)
    try:  # an unknown label or a selection that cannot be glued
        if head == "sum2":
            return sum2(m1, s1, m2, s2)
        return sum3(m1, _parse_triple(s1), m2, _parse_triple(s2))
    except PreconditionError as exc:
        raise InputError(str(exc)) from None


def _split_args(body: str) -> list[str]:
    out = []
    depth = 0
    cur = []
    for ch in body:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [a for a in out if a]


def _split_at(arg: str) -> tuple[str, str]:
    depth = 0
    for i in range(len(arg) - 1, -1, -1):
        ch = arg[i]
        if ch in ")}":
            depth += 1
        elif ch in "({":
            depth -= 1
        elif ch == "@" and depth == 0:
            return arg[:i].strip(), arg[i + 1 :].strip()
    raise InputError(f"expected expr@selector in {arg!r}")


def _parse_triple(text: str) -> tuple[str, str, str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise InputError("3-sum selector must be {a,b,c}")
    parts = [p.strip() for p in text[1:-1].split(",")]
    if len(parts) != 3:
        raise InputError("3-sum selector needs three labels")
    return tuple(parts)  # type: ignore[return-value]
