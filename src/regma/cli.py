"""Command-line entry point: systole, cogirth, c-rep, verify-tables,
gen-cubic, involutions6, embed, matroid-build, reduce.

Human-readable summaries go to stderr, machine JSON to stdout (or --out).
Exit codes: 0 ok, 1 computational failure or failed verification, 2 usage
or malformed input.
Every emitted certificate can be re-verified with --check, which runs only
the cheap verification direction. All checks go through _check and all
results through _emit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cubicgen import generate_cubic
from .errors import InputError, PreconditionError, RegmaError
from .exact import format_rat, parse_rat
from .graph import Cycle, betti, reduce_to_cubic
from .involutions import InvolutionSet, six_involutions, verify_involutions
from .matroid import WeightedRep
from .optimize import (CogirthResult, SystoleResult, c_of_rep, cogirth,
                       systole, systole_weighted, verify_cogirth,
                       verify_systole)
from .serialize import (format_matroid, load_graph, load_weights,
                        parse_matroid_expr)
from .surface import EmbeddingCertificate, embeds_in, verify_certificate
from .tables import verify_tables


def _emit(args, payload) -> None:
    """Write a result to --out, or else to stdout: text as is, anything else
    as indented JSON."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _check(path: str, build, verify) -> int:
    """Re-verify the certificate file at path and print the verdict.
    build(text) reads the certificate; text whose JSON or shape does not fit
    raises InputError. verify(cert) returns the verdict and a note for the
    verdict line (empty for none)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        cert = build(text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            RecursionError) as exc:
        raise InputError(f"malformed certificate {path}: {exc!r}") from None
    ok, note = verify(cert)
    verdict = f"certificate {'ok' if ok else 'FAILED'}"
    print(f"{verdict}: {note}" if note else verdict, file=sys.stderr)
    return 0 if ok else 1


def _rat(x) -> Fraction:
    if not isinstance(x, str):
        raise TypeError(f"expected a rational as a string, got {x!r}")
    return parse_rat(x)


def _rats(xs, count: int) -> tuple[Fraction, ...]:
    if not isinstance(xs, list) or len(xs) != count:
        raise ValueError(f"expected a list of {count} rationals")
    return tuple(_rat(x) for x in xs)


def _edge_ids(xs, m: int) -> frozenset[int]:
    if not isinstance(xs, list) or not all(type(x) is int and 0 <= x < m for x in xs):
        raise ValueError(f"expected a list of edge ids below {m}, got {xs!r}")
    return frozenset(xs)


def _systole_certificate(text: str, m: int) -> SystoleResult:
    data = json.loads(text)
    return SystoleResult(
        _rat(data["value"]),
        _rats(data["weights"], m),
        tuple(Cycle(_edge_ids(c, m)) for c in data["tight_cycles"]),
        tuple((Cycle(_edge_ids(c, m)), _rat(y)) for c, y in data["dual"]),
    )


def _cmd_systole(args) -> int:
    g = load_graph(args.graph)
    if args.weights:
        w = load_weights(args.weights, g.m)
        value, cyc = systole_weighted(g, w)
        print(f"sys(G, w) = {format_rat(value)}", file=sys.stderr)
        _emit(args, {"value": format_rat(value),
                     "witness_cycle": sorted(cyc.edge_ids)})
        return 0
    if args.check:
        return _check(args.check, lambda text: _systole_certificate(text, g.m),
                      lambda res: (verify_systole(g, res), ""))
    res = systole(g)
    print(f"sys(G) = {format_rat(res.value)}", file=sys.stderr)
    _emit(args, {
        "value": format_rat(res.value),
        "weights": [format_rat(x) for x in res.weights],
        "tight_cycles": [sorted(c.edge_ids) for c in res.tight_cycles],
        "dual": [[sorted(c.edge_ids), format_rat(y)] for c, y in res.dual_dist],
    })
    return 0


def _cogirth_certificate(text: str, n: int) -> CogirthResult:
    data = json.loads(text)
    # Without "dual" the certificate is one-sided and fails verification.
    return CogirthResult(
        _rat(data["value"]),
        _rats(data["weights"], n),
        int(data["witness"], 2),
        tuple((int(v, 2), _rat(y)) for v, y in data.get("dual", [])),
    )


def _cmd_cogirth(args) -> int:
    m = parse_matroid_expr(args.matroid)
    if args.check:
        return _check(args.check, lambda text: _cogirth_certificate(text, m.size),
                      lambda res: (verify_cogirth(m, res), ""))
    res = cogirth(m)
    print(f"c(M) = {format_rat(res.value)}", file=sys.stderr)
    _emit(args, {"value": format_rat(res.value),
                 "weights": [format_rat(x) for x in res.weights],
                 "witness": format(res.witness, f"0{m.rank}b"),
                 "dual": [[format(v, f"0{m.rank}b"), format_rat(y)] for v, y in res.dual]})
    return 0


def _cmd_c_rep(args) -> int:
    m = parse_matroid_expr(args.matroid)
    if m.lift is None:
        print("matroid carries no integer lift", file=sys.stderr)
        return 1
    if args.mult:
        mult = load_weights(args.mult, m.size)
        rep = WeightedRep(m.lift, mult)
    else:
        rep = WeightedRep.uniform(m.lift)
    value, witness = c_of_rep(rep)
    print(f"c(H, lambda) = {format_rat(value)}", file=sys.stderr)
    _emit(args, {"value": format_rat(value),
                 "witness": format(witness, f"0{m.rank}b")})
    return 0


def _cmd_embed(args) -> int:
    g = load_graph(args.graph)
    face = None
    if args.face:
        ids = args.face.split(",")
        if not all(x.strip().isdecimal() and int(x) < g.m for x in ids):
            raise InputError(f"--face needs edge ids below {g.m}, got {args.face!r}")
        edges = [int(x) for x in ids]
        if len(set(edges)) < len(edges):
            raise InputError(f"--face {args.face!r} repeats an edge id")
        try:
            face = Cycle.from_edges(g, edges)
        except PreconditionError as exc:
            raise InputError(f"--face {args.face!r}: {exc}") from None
    if args.check:
        def verify(cert: EmbeddingCertificate) -> tuple[bool, str]:
            # the certificate must answer the question asked: chi >= --chi,
            # and all signs +1 unless --nonorientable
            ok = (verify_certificate(g, cert, face) and cert.chi >= args.chi
                  and (args.nonorientable or cert.rotation.orientable()))
            return ok, ""

        return _check(args.check, EmbeddingCertificate.from_json, verify)
    orientable = not args.nonorientable
    cert = embeds_in(g, args.chi, orientable, face=face, want_max=args.max_chi)
    if cert is None:
        print("no embedding found (exhaustive)", file=sys.stderr)
        return 1
    print(f"embedded with chi = {cert.chi}, "
          f"{'orientable' if cert.rotation.orientable() else 'nonorientable'}, "
          f"{len(cert.faces)} faces", file=sys.stderr)
    _emit(args, cert.to_json())
    return 0


def _involution_certificate(text: str) -> InvolutionSet:
    data = json.loads(text)
    return InvolutionSet(tuple(int(v, 2) for v in data["vectors"]),
                         tuple(data["counts"]))


def _cmd_involutions6(args) -> int:
    m = parse_matroid_expr(args.matroid)
    if m.size == 0:
        raise PreconditionError("involutions6 of a matroid with no elements")
    mult = (load_weights(args.mult, m.size) if args.mult
            else [Fraction(1, m.size)] * m.size)

    def verify(s: InvolutionSet) -> tuple[bool, str]:
        ok, ksum, bound = verify_involutions(m, mult, s)
        return ok, f"{format_rat(ksum)} <= {format_rat(bound)}"

    if args.check:
        return _check(args.check, _involution_certificate, verify)
    s = six_involutions(m)
    ok, sums = verify(s)
    print(f"six involutions found; sum of codimensions {sums}", file=sys.stderr)
    _emit(args, {"vectors": [format(v, "06b") for v in s.vs],
                 "counts": list(s.counts),
                 "kernel_count_min": min(s.counts)})
    return 0 if ok else 1


def _cmd_gen_cubic(args) -> int:
    if args.n < 4 or args.n % 2:
        raise InputError(f"--n must be an even number of at least 4, got {args.n}")
    count = 0
    for g in generate_cubic(args.n, args.min_girth, args.three_connected):
        count += 1
        print(g.format())
        print()
    print(f"{count} graphs", file=sys.stderr)
    return 0


def _cmd_reduce(args) -> int:
    g = load_graph(args.graph)
    reduced, trace = reduce_to_cubic(g)
    print(f"reduced to {reduced.n} vertices, {reduced.m} edges in "
          f"{len(trace)} steps", file=sys.stderr)
    _emit(args, {"graph": reduced.format(),
                 "betti": betti(reduced),
                 "steps": [[s.kind, list(s.data)] for s in trace]})
    return 0


def _cmd_matroid_build(args) -> int:
    m = parse_matroid_expr(args.expr)
    print(f"rank {m.rank}, {m.size} elements, lift "
          f"{'present' if m.lift is not None else 'absent'}", file=sys.stderr)
    _emit(args, format_matroid(m))
    return 0


def _cmd_verify_tables(args) -> int:
    if not 1 <= args.max_b <= 9:
        raise InputError(f"--max-b must be between 1 and 9, got {args.max_b}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    report = verify_tables(args.max_b, exhaustive=args.exhaustive,
                           jobs=args.jobs)
    failures = [item for item in report["items"] if item["status"] == "fail"]
    for item in report["items"]:
        rank_key = "b" if "b" in item else "d"
        line = (f"[{item['status']}] {item['kind']} {rank_key}={item[rank_key]} "
                f"expected {item['expected']} computed {item['computed']} "
                f"({item['witness']})")
        print(line, file=sys.stderr)
    _emit(args, report)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regma",
        description="Exact systoles of graphs and cogirths of regular matroids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("systole", help="exact systole of a graph")
    p.add_argument("graph")
    alone = p.add_mutually_exclusive_group()
    alone.add_argument("--weights", help="weights file: compute sys(G, w) only")
    alone.add_argument("--check", help="verify a stored certificate instead")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_systole)

    p = sub.add_parser("cogirth", help="cogirth of a regular matroid")
    p.add_argument("matroid")
    p.add_argument("--check")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cogirth)

    p = sub.add_parser("c-rep", help="c(H, lambda) of a weighted representation")
    p.add_argument("matroid")
    p.add_argument("--mult", help="multiplicity file (default: uniform)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_c_rep)

    p = sub.add_parser("embed", help="surface embedding search")
    p.add_argument("graph")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--nonorientable", action="store_true")
    p.add_argument("--face", help="comma-separated edge ids to pin as a face")
    alone = p.add_mutually_exclusive_group()
    alone.add_argument("--max-chi", action="store_true",
                       help="exhaust and report the maximum characteristic")
    alone.add_argument("--check", help="verify a stored certificate instead")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("involutions6", help="six involutions of a rank-6 matroid")
    p.add_argument("matroid")
    p.add_argument("--mult")
    p.add_argument("--check")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_involutions6)

    p = sub.add_parser("gen-cubic", help="stream connected cubic graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-girth", type=int, default=3)
    p.add_argument("--three-connected", action="store_true")
    p.set_defaults(func=_cmd_gen_cubic)

    p = sub.add_parser("reduce", help="reduce a graph to a 3-connected cubic one")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("matroid-build", help="evaluate a construction expression")
    p.add_argument("expr")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_matroid_build)

    p = sub.add_parser("verify-tables", help="verify the s(b) and c(d) tables")
    p.add_argument("--max-b", type=int, default=6)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_tables)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RegmaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
