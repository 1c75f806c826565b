"""Command-line front end: parse graph files, dispatch operations, report.

Graph file format (line oriented, ``#`` starts a comment):

    graph
    vertex v1 weight 0
    vertex v2 weight 3
    vertex v3 weight 1
    edge v1 v2 x3      # multiplicity suffix xK, default 1
    edge v2 v3
    loop v2 x2

Vertex identifiers are whitespace-free tokens without ``#``.  Every report
involving a divisor echoes the canonical (base-vertex reduced) form of its
class so results can be audited across runs.  ``--json`` emits one object
with a fixed field order; ints beyond 2**53 are serialized as decimal
strings to protect downstream readers.

Exit codes: 0 success (including NotCovered), 1 domain errors or negative
results (NotEffective, NotFound, failed identity), 2 parse and resource
errors, 3 an internal invariant failure (a defect in chipfire).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from .divisors import (
    Divisor,
    canonical_divisor,
    class_of,
    equivalent,
    residual,
)
from .enumeration import DEFAULT_BUDGET
from .errors import BudgetExceededError, DomainError, GraphError, InternalError, ParseError
from .graph import (
    WeightedMultigraph,
    bridges,
    bullet_model,
    genus,
    is_chain_of_2ec,
    is_semistable,
    is_stable,
    valence,
)
from .rank import RankReport, rank
from .reduction import effectivize, is_reduced, reduce_to, reduce_to_set
from .reps import (
    NotCovered,
    clifford_representative,
    is_semibalanced,
    is_special_class,
    is_uniform,
    semibalanced_representative,
    uniform_representative,
    verify_certificate,
)

_COMMANDS = (
    "info",
    "rank",
    "reduce",
    "equivalent",
    "effectivize",
    "rr-check",
    "clifford-rep",
    "semibalanced",
    "uniform",
    "report",
)


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph plus source locations for diagnostics."""

    graph: WeightedMultigraph
    vertex_lines: dict[str, int]


def parse_graph(text: str) -> GraphDocument:
    """Parse the line-oriented graph format; diagnostics carry line/column."""
    vertices: list[str] = []
    weights: dict[str, int] = {}
    edges: list[tuple[str, str, int]] = []
    vertex_lines: dict[str, int] = {}
    seen_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", content)]
        if not tokens:
            continue
        words = [t for t, _ in tokens]
        first_col = tokens[0][1]
        if not seen_header:
            if words != ["graph"]:
                raise ParseError("expected 'graph' header", line=lineno, column=first_col)
            seen_header = True
            continue
        kind = words[0]
        if kind == "vertex":
            if len(words) != 4 or words[2] != "weight":
                raise ParseError(
                    "expected 'vertex NAME weight K'", line=lineno, column=first_col
                )
            name = words[1]
            if name in vertex_lines:
                raise ParseError(
                    f"duplicate vertex declaration {name!r}", line=lineno, column=tokens[1][1]
                )
            try:
                w = int(words[3])
            except ValueError:
                raise ParseError(
                    f"invalid weight {words[3]!r}", line=lineno, column=tokens[3][1]
                ) from None
            if w < 0:
                raise ParseError(
                    f"negative weight at vertex {name!r}", line=lineno, column=tokens[3][1]
                )
            vertices.append(name)
            weights[name] = w
            vertex_lines[name] = lineno
        elif kind in ("edge", "loop"):
            want = 3 if kind == "edge" else 2
            if len(words) not in (want, want + 1):
                raise ParseError(
                    f"expected '{kind} {'A B' if kind == 'edge' else 'V'} [xK]'",
                    line=lineno,
                    column=first_col,
                )
            ends = words[1:want]
            for name, (_, col) in zip(ends, tokens[1:want]):
                if name not in vertex_lines:
                    raise ParseError(
                        f"unknown vertex {name!r}", line=lineno, column=col
                    )
            count = 1
            if len(words) == want + 1:
                suffix, col = words[want], tokens[want][1]
                if not suffix.startswith("x"):
                    raise ParseError(
                        f"expected multiplicity 'xK', got {suffix!r}", line=lineno, column=col
                    )
                try:
                    count = int(suffix[1:])
                except ValueError:
                    raise ParseError(
                        f"invalid multiplicity {suffix!r}", line=lineno, column=col
                    ) from None
                if count < 1:
                    raise ParseError(
                        f"multiplicity must be >= 1, got {count}", line=lineno, column=col
                    )
            edges.append((ends[0], ends[-1], count))  # a loop line names one end
        else:
            raise ParseError(f"unknown directive {kind!r}", line=lineno, column=first_col)

    if not seen_header:
        raise ParseError("expected 'graph' header")
    if not vertices:
        raise ParseError("no vertices")
    try:
        g = WeightedMultigraph(vertices, weights, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    return GraphDocument(graph=g, vertex_lines=vertex_lines)


def serialize_graph(g: WeightedMultigraph) -> str:
    """Render a graph back into the file format (round-trips semantically)."""
    lines = ["graph"]
    for v in g.vertices:
        lines.append(f"vertex {v} weight {g.weight(v)}")
    names = g.vertices
    pairs = sorted((names[i], names[j], m) for i, j, m in g._pairs)
    for a, b, m in pairs:
        if a != b:
            lines.append(f"edge {a} {b}" + (f" x{m}" if m > 1 else ""))
    for a, b, m in pairs:
        if a == b:
            lines.append(f"loop {a}" + (f" x{m}" if m > 1 else ""))
    return "\n".join(lines) + "\n"


def parse_divisor_literal(text: str, g: WeightedMultigraph) -> Divisor:
    """Parse ``v=int`` comma-separated chip counts; omitted vertices are 0.

    The single literal ``0`` denotes the zero divisor.  Errors carry the
    1-based column of the offending entry.
    """
    if text.strip() == "0":
        return Divisor.zero(g)
    values: dict[str, int] = {}
    offset = 0
    known = set(g.vertices)
    for part in text.split(","):
        col = offset + len(part) - len(part.lstrip()) + 1
        entry = part.strip()
        if not entry:
            raise ParseError("empty divisor entry", column=col)
        name, eq, num = entry.partition("=")
        name = name.strip()
        num = num.strip()
        if not eq or not name or not num:
            raise ParseError(f"expected 'vertex=value', got {entry!r}", column=col)
        if name not in known:
            raise ParseError(f"unknown vertex {name!r}", column=col)
        if name in values:
            raise ParseError(f"duplicate assignment for vertex {name!r}", column=col)
        try:
            values[name] = int(num)
        except ValueError:
            raise ParseError(f"invalid integer {num!r}", column=col) from None
        offset += len(part) + 1
    return Divisor(g, values)


def _parse_vertex_set(text: str, g: WeightedMultigraph) -> list[str]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ParseError("empty vertex set")
    known = set(g.vertices)
    for name in names:
        if name not in known:
            raise ParseError(f"unknown vertex {name!r} in set")
    return names


# -- output helpers ---------------------------------------------------------

_BIG = 2 ** 53


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _divisor_text(d: Divisor) -> str:
    return ", ".join(f"{v}={x}" for v, x in zip(d.graph.vertices, d.values))


class _Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.result: dict = {}
        self.certificate: dict | None = None
        self.lines: list[str] = []
        self.exit_code = 0
        self.started = time.perf_counter()

    def line(self, text: str) -> None:
        self.lines.append(text)

    def emit(self, as_json: bool) -> int:
        if as_json:
            obj = {"command": self.command, "inputs": self.inputs, "result": self.result}
            if self.certificate is not None:
                obj["certificate"] = self.certificate
            obj["timing"] = time.perf_counter() - self.started
            print(json.dumps(_jsonable(obj)))
        else:
            for text in self.lines:
                print(text)
        return self.exit_code


def _base_inputs(args, g: WeightedMultigraph, divisors: list[Divisor] | None = None) -> dict:
    inputs: dict = {"graph_file": args.graph, "vertices": list(g.vertices)}
    if divisors:
        base = args.base or g.base_vertex()
        inputs["base"] = base
        for i, d in enumerate(divisors):
            key = "divisor" if i == 0 else f"divisor{i + 1}"
            inputs[key] = d.as_dict()
        for i, d in enumerate(divisors):
            key = "canonical_form" if i == 0 else f"canonical_form{i + 1}"
            inputs[key] = reduce_to(g, d, args.base or g.base_vertex()).as_dict()
    return inputs


def _require_divisors(args, g: WeightedMultigraph, count: int) -> list[Divisor]:
    literals = args.divisor or []
    if len(literals) != count:
        raise ParseError(
            f"expected {count} --divisor option(s), got {len(literals)}"
        )
    return [parse_divisor_literal(lit, g) for lit in literals]


# -- command handlers -------------------------------------------------------


def _cmd_info(args, g: WeightedMultigraph) -> _Report:
    rep = _Report("info", {"graph_file": args.graph})
    bridge_list = bridges(g).bridges
    chain = is_chain_of_2ec(g)
    semi = is_semistable(g)
    stab = is_stable(g)
    gb, _ = bullet_model(g)
    k = canonical_divisor(g)
    rep.result = {
        "vertices": list(g.vertices),
        "weights": g.weights,
        "edge_count": g._edge_count,
        "genus": genus(g),
        "valences": {v: valence(g, v) for v in g.vertices},
        "canonical_divisor": k.as_dict(),
        "semistable": {"value": semi.value, "applicable": semi.applicable},
        "stable": {"value": stab.value, "applicable": stab.applicable},
        "bridges": [list(e) for e in bridge_list],
        "chain_of_2ec": chain,
        "bullet_model": {"vertices": len(gb.vertices), "edges": gb._edge_count},
    }
    rep.line(f"vertices: {', '.join(g.vertices)}")
    rep.line(f"weights: {_divisor_text(Divisor(g, g.weights))}")
    rep.line(f"edges: {g._edge_count}")
    rep.line(f"genus: {genus(g)}")
    rep.line(f"canonical divisor: {_divisor_text(k)} (degree {k.degree})")
    rep.line(f"semistable: {semi.value}" + ("" if semi.applicable else " (not applicable: genus < 2)"))
    rep.line(f"stable: {stab.value}" + ("" if stab.applicable else " (not applicable: genus < 2)"))
    rep.line(f"bridges: {', '.join('-'.join(e) for e in bridge_list) or 'none'}")
    rep.line(f"chain of 2-edge-connected components: {chain}")
    return rep


def _cmd_rank(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("rank", _base_inputs(args, g, [d]))
    report = rank(g, d, shortcuts=not args.no_shortcuts, budget=args.budget)
    rep.result = {
        "rank": report.rank,
        "method": report.method,
        "witness": report.witness.as_dict() if report.witness else None,
    }
    rep.line(f"rank: {report.rank} (method: {report.method})")
    if report.witness is not None:
        rep.line(f"uncovered witness: {_divisor_text(report.witness)}")
    return rep


def _cmd_reduce(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("reduce", _base_inputs(args, g, [d]))
    if args.set:
        zone = _parse_vertex_set(args.set, g)
        out = reduce_to_set(g, d, zone)
        rep.inputs["set"] = zone
        rep.result = {"reduced": out.as_dict(), "set": zone}
        rep.line(f"reduced with respect to {{{', '.join(zone)}}}: {_divisor_text(out)}")
        if not is_reduced(g, out, zone):
            raise InternalError(f"reduce_to_set gave a divisor not reduced with respect to {zone}")
    else:
        base = args.base or g.base_vertex()
        out = reduce_to(g, d, base)
        rep.result = {"reduced": out.as_dict(), "base": base}
        rep.line(f"reduced at {base}: {_divisor_text(out)}")
    return rep


def _cmd_equivalent(args, g: WeightedMultigraph) -> _Report:
    d1, d2 = _require_divisors(args, g, 2)
    rep = _Report("equivalent", _base_inputs(args, g, [d1, d2]))
    eq = equivalent(g, d1, d2)
    rep.result = {"equivalent": eq}
    rep.line(f"equivalent: {eq}")
    return rep


def _cmd_effectivize(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("effectivize", _base_inputs(args, g, [d]))
    out = effectivize(g, d)
    if out is None:
        rep.result = {"status": "NotEffective", "divisor": None}
        rep.line("NotEffective: the class contains no effective divisor")
        rep.exit_code = 1
    else:
        rep.result = {"status": "Effective", "divisor": out.as_dict()}
        rep.line(f"effective representative: {_divisor_text(out)}")
    return rep


def _rank_and_residual(
    args, g: WeightedMultigraph, d: Divisor
) -> tuple[RankReport, RankReport, bool]:
    """rank(d) and rank(K - d) under the command's options, and whether they
    satisfy Riemann-Roch: rank(d) - rank(K - d) = deg d - genus + 1."""
    r_d = rank(g, d, shortcuts=not args.no_shortcuts, budget=args.budget)
    r_res = rank(g, residual(g, d), shortcuts=not args.no_shortcuts, budget=args.budget)
    return r_d, r_res, r_d.rank - r_res.rank == d.degree - g.genus + 1


def _cmd_rr_check(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("rr-check", _base_inputs(args, g, [d]))
    r_d, r_res, holds = _rank_and_residual(args, g, d)
    deg, gen = d.degree, genus(g)
    rep.result = {
        "rank": r_d.rank,
        "residual_rank": r_res.rank,
        "degree": deg,
        "genus": gen,
        "lhs": r_d.rank - r_res.rank,
        "rhs": deg - gen + 1,
        "identity_holds": holds,
    }
    rep.line(
        f"rank(d) - rank(residual) = {r_d.rank} - ({r_res.rank}) = {r_d.rank - r_res.rank}"
    )
    rep.line(f"degree - genus + 1 = {deg} - {gen} + 1 = {deg - gen + 1}")
    rep.line(f"identity holds: {holds}")
    if not holds:
        rep.exit_code = 1
    return rep


def _certificate_json(cert) -> dict:
    evidence: dict = {}
    for key, value in cert.evidence.items():
        if isinstance(value, Divisor):
            evidence[key] = value.as_dict()
        elif isinstance(value, dict):
            evidence[key] = {k: list(v) if isinstance(v, tuple) else v for k, v in value.items()}
        else:
            evidence[key] = value
    return {
        "branch": cert.branch,
        "representative": cert.representative.as_dict(),
        "evidence": evidence,
    }


def _cmd_clifford_rep(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("clifford-rep", _base_inputs(args, g, [d]))
    base = args.base or g.base_vertex()
    c = class_of(g, d, base)
    outcome = clifford_representative(g, c, budget=args.budget)
    if isinstance(outcome, NotCovered):
        rep.result = {
            "status": "NotCovered",
            "special": outcome.special,
            "chain_of_2ec": outcome.chain_of_2ec,
            "loop_hypothesis": outcome.loop_hypothesis,
        }
        rep.line("NotCovered: the class is special but the construction hypotheses fail")
        rep.line(f"  chain of 2-edge-connected components: {outcome.chain_of_2ec}")
        rep.line(f"  every weight-0 vertex has a loop: {outcome.loop_hypothesis}")
    else:
        found, cert = outcome
        verified = verify_certificate(g, cert)
        rep.result = {
            "status": "Found",
            "branch": cert.branch,
            "representative": found.as_dict(),
            "verified": verified,
        }
        rep.certificate = _certificate_json(cert)
        rep.line(f"representative: {_divisor_text(found)}")
        rep.line(f"branch: {cert.branch}")
        rep.line(f"certificate verified: {verified}")
        if not verified:
            rep.exit_code = 1
    return rep


def _cmd_semibalanced(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("semibalanced", _base_inputs(args, g, [d]))
    base = args.base or g.base_vertex()
    c = class_of(g, d, base)
    out = semibalanced_representative(g, c, budget=args.budget)
    rep.result = {
        "representative": out.as_dict(),
        "is_semibalanced": is_semibalanced(g, out, budget=args.budget),
    }
    rep.line(f"semibalanced representative: {_divisor_text(out)}")
    return rep


def _cmd_uniform(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("uniform", _base_inputs(args, g, [d]))
    base = args.base or g.base_vertex()
    c = class_of(g, d, base)
    out = uniform_representative(g, c, budget=args.budget)
    if out is None:
        rep.result = {"status": "NotFound", "representative": None}
        rep.line("NotFound: the class contains no uniform divisor")
        rep.exit_code = 1
    else:
        rep.result = {"status": "Found", "representative": out.as_dict()}
        rep.line(f"uniform representative: {_divisor_text(out)}")
    return rep


def _cmd_report(args, g: WeightedMultigraph) -> _Report:
    (d,) = _require_divisors(args, g, 1)
    rep = _Report("report", _base_inputs(args, g, [d]))
    base = args.base or g.base_vertex()
    c = class_of(g, d, base)
    deg, gen = d.degree, genus(g)
    r, _, rr = _rank_and_residual(args, g, d)
    special = is_special_class(g, c)
    in_range = 0 <= deg <= 2 * gen - 2
    clifford_ok = 2 * r.rank <= deg if in_range else None
    semi = is_semistable(g)
    result: dict = {
        "genus": gen,
        "degree": deg,
        "canonical_class_form": c.canonical.as_dict(),
        "rank": r.rank,
        "rank_method": r.method,
        "riemann_roch_holds": rr,
        "clifford_holds": clifford_ok,
        "special": special,
        "uniform_input": is_uniform(g, d),
    }
    rep.line(f"genus: {gen}, degree: {deg}")
    rep.line(f"canonical class form at {base}: {_divisor_text(c.canonical)}")
    rep.line(f"rank: {r.rank} ({r.method})")
    rep.line(f"identity rank(d) - rank(residual) = degree - genus + 1: {rr}")
    rep.line(f"rank <= degree/2 (in range): {clifford_ok}")
    rep.line(f"special class: {special}")
    if semi.value:
        sb = semibalanced_representative(g, c, budget=args.budget)
        result["semibalanced_representative"] = sb.as_dict()
        rep.line(f"semibalanced representative: {_divisor_text(sb)}")
    else:
        result["semibalanced_representative"] = None
    if in_range:
        outcome = clifford_representative(g, c, budget=args.budget)
        if isinstance(outcome, NotCovered):
            result["clifford_representative"] = {
                "status": "NotCovered",
                "chain_of_2ec": outcome.chain_of_2ec,
                "loop_hypothesis": outcome.loop_hypothesis,
            }
            rep.line("clifford representative: NotCovered")
        else:
            found, cert = outcome
            result["clifford_representative"] = {
                "status": "Found",
                "branch": cert.branch,
                "representative": found.as_dict(),
                "verified": verify_certificate(g, cert),
            }
            rep.certificate = _certificate_json(cert)
            rep.line(
                f"clifford representative: {_divisor_text(found)} ({cert.branch})"
            )
    else:
        result["clifford_representative"] = None
    rep.result = result
    return rep


_HANDLERS = {
    "info": _cmd_info,
    "rank": _cmd_rank,
    "reduce": _cmd_reduce,
    "equivalent": _cmd_equivalent,
    "effectivize": _cmd_effectivize,
    "rr-check": _cmd_rr_check,
    "clifford-rep": _cmd_clifford_rep,
    "semibalanced": _cmd_semibalanced,
    "uniform": _cmd_uniform,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Divisor theory on vertex-weighted multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("graph", help="path to a graph file")
        p.add_argument(
            "--divisor",
            action="append",
            help="divisor literal 'v=int,...' (omitted vertices are 0; '0' is the zero divisor)",
        )
        p.add_argument("--base", help="base vertex (default: lexicographically smallest)")
        p.add_argument("--set", help="comma-separated vertex set")
        p.add_argument("--json", action="store_true", help="emit a single JSON object")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="enumeration budget")
        p.add_argument(
            "--no-shortcuts",
            action="store_true",
            help="force the definitional rank scan even in shortcut degree regimes",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.graph, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_graph(text)
        if args.base is not None and args.base not in set(doc.graph.vertices):
            raise ParseError(f"unknown vertex {args.base!r} for --base")
        report = _HANDLERS[args.command](args, doc.graph)
        return report.emit(args.json)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
