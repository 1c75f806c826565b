"""Command-line front end: parse graph files, dispatch operations, report.

Graph file format (line oriented, ``#`` starts a comment):

    graph
    vertex v1 weight 0
    vertex v2 weight 3
    vertex v3 weight 1
    edge v1 v2 x3      # multiplicity suffix xK, default 1
    edge v2 v3
    loop v2 x2

Vertex identifiers are whitespace-free tokens without ``#``, ``,`` or ``=``
(divisor literals and ``--set`` split on those).  Integers (weights,
multiplicities, chip counts and ``--budget``) are an optional sign and
at most 50,000 ASCII digits (``_MAX_DIGITS``); a diagnostic quotes at
most ``_MAX_QUOTED`` characters of an invalid token.  Every report
involving a divisor echoes the canonical (base-vertex reduced) form of
its class so results can be audited across runs.

Every command runs through one pipeline.  ``_HANDLERS`` maps each command
to its handler and to the number of ``--divisor`` options it takes; ``main``
parses the graph and those divisors, reduces each once at the base vertex,
fills in the report's ``inputs`` and hands the report and each divisor
with its class to the handler, which fills in the result and the text
lines.  ``--json`` emits one object with a fixed field order through one
encoder, ``_jsonable``: it renders each divisor as its chip map, and ints
beyond 2**53 as decimal strings to protect downstream readers.  Ints in
input and output may run past CPython's 4,300-digit limit on int-str
conversion, which ``main`` lifts while a command runs.

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

from .divisors import (
    Divisor,
    DivisorClass,
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
    bullet_model_size,
    genus,
    is_chain_of_2ec,
    is_semistable,
    is_stable,
    valence,
)
from .rank import RankReport, rank
from .reduction import effectivize, is_reduced, reduce_to_set
from .reps import (
    NotCovered,
    clifford_representative,
    is_semibalanced,
    is_uniform,
    semibalanced_representative,
    uniform_representative,
    verify_certificate,
)

_INTEGER = re.compile(r"[+-]?[0-9]+")

# The most digits an integer token may have.  Converting decimal digits to
# an int and back takes time quadratic in their number: on an Intel Xeon
# under CPython 3.11, one int() of 50,000 digits took 0.027 s and one str()
# 0.046 s, against 0.94 s and 1.7 s at 300,000 digits.
_MAX_DIGITS = 50_000

# A diagnostic quotes at most this many characters of an invalid token, so
# that a token of any length makes one short stderr line.
_MAX_QUOTED = 32


def _quoted(text: str) -> str:
    """repr(text), or past ``_MAX_QUOTED`` characters the repr of that many
    leading characters and the token's length."""
    if len(text) <= _MAX_QUOTED:
        return repr(text)
    return f"{text[:_MAX_QUOTED]!r}... ({len(text):,} characters)"


def _integer(text: str) -> int:
    """The integer written as an optional sign and at most ``_MAX_DIGITS``
    ASCII digits.

    Raises ValueError for anything else, including what int() alone would
    take: underscores, surrounding whitespace and non-ASCII digits.
    """
    if not _INTEGER.fullmatch(text) or len(text.lstrip("+-")) > _MAX_DIGITS:
        raise ValueError(f"invalid integer {_quoted(text)}")
    return int(text)


def parse_graph(text: str) -> WeightedMultigraph:
    """Parse the line-oriented graph format; diagnostics carry line/column."""
    weights: dict[str, int] = {}  # by declared vertex, in declaration order
    edges: list[tuple[str, str, int]] = []
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
            if "," in name or "=" in name:
                raise ParseError(
                    f"vertex name {name!r} contains ',' or '='", line=lineno, column=tokens[1][1]
                )
            if name in weights:
                raise ParseError(
                    f"duplicate vertex declaration {name!r}", line=lineno, column=tokens[1][1]
                )
            try:
                w = _integer(words[3])
            except ValueError:
                raise ParseError(
                    f"invalid weight {_quoted(words[3])}", line=lineno, column=tokens[3][1]
                ) from None
            if w < 0:
                raise ParseError(
                    f"negative weight at vertex {name!r}", line=lineno, column=tokens[3][1]
                )
            weights[name] = w
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
                if name not in weights:
                    raise ParseError(
                        f"unknown vertex {name!r}", line=lineno, column=col
                    )
            count = 1
            if len(words) == want + 1:
                suffix, col = words[want], tokens[want][1]
                if not suffix.startswith("x"):
                    raise ParseError(
                        f"expected multiplicity 'xK', got {_quoted(suffix)}", line=lineno, column=col
                    )
                try:
                    count = _integer(suffix[1:])
                except ValueError:
                    raise ParseError(
                        f"invalid multiplicity {_quoted(suffix)}", line=lineno, column=col
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
    if not weights:
        raise ParseError("no vertices")
    try:
        return WeightedMultigraph(list(weights), weights, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


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
            values[name] = _integer(num)
        except ValueError:
            raise ParseError(f"invalid integer {_quoted(num)}", column=col) from None
        offset += len(part) + 1
    return Divisor(g, values)


def _parse_vertex_set(text: str, g: WeightedMultigraph) -> list[str]:
    """Parse a comma-separated ``--set``; as in a divisor literal, an empty
    entry or a repeated vertex is an error."""
    if not text.strip():
        raise ParseError("empty vertex set")
    known = set(g.vertices)
    names: list[str] = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            raise ParseError("empty entry in vertex set")
        if name not in known:
            raise ParseError(f"unknown vertex {name!r} in set")
        if name in names:
            raise ParseError(f"duplicate vertex {name!r} in set")
        names.append(name)
    return names


# -- output helpers ---------------------------------------------------------

_BIG = 2 ** 53


def _jsonable(obj):
    """obj with each divisor as its chip map and each int beyond 2**53 as a
    decimal string, ready for ``json.dumps``."""
    if isinstance(obj, Divisor):
        obj = obj.as_dict()
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


def _riemann_roch(args, g: WeightedMultigraph, d: Divisor) -> tuple[RankReport, dict]:
    """rank(d) under the command's options, and the Riemann-Roch fields:
    rank(d) - rank(K - d) against deg d - genus + 1.  Every field is a class
    invariant, so the commands pass their class's canonical form."""
    r_d = rank(g, d, shortcuts=not args.no_shortcuts, budget=args.budget)
    r_res = rank(g, residual(g, d), shortcuts=not args.no_shortcuts, budget=args.budget)
    deg, gen = d.degree, genus(g)
    lhs, rhs = r_d.rank - r_res.rank, deg - gen + 1
    return r_d, {
        "rank": r_d.rank,
        "residual_rank": r_res.rank,
        "degree": deg,
        "genus": gen,
        "lhs": lhs,
        "rhs": rhs,
        "identity_holds": lhs == rhs,
    }


def _clifford(g: WeightedMultigraph, c: DivisorClass, rep: _Report, budget: int) -> dict:
    """The Clifford representative of class c as result fields; a found
    one's certificate goes on the report."""
    outcome = clifford_representative(g, c, budget=budget)
    if isinstance(outcome, NotCovered):
        return {"status": "NotCovered", **outcome._asdict()}
    found, cert = outcome
    rep.certificate = cert._asdict()
    return {
        "status": "Found",
        "branch": cert.branch,
        "representative": found,
        "verified": verify_certificate(g, cert),
    }


# -- command handlers -------------------------------------------------------


def _cmd_info(args, g: WeightedMultigraph, rep: _Report) -> None:
    bridge_list = bridges(g)
    chain = is_chain_of_2ec(g)
    semi = is_semistable(g)
    stab = is_stable(g)
    model_vertices, model_edges = bullet_model_size(g)
    k = canonical_divisor(g)
    rep.result = {
        "vertices": list(g.vertices),
        "weights": g.weights,
        "edge_count": g._edge_count,
        "genus": genus(g),
        "valences": {v: valence(g, v) for v in g.vertices},
        "canonical_divisor": k,
        "semistable": semi._asdict(),
        "stable": stab._asdict(),
        "bridges": [list(e) for e in bridge_list],
        "chain_of_2ec": chain,
        "bullet_model": {"vertices": model_vertices, "edges": model_edges},
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


def _cmd_rank(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    report = rank(g, c.canonical, shortcuts=not args.no_shortcuts, budget=args.budget)
    rep.result = {"rank": report.rank, "method": report.method, "witness": report.witness}
    rep.line(f"rank: {report.rank} (method: {report.method})")
    if report.witness is not None:
        rep.line(f"uncovered witness: {_divisor_text(report.witness)}")


def _cmd_reduce(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    if args.set is not None:
        zone = _parse_vertex_set(args.set, g)
        out = reduce_to_set(g, d, zone)
        rep.inputs["set"] = zone
        rep.result = {"reduced": out, "set": zone}
        rep.line(f"reduced with respect to {{{', '.join(zone)}}}: {_divisor_text(out)}")
        if not is_reduced(g, out, zone):
            raise InternalError(f"reduce_to_set gave a divisor not reduced with respect to {zone}")
    else:
        rep.result = {"reduced": c.canonical, "base": c.base_vertex}
        rep.line(f"reduced at {c.base_vertex}: {_divisor_text(c.canonical)}")


def _cmd_equivalent(
    args, g: WeightedMultigraph, rep: _Report, d1: Divisor, c1: DivisorClass, d2: Divisor, c2: DivisorClass
) -> None:
    eq = equivalent(g, d1, d2)
    rep.result = {"equivalent": eq}
    rep.line(f"equivalent: {eq}")


def _cmd_effectivize(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    if not d.is_effective and c.base_vertex == g.base_vertex():
        d = c.canonical  # effectivize's own reduction, already made
    out = effectivize(g, d)
    if out is None:
        rep.result = {"status": "NotEffective", "divisor": None}
        rep.line("NotEffective: the class contains no effective divisor")
        rep.exit_code = 1
    else:
        rep.result = {"status": "Effective", "divisor": out}
        rep.line(f"effective representative: {_divisor_text(out)}")


def _cmd_rr_check(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    res = rep.result = _riemann_roch(args, g, c.canonical)[1]
    rep.line(f"rank(d) - rank(residual) = {res['rank']} - ({res['residual_rank']}) = {res['lhs']}")
    rep.line(f"degree - genus + 1 = {res['degree']} - {res['genus']} + 1 = {res['rhs']}")
    rep.line(f"identity holds: {res['identity_holds']}")
    if not res["identity_holds"]:
        rep.exit_code = 1


def _cmd_clifford_rep(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    res = rep.result = _clifford(g, c, rep, args.budget)
    if res["status"] == "NotCovered":
        rep.line("NotCovered: the class is special but the construction hypotheses fail")
        rep.line(f"  chain of 2-edge-connected components: {res['chain_of_2ec']}")
        rep.line(f"  every weight-0 vertex has a loop: {res['loop_hypothesis']}")
    else:
        rep.line(f"representative: {_divisor_text(res['representative'])}")
        rep.line(f"branch: {res['branch']}")
        rep.line(f"certificate verified: {res['verified']}")
        if not res["verified"]:
            rep.exit_code = 1


def _cmd_semibalanced(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    out = semibalanced_representative(g, c, budget=args.budget)
    rep.result = {
        "representative": out,
        "is_semibalanced": is_semibalanced(g, out),
    }
    rep.line(f"semibalanced representative: {_divisor_text(out)}")


def _cmd_uniform(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    out = uniform_representative(g, c, budget=args.budget)
    if out is None:
        rep.result = {"status": "NotFound", "representative": None}
        rep.line("NotFound: the class contains no uniform divisor")
        rep.exit_code = 1
    else:
        rep.result = {"status": "Found", "representative": out}
        rep.line(f"uniform representative: {_divisor_text(out)}")


def _cmd_report(args, g: WeightedMultigraph, rep: _Report, d: Divisor, c: DivisorClass) -> None:
    deg, gen = d.degree, genus(g)
    r, rr = _riemann_roch(args, g, c.canonical)
    # a class is effective iff its rank is at least 0, so special (the
    # class and its residual both effective) is read off the two ranks
    special = r.rank >= 0 and rr["residual_rank"] >= 0
    in_range = 0 <= deg <= 2 * gen - 2
    clifford_ok = 2 * r.rank <= deg if in_range else None
    semi = is_semistable(g)
    result = rep.result = {
        "genus": gen,
        "degree": deg,
        "canonical_class_form": c.canonical,
        "rank": r.rank,
        "rank_method": r.method,
        "riemann_roch_holds": rr["identity_holds"],
        "clifford_holds": clifford_ok,
        "special": special,
        "uniform_input": is_uniform(g, d),
    }
    rep.line(f"genus: {gen}, degree: {deg}")
    rep.line(f"canonical class form at {c.base_vertex}: {_divisor_text(c.canonical)}")
    rep.line(f"rank: {r.rank} ({r.method})")
    rep.line(f"identity rank(d) - rank(residual) = degree - genus + 1: {rr['identity_holds']}")
    rep.line(f"rank <= degree/2 (in range): {clifford_ok}")
    rep.line(f"special class: {special}")
    sb = semibalanced_representative(g, c, budget=args.budget) if semi.value else None
    result["semibalanced_representative"] = sb
    if sb is not None:
        rep.line(f"semibalanced representative: {_divisor_text(sb)}")
    cliff = None
    if in_range:
        cliff = _clifford(g, c, rep, args.budget)
        cliff.pop("special", None)  # reported above for every degree
        if cliff["status"] == "NotCovered":
            rep.line("clifford representative: NotCovered")
        else:
            found = _divisor_text(cliff["representative"])
            rep.line(f"clifford representative: {found} ({cliff['branch']})")
    result["clifford_representative"] = cliff


# command -> (handler, number of --divisor options it takes); info ignores --divisor
_HANDLERS = {
    "info": (_cmd_info, 0),
    "rank": (_cmd_rank, 1),
    "reduce": (_cmd_reduce, 1),
    "equivalent": (_cmd_equivalent, 2),
    "effectivize": (_cmd_effectivize, 1),
    "rr-check": (_cmd_rr_check, 1),
    "clifford-rep": (_cmd_clifford_rep, 1),
    "semibalanced": (_cmd_semibalanced, 1),
    "uniform": (_cmd_uniform, 1),
    "report": (_cmd_report, 1),
}
_COMMANDS = tuple(_HANDLERS)


def _budget(text: str) -> int:
    """A nonnegative --budget; argparse names the option when this raises."""
    try:
        value = _integer(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {_quoted(text)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Divisor theory on vertex-weighted multigraphs.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="operation to run")
    parser.add_argument("graph", help="path to a graph file")
    parser.add_argument(
        "--divisor",
        action="append",
        help="divisor literal 'v=int,...' (omitted vertices are 0; '0' is the zero divisor)",
    )
    parser.add_argument("--base", help="base vertex (default: lexicographically smallest)")
    parser.add_argument("--set", help="comma-separated vertex set")
    parser.add_argument("--json", action="store_true", help="emit a single JSON object")
    parser.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="enumeration budget")
    parser.add_argument(
        "--no-shortcuts",
        action="store_true",
        help="force the definitional rank scan even in shortcut degree regimes",
    )
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    Exact answers may run past CPython's limit on int-to-str digits, so the
    limit is lifted while the command runs and the caller's is restored.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _run(argv)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.graph, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        g = parse_graph(text)
        if args.base is not None and args.base not in set(g.vertices):
            raise ParseError(f"unknown vertex {args.base!r} for --base")
        handler, count = _HANDLERS[args.command]
        inputs: dict = {"graph_file": args.graph}
        given: tuple = ()  # each divisor, then its class
        if count:
            literals = args.divisor or []
            if len(literals) != count:
                raise ParseError(f"expected {count} --divisor option(s), got {len(literals)}")
            divisors = [parse_divisor_literal(lit, g) for lit in literals]
            base = args.base or g.base_vertex()
            inputs.update(vertices=list(g.vertices), base=base)
            tags = [""] + [str(i) for i in range(2, count + 1)]
            for t, d in zip(tags, divisors):
                inputs["divisor" + t] = d
            for t, d in zip(tags, divisors):
                c = class_of(g, d, base)
                inputs["canonical_form" + t] = c.canonical
                given += (d, c)
        report = _Report(args.command, inputs)
        handler(args, g, report, *given)
        return report.emit(args.json)
    except (ParseError, BudgetExceededError) as exc:
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
