"""cli-report: one fresh `chipfire <cmd> <file> --json` process per op.

Why: only this workload pays interpreter and import start-up on every op,
and parsing and graph construction on every op (the large-multiplicity
files), and only it reaches `reps`.  `report` on weighted graphs whose
loopless model has 8-12 vertices ranks the divisor three times and scans
its residual.  The graph files are written during set-up; one child runs
at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from common import (
    canonical,
    cycle,
    fire,
    firing_solution,
    fresh_divisor,
    genus,
    lex_order,
    model_size,
    spec,
)

NAME = "cli-report"
IN_PROCESS = False
MODULES = ("cli",)
CHILD_CAP_S = 60.0
# the parent sets up again after every 10th op: its state does not reach
# the children, and 2 passes a run would give set-up only 3 moments
SETUP_EVERY = 10


def _decorated(vertices, edges):
    """A loop at every vertex, so the loop hypothesis holds."""
    return spec(vertices, edges + [(i, i, 1) for i in range(len(vertices))])


FIXTURES = {
    # `report`: weighted graphs, loopless models of 8 to 12 vertices
    "wgolden": spec(["v1", "v2", "v3"], [(0, 1, 3), (1, 2, 1)], [0, 3, 2]),
    "wtriangle": spec(["x", "y", "z"], [(0, 1, 2), (1, 2, 1), (0, 2, 1)], [2, 2, 2]),
    "wcycle4": cycle(4, (2, 1, 2, 1), prefix="a"),
    "wcycle4b": cycle(4, (3, 2, 2, 1), prefix="d"),
    # representative searches: the test suite's chain and star fixtures
    "chain": _decorated(
        ["t1", "t2", "t3", "m1", "m2", "p1", "p2", "p3"],
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 1), (6, 7, 1), (5, 7, 1)],
    ),
    "star": _decorated(
        ["c1", "c2", "c3", "x1", "x2", "y1", "y2", "z1", "z2"],
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (3, 4, 2), (1, 5, 1), (5, 6, 2), (2, 7, 1), (7, 8, 2)],
    ),
}
REPORT_GRAPHS = ("wgolden", "wtriangle", "wcycle4", "wcycle4b")
# degrees g + shift: near g - 1 both d and its residual have low rank, so
# `report` stays at a fraction of a second on these models
REPORT_SHIFTS = (-3, -2, -1, -1, 0, 0, 1, 1, 2)
REPS_OPS = 6  # per command and per fixture, degrees spread evenly over [0, 2g - 2]
BIG_STRATA = ((50_000, 500), (100_000, 800), (150_000, 1100), (200_000, 1400))
BIG_OPS = 3  # equivalent and reduce ops per large file
# A `report` or representative search costs 2 to 4 times another of the
# same command and graph, depending on the divisor, and these ops sit at
# the median and the 90th percentile: with divisors drawn from the run's
# seed, op_p90_ms spread 0.16 over 5 seeds.  Their divisors are therefore
# one fixed set drawn from this seed; the run's seed draws the large
# files, their divisors and the order of all ops.
LIBRARY_SEED = 2406_03987

PARAMS = {
    "report": {k: {"genus": genus(FIXTURES[k]), "model_vertices": model_size(FIXTURES[k])} for k in REPORT_GRAPHS},
    "report_degrees": "g + shift for shift in %s on each graph; chips in [-1, 2]" % (REPORT_SHIFTS,),
    "report_and_reps_divisors": "drawn from random.Random(%d), the same for every seed" % LIBRARY_SEED,
    "reps": "clifford-rep, semibalanced and uniform, %d each on the loop-decorated chain and star" % REPS_OPS,
    "reps_degrees": "spread evenly over [0, 2g - 2]",
    "large_files": "edge a b xM, edge b c x3, edge a c x2, weight W at a; (M, W) per stratum "
    + str(BIG_STRATA) + ", each scaled by a factor drawn from [0.98, 1.02]",
    "large_ops": "info once and equivalent, reduce %d times each per file" % BIG_OPS,
}


def big_spec(key):
    _, m, w = key.split("-")
    return spec(["a", "b", "c"], [(0, 1, int(m)), (1, 2, 3), (0, 2, 2)], [int(w), 0, 0])


def spec_of(key):
    return big_spec(key) if key.startswith("big-") else FIXTURES[key]


def graph_text(g):
    vertices, weights, edges = g
    lines = ["graph"] + [f"vertex {v} weight {w}" for v, w in zip(vertices, weights)]
    for i, j, m in edges:
        head = f"loop {vertices[i]}" if i == j else f"edge {vertices[i]} {vertices[j]}"
        lines.append(head + (f" x{m}" if m > 1 else ""))
    return "\n".join(lines) + "\n"


def literal(g, vals):
    return ",".join(f"{v}={x}" for v, x in zip(g[0], vals) if x) or "0"


def make_round(rng):
    """The report and representative-search divisors come from
    LIBRARY_SEED; rng draws the large files, their divisors and the order."""
    lib = random.Random(LIBRARY_SEED)
    ops = []
    for key in REPORT_GRAPHS:
        g = FIXTURES[key]
        gen = genus(g)
        for shift in REPORT_SHIFTS:
            ops.append(("report", key, (fresh_divisor(lib, len(g[0]), gen + shift),)))
    for cmd in ("clifford-rep", "semibalanced", "uniform"):
        for key in ("chain", "star"):
            g = FIXTURES[key]
            top = 2 * genus(g) - 2
            for i in range(REPS_OPS):
                deg = round(i * top / (REPS_OPS - 1))
                ops.append((cmd, key, (fresh_divisor(lib, len(g[0]), deg),)))
    for m, w in BIG_STRATA:
        key = f"big-{round(m * rng.uniform(0.98, 1.02))}-{round(w * rng.uniform(0.98, 1.02))}"
        g = big_spec(key)
        ops.append(("info", key, ()))
        for _ in range(BIG_OPS):
            d1 = tuple(rng.randint(-3, 3) for _ in range(3))
            ops.append(("reduce", key, (d1,)))
            d1 = tuple(rng.randint(-3, 3) for _ in range(3))
            # firing a moves a whole multiplicity of chips; c moves a few
            d2 = list(fire(g, d1, {rng.choice((0, 2))}))
            if rng.random() < 0.5:
                d2[0] -= 1
                d2[1] += 1
            d2 = tuple(d2)
            ops.append(("equivalent", key, (d1, d2)))
    rng.shuffle(ops)
    return ops


def build(cf, ops, workdir):
    """Write one graph file per fixture the round uses; returns their paths."""
    paths = {}
    for key in sorted({op[1] for op in ops}):
        path = Path(workdir) / f"{key}.graph"
        path.write_text(graph_text(spec_of(key)), encoding="utf-8")
        paths[key] = path
    return paths


def _argv(op, path):
    cmd, key, divisors = op
    g = spec_of(key)
    argv = [cmd, str(path)]
    for vals in divisors:
        argv += ["--divisor", literal(g, vals)]
    return argv + ["--json"]


def run_op(cf, paths, op):
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    cmd = [sys.executable, "-m", "chipfire.cli"] + _argv(op, paths[op[1]])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_CAP_S)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
    out = json.loads(proc.stdout)
    return (proc.returncode, wall, out.pop("timing"), out)


def _values(g, as_dict):
    return tuple(int(as_dict.get(v, 0)) for v in g[0])


class _Checker:
    """Re-checks CLI answers in-process on graphs built from the specs."""

    def __init__(self, cf):
        self.cf = cf
        self.graphs = {}

    def graph(self, key):
        if key not in self.graphs:
            self.graphs[key] = self.cf.build_graph(spec_of(key))
        return self.graphs[key]

    def divisor(self, key, vals):
        g = self.graph(key)
        return self.cf.divisors.Divisor(g, vals)

    def same_class(self, key, a, b):
        return firing_solution(spec_of(key), tuple(x - y for x, y in zip(a, b)), 0) is not None

    def certificate(self, key, cert):
        cf, g, s = self.cf, self.graph(key), spec_of(key)
        ev = dict(cert["evidence"])
        if "residual_reduced" in ev:
            ev["residual_reduced"] = self.divisor(key, _values(s, ev["residual_reduced"]))
        if "bounds" in ev:
            ev["bounds"] = {v: tuple(b) for v, b in ev["bounds"].items()}
        rebuilt = cf.reps.CliffordCertificate(
            branch=cert["branch"],
            representative=self.divisor(key, _values(s, cert["representative"])),
            evidence=ev,
        )
        return cf.reps.verify_certificate(g, rebuilt)

    def verdict(self, op, res):
        cf = self.cf
        cmd, key, divisors = op
        s = spec_of(key)
        rc, _, _, out = res
        r = out["result"]
        if cmd == "info":
            want = {
                "genus": genus(s),
                "edge_count": sum(m for _, _, m in s[2]),
                "canonical_divisor": dict(zip(s[0], canonical(s))),
                "bullet_model": model_size(s),
            }
            got = {**{k: r[k] for k in ("genus", "edge_count", "canonical_divisor")},
                   "bullet_model": r["bullet_model"]["vertices"]}
            return None if (rc, got) == (0, want) else f"info {got} != {want}, exit {rc}"
        if cmd == "equivalent":
            truth = self.same_class(key, divisors[0], divisors[1])
            return None if (rc, r["equivalent"]) == (0, truth) else f"equivalent {r['equivalent']}, expected {truth}"
        if cmd == "reduce":
            d = divisors[0]
            out_vals = _values(s, r["reduced"])
            u = lex_order(s)[0]
            if rc != 0 or sum(out_vals) != sum(d) or any(x < 0 for i, x in enumerate(out_vals) if i != u):
                return f"reduce returned {out_vals}, exit {rc}"
            if not cf.reduction.is_reduced(self.graph(key), self.divisor(key, out_vals), [s[0][u]]):
                return "reduced output fails is_reduced"
            return None if self.same_class(key, d, out_vals) else "reduced output is not equivalent"
        d = divisors[0]
        if cmd == "semibalanced":
            rep = _values(s, r["representative"])
            ok = rc == 0 and r["is_semibalanced"] and self.same_class(key, d, rep)
            ok = ok and cf.reps.is_semibalanced(self.graph(key), self.divisor(key, rep))
            return None if ok else f"semibalanced representative {rep} fails its re-check"
        if cmd == "uniform":
            if r["status"] == "NotFound":
                return None if rc == 1 else f"NotFound with exit {rc}"
            rep = _values(s, r["representative"])
            ok = rc == 0 and self.same_class(key, d, rep) and cf.reps.is_uniform(self.graph(key), self.divisor(key, rep))
            return None if ok else f"uniform representative {rep} fails its re-check"
        if cmd == "clifford-rep":
            if r["status"] == "NotCovered":
                return None if rc == 0 and not (r["chain_of_2ec"] and r["loop_hypothesis"]) else "bad NotCovered"
            rep = _values(s, r["representative"])
            ok = rc == 0 and r["verified"] is True and self.same_class(key, d, rep)
            ok = ok and self.certificate(key, out["certificate"])
            return None if ok else f"clifford representative {rep} fails its re-check"
        # report
        if rc != 0 or r["riemann_roch_holds"] is not True:
            return f"report: exit {rc}, riemann_roch_holds {r['riemann_roch_holds']}"
        deg, gen = sum(d), genus(s)
        if 0 <= deg <= 2 * gen - 2 and r["clifford_holds"] is not True:
            return "report: clifford_holds is not true"
        sb = r["semibalanced_representative"]
        if sb is not None:
            rep = _values(s, sb)
            if not (self.same_class(key, d, rep) and cf.reps.is_semibalanced(self.graph(key), self.divisor(key, rep))):
                return f"report: semibalanced representative {rep} fails its re-check"
        cr = r["clifford_representative"]
        if cr is not None and cr["status"] == "Found":
            rep = _values(s, cr["representative"])
            if not (cr["verified"] is True and self.same_class(key, d, rep) and self.certificate(key, out["certificate"])):
                return f"report: clifford representative {rep} fails its re-check"
        return None


def checker(cf, ops, tracer):
    return _Checker(cf).verdict


def memory_ops(ops):
    """The first op of each command: under tracemalloc the whole round runs
    for minutes, mostly in `info` on the large files."""
    first = {}
    for op in ops:
        first.setdefault(op[0], op)
    return list(first.values())


def replay(cf, ops, results, tracer, workdir):
    """Re-run the round in-process through `chipfire.cli.main(argv)`, so the
    spans see which layers each command reaches; the output must match the
    child's apart from `timing`."""
    paths = build(cf, ops, workdir)
    mismatches = 0
    for i, op in enumerate(ops):
        tracer.op = i
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                cf.cli.main(_argv(op, paths[op[1]]))
            out = json.loads(buf.getvalue())
            out.pop("timing")
        except Exception:  # counted below; the child's run already decided the op
            out = None
        tracer.op = -1
        if results is not None and results[i] is not None and out != results[i][3]:
            mismatches += 1
    done = [r for r in results or () if r is not None]
    return {
        "cli.start_ms": sum(r[1] - r[2] for r in done) * 1e3,
        "cli.cmd_ms": sum(r[2] for r in done) * 1e3,
        "cli.replay_mismatches": mismatches,
    }
