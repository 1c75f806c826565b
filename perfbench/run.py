"""chipfire benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rank-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``./src`` and from nowhere else.  All inputs come from
``random.Random(seed)``: one round of at least 100 ops, generated before
timing.  The round is run as a closed loop with one caller, again and
again until ``--seconds`` of op time has passed; before each pass chipfire
is imported afresh and the round's graphs are built afresh, so caches
start cold at the start of every pass.  Every op and every set-up is
timed between two probes of the host's speed (``hostspeed``) and scaled
to the nominal speed; the timing metrics are taken over each op's median
scaled latency across the passes (``typical_latencies``), and
``setup_s`` is the median scaled set-up time.
Answers are checked after timing; a wrong answer, an exception, a timeout
or an unexpected exit code counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
once untraced and once, freshly set up, with spans around the calls into
each layer (the two rates give the tracing overhead), then the same round
again under tracemalloc for the per-layer memory peaks, and prints the
per-layer metrics; its exact counts repeat from run to run.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
import types
from contextlib import nullcontext
from pathlib import Path

import cli_report
import common
import hostspeed
import rank_scan
import reduce_sparse
from tracing import Tracer

WORKLOADS = {w.NAME: w for w in (rank_scan, reduce_sparse, cli_report)}
SETUP_REPEATS = 3  # before the first round; once more before each later one
OP_CAP_S = 60.0  # an in-process op running longer is interrupted and fails
RUN_CAP_S = 150.0  # past this much op time, ops not yet started fail unrun
WORK_DIR = Path("perfbench") / "_work"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("graph", "divisors", "reduction", "enumeration", "rank", "reps", "cli")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op ran past {OP_CAP_S:g} s")


class _NoTrace:
    paused = False
    op = -1

    def span(self, name):
        return nullcontext()


def load_chipfire(src: Path, modules) -> types.SimpleNamespace:
    """Import chipfire afresh from src; every module is looked up at call
    time through the namespace, so the traced run's wrappers are seen."""
    for name in [m for m in sys.modules if m == "chipfire" or m.startswith("chipfire.")]:
        del sys.modules[name]
    cf = types.SimpleNamespace()
    for name in ("graph", "divisors", "reduction", "rank", "reps") + tuple(modules):
        setattr(cf, name, importlib.import_module(f"chipfire.{name}"))
    where = Path(cf.graph.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"chipfire was imported from {where}, not from {src}")

    def build_graph(spec):
        vertices, weights, edges = spec
        expanded = []
        for i, j, m in edges:
            expanded += [(vertices[i], vertices[j])] * m
        return cf.graph.WeightedMultigraph(vertices, dict(zip(vertices, weights)), expanded)

    cf.build_graph = build_graph
    return cf


def typical_latencies(passes):
    """Each op's median scaled latency over the passes of the same round.

    Scaling takes out the host's speed at the moment of the op; the median
    over passes takes out what is left, such as a probe that met another
    spell than its op.  Ops that never started (the run's time cap) have
    no latency and are left out.
    """
    per_op = {}
    for scaled in passes:
        for i, x in enumerate(scaled):
            if x is not None:
                per_op.setdefault(i, []).append(x)
    return [statistics.median(per_op[i]) for i in sorted(per_op)]


def _p90(lat):
    return statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]


def run_round(wl, cf, ctx, ops, tracer, spent_before: float, after_op=None):
    """Closed loop over one round; returns (results, latencies, errors,
    scaled), where scaled holds each latency at the nominal host speed.

    Ops left unstarted by the run's time cap fail and have latency None.
    after_op(i), if given, runs untimed after op i."""
    results, latencies, errors, scaled = [], [], [], []
    in_process = getattr(wl, "IN_PROCESS", True)
    spent = spent_before
    for i, op in enumerate(ops):
        if spent > RUN_CAP_S:
            results.append(None)
            latencies.append(None)
            scaled.append(None)
            errors.append("not started: the run passed its time cap")
            continue
        res = err = None
        before = hostspeed.probe()
        tracer.op = i
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = time.perf_counter()
        try:
            res = wl.run_op(cf, ctx, op)
        except Exception as exc:  # a failing op is recorded and the run goes on
            err = f"{type(exc).__name__}: {exc}"
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
            tracer.op = -1
        latencies.append(time.perf_counter() - t0)
        scaled.append(latencies[-1] / hostspeed.slowness(before, hostspeed.probe()))
        spent += latencies[-1]
        results.append(res)
        errors.append(err)
        if after_op is not None:
            after_op(i)
    return results, latencies, errors, scaled


def memory_pass(wl, cf, ops, workdir):
    """Run the round once more, cold, under tracemalloc; returns the traced
    peak in bytes per layer, over that layer's outermost calls."""
    if hasattr(wl, "memory_ops"):
        ops = wl.memory_ops(ops)
    tracer = Tracer(memory=True)
    tracer.install()
    tracemalloc.start()
    try:
        if hasattr(wl, "replay"):
            wl.replay(cf, ops, None, tracer, workdir)
        else:
            run_round(wl, cf, wl.build(cf, ops, workdir), ops, tracer, 0.0)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return tracer.mem_peak


def check_round(wl, cf, ops, results, errors, tracer):
    """Verdicts for the ops that ran without error (None when right).  A
    check that raises fails its own op as a wrong answer; one that runs
    past the cap fails it unverified, through its entry in errors."""
    verdict = wl.checker(cf, ops, tracer)
    out = []
    for i, (op, res) in enumerate(zip(ops, results)):
        bad = None
        if errors[i] is None:  # a failed op's own error is already recorded
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            try:
                bad = verdict(op, res)
            except OpTimeout:
                errors[i] = f"its answer check ran past {OP_CAP_S:g} s"
            except Exception as exc:
                bad = f"check raised {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        out.append(bad)
    return out


def layer_metrics(tracer, rates, extra):
    """Per-layer metrics from the spans of the traced round."""
    busy = tracer.busy_ms
    rank_ms = busy("rank.rank", timed_only=True)
    summaries = tracer.observed.get("rank.rank", [])
    levels = candidates = 0
    with_witness = 0
    for r, method, wkey in summaries:
        if wkey is None:
            continue
        # the scan tested every candidate of levels 0..rank, then the
        # witness's position at level rank + 1
        with_witness += 1
        levels += r + 2
        candidates += sum(common.level_candidates(len(wkey), k) for k in range(r + 1))
        candidates += common.composition_index(wkey) + 1
    calls = len(summaries)
    values = {
        "graph.build_ms": (busy("graph.build"), "ms"),
        "graph.bullet_ms": (busy("graph.bullet"), "ms"),
        "graph.bridges_ms": (busy("graph.bridges", "graph.chain_of_2ec"), "ms"),
        "divisors.equivalent_ms": (busy("divisors.equivalent"), "ms"),
        "divisors.class_of_ms": (busy("divisors.class_of"), "ms"),
        "reduction.reduce_ms": (busy("reduction.reduce_to"), "ms"),
        "reduction.reduce_calls": (tracer.count("reduction.reduce_to"), "count"),
        "reduction.effectivize_ms": (busy("reduction.effectivize"), "ms"),
        "enumeration.ms": (busy("enumeration.compositions", "enumeration.count", timed_only=True), "ms"),
        "rank.rank_ms": (rank_ms, "ms"),
        "rank.calls": (None if "rank.rank" in tracer.missing else calls, "count"),
        "rank.shortcut_share": (sum(1 for s in summaries if s[1] == "regime_shortcut") / calls if calls else 0.0, "ratio"),
        "rank.levels": (levels, "count"),
        "enumeration.candidates": (candidates if with_witness or not calls else None, "count"),
        "rank.us_per_candidate": (rank_ms * 1e3 / candidates if candidates and rank_ms is not None else 0.0, "us"),
        "rank.oracle_ms": (busy("rank.rank_oracle"), "ms"),
        "reps.semibalanced_ms": (busy("reps.semibalanced"), "ms"),
        "reps.uniform_ms": (busy("reps.uniform"), "ms"),
        "reps.clifford_ms": (busy("reps.clifford"), "ms"),
        "reps.verify_ms": (busy("reps.verify"), "ms"),
        "cli.start_ms": (extra.get("cli.start_ms", 0.0), "ms"),
        "cli.cmd_ms": (extra.get("cli.cmd_ms", 0.0), "ms"),
        "cli.parse_ms": (busy("cli.parse_graph"), "ms"),
    }
    own = tracer.self_ms()
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = (own.get(layer, 0.0), "ms")
    for layer in LAYERS:
        values[f"mem.{layer}_peak_mb"] = (tracer.mem_peak.get(layer, 0) / 2**20, "MB")
    untraced, traced = rates
    values["trace.untraced_ops_per_s"] = (untraced, "1/s")
    values["trace.ops_per_s"] = (traced, "1/s")
    values["trace.overhead_share"] = ((untraced - traced) / untraced, "ratio")
    values["trace.spans"] = (len(tracer.name), "count")
    out = {}
    for name, (value, unit) in values.items():
        out[name] = {"value": value, "unit": unit}
        if value is None:
            if name == "enumeration.candidates":
                out[name]["reason"] = "no rank report carried a witness"
            else:
                out[name]["reason"] = "; ".join(sorted(set(tracer.missing.values()))) or "not measured"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "chipfire" / "__init__.py").is_file():
        print(f"error: no chipfire sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    workdir = root / WORK_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    hostspeed.pin()

    # -- set-up: a fresh import, one round's inputs and its graphs or files ------
    setups = []

    def set_up(round_seed):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        cf = load_chipfire(src, getattr(wl, "MODULES", ()))
        ops = wl.make_round(random.Random(round_seed))
        ctx = wl.build(cf, ops, workdir)
        elapsed = time.perf_counter() - t0
        setups.append(elapsed / hostspeed.slowness(before, hostspeed.probe()))
        return cf, ops, ctx

    # repeated before the first pass and done again before every later one,
    # so the samples spread over the run instead of one moment of the host;
    # a workload whose ops run in children (SETUP_EVERY) also sets up between
    # its ops, since its few long passes would give few moments otherwise
    seed0 = random.Random(args.seed).getrandbits(64)
    for _ in range(SETUP_REPEATS):
        cf = ops = ctx = None
        cf, ops, ctx = set_up(seed0)

    tracer = _NoTrace()
    if args.trace:
        # one pass untraced, then set up afresh and traced: the same inputs
        # from cold caches in one process, so the two rates differ by the
        # tracing alone
        scaled = run_round(wl, cf, ctx, ops, tracer, 0.0)[3]
        untraced_rate = len(scaled) / sum(x for x in scaled if x is not None)
        cf = ops = ctx = None
        cf, ops, ctx = set_up(seed0)
        tracer = Tracer(memory=False)
        tracer.install()
        tracer.observe("rank.rank", _rank_summary)
        ctx = None
        ctx = wl.build(cf, ops, workdir)  # so set-up's graph builds show under graph.build

    after_op = None
    every = getattr(wl, "SETUP_EVERY", 0)
    if every and not args.trace:
        def after_op(i):
            if i % every == every - 1:
                set_up(seed0)

    # -- timed passes over the round: --seconds of op time, or one when traced -----
    rounds = []  # (ops, results, errors) per pass
    passes = []  # scaled latencies of each pass
    spent = 0.0
    while True:
        results, lat, errors, scaled = run_round(wl, cf, ctx, ops, tracer, spent, after_op)
        ctx = None
        rounds.append((ops, results, errors))
        passes.append(scaled)
        spent += sum(x for x in lat if x is not None)
        if args.trace or spent >= min(args.seconds, RUN_CAP_S):
            break
        cf = ops = None
        cf, ops, ctx = set_up(seed0)
    usage = resource.RUSAGE_SELF if getattr(wl, "IN_PROCESS", True) else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    if args.trace:
        traced = typical_latencies(passes)
        rates = (untraced_rate, len(traced) / sum(traced))
    elif every:
        cf = load_chipfire(src, wl.MODULES)  # set-ups between ops replaced the round's modules
    setup_s = statistics.median(setups)

    # -- correctness, outside the timed region -------------------------------------
    tracer.paused = True
    tracer.op = -2  # the oracle spans of the checks stay out of the layers' self time
    failures = []
    wrong = 0
    for r, (ops_r, results, errors) in enumerate(rounds):
        verdicts = check_round(wl, cf, ops_r, results, errors, tracer)
        for i, (op, err, bad) in enumerate(zip(ops_r, errors, verdicts)):
            if bad is not None:
                wrong += 1
            if err or bad:
                failures.append({"pass": r, "op": i, "input": repr(op), "reason": err or bad})
    extra = {}
    if args.trace:
        tracer.paused = False
        if hasattr(wl, "replay"):
            extra = wl.replay(cf, rounds[0][0], rounds[0][1], tracer, workdir)
        tracer.uninstall()
        tracer.mem_peak = memory_pass(wl, cf, rounds[0][0], workdir)

    # -- report ---------------------------------------------------------------------
    attempted = sum(len(ops_r) for ops_r, _, _ in rounds)
    failed = len(failures)
    typical = typical_latencies(passes)
    summary = {
        "setup_s": setup_s,
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": _p90(typical) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {wl.NAME}  seed {args.seed}  trace {args.trace}  passes {len(rounds)}  "
          f"ops {attempted}  op time {spent:.2f} s  inputs sha256 {common.digest(rounds[0][0])}")
    at_nominal = sum(x for scaled in passes for x in scaled if x is not None)
    print(f"  host slowness {spent / at_nominal:.3f} (op time over op time at the nominal speed)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<13}{summary[name]:>14.4f} {unit}")
    print(f"  {'fail_frac':<13}{failed / attempted:>14.4f} ratio  ({failed} of {attempted}; {wrong} wrong answers)")
    if failures:
        path = workdir / f"failures-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(failures, indent=1) + "\n", encoding="utf-8")
        print(f"  failing inputs written to {path.relative_to(root)}")
        for f in failures[:5]:
            print(f"  failed: pass {f['pass']} op {f['op']}: {f['reason'][:200]}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, rates, extra)
        path = workdir / f"spans-seed{args.seed}.tsv"
        tracer.write(path)
        print(f"  {len(tracer.name)} spans written to {path.relative_to(root)}")
        for name, value in extra.items():
            if name not in metrics:
                print(f"  {name:<28}{value}")
        for name, m in metrics.items():
            shown = "null" if m["value"] is None else f"{m['value']:.4f}" if isinstance(m["value"], float) else m["value"]
            print(f"  {name:<28}{shown:>14} {m['unit']}" + (f"  ({m['reason']})" if "reason" in m else ""))
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _rank_summary(report):
    w = report.witness
    return (report.rank, report.method, None if w is None else w.sort_key())


if __name__ == "__main__":
    sys.exit(main())
