"""Each command reduces each input divisor once.

``cli._run`` builds one class per ``--divisor`` at the base vertex, echoes
its canonical form and hands it to the command, so no command reduces its
input again.  The counts below are calls of the reduction kernel
``chipfire.reduction._reduce_off`` (the rank scan keeps its own reference
to the kernel, which only ``changed`` counts).  Two facts let
``report`` and ``verify_certificate`` skip reductions, and both are
checked here against ``is_special_class``: a class is special iff
rank(d) >= 0 and rank(K - d) >= 0, and a uniform divisor's class is
always special.
"""

import json
import random

import pytest

from chipfire import (
    Divisor,
    canonical_divisor,
    class_of,
    clifford_representative,
    genus,
    is_special_class,
    verify_certificate,
)
from chipfire.cli import main
from chipfire.reps import BRANCH_UNIFORM
from helpers import (
    clip_degree,
    golden_graph,
    graph_file,
    loop_chain_graph,
    random_connected_graph,
    random_divisor,
    spy,
)


@pytest.fixture
def files(tmp_path):
    return {
        "golden": graph_file(tmp_path, "golden", golden_graph()),
        "loops": graph_file(tmp_path, "loops", loop_chain_graph()),
    }


@pytest.fixture
def reductions(monkeypatch):
    return spy(monkeypatch, "chipfire.reduction._reduce_off")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["reduce", "golden", "--divisor", "v2=5"], 1),
        (["reduce", "golden", "--divisor", "v1=-3,v3=4", "--base", "v3"], 1),
        (["semibalanced", "golden", "--divisor", "v1=2,v2=-1"], 1),
        (["semibalanced", "loops", "--divisor", "c=4", "--base", "b"], 1),
        (["uniform", "golden", "--divisor", "v2=4,v3=1"], 1),
        (["uniform", "golden", "--divisor", "v1=1,v2=-1"], 1),
        (["equivalent", "golden", "--divisor", "v1=3", "--divisor", "v2=3"], 2),
        # the input once, plus once in the case split, in every branch
        (["clifford-rep", "golden", "--divisor", "v1=1,v2=-1"], 2),
        (["clifford-rep", "golden", "--divisor", "v2=4,v3=6"], 2),
        (["clifford-rep", "loops", "--divisor", "a=1,c=5"], 2),
        (["clifford-rep", "loops", "--divisor", "a=2,b=3,c=1"], 2),
        (["clifford-rep", "loops", "--divisor", "a=5", "--base", "c"], 2),
        (["clifford-rep", "golden", "--divisor", "v2=4,v3=1"], 2),
        # report: twice in [0, 2g - 2], once outside it
        (["report", "golden", "--divisor", "v2=4,v3=1"], 2),
        (["report", "golden", "--divisor", "v1=1,v2=-1", "--no-shortcuts"], 2),
        (["report", "loops", "--divisor", "a=2,b=3,c=1"], 2),
        (["report", "loops", "--divisor", "a=1,c=5", "--base", "c"], 2),
        (["report", "golden", "--divisor", "v1=-1"], 1),
        (["report", "golden", "--divisor", "v1=11", "--no-shortcuts"], 1),
        (["report", "loops", "--divisor", "a=9,b=-1", "--base", "b"], 1),
    ],
)
def test_each_input_is_reduced_once(argv, expected, files, reductions, capsys):
    argv = [argv[0], files[argv[1]], *argv[2:], "--json"]
    code = main(argv)
    assert code in (0, 1), capsys.readouterr().err
    assert len(reductions) == expected


@pytest.fixture
def changed(monkeypatch):
    """One flag per kernel call, counted through ``reduction`` and through
    the rank scan's own reference in ``rank``: whether the call changed its
    input.  A call whose input is already reduced hands it back unchanged
    after one burn."""
    return spy(
        monkeypatch,
        "chipfire.reduction._reduce_off",
        "chipfire.rank._reduce_off",
        record=lambda args, out: out != list(args[1]),
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["rank", "golden", "--divisor", "v1=-1,v2=3,v3=2"], 1),
        (["rank", "golden", "--divisor", "v1=4,v2=-1", "--no-shortcuts"], 1),
        (["rank", "loops", "--divisor", "a=3,b=-1,c=2"], 1),
        # the residual K - d is a second divisor, reduced by the scan
        (["rr-check", "golden", "--divisor", "v1=4,v2=-1"], 2),
    ],
)
def test_the_rank_scan_starts_from_the_reduced_input(argv, expected, files, changed, capsys):
    """The rank commands rank the class's canonical form, so the scan's
    level 0 finds the input already reduced; ranking the input as given
    reduced it from scratch a second time."""
    argv = [argv[0], files[argv[1]], *argv[2:], "--json"]
    assert main(argv) == 0, capsys.readouterr().err
    assert sum(changed) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the class is reduced at g's base vertex, which is effectivize's answer
        (["effectivize", "golden", "--divisor", "v1=-2,v2=3"], 1),
        # reduced at v3 for the echo, then at g's base vertex v1
        (["effectivize", "golden", "--divisor", "v1=-2,v2=3", "--base", "v3"], 2),
    ],
)
def test_effectivize_reuses_the_class_at_the_base_vertex(argv, expected, files, changed, capsys):
    argv = [argv[0], files[argv[1]], *argv[2:], "--json"]
    assert main(argv) in (0, 1), capsys.readouterr().err
    assert sum(changed) == expected


def test_a_verified_uniform_certificate_costs_no_reduction(reductions):
    g = loop_chain_graph()
    _, cert = clifford_representative(g, class_of(g, canonical_divisor(g), "a"))
    assert cert.branch == BRANCH_UNIFORM
    reductions.clear()
    assert verify_certificate(g, cert)
    assert reductions == []


def test_report_special_agrees_with_the_class(tmp_path, capsys):
    """``special`` is rank(d) >= 0 and rank(K - d) >= 0; it must agree with
    reducing the class and its residual."""
    rng = random.Random(24)
    verdicts = []
    for i in range(220):
        g = random_connected_graph(rng, require_weight=i % 2 == 0)
        path = graph_file(tmp_path, f"g{i}", g)
        for _ in range(2):
            deg = rng.randint(-2, 2 * genus(g))
            d = clip_degree(rng, random_divisor(rng, g, -2, 3), deg, deg)
            base = rng.choice(g.vertices)
            literal = ",".join(f"{v}={x}" for v, x in zip(g.vertices, d.values))
            argv = ["report", path, "--divisor", literal, "--base", base, "--json"]
            if rng.random() < 0.5:
                argv.append("--no-shortcuts")
            assert main(argv) == 0, capsys.readouterr().err
            special = json.loads(capsys.readouterr().out)["result"]["special"]
            assert special == is_special_class(g, class_of(g, d, base)), (g, d, base)
            verdicts.append(special)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_uniform_divisors_lie_in_special_classes():
    """What lets the Uniform certificate check stop at uniformity."""
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        g = random_connected_graph(rng, max_vertices=7)
        k = canonical_divisor(g).values
        if min(k) < 0:
            continue  # no divisor is uniform
        for _ in range(3):
            d = Divisor(g, [rng.randint(0, x) for x in k])
            for base in g.vertices:
                assert is_special_class(g, class_of(g, d, base)), (g, d, base)
                checked += 1
