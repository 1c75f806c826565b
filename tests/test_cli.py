import json

import pytest

from chipfire import ParseError
from chipfire.cli import (
    _jsonable,
    main,
    parse_divisor_literal,
    parse_graph,
    serialize_graph,
)
from helpers import golden_graph

GOLDEN_TEXT = """\
graph
# three vertices, a triple edge and a bridge
vertex v1 weight 0
vertex v2 weight 3
vertex v3 weight 1
edge v1 v2 x3
edge v2 v3
"""


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.graph"
    path.write_text(GOLDEN_TEXT, encoding="utf-8")
    return str(path)


class TestParseGraph:
    def test_golden_document(self):
        doc = parse_graph(GOLDEN_TEXT)
        g = doc.graph
        assert g.vertices == ("v1", "v2", "v3")
        assert len(g.edges) == 4
        assert g.weights == {"v1": 0, "v2": 3, "v3": 1}
        assert doc.vertex_lines["v2"] == 4

    def test_duplicate_edge_lines_accumulate(self):
        text = "graph\nvertex a weight 0\nvertex b weight 0\nedge a b\nedge a b\n"
        assert len(parse_graph(text).graph.edges) == 2

    def test_loops_parse(self):
        text = "graph\nvertex a weight 0\nloop a x2\n"
        g = parse_graph(text).graph
        assert g.edges == (("a", "a"), ("a", "a"))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a weight 0\n")

    def test_no_vertices(self):
        with pytest.raises(ParseError, match="no vertices"):
            parse_graph("graph\n")

    def test_duplicate_vertex(self):
        text = "graph\nvertex a weight 0\nvertex a weight 1\n"
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse_graph(text)

    def test_unknown_edge_endpoint_named(self):
        text = "graph\nvertex a weight 0\nedge a b\n"
        with pytest.raises(ParseError, match="'b'") as excinfo:
            parse_graph(text)
        assert excinfo.value.line == 3

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="negative weight"):
            parse_graph("graph\nvertex a weight -1\n")

    def test_bad_multiplicity(self):
        text = "graph\nvertex a weight 0\nvertex b weight 0\nedge a b x0\n"
        with pytest.raises(ParseError, match="multiplicity"):
            parse_graph(text)

    def test_disconnected(self):
        text = "graph\nvertex a weight 0\nvertex b weight 0\n"
        with pytest.raises(ParseError, match="disconnected"):
            parse_graph(text)

    def test_round_trip(self):
        g = golden_graph()
        assert parse_graph(serialize_graph(g)).graph == g

    def test_round_trip_with_loops(self):
        text = "graph\nvertex b weight 2\nvertex a weight 0\nedge b a x2\nloop b\n"
        g = parse_graph(text).graph
        assert parse_graph(serialize_graph(g)).graph == g


class TestParseDivisor:
    def test_golden_literal(self):
        g = golden_graph()
        d = parse_divisor_literal("v1=0,v2=3,v3=2", g)
        assert d.values == (0, 3, 2)

    def test_omitted_default_zero(self):
        g = golden_graph()
        assert parse_divisor_literal("v2=3", g).values == (0, 3, 0)

    def test_zero_literal(self):
        g = golden_graph()
        assert parse_divisor_literal("0", g).values == (0, 0, 0)

    def test_duplicate_assignment_position(self):
        g = golden_graph()
        with pytest.raises(ParseError, match="duplicate") as excinfo:
            parse_divisor_literal("v1=0,v2=3,v2=1", g)
        assert excinfo.value.column == 11

    def test_malformed_entry(self):
        g = golden_graph()
        with pytest.raises(ParseError):
            parse_divisor_literal("v1=0,v2", g)

    def test_unknown_vertex(self):
        g = golden_graph()
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_divisor_literal("bogus=1", g)

    def test_negative_values_allowed(self):
        g = golden_graph()
        assert parse_divisor_literal("v1=-4", g).values == (-4, 0, 0)


class TestCommands:
    def test_info(self, golden_file, capsys):
        assert main(["info", golden_file]) == 0
        out = capsys.readouterr().out
        assert "genus: 6" in out

    def test_info_json(self, golden_file, capsys):
        assert main(["info", golden_file, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["command"] == "info"
        assert obj["result"]["genus"] == 6
        assert obj["result"]["canonical_divisor"] == {"v1": 1, "v2": 8, "v3": 1}

    def test_rank_golden(self, golden_file, capsys):
        code = main(["rank", golden_file, "--divisor", "v2=3,v3=2", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["rank"] == 2
        assert obj["inputs"]["canonical_form"] == {"v1": 3, "v2": 2, "v3": 0}

    def test_rank_no_shortcuts(self, golden_file, capsys):
        code = main(
            ["rank", golden_file, "--divisor", "v1=11", "--no-shortcuts", "--json"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["rank"] == 5
        assert obj["result"]["method"] == "definition"

    def test_json_determinism(self, golden_file, capsys):
        argv = ["rank", golden_file, "--divisor", "v2=3,v3=2", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        a, b = json.loads(first), json.loads(second)
        assert "timing" in a and "timing" in b
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a) == json.dumps(b)

    def test_reduce(self, golden_file, capsys):
        code = main(["reduce", golden_file, "--divisor", "v2=3,v3=2", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["reduced"] == {"v1": 3, "v2": 2, "v3": 0}

    def test_reduce_set(self, golden_file, capsys):
        code = main(
            ["reduce", golden_file, "--divisor", "v3=7", "--set", "v1,v2", "--json"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["set"] == ["v1", "v2"]

    def test_equivalent(self, golden_file, capsys):
        code = main(
            [
                "equivalent",
                golden_file,
                "--divisor",
                "v2=3,v3=2",
                "--divisor",
                "v1=3,v2=2",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["equivalent"] is True

    def test_equivalent_needs_two(self, golden_file, capsys):
        assert main(["equivalent", golden_file, "--divisor", "0"]) == 2

    def test_effectivize_success(self, golden_file, capsys):
        code = main(
            ["effectivize", golden_file, "--divisor", "v1=1,v2=5,v3=-1", "--json"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["status"] == "Effective"

    def test_effectivize_not_effective_exits_1(self, golden_file, capsys):
        code = main(["effectivize", golden_file, "--divisor", "v1=-1", "--json"])
        assert code == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["status"] == "NotEffective"

    def test_rr_check_zero(self, golden_file, capsys):
        code = main(["rr-check", golden_file, "--divisor", "0", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["identity_holds"] is True
        assert obj["result"]["rank"] == 0
        assert obj["result"]["residual_rank"] == 5

    def test_clifford_rep_golden_not_covered(self, golden_file, capsys):
        code = main(
            ["clifford-rep", golden_file, "--divisor", "v2=3,v3=2", "--json"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["status"] == "NotCovered"
        assert obj["result"]["chain_of_2ec"] is True
        assert obj["result"]["loop_hypothesis"] is False

    def test_clifford_rep_found(self, golden_file, capsys):
        code = main(
            ["clifford-rep", golden_file, "--divisor", "v1=1,v2=-1", "--json"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["status"] == "Found"
        assert obj["result"]["branch"] == "VReducedNonEffective"
        assert obj["result"]["verified"] is True
        assert obj["certificate"]["branch"] == "VReducedNonEffective"

    def test_semibalanced(self, golden_file, capsys):
        code = main(["semibalanced", golden_file, "--divisor", "v2=3,v3=2", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["is_semibalanced"] is True

    def test_uniform_found(self, golden_file, capsys):
        code = main(["uniform", golden_file, "--divisor", "v2=3,v3=2", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["representative"] == {"v1": 0, "v2": 4, "v3": 1}

    def test_uniform_not_found_exits_1(self, golden_file, capsys):
        code = main(["uniform", golden_file, "--divisor", "v1=1,v2=-1", "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["result"]["status"] == "NotFound"

    def test_report(self, golden_file, capsys):
        code = main(["report", golden_file, "--divisor", "v2=3,v3=2", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["rank"] == 2
        assert obj["result"]["riemann_roch_holds"] is True
        assert obj["result"]["clifford_holds"] is True
        assert obj["result"]["special"] is True
        assert obj["result"]["clifford_representative"]["status"] == "NotCovered"

    def test_malformed_divisor_exits_2(self, golden_file, capsys):
        code = main(["rank", golden_file, "--divisor", "v1=0,v2=3,v2=oops"])
        assert code == 2
        assert "column" in capsys.readouterr().err

    def test_unknown_base_exits_2(self, golden_file, capsys):
        assert main(["rank", golden_file, "--divisor", "0", "--base", "zz"]) == 2

    def test_budget_exits_2(self, golden_file, capsys):
        code = main(["rank", golden_file, "--divisor", "v2=3,v3=2", "--budget", "5"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/path.graph"]) == 2

    def test_parse_error_position_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("graph\nvertex a weight 0\nedge a b\n", encoding="utf-8")
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_clifford_rep_out_of_range_exits_1(self, golden_file, capsys):
        assert main(["clifford-rep", golden_file, "--divisor", "v1=-1"]) == 1

    def test_internal_error_exits_3(self, golden_file, capsys, monkeypatch):
        # v2=5 reduces at v1 in exactly one firing round; a guard of 0 trips on it
        monkeypatch.setattr("chipfire.reduction._round_guard", lambda g, vals: 0)
        assert main(["reduce", golden_file, "--divisor", "v2=5"]) == 3
        assert "internal error: reduction failed to stabilize" in capsys.readouterr().err

    def test_huge_chip_counts_survive_json(self, golden_file, capsys):
        big = str(2 ** 60)
        code = main(["reduce", golden_file, "--divisor", f"v2={big}", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert sum(int(x) for x in obj["result"]["reduced"].values()) == 2 ** 60


class TestJsonEncoding:
    def test_big_ints_become_strings(self):
        assert _jsonable(2 ** 53) == 2 ** 53
        assert _jsonable(2 ** 53 + 1) == str(2 ** 53 + 1)
        assert _jsonable(-(2 ** 60)) == str(-(2 ** 60))
        assert _jsonable({"a": [True, 2 ** 54]}) == {"a": [True, str(2 ** 54)]}
