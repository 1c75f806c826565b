import json
import sys
import time

import pytest

from chipfire import ParseError
from chipfire.cli import (
    _COMMANDS,
    _MAX_DIGITS,
    _jsonable,
    build_parser,
    main,
    parse_divisor_literal,
    parse_graph,
    serialize_graph,
)
from helpers import golden_graph, graph_file

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
    return graph_file(tmp_path, "golden", GOLDEN_TEXT)


class TestParseGraph:
    def test_golden_document(self):
        g = parse_graph(GOLDEN_TEXT)
        assert g.vertices == ("v1", "v2", "v3")
        assert len(g.edges) == 4
        assert g.weights == {"v1": 0, "v2": 3, "v3": 1}

    def test_duplicate_edge_lines_accumulate(self):
        text = "graph\nvertex a weight 0\nvertex b weight 0\nedge a b\nedge a b\n"
        assert len(parse_graph(text).edges) == 2

    def test_loops_parse(self):
        text = "graph\nvertex a weight 0\nloop a x2\n"
        g = parse_graph(text)
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("vertex b weight 1_0", "invalid weight '1_0'"),
            ("vertex b weight \u0663", "invalid weight '\u0663'"),
            ("edge a a2 x1_0", "invalid multiplicity 'x1_0'"),
            ("edge a a2 x\u0663", "invalid multiplicity 'x\u0663'"),
        ],
    )
    def test_integer_tokens_are_ascii_digits(self, line, message):
        text = f"graph\nvertex a weight 0\nvertex a2 weight 0\n{line}\n"
        with pytest.raises(ParseError, match=message) as excinfo:
            parse_graph(text)
        assert excinfo.value.line == 4

    def test_signed_integer_tokens_parse(self):
        text = "graph\nvertex a weight +1\nvertex b weight 2\nedge a b x+2\n"
        g = parse_graph(text)
        assert (g.weights, len(g.edges)) == ({"a": 1, "b": 2}, 2)

    @pytest.mark.parametrize("name", ["a,b", "c=d"])
    def test_vertex_name_a_divisor_literal_cannot_hold(self, name):
        text = f"graph\nvertex x weight 0\n  vertex {name} weight 0\nedge x {name}\n"
        with pytest.raises(ParseError, match="contains ',' or '='") as excinfo:
            parse_graph(text)
        assert (excinfo.value.line, excinfo.value.column) == (3, 10)

    def test_disconnected(self):
        text = "graph\nvertex a weight 0\nvertex b weight 0\n"
        with pytest.raises(ParseError, match="disconnected"):
            parse_graph(text)

    def test_round_trip(self):
        g = golden_graph()
        assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_with_loops(self):
        text = "graph\nvertex b weight 2\nvertex a weight 0\nedge b a x2\nloop b\n"
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g


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

    @pytest.mark.parametrize("num", ["1_0", "\u0663", "3.0", "0x1", "--1", "+"])
    def test_only_ascii_digits_with_a_sign(self, num):
        g = golden_graph()
        with pytest.raises(ParseError, match="invalid integer") as excinfo:
            parse_divisor_literal(f"v2=1,v1={num}", g)
        assert excinfo.value.column == 6

    def test_a_plus_sign_is_allowed(self):
        assert parse_divisor_literal("v1=+4", golden_graph()).values == (4, 0, 0)


class TestCommands:
    def test_info(self, golden_file, capsys):
        assert main(["info", golden_file]) == 0
        out = capsys.readouterr().out
        assert "genus: 6" in out

    def test_a_byte_order_mark_is_read_past(self, golden_file, tmp_path, capsys):
        marked = tmp_path / "marked.graph"
        marked.write_bytes(b"\xef\xbb\xbf" + GOLDEN_TEXT.encode("utf-8"))
        outputs = []
        for path in (golden_file, str(marked)):
            assert main(["report", path, "--divisor", "v2=3,v3=2", "--json"]) == 0
            obj = json.loads(capsys.readouterr().out)
            del obj["timing"], obj["inputs"]["graph_file"]
            outputs.append(obj)
        assert outputs[0] == outputs[1]

    def test_info_json(self, golden_file, capsys):
        assert main(["info", golden_file, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["command"] == "info"
        assert obj["result"]["genus"] == 6
        assert obj["result"]["canonical_divisor"] == {"v1": 1, "v2": 8, "v3": 1}

    def test_info_counts_a_huge_model_without_building_it(self, tmp_path, capsys):
        text = "graph\nvertex a weight 10000000\nvertex b weight 1\nedge a b x3\nloop b\n"
        path = graph_file(tmp_path, "heavy", text)
        start = time.perf_counter()
        assert main(["info", path, "--json"]) == 0
        assert time.perf_counter() - start < 5
        model = json.loads(capsys.readouterr().out)["result"]["bullet_model"]
        # a and b, then one satellite per unit of weight and per loop, two edges each
        assert model == {"vertices": 2 + 10_000_002, "edges": 3 + 2 * 10_000_002}

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

    @pytest.mark.parametrize(
        "zone, message",
        [
            ("v1,,v2", "empty entry in vertex set"),
            ("v1,", "empty entry in vertex set"),
            (",v1", "empty entry in vertex set"),
            ("", "empty vertex set"),
            (" ", "empty vertex set"),
            ("v1,v1", "duplicate vertex 'v1' in set"),
            ("v1, v2,v1", "duplicate vertex 'v1' in set"),
        ],
    )
    def test_bad_set_exits_2(self, golden_file, capsys, zone, message):
        code = main(["reduce", golden_file, "--divisor", "v3=7", "--set", zone, "--json"])
        assert code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

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
        # a non-effective input is answered by its reduced form at the base
        out = obj["result"]["divisor"]
        assert all(x >= 0 for x in out.values())
        assert out == obj["inputs"]["canonical_form"]

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

    @pytest.mark.parametrize("value", ["-1", "-7", "x", "1_000", "\u0663", " 5"])
    def test_bad_budget_is_a_usage_error(self, golden_file, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["rank", golden_file, "--budget", value, "--divisor", "v1=2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --budget: expected a nonnegative integer, got '{value}'" in err

    def test_zero_budget_is_accepted(self, golden_file):
        assert build_parser().parse_args(["rank", golden_file, "--budget", "0"]).budget == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph\nvertex a weight\n", "expected 'vertex NAME weight K' (line 2, column 1)"),
            ("graph\nvertex a weight 0\nedge a\n", "expected 'edge A B [xK]' (line 3, column 1)"),
            ("graph\nvertex a weight 0\nloop a a x2\n", "expected 'loop V [xK]' (line 3, column 1)"),
            (
                "graph\nvertex a weight 0\nvertex b weight 0\nedge a b 3\n",
                "expected multiplicity 'xK', got '3' (line 4, column 10)",
            ),
            ("graph\nvertex a weight 0\n  node b\n", "unknown directive 'node' (line 3, column 3)"),
            ("# no header\n\n   # only comments and blank lines\n", "expected 'graph' header"),
        ],
    )
    def test_a_malformed_graph_line_exits_2(self, tmp_path, capsys, text, message):
        assert main(["info", graph_file(tmp_path, "bad", text)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_an_empty_divisor_entry_exits_2(self, golden_file, capsys):
        assert main(["rank", golden_file, "--divisor", "v1=1,,v2=2"]) == 2
        assert capsys.readouterr() == ("", "error: empty divisor entry (column 6)\n")

    def test_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/path.graph"]) == 2

    def test_parse_error_position_reported(self, tmp_path, capsys):
        path = graph_file(tmp_path, "bad", "graph\nvertex a weight 0\nedge a b\n")
        assert main(["info", path]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_vertex_name_with_comma_exits_2(self, tmp_path, capsys):
        path = graph_file(tmp_path, "comma", "graph\nvertex a,b weight 0\n")
        assert main(["rank", path, "--divisor", "a,b=1"]) == 2
        assert "vertex name 'a,b' contains ',' or '=' (line 2, column 8)" in capsys.readouterr().err

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


class TestPastTheDigitLimit:
    """Answers longer than CPython's default 4,300-digit limit on int-to-str
    conversion print in full.  Every figure here is a string: this process
    keeps its limit."""

    NINES = "9" * 4300
    TWICE = "1" + "9" * 4299 + "8"  # 2 * NINES, 4,301 digits

    @pytest.fixture
    def edge_file(self, tmp_path):
        text = "graph\nvertex a weight 0\nvertex b weight 0\nedge a b\n"
        return graph_file(tmp_path, "edge", text)

    def test_rank_json(self, edge_file, capsys):
        code = main(["rank", edge_file, "--divisor", f"a={self.NINES},b={self.NINES}", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["rank"] == self.TWICE
        assert obj["inputs"]["divisor"] == {"a": self.NINES, "b": self.NINES}

    def test_reduce_text(self, edge_file, capsys):
        code = main(["reduce", edge_file, "--divisor", f"a={self.NINES},b={self.NINES}"])
        assert code == 0
        assert capsys.readouterr().out == f"reduced at a: a={self.TWICE}, b=0\n"

    def test_longer_literal_parses(self, edge_file, capsys):
        digits = "7" * 5000
        assert main(["reduce", edge_file, "--divisor", f"b={digits}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["reduced"] == {"a": digits, "b": 0}

    def test_the_longest_token_parses(self, edge_file, capsys):
        digits = "7" * _MAX_DIGITS
        assert main(["reduce", edge_file, "--divisor", f"b=-{digits}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["reduced"] == {"a": "-" + digits, "b": 0}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph\nvertex a weight {}\nvertex b weight 0\nedge a b\n", "invalid weight"),
            ("graph\nvertex a weight 0\nvertex b weight 0\nedge a b x{}\n", "invalid multiplicity"),
        ],
    )
    def test_a_longer_graph_token_exits_2(self, tmp_path, capsys, text, message):
        path = graph_file(tmp_path, "long", text.format("1" * (_MAX_DIGITS + 1)))
        assert main(["info", path]) == 2
        assert message in capsys.readouterr().err

    def test_a_longer_divisor_value_exits_2(self, edge_file, capsys):
        assert main(["reduce", edge_file, "--divisor", "a=+" + "1" * (_MAX_DIGITS + 1)]) == 2
        assert "invalid integer" in capsys.readouterr().err

    def test_a_longer_budget_exits_2(self, edge_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rank", edge_file, "--divisor", "a=1", "--budget", "1" * (_MAX_DIGITS + 1)])
        assert excinfo.value.code == 2
        assert "argument --budget: expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("site", ["weight", "multiplicity", "divisor", "budget"])
    def test_an_over_long_token_is_quoted_by_its_prefix(self, tmp_path, edge_file, capsys, site):
        """A 60,000-digit token makes one short stderr line at every site that
        reads an integer: the message quotes a prefix and gives the length."""
        token = "9" * 60_000
        if site == "weight":
            argv = ["info", graph_file(tmp_path, "long", f"graph\nvertex a weight {token}\n")]
        elif site == "multiplicity":
            text = f"graph\nvertex a weight 0\nloop a x{token}\n"
            argv = ["info", graph_file(tmp_path, "long", text)]
        elif site == "divisor":
            argv = ["reduce", edge_file, "--divisor", f"a={token}"]
        else:
            argv = ["rank", edge_file, "--divisor", "a=1", "--budget", token]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "9" * 31 + "'... (60,00" in err
        assert max(map(len, err.splitlines())) <= 200

    def test_callers_limit_is_restored(self, edge_file, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this CPython has no limit on int-to-str digits")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["reduce", edge_file, "--divisor", f"a={self.NINES},b={self.NINES}"]) == 0
            assert sys.get_int_max_str_digits() == 5000
            assert main(["reduce", edge_file, "--divisor", "a=x"]) == 2
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)


class TestJsonEncoding:
    def test_big_ints_become_strings(self):
        assert _jsonable(2 ** 53) == 2 ** 53
        assert _jsonable(2 ** 53 + 1) == str(2 ** 53 + 1)
        assert _jsonable(-(2 ** 60)) == str(-(2 ** 60))
        assert _jsonable({"a": [True, 2 ** 54]}) == {"a": [True, str(2 ** 54)]}


class TestGrammar:
    """One parser: ``chipfire COMMAND GRAPH [options]``, options anywhere
    after the command."""

    OPTIONS = [
        "--divisor", "v2=3,v3=2",
        "--base", "v1",
        "--set", "v1,v2",
        "--json",
        "--budget", "100000",
        "--no-shortcuts",
    ]

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_every_command_takes_every_option(self, command):
        args = build_parser().parse_args([command, "g.graph"] + self.OPTIONS)
        assert (args.command, args.graph) == (command, "g.graph")
        assert args.divisor == ["v2=3,v3=2"]
        assert (args.base, args.set, args.budget) == ("v1", "v1,v2", 100000)
        assert args.json is True and args.no_shortcuts is True

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_options_before_or_after_the_graph(self, command, golden_file, capsys):
        divisors = self.OPTIONS[:2] * (2 if command == "equivalent" else 1)
        after = [command, golden_file] + divisors + self.OPTIONS[2:]
        before = [command] + divisors + self.OPTIONS[2:] + [golden_file]
        assert main(after) in (0, 1)
        first = json.loads(capsys.readouterr().out)
        assert main(before) in (0, 1)
        second = json.loads(capsys.readouterr().out)
        assert first["command"] == command
        first.pop("timing")
        second.pop("timing")
        assert first == second

    def test_unknown_command_exits_2(self, golden_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus", golden_file])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_missing_graph_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["info"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in _COMMANDS)
