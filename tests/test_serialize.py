import pytest
from hypothesis import given, settings, strategies as st

from oracle_matroid import circuits
from regma.catalog import catalog
from regma.errors import InputError, PreconditionError
from regma.graph import MultiGraph
from regma.matroid import graphic, r10
from regma.serialize import (format_matroid, load_graph, parse_matroid,
                             parse_matroid_expr)


class TestMatroidFiles:
    def test_roundtrip_with_lift(self):
        m = graphic(catalog("k4"))
        back = parse_matroid(format_matroid(m))
        assert back.rank == m.rank and back.size == m.size
        assert back.lift is not None
        assert sorted(circuits(back)) == sorted(circuits(m))

    def test_parse_without_lift(self):
        text = "2 3\n101\n011\n"
        m = parse_matroid(text)
        assert m.rank == 2 and m.lift is None

    def test_bad_bits(self):
        with pytest.raises(PreconditionError):
            parse_matroid("1 3\n10\n")

    def test_extra_bit_row_rejected(self):
        with pytest.raises(InputError, match="1 lines after its 2 bit rows"):
            parse_matroid("2 3\n110\n011\n101\n")

    def test_line_after_lift_rows_rejected(self):
        text = format_matroid(graphic(catalog("k3")))
        assert parse_matroid(text + "\n\n").lift is not None
        with pytest.raises(InputError):
            parse_matroid(text + "\n1 0 1\n")


class TestGraphFiles:
    def test_extra_edge_line_rejected(self):
        with pytest.raises(InputError, match="header '3 2' with 3 edge lines"):
            MultiGraph.parse("3 2\n0 1\n1 2\n2 0\n")

    def test_blank_lines_ignored(self):
        g = MultiGraph.parse("\n3 2\n\n0 1\n1 2\n\n")
        assert g.edges == ((0, 1), (1, 2))


class TestExpressions:
    def test_nested(self):
        m = parse_matroid_expr(
            "sum2(graphic(builtin:k4)@e0, dual(cographic(builtin:k4))@e1)")
        assert m.rank == 5 and m.size == 10

    def test_sum3_expression(self):
        m = parse_matroid_expr(
            "sum3(graphic(builtin:k5)@{e0,e4,e1}, graphic(builtin:k5)@{e0,e4,e1})")
        assert m.rank == 6 and m.size == 14

    def test_r10_and_simplify(self):
        assert parse_matroid_expr("simplify(r10)").size == 10
        assert parse_matroid_expr("r10").labels[0] == "e1"

    def test_graphic_with_root(self):
        m = parse_matroid_expr("graphic(builtin:k4, 2)")
        assert m.rank == 3

    def test_unknown(self):
        with pytest.raises(PreconditionError):
            parse_matroid_expr("spanner(builtin:k4)")

    def test_builtin_graph_loading(self):
        g = load_graph("builtin:theta")
        assert g.m == 3
        for name in ("nonesuch", "k1", "moebius_ladder1"):
            with pytest.raises(InputError):
                load_graph(f"builtin:{name}")


# Small numbers only, so that no draw asks for a huge matrix.
format_text = st.lists(st.sampled_from(
    ["0", "1", "2", "3", "12", "-1", "x", "1/2", "LIFT", "\n", " "]),
    max_size=30).map("".join)


@given(format_text)
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_input_error(text):
    for parse in (MultiGraph.parse, parse_matroid):
        try:
            parse(text)
        except InputError:
            pass
