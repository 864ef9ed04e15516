import pytest

from ptree import MalformedPath, OrderRelation, format_path, order_relations, parse_path
from ptree.paths import compatible, is_prefix, lex_less


def test_parse_and_format_round_trip():
    assert parse_path("") == ()
    assert parse_path("0.1.5") == (0, 1, 5)
    assert format_path(()) == ""
    assert format_path((0, 1, 5)) == "0.1.5"
    assert parse_path(format_path((3, 0))) == (3, 0)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_path("0.x")
    with pytest.raises(ValueError):
        parse_path("-1.0")


@pytest.mark.parametrize("text", ["00", "0.01", " 0", "0 ", "0\n", "+0", "1_0", "0.", ".0", "0..1", "\u0663"])
def test_parse_rejects_non_canonical_paths(text):
    # int() reads each of these, so two keys could name one node
    with pytest.raises(MalformedPath):
        parse_path(text)


def test_parse_accepts_multi_digit_indices():
    assert parse_path("10.0.205") == (10, 0, 205)


def test_prefix_relation():
    assert is_prefix((), (0, 1))
    assert is_prefix((0,), (0, 1))
    assert not is_prefix((1,), (0, 1))
    assert is_prefix((0, 1), (0, 1))


def test_order_relations_examples():
    assert order_relations((0,), (0, 1)) is OrderRelation.PREFIX
    assert order_relations((0, 1), (1,)) is OrderRelation.LEX_LESS
    assert order_relations((2,), (1, 5)) is OrderRelation.LEX_GREATER
    assert order_relations((0, 1), (0,)) is OrderRelation.EXTENSION
    assert order_relations((), ()) is OrderRelation.EQUAL


def test_incompatible_iff_exactly_one_lex_order():
    paths = [(), (0,), (1,), (0, 0), (0, 1), (1, 2), (2,), (1, 2, 3)]
    for s in paths:
        for t in paths:
            rel = order_relations(s, t)
            lex = rel in (OrderRelation.LEX_LESS, OrderRelation.LEX_GREATER)
            assert lex == (not compatible(s, t))
            if lex:
                assert lex_less(s, t) != lex_less(t, s)
