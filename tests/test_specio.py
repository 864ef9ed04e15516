import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    EdgeFamily,
    FiniteDist,
    SpecSyntaxError,
    SpecValidationError,
    UnknownGenerator,
    dirac,
    geometric_omega,
    uniform_binary,
)
from ptree.dists import as_fraction
from ptree.specio import parse_spec, serialize_spec

from corpus import random_family, random_tree


def test_parse_minimal_explicit():
    text = """
    {"version": 1, "representation": "explicit",
     "nodes": {"": {"arity": 2, "probs": ["1/2", "1/2"]},
               "0": {"arity": 0}, "1": {"arity": 0}}}
    """
    fam = parse_spec(text)
    assert fam.is_explicit
    from fractions import Fraction

    assert fam.dist(()).masses == (Fraction(1, 2), Fraction(1, 2))


def test_parse_generator_documents():
    fam = parse_spec('{"version": 1, "representation": "generator", "generator": "uniform_binary", "depth_budget": 16}')
    assert fam == uniform_binary(16)
    fam = parse_spec('{"version": 1, "representation": "generator", "generator": "geometric_omega", "depth_budget": 8}')
    assert fam == geometric_omega(8)
    fam = parse_spec('{"version": 1, "representation": "generator", "generator": "dirac(5)", "depth_budget": 8}')
    assert fam == dirac(5, 8)


def test_parse_generator_default_budget():
    fam = parse_spec('{"version": 1, "representation": "generator", "generator": "uniform_binary"}')
    assert fam.tree.depth_budget == 32
    fam = parse_spec(
        '{"version": 1, "representation": "generator", "generator": "uniform_binary"}',
        default_budget=10,
    )
    assert fam.tree.depth_budget == 10


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_spec('{"version": 1, "representation": "generator", "generator": "zeta"}')


def test_syntax_error_carries_line():
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec('{"version": 1,\n  "representation": }')
    assert info.value.line == 2


def test_nesting_too_deep_for_the_parser_is_a_syntax_error():
    with pytest.raises(SpecSyntaxError, match="nested too deeply"):
        parse_spec("[" * 200_000 + "]" * 200_000)


def test_validation_errors():
    bad_sum = """
    {"version": 1, "representation": "explicit",
     "nodes": {"": {"arity": 2, "probs": ["1/3", "1/3"]},
               "0": {"arity": 0}, "1": {"arity": 0}}}
    """
    with pytest.raises(SpecValidationError) as info:
        parse_spec(bad_sum)
    assert "sum" in str(info.value)

    missing_child = """
    {"version": 1, "representation": "explicit",
     "nodes": {"": {"arity": 2, "probs": ["1/2", "1/2"]},
               "0": {"arity": 0}}}
    """
    with pytest.raises(SpecValidationError):
        parse_spec(missing_child)

    not_prefix_closed = """
    {"version": 1, "representation": "explicit",
     "nodes": {"": {"arity": 1, "probs": ["1"]},
               "0": {"arity": 0}, "0.0.0": {"arity": 0}}}
    """
    with pytest.raises(SpecValidationError):
        parse_spec(not_prefix_closed)

    numeric_probs = """
    {"version": 1, "representation": "explicit",
     "nodes": {"": {"arity": 2, "probs": [0.5, 0.5]},
               "0": {"arity": 0}, "1": {"arity": 0}}}
    """
    with pytest.raises(SpecValidationError) as info:
        parse_spec(numeric_probs)
    assert "fraction string" in str(info.value)


def test_decimal_strings_parse_exactly():
    text = """
    {"version": 1, "representation": "explicit",
     "nodes": {"": {"arity": 2, "probs": ["0.5", "0.5"]},
               "0": {"arity": 0}, "1": {"arity": 0}}}
    """
    fam = parse_spec(text)
    from fractions import Fraction

    assert fam.dist(()).masses == (Fraction(1, 2), Fraction(1, 2))


def test_round_trip_random_explicit_families():
    rng = random.Random(211)
    for _ in range(25):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        fam = random_family(rng, tree, allow_zero=True)
        assert parse_spec(serialize_spec(fam)) == fam


def test_round_trip_generators_stay_generators():
    for fam in [uniform_binary(12), geometric_omega(12), dirac(3, 12)]:
        text = serialize_spec(fam)
        assert '"generator"' in text
        assert "nodes" not in text
        assert parse_spec(text) == fam


@pytest.mark.parametrize(
    "fam",
    [geometric_omega(8, Fraction(1, 2)), geometric_omega(8, Fraction(9, 10)), dirac(3, 8)],
    ids=["geometric-1/2", "geometric-9/10", "dirac-3"],
)
def test_round_trip_named_rows(fam):
    back = parse_spec(serialize_spec(fam))
    assert back == fam
    assert back.row == fam.row and back.tree.depth_budget == 8


def test_geometric_ratio_is_read_exactly():
    fam = parse_spec(_generator_doc("geometric_omega(0.9)"))
    assert fam == geometric_omega(32, Fraction(9, 10))
    assert fam.row.ratio == Fraction(9, 10)


def _generator_doc(name):
    return json.dumps({"version": 1, "representation": "generator", "generator": name})


@pytest.mark.parametrize("ratio", ["0", "1", "3/2", "-1/2", "1/0", "abc", "", "0.5.5", "1e-5000"])
def test_bad_geometric_ratio_is_a_spec_error(ratio):
    with pytest.raises(SpecValidationError, match="geometric ratio|not an exact fraction"):
        parse_spec(_generator_doc(f"geometric_omega({ratio})"))


def test_a_huge_decimal_exponent_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(SpecValidationError, match="exponent beyond"):
        parse_spec(_generator_doc("geometric_omega(1e-10000000)"))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("prob", ["1e-100000", "1" * 5000 + "/3"], ids=["exponent", "digits"])
def test_oversized_probability_names_its_node(prob):
    text = json.dumps({"version": 1, "representation": "explicit", "nodes": {
        "": {"arity": 1, "probs": ["1"]}, "0": {"arity": 2, "probs": [prob, "1/2"]},
        "0.0": {"arity": 0}, "0.1": {"arity": 0}}})
    with pytest.raises(SpecValidationError) as info:
        parse_spec(text)
    assert info.value.path == "0" and "an exponent beyond" in info.value.reason


def test_serializer_always_emits_root():
    fam = parse_spec(serialize_spec(random_family(random.Random(1), random_tree(random.Random(1), max_depth=0))))
    assert set(fam.tree.nodes()) == {()}


@pytest.mark.parametrize("alias", ["00", " 0", "+0", "0_0"])
def test_non_canonical_key_is_rejected(alias):
    # "00" used to name node 0 too, and its row silently replaced the first
    text = json.dumps({"version": 1, "representation": "explicit", "nodes": {
        "": {"arity": 1, "probs": ["1"]},
        "0": {"arity": 2, "probs": ["1/3", "2/3"]},
        alias: {"arity": 2, "probs": ["1/10", "9/10"]},
        "0.0": {"arity": 0}, "0.1": {"arity": 0}}})
    with pytest.raises(SpecValidationError) as info:
        parse_spec(text)
    assert info.value.path == alias
    assert "canonical" in info.value.reason


@pytest.mark.parametrize("probs", [[1, 0], [True, False], ["1/2", 1]], ids=["integers", "booleans", "mixed"])
def test_json_integers_and_booleans_are_not_fraction_strings(probs):
    # JSON numbers must not slip past a fast path for the canonical strings
    text = json.dumps({"version": 1, "representation": "explicit", "nodes": {
        "": {"arity": 2, "probs": probs}, "0": {"arity": 0}, "1": {"arity": 0}}})
    with pytest.raises(SpecValidationError) as info:
        parse_spec(text)
    assert info.value.path == "" and "fraction string" in info.value.reason


@pytest.mark.parametrize(
    "field, reason",
    [
        ("version", "unsupported version True"),
        ("depth_budget", "depth_budget must be a nonnegative integer, got True"),
        ("arity", "arity must be a nonnegative integer, got True"),
    ],
)
def test_json_booleans_are_not_integers(field, reason):
    # isinstance(True, int) holds, so a bare isinstance test let `true` through as 1
    doc = {"version": 1, "representation": "explicit", "depth_budget": 3,
           "nodes": {"": {"arity": 1, "probs": ["1"]}, "0": {"arity": 0}}}
    if field == "arity":
        doc["nodes"][""]["arity"] = True
    else:
        doc[field] = True
    with pytest.raises(SpecValidationError) as info:
        parse_spec(json.dumps(doc))
    assert info.value.path == "" and info.value.reason == reason


def test_a_bad_entry_is_named_after_good_ones():
    text = json.dumps({"version": 1, "representation": "explicit", "nodes": {
        "": {"arity": 3, "probs": ["1/2", "1/4", "1/0"]},
        "0": {"arity": 0}, "1": {"arity": 0}, "2": {"arity": 0}}})
    with pytest.raises(SpecValidationError) as info:
        parse_spec(text)
    assert info.value.path == "" and info.value.reason == "not an exact fraction: '1/0'"


_INT = st.integers(-(10**30), 10**30).map(str)
_FRACTION_STRINGS = st.one_of(
    _INT,
    st.builds("{}/{}".format, _INT, st.integers(0, 10**30)),  # canonical, x/0 included
    st.builds("+{}".format, st.integers(0, 10**6)),
    st.builds("{}/{}".format, _INT, _INT),  # a signed denominator
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t", "\n"]), _INT, st.sampled_from(["", " ", "\n"])),
    st.builds("{}_{}/{}".format, st.integers(0, 99), st.integers(0, 999), st.integers(1, 99)),
    st.builds("{}.{}".format, _INT, st.integers(0, 10**6)),
    st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "-.5", "3.", "0"]), st.integers(-30, 30)),
    st.builds("{} / {}".format, st.integers(0, 9), st.integers(1, 9)),
    st.text(alphabet="0123456789+-/._ ", max_size=10),
    st.sampled_from(["", "-", "/", "1/", "/2", "--1", "1//2", "0x10", "\u0663", "\u0663/4", "1/\u0664", "nan", "inf"]),
)


def _outcome(convert, text):
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_FRACTION_STRINGS)
def test_as_fraction_reads_every_string_as_fraction_does(text):
    # the canonical fast path must accept, refuse and value exactly what
    # Fraction(str) does on this interpreter; its grammar varies by version
    assert _outcome(as_fraction, text) == _outcome(Fraction, text)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_round_trip_explicit_families_with_zero_masses(rng):
    # rows with zero masses and denominators up to 10^13, written in the
    # canonical n/d form the fast path reads
    tree = random_tree(rng, max_depth=4, max_arity=4)
    rows = {}
    for t in tree.nodes():
        if not tree.is_maximal(t):
            weights = [rng.choice([0, rng.randint(1, 10**12)]) for _ in tree.child_indices(t)]
            weights[rng.randrange(len(weights))] += 1
            rows[t] = FiniteDist([Fraction(w, sum(weights)) for w in weights])
    fam = EdgeFamily(tree, rows)
    back = parse_spec(serialize_spec(fam))
    assert back == fam
    assert all(back.dist(t).masses == d.masses for t, d in rows.items())


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**20).filter(lambda r: 0 < r < 1))
def test_round_trip_geometric_ratio_names(ratio):
    fam = geometric_omega(8, ratio)
    back = parse_spec(serialize_spec(fam))
    assert back == fam and back.row.ratio == ratio and back.name == fam.name
