import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ptree
from ptree import EdgeFamily, uniform_binary
from ptree.cli import build_parser, main
from ptree.specio import serialize_spec


@pytest.fixture()
def binary_spec(tmp_path):
    fam = EdgeFamily.from_table(
        {
            (): ["1/2", "1/2"],
            (0,): ["1/2", "1/2"],
            (1,): ["1/2", "1/2"],
        }
    )
    path = tmp_path / "t.json"
    path.write_text(serialize_spec(fam))
    return str(path)


@pytest.fixture()
def generator_spec(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(serialize_spec(uniform_binary(16)))
    return str(path)


def test_measure(binary_spec, capsys):
    assert main(["measure", "--tree", binary_spec, "--node", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_measure_root(binary_spec, capsys):
    assert main(["measure", "--tree", binary_spec, "--node", ""]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_front_check_mass(binary_spec, capsys):
    assert main(["front", "--tree", binary_spec, "--depth", "2", "--check-mass"]) == 0
    out = capsys.readouterr().out
    assert "mass = 1" in out
    assert "0.0" in out and "1.1" in out


def test_front_level_alias(binary_spec, capsys):
    assert main(["front", "--tree", binary_spec, "--front-level", "1"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1"]


def test_expect(binary_spec, tmp_path, capsys):
    values = {"0.0": "0", "0.1": "1", "1.0": "1", "1.1": "2"}
    vfile = tmp_path / "vals.json"
    vfile.write_text(json.dumps(values))
    assert main(["expect", "--tree", binary_spec, "--depth", "2", "--values", str(vfile)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(
        ["expect", "--tree", binary_spec, "--depth", "2", "--values", str(vfile), "--node", "1"]
    ) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_embed(binary_spec, capsys):
    assert main(["embed", "--tree", binary_spec, "--node", "1.0"]) == 0
    assert capsys.readouterr().out.strip() == "[1/2, 3/4]"


def test_bound_from_file(tmp_path, capsys):
    fam = EdgeFamily.from_table(
        {
            (): ["1/2", "1/2"],
            (0,): ["7/10", "3/10"],
            (1,): ["1/2", "1/2"],
        }
    )
    path = tmp_path / "b.json"
    path.write_text(serialize_spec(fam))
    assert main(["bound", "--tree", str(path), "--p", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "dominance holds: True" in out
    assert "13/20" in out and "3/4" in out


def test_bound_hypothesis_violation_exits_1(tmp_path, capsys):
    fam = EdgeFamily.from_table({(): ["1/4", "3/4"]})
    path = tmp_path / "b.json"
    path.write_text(serialize_spec(fam))
    assert main(["bound", "--tree", str(path), "--p", "1/2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bound_random(capsys):
    assert main(["bound", "--random", "42", "--n", "4", "--p", "1/3", "--min-p", "1/3"]) == 0
    assert "dominance holds: True" in capsys.readouterr().out


def test_bound_flip_success(tmp_path, capsys):
    fam = EdgeFamily.from_table({(): ["3/4", "1/4"]})
    path = tmp_path / "b.json"
    path.write_text(serialize_spec(fam))
    # child 1 carries mass 1/4, so after the flip the hypothesis p <= 1/4 holds
    assert main(["bound", "--tree", str(path), "--p", "1/4", "--flip-success"]) == 0
    assert "dominance holds: True" in capsys.readouterr().out


def test_sample_deterministic(generator_spec, capsys):
    assert main(["sample", "--tree", generator_spec, "--seed", "5", "--count", "4", "--depth", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--tree", generator_spec, "--seed", "5", "--count", "4", "--depth", "2"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 4


def test_sample_freq_labeled(generator_spec, capsys):
    assert main(
        ["sample", "--tree", generator_spec, "--seed", "5", "--count", "50", "--depth", "1", "--freq"]
    ) == 0
    assert "empirical" in capsys.readouterr().out


def test_encode_verify(binary_spec, capsys):
    assert main(["encode", "--tree", binary_spec, "--depth", "2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "<root> -> <root>" in out
    assert "verification: ok" in out


def test_classify(generator_spec, capsys):
    assert main(["classify", "--tree", generator_spec]) == 0
    out = capsys.readouterr().out
    assert "well_pruned: True" in out
    assert "perfect: True" in out


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "representation": "explicit", "nodes": {"": {"arity": 1, "probs": ["2/3"]}, "0": {"arity": 0}}}')
    assert main(["measure", "--tree", str(bad), "--node", ""]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["measure", "--tree", "/nonexistent.json", "--node", ""]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_node_exit_code(binary_spec, capsys):
    assert main(["measure", "--tree", binary_spec, "--node", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["measure", "--tree"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_bound_flag_combinations_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound", "--p", "1/2"])  # neither --tree nor --random
    assert info.value.code == 2
    assert main(["bound", "--random", "3", "--p", "1/2"]) == 2  # --random without --n
    assert "usage error" in capsys.readouterr().err


def test_bound_min_p_without_random_is_a_usage_error(binary_spec, capsys):
    # --min-p only shapes a random tree: with --tree it used to be ignored, and the table printed
    assert main(["bound", "--tree", binary_spec, "--p", "1/3", "--min-p", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "usage error: bound --min-p needs --random\n"


_SPEC = {"version": 1, "representation": "explicit"}


@pytest.mark.parametrize(
    "doc, budget, message",
    [
        ([], None, "{spec}: node '': the document must be a JSON object"),
        ({"version": 1, "representation": "generator"}, None, "{spec}: node '': generator documents need a 'generator' name"),
        (
            {"version": 1, "representation": "table"},
            None,
            "{spec}: node '': representation must be 'explicit' or 'generator', got 'table'",
        ),
        (_SPEC, None, "{spec}: node '': explicit documents need a 'nodes' table"),
        ({**_SPEC, "nodes": {"": ["1"]}}, None, "{spec}: node '': node rows must be objects"),
        (
            {**_SPEC, "nodes": {"": {"arity": 0, "probs": ["1"]}}},
            None,
            "{spec}: node '': a maximal node cannot carry probabilities",
        ),
        ({**_SPEC, "nodes": {"": {"arity": 2, "probs": ["1"]}}}, None, "{spec}: node '': expected 2 probabilities, got 1"),
        ({**_SPEC, "nodes": {"": {"arity": 0}}}, "x", "PTREE_DEPTH_BUDGET must be an integer, got 'x'"),
        ({**_SPEC, "nodes": {"": {"arity": 0}}}, "-1", "PTREE_DEPTH_BUDGET must be nonnegative, got -1"),
    ],
    ids=["not-an-object", "no-generator", "representation", "no-nodes", "row", "maximal-probs", "prob-count",
         "budget-not-int", "budget-negative"],
)
def test_a_bad_spec_or_budget_exits_1_naming_the_spec_file(tmp_path, capsys, monkeypatch, doc, budget, message):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    monkeypatch.delenv("PTREE_DEPTH_BUDGET", raising=False)
    if budget is not None:
        monkeypatch.setenv("PTREE_DEPTH_BUDGET", budget)
    assert main(["classify", "--tree", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message.format(spec=spec)}\n"


@pytest.mark.parametrize("role", ["tree", "values"])
def test_a_json_syntax_error_exits_1_naming_the_file_and_line(binary_spec, tmp_path, capsys, role):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad\n")
    if role == "tree":
        argv = ["measure", "--tree", str(bad), "--node", "0"]
    else:
        argv = ["expect", "--tree", binary_spec, "--depth", "2", "--values", str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {bad}: line 1: Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize(
    "spec, n, message",
    [
        ("generator_spec", [], "the trial tree must be an explicit family"),
        ("binary_spec", ["--n", "5"], "the family must live on the complete binary tree of height 5"),
    ],
    ids=["generator", "too-few-levels"],
)
def test_bound_names_the_spec_file_that_holds_no_trial_tree(request, capsys, spec, n, message):
    path = request.getfixturevalue(spec)
    assert main(["bound", "--tree", path, "--p", "1/2", *n]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", [["measure", "--node", "0"], ["bound", "--p", "1/3"]], ids=["measure", "bound"])
@pytest.mark.parametrize(
    "probs, message",
    [(["1/3", "1/3"], "masses sum to 2/3, not 1"), (["3/2", "-1/2"], "child 0 has mass 3/2 outside [0, 1]")],
    ids=["short-sum", "negative-mass"],
)
def test_a_refused_row_exits_1_naming_the_spec_file_and_key(tmp_path, capsys, command, probs, message):
    nodes = {"": {"arity": 2, "probs": probs}, "0": {"arity": 0}, "1": {"arity": 0}}
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"version": 1, "representation": "explicit", "nodes": nodes}))
    assert main([command[0], "--tree", str(spec), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {spec}: node '': {message}\n"


def test_env_budget_override(generator_spec, tmp_path, capsys, monkeypatch):
    doc = '{"version": 1, "representation": "generator", "generator": "uniform_binary"}'
    path = tmp_path / "nb.json"
    path.write_text(doc)
    monkeypatch.setenv("PTREE_DEPTH_BUDGET", "3")
    assert main(["sample", "--tree", str(path), "--seed", "1", "--count", "1", "--depth", "4"]) == 1
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("PTREE_DEPTH_BUDGET", "8")
    assert main(["sample", "--tree", str(path), "--seed", "1", "--count", "1", "--depth", "4"]) == 0


def test_sample_past_the_first_chunk(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(serialize_spec(uniform_binary(300)))
    assert main(["sample", "--tree", str(path), "--seed", "1", "--count", "3", "--depth", "130"]) == 0
    lines = capsys.readouterr().out.split()
    assert len(lines) == 3 and all(len(line.split(".")) == 130 for line in lines)


def _values_file(tmp_path, values):
    vfile = tmp_path / "vals.json"
    vfile.write_text(json.dumps(values))
    return str(vfile)


def test_expect_rejects_json_numbers(binary_spec, tmp_path, capsys):
    # 0.1 as a JSON number is a float; it must not reach the exact arithmetic
    vfile = _values_file(tmp_path, {"0.0": 0.1, "0.1": "1", "1.0": "1", "1.1": "2"})
    assert main(["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "fraction string" in captured.err
    vfile = _values_file(tmp_path, {"0.0": 1, "0.1": "1", "1.0": "1", "1.1": "2"})
    assert main(["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile]) == 1
    assert "error:" in capsys.readouterr().err


def test_expect_accepts_decimal_strings_exactly(binary_spec, tmp_path, capsys):
    vfile = _values_file(tmp_path, {"0.0": "0.1", "0.1": "0.1", "1.0": "0.1", "1.1": "0.1"})
    assert main(["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile]) == 0
    assert capsys.readouterr().out.strip() == "1/10"


@pytest.mark.parametrize("command", ["measure", "embed"])
def test_malformed_node_exits_1(binary_spec, capsys, command):
    assert main([command, "--tree", binary_spec, "--node", "x.1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_expect_malformed_node_exits_1(binary_spec, tmp_path, capsys):
    vfile = _values_file(tmp_path, {"0.0": "0", "0.1": "1", "1.0": "1", "1.1": "2"})
    argv = ["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile, "--node", "x.1"]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_expect_malformed_values_file_exits_1(binary_spec, tmp_path, capsys):
    argv = ["expect", "--tree", binary_spec, "--depth", "2", "--values"]
    for values in (
        {"zz": "0", "0.1": "1", "1.0": "1", "1.1": "2"},  # key is not a path
        {"0.1": "1", "1.0": "1", "1.1": "2"},  # a front member is missing
        {"0.0": "1/0", "0.1": "1", "1.0": "1", "1.1": "2"},  # not a fraction
        ["0", "1", "1", "2"],  # not an object
    ):
        assert main(argv + [_values_file(tmp_path, values)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 200_000 + b"]" * 200_000, b"\xff\xfe{}"], ids=["deep", "undecodable"])
@pytest.mark.parametrize("role", ["tree", "values"])
def test_unparsable_input_file_exits_1_naming_it(binary_spec, tmp_path, capsys, role, content):
    # JSON nested past the parser's recursion limit, and bytes that are not UTF-8
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if role == "tree":
        argv = ["measure", "--tree", str(bad), "--node", "0"]
    else:
        argv = ["expect", "--tree", binary_spec, "--depth", "2", "--values", str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize(
    "values, message",
    [
        ({"00": "0", "0.1": "1", "1.0": "1", "1.1": "2"}, "not a canonical dot-separated index path: '00'"),
        ({"0.0": "x", "0.1": "1", "1.0": "1", "1.1": "2"}, "node '0.0': not an exact fraction: 'x'"),
    ],
    ids=["key", "value"],
)
def test_a_bad_entry_in_the_values_file_is_named_with_the_file(binary_spec, tmp_path, capsys, values, message):
    vfile = _values_file(tmp_path, values)
    assert main(["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {vfile}: {message}\n"


def test_non_canonical_path_keys_exit_1(binary_spec, tmp_path, capsys):
    # "00" used to name node 0 as well: the later row silently replaced the
    # earlier one, and `measure --node 0.0` printed 1/20 instead of 1/6
    spec = tmp_path / "alias.json"
    spec.write_text(json.dumps({"version": 1, "representation": "explicit", "nodes": {
        "": {"arity": 2, "probs": ["1/2", "1/2"]},
        "0": {"arity": 2, "probs": ["1/3", "2/3"]},
        "00": {"arity": 2, "probs": ["1/10", "9/10"]},
        "0.0": {"arity": 0}, "0.1": {"arity": 0}, "1": {"arity": 0}}}))
    assert main(["measure", "--tree", str(spec), "--node", "0.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    # a values file with an alias of a front member fails the same way
    vfile = _values_file(tmp_path, {"0.0": "0", "0.1": "1", "1.0": "1", "1.1": "2", "01.1": "5"})
    assert main(["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def _run(argv):
    """Exit code, stdout and stderr of one `main` call, usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_reused_across_calls(binary_spec, generator_spec, tmp_path, monkeypatch):
    vfile = _values_file(tmp_path, {"0.0": "0", "0.1": "1", "1.0": "1", "1.1": "2"})
    calls = [
        ["measure", "--tree", binary_spec, "--node", "0.1"],
        ["front", "--tree", binary_spec, "--depth", "2", "--check-mass"],
        ["expect", "--tree", binary_spec, "--depth", "2", "--values", vfile, "--node", "1"],
        ["bound", "--random", "42", "--n", "4", "--p", "1/3", "--min-p", "1/3"],
        ["bound", "--random", "3", "--p", "1/2"],
        ["embed", "--tree", binary_spec, "--node", "1.0"],
        ["sample", "--tree", generator_spec, "--seed", "5", "--count", "20", "--depth", "2", "--freq"],
        ["encode", "--tree", binary_spec, "--depth", "2", "--verify"],
        ["classify", "--tree", generator_spec],
        ["measure", "--help"],
        ["bound", "--p", "1/2"],
    ]
    build_parser.cache_clear()
    code, out, err = _run(["measure", "--tree"])
    assert code == 2 and out == "" and "usage:" in err
    reused = [_run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2]

    # PTREE_DEPTH_BUDGET is read on every call, not when the parser is built
    doc = tmp_path / "nb.json"
    doc.write_text('{"version": 1, "representation": "generator", "generator": "uniform_binary"}')
    monkeypatch.setenv("PTREE_DEPTH_BUDGET", "3")
    assert _run(["classify", "--tree", str(doc)])[1].splitlines()[-1] == "depth budget: 3"
    monkeypatch.setenv("PTREE_DEPTH_BUDGET", "5")
    assert _run(["classify", "--tree", str(doc)])[1].splitlines()[-1] == "depth budget: 5"


@pytest.mark.parametrize(
    "argv",
    [
        ["front", "--depth", "-1"],
        ["encode", "--depth", "-1"],
        ["sample", "--seed", "1", "--count", "3", "--depth", "-1"],
    ],
    ids=["front", "encode", "sample"],
)
def test_negative_depth_exits_1(generator_spec, capsys, argv):
    assert main([argv[0], "--tree", generator_spec, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_negative_sample_count_exits_1(generator_spec, capsys):
    assert main(["sample", "--tree", generator_spec, "--seed", "1", "--count", "-1", "--depth", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: sample count -1 is negative\n"
    assert captured.out == ""


def test_bound_tree_of_wrong_shape_exits_1(tmp_path, capsys):
    fam = EdgeFamily.from_table({(): ["1/3", "1/3", "1/3"]})
    path = tmp_path / "ternary.json"
    path.write_text(serialize_spec(fam))
    assert main(["bound", "--tree", str(path), "--p", "1/4"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bound_p_outside_unit_interval_exits_1(capsys):
    assert main(["bound", "--random", "1", "--n", "3", "--p=-1/2", "--min-p", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_geometric_generator_spec_runs_and_a_bad_ratio_exits_1(tmp_path, capsys):
    spec = tmp_path / "geo.json"
    spec.write_text(json.dumps({"version": 1, "representation": "generator",
                                "generator": "geometric_omega(9/10)", "depth_budget": 64}))
    assert main(["classify", "--tree", str(spec)]) == 0
    assert "perfect: True (exact)" in capsys.readouterr().out
    assert main(["sample", "--tree", str(spec), "--seed", "1", "--count", "3", "--depth", "40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    spec.write_text(json.dumps({"version": 1, "representation": "generator", "generator": "geometric_omega(1)"}))
    assert main(["classify", "--tree", str(spec)]) == 1
    assert "geometric ratio" in capsys.readouterr().err


def test_answers_past_the_int_to_str_digit_limit_print_exactly(tmp_path, capsys):
    # a 4-level chain whose child 0 has mass 10^-1500 at every level: the
    # mass of 0.0.0.0 has a 6,001-digit denominator, past CPython's 4,300
    tiny = Fraction(1, 10**1500)
    table = {(0,) * i: [tiny, 1 - tiny] for i in range(4)}
    path = tmp_path / "chain.json"
    path.write_text(serialize_spec(EdgeFamily.from_table(table)))
    spec = str(path)
    power = "1" + "0" * 6000

    assert main(["measure", "--tree", spec, "--node", "0.0.0.0"]) == 0
    assert capsys.readouterr().out == f"1/{power}\n"
    assert main(["embed", "--tree", spec, "--node", "0.0.0.0"]) == 0
    assert capsys.readouterr().out == f"[0, 1/{power}]\n"
    values = _values_file(tmp_path, {"1": "1", "0.1": "1", "0.0.1": "1", "0.0.0.1": "1", "0.0.0.0": "0"})
    assert main(["expect", "--tree", spec, "--depth", "4", "--values", values]) == 0
    assert capsys.readouterr().out == f"{'9' * 6000}/{power}\n"
    assert main(["expect", "--tree", spec, "--depth", "4", "--values", values, "--node", "0.0.0"]) == 0
    assert capsys.readouterr().out == f"{'9' * 1500}/1{'0' * 1500}\n"


def test_a_draw_past_the_geometric_power_limit_exits_1_promptly(tmp_path):
    # ratio 1 - 2^-64 puts a draw in a child near 2^64, whose r^k cannot be
    # built; before the size limit this ran until killed, so it runs in a
    # child process under a time bound
    spec = tmp_path / "near1.json"
    spec.write_text(json.dumps({
        "version": 1, "representation": "generator", "depth_budget": 8,
        "generator": "geometric_omega(18446744073709551615/18446744073709551616)",
    }))
    src = str(Path(ptree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from ptree.cli import main; sys.exit(main())",
         "sample", "--tree", str(spec), "--seed", "1", "--count", "1", "--depth", "1"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert run.returncode == 1 and not run.stdout
    assert run.stderr.startswith("error: geometric children past 16131 are refused")


def test_a_spec_listed_deepest_first_answers_as_its_sorted_copy(tmp_path, capsys):
    # keys are read top-down from the root, and "2/4" and "0.25" are exact; the CI smoke step pins the same lines
    nodes = {"0.1.1": {"arity": 0}, "0.1.0": {"arity": 0}, "0.1": {"arity": 2, "probs": ["1/3", "2/3"]},
             "0.0": {"arity": 0}, "1": {"arity": 0}, "0": {"arity": 2, "probs": ["0.25", "3/4"]},
             "": {"arity": 2, "probs": ["2/4", "1/2"]}}
    specs = {}
    for name, order in [("deepfirst", list(nodes)), ("sorted", sorted(nodes))]:
        specs[name] = tmp_path / f"{name}.json"
        specs[name].write_text(json.dumps({"version": 1, "representation": "explicit", "nodes": {k: nodes[k] for k in order}}))
    values = tmp_path / "values.json"
    values.write_text(json.dumps({"0.0": "3", "0.1.0": "-1/2", "0.1.1": "5", "1": "2"}))
    commands = [["measure", "--node", "0.1.1"], ["embed", "--node", "0.1.1"], ["front", "--depth", "3", "--check-mass"],
                ["expect", "--depth", "3", "--values", str(values)], ["encode", "--depth", "3", "--verify"], ["classify"]]
    outputs = {}
    for name, spec in specs.items():
        for command in commands:
            assert main([command[0], "--tree", str(spec), *command[1:]]) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["deepfirst"] == outputs["sorted"]
    assert outputs["deepfirst"].splitlines()[:7] == ["1/4", "[1/4, 1/2]", "0.0", "0.1.0", "0.1.1", "1", "mass = 1"]
    orphan = tmp_path / "orphan.json"
    orphan.write_text(json.dumps({"version": 1, "representation": "explicit", "nodes": {"0.5": {"arity": 0}, **nodes}}))
    assert main(["measure", "--tree", str(orphan), "--node", "0.1.1"]) == 1
    assert capsys.readouterr().err == f"error: {orphan}: node '0.5': the parent does not declare this child\n"
