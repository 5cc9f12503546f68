import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceei import io, reductions
from ceei.cli import build_parser, main
from ceei.core import make_allocation, make_market, make_prices

from conftest import demand_market, example2_market, run_script


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def ex2_files(tmp_path):
    market = example2_market()
    paths = {
        "market": tmp_path / "ex2.market.json",
        "alloc": tmp_path / "ex2.alloc.json",
        "prices": tmp_path / "ex2.prices.json",
    }
    paths["market"].write_text(io.market_to_json(market))
    paths["alloc"].write_text(io.solution_to_json(
        allocation=make_allocation([[0], [1], [2], [3], [4], [5, 6, 7]])))
    paths["prices"].write_text(io.solution_to_json(
        prices=make_prices([1, 1, 1, 1, 1, "1/3", "1/3", "1/3"])))
    return paths


class TestRoundTrip:
    def test_market_bytes_stable(self):
        market = make_market([[1, "1/3"], [0, 2]], "additive")
        text = io.market_to_json(market)
        again = io.market_to_json(io.market_from_json(text))
        assert text == again

    def test_values_accept_ints_and_strings(self):
        doc = {"class": "additive", "buyers": 1, "items": 2, "values": [[1, "2/4"]]}
        market = io.obj_to_market(doc)
        assert market.values[0][1] == io.parse_rational("1/2")
        assert json.loads(io.market_to_json(market))["values"] == [[1, "1/2"]]

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            io.parse_rational(0.5)

    def test_indices_are_one_based_outside(self):
        assert io.allocation_to_obj(make_allocation([[0, 2], []])) == [[1, 3], []]
        back = io.obj_to_allocation([[1, 3], []])
        assert back.bundles == (frozenset({0, 2}), frozenset())

    def test_solution_round_trip(self):
        text = io.solution_to_json(
            allocation=make_allocation([[0]]),
            prices=make_prices(["1/3"]),
            welfare=io.parse_rational("2/3"),
        )
        doc = io.solution_from_json(text)
        assert doc["allocation"].bundles == (frozenset({0}),)
        assert doc["prices"].prices == (io.parse_rational("1/3"),)
        assert doc["welfare"] == io.parse_rational("2/3")


class TestVerifyCommand:
    def test_example2_verifies(self, run, ex2_files):
        code, out, _ = run("verify", "--market", str(ex2_files["market"]),
                           "--alloc", str(ex2_files["alloc"]), "--prices", str(ex2_files["prices"]))
        assert code == 0
        assert json.loads(out)["verdict"] == "equilibrium"

    def test_violation_carries_witness(self, run, tmp_path):
        market = demand_market([{0}, {0}], 2)
        (tmp_path / "m.json").write_text(io.market_to_json(market))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0], [1]])))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices([1, 1])))
        code, out, _ = run("verify", "--market", str(tmp_path / "m.json"),
                           "--alloc", str(tmp_path / "a.json"), "--prices", str(tmp_path / "p.json"))
        assert code == 1
        violation = json.loads(out)["violation"]
        assert violation == {"kind": "suboptimal-bundle", "buyer": 2, "bundle": [1]}


class TestSolveCommand:
    def test_solve_example2(self, run, ex2_files):
        code, out, _ = run("solve", "--market", str(ex2_files["market"]))
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"] == [[1], [2], [3], [4], [5], [6, 7, 8]]
        assert doc["prices"] == ["1", "1", "1", "1", "1", "1/3", "1/3", "1/3"]

    def test_too_few_items(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(demand_market([{0}, {0}], 1)))
        code, out, _ = run("solve", "--market", str(tmp_path / "m.json"))
        assert code == 1
        assert json.loads(out)["reason"] == "m < n"

    def test_duplicate_singletons_reason(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(demand_market([{0}, {0}], 2)))
        code, out, _ = run("solve", "--market", str(tmp_path / "m.json"))
        assert code == 1
        assert json.loads(out)["reason"] == "duplicate singleton demand sets"


class TestCapArity:
    """The perfect-complements `solve`, `prices-for` and `verify` are
    polynomial and take no caps; the perfect-substitutes searches and
    enumerations do."""

    def test_leontief_ignores_the_caps(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(demand_market([{0, 1}, {2}], 3)))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0, 1], [2]])))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices(["1/2", "1/2", 1])))
        verify = ["verify", "--alloc", str(tmp_path / "a.json"), "--prices", str(tmp_path / "p.json")]
        for argv, caps in ((["solve"], ["--cap-items", "1", "--cap-states", "1"]),
                           (["prices-for", "--alloc", str(tmp_path / "a.json")], ["--cap-enum", "1"]),
                           (verify, ["--cap-enum", "1"])):
            plain = run(*argv, "--market", str(tmp_path / "m.json"))
            assert plain[0] == 0
            assert run(*argv, "--market", str(tmp_path / "m.json"), *caps) == plain

    def test_additive_solve_obeys_the_caps(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1], [1, 1]], "additive")))
        code, out, err = run("solve", "--market", str(tmp_path / "m.json"), "--cap-items", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "max_items = 1" in err


# Per `gen` source: its flags, the same instance through its `reductions`
# generator, and what each of the generator's outputs is, in order.
_GEN_CASES = {
    "partition": (["--values", "1,1"], lambda: reductions.partition_to_leontief(
        reductions.PartitionInstance((1, 1))), ("market", "prices")),
    "partition-prices": (["--values", "1,1"], lambda: reductions.partition_to_additive_prices(
        reductions.PartitionInstance((1, 1))), ("market", "prices")),
    "subsetsum-verify": (["--values", "1,2", "--target", "3"], lambda: reductions.subsetsum_to_additive_verify(
        reductions.SubsetSumInstance((1, 2), 3)), ("market", "alloc", "prices")),
    "subsetsum-alloc": (["--values", "1,2", "--target", "3"], lambda: reductions.subsetsum_to_additive_allocation(
        reductions.SubsetSumInstance((1, 2), 3)), ("market", "alloc")),
    "x3c": (["--universe", "6", "--set", "1,2,3", "--set", "4,5,6"], lambda: (reductions.x3c_to_additive(
        reductions.X3CInstance(6, (frozenset({1, 2, 3}), frozenset({4, 5, 6})))),), ("market",)),
    "setpacking": (["--set", "1,2", "--set", "2,3", "--threshold", "2"], lambda: reductions.setpacking_to_leontief(
        reductions.SetPackingInstance((frozenset({1, 2}), frozenset({2, 3})), 2)), ("market", "threshold")),
}


class TestGenPipeline:
    @pytest.mark.parametrize("source", list(_GEN_CASES))
    def test_every_source_writes_its_generator_output(self, run, tmp_path, source):
        argv, generate, kinds = _GEN_CASES[source]
        code, out, err = run("gen", source, *argv, "--out", str(tmp_path / "g"))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        files = [kind for kind in kinds if kind != "threshold"]
        assert list(doc) == ["written", *(["threshold"] if "threshold" in kinds else [])]
        assert list(doc["written"].items()) == [(kind, str(tmp_path / f"g.{kind}.json")) for kind in files]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"g.{kind}.json" for kind in files)
        for kind, value in zip(kinds, generate()):
            if kind == "threshold":
                assert doc[kind] == value
                continue
            key = "allocation" if kind == "alloc" else kind
            text = io.market_to_json(value) if kind == "market" else io.solution_to_json(**{key: value})
            assert (tmp_path / f"g.{kind}.json").read_text() == text

    def test_partition_then_alloc_for_none(self, run, tmp_path):
        prefix = tmp_path / "gad"
        code, out, _ = run("gen", "partition", "--values", "1,2", "--out", str(prefix))
        assert code == 0
        written = json.loads(out)["written"]
        code, out, _ = run("alloc-for", "--market", written["market"], "--prices", written["prices"])
        assert code == 1
        assert json.loads(out)["result"] == "none"

    def test_partition_then_alloc_for_found(self, run, tmp_path):
        prefix = tmp_path / "gad"
        _, out, _ = run("gen", "partition", "--values", "1,1", "--out", str(prefix))
        written = json.loads(out)["written"]
        code, out, _ = run("alloc-for", "--market", written["market"], "--prices", written["prices"])
        assert code == 0
        assert json.loads(out)["allocation"] == [[1], [2], [3]]

    def test_subsetsum_verify_pipeline(self, run, tmp_path):
        prefix = tmp_path / "sv"
        _, out, _ = run("gen", "subsetsum-verify", "--values", "1,2", "--target", "3", "--out", str(prefix))
        written = json.loads(out)["written"]
        code, out, _ = run("verify", "--market", written["market"],
                           "--alloc", written["alloc"], "--prices", written["prices"])
        assert code == 1
        assert json.loads(out)["violation"]["buyer"] == 1  # gadget's first buyer

    def test_setpacking_reports_threshold(self, run, tmp_path):
        prefix = tmp_path / "sp"
        code, out, _ = run("gen", "setpacking", "--set", "1", "--set", "2", "--threshold", "2",
                           "--out", str(prefix))
        assert code == 0
        assert json.loads(out)["threshold"] == 2


class TestExitCodes:
    def test_missing_file_is_usage_error(self, run):
        code, out, err = run("verify", "--market", "nope.json", "--alloc", "a", "--prices", "p")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_invalid_market_is_negative_validate(self, run, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(
            {"class": "leontief", "buyers": 1, "items": 1, "values": [[0]]}))
        code, out, _ = run("validate", "--market", str(tmp_path / "bad.json"))
        assert code == 1
        assert json.loads(out)["valid"] is False

    @pytest.mark.parametrize("command, expected", [
        ("validate", 1), ("solve", 2), ("maxwelfare", 2), ("apxwelfare", 2), ("oracle", 2),
    ])
    def test_invalid_market_is_negative_only_to_validate(self, run, tmp_path, command, expected):
        # exit 1 is the command's own negative answer; to every other
        # command a market breaking a structural invariant is an input error
        (tmp_path / "bad.json").write_text(json.dumps(
            {"class": "leontief", "buyers": 1, "items": 1, "values": [[0]]}))
        code, out, err = run(command, "--market", str(tmp_path / "bad.json"))
        assert code == expected
        if expected == 2:
            assert (out, err) == ("", "error: buyer 0 has an empty demand set\n")

    def test_count_mismatch_is_negative_only_to_validate(self, run, tmp_path):
        # two buyers declared, one value row given
        (tmp_path / "bad.json").write_text(json.dumps(
            {"class": "additive", "buyers": 2, "items": 1, "values": [[1]]}))
        reason = "buyers/items counts disagree with the value matrix"
        code, out, _ = run("validate", "--market", str(tmp_path / "bad.json"))
        assert (code, json.loads(out)) == (1, {"valid": False, "reason": reason})
        assert run("solve", "--market", str(tmp_path / "bad.json")) == (2, "", f"error: {reason}\n")

    @pytest.mark.parametrize("command", ["validate", "verify", "alloc-for"])
    def test_zero_denominator_value_is_usage_error(self, run, tmp_path, command):
        (tmp_path / "m.json").write_text(json.dumps(
            {"class": "additive", "buyers": 1, "items": 2, "values": [[1, "1/0"]]}))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0, 1]])))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices([1, 0])))
        argv = {"validate": (), "verify": ("--alloc", str(tmp_path / "a.json")), "alloc-for": ()}[command]
        if command != "validate":
            argv += ("--prices", str(tmp_path / "p.json"))
        code, out, err = run(command, "--market", str(tmp_path / "m.json"), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "alloc-for"])
    def test_zero_denominator_price_is_usage_error(self, run, tmp_path, command):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1], [1, 1]], "additive")))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0], [1]])))
        (tmp_path / "p.json").write_text(json.dumps({"prices": ["1/0", "1"]}))
        extra = ("--alloc", str(tmp_path / "a.json")) if command == "verify" else ()
        code, out, err = run(command, "--market", str(tmp_path / "m.json"), *extra,
                             "--prices", str(tmp_path / "p.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("deep", ["market", "alloc", "prices"])
    def test_deeply_nested_document_is_usage_error(self, run, ex2_files, tmp_path, deep):
        # json.loads raises RecursionError, not ValueError, past its nesting limit
        paths = dict(ex2_files)
        paths[deep] = tmp_path / "deep.json"
        paths[deep].write_text("[" * 100000 + "]" * 100000)
        code, out, err = run("verify", *(arg for key in ("market", "alloc", "prices")
                                         for arg in (f"--{key}", str(paths[key]))))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1.5", "1_000", "+1", "1/-2", "1 /2", "0x1"])
    def test_value_outside_the_rational_grammar_is_usage_error(self, run, tmp_path, value):
        (tmp_path / "m.json").write_text(json.dumps(
            {"class": "additive", "buyers": 1, "items": 2, "values": [[1, value]]}))
        code, out, err = run("validate", "--market", str(tmp_path / "m.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "alloc-for"])
    @pytest.mark.parametrize("prices", [["1"], ["1", "1", "0"]])
    def test_price_vector_of_wrong_length_is_usage_error(self, run, tmp_path, command, prices):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1], [1, 1]], "additive")))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0], [1]])))
        (tmp_path / "p.json").write_text(json.dumps({"prices": prices}))
        extra = ("--alloc", str(tmp_path / "a.json")) if command == "verify" else ()
        code, out, err = run(command, "--market", str(tmp_path / "m.json"), *extra,
                             "--prices", str(tmp_path / "p.json"))
        assert code == 2
        assert out == ""
        assert err == f"error: {tmp_path / 'p.json'} has {len(prices)} prices for 2 items\n"

    @pytest.mark.parametrize("command, flag, key", [("verify", "alloc", "allocation"),
                                                    ("alloc-for", "prices", "prices")])
    def test_solution_file_without_its_key_is_usage_error(self, run, ex2_files, command, flag, key):
        # verify's --alloc file holds only prices, alloc-for's --prices file only an allocation
        paths = dict(ex2_files)
        paths[flag] = ex2_files["prices" if flag == "alloc" else "alloc"]
        argv = ("--alloc", str(paths["alloc"])) if command == "verify" else ()
        code, out, err = run(command, "--market", str(paths["market"]), *argv, "--prices", str(paths["prices"]))
        assert (code, out) == (2, "")
        assert err == f"error: {paths[flag]} has no {key}\n"

    @pytest.mark.parametrize("command", ["verify", "prices-for"])
    @pytest.mark.parametrize("allocation", [[[1.7], [2]], [[True], [2]], [["1"], [2]], [[1, 1], [2]]],
                             ids=["float", "bool", "string", "repeated"])
    def test_allocation_index_not_a_distinct_int_is_usage_error(self, run, tmp_path, command, allocation):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1], [1, 1]], "additive")))
        (tmp_path / "a.json").write_text(json.dumps({"allocation": allocation}))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices([1, 1])))
        extra = ("--prices", str(tmp_path / "p.json")) if command == "verify" else ()
        code, out, err = run(command, "--market", str(tmp_path / "m.json"),
                             "--alloc", str(tmp_path / "a.json"), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "prices-for"])
    @pytest.mark.parametrize("allocation", [[[1]], [[1], [2], []]], ids=["too-few", "too-many"])
    def test_allocation_with_wrong_bundle_count_is_usage_error(self, run, tmp_path, command, allocation):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1], [1, 1]], "additive")))
        (tmp_path / "a.json").write_text(json.dumps({"allocation": allocation}))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices([1, 1])))
        extra = ("--prices", str(tmp_path / "p.json")) if command == "verify" else ()
        code, out, err = run(command, "--market", str(tmp_path / "m.json"),
                             "--alloc", str(tmp_path / "a.json"), *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'a.json'} has {len(allocation)} bundles for 2 buyers\n"

    @pytest.mark.parametrize("market_class", ["leontief", "additive"])
    def test_out_of_range_index_is_an_infeasible_allocation(self, run, tmp_path, market_class):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1], [1, 1]], market_class)))
        (tmp_path / "a.json").write_text(json.dumps({"allocation": [[5], [2]]}))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices([1, 1])))
        code, out, err = run("verify", "--market", str(tmp_path / "m.json"), "--alloc", str(tmp_path / "a.json"),
                             "--prices", str(tmp_path / "p.json"))
        assert (code, err) == (1, "")
        assert json.loads(out) == {"verdict": "violation", "violation": {"kind": "infeasible-allocation"}}

    def test_cap_flag_triggers_cap_error(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(demand_market([{0}], 3)))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices([1, 0, 0])))
        code, _, err = run("alloc-for", "--market", str(tmp_path / "m.json"),
                           "--prices", str(tmp_path / "p.json"), "--cap-items", "2")
        assert code == 2
        assert "cap" in err

    def test_search_deeper_than_the_recursion_limit_is_a_cap_error(self, run, tmp_path):
        # one buyer, so n^m = 1 state, but the walk takes one frame per item
        m = 1500
        market = {"class": "leontief", "buyers": 1, "items": m, "values": [[1] * m]}
        (tmp_path / "m.json").write_text(json.dumps(market))
        code, out, err = run("maxwelfare", "--cap-items", "2000", "--market", str(tmp_path / "m.json"))
        assert (code, out) == (2, "")
        depth = sys.getrecursionlimit() - 100
        assert err == (f"error: assignment search over 1 buyers and {m} items, one stack frame per item: "
                       f"{m} exceeds the cap recursion depth = {depth}\n")

    def test_cap_enum_flag_sets_the_enumeration_cap(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 2, 3]], "additive")))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0, 1, 2]])))
        code, out, err = run("prices-for", "--market", str(tmp_path / "m.json"),
                             "--alloc", str(tmp_path / "a.json"), "--cap-enum", "2")
        assert (code, out) == (2, "")
        assert err == "error: bundle enumeration, m items: 3 exceeds the cap max_enum_items = 2\n"

    def test_verify_takes_the_enumeration_cap(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 2, 3]], "additive")))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([[0, 1, 2]])))
        (tmp_path / "p.json").write_text(io.solution_to_json(prices=make_prices(["1/3"] * 3)))
        argv = ["verify", "--market", str(tmp_path / "m.json"), "--alloc", str(tmp_path / "a.json"),
                "--prices", str(tmp_path / "p.json")]
        code, out, err = run(*argv, "--cap-enum", "2")
        assert (code, out) == (2, "")
        assert err == "error: bundle enumeration, m items: 3 exceeds the cap max_enum_items = 2\n"
        code, out, _ = run(*argv, "--cap-enum", "3")
        assert (code, json.loads(out)) == (0, {"verdict": "equilibrium"})

    def test_cap_items_leaves_the_enumeration_cap_alone(self, run, tmp_path):
        m = 23
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1] * m], "additive")))
        (tmp_path / "a.json").write_text(io.solution_to_json(allocation=make_allocation([range(m)])))
        code, out, err = run("prices-for", "--market", str(tmp_path / "m.json"),
                             "--alloc", str(tmp_path / "a.json"), "--cap-items", "30")
        assert (code, out) == (2, "")
        assert err.endswith(f"{m} exceeds the cap max_enum_items = 22\n")

    def test_apxwelfare_rejects_additive(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1]], "additive")))
        code, _, err = run("apxwelfare", "--market", str(tmp_path / "m.json"))
        assert code == 2
        assert "leontief" in err

    @pytest.mark.parametrize("fields, named", [
        ({"buyers": True, "items": True}, "'buyers'"),
        ({"buyers": 1.0}, "'buyers'"),
        ({"values": ["11"]}, "'values'"),
        ({"values": [1, 2]}, "'values'"),
    ], ids=["bool-counts", "float-count", "string-row", "flat-values"])
    def test_market_document_of_the_wrong_shape_is_usage_error(self, run, tmp_path, fields, named):
        doc = {"class": "additive", "buyers": 1, "items": 1, "values": [[1]], **fields}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code, out, err = run("validate", "--market", str(tmp_path / "m.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("command, doc, first, key", [
        ("validate", "market", '"values":[[1,2]]', "values"),
        ("verify", "market", '"values":[[1]]', "values"),
        ("verify", "alloc", '"allocation":[[1],[2],[3],[4],[5],[6]]', "allocation"),
        ("verify", "prices", '"prices":["1","1","1","1","1","1","1","1"]', "prices"),
    ], ids=["validate-market", "verify-market", "verify-alloc", "verify-prices"])
    def test_repeated_json_key_is_usage_error(self, run, ex2_files, tmp_path, command, doc, first, key):
        # json.loads keeps the last of a repeated key; each document, read
        # that way, is the worked example's, which verifies as an equilibrium
        # (and the validate market as a valid one-item market)
        paths = dict(ex2_files)
        text = paths[doc].read_text() if command == "verify" else \
            '{"class":"additive","buyers":1,"items":1,"values":[[5]]}'
        paths[doc] = tmp_path / "repeated.json"
        paths[doc].write_text(text.replace(f'"{key}":', f'{first},"{key}":', 1))
        keys = ("market",) if command == "validate" else ("market", "alloc", "prices")
        code, out, err = run(command, *(arg for k in keys for arg in (f"--{k}", str(paths[k]))))
        assert (code, out) == (2, "")
        assert err == f"error: JSON object repeats key '{key}'\n"

    def test_unknown_subcommand(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("gen", "partition"),
        ("gen", "subsetsum-verify", "--values", "1,2"),
        ("gen", "x3c", "--set", "1,2,3"),
        ("gen", "setpacking", "--set", "1"),
        ("gen", "subsetsum-verify", "--values", "a,b"),  # the missing flag is named before a parse error
    ])
    def test_gen_missing_arguments(self, run, argv):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert "needs --" in err

    @pytest.mark.parametrize("argv, named", [
        (("x3c", "--universe", "3", "--set", "1,2,3", "--target", "5"), "does not take --target"),
        (("setpacking", "--set", "1,2", "--set", "2,3", "--threshold", "2", "--values", "9"),
         "does not take --values"),
        (("setpacking", "--set", "1,1", "--set", "1,1", "--set", "1", "--threshold", "1"),
         "--set 1,1 repeats an element"),
    ], ids=["foreign-target", "foreign-values", "repeated-element"])
    def test_gen_rejects_input_it_would_drop(self, run, tmp_path, argv, named):
        code, out, err = run("gen", *argv, "--out", str(tmp_path / "g"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_set_does_not_carry_over_between_calls(self, run, tmp_path):
        code, _, _ = run("gen", "x3c", "--universe", "3", "--set", "1,2,3", "--out", str(tmp_path / "a"))
        assert code == 0
        code, out, err = run("gen", "x3c", "--universe", "3", "--out", str(tmp_path / "b"))
        assert (code, out) == (2, "")
        assert err == "error: gen x3c needs --set\n"

    @pytest.mark.parametrize("text", ["1_0", "+2", "\u0663"], ids=["underscore", "plus", "arabic-indic-three"])
    @pytest.mark.parametrize("flag", ["values", "set", "target", "universe", "threshold",
                                      "cap-items", "cap-states", "cap-enum"])
    def test_integer_flags_take_the_market_files_grammar(self, run, tmp_path, flag, text):
        # int() reads "1_0" as 10, "+2" as 2 and "\u0663" as 3; in a market
        # file each is a parse error, and so it is in every integer flag
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1]], "additive")))
        argv = {
            "values": ["gen", "partition", "--values", f"{text},1"],
            "set": ["gen", "x3c", "--universe", "3", "--set", f"1,2,{text}"],
            "target": ["gen", "subsetsum-verify", "--values", "1,2", "--target", text],
            "universe": ["gen", "x3c", "--universe", text, "--set", "1,2,3"],
            "threshold": ["gen", "setpacking", "--set", "1,2", "--threshold", text],
        }.get(flag, ["solve", "--market", str(tmp_path / "m.json"), f"--{flag}", text])
        code, out, err = run(*argv, "--out", str(tmp_path / "g")) if argv[0] == "gen" else run(*argv)
        assert (code, out) == (2, "")
        assert repr(text) in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["gen", "--help"]])
    def test_help_is_that_of_a_fresh_parser(self, run, argv):
        expected = StringIO()
        with redirect_stdout(expected), pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(argv)
        for _ in range(2):
            assert run(*argv) == (0, expected.getvalue(), "")


class TestOracleCommand:
    def test_oracle_none(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(demand_market([{0}, {0}], 1)))
        code, out, _ = run("oracle", "--market", str(tmp_path / "m.json"))
        assert code == 1

    @pytest.mark.parametrize("flags", [[], ["--max-welfare"]], ids=["exists", "max-welfare"])
    def test_oracle_refuses_an_additive_market_past_its_bundle_count(self, run, tmp_path, flags):
        # each of the 2^12 states tests all 2^12 bundles of the one buyer
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([list(range(1, 13))], "additive")))
        code, out, err = run("oracle", "--market", str(tmp_path / "m.json"), *flags)
        assert (code, out) == (2, "")
        assert err == ("error: enumeration over 1 buyers and 12 items, (n+1)^m * n * 2^m bundles: "
                       "16777216 exceeds the cap max_states = 10000000\n")

    def test_oracle_max_welfare(self, run, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(demand_market([{0, 1}, {2, 3}], 4)))
        code, out, _ = run("oracle", "--market", str(tmp_path / "m.json"), "--max-welfare")
        assert code == 0
        assert json.loads(out)["welfare"] == "2"


class TestMaxWelfareCommand:
    def _market(self, tmp_path, market):
        (tmp_path / "m.json").write_text(io.market_to_json(market))
        return str(tmp_path / "m.json")

    def test_leontief_welfare(self, run, tmp_path):
        code, out, err = run("maxwelfare", "--market", self._market(tmp_path, demand_market([{0, 1}, {2, 3}], 4)))
        assert (code, err) == (0, "")
        assert json.loads(out)["welfare"] == "2"

    def test_additive_welfare_and_the_pair_verifies(self, run, tmp_path):
        market = make_market([[1, 2, 3, 4, 5, 1, 2], [5, 4, 3, 2, 1, 3, 1]], "additive")
        path = self._market(tmp_path, market)
        code, out, err = run("maxwelfare", "--market", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["welfare"] == "26"
        (tmp_path / "s.json").write_text(out)
        code, out, _ = run("verify", "--market", path, "--alloc", str(tmp_path / "s.json"),
                           "--prices", str(tmp_path / "s.json"))
        assert (code, json.loads(out)) == (0, {"verdict": "equilibrium"})

    @pytest.mark.parametrize("market", [demand_market([{0}, {0}], 1), make_market([[1], [1]], "additive")],
                             ids=["leontief", "additive"])
    def test_none(self, run, tmp_path, market):
        code, out, err = run("maxwelfare", "--market", self._market(tmp_path, market))
        assert (code, err) == (1, "")
        assert json.loads(out) == {"result": "none", "reason": "no equilibrium"}

    @pytest.mark.parametrize("values, code, doc", [
        ([[1, 1, 0], [0, 1, 1]], 0, {"allocation": [[1, 2], [3]], "prices": ["1/2", "1/2", "1"], "welfare": "1"}),
        ([[1], [1]], 1, {"result": "none", "reason": "no equilibrium"}),
    ], ids=["found", "none"])
    def test_apxwelfare(self, run, tmp_path, values, code, doc):
        path = self._market(tmp_path, make_market(values, "leontief"))
        found, out, err = run("apxwelfare", "--market", path)
        assert (found, json.loads(out), err) == (code, doc, "")

    @pytest.mark.parametrize("market_class", ["leontief", "additive"])
    def test_cap_error_names_its_numbers(self, run, tmp_path, market_class):
        market = make_market([[1] * 11] * 3, market_class)
        code, out, err = run("maxwelfare", "--market", self._market(tmp_path, market), "--cap-states", "1000")
        assert (code, out) == (2, "")
        assert err == ("error: assignment search over 3 buyers and 11 items, n^m states: "
                       "177147 exceeds the cap max_states = 1000\n")


def _import_delta(argv):
    """Modules that `main(argv)` loads in a fresh interpreter, beyond those
    loaded before `ceei` is imported (`site` may load some by itself)."""
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from ceei.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    code, loaded = json.loads(run_script(script, timeout=60))
    return code, set(loaded)


class TestImports:
    """A CLI request loads only the modules that its command and its
    market's class run."""

    def test_validate_loads_no_algorithm_module(self, tmp_path):
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1]], "additive")))
        code, loaded = _import_delta(["validate", "--market", str(tmp_path / "m.json")])
        assert code == 0
        unwanted = {"ceei.lp", "ceei.equilibrium", "ceei.additive", "ceei.leontief", "ceei.oracle",
                    "ceei.reductions", "dataclasses"}
        assert {"ceei.core", "ceei.io"} <= loaded
        assert loaded.isdisjoint(unwanted)

    @pytest.mark.parametrize("market_class, other", [("leontief", "additive"), ("additive", "leontief")])
    def test_solve_loads_only_its_class_module(self, tmp_path, market_class, other):
        """Every command that runs a class algorithm, not `solve` alone."""
        (tmp_path / "m.json").write_text(io.market_to_json(make_market([[1, 1]], market_class)))
        solution = str(tmp_path / "s.json")
        (tmp_path / "s.json").write_text(io.solution_to_json(
            allocation=make_allocation([[0, 1]]), prices=make_prices(["1/2", "1/2"])))
        for argv in (["solve"], ["verify", "--alloc", solution, "--prices", solution],
                     ["prices-for", "--alloc", solution], ["alloc-for", "--prices", solution], ["maxwelfare"]):
            code, loaded = _import_delta([*argv, "--market", str(tmp_path / "m.json")])
            assert code == 0, argv
            assert f"ceei.{market_class}" in loaded, argv
            assert loaded.isdisjoint({f"ceei.{other}", "ceei.oracle", "ceei.reductions"}), argv


# --- fuzzing the JSON boundary ------------------------------------------------

_RATIONALS = st.one_of(
    st.integers(0, 4), st.sampled_from(["0", "1", "2/4", "1/3", "7/2"]),  # valid
    st.sampled_from([-1, "-1/2", "1/0", "1.5", "x", "", 0.5, True, None, [1], {"1": 1}]),  # malformed
)
_JUNK = st.sampled_from([True, 1.0, "2", "11", -1, None, [1], [[True]], {}])


@st.composite
def _maybe(draw, valid, junk=_JUNK):
    """Mostly the valid part, now and then a malformed one in its place."""
    return draw(junk if draw(st.integers(0, 7)) == 7 else valid)


@st.composite
def _documents(draw):
    """Market, allocation and price documents for one small market, each
    field of which may be malformed, dropped, or of the wrong size."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(_maybe(st.sampled_from([1, 2, 0, "1/2", 3]), _RATIONALS), min_size=m, max_size=m)
    market = {
        "class": draw(_maybe(st.sampled_from(["leontief", "additive"]), st.sampled_from(["other", 1, None]))),
        "buyers": draw(_maybe(st.just(n))),
        "items": draw(_maybe(st.just(m))),
        "values": draw(_maybe(st.lists(_maybe(row), min_size=n, max_size=n))),
    }
    owners = draw(st.lists(st.integers(-1, n - 1), min_size=m, max_size=m))
    bundles = [[j + 1 for j, o in enumerate(owners) if o == i] for i in range(n)]
    index = _maybe(st.integers(1, m), st.sampled_from([0, m + 1, -1, 1.5, True, "1", None]))
    allocation = {"allocation": draw(_maybe(st.just(bundles), st.lists(st.lists(index, max_size=3), max_size=4)))}
    price = _maybe(st.sampled_from(["0", "1", "1/2", "1/3", "2/3"]), _RATIONALS)
    prices = {"prices": draw(_maybe(st.lists(price, min_size=m, max_size=m), st.lists(price, max_size=4)))}
    docs = {"market": market, "alloc": allocation, "prices": prices}
    for doc in docs.values():
        if draw(st.integers(0, 9)) == 9:
            doc.pop(draw(st.sampled_from(sorted(doc))))
    return {name: draw(_maybe(st.just(doc), st.sampled_from([[doc], "doc", None])))
            for name, doc in docs.items()}


_COMMANDS = ["validate", "verify", "solve", "prices-for", "alloc-for", "maxwelfare", "apxwelfare", "oracle"]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(_COMMANDS), docs=_documents(),
       garbled=st.sampled_from([None] * 9 + ["market", "alloc", "prices"]))
def test_cli_boundary_fuzz(tmp_path_factory, command, docs, garbled):
    """Every request ends in exit 0, 1 or 2, with at most one JSON line on
    stdout, no traceback, and exactly one `error:` line for exit 2."""
    folder = tmp_path_factory.mktemp("fuzz")
    for name, doc in docs.items():
        text = json.dumps(doc) if name != garbled else json.dumps(doc)[:-1]
        (folder / f"{name}.json").write_text(text)
    flags = {"verify": ("alloc", "prices"), "prices-for": ("alloc",), "alloc-for": ("prices",)}
    argv = [command, *(a for flag in ("market", *flags.get(command, ()))
                       for a in (f"--{flag}", str(folder / f"{flag}.json")))]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines, err = out.getvalue().splitlines(), err.getvalue()
    assert code in (0, 1, 2)
    assert len(lines) <= 1
    for line in lines:
        json.loads(line)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1
