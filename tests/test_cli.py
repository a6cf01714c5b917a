"""Exit codes and report shapes for the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valim
from valim import (
    FiniteSpace,
    MonotoneMap,
    PrefixChain,
    TabulatedSetFunction,
    Valuation,
    ValuedSystem,
)
from valim import suites
from valim.cli import main
from valim.constructions import LimitLawViolation
from valim.documents import dumps
from valim.extreal import ExtRat

from _oracles import brute_tightness

CHAIN2 = FiniteSpace(("0", "1"), (0b11, 0b10))
DIAMOND = FiniteSpace(
    ("bot", "a", "b", "top"), (0b1111, 0b1010, 0b1100, 0b1000)
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def space_body(space):
    body = json.loads(dumps(space))
    body.pop("schema")
    body.pop("kind")
    return body


def test_check_space_ok(tmp_path, capsys):
    path = write(tmp_path, "sp.json", dumps(DIAMOND))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_json_format_carries_digest(tmp_path, capsys):
    text = dumps(DIAMOND)
    path = write(tmp_path, "sp.json", text)
    assert main(["--format", "json", "check", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ok"
    assert len(rep["input_sha256"]) == 64
    assert "version" in rep


def test_check_flags_modularity_violation(tmp_path, capsys):
    masks = sorted(DIAMOND.open_masks(64))
    good = {
        0b0000: "0", 0b1000: "1/4", 0b1010: "1/2",
        0b1100: "1/2", 0b1110: "3/4", 0b1111: "1",
    }
    good[0b1110] = "1/2"  # breaks U + V = join + meet
    t = TabulatedSetFunction(
        DIAMOND, tuple(masks), tuple(ExtRat(good[m]) for m in masks)
    )
    path = write(tmp_path, "bad.json", dumps(t))
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "modularity" in out


def test_check_bad_weight_is_a_parse_error(tmp_path, capsys):
    body = json.loads(dumps(Valuation(CHAIN2, (ExtRat(1), ExtRat(1)))))
    body["weights"][0] = "1/0"
    path = write(tmp_path, "frac.json", json.dumps(body))
    assert main(["check", path]) == 2
    assert "bad weight" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["table", "weights", "valuations"])
def test_a_weight_past_the_int_string_limit_is_a_parse_error(
        tmp_path, capsys, where):
    big = "9" * 5000
    try:
        int(big)
    except ValueError as err:
        reason = err
    else:
        pytest.skip("this interpreter has no int-string limit")
    if where == "table":
        body = json.loads(dumps(Valuation(CHAIN2, (ExtRat(1),) * 2)
                                .tabulate()))
        body["table"][1]["value"] = big
    elif where == "weights":
        body = json.loads(dumps(Valuation(CHAIN2, (ExtRat(1),) * 2)))
        body["weights"][1] = big
    else:
        body = json.loads(dumps(delta_chain(("0", "0", "1"))))
        body["valuations"][2][0] = big
    path = write(tmp_path, "big.json", json.dumps(body))
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad weight {big!r}: {reason}\n"


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_size_limit_exit_code(tmp_path, capsys):
    anti8 = FiniteSpace(
        tuple(f"p{k}" for k in range(8)),
        tuple(1 << k for k in range(8)),
    )
    nu = Valuation(anti8, (ExtRat("1/8"),) * 8)
    path = write(tmp_path, "anti8.json", dumps(nu))
    assert main(["--max-opens", "100", "tight", path]) == 3
    assert "size limit" in capsys.readouterr().err


def test_a_zero_cap_refuses_the_empty_space(tmp_path, capsys):
    # the empty space has one open, the empty set, one past a cap of 0
    path = write(tmp_path, "empty.json", dumps(Valuation(FiniteSpace((), ()),
                                                         ())))
    assert main(["--max-opens", "0", "tight", path]) == 3
    assert ("size limit: open lattice exceeds the configured bound 0"
            in capsys.readouterr().err)
    assert main(["--max-opens", "1", "tight", path]) == 0


def test_product_query_flow(tmp_path, capsys):
    half = ["1/2", "1/2"]
    body = {
        "schema": 1,
        "kind": "query",
        "operation": "product",
        "arguments": {
            "factors": [space_body(CHAIN2), space_body(CHAIN2)],
            "marginals": [
                {"positions": [0], "weights": half},
                {"positions": [1], "weights": half},
                {"positions": [0, 1],
                 "weights": ["1/4", "1/4", "1/4", "1/4"]},
            ],
        },
    }
    path = write(tmp_path, "prod.json", json.dumps(body))
    assert main(["--format", "json", "product", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    doc = rep["document"]
    assert doc["kind"] == "valuation"
    assert set(doc["space"]["elements"]) == {"0,0", "0,1", "1,0", "1,1"}
    assert doc["weights"] == ["1/4", "1/4", "1/4", "1/4"]


def test_product_extends_a_joint_with_an_infinite_weight(tmp_path, capsys):
    # the marginals of the joint (0, 0, 0, inf) on the square of a
    # 2-chain: all of the mass, infinite, sits on the top corner
    body = {
        "schema": 1,
        "kind": "query",
        "operation": "product",
        "arguments": {
            "factors": [space_body(CHAIN2), space_body(CHAIN2)],
            "marginals": [
                {"positions": [0], "weights": ["0", "inf"]},
                {"positions": [1], "weights": ["0", "inf"]},
                {"positions": [0, 1], "weights": ["0", "0", "0", "inf"]},
            ],
        },
    }
    path = write(tmp_path, "prod.json", json.dumps(body))
    assert main(["--format", "json", "product", path]) == 0
    doc = json.loads(capsys.readouterr().out)["document"]
    assert doc["space"]["elements"] == ["0,0", "0,1", "1,0", "1,1"]
    assert doc["weights"] == ["0", "0", "0", "inf"]


def test_product_past_the_open_cap_is_a_size_limit(tmp_path, capsys):
    # the lifted product of two 2-point chains has 20 opens; listing them
    # is dk_product's size guard
    half = ["1/2", "1/2"]
    body = {
        "schema": 1,
        "kind": "query",
        "operation": "product",
        "arguments": {
            "factors": [space_body(CHAIN2), space_body(CHAIN2)],
            "marginals": [
                {"positions": [0], "weights": half},
                {"positions": [1], "weights": half},
                {"positions": [0, 1],
                 "weights": ["1/4", "1/4", "1/4", "1/4"]},
            ],
        },
    }
    path = write(tmp_path, "prod.json", json.dumps(body))
    assert main(["--max-opens", "4", "product", path]) == 3
    assert ("size limit: open lattice exceeds the configured bound 4"
            in capsys.readouterr().err)


@pytest.mark.parametrize("left, right, elements", [
    # joined with a bare "," both ("a", "b,c") and ("a,b", "c") read
    # "a,b,c"
    (["a", "a,b"], ["b,c", "c"],
     ["a,b\\,c", "a,c", "a\\,b,b\\,c", "a\\,b,c"]),
    # with only the commas escaped both ("a\\", "b,c") and ("a,b\\", "c")
    # read a\,b\,c
    (["a\\", "a,b\\"], ["b,c", "c"],
     ["a\\\\,b\\,c", "a\\\\,c", "a\\,b\\\\,b\\,c", "a\\,b\\\\,c"]),
])
def test_product_labels_stay_distinct(tmp_path, capsys, left, right,
                                      elements):
    quarter = ["1/4"] * 4
    body = {
        "schema": 1,
        "kind": "query",
        "operation": "product",
        "arguments": {
            "factors": [{"elements": left, "covers": []},
                        {"elements": right, "covers": []}],
            "marginals": [
                {"positions": [0], "weights": ["1/2", "1/2"]},
                {"positions": [1], "weights": ["1/2", "1/2"]},
                {"positions": [0, 1], "weights": quarter},
            ],
        },
    }
    path = write(tmp_path, "labels.json", json.dumps(body))
    assert main(["--format", "json", "product", path]) == 0
    doc = json.loads(capsys.readouterr().out)["document"]
    assert doc["space"]["elements"] == elements
    assert doc["weights"] == quarter


def test_product_incompatible_family(tmp_path, capsys):
    body = {
        "schema": 1,
        "kind": "query",
        "operation": "product",
        "arguments": {
            "factors": [space_body(CHAIN2), space_body(CHAIN2)],
            "marginals": [
                {"positions": [0], "weights": ["1/2", "1/2"]},
                {"positions": [1], "weights": ["1/2", "1/2"]},
                {"positions": [0, 1], "weights": ["1", "0", "0", "0"]},
            ],
        },
    }
    path = write(tmp_path, "clash.json", json.dumps(body))
    assert main(["product", path]) == 1
    assert "law violation" in capsys.readouterr().err


def test_product_requires_query_document(tmp_path, capsys):
    path = write(tmp_path, "sp.json", dumps(CHAIN2))
    assert main(["product", path]) == 2
    capsys.readouterr()


def delta_chain(top_weights):
    """The three-level prefix chain of growing chains, valued by point
    masses at the top points, the last level by top_weights."""
    x0 = FiniteSpace(("x0",), (0b1,))
    x1 = FiniteSpace(("x0", "x1"), (0b11, 0b10))
    x2 = FiniteSpace(("x0", "x1", "x2"), (0b111, 0b110, 0b100))
    ch = PrefixChain(
        (x0, x1, x2),
        (MonotoneMap(x1, x0, (0, 0)), MonotoneMap(x2, x1, (0, 1, 1))),
    )
    one, zero = ExtRat(1), ExtRat(0)
    return ValuedSystem(
        ch,
        (
            Valuation(x0, (one,)),
            Valuation(x1, (zero, one)),
            Valuation(x2, tuple(map(ExtRat, top_weights))),
        ),
    )


def test_limit_eval_on_a_delta_chain(tmp_path, capsys):
    path = write(tmp_path, "chain.json", dumps(delta_chain((0, 0, 1))))
    rc = main([
        "--format", "json", "limit-eval", path,
        "--cylinder", "2:x2", "--cylinder", "0:x0",
    ])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ok"
    got = {v["cylinder"]: v["value"] for v in rep["values"]}
    assert got == {"2:x2": "1", "0:x0": "1"}
    assert all(v["status"] == "exact" for v in rep["values"])


@pytest.mark.parametrize("route", ["auto", "ep"])
def test_limit_eval_past_the_open_cap_is_a_size_limit(tmp_path, capsys,
                                                      route):
    # the delta chain is an ep chain whose limit has 4 opens; the ep route
    # lists them under the cap, and auto then fails the same way on the
    # tight route
    path = write(tmp_path, "chain.json", dumps(delta_chain((0, 0, 1))))
    assert main(["--max-opens", "1", "limit-eval", path,
                 "--route", route]) == 3
    assert ("size limit: open lattice exceeds the configured bound 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("route", ["auto", "ep", "tight"])
def test_limit_eval_refuses_an_incompatible_family(tmp_path, capsys, route):
    # the top mass sits at x0, which the bond keeps at x0, while level 1
    # puts it at x1; every route checks compatibility before anything else
    path = write(tmp_path, "chain.json", dumps(delta_chain((1, 0, 0))))
    assert main(["limit-eval", path, "--route", route]) == 1
    err = capsys.readouterr().err
    assert "law violation: marginals at 1 and 2 disagree on" in err


def test_support_echo_and_refusal(tmp_path, capsys):
    nu = Valuation(CHAIN2, (ExtRat("1/2"), ExtRat("1/2")))
    path = write(tmp_path, "nu.json", dumps(nu))
    assert main(["support", path, "--subset", "0,1"]) == 0
    capsys.readouterr()
    # mass sits on "0" as well, so {1} cannot carry the valuation
    assert main(["--format", "json", "support", path, "--subset", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "violation"
    assert "witness" in rep


def test_support_unknown_point(tmp_path, capsys):
    nu = Valuation(CHAIN2, (ExtRat("1/2"), ExtRat("1/2")))
    path = write(tmp_path, "nu.json", dumps(nu))
    assert main(["support", path, "--subset", "zap"]) == 2
    capsys.readouterr()


# a and b apart, c below d, which weighs inf: the opens without d are
# worth 0, 7, 1/3 and 22/3
SPLIT = FiniteSpace(("a", "b", "c", "d"), (0b0001, 0b0010, 0b1100, 0b1000))


def test_tight_prints_the_first_witnesses_in_order(tmp_path, capsys):
    for space, weights in ((DIAMOND, ("1/4", "1/2", "1/8", "1")),
                           (SPLIT, ("7", "1/3", "2", "inf"))):
        nu = Valuation(space, tuple(ExtRat(w) for w in weights))
        path = write(tmp_path, "nu.json", dumps(nu))
        _, found, _ = brute_tightness(nu.tabulate())
        # the oracle tries the rationals in a set's order, which is not
        # ascending here, so the printed order must be sorted out
        tried = [r for u, r in found if u == space.full_mask]
        assert tried != sorted(tried)
        # by open size, then by (open mask, rational)
        ordered = sorted(found.items(),
                         key=lambda kv: (kv[0][0].bit_count(), kv[0]))
        want = [{"open": list(space.points_of(u)), "rational": str(r),
                 "compact_witness": list(space.points_of(q))}
                for (u, r), q in ordered]
        assert len(want) > 3
        for cap in (0, 1, 3, len(want), len(want) + 5):
            assert main(["--format", "json", "tight", path,
                         "--max-witnesses", str(cap)]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["witnesses"] == want[:cap]
            assert rep["witness_count"] == len(want)


@pytest.mark.parametrize("cap", ["-3", "-1"])
def test_tight_refuses_a_negative_witness_cap(tmp_path, capsys, cap):
    nu = Valuation(CHAIN2, (ExtRat("1/2"), ExtRat("1/2")))
    path = write(tmp_path, "nu.json", dumps(nu))
    with pytest.raises(SystemExit) as exc:
        main(["tight", path, "--max-witnesses", cap])
    assert exc.value.code == 2
    assert f"cannot show {cap} witnesses; 0 or more" in capsys.readouterr().err


@pytest.mark.parametrize("name", [
    "injections-empty-limit",
    "zero-criterion",
    "ep-lift-chain",
    "steenrod-random",
])
def test_gallery_runs(name, capsys):
    assert main(["gallery", name]) == 0
    out = capsys.readouterr().out
    assert name in out


def test_gallery_seed_and_depth_options(capsys):
    assert main(["--seed", "7", "--depth", "3", "gallery",
                 "steenrod-random"]) == 0
    capsys.readouterr()


def test_gallery_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["gallery", "escher-stairs"])
    capsys.readouterr()


def test_suite_subset(capsys):
    assert main(["suite", "3", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_suite_json_report(capsys):
    assert main(["--format", "json", "suite", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ok"
    row = rep["results"][0]
    assert row["criterion"] == 7
    assert row["passed"] is True
    assert row["elapsed_s"] <= row["budget_s"]


def test_python_dash_m_runs_the_command_line():
    src = Path(valim.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "valim", "suite", "7"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "criterion 7 (thread search): PASS" in done.stdout


@pytest.mark.parametrize("number", ["9", "0", "-1"])
def test_suite_out_of_range_is_malformed(number, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", number])
    assert exc.value.code == 2
    assert f"no criterion {number}; 1..8" in capsys.readouterr().err


def test_suite_reports_every_criterion_around_a_violation(capsys,
                                                          monkeypatch):
    def violate(*args, **kwargs):
        raise LimitLawViolation("injected", 6)

    monkeypatch.setattr(suites, "uniform_tightness_check", violate)
    assert main(["suite", "5", "6", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "criterion 5 (tightness)",
        "criterion 6 (tight-route limits)",
        "criterion 7 (thread search)",
    ]
    assert " PASS " in lines[0] and " PASS " in lines[2]
    assert lines[1].endswith(
        "] LimitLawViolation: limit law injected fails at 6")
    assert lines[3].endswith("FAILURES above]")


def test_list_image_in_a_map_is_a_parse_error(tmp_path, capsys):
    sp = {"elements": ["a"], "covers": []}
    body = {"schema": 1, "kind": "map", "src": sp, "dst": sp,
            "graph": {"a": ["a"]}}
    path = write(tmp_path, "map.json", json.dumps(body))
    assert main(["check", path]) == 2
    assert "not a target point" in capsys.readouterr().err


def test_check_table_size_limit_exit_code(tmp_path, capsys):
    anti8 = FiniteSpace(
        tuple(f"p{k}" for k in range(8)),
        tuple(1 << k for k in range(8)),
    )
    nu = Valuation(anti8, (ExtRat("1/8"),) * 8)
    path = write(tmp_path, "table.json", dumps(nu.tabulate()))
    assert main(["--max-opens", "100", "check", path]) == 3
    assert "size limit" in capsys.readouterr().err


def test_check_notes_a_shadowed_table(tmp_path, capsys):
    # inf above bot hides bot's weight: laws hold, no inversion
    nu = Valuation(CHAIN2, (ExtRat(1), ExtRat("inf")))
    path = write(tmp_path, "shadow.json", dumps(nu.tabulate()))
    assert main(["--format", "json", "check", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ok"
    assert "not invertible" in rep["note"]


def test_tight_reads_a_shadowed_table_as_it_stands(tmp_path, capsys):
    # check says the laws hold; tight decides on the table itself
    nu = Valuation(CHAIN2, (ExtRat(1), ExtRat("inf")))
    path = write(tmp_path, "shadow.json", dumps(nu.tabulate()))
    assert main(["--format", "json", "tight", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["composite_identity"]) == ("ok", True)
    _, found, _ = brute_tightness(nu.tabulate())
    assert rep["witness_count"] == len(found)


def test_support_reads_a_shadowed_table_as_it_stands(tmp_path, capsys):
    # check says the laws hold; support decides on the table itself
    nu = Valuation(CHAIN2, (ExtRat(1), ExtRat("inf")))
    path = write(tmp_path, "shadow.json", dumps(nu.tabulate()))
    for subset, values in (("1", ["0", "inf"]),
                           ("0,1", ["0", "inf", "inf"])):
        assert main(["--format", "json", "support", path,
                     "--subset", subset]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "ok"
        assert [row["value"] for row in rep["document"]["table"]] == values
    # {0} misses 1's infinite weight: the empty open and {1} share the
    # trace {} but are worth 0 and inf
    assert main(["--format", "json", "support", path, "--subset", "0"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "violation"
    assert rep["witness"] == [[], ["1"]]
    assert rep["detail"].startswith("not supported")


def test_support_restricts_past_a_masked_weight(tmp_path, capsys):
    # x0 < x2 < x3, x1 < x2: x0's weight hides under x2's infinite one
    space = FiniteSpace(("x0", "x1", "x2", "x3"),
                        (0b1101, 0b1110, 0b1100, 0b1000))
    nu = Valuation(space, tuple(map(ExtRat, ("2", "2", "inf", "inf"))))
    path = write(tmp_path, "nu.json", dumps(nu))
    assert main(["--format", "json", "support", path,
                 "--subset", "x1,x2,x3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ok"


def test_check_note_follows_the_refusal_reason(tmp_path, capsys, monkeypatch):
    # a refusal whose text mentions "inf - inf" without being the
    # shadowed case is a violation, not a note
    import valim.cli
    from valim import NotSimple

    def refuse(table, max_opens):
        raise NotSimple("weights do not reproduce the table", ("inf - inf",))

    monkeypatch.setattr(valim.cli, "check_valuation", refuse)
    nu = Valuation(CHAIN2, (ExtRat(1), ExtRat(1)))
    path = write(tmp_path, "t.json", dumps(nu.tabulate()))
    assert main(["--format", "json", "check", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "violation"
    assert "note" not in rep


CHAIN_AB = {"elements": ["a", "b"], "covers": [["a", "b"]]}


@pytest.mark.parametrize("command", [["check"], ["tight"],
                                     ["support", "--subset", "b"]],
                         ids=["check", "tight", "support"])
@pytest.mark.parametrize("rows", [[[], ["a"], ["a", "b"]], [[], ["a", "b"]]],
                         ids=["not-an-upset", "missing-open"])
def test_table_off_the_open_lattice_is_malformed(tmp_path, capsys, rows,
                                                 command):
    # on the chain a < b the opens are [], ["b"] and ["a", "b"]
    body = {"schema": 1, "kind": "valuation", "space": CHAIN_AB,
            "table": [{"open": r, "value": "0"} for r in rows]}
    path = write(tmp_path, "table.json", json.dumps(body))
    assert main(command[:1] + [path] + command[1:]) == 2
    captured = capsys.readouterr()
    assert "table must cover the whole open lattice" in captured.err
    assert captured.out == ""


def test_non_monotone_map_document_is_a_law_violation(tmp_path, capsys):
    # the graph swaps a and b, reversing a < b
    body = {"schema": 1, "kind": "map", "src": CHAIN_AB, "dst": CHAIN_AB,
            "graph": {"a": "b", "b": "a"}}
    path = write(tmp_path, "map.json", json.dumps(body))
    assert main(["check", path]) == 1
    assert "map not monotone" in capsys.readouterr().err


def test_repeated_calls_carry_nothing_over(tmp_path, capsys):
    # main parses with one parser per process; no call may see the
    # options, cylinders or defaults of the one before
    from valim.cli import _build_parser

    chain = write(tmp_path, "chain.json", dumps(delta_chain((0, 0, 1))))
    nu = write(tmp_path, "nu.json", dumps(Valuation(
        DIAMOND, (ExtRat("1/4"), ExtRat("1/2"), ExtRat("1/8"), ExtRat(1)))))

    def limit_eval(*extra):
        assert main(["--format", "json", "limit-eval", chain, *extra]) == 0
        rep = json.loads(capsys.readouterr().out)
        return rep["route"], [v["cylinder"] for v in rep["values"]]

    def usage_error(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def help_text(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    assert limit_eval("--cylinder", "2:x2", "--cylinder", "0:x0",
                      "--route", "tight") == ("tight", ["2:x2", "0:x0"])
    assert limit_eval("--cylinder", "1:x1") == ("ep", ["1:x1"])
    assert limit_eval() == ("ep", [])
    assert main(["--format", "json", "tight", nu, "--max-witnesses", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["witnesses"]) == 1
    assert main(["tight", nu]) == 0
    assert capsys.readouterr().out.startswith("verdict: ok\n")
    assert main(["--format", "json", "tight", nu]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["witnesses"]) == min(32, rep["witness_count"])
    fresh = _build_parser.__wrapped__()
    for argv in (["gallery", "escher-stairs"], ["suite", "99"], ["tight"]):
        first = usage_error(argv)
        assert usage_error(argv) == first
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert capsys.readouterr().err == first
    for argv in (["--help"], ["limit-eval", "--help"]):
        first = help_text(argv)
        assert help_text(argv) == first
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert capsys.readouterr().out == first


def test_map_law_failure_reports_its_label_pair(tmp_path, capsys):
    # monotonicity is checked as the document is read; the report names
    # the pair a <= b whose images are out of order, as labels
    body = {"schema": 1, "kind": "map", "src": CHAIN_AB, "dst": CHAIN_AB,
            "graph": {"a": "b", "b": "a"}}
    path = write(tmp_path, "map.json", json.dumps(body))
    assert main(["--format", "json", "check", path]) == 1
    captured = capsys.readouterr()
    assert "map not monotone" in captured.err
    rep = json.loads(captured.out)
    assert (rep["kind"], rep["verdict"]) == ("map", "violation")
    (entry,) = rep["violations"]
    assert entry["error"] == "NotMonotone"
    assert entry["witness"] == ["a", "b"]


def test_witnesses_render_in_document_grammar():
    from valim.cli import _violation_entry
    from valim.constructions import LimitLawViolation
    from valim.order import UpSet

    up = UpSet(DIAMOND, 0b1010)
    assert _violation_entry(LimitLawViolation(
        "family floor", (ExtRat("1/3"), ExtRat("inf"))))["witness"] == [
        "1/3", "inf"]
    assert _violation_entry(LimitLawViolation(
        "product marginal", ((0, 1), ("a", "top"))))["witness"] == [
        [0, 1], ["a", "top"]]
    # opens render as their members' labels, as before
    assert _violation_entry(LimitLawViolation("x", (up, up)))["witness"] == [
        ["a", "top"], ["a", "top"]]
    assert _violation_entry(LimitLawViolation("x", up))["witness"] == [
        "a", "top"]
    assert _violation_entry(LimitLawViolation("x", 3))["witness"] == 3


def test_check_reads_its_document_through_load_path(tmp_path, capsys):
    # check takes the (document, text) pair load_path gives, so a caller
    # that swaps the loader swaps what check sees, on both outcomes
    from unittest import mock

    from valim import cli

    ok = write(tmp_path, "space.json", json.dumps(
        {"schema": 1, "kind": "space", **CHAIN_AB}))
    bad = write(tmp_path, "map.json", json.dumps(
        {"schema": 1, "kind": "map", "src": CHAIN_AB, "dst": CHAIN_AB,
         "graph": {"a": "b", "b": "a"}}))
    for path, code in ((ok, 0), (bad, 1)):
        with mock.patch("valim.cli.load_path",
                        wraps=cli.load_path) as loader:
            assert main(["--format", "json", "check", path]) == code
        loader.assert_called_once_with(path)
        capsys.readouterr()
