"""Properties of the document layer and the CLI over generated and
mutated documents.

Base documents are written by dumps from generated objects; mutations
then delete, replace or duplicate parts of the JSON, or cut the text.
Whatever comes out, loading fails only with BadDocument or, where a
law is at stake, another ValimError; every command ends in exit 0, 1, 2
or 3 and never raises; and whatever loads re-serializes to a fixed
point.
"""

import contextlib
import copy
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from valim.cli import main
from valim.documents import Document, Query, _first_bad_row, dumps, loads
from valim.errors import ValimError
from valim.extreal import ExtRat
from valim.generators import (
    rand_monotone_map,
    rand_poset,
    rand_poset_system,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
)
from valim.valuation import TabulatedSetFunction, _scale

from _oracles import row_loop_valuation

KINDS = ("space", "weights", "table", "map", "prefix", "poset", "valued",
         "valued-poset", "product")

# replacement values: wrong types, edge-case weights, stray labels
PALETTE = (None, True, 0, -1, 2**70, 1.5, "", "inf", "1/0", "-1/2", "0",
           "1/3", "zap", [], {}, ["zap"], [["x0"]], {"x0": "x0"})


def base_document(kind, rng) -> str:
    if kind == "space":
        return dumps(rand_poset(rng, rng.randint(0, 5)))
    if kind == "weights":
        return dumps(rand_valuation(rng, rand_poset(rng, rng.randint(1, 5)),
                                    inf_prob=0.1))
    if kind == "table":
        nu = rand_valuation(rng, rand_poset(rng, rng.randint(1, 4)),
                            inf_prob=0.1)
        return dumps(nu.tabulate())
    if kind == "map":
        src = rand_poset(rng, rng.randint(1, 4), prefix="s")
        return dumps(rand_monotone_map(rng, src,
                                       rand_poset(rng, rng.randint(1, 4))))
    if kind == "prefix":
        return dumps(rand_prefix_chain(rng, rng.randint(1, 3), 4))
    if kind == "poset":
        return dumps(rand_poset_system(rng, rng.choice(("vee", "square")), 4))
    if kind == "valued":
        return dumps(rand_valued_chain(
            rng, rand_prefix_chain(rng, rng.randint(1, 3), 4)))
    if kind == "valued-poset":
        return dumps(rand_valued_poset_system(
            rng, rng.choice(("vee", "square")), 4))
    factors = [rand_poset(rng, rng.randint(1, 3), prefix=f"f{p}_")
               for p in range(rng.randint(1, 2))]
    marginals = []
    for bits in range(1, 1 << len(factors)):
        s = [p for p in range(len(factors)) if (bits >> p) & 1]
        n = 1
        for p in s:
            n *= factors[p].n
        marginals.append({"positions": s,
                          "weights": [str(Fraction(1, n))] * n})
    args = {"factors": [json.loads(dumps(f)) for f in factors],
            "marginals": marginals}
    return dumps(Query("product", args))


def _slots(obj, out):
    """Every (container, key) in a JSON value, outermost first."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for k in list(keys):
        out.append((obj, k))
        if isinstance(obj[k], (dict, list)):
            _slots(obj[k], out)
    return out


def _strings(obj, out):
    if isinstance(obj, str):
        out.append(obj)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            out.append(k)
            _strings(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _strings(v, out)
    return out


def mutate(text, rng, count) -> str:
    obj = json.loads(text)
    for _ in range(count):
        slots = _slots(obj, [])
        if not slots or rng.random() < 0.1:
            cut = rng.randrange(len(text) + 1)
            return json.dumps(obj)[:cut]
        parent, key = rng.choice(slots)
        op = rng.randrange(4)
        if op == 0:
            del parent[key]
        elif op == 1:
            # a copy: an entry shared between slots or examples could be
            # mutated into a cycle
            parent[key] = copy.deepcopy(rng.choice(PALETTE))
        elif op == 2:
            # another string of the same document: a label or a weight
            parent[key] = rng.choice(_strings(obj, []) or [""])
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[key] = [parent[key]]
    return json.dumps(obj)


def documents():
    return st.builds(
        lambda kind, seed, count: mutate(
            base_document(kind, random.Random(seed)),
            random.Random(seed + 1), count),
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=3),
    )


@given(documents())
@settings(max_examples=150, deadline=None)
def test_loads_fails_only_with_valim_errors(text):
    try:
        loads(text)
    except ValimError:
        pass


@given(documents())
@settings(max_examples=150, deadline=None)
def test_canonical_text_is_a_fixed_point(text):
    try:
        doc = loads(text)
    except ValimError:
        return
    canonical = dumps(doc.value)
    assert dumps(loads(canonical).value) == canonical


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(documents(), st.sampled_from((None, "0", "1", "4")))
@settings(max_examples=60, deadline=None)
def test_cli_exits_with_a_contract_code(text, max_opens):
    options = [] if max_opens is None else ["--max-opens", max_opens]
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in (["check", path], ["tight", path],
                        ["support", path, "--subset", "x0"],
                        ["limit-eval", path, "--cylinder", "0:"],
                        ["product", path]):
            assert _run(options + command) in (0, 1, 2, 3)
    finally:
        os.unlink(path)


def _spell(value, rng) -> str:
    """A weight string for value, often not the canonical one: 2/4 for
    1/2, 007 for 7, 0/9 for 0."""
    if value == "inf":
        return value
    f = Fraction(value)
    k = rng.randint(2, 5)
    return rng.choice((
        value,
        f"{f.numerator * k}/{f.denominator * k}",
        "00" + value if f.denominator == 1 else value,
        f"0/{k}" if f == 0 else value,
    ))


def table_document(rng) -> tuple:
    """(text, row values) for a table document on a random space: lawful,
    or with values changed, a row dropped or a stray row added; values
    spelled in many ways, rows in shuffled order."""
    space = rand_poset(rng, rng.randint(1, 5))
    table = rand_valuation(rng, space, inf_prob=0.15).tabulate()
    rows = [{"open": list(space.points_of(m)), "value": str(v)}
            for m, v in table.items()]
    fault = rng.randrange(5)
    if fault == 1:
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            row["value"] = rng.choice(("0", "1", "1/2", "3/7", "inf"))
    elif fault == 2:
        rows.pop(rng.randrange(len(rows)))
    elif fault == 3:
        stray = [p for p in space.labels if rng.random() < 0.5]
        if space.mask_of(stray) not in table.masks:
            rows.append({"open": stray, "value": "1"})
    for row in rows:
        row["value"] = _spell(row["value"], rng)
    rng.shuffle(rows)
    body = {"schema": 1, "kind": "valuation",
            "space": json.loads(dumps(space)), "table": rows}
    del body["space"]["schema"], body["space"]["kind"]
    return json.dumps(body), [row["value"] for row in rows]


def _report(argv, loaded=None):
    """(exit code, stdout) of main(argv); with loaded given, the CLI
    reads that (Document, text) pair in place of the file."""
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if loaded is not None:
            stack.enter_context(
                mock.patch("valim.cli.load_path", return_value=loaded))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        code = main(argv)
    return code, out.getvalue()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_document_tables_read_as_the_public_constructor_builds(seed):
    text, spelled = table_document(random.Random(seed))
    values = tuple(ExtRat(s) for s in spelled)
    doc = loads(text)
    table = doc.value
    assert table._scaled == _scale(values)
    assert table.values == values
    public = TabulatedSetFunction(table.space, table.masks, values)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("check", "tight"):
            argv = ["--format", "json", command, path]
            assert _report(argv) == _report(
                argv, (Document("valuation", public), text))
    finally:
        os.unlink(path)


# one fault per kind, put into a table row
ROW_FAULTS = {
    "row type": lambda row: ["open", "value"],
    "no open": lambda row: {"value": row["value"]},
    "open type": lambda row: {**row, "open": "x0"},
    "label": lambda row: {**row, "open": row["open"] + ["zap"]},
    "label type": lambda row: {**row, "open": [["x0"]] + row["open"]},
    "no value": lambda row: {"open": row["open"]},
    "value type": lambda row: {**row, "value": 0.5},
    "weight": lambda row: {**row, "value": "1/0"},
}


def special_table(case, rng) -> tuple:
    """(text, text with only the first fault) for a lawful table document
    made special by case; the second is None but for two faults."""
    obj = json.loads(base_document("table", rng))
    rows = obj["table"]
    first = None
    if case == "repeat":
        row = rng.choice([r for r in rows if r["open"]])
        row["open"].insert(rng.randrange(len(row["open"]) + 1),
                           rng.choice(row["open"]))
    elif case == "long":
        digits = "".join(rng.choice("123456789") for _ in range(5000))
        rng.choice(rows)["value"] = rng.choice(
            (digits, f"1/{digits}", f"{digits}/7"))
    elif case == "spelled":
        for row in rows:
            row["value"] = rng.choice(("0/5", "inf", row["value"]))
    elif case == "empty":
        rows.clear()
    else:
        i, j = sorted(rng.sample(range(len(rows)), 2))
        kind_i, kind_j = rng.sample(sorted(ROW_FAULTS), 2)
        rows[i] = ROW_FAULTS[kind_i](rows[i])
        first = json.dumps(obj)
        rows[j] = ROW_FAULTS[kind_j](rows[j])
    return json.dumps(obj), first


def table_texts():
    mutated = st.builds(
        lambda seed, count: (mutate(base_document(
            "table", random.Random(seed)), random.Random(seed + 1), count),
            None),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=3))
    special = st.builds(
        lambda case, seed: special_table(case, random.Random(seed)),
        st.sampled_from(("repeat", "long", "spelled", "empty", "two faults")),
        st.integers(min_value=0, max_value=10_000))
    return st.one_of(mutated, special)


def _outcome(text):
    """A table's masks and scaled integers, another loaded value, or the
    refusal's type and text."""
    try:
        value = loads(text).value
    except ValimError as err:
        return type(err), str(err)
    if isinstance(value, TabulatedSetFunction):
        return value.masks, value._scaled
    return value


@given(table_texts())
@settings(max_examples=250, deadline=None)
def test_tables_read_by_column_as_the_row_loop_reads_them(texts):
    text, first_fault_only = texts
    with mock.patch("valim.documents._parse_valuation", row_loop_valuation):
        want = _outcome(text)
    rows_read = []
    with mock.patch(
            "valim.documents._first_bad_row",
            lambda *args: rows_read.append(args) or _first_bad_row(*args)):
        got = _outcome(text)
    assert got == want
    if isinstance(want, tuple) and isinstance(want[0], tuple):
        # a table loaded: no row was read one at a time
        assert rows_read == []
    if first_fault_only is not None:
        assert got == _outcome(first_fault_only)
