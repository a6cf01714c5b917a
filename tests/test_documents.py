"""Round trips and rejection paths for the JSON document layer."""

import json
import random

import pytest

from valim import (
    FiniteSpace,
    MonotoneMap,
    PrefixChain,
    TabulatedSetFunction,
    Valuation,
    ValuedSystem,
)
from valim.documents import (
    BadDocument,
    Document,
    Query,
    body_of,
    dumps,
    input_sha256,
    load_path,
    loads,
)
from valim.errors import ValimError
from valim.extreal import INF, ExtRat
from valim.generators import (
    rand_poset,
    rand_poset_system,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
)

SIER = FiniteSpace(("bot", "top"), (0b11, 0b10))
DIAMOND = FiniteSpace(
    ("bot", "a", "b", "top"), (0b1111, 0b1010, 0b1100, 0b1000)
)


def roundtrip(value):
    text = dumps(value)
    doc = loads(text)
    assert dumps(doc.value) == text
    return doc


def test_space_roundtrip():
    doc = roundtrip(DIAMOND)
    assert doc.kind == "space"
    assert doc.value == DIAMOND


def test_valuation_weights_roundtrip():
    nu = Valuation(DIAMOND, (ExtRat("1"), ExtRat("1/3"), ExtRat("1/2"), INF))
    doc = roundtrip(nu)
    assert doc.kind == "valuation"
    assert doc.value.weights == nu.weights


def test_valuation_table_roundtrip():
    masks = tuple(sorted(SIER.open_masks(64)))
    t = TabulatedSetFunction(
        SIER, masks, tuple(ExtRat(m.bit_count()) for m in masks)
    )
    doc = roundtrip(t)
    assert isinstance(doc.value, TabulatedSetFunction)
    # rows come back sorted by (size, mask); lookups must survive
    for m in masks:
        assert doc.value.lookup(m) == t.lookup(m)


def test_map_roundtrip():
    f = MonotoneMap(DIAMOND, SIER, (0, 1, 1, 1))
    doc = roundtrip(f)
    assert doc.kind == "map"
    assert doc.value.graph == f.graph


def test_prefix_system_roundtrip():
    ch = PrefixChain(
        (SIER, DIAMOND),
        (MonotoneMap(DIAMOND, SIER, (0, 1, 1, 1)),),
    )
    doc = roundtrip(ch)
    assert doc.kind == "system"
    assert doc.value.last == 1
    assert doc.value.space(1) == DIAMOND


def test_poset_system_roundtrip():
    rng = random.Random(11)
    sys = rand_poset_system(rng, max_top=5)
    doc = roundtrip(sys)
    assert doc.value.index_poset == sys.index_poset
    for i in sys.indices():
        for j in sys.indices():
            if sys.index_leq(i, j):
                assert doc.value.bond(i, j).graph == sys.bond(i, j).graph


def test_valued_system_roundtrip():
    rng = random.Random(3)
    ch = rand_prefix_chain(rng, 3, 4)
    vs = rand_valued_chain(rng, ch)
    doc = roundtrip(vs)
    assert isinstance(doc.value, ValuedSystem)
    for i in ch.indices():
        assert doc.value.val(i).weights == vs.val(i).weights


def test_query_roundtrip():
    q = Query("product", {"factors": [1, 2], "note": "raw json only"})
    doc = roundtrip(q)
    assert doc.value.operation == "product"
    assert doc.value.arguments == q.arguments


def test_extreme_weights_roundtrip():
    nu = Valuation(DIAMOND, (ExtRat(0), ExtRat(10**40),
                             ExtRat(7**30, 2**64 + 1), INF))
    assert roundtrip(nu).value.weights == nu.weights


def test_seeded_valuation_roundtrips():
    rng = random.Random(2026)
    for _ in range(30):
        sp = rand_poset(rng, rng.randint(1, 5))
        nu = rand_valuation(rng, sp, inf_prob=0.2)
        assert roundtrip(nu).value.weights == nu.weights


def test_body_of_unwraps_document():
    doc = loads(dumps(SIER))
    assert body_of(doc) == body_of(SIER)


def test_input_sha256_is_plain_sha256():
    assert input_sha256("hello\n") == (
        "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    )
    assert input_sha256("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


@pytest.mark.parametrize(
    "mutate, hint",
    [
        (lambda d: d.update(schema=2), "schema"),
        (lambda d: d.update(kind="poset"), "kind"),
        (lambda d: d.pop("space"), "missing"),
        (lambda d: d["weights"].append("1/2"), "one entry per element"),
        (lambda d: d["weights"].__setitem__(0, "1/0"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, "-1/2"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, 0.5), "must be a string"),
        # only integers, num/den and inf: no decimals, exponents, signs,
        # spaces or other spellings of infinity
        (lambda d: d["weights"].__setitem__(0, "0.5"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, "1e5"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, "1e3000000"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, "+1"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, " 1/2"), "bad weight"),
        (lambda d: d["weights"].__setitem__(0, "oo"), "bad weight"),
    ],
)
def test_valuation_rejections(mutate, hint):
    body = json.loads(dumps(Valuation(SIER, (ExtRat(1), ExtRat("1/2")))))
    mutate(body)
    with pytest.raises(BadDocument, match=hint):
        loads(json.dumps(body))


def test_rejects_non_object_and_bad_json():
    with pytest.raises(BadDocument, match="JSON"):
        loads("{nope")
    with pytest.raises(BadDocument, match="object"):
        loads("[1, 2]")


def test_table_rejections():
    body = json.loads(dumps(SIER))
    body["kind"] = "valuation"
    body["space"] = json.loads(dumps(SIER))
    body["table"] = [{"open": ["zap"], "value": "1"}]
    with pytest.raises(BadDocument, match="unknown element"):
        loads(json.dumps(body))
    body["table"] = [
        {"open": ["top"], "value": "1"},
        {"open": ["top"], "value": "2"},
    ]
    with pytest.raises(BadDocument, match="duplicate"):
        loads(json.dumps(body))


def test_system_step_count_must_match():
    ch = PrefixChain(
        (SIER, SIER), (MonotoneMap(SIER, SIER, (0, 1)),)
    )
    body = json.loads(dumps(ch))
    body["system"]["steps"] = []
    with pytest.raises(BadDocument, match="step"):
        loads(json.dumps(body))


def test_load_path(tmp_path):
    p = tmp_path / "sier.json"
    text = dumps(SIER)
    p.write_text(text, encoding="utf-8")
    doc, raw = load_path(str(p))
    assert raw == text
    assert doc.value == SIER
    with pytest.raises(BadDocument, match="cannot read"):
        load_path(str(tmp_path / "absent.json"))


def test_document_is_frozen():
    doc = Document("space", SIER)
    with pytest.raises(Exception):
        doc.kind = "map"


@pytest.mark.parametrize("shape", ["chain2", "chain3", "chain4", "vee",
                                   "square"])
def test_every_generated_system_shape_roundtrips(shape):
    sys = rand_poset_system(random.Random(3), shape)
    assert loads(dumps(sys)).value.index_poset == sys.index_poset


def test_non_string_labels_do_not_serialize():
    sp = FiniteSpace((0, "x"), (0b01, 0b10))
    with pytest.raises(ValimError, match="label 0 "):
        dumps(sp)


def test_table_row_with_a_non_string_member_is_refused():
    body = json.loads(dumps(Valuation(SIER, (ExtRat(1), ExtRat(1))).tabulate()))
    body["table"][1]["open"] = [["top"]]
    with pytest.raises(BadDocument, match="unknown element"):
        loads(json.dumps(body))


def test_a_space_that_is_not_an_object_is_refused():
    ch = PrefixChain((SIER, SIER), (MonotoneMap(SIER, SIER, (0, 1)),))
    body = json.loads(dumps(ch))
    body["system"]["levels"][0] = "elements"
    with pytest.raises(BadDocument, match=r"levels\[0\]: must be an object"):
        loads(json.dumps(body))
