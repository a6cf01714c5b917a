"""JSON document format: load, validate, canonically serialize.

One file = one document: a UTF-8 JSON object with "schema": 1 and a
"kind" of space, valuation, map, system, valued-system or query.  Orders
travel as cover pairs and are transitively closed on load; weights and
table values are exact strings ("num/den", an integer string, or "inf"),
never decimals.  A valuation table is read column by column, each
distinct value string parsed once, straight into the scaled-integer
form of valuation._scale, so loading builds no ExtRat per row; its
values decode when first read.  Only a table that does not read so is
walked row by row, checking each row's type, open, labels and value in
turn, and its first bad row is refused; duplicate opens are refused
after all rows.  A label repeated inside an open counts once.
Serialization is canonical: fixed key order, covers sorted, graphs
keyed in source point order, two-space indent, trailing newline.
Loading canonical text and re-serializing is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import reduce
from math import gcd, inf, lcm
from operator import or_

from .errors import BadDocument, SizeLimit, ValimError
from .extreal import ExtRat
from .order import FiniteSpace, MonotoneMap, space_from_covers, _hasse_covers
from .projective import PosetSystem, PrefixChain, ValuedSystem
from .valuation import TabulatedSetFunction, Valuation

__all__ = [
    "SCHEMA",
    "Document",
    "Query",
    "loads",
    "load_path",
    "dumps",
    "body_of",
    "input_sha256",
]

SCHEMA = 1

KINDS = ("space", "valuation", "map", "system", "valued-system", "query")


@dataclass(frozen=True)
class Query:
    operation: str
    arguments: dict


@dataclass(frozen=True)
class Document:
    kind: str
    value: object


def input_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ext_to_str(v: ExtRat) -> str:
    return "inf" if not v.is_finite else str(v.frac)


# the weight grammar above, checked before Fraction sees the string:
# Fraction alone would also take decimals and exponents, and "1e3000000"
# would cost seconds
_WEIGHT = re.compile(r"([0-9]+)(?:/([0-9]+))?|inf")


def _ext_from_str(s) -> ExtRat:
    """A weight string as an ExtRat; the one place a weight is refused,
    so every refusal reads the same wherever the weight stands."""
    if not isinstance(s, str):
        raise BadDocument(f"weight must be a string, got {s!r}")
    if not _WEIGHT.fullmatch(s):
        raise BadDocument(
            f"bad weight {s!r}: expected an integer, num/den or inf"
        )
    try:
        return ExtRat(s)
    except (ValueError, ZeroDivisionError) as err:
        raise BadDocument(f"bad weight {s!r}: {err}")


def _ratio_from_str(s: str) -> tuple:
    """A weight string as (num, den) in lowest terms, (inf, 1) for inf;
    a string that does not read so (bad grammar, a zero denominator, an
    integer past the int-string limit) is refused by _ext_from_str."""
    m = _WEIGHT.fullmatch(s)
    if m is not None:
        num, den = m.groups()
        if num is None:
            return inf, 1
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # past the int-string limit
            den = 0
        if den:
            g = gcd(num, den)
            return num // g, den // g
    _ext_from_str(s)
    raise AssertionError(f"weight {s!r} was not refused")


def _require(obj, key, types, where):
    if not isinstance(obj, dict):
        raise BadDocument(f"{where}: must be an object")
    if key not in obj:
        raise BadDocument(f"{where}: missing {key!r}")
    v = obj[key]
    if not isinstance(v, types):
        raise BadDocument(f"{where}: {key!r} has the wrong type")
    return v


def _parse_space(obj, where="space") -> FiniteSpace:
    elements = _require(obj, "elements", list, where)
    for e in elements:
        if not isinstance(e, str):
            raise BadDocument(f"{where}: elements must be strings")
    covers = _require(obj, "covers", list, where)
    known = set(elements)
    pairs = []
    for c in covers:
        if (not isinstance(c, list)) or len(c) != 2 \
                or not all(isinstance(x, str) for x in c):
            raise BadDocument(f"{where}: covers must be [lower, upper] pairs")
        if c[0] not in known or c[1] not in known:
            raise BadDocument(f"{where}: cover {c!r} names a missing element")
        pairs.append((c[0], c[1]))
    try:
        return space_from_covers(tuple(elements), pairs)
    except ValimError as err:
        raise BadDocument(f"{where}: {err}")


def _space_body(space: FiniteSpace) -> dict:
    for lab in space.labels:
        if not isinstance(lab, str):
            raise ValimError(f"label {lab!r} is not a string; documents "
                             f"carry string labels only")
    covers = sorted([space.labels[i], space.labels[j]]
                    for i, j in _hasse_covers(space))
    return {"elements": list(space.labels), "covers": covers}


def _parse_graph(obj, src: FiniteSpace, dst: FiniteSpace, where) -> MonotoneMap:
    if not isinstance(obj, dict):
        raise BadDocument(f"{where}: graph must be an object")
    graph = []
    for lab in src.labels:
        if lab not in obj:
            raise BadDocument(f"{where}: graph misses source point {lab!r}")
        tgt = obj[lab]
        if not isinstance(tgt, str) or tgt not in dst.index:
            raise BadDocument(f"{where}: image {tgt!r} is not a target point")
        graph.append(dst.index[tgt])
    if len(obj) != src.n:
        extra = sorted(set(obj) - set(src.labels))
        raise BadDocument(f"{where}: graph names unknown points {extra}")
    return MonotoneMap(src, dst, tuple(graph))


def _graph_body(f: MonotoneMap) -> dict:
    return {
        f.source.labels[i]: f.target.labels[f.graph[i]]
        for i in range(f.source.n)
    }


def _parse_weights(obj, space: FiniteSpace, where) -> Valuation:
    if not isinstance(obj, list) or len(obj) != space.n:
        raise BadDocument(f"{where}: weights must list one entry per element")
    return Valuation(space, tuple(_ext_from_str(w) for w in obj))


def _weights_body(nu: Valuation) -> list:
    return [_ext_to_str(w) for w in nu.weights]


def _parse_valuation(obj) -> Valuation | TabulatedSetFunction:
    space = _parse_space(_require(obj, "space", dict, "valuation"),
                         "valuation.space")
    if "weights" in obj:
        return _parse_weights(obj["weights"], space, "valuation")
    table = _require(obj, "table", list, "valuation")
    # read straight into the scaled integers of _from_scaled, a column at
    # a time: each distinct value a reduced (num, den), den the lcm of
    # those, as _scale computes it; whether the rows are the open lattice
    # is left to the table's users (NotOnLattice).  A row that is not an
    # object, a missing key, a wrong type, an unknown label or a refused
    # weight stops the columns, and the rows are then checked one by one
    try:
        opens = [row["open"] for row in table]
        values = [row["value"] for row in table]
        if set(map(type, opens)) - {list} or set(map(type, values)) - {str}:
            raise TypeError
        bit = {lab: 1 << k for lab, k in space.index.items()}
        masks = [sum(map(bit.__getitem__, o)) for o in opens]
        ratios = {s: _ratio_from_str(s) for s in set(values)}
    except (TypeError, KeyError, BadDocument):
        _first_bad_row(table, space.index)
        raise AssertionError("a table column was refused but no row was")
    # a label repeated inside an open is carried into the next bit by the
    # sum, which leaves that row fewer bits than labels
    if sum(map(int.bit_count, masks)) != sum(map(len, opens)):
        masks = [m if m.bit_count() == len(o)
                 else reduce(or_, map(bit.__getitem__, o))
                 for m, o in zip(masks, opens)]
    if len(set(masks)) != len(masks):
        raise BadDocument("valuation.table: duplicate opens")
    den = lcm(*{d for _, d in ratios.values()})
    scaled = {s: inf if n == inf else n * (den // d)
              for s, (n, d) in ratios.items()}
    return TabulatedSetFunction._from_scaled(
        space, tuple(masks), den, tuple(map(scaled.__getitem__, values)))


def _first_bad_row(table, index):
    """Raises the BadDocument of a table's first bad row, checking each
    row in turn for its type, its open, the open's labels and its value;
    reached only when a column of the table does not read cleanly."""
    for row in table:
        if not isinstance(row, dict):
            raise BadDocument("valuation: table rows must be objects")
        for lab in _require(row, "open", list, "valuation.table"):
            k = index.get(lab) if isinstance(lab, str) else None
            if k is None:
                raise BadDocument(
                    f"valuation.table: unknown element {lab!r}"
                )
        _ratio_from_str(_require(row, "value", str, "valuation.table"))


def _valuation_body(v) -> dict:
    if isinstance(v, Valuation):
        return {"space": _space_body(v.space), "weights": _weights_body(v)}
    rows = sorted(zip(v.masks, v.values),
                  key=lambda mv: (mv[0].bit_count(), mv[0]))
    return {
        "space": _space_body(v.space),
        "table": [
            {"open": list(v.space.points_of(m)), "value": _ext_to_str(x)}
            for m, x in rows
        ],
    }


def _parse_map(obj) -> MonotoneMap:
    src = _parse_space(_require(obj, "src", dict, "map"), "map.src")
    dst = _parse_space(_require(obj, "dst", dict, "map"), "map.dst")
    return _parse_graph(_require(obj, "graph", dict, "map"), src, dst, "map")


def _map_body(f: MonotoneMap) -> dict:
    return {
        "src": _space_body(f.source),
        "dst": _space_body(f.target),
        "graph": _graph_body(f),
    }


def _parse_system(obj):
    style = _require(obj, "style", str, "system")
    if style == "prefix":
        levels = _require(obj, "levels", list, "system")
        if not levels:
            raise BadDocument("system: at least one level required")
        spaces = [
            _parse_space(lv, f"system.levels[{k}]")
            for k, lv in enumerate(levels)
        ]
        steps_obj = _require(obj, "steps", list, "system")
        if len(steps_obj) != len(spaces) - 1:
            raise BadDocument("system: one step per adjacent level pair")
        steps = [
            _parse_graph(g, spaces[k + 1], spaces[k], f"system.steps[{k}]")
            for k, g in enumerate(steps_obj)
        ]
        return PrefixChain(tuple(spaces), tuple(steps))
    if style == "poset":
        index = _parse_space(_require(obj, "index", dict, "system"),
                             "system.index")
        spaces_obj = _require(obj, "spaces", list, "system")
        if len(spaces_obj) != index.n:
            raise BadDocument("system: one space per index element")
        spaces = [
            _parse_space(sp, f"system.spaces[{k}]")
            for k, sp in enumerate(spaces_obj)
        ]
        bonds = {}
        for k, b in enumerate(_require(obj, "bonds", list, "system")):
            where = f"system.bonds[{k}]"
            if not isinstance(b, dict):
                raise BadDocument(f"{where}: must be an object")
            lo = _require(b, "below", str, where)
            hi = _require(b, "above", str, where)
            if lo not in index.index or hi not in index.index:
                raise BadDocument(f"{where}: unknown index element")
            i, j = index.index[lo], index.index[hi]
            bonds[(i, j)] = _parse_graph(
                _require(b, "graph", dict, where), spaces[j], spaces[i],
                where,
            )
        try:
            return PosetSystem(index, tuple(spaces), bonds)
        except ValimError as err:
            raise BadDocument(f"system: {err}")
    raise BadDocument(f"system: unknown style {style!r}")


def _system_body(sys) -> dict:
    if sys.kind == "prefix":
        return {
            "style": "prefix",
            "levels": [_space_body(sp) for sp in sys.spaces],
            "steps": [_graph_body(f) for f in sys.steps],
        }
    if sys.kind != "poset":
        raise ValimError("only explicit systems serialize")
    index = sys.index_poset
    bonds = [{
        "below": index.labels[i],
        "above": index.labels[j],
        "graph": _graph_body(sys.bond(i, j)),
    } for i, j in _hasse_covers(index)]
    bonds.sort(key=lambda b: (b["below"], b["above"]))
    return {
        "style": "poset",
        "index": _space_body(index),
        "spaces": [_space_body(sys.space(i)) for i in sys.indices()],
        "bonds": bonds,
    }


def _parse_valued_system(obj) -> ValuedSystem:
    sys = _parse_system(_require(obj, "system", dict, "valued-system"))
    vals_obj = _require(obj, "valuations", list, "valued-system")
    idxs = list(sys.indices())
    if len(vals_obj) != len(idxs):
        raise BadDocument("valued-system: one weight list per index")
    vals = tuple(
        _parse_weights(w, sys.space(i), f"valued-system.valuations[{i}]")
        for i, w in zip(idxs, vals_obj)
    )
    return ValuedSystem(sys, vals)


def _valued_system_body(vs: ValuedSystem) -> dict:
    return {
        "system": _system_body(vs.system),
        "valuations": [
            _weights_body(vs.val(i)) for i in vs.system.indices()
        ],
    }


def _parse_query(obj) -> Query:
    op = _require(obj, "operation", str, "query")
    args = obj.get("arguments", {})
    if not isinstance(args, dict):
        raise BadDocument("query: arguments must be an object")
    return Query(op, args)


def body_of(value) -> dict:
    """The canonical JSON body (kind + payload) for a domain object."""
    if isinstance(value, Document):
        value = value.value
    if isinstance(value, FiniteSpace):
        return {"schema": SCHEMA, "kind": "space", **_space_body(value)}
    if isinstance(value, (Valuation, TabulatedSetFunction)):
        return {"schema": SCHEMA, "kind": "valuation",
                **_valuation_body(value)}
    if isinstance(value, MonotoneMap):
        return {"schema": SCHEMA, "kind": "map", **_map_body(value)}
    if isinstance(value, ValuedSystem):
        return {"schema": SCHEMA, "kind": "valued-system",
                **_valued_system_body(value)}
    if isinstance(value, (PrefixChain, PosetSystem)):
        return {"schema": SCHEMA, "kind": "system",
                "system": _system_body(value)}
    if isinstance(value, Query):
        return {"schema": SCHEMA, "kind": "query",
                "operation": value.operation,
                "arguments": value.arguments}
    raise ValimError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    return json.dumps(body_of(value), ensure_ascii=False, indent=2) + "\n"


def loads(text: str) -> Document:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise BadDocument(f"not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise BadDocument("top level must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise BadDocument(f"schema must be {SCHEMA}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise BadDocument(f"kind must be one of {', '.join(KINDS)}")
    try:
        if kind == "space":
            value = _parse_space(obj, "space")
        elif kind == "valuation":
            value = _parse_valuation(obj)
        elif kind == "map":
            value = _parse_map(obj)
        elif kind == "system":
            value = _parse_system(_require(obj, "system", dict, "system"))
        elif kind == "valued-system":
            value = _parse_valued_system(obj)
        else:
            value = _parse_query(obj)
    except (BadDocument, SizeLimit):
        raise
    except ValimError as err:
        # a law the value breaks, such as a map's monotonicity: valim
        # check reports it under the document's kind
        err.document_kind = kind
        raise
    return Document(kind, value)


def _read_text(path: str) -> str:
    """A document's raw text; BadDocument on any I/O trouble."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise BadDocument(f"cannot read {path}: {err}")


def load_path(path: str) -> tuple:
    """Returns (document, raw text); raises BadDocument on any I/O or
    parse trouble."""
    text = _read_text(path)
    return loads(text), text
