"""Command-line surface.

Every command reads documents, runs the corresponding checks, and emits
a report that embeds the input hash and the library version, so a
verdict can be reproduced from the file alone.  Exit codes: 0 for a
clean verdict, 1 for a violated law (with witnesses in the report), 2
for I/O or parse trouble, 3 for a size limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from . import __version__
from .constructions import (
    _dk_product,
    _PartialProducts,
    ep_limit_valuation,
    prohorov_limit,
)
from .documents import body_of, input_sha256, load_path
from .errors import BadDocument, SizeLimit, ValimError
from .extreal import ExtRat
from .gallery import GALLERY_NAMES, run_gallery
from .order import DEFAULT_MAX_OPENS, DEFAULT_MAX_POINTS, FiniteSpace, UpSet
from .projective import (
    CylinderOpen,
    _check_ep,
    check_compatibility,
    check_system,
)
from .suites import SUITES, run_all
from .valuation import (
    NotOnLattice,
    NotSimple,
    NotSupported,
    Valuation,
    check_valuation,
    is_tight,
    support_check,
)
from .documents import _ext_to_str, _parse_space, _parse_weights, _read_text

__all__ = ["main"]


def _report(command: str, text: str, **payload) -> dict:
    return {
        "command": command,
        "version": __version__,
        "input_sha256": input_sha256(text) if text is not None else None,
        **payload,
    }


def _print_report(rep: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(rep, ensure_ascii=False, indent=2))
        return
    for key, value in rep.items():
        if key in ("command", "version", "input_sha256"):
            continue
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                if isinstance(item, (dict, list)):
                    print("  " + json.dumps(item, ensure_ascii=False))
                else:
                    print(f"  {item}")
        elif isinstance(value, dict):
            print(f"{key}:")
            print(json.dumps(value, ensure_ascii=False, indent=2))
        else:
            print(f"{key}: {value}")
    print(f"[{rep['command']} | valim {rep['version']}"
          + (f" | sha256 {rep['input_sha256']}]" if rep.get("input_sha256")
             else "]"))


def _open_masks_capped(space, max_opens):
    try:
        return space.open_masks(max_opens)
    except SizeLimit:
        return None


def _violation_entry(err: ValimError) -> dict:
    entry = {"error": type(err).__name__, "detail": str(err)}
    witness = getattr(err, "witness", None)
    if witness is not None:
        entry["witness"] = _witness_body(witness)
    return entry


def _witness_body(w):
    """A witness in the document grammar: an open as its members' labels,
    a value as a weight string (_ext_to_str), a tuple as a list, labels
    and indices as themselves; anything else as its repr."""
    if isinstance(w, UpSet):
        return list(w.members)
    if isinstance(w, ExtRat):
        return _ext_to_str(w)
    if isinstance(w, tuple):
        return [_witness_body(x) for x in w]
    if isinstance(w, (str, int)):
        return w
    return repr(w)


def _lawful(v, max_opens):
    """A valuation document's value with its laws checked: its weights,
    or the table itself when an infinite weight shadows the weights
    below it (NotSimple.SHADOWED), which is read on the open lattice as
    it stands.  A table off the open lattice is malformed input, not a
    failed law."""
    if isinstance(v, Valuation):
        return v
    try:
        return check_valuation(v, max_opens)
    except NotOnLattice as err:
        raise BadDocument(f"valuation.table: {err}") from None
    except NotSimple as err:
        if err.reason != NotSimple.SHADOWED:
            raise
        return v


def _cmd_check(args) -> int:
    try:
        doc, text = load_path(args.path)
    except (BadDocument, SizeLimit):
        raise
    except ValimError as err:
        # a law checked as the document is read, such as a map's
        # monotonicity, is reported with its witness like any other,
        # after the stderr line main prints for every law violation
        print(f"law violation: {err}", file=sys.stderr)
        rep = _report("check", _read_text(args.path), kind=err.document_kind,
                      verdict="violation", violations=[_violation_entry(err)])
        _print_report(rep, args.format)
        return 1
    info = {"kind": doc.kind, "verdict": "ok", "violations": []}
    v = doc.value

    def run(label, fn):
        try:
            return fn()
        except SizeLimit:
            raise
        except ValimError as err:
            info["verdict"] = "violation"
            entry = _violation_entry(err)
            entry["law"] = label
            info["violations"].append(entry)
            return None

    if doc.kind == "space":
        info["points"] = v.n
        masks = _open_masks_capped(v, args.max_opens)
        if masks is not None:
            info["opens"] = len(masks)
    elif doc.kind == "valuation":
        info["form"] = "weights" if isinstance(v, Valuation) else "table"
        try:
            nu = _lawful(v, args.max_opens)
        except (BadDocument, SizeLimit):
            raise
        except ValimError as err:
            info["verdict"] = "violation"
            info["violations"].append(_violation_entry(err))
        else:
            if isinstance(nu, Valuation):
                info["total"] = _ext_to_str(nu.total())
            if nu is not v:
                info["weights"] = [_ext_to_str(w) for w in nu.weights]
            elif info["form"] == "table":
                info["note"] = (
                    "laws hold; table not invertible (an infinite "
                    "weight shadows the ones below), kept tabulated"
                )
    elif doc.kind == "map":
        info["points"] = [v.source.n, v.target.n]
    elif doc.kind in ("system", "valued-system"):
        sys_ = v.system if doc.kind == "valued-system" else v
        lawful = run("bond laws", lambda: check_system(sys_)) is not None
        info["indices"] = len(list(sys_.indices()))
        info["ep_structure"] = False
        if lawful:
            try:
                _check_ep(sys_)
                info["ep_structure"] = True
            except ValimError:
                pass
        if doc.kind == "valued-system" and info["verdict"] == "ok":
            got = run("compatibility", lambda: check_compatibility(v))
            info["compatible"] = got is not None
    else:
        info["operation"] = v.operation
    rep = _report("check", text, **info)
    _print_report(rep, args.format)
    return 0 if info["verdict"] == "ok" else 1


def _parse_cylinder(spec: str, sys_) -> CylinderOpen:
    if ":" not in spec:
        raise BadDocument(f"cylinder {spec!r} must look like LEVEL:a,b")
    level_s, _, labs = spec.partition(":")
    try:
        level = int(level_s)
    except ValueError:
        raise BadDocument(f"cylinder level {level_s!r} is not an integer")
    idxs = list(sys_.indices())
    if level not in idxs:
        raise BadDocument(f"cylinder level {level} outside the system")
    space = sys_.space(level)
    members = [s for s in labs.split(",") if s]
    for lab in members:
        if lab not in space.index:
            raise BadDocument(f"cylinder names unknown point {lab!r}")
    mask = space.mask_of(members)
    if space.up_close(mask) != mask:
        raise BadDocument(f"cylinder base {members} is not an up-set")
    return CylinderOpen(sys_, level, UpSet(space, mask))


def _cmd_limit_eval(args) -> int:
    doc, text = load_path(args.path)
    if doc.kind != "valued-system":
        raise BadDocument("limit-eval expects a valued-system document")
    vs = doc.value
    route = args.route
    if route in ("auto", "ep"):
        try:
            lv = ep_limit_valuation(vs, max_opens=args.max_opens)
        except ValimError:
            if route == "ep":
                raise
            lv = None
        if route == "auto" and lv is None:
            route = "tight"
        elif lv is not None:
            route = "ep"
    if route == "tight":
        lv = prohorov_limit(vs, max_opens=args.max_opens)
    values = []
    for spec in args.cylinder or []:
        cyl = _parse_cylinder(spec, vs.system)
        val = lv.eval_cylinder(cyl)
        values.append({
            "cylinder": spec,
            "value": _ext_to_str(val),
            "status": "exact",
        })
    rep = _report(
        "limit-eval", text, route=lv.route, verdict="ok",
        limit_points=lv.limit.space.n, values=values,
    )
    _print_report(rep, args.format)
    return 0


def _escape_coordinate(label: str) -> str:
    """A coordinate label with "\\" and "," escaped by a backslash, so
    that joining coordinates with "," names distinct tuples distinctly;
    labels without either character are unchanged."""
    return label.replace("\\", "\\\\").replace(",", "\\,")


def _cmd_product(args) -> int:
    doc, text = load_path(args.path)
    if doc.kind != "query" or doc.value.operation != "product":
        raise BadDocument(
            "product expects a query document with operation \"product\""
        )
    q = doc.value.arguments
    factors_obj = q.get("factors")
    if not isinstance(factors_obj, list) or not factors_obj:
        raise BadDocument("product: arguments.factors must be a list")
    factors = [
        _parse_space(f, f"factors[{k}]") for k, f in enumerate(factors_obj)
    ]
    marg_obj = q.get("marginals")
    if not isinstance(marg_obj, list):
        raise BadDocument("product: arguments.marginals must be a list")
    parts = _PartialProducts(factors)
    subsets = parts.subsets
    marginals = {}
    for k, row in enumerate(marg_obj):
        if not isinstance(row, dict):
            raise BadDocument(f"marginals[{k}]: must be an object")
        pos = row.get("positions")
        if (not isinstance(pos, list)
                or any(not isinstance(p, int) for p in pos)):
            raise BadDocument(f"marginals[{k}]: positions must be integers")
        s = tuple(sorted(pos))
        if s not in subsets:
            raise BadDocument(f"marginals[{k}]: positions {pos} invalid")
        i = subsets.index(s)
        marginals[s] = _parse_weights(
            row.get("weights"), parts.spaces[i], f"marginals[{k}]"
        )
    missing = [s for s in subsets if s and s not in marginals]
    if missing:
        raise BadDocument(f"product: marginals missing for {missing}")
    dk = _dk_product(factors, marginals, DEFAULT_MAX_POINTS,
                     args.max_opens, True, parts)
    flat = FiniteSpace(
        tuple(",".join(map(_escape_coordinate, lab))
              for lab in dk.space.labels),
        dk.space.up,
    )
    out = Valuation._from_scaled(flat, *dk.valuation._scaled)
    rep = _report(
        "product", text, verdict="ok",
        factors=[sp.n for sp in factors],
        document=body_of(out),
    )
    _print_report(rep, args.format)
    return 0


def _cmd_tight(args) -> int:
    doc, text = load_path(args.path)
    if doc.kind != "valuation":
        raise BadDocument("tight expects a valuation document")
    nu = _lawful(doc.value, args.max_opens)
    report = is_tight(nu, args.max_opens)
    # only the printed witnesses are built: by open size, then open
    # mask, then ascending rational
    shown = islice(report.witnesses.ascending(), args.max_witnesses)
    witnesses = [{
        "open": list(nu.space.points_of(u)),
        "rational": _ext_to_str(r),
        "compact_witness": list(nu.space.points_of(q)),
    } for (u, r), q in shown]
    rep = _report(
        "tight", text,
        verdict="ok" if report.verdict else "violation",
        composite_identity=report.composite_matches,
        witnesses=witnesses,
        witness_count=len(report.witnesses),
    )
    _print_report(rep, args.format)
    return 0 if (report.verdict and report.composite_matches) else 1


def _cmd_support(args) -> int:
    doc, text = load_path(args.path)
    if doc.kind != "valuation":
        raise BadDocument("support expects a valuation document")
    nu = _lawful(doc.value, args.max_opens)
    members = [s for s in (args.subset or "").split(",") if s]
    for lab in members:
        if lab not in nu.space.index:
            raise BadDocument(f"subset names unknown point {lab!r}")
    try:
        restriction = support_check(nu, members, args.max_opens)
    except NotSupported as err:
        rep = _report(
            "support", text, verdict="violation",
            witness=[list(err.witness[0].members),
                     list(err.witness[1].members)],
            detail=str(err),
        )
        _print_report(rep, args.format)
        return 1
    rep = _report(
        "support", text, verdict="ok",
        supported_on=members,
        document=body_of(restriction.valuation),
    )
    _print_report(rep, args.format)
    return 0


def _cmd_gallery(args) -> int:
    result = run_gallery(args.name, seed=args.seed, depth=args.depth)
    rep = _report("gallery", None, **result)
    _print_report(rep, args.format)
    return 0


def _cmd_suite(args) -> int:
    results = run_all(args.numbers or None)
    ok = all(r.passed and r.within_budget for r in results)
    if args.format == "json":
        rep = _report(
            "suite", None,
            verdict="ok" if ok else "violation",
            results=[{
                "criterion": r.number,
                "name": r.name,
                "passed": r.passed,
                "elapsed_s": round(r.elapsed, 3),
                "budget_s": r.budget,
                "detail": r.detail,
            } for r in results],
        )
        print(json.dumps(rep, ensure_ascii=False, indent=2))
    else:
        for r in results:
            print(r.line())
        print(f"[suite | valim {__version__} | "
              + ("all criteria met]" if ok else "FAILURES above]"))
    return 0 if ok else 1


def criterion(text: str) -> int:
    """argparse type for a criterion number; out of range is malformed."""
    number = int(text)
    if not 1 <= number <= len(SUITES):
        raise argparse.ArgumentTypeError(
            f"no criterion {number}; 1..{len(SUITES)}")
    return number


def witness_cap(text: str) -> int:
    """argparse type for --max-witnesses; a negative cap is malformed."""
    number = int(text)
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"cannot show {number} witnesses; 0 or more")
    return number


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no
    state on it, and every call gets a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="valim",
        description="Exact valuations on finite T0 spaces, their "
        "projective limits, and the laws that govern them.",
    )
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--max-opens", type=int, default=DEFAULT_MAX_OPENS,
                    metavar="N", help="cap on enumerated open sets")
    ap.add_argument("--depth", type=int, default=12, metavar="D",
                    help="probe depth for rule-given chains (gallery)")
    ap.add_argument("--seed", type=int, default=0, metavar="S",
                    help="seed for generated instances (gallery)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="validate a document and its laws")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("limit-eval",
                       help="evaluate cylinders in the limit valuation")
    p.add_argument("path")
    p.add_argument("--cylinder", action="append", metavar="LEVEL:a,b",
                   help="cylinder base; repeatable; empty open is LEVEL:")
    p.add_argument("--route", choices=("auto", "ep", "tight"),
                   default="auto")
    p.set_defaults(fn=_cmd_limit_eval)

    p = sub.add_parser("product",
                       help="extend a marginal family to the product")
    p.add_argument("path", help="query document with operation \"product\"")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("tight", help="tightness certificate")
    p.add_argument("path")
    p.add_argument("--max-witnesses", type=witness_cap, default=32)
    p.set_defaults(fn=_cmd_tight)

    p = sub.add_parser("support", help="restrict to a supporting subset")
    p.add_argument("path")
    p.add_argument("--subset", required=True, metavar="a,b")
    p.set_defaults(fn=_cmd_support)

    p = sub.add_parser("gallery", help="run a worked demonstration")
    p.add_argument("name", choices=GALLERY_NAMES)
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("suite", help="run the acceptance suites")
    p.add_argument("numbers", nargs="*", type=criterion,
                   help="criteria to run (default: all)")
    p.set_defaults(fn=_cmd_suite)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BadDocument as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SizeLimit as err:
        print(f"size limit: {err}", file=sys.stderr)
        return 3
    except ValimError as err:
        print(f"law violation: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
