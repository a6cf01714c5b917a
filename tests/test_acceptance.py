"""Acceptance gate: the eight criteria, one line of verdict each.

Every criterion is exact (tolerance zero); the runtime budgets are part
of the contract and asserted, not advisory.  Run with -s to see the
lines; a red test prints its line in the failure body either way.
"""

import dataclasses
import re
from itertools import islice

import pytest

from valim import _kernels, suites
from valim.constructions import LimitLawViolation
from valim.errors import ValimError
from valim.extreal import ONE, ZERO, ExtRat
from valim.order import MonotoneMap
from valim.suites import SUITES, run_suite
from valim.valuation import TabulatedSetFunction, Valuation

from _oracles import brute_first_differing_mask, level_law_failures

BUDGETS = {1: 30, 2: 30, 3: 60, 4: 60, 5: 30, 6: 60, 7: 30, 8: 10}

# The corpus counts pin the gate's coverage: a comparison path that
# quietly skipped cases would change them.
DETAILS = {
    1: "500 valuations, exhaustive laws; round trip exact on all 408 "
       "invertible tables",
    2: "100 systems, all three laws exhaustive",
    3: "100 chains, marginals exact on every open",
    4: "100 products (92 with full open enumeration)",
    5: "200 valuations, composite identity + witnesses",
    6: "100 chains, 56 cross-checked against the projection route on every "
       "open",
    7: "200 threads verified; empty-limit criterion holds both ways",
    8: "65 finite + 35 with infinite weights, all four conditions agree",
}


def test_the_gate_has_eight_criteria():
    assert len(SUITES) == 8


@pytest.mark.parametrize("number", sorted(BUDGETS))
def test_criterion(number):
    r = run_suite(number)
    print(r.line())
    assert r.number == number
    assert r.budget == BUDGETS[number]
    assert r.passed, r.line()
    assert r.within_budget, r.line()
    assert r.detail == DETAILS[number]


def skewed(nu, k=-1):
    """nu with the weight of point k moved, so that some open disagrees."""
    w = nu.weights[k]
    weights = list(nu.weights)
    weights[k] = w + ONE if w.is_finite else ZERO
    return Valuation(nu.space, tuple(weights))


def first_marginal_difference(lv, vs):
    for i in vs.system.indices():
        m = brute_first_differing_mask(lv.marginal(i), vs.val(i),
                                       vs.system.space(i).open_masks())
        if m is not None:
            return i, m
    return None


@pytest.mark.parametrize("number, route, detail", [
    (3, "ep_limit_valuation", "open {m:#b} at level {i}"),
    (6, "prohorov_limit", "marginal {i} open {m:#b}"),
])
def test_marginal_criteria_name_the_first_differing_open(
        monkeypatch, number, route, detail):
    real = getattr(suites, route)
    seen = []

    def skew_limit(vs, *args, **kwargs):
        lv = real(vs, *args, **kwargs)
        lv = dataclasses.replace(lv, valuation=skewed(lv.valuation))
        seen.append((lv, vs))
        return lv

    monkeypatch.setattr(suites, route, skew_limit)
    r = run_suite(number)
    assert not r.passed
    i, m = first_marginal_difference(*seen[-1])
    assert r.detail == detail.format(i=i, m=m)
    assert re.search(r"open 0b[01]+", r.detail)


def test_products_compare_every_open(monkeypatch):
    # with the 2n-candidate check silenced, only the comparison over
    # every open can catch a disagreement
    monkeypatch.setattr(suites, "first_differing_open", lambda a, b: None)
    real = suites.dk_product
    # only the first product of 8 or more points with a least point is
    # skewed.  Moving the (finite) weight of its point k first shows on
    # the up-set of k, so trying every k spreads the first difference
    # over that product's opens, up to the last one, the whole space.
    k, points = 0, 1
    while k < points:
        cases, target = [], []

        def skew_product(*args, **kwargs):
            dk = real(*args, **kwargs)
            cases.append(dk)
            if target or dk.space.n < 8 or dk.space.bottom() is None:
                return dk
            target.append(len(cases) - 1)
            return dataclasses.replace(dk, valuation=skewed(dk.valuation, k))

        monkeypatch.setattr(suites, "dk_product", skew_product)
        r = run_suite(4)
        (case,) = target
        space = cases[case].space
        assert not r.passed
        assert r.detail == f"open {space.up[k]:#b} (case {case})"
        k, points = k + 1, space.n


def test_products_list_no_sorted_lattice_and_evaluate_no_column(
        monkeypatch):
    # every product open is compared by the sum carried through its
    # listing, so a passing pass sorts no lattice and sums no column
    def called(*args, **kwargs):
        raise AssertionError("criterion 4 sorted or evaluated a lattice")

    for name in ("enumerate_upsets", "eval_weights"):
        monkeypatch.setattr(_kernels, name, called)
    r = run_suite(4)
    assert (r.passed, r.detail) == (True, DETAILS[4])


def test_tight_limits_compare_the_routes_on_every_open(monkeypatch):
    real = suites.ep_limit_valuation
    seen = []

    def skew_ep_route(vs, *args, **kwargs):
        lv = real(vs, *args, **kwargs)
        seen.append((lv.valuation, skewed(lv.valuation)))
        return dataclasses.replace(lv, valuation=seen[-1][1])

    monkeypatch.setattr(suites, "ep_limit_valuation", skew_ep_route)
    r = run_suite(6)
    assert not r.passed
    nu, skew = seen[-1]
    m = brute_first_differing_mask(nu, skew, nu.space.open_masks())
    assert m is not None
    assert r.detail == f"routes disagree on open {m:#b}"


def swapped_projections(limit):
    """limit with one projection's images of two points swapped, for
    every index and pair of points whose images differ, in that order."""
    n = limit.space.n
    for pos, p in enumerate(limit.projections):
        for a in range(n):
            for b in range(a + 1, n):
                if p.graph[a] == p.graph[b]:
                    continue
                graph = list(p.graph)
                graph[a], graph[b] = graph[b], graph[a]
                swapped = list(limit.projections)
                swapped[pos] = MonotoneMap._trusted(p.source, p.target,
                                                    tuple(graph))
                yield dataclasses.replace(limit, projections=tuple(swapped))


def test_level_laws_name_what_the_per_open_scan_names(monkeypatch):
    # criterion 2 checks its laws on columns; on a limit with a swapped
    # projection, its detail must be the first failure of the per-open
    # scan.  One limit is tried for each list of the checks that fail at
    # the scan's first failing open, so that laws and pairs failing
    # together there are named in the scan's order.
    real = suites.materialize_limit
    limits = []
    monkeypatch.setattr(suites, "materialize_limit", lambda sys: (
        limits.append(real(sys)) or limits[-1]))
    assert run_suite(2).passed
    first = {}
    for s, lim in enumerate(limits):
        for t, swapped in enumerate(swapped_projections(lim)):
            failed = list(level_law_failures(swapped))
            if failed:
                at = tuple(d for k, d in failed if k == failed[0][0])
                first.setdefault(at, (s, t))
    assert {at[0].split(" at ")[0] for at in first} == {
        "bond monotonicity failed", "approximants not increasing",
        "preimages do not exhaust the open"}
    assert any(len(at) > 1 for at in first)
    for at, (s, t) in first.items():
        built = []

        def skew(sys):
            built.append(real(sys))
            if len(built) - 1 != s:
                return built[-1]
            return next(islice(swapped_projections(built[-1]), t, None))

        monkeypatch.setattr(suites, "materialize_limit", skew)
        r = run_suite(2)
        assert (r.passed, r.detail) == (False, at[0])


@pytest.mark.parametrize("order", [1, -1], ids=["in-order", "reversed"])
def test_composite_check_names_the_first_differing_open(monkeypatch, order):
    # the first composite with eight opens or more is skewed at two of
    # them by 1/7, a denominator no weight has, so the columns are
    # compared cross-multiplied; a reversed table is read by mask
    real = suites.mu_circ
    skewed_at = []

    def skew(nb):
        comp = real(nb)
        if skewed_at or len(comp.masks) < 8:
            return comp
        values = list(comp.values)
        for k in (len(values) // 2, len(values) - 1):
            values[k] = values[k] + ExtRat(1, 7) if values[k].is_finite \
                else ZERO
        skewed_at.append(comp.masks[len(values) // 2])
        return TabulatedSetFunction(comp.space, comp.masks[::order],
                                    tuple(values[::order]))

    monkeypatch.setattr(suites, "mu_circ", skew)
    r = run_suite(5)
    assert not r.passed
    assert r.detail == f"composite differs on {skewed_at[0]:#b}"


def flip_verdict(rep):
    return dataclasses.replace(rep, verdict=not rep.verdict)


# One injected fault per remaining criterion: fault(real, *args) stands
# in for a function the criterion calls and corrupts its result, so the
# detail names the check that caught it.  Deleting that check makes the
# criterion PASS and the test fail.  Criteria 3, 4 and 6 are covered by
# the tests above.
FAULTS = [
    (1, "check_valuation", lambda real, table: skewed(real(table)),
     "round trip broke on seed case 1"),
    (2, "upper_adjoints",
     lambda real, limit, i, masks: [0] * len(real(limit, i, masks)),
     "preimages do not exhaust the open"),
    (5, "is_tight",
     lambda real, nu: dataclasses.replace(real(nu), verdict=False,
                                          failure="injected"),
     "not tight at case 0: injected"),
    (7, "check_compatibility", lambda real, vs: vs,
     "nonzero family passed compatibility"),
    (8, "is_locally_finite", lambda real, nu: flip_verdict(real(nu)),
     "verdict does not match the conditions"),
]


@pytest.mark.parametrize("number, name, fault, detail", FAULTS,
                         ids=[f"{n}-{name}" for n, name, _, _ in FAULTS])
def test_injected_fault_fails_its_criterion(monkeypatch, number, name, fault,
                                            detail):
    real = getattr(suites, name)
    monkeypatch.setattr(suites, name, lambda *args: fault(real, *args))
    r = run_suite(number)
    assert not r.passed
    assert r.detail == detail
    assert r.line().startswith(f"criterion {number} (")
    assert " FAIL " in r.line()


# the first library call of each criterion
ENTRY = {1: "check_valuation", 2: "materialize_limit",
         3: "ep_limit_valuation", 4: "dk_product", 5: "is_tight",
         6: "uniform_tightness_check", 7: "steenrod_nonempty",
         8: "is_locally_finite"}


@pytest.mark.parametrize("number", sorted(ENTRY))
def test_a_law_violation_is_the_criterion_s_fail(monkeypatch, number):
    def violate(*args, **kwargs):
        raise LimitLawViolation("injected", number)

    monkeypatch.setattr(suites, ENTRY[number], violate)
    r = run_suite(number)
    assert (r.number, r.passed) == (number, False)
    assert r.detail == (
        f"LimitLawViolation: limit law injected fails at {number}")


def test_only_the_expected_refusals_are_skipped(monkeypatch):
    # criterion 4 skips full enumeration only on SizeLimit, criterion 6
    # the route cross-check only on a chain that is not ep
    def refuse(*args, **kwargs):
        raise ValimError("injected")

    # criterion 4 lists and compares every open in one call
    monkeypatch.setattr(suites, "_first_differing_upset", refuse)
    monkeypatch.setattr(suites, "check_ep_system", refuse)
    for number in (4, 6):
        r = run_suite(number)
        assert (r.passed, r.detail) == (False, "ValimError: injected")

