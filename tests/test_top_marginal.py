"""The tight route decided by the top-marginal theorem, against the walk.

On a materialized limit whose top projection is the identity and whose
projections push the top marginal to every marginal, weight for weight,
uniform_tightness_check returns the top marginal's table as mu with no
walk, and prohorov_limit returns the top marginal with no certificate
run.  The oracles in _oracles.py are the two functions as they decided
every family before: the column walk and the full certificate.  Drawn
families, broken ones, hand-built limits and reports, and size caps must
give the same reports, limit valuations and refusals on both.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    ExtRat,
    FiniteSpace,
    LimitLawViolation,
    MonotoneMap,
    PosetSystem,
    PrefixChain,
    SizeLimit,
    ValimError,
    Valuation,
    ValuedSystem,
    ep_limit_valuation,
    marginal_family_from_joint,
    marginals_from_joint,
    materialize_limit,
    pointed_product_valuation,
    prohorov_limit,
    uniform_tightness_check,
    zero_valuation,
)
from valim import constructions, valuation
from valim.extreal import INF, ONE
from valim.gallery import run_gallery
from valim.generators import (
    _SHAPES,
    rand_ep_prefix_chain,
    rand_monotone_map,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
)
from valim.projective import LimitSpace
from valim.valuation import NotSimple, TabulatedSetFunction

from _oracles import (
    checked_prohorov_limit,
    independent_joint,
    walked_uniform_tightness_check,
)

seeds = st.integers(min_value=0, max_value=10_000)

KINDS = ("prefix", "ep") + _SHAPES
BREAKS = ("lawful", "gained weight", "masked", "independent")
MISUSES = ("none", "permuted top", "other family", "hand-built report",
           "cap at limit", "cap at level", "cap at prohorov")


def family(rng, kind, inf_prob):
    if kind == "prefix":
        return rand_valued_chain(
            rng, rand_prefix_chain(rng, rng.randint(1, 4), 5),
            inf_prob=inf_prob)
    if kind == "ep":
        return rand_valued_chain(
            rng, rand_ep_prefix_chain(rng, rng.randint(1, 4), 5),
            inf_prob=inf_prob)
    return rand_valued_poset_system(rng, kind, max_top=5, inf_prob=inf_prob)


def broken(rng, vs, how, inf_prob):
    """vs, or vs with one marginal changed: a point that gained weight,
    the gain placed below an infinite weight where one exists (so that
    it may be masked), or every marginal drawn on its own."""
    sys = vs.system
    if how == "lawful":
        return vs
    if how == "independent":
        return ValuedSystem(sys, tuple(
            rand_valuation(rng, sys.space(i), inf_prob=inf_prob)
            for i in sys.indices()))
    k = rng.choice(list(sys.indices()))
    sp, ws = sys.space(k), list(vs.val(k).weights)
    masked = [x for x in range(sp.n)
              if any(ws[y] == INF for y in range(sp.n)
                     if y != x and (sp.up[x] >> y) & 1)]
    x = rng.choice(masked) if how == "masked" and masked \
        else rng.randrange(sp.n)
    ws[x] = ws[x] + ExtRat(1, rng.randint(1, 3))
    vals = [vs.val(i) for i in sys.indices()]
    vals[k] = Valuation(sp, tuple(ws))
    return ValuedSystem(sys, tuple(vals))


def automorphism(space):
    """A non-identity order automorphism of a small space, or None."""
    ident = tuple(range(space.n))
    for perm in itertools.islice(itertools.permutations(ident), 1, 720):
        if all(sum(1 << perm[y] for y in range(space.n)
                   if (space.up[x] >> y) & 1) == space.up[perm[x]]
               for x in range(space.n)):
            return perm
    return None


def permuted_top(rng, vs):
    """The materialized limit with its top projection replaced by a
    non-identity automorphism of the top space, or a random monotone map
    into it where the top space has none."""
    sys = vs.system
    limit = materialize_limit(sys)
    top = sys.top_index()
    xt = sys.space(top)
    perm = automorphism(xt)
    f = MonotoneMap(limit.space, xt, perm) if perm is not None \
        else rand_monotone_map(rng, limit.space, xt)
    projections = list(limit.projections)
    projections[list(sys.indices()).index(top)] = f
    return LimitSpace(sys, limit.space, tuple(projections))


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as e:  # the two sides must refuse alike
        return "raised", type(e), str(e)


def report_fields(rep):
    return (rep.system, rep.limit, rep.verdict, rep.failure,
            rep.experimental_infinite, rep.mu.space, rep.mu.masks,
            rep.mu.values, rep.mu.on, dict(rep.witnesses))


def limit_fields(lv):
    return (lv.source, lv.limit, lv.valuation, lv.route, lv.mu,
            dict(lv.tight_witnesses))


def summary(result, fields):
    if result[0] != "ok":
        return result
    return "ok", fields(result[1])


def assert_same(vs, misuse, verify, rng, limit=None):
    """Both sides from one drawn case: the report (on limit, when given),
    then prohorov_limit on it and on none, under the misuse.  Returns
    the new side's (report, limit on the report, limit on none)
    summaries."""
    sys = vs.system
    other = None
    check_opts, limit_opts = {}, {}
    altered = rng.random() < 0.5
    edit = rng.choice(("reordered", "masks moved", "value raised"))
    if misuse == "permuted top":
        limit = permuted_top(rng, vs)
    elif misuse == "other family":
        # an equal family, whose report meets P4, or another joint's
        other = ValuedSystem(sys, tuple(vs.val(i) for i in sys.indices())) \
            if altered else marginal_family_from_joint(sys, rand_valuation(
                rng, sys.space(sys.top_index())))
    elif misuse.startswith("cap"):
        # the limit carries the top space's order, so it has its opens
        where = len(sys.space(rng.choice(list(sys.indices()))
                              if misuse == "cap at level"
                              else sys.top_index()).open_masks())
        limit_opts = {"max_opens": where - rng.randint(0, 1)}
        if misuse != "cap at prohorov":
            check_opts = limit_opts
    sides = {"new": (uniform_tightness_check, prohorov_limit),
             "old": (walked_uniform_tightness_check, checked_prohorov_limit)}
    got = {}
    for side, (check, limit_of) in sides.items():
        rep = outcome(check, other or vs, limit=limit, **check_opts)
        if rep[0] == "ok" and misuse == "hand-built report":
            # the same table listed in reverse, its masks reversed under
            # the values (another table), or one value raised
            mu = rep[1].mu
            masks, values = mu.masks[::-1], list(mu.values[::-1])
            if edit == "masks moved":
                values.reverse()
            elif edit == "value raised":
                values[0] = values[0] + ExtRat(1)
            rep = "ok", dataclasses.replace(rep[1], mu=TabulatedSetFunction(
                mu.space, masks, tuple(values), "upsets"))
        on_report = None
        if rep[0] == "ok":
            on_report = summary(outcome(
                limit_of, vs, rep[1], verify_compatibility=verify,
                **limit_opts), limit_fields)
        got[side] = (
            summary(rep, report_fields),
            on_report,
            summary(outcome(limit_of, vs, verify_compatibility=verify,
                            **limit_opts), limit_fields),
        )
    assert got["new"] == got["old"]
    return got["new"]


@given(seeds, st.sampled_from(KINDS), st.sampled_from(BREAKS),
       st.sampled_from((0.0, 0.15, 0.3)), st.sampled_from(MISUSES),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_tight_route_matches_the_walk_and_the_full_certificate(
        seed, kind, how, inf_prob, misuse, verify):
    rng = random.Random(seed)
    vs = broken(rng, family(rng, kind, inf_prob), how, inf_prob)
    assert_same(vs, misuse, verify, rng)


def test_a_shadowing_infinity_is_still_refused():
    # a two-point chain x0 <= x1 with infinite weight on both points: the
    # limit's table cannot be inverted, and the walk's certificate says so
    c2 = FiniteSpace(("x0", "x1"), (0b11, 0b10))
    c1 = FiniteSpace(("y",), (0b1,))
    ch = PrefixChain((c1, c2), (MonotoneMap(c2, c1, (0, 0)),))
    vs = marginal_family_from_joint(ch, Valuation(c2, (INF, INF)))
    got = assert_same(vs, "none", True, random.Random(0))
    assert got[2][:2] == ("raised", NotSimple)


def test_a_collapsing_top_projection_takes_the_walk():
    # a < b and c, b weightless: sending b down to a pushes the weights
    # onto themselves (P2 holds at the top), but the projection is not
    # the identity, and mu({b}) = nu(up a) = 1 where nu({b}) = 0
    space = FiniteSpace(("a", "b", "c"), (0b011, 0b010, 0b100))
    ch = PrefixChain((space,), ())
    vs = ValuedSystem(ch, (Valuation(space, (ExtRat(1), ExtRat(0),
                                             ExtRat(1))),))
    limit = materialize_limit(ch)
    collapsed = LimitSpace(ch, limit.space, (
        MonotoneMap(limit.space, space, (0, 0, 2)),))
    got = assert_same(vs, "none", True, random.Random(0), collapsed)
    (_, report), on_report = got[:2]
    assert dict(zip(report[6], report[7]))[0b010] == ExtRat(1)
    assert on_report == ("raised", LimitLawViolation,
                         "limit law uniqueness fails at ('b',)")


def test_a_projection_off_the_limit_is_refused():
    # p_0 would push nu_L onto nu_0 weight for weight, but it is a map
    # out of the antichain on the limit's points, not out of the limit:
    # the preimage of up(d) would be {a}, no open of the limit
    chain = FiniteSpace(("a", "b"), (0b11, 0b10))
    anti = FiniteSpace(("a", "b"), (0b01, 0b10))
    low = FiniteSpace(("c", "d"), (0b11, 0b10))
    ch = PrefixChain((low, chain), (MonotoneMap(chain, low, (0, 1)),))
    limit = materialize_limit(ch)
    with pytest.raises(ValimError) as e:
        LimitSpace(ch, limit.space, (MonotoneMap(anti, low, (1, 0)),
                                     limit.projections[1]))
    assert str(e.value) == \
        "projection at 0 does not map the limit to the space at 0"
    # and one whose target is not the index's space
    with pytest.raises(ValimError) as e:
        LimitSpace(ch, limit.space, (limit.projections[0],
                                     limit.projections[0]))
    assert str(e.value) == \
        "projection at 1 does not map the limit to the space at 1"
    with pytest.raises(ValimError, match="one projection per index"):
        LimitSpace(ch, limit.space, limit.projections[:1])


def test_a_limit_of_another_system_is_refused():
    # vs lives on a one-point chain, the limit on a three-point antichain,
    # whose fibres the walk would have looked up by the point's index
    point = FiniteSpace(("p",), (0b1,))
    anti = FiniteSpace(("x", "y", "z"), (0b001, 0b010, 0b100))
    vs = ValuedSystem(PrefixChain((point,), ()), (Valuation(point, (ONE,)),))
    foreign = materialize_limit(PrefixChain((anti,), ()))
    message = "the limit's projection at 0 does not land on the space at 0"
    with pytest.raises(ValimError) as e:
        uniform_tightness_check(vs, limit=foreign)
    assert str(e.value) == message
    report = uniform_tightness_check(ValuedSystem(
        foreign.system, (Valuation(anti, (ONE, ONE, ONE)),)))
    with pytest.raises(ValimError) as e:
        prohorov_limit(vs, report)
    assert str(e.value) == message
    # a poset system's limit with fewer indices has no projection at 1
    rng = random.Random(4)
    vs = rand_valued_poset_system(rng, "chain2")
    one = PosetSystem(FiniteSpace(("0",), (0b1,)), (vs.system.space(0),), {})
    with pytest.raises(ValimError) as e:
        uniform_tightness_check(vs, limit=materialize_limit(one))
    assert str(e.value) == \
        "the limit's projection at 1 does not land on the space at 1"
    # while the limit of an equal system is a limit of vs.system
    twin = dataclasses.replace(vs.system)
    assert twin is not vs.system and twin == vs.system
    assert report_fields(uniform_tightness_check(
        vs, limit=materialize_limit(twin)))[2:] == report_fields(
        uniform_tightness_check(vs))[2:]


def test_a_permuted_top_projection_takes_the_walk():
    anti = FiniteSpace(("x", "y"), (0b01, 0b10))
    ch = PrefixChain((anti,), ())
    vs = ValuedSystem(ch, (Valuation(anti, (ExtRat(1), ExtRat(2))),))
    got = assert_same(vs, "permuted top", True, random.Random(0))
    assert got[0][0] == "ok"


COUNTED = ((constructions, "mu_circ"), (constructions, "check_valuation"),
           (valuation, "_walk_below"), (constructions, "_saturated_images"))


def count_calls(monkeypatch):
    calls = {name: 0 for _, name in COUNTED}
    for module, name in COUNTED:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_an_accepted_chain_runs_no_walk_and_no_certificate(monkeypatch,
                                                          seed):
    rng = random.Random(seed)
    make = rand_ep_prefix_chain if seed % 2 else rand_prefix_chain
    vs = rand_valued_chain(rng, make(rng, rng.randint(1, 4), 5))
    calls = count_calls(monkeypatch)
    lv = prohorov_limit(vs, uniform_tightness_check(vs))
    assert calls == {name: 0 for _, name in COUNTED}
    assert lv.route == "tight"
    assert lv.valuation.weights == vs.val(vs.system.last).weights


def test_the_zero_criterion_refusal_comes_from_the_walk(monkeypatch):
    calls = count_calls(monkeypatch)
    out = run_gallery("zero-criterion")
    assert any(line.startswith("tight route refused")
               for line in out["results"])
    # the nonzero family over the empty limit fails P2 and is walked;
    # the zero family is not
    assert calls["_saturated_images"] > 0
    assert calls["mu_circ"] == calls["check_valuation"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_ep_limits_size_their_lattice_by_counting(seed):
    rng = random.Random(seed)
    vs = rand_valued_chain(rng, rand_ep_prefix_chain(rng, 3, 6))
    # counted on a copy of the top space, which the limit's carrier is,
    # so that nothing is listed on the carrier itself
    opens = len(FiniteSpace(vs.system.spaces[-1].labels,
                            vs.system.spaces[-1].up).open_masks())
    lv = ep_limit_valuation(vs, max_opens=opens)
    assert "_open_masks" not in lv.limit.space.__dict__
    with pytest.raises(SizeLimit) as e:
        ep_limit_valuation(vs, max_opens=opens - 1)
    assert str(e.value) == str(SizeLimit("open lattice", opens - 1))


def test_ep_limit_refuses_cap_zero_on_an_empty_limit():
    empty = FiniteSpace((), ())
    ch = PrefixChain((empty,) * 3, (MonotoneMap(empty, empty, ()),) * 2)
    vs = ValuedSystem(ch, tuple(zero_valuation(sp) for sp in ch.spaces))
    with pytest.raises(SizeLimit):
        ep_limit_valuation(vs, max_opens=0)
    lv = ep_limit_valuation(vs, max_opens=1)
    assert lv.limit.space.n == 0
    assert "_open_masks" not in lv.limit.space.__dict__


def test_pointed_products_list_no_lattice():
    sier = FiniteSpace(("bot", "top"), (0b11, 0b10))
    half = Valuation(sier, (ExtRat(1, 2), ExtRat(1, 2)))
    marginals = marginals_from_joint(
        [sier, sier], independent_joint([sier, sier], [half, half]))
    lv = pointed_product_valuation([sier, sier], marginals)
    assert "_open_masks" not in lv.limit.space.__dict__
    # the product of two Sierpinski spaces has 6 opens
    with pytest.raises(SizeLimit):
        pointed_product_valuation([sier, sier], marginals, max_opens=5)
