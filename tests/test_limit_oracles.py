"""The limit constructions against their brute-force oracles.

ep_limit_valuation checks no limit law at run time: its docstring proves
that compatibility and the ep laws imply it.  The oracle keeps the law
as a per-open ExtRat scan, which accepts every lawful family, and every
skewed family it refuses, ep_limit_valuation refuses as Incompatible.
uniform_tightness_check decides each open at its preimage and finds
its witnesses, when read, with a cover dynamic program; one oracle scans
every limit up-set, another keeps the walk that decided before, and
lawful and broken families must give the same results, refusals and
witnesses.  The subset systems of pointed factors skip check_ep_system
at run time, so their ep laws are proven here instead.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    CompactFamily,
    ExtRat,
    FiniteSpace,
    Incompatible,
    LimitLawViolation,
    MonotoneMap,
    NotUniformlyTight,
    PrefixChain,
    UpSet,
    Valuation,
    ValuedSystem,
    check_ep_system,
    dk_product,
    embedding_from_projection,
    ep_limit_valuation,
    first_differing_open,
    lift,
    loccomp_certificate,
    marginal_family_from_joint,
    marginals_from_joint,
    materialize_limit,
    pointed_product_valuation,
    product_space,
    prohorov_limit,
    steenrod_nonempty,
    subset_product_system,
    uniform_tightness_check,
)
from valim import constructions
from valim.extreal import INF, ONE, ZERO
from valim.generators import (
    rand_ep_prefix_chain,
    rand_monotone_map,
    rand_poset,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
)
from valim.projective import _materialize

from _oracles import (
    brute_ep_approximants,
    brute_uniform_tightness,
    independent_joint,
    push_weights,
    walk_uniform_tightness,
)

seeds = st.integers(min_value=0, max_value=10_000)

SIER = FiniteSpace(("bot", "top"), (0b11, 0b10))
ANTI = FiniteSpace(("x", "y"), (0b01, 0b10))

SKEWS = (ZERO, ExtRat(1, 3), ExtRat(2), INF)


def pointed_factors(rng, count):
    """Factors of at most 4 points with a least point: drawn pointed, or
    lifted below a fresh bottom as dk_product does."""
    out = []
    for p in range(count):
        sp = rand_poset(rng, rng.randint(1, 4), edge_prob=0.7,
                        prefix=f"f{p}_")
        if sp.bottom() is None or rng.random() < 0.5:
            sp = lift(rand_poset(rng, rng.randint(1, 3), prefix=f"f{p}_"))
        out.append(sp)
    return out


def lawful_ep_family(rng):
    """An ep chain, or the subset system of pointed factors, with the
    marginals of one joint (infinite weights included)."""
    if rng.random() < 0.5:
        sys = rand_ep_prefix_chain(rng, rng.randint(1, 4), 5)
    else:
        sys, _ = subset_product_system(pointed_factors(rng, rng.randint(1, 2)))
    top = sys.space(sys.top_index())
    return marginal_family_from_joint(
        sys, rand_valuation(rng, top, inf_prob=0.15))


def skewed(vs, i, x, weight) -> ValuedSystem:
    vals = list(vs.valuations)
    ws = list(vals[i].weights)
    ws[x] = weight
    vals[i] = Valuation(vals[i].space, tuple(ws))
    return ValuedSystem(vs.system, tuple(vals))


def outcome(fn, *args):
    """('ok', result) or (law, witness) of a LimitLawViolation."""
    try:
        return ("ok", fn(*args))
    except LimitLawViolation as e:
        return (e.law, e.witness)


# --- ep route: integer columns against the per-open scan ----------------


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_ep_limit_matches_the_oracle_on_lawful_families(seed):
    vs = lawful_ep_family(random.Random(seed))
    lv = ep_limit_valuation(vs)
    top = vs.system.top_index()
    assert lv.valuation.weights == vs.val(top).weights
    brute_ep_approximants(vs, lv.limit, lv.valuation)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_ep_limit_refuses_skewed_families_as_the_oracle_does(seed):
    # the theorem in ep_limit_valuation's docstring: a family skewed at
    # one point that breaks the limit law has broken compatibility first
    rng = random.Random(seed)
    vs = lawful_ep_family(rng)
    sys = vs.system
    i = rng.choice(list(sys.indices()))
    vs = skewed(vs, i, rng.randrange(sys.space(i).n), rng.choice(SKEWS))
    limit = materialize_limit(sys)
    nu = Valuation(limit.space, vs.val(sys.top_index()).weights)
    want = outcome(brute_ep_approximants, vs, limit, nu)
    try:
        got = ep_limit_valuation(vs).valuation
    except Incompatible:
        return
    assert want == ("ok", None)
    assert got == nu


def sier_chain():
    ch = PrefixChain((SIER, SIER), (MonotoneMap(SIER, SIER, (0, 1)),))
    return marginal_family_from_joint(
        ch, Valuation(SIER, (ExtRat(1, 3), ExtRat(2, 3))))


@pytest.mark.parametrize("case", ["increasing", "stabilization"])
def test_ep_limit_names_each_law_and_witness(case):
    # level 0 outweighing level 1 on the open {top} broke the increasing
    # law while compatibility went unchecked; stabilization broke only
    # when nu was skewed apart from the family, and nu follows the top
    # level, so that level puts infinity on top here.  Compatibility
    # refuses both and names the pair and the open
    vs = sier_chain()
    if case == "increasing":
        vs = skewed(vs, 0, 1, ExtRat(2))
    else:
        vs = skewed(vs, 1, 1, INF)
    with pytest.raises(Incompatible) as e:
        ep_limit_valuation(vs)
    assert (e.value.pair, e.value.witness.members) == ((0, 1), ("top",))
    assert str(e.value) == "marginals at 0 and 1 disagree on ('top',)"


# --- uniform tightness: preimages against the scan and the walk ------


def report_tuple(rep):
    return list(rep.mu.values), rep.verdict, rep.witnesses, rep.failure


def full_supplier(sys):
    family = CompactFamily(sys, tuple(
        UpSet(sys.space(i), sys.space(i).full_mask) for i in sys.indices()
    ))
    return lambda i, u, r: family


@given(seeds, st.booleans())
@settings(max_examples=40, deadline=None)
def test_uniform_tightness_matches_the_oracle_on_lawful_families(seed, poset):
    rng = random.Random(seed)
    if poset:
        vs = rand_valued_poset_system(rng, max_top=5, inf_prob=0.15)
    else:
        ch = rand_prefix_chain(rng, rng.randint(1, 4), 5)
        vs = rand_valued_chain(rng, ch, inf_prob=0.15)
    rep = uniform_tightness_check(vs)
    assert report_tuple(rep) == brute_uniform_tightness(vs, rep.limit)
    assert rep.verdict


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_uniform_tightness_matches_the_oracle_on_broken_families(seed,
                                                                 supply):
    # a marginal per level drawn on its own, over bonds that need not be
    # surjective: families that are neither compatible nor tight
    rng = random.Random(seed)
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    spaces = [rand_poset(rng, n, prefix=f"l{k}_") for k, n in enumerate(sizes)]
    steps = [rand_monotone_map(rng, spaces[k + 1], spaces[k])
             for k in range(len(spaces) - 1)]
    ch = PrefixChain(tuple(spaces), tuple(steps))
    vs = ValuedSystem(ch, tuple(
        rand_valuation(rng, sp, inf_prob=0.1) for sp in spaces))
    # the oracle with a supplier, the library without: a supplied
    # family never raises mu's supremum
    supplier = full_supplier(ch) if supply else None
    rep = uniform_tightness_check(vs)
    want = brute_uniform_tightness(vs, rep.limit, supplier)
    assert report_tuple(rep) == want
    if rep.verdict:
        return
    i, u, r = want[3]
    with pytest.raises(NotUniformlyTight) as e:
        prohorov_limit(vs, verify_compatibility=False)
    assert (e.value.index, e.value.u_members, e.value.rational) == (
        i, ch.space(i).points_of(u), r)


def tight_family(seed, shape, kind):
    """A prefix chain or a poset system with pushed marginals; lawful,
    with a marginal that gained weight, or with that gain placed below
    an infinite weight where one exists, so that it may be masked."""
    rng = random.Random(seed)
    inf_prob = 0.4 if kind == "masked" else 0.15
    if shape == "prefix":
        ch = rand_prefix_chain(rng, rng.randint(1, 4), 5)
        vs = rand_valued_chain(rng, ch, inf_prob=inf_prob)
    else:
        vs = rand_valued_poset_system(rng, max_top=5, inf_prob=inf_prob)
    if kind != "lawful":
        k = rng.choice(list(vs.system.indices()))
        sp, ws = vs.system.space(k), list(vs.val(k).weights)
        masked = [x for x in range(sp.n)
                  if any(ws[y] == INF for y in range(sp.n)
                         if y != x and (sp.up[x] >> y) & 1)]
        x = rng.choice(masked) if kind == "masked" and masked \
            else rng.randrange(sp.n)
        vs = skewed(vs, k, x, ws[x] + ExtRat(1, rng.randint(1, 3)))
    return rng, vs


@given(seeds, st.sampled_from(("prefix", "poset")),
       st.sampled_from(("lawful", "gained weight", "masked")),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_uniform_tightness_matches_the_cover_walk(seed, shape, kind,
                                                   supply):
    # the decision at each open's preimage gives what the walk over the
    # opens at each index gave, with or without a supplier there
    rng, vs = tight_family(seed, shape, kind)
    supplier = None
    if supply:
        i = rng.choice(list(vs.system.indices()))
        xi = vs.system.space(i)
        u = UpSet(xi, rng.choice(xi.open_masks()))
        cert = loccomp_certificate(vs, i, u, ZERO)

        def supplier(i, u, r):
            return cert.family
    rep = uniform_tightness_check(vs)
    want = walk_uniform_tightness(vs, rep.limit, supplier)
    assert report_tuple(rep) == want
    assert list(rep.witnesses.items()) == list(want[2].items())
    assert rep.verdict == (rep.failure is None)


def test_tightness_witnesses_are_found_when_read(monkeypatch):
    calls = []
    real = constructions._first_best_below

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(constructions, "_first_best_below", counted)
    rng = random.Random(4)
    vs = rand_valued_chain(rng, rand_prefix_chain(rng, 3, 5))
    rep = uniform_tightness_check(vs)
    lv = prohorov_limit(vs, rep)
    before = pickle.dumps(rep), pickle.dumps(lv)
    assert calls == []
    want = walk_uniform_tightness(vs, rep.limit)[2]
    assert list(rep.witnesses.items()) == list(want.items())
    assert len(calls) == len(vs.system.spaces)
    assert lv.tight_witnesses is rep.witnesses
    for blob, obj in zip(before, (rep, lv)):
        assert pickle.loads(blob) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    back = pickle.loads(before[0])
    assert back.witnesses == want and want == back.witnesses
    assert len(back.witnesses) == len(want)
    with pytest.raises(TypeError):
        rep.witnesses[next(iter(want))] = None


def test_a_failing_report_lists_witnesses_up_to_the_failure():
    # this family fails at an open of index 1, past all of index 0
    _, vs = tight_family(0, "prefix", "gained weight")
    rep = uniform_tightness_check(vs)
    want = walk_uniform_tightness(vs, rep.limit)
    assert not rep.verdict and rep.failure == want[3]
    assert rep.failure[0] == 1
    assert list(rep.witnesses) == list(want[2])
    assert list(rep.witnesses)[-1] == rep.failure[:2]


# --- the trusted subset-system path -------------------------------------


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_subset_systems_of_pointed_factors_are_ep(seed):
    # pointed_product_valuation and dk_product skip check_ep_system on
    # these systems: the laws hold, and every embedding pads with bottoms
    rng = random.Random(seed)
    factors = pointed_factors(rng, rng.randint(1, 3))
    sys, subsets = subset_product_system(factors)
    check_ep_system(sys)
    bottoms = [f.bottom() for f in factors]
    for j, t in enumerate(subsets):
        big = sys.space(j)
        for i, s in enumerate(subsets):
            if not sys.index_leq(i, j):
                continue
            pad = tuple(
                big.index[tuple(lab[s.index(p)] if p in s else bottoms[p]
                                for p in t)]
                for lab in sys.space(i).labels
            )
            e = embedding_from_projection(sys.bond(i, j)).embedding
            assert e.graph == pad


def first_incompatible(sys, vals):
    """The first index pair, in scan order, whose pushforward differs,
    with the first differing candidate open."""
    for i in sys.indices():
        for j in sys.indices():
            if sys.index_leq(i, j):
                w = first_differing_open(
                    vals[i], push_weights(sys.bond(i, j), vals[j]))
                if w is not None:
                    return (i, j), w
    return None


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_incompatible_products_name_the_first_pair(seed):
    rng = random.Random(seed)
    factors = [rand_poset(rng, rng.randint(1, 3), prefix=f"f{p}_")
               for p in range(rng.randint(1, 2))]
    prod, _ = product_space(factors)
    family = marginals_from_joint(factors, rand_valuation(rng, prod))
    broken = rng.choice([s for s in family if s])
    family[broken] = rand_valuation(rng, family[broken].space)
    # dk_product runs the pointed construction on the lifted factors
    lifted = [lift(f) for f in factors]
    sys, subsets = subset_product_system(lifted)
    vals = []
    for k, s in enumerate(subsets):
        space = sys.space(k)
        ws = [ZERO] * space.n
        for lab, w in family[s].labels_weights():
            ws[space.index[lab]] = w
        vals.append(Valuation(space, tuple(ws)))
    want = first_incompatible(sys, vals)
    if want is None:
        return
    with pytest.raises(Incompatible) as e:
        dk_product(factors, family, validate=False)
    assert (e.value.pair, e.value.witness) == want
    with pytest.raises(Incompatible) as e:
        pointed_product_valuation(lifted, dict(zip(subsets, vals)))
    assert (e.value.pair, e.value.witness) == want


def test_incompatible_product_pair_and_witness_are_pinned():
    # a deterministic pair joint against uniform singles; pair and
    # witness as reported while the product also ran check_ep_system
    half = Valuation(ANTI, (ExtRat(1, 2), ExtRat(1, 2)))
    fam = marginals_from_joint(
        [ANTI, ANTI], independent_joint([ANTI, ANTI], [half, half]))
    fam[(0, 1)] = Valuation(fam[(0, 1)].space, (ONE, ZERO, ZERO, ZERO))
    with pytest.raises(Incompatible) as e:
        dk_product([ANTI, ANTI], fam)
    assert e.value.pair == (1, 3)
    assert e.value.witness.members == (("x",),)


# --- no memo travels with a pickled chain --------------------------------


def warm(vs):
    """Fill every per-object cache the calls below may fill: the spaces'
    orders and open lattices and the valuations' scaled weights."""
    for sp in vs.system.spaces:
        sp.open_masks(), sp.index, sp.down, sp.full_mask
    for nu in vs.valuations:
        nu._scaled


@pytest.mark.parametrize("seed", range(4))
def test_chain_calls_leave_the_pickled_inputs_unchanged(seed):
    rng = random.Random(seed)
    ch = rand_ep_prefix_chain(rng, 4, 5)
    vs = rand_valued_chain(rng, ch)
    warm(vs)
    chain_blob, vs_blob = pickle.dumps(ch), pickle.dumps(vs)
    ep_limit_valuation(vs)
    prohorov_limit(vs)
    steenrod_nonempty(ch)
    ch.bond(0, ch.last)
    assert pickle.dumps(ch) == chain_blob
    assert pickle.dumps(vs) == vs_blob
    limit = _materialize(ch, 1 << 12)
    for i in ch.indices():
        assert limit.projection(i).graph == ch.bond(i, ch.last).graph
