"""Valuations held in the scaled-integer currency.

Valuations the library derives (pushforwards, inverted tables, limits,
products, restrictions) hold their weights as integers over one
denominator and decode ExtRat weights only when `weights` is first
read.  Each must equal its twin built from ExtRat weights in weights,
equality, hash, repr and a pickle round trip, and pickle in the public
form, without its scaled cache.  Two Hypothesis differentials hold
check_space's closed-relation path and the one-pass first_differing_mask
to the functions they replace, kept in tests/_oracles.py.
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    ExtRat,
    FiniteSpace,
    NotAPoset,
    UpSet,
    Valuation,
    check_space,
    check_valuation,
    decompose_simple,
    dk_product,
    ep_limit_valuation,
    first_differing_mask,
    first_differing_open,
    identity_map,
    image_valuation,
    marginal_family_from_joint,
    marginals_from_joint,
    product_space,
    prohorov_limit,
    restrict_to_open,
    support_check,
)
from valim.constructions import _PartialProducts
from valim.extreal import INF, ONE, ZERO
from valim.generators import (
    rand_ep_prefix_chain,
    rand_monotone_map,
    rand_poset,
    rand_valuation,
)

from _oracles import (
    push_weights,
    two_column_first_differing_mask,
    validated_check_space,
)

BIG = ExtRat(2 ** 1100)
CHAIN2 = FiniteSpace(("lo", "hi"), (0b11, 0b10))
ANTI2 = FiniteSpace(("a", "b"), (0b01, 0b10))


def rand_weights(rng, n, inf_prob=0.15):
    """Zeros, infinities, a weight of 2**1100 and small fractions."""
    pool = [ZERO, BIG, ExtRat(1, 3), ExtRat(1, 2), ExtRat(2)]
    return tuple(INF if rng.random() < inf_prob
                 else rng.choice(pool) if rng.random() < 0.5
                 else ExtRat(Fraction(rng.randint(1, 40), rng.randint(1, 9)))
                 for _ in range(n))


def assert_twin(derived, weights):
    """derived, built by the library, against the valuation the given
    ExtRat weights build publicly on its space."""
    assert "weights" not in derived.__dict__
    twin = Valuation(derived.space, tuple(weights))
    # compared before and after the derived valuation decodes
    assert hash(derived) == hash(twin)
    assert derived == twin and twin == derived
    assert derived.weights == twin.weights
    assert all(type(w) is ExtRat for w in derived.weights)
    assert repr(derived) == repr(twin)
    blob = pickle.dumps(derived)
    assert b"_scaled" not in blob
    back = pickle.loads(blob)
    assert back == twin and hash(back) == hash(twin)
    assert repr(back) == repr(twin)


seeds = st.integers(min_value=0, max_value=10_000)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_pushforwards_and_restrictions_match_their_twins(seed):
    rng = random.Random(seed)
    src = rand_poset(rng, rng.randint(0, 6), edge_prob=rng.uniform(0.1, 0.7))
    dst = rand_poset(rng, rng.randint(1, 5), edge_prob=rng.uniform(0.1, 0.7))
    f = rand_monotone_map(rng, src, dst)
    nu = Valuation(src, rand_weights(rng, src.n))
    assert_twin(image_valuation(f, nu), push_weights(f, nu).weights)
    u = UpSet(src, src.up_close(rng.getrandbits(src.n)))
    restricted = restrict_to_open(nu, u)
    assert_twin(restricted, [w for i, w in enumerate(nu.weights)
                             if (u.mask >> i) & 1])
    # supported on the points of nonzero weight, so supported on any set
    # holding them
    keep = src.full_mask & ~sum(1 << i for i, w in enumerate(nu.weights)
                                if w == ZERO and rng.random() < 0.5)
    sub = support_check(nu, keep).valuation
    assert_twin(sub, [w for i, w in enumerate(nu.weights) if (keep >> i) & 1])


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_inverted_tables_match_their_twins(seed):
    rng = random.Random(seed)
    sp = rand_poset(rng, rng.randint(0, 7), edge_prob=rng.uniform(0.1, 0.7))
    # infinite weights only on minimal points, so that no point has one
    # strictly above it and nothing is shadowed
    weights = [w if sp.down[i] == 1 << i or w.is_finite else ONE
               for i, w in enumerate(rand_weights(rng, sp.n))]
    nu = Valuation(sp, tuple(weights))
    assert_twin(check_valuation(nu.tabulate()), weights)
    assert_twin(decompose_simple(nu.tabulate()), weights)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_marginals_and_products_match_their_twins(seed):
    rng = random.Random(seed)
    factors = [rand_poset(rng, rng.randint(1, 3), rng.uniform(0.2, 0.8),
                          f"f{p}_") for p in range(rng.randint(1, 3))]
    joint_space, _ = product_space(factors)
    joint = Valuation(joint_space, rand_weights(rng, joint_space.n, 0.1))
    family = marginals_from_joint(factors, joint)
    parts = _PartialProducts(tuple(factors))
    top = len(parts.subsets) - 1
    for a, s in enumerate(parts.subsets):
        assert_twin(family[s], push_weights(parts.drop(top, a), joint).weights)
    assert_twin(dk_product(factors, family, validate=False).valuation,
                joint.weights)


def test_the_lifted_product_matches_its_twin():
    # a finite weight under an infinite one, changed by one in the
    # marginal that drops the second coordinate: the pushes differ and
    # every open agrees, so the lifted route accepts
    space, _ = product_space([CHAIN2, ANTI2])
    joint = Valuation(space, (ExtRat(1, 3), ONE, INF, ExtRat(1, 2)))
    family = marginals_from_joint([CHAIN2, ANTI2], joint)
    lo = family[(0,)].weights
    family[(0,)] = Valuation(family[(0,)].space, (lo[0] + ONE, lo[1]))
    dk = dk_product([CHAIN2, ANTI2], family)
    assert "_lifted" in dk.__dict__
    assert_twin(dk.valuation, joint.weights)


@pytest.mark.parametrize("seed", range(6))
def test_limit_valuations_match_their_twins(seed):
    rng = random.Random(seed)
    ch = rand_ep_prefix_chain(rng, 3, 5)
    top = ch.spaces[-1]
    # with odd seeds, infinite weights on minimal points, where they shadow
    # nothing: the tight route then certifies its limit in full
    joint = Valuation(top, tuple(
        INF if seed % 2 and top.down[i] == 1 << i and rng.random() < 0.5
        else w for i, w in enumerate(rand_valuation(rng, top).weights)))
    vs = marginal_family_from_joint(ch, joint)
    for i, level in enumerate(vs.valuations):
        assert_twin(level, push_weights(ch.bond(i, ch.last), joint).weights)
    assert_twin(ep_limit_valuation(vs).valuation, joint.weights)
    assert_twin(prohorov_limit(vs).valuation, joint.weights)


def test_a_public_valuation_pickles_without_its_cache():
    nu = Valuation(CHAIN2, (ExtRat(1, 3), INF))
    blob = pickle.dumps(nu)
    nu._scaled
    assert pickle.dumps(nu) == blob
    assert b"_scaled" not in blob
    with pytest.raises(AttributeError):
        image_valuation(identity_map(CHAIN2), nu).nonesuch


# --- check_space against the pair-by-pair validation ---------------------


def outcome(build, labels, relation, **kw):
    try:
        return build(labels, relation, **kw).up
    except NotAPoset as err:
        return (err.axiom, err.witness)


@given(seeds, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_check_space_matches_the_validated_closure(seed, reflexive, close):
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    labels = [f"p{i}" for i in range(n)]
    rng.shuffle(labels)
    # forward edges, sometimes a backward one (a cycle), sometimes
    # self-loops only in part, and now and then an unknown label
    relation = [(labels[i], labels[j]) for i in range(n) for j in range(n)
                if i < j and rng.random() < 0.3
                or i > j and rng.random() < rng.choice((0, 0.03, 0.15))
                or i == j and rng.random() < 0.8]
    if n and rng.random() < 0.05:
        relation.append((labels[0], "ghost"))
    kw = {"reflexive_closure": reflexive, "transitive_closure": close}
    want = outcome(validated_check_space, labels, relation, **kw)
    assert outcome(check_space, labels, relation, **kw) == want


def test_check_space_names_the_first_antisymmetry_witness():
    # two cycles, a-d and b-c: the least point on a cycle is a, with its
    # least partner d, though the cycle b-c closes at an earlier point
    labels = ("a", "b", "c", "d")
    relation = [("a", "d"), ("d", "a"), ("c", "b"), ("b", "c")]
    for build in (check_space, validated_check_space):
        with pytest.raises(NotAPoset) as err:
            build(labels, relation, transitive_closure=True)
        assert (err.value.axiom, err.value.witness) == ("antisymmetry",
                                                        ("a", "d"))


# --- first_differing_mask against the two-column comparison -------------


def rand_pair(rng, n, inf_sides):
    """Two valuations on one random space, each side with infinite
    weights or not, the second sometimes equal to the first or one weight
    off it."""
    sp = rand_poset(rng, n, edge_prob=rng.uniform(0.05, 0.5))
    a = rand_weights(rng, n, 0.2 if "a" in inf_sides else 0)
    b = rand_weights(rng, n, 0.2 if "b" in inf_sides else 0)
    if n and rng.random() < 0.5:
        b = [ONE if w == INF and "b" not in inf_sides else w for w in a]
        k = rng.randrange(n)
        if rng.random() < 0.7 and b[k] != INF:
            b[k] = b[k] + ExtRat(1, rng.randint(1, 5))
    return Valuation(sp, a), Valuation(sp, tuple(b))


def mask_outcome(compare, nu_a, nu_b, masks):
    try:
        return compare(nu_a, nu_b, masks)
    except IndexError:
        return IndexError


@given(seeds, st.sampled_from(("", "a", "b", "ab")),
       st.sampled_from(("opens", "subsets", "wide")))
@settings(max_examples=300, deadline=None)
def test_first_differing_mask_matches_the_two_columns(seed, inf_sides, kind):
    rng = random.Random(seed)
    n = rng.randint(17, 20) if kind == "wide" else rng.randint(0, 8)
    nu_a, nu_b = rand_pair(rng, n, inf_sides)
    sp = nu_a.space
    if kind == "opens":
        masks = sp.open_masks()
    else:
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 40))]
    want = two_column_first_differing_mask(nu_a, nu_b, masks)
    assert first_differing_mask(nu_a, nu_b, masks) == want
    assert first_differing_mask(nu_b, nu_a, masks) == want
    if kind == "opens":
        w = first_differing_open(nu_a, nu_b)
        assert (w is None) == (want is None)


@given(seeds, st.sampled_from(("", "a", "b", "ab")), st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_mask_past_the_points_raises_index_error(seed, inf_sides, wide):
    rng = random.Random(seed)
    n = rng.randint(17, 20) if wide else rng.randint(0, 8)
    nu_a, nu_b = rand_pair(rng, n, inf_sides)
    masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
    masks.insert(rng.randint(0, len(masks)),
                 rng.getrandbits(n) | 1 << rng.randint(n, n + 12))
    old = mask_outcome(two_column_first_differing_mask, nu_a, nu_b, masks)
    assert mask_outcome(first_differing_mask, nu_a, nu_b, masks) is IndexError
    # the two columns looked a mask up only on a side with no infinite
    # point in it, so a mask holding one of each side's got through there
    inf_a, inf_b = (sum(1 << i for i, w in enumerate(nu.weights)
                        if w == INF) for nu in (nu_a, nu_b))
    if old is not IndexError:
        assert not wide and any(m >> n and m & inf_a and m & inf_b
                                for m in masks)
