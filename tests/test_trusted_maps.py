"""The trust boundary for spaces and monotone maps.

Spaces and maps built by the public constructors, from_dict, check_space
or a document are validated; spaces and maps the library derives from
valid ones (products, lifts, subspaces, limit carriers, composites,
identities, product projections, subspace inclusions, subset-system
bonds, limit and product projections) are built without re-validation.
These tests check both halves: malformed input is still refused, every
derived space passes the public validation, and every derived map is
monotone by brute force over all pairs of points.
"""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valim import (
    FiniteSpace,
    MonotoneMap,
    SizeLimit,
    compose,
    dk_product,
    identity_map,
    lift,
    marginals_from_joint,
    materialize_limit,
    product_space,
    subset_product_system,
    subspace,
)
from valim import _kernels
from valim.constructions import _PartialProducts
from valim.documents import loads
from valim.generators import (
    rand_monotone_map,
    rand_poset,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_poset_system,
)
from valim.order import DEFAULT_MAX_OPENS, NotAPoset, NotMonotone

from _oracles import (
    brute_coordinate_graph,
    brute_is_monotone,
    brute_product_up,
    brute_subset_bonds,
)

seeds = st.integers(min_value=0, max_value=10_000)

CHAIN_AB = FiniteSpace(("a", "b"), (0b11, 0b10))


def assert_monotone(maps):
    assert maps
    for f in maps:
        assert brute_is_monotone(f), (f.source.labels, f.graph)
        # and the public constructor agrees with the trusted build
        assert MonotoneMap(f.source, f.target, f.graph) == f


def test_hand_built_non_monotone_map_is_refused():
    with pytest.raises(NotMonotone):
        MonotoneMap(CHAIN_AB, CHAIN_AB, (1, 0))
    with pytest.raises(NotMonotone):
        MonotoneMap.from_dict(CHAIN_AB, CHAIN_AB, {"a": "b", "b": "a"})
    body = {"schema": 1, "kind": "map",
            "src": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "dst": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "graph": {"a": "b", "b": "a"}}
    with pytest.raises(NotMonotone):
        loads(json.dumps(body))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_order_layer_derived_maps_are_monotone(seed):
    rng = random.Random(seed)
    a, b, c = (rand_poset(rng, rng.randint(1, 5),
                          edge_prob=rng.uniform(0.2, 0.8), prefix=p)
               for p in ("a", "b", "c"))
    f = rand_monotone_map(rng, a, b)
    g = rand_monotone_map(rng, b, c)
    _, projections = product_space([a, b, c][:rng.randint(1, 3)])
    _, inclusion = subspace(a, rng.getrandbits(a.n))
    assert_monotone([compose(g, f), identity_map(a), inclusion,
                     *projections])


@given(seeds)
@example(seed=3018)  # factors of 2, 3 and 3 points: a SizeLimit refusal
@settings(max_examples=15, deadline=None)
def test_construction_layer_derived_maps_are_monotone(seed):
    rng = random.Random(seed)
    vs = rand_valued_poset_system(rng, max_top=6)
    chain = rand_prefix_chain(rng, rng.randint(1, 4), 5)
    factors = [rand_poset(rng, rng.randint(1, 3),
                          edge_prob=rng.uniform(0.3, 0.8), prefix=f"f{p}_")
               for p in range(rng.randint(1, 3))]
    subsystem, _ = subset_product_system(factors)
    prod, _ = product_space(factors)
    joint = rand_valuation(rng, prod, max_den=4)
    marginals = marginals_from_joint(factors, joint)
    try:
        dk = dk_product(factors, marginals)
    except SizeLimit:
        # the documented refusal: the lifted limit has more opens than
        # the default cap; the product itself is still built unvalidated
        dk = dk_product(factors, marginals, validate=False)
        lifted = dk.lifted.limit.space
        assert _kernels.enumerate_upsets(lifted.up, lifted.n,
                                         DEFAULT_MAX_OPENS) is None
    assert_monotone([
        *materialize_limit(vs.system).projections,
        *materialize_limit(chain).projections,
        *subsystem.bonds.values(),
        *dk.projections.values(),
    ])


# --- derived spaces -----------------------------------------------------


def rand_factors(rng, count):
    """count random posets of 1 to 3 points, about half of them with a
    single point."""
    return [rand_poset(rng, 1 if rng.random() < 0.3 else rng.randint(1, 3),
                       edge_prob=rng.uniform(0.2, 0.8), prefix=f"f{p}_")
            for p in range(count)]


def assert_rebuilds(spaces):
    assert spaces
    for sp in spaces:
        # the public constructor validates every poset law
        assert FiniteSpace(sp.labels, sp.up) == sp


def test_hand_built_non_poset_is_refused():
    with pytest.raises(NotAPoset):
        FiniteSpace(("a", "a"), (0b11, 0b11))
    with pytest.raises(NotAPoset):
        FiniteSpace(("a", "b"), (0b11, 0b11))
    with pytest.raises(NotAPoset):
        FiniteSpace(("a", "b"), (0b01, 0b00))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_derived_spaces_pass_the_public_validation(seed):
    rng = random.Random(seed)
    factors = rand_factors(rng, rng.randint(1, 4))
    prod, _ = product_space(factors)
    assert list(prod.up) == brute_product_up(factors)
    sub, _ = subspace(prod, rng.getrandbits(prod.n))
    vs = rand_valued_poset_system(rng, max_top=6)
    few = factors[:rng.randint(1, 3)]
    joint = rand_valuation(rng, product_space(few)[0], max_den=4)
    dk = dk_product(few, marginals_from_joint(few, joint), validate=False)
    assert_rebuilds([
        prod, sub, lift(prod), *map(lift, factors),
        *subset_product_system(factors[:3])[0].spaces,
        materialize_limit(vs.system).space,
        dk.space, dk.lifted.limit.space, dk.restriction.space,
    ])


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_subset_bonds_match_the_label_lookup(seed):
    rng = random.Random(seed)
    factors = rand_factors(rng, rng.randint(0, 3))
    sys, subsets = subset_product_system(factors)
    assert () in subsets
    bonds = brute_subset_bonds(sys, subsets)
    assert {pair: f.graph for pair, f in sys.bonds.items()} == bonds
    for (i, j), f in sys.bonds.items():
        assert (f.source, f.target) == (sys.space(j), sys.space(i))


def assert_partial_products(factors):
    """Each subset's partial product, built from its tail's by one
    factor step, is product_space's, and its coordinates and drops are
    the label lookups; refused past max_points only."""
    parts = _PartialProducts(factors)
    assert parts.sizes == tuple(f.n for f in factors)
    for b, t in enumerate(parts.subsets):
        chosen = [factors[p] for p in t]
        space, projections = product_space(chosen)
        assert parts.spaces[b].labels == space.labels == tuple(
            itertools.product(*(f.labels for f in chosen)))
        assert parts.spaces[b].up == space.up
        assert list(space.up) == brute_product_up(chosen)
        assert parts.digits[b] == tuple(f.graph for f in projections)
        for c, p in enumerate(t):
            single = parts.spaces[parts.subsets.index((p,))]
            assert parts.digits[b][c] == brute_coordinate_graph(
                space, single, [c])
        for a, s in enumerate(parts.subsets):
            if set(s) <= set(t):
                assert parts.drop(b, a).graph == brute_coordinate_graph(
                    space, parts.spaces[a], [t.index(p) for p in s])
    # the largest product at exactly max_points, then one point over
    largest = max(sp.n for sp in parts.spaces)
    assert _PartialProducts(factors, largest).spaces == parts.spaces
    with pytest.raises(SizeLimit):
        _PartialProducts(factors, largest - 1)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_partial_products_match_product_space(seed):
    rng = random.Random(seed)
    assert_partial_products(tuple(
        rand_poset(rng, rng.choice((0, 1, 1, 2, 3, 4)),
                   edge_prob=rng.uniform(0.2, 0.8), prefix=f"f{p}_")
        for p in range(rng.randint(1, 3))))


@pytest.mark.parametrize("sizes", [(0,), (1,), (3,), (0, 2), (2, 0, 3),
                                   (1, 1, 1), (1, 4, 1)])
def test_partial_products_of_empty_and_one_point_factors(sizes):
    rng = random.Random(sum(sizes))
    assert_partial_products(tuple(
        rand_poset(rng, k, 0.5, prefix=f"f{p}_")
        for p, k in enumerate(sizes)))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_dk_projections_match_the_label_lookup(seed):
    rng = random.Random(seed)
    factors = rand_factors(rng, rng.randint(1, 3))
    prod, _ = product_space(factors)
    joint = rand_valuation(rng, prod, max_den=4)
    dk = dk_product(factors, marginals_from_joint(factors, joint),
                    validate=False)
    for s, f in dk.projections.items():
        assert f.graph == brute_coordinate_graph(dk.space, f.target, s)
