"""dk_product decides on the plain partial products and runs the lifted
route only where that cannot accept.  Its docstring proves that the
lifted route accepts exactly the plain product; here a reference that
runs neither checks it.  On every kind of family, lawful or not, an
accepted product matches the componentwise order (brute_product_up), the
coordinate drops (brute_drop_graph) and the full marginal's weights; its
lifted and restriction match pointed_product_valuation on the lifted
factors followed by support_check; and a refusal has the reference's
type, text and vars.  lifted and restriction are built on first read,
once.
"""

import json
import pickle
import random
from dataclasses import FrozenInstanceError
from itertools import combinations, product
from math import prod
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    FiniteSpace,
    Incompatible,
    PosetSystem,
    SizeLimit,
    ValimError,
    Valuation,
    dk_product,
    lift,
    marginals_from_joint,
    pointed_product_valuation,
    product_space,
    support_check,
)
from valim import _kernels, cli, constructions
from valim.cli import main
from valim.documents import dumps
from valim.extreal import INF, ONE, ZERO
from valim.generators import rand_poset, rand_valuation

from _oracles import brute_drop_graph, brute_product_up

CHAIN2 = FiniteSpace(("lo", "hi"), (0b11, 0b10))

CASES = ("compatible", "broken", "masked", "missing", "wrong_space",
         "points", "opens")


def factors_for(rng, case):
    count = rng.randint(1, 2) if case == "opens" else rng.randint(1, 3)
    factors = [rand_poset(rng, rng.randint(1, 3),
                          edge_prob=rng.uniform(0.2, 0.9), prefix=f"f{p}_")
               for p in range(count)]
    if case == "masked":
        # a point strictly below another, for the infinite weight
        factors[0] = CHAIN2
    return factors


def masked_family(rng, factors):
    """A family whose finite weight at one point an infinite weight above
    it masks, changed by one there: no open of any marginal changes."""
    prod_space, _ = product_space(factors)
    joint = list(rand_valuation(rng, prod_space).weights)
    up = prod_space.up
    below = [t for t in range(prod_space.n) if up[t] != 1 << t]
    t = rng.choice(below)
    u = rng.choice([v for v in range(prod_space.n) if v != t and up[t] >> v & 1])
    joint[u] = INF
    family = marginals_from_joint(factors, Valuation(prod_space, tuple(joint)))
    parts = constructions._PartialProducts(tuple(factors))
    top = len(parts.subsets) - 1
    s = rng.choice(parts.subsets[1:])
    graph = parts.drop(top, parts.subsets.index(s)).graph
    if graph[t] == graph[u]:
        s, graph = parts.subsets[top], range(prod_space.n)
    weights = list(family[s].weights)
    weights[graph[t]] += ONE
    family[s] = Valuation(family[s].space, tuple(weights))
    return family


def case_arguments(seed, case):
    """(factors, family, max_points, max_opens, validate) of one case."""
    rng = random.Random(seed)
    factors = factors_for(rng, case)
    if case == "masked":
        family = masked_family(rng, factors)
    else:
        joint = rand_valuation(rng, product_space(factors)[0],
                               inf_prob=0.15 if case == "compatible" else 0)
        family = marginals_from_joint(factors, joint)
    nonempty = [s for s in family if s]
    max_points, max_opens, validate = 1 << 12, 1 << 12, rng.random() < 0.5
    if case == "broken":
        s = rng.choice(nonempty)
        family[s] = rand_valuation(rng, family[s].space, inf_prob=0.1)
    elif case == "missing":
        del family[rng.choice(nonempty)]
    elif case == "wrong_space":
        s = rng.choice(nonempty)
        family[s] = family[rng.choice([t for t in family if t != s])]
    elif case == "points":
        # the lifted top product at its size, or one point short of it
        max_points = prod(f.n + 1 for f in factors) - rng.randint(0, 1)
    elif case == "opens":
        big, _ = product_space([lift(f) for f in factors])
        size = len(_kernels.enumerate_upsets(big.up, big.n, 1 << 20))
        max_opens, validate = size - rng.randint(0, 1), True
    return factors, family, max_points, max_opens, validate


def outcome(build, args):
    """The product's observable parts, or the refusal's type and vars."""
    try:
        dk = build(*args)
    except Exception as e:  # noqa: BLE001 - the refusal is the outcome
        return type(e), str(e), vars(e)
    return (dk.space, dk.valuation,
            {s: (f.source, f.target, f.graph)
             for s, f in dk.projections.items()},
            dk.lifted.valuation, dk.restriction)


def by_the_lifted_route(factors, family, max_points, max_opens, validate):
    """outcome of dk_product as the paper builds it, with neither
    dk_product nor its partial products: the lifted top product's size
    first, then the family against products ordered by brute_product_up,
    then each marginal padded with zeros onto the lifted partial product
    and extended by pointed_product_valuation (its compatibility check
    and open count, which max_opens=None skips when validate is off).
    An accepted product is the plain one: the full marginal's weights,
    the coordinate drops of brute_drop_graph, and the lifted joint
    restricted by support_check to the tuples that avoid every bottom."""
    subsets = [s for r in range(len(factors) + 1)
               for s in combinations(range(len(factors)), r)]
    try:
        if prod(f.n + 1 for f in factors) > max_points:
            raise SizeLimit("product points", max_points)
        plain = {s: FiniteSpace(
            tuple(product(*(factors[p].labels for p in s))),
            tuple(brute_product_up([factors[p] for p in s])))
            for s in subsets}
        for s in subsets:
            if s not in family:
                raise ValimError(f"marginal missing for subset {s!r}")
            if family[s].space != plain[s]:
                raise ValimError(
                    f"marginal at {s!r} does not live on that partial "
                    f"product")
        lifted = [lift(f) for f in factors]
        padded = {}
        for s in subsets:
            space, _ = product_space([lifted[p] for p in s])
            weights = [ZERO] * space.n
            for lab, w in family[s].labels_weights():
                weights[space.index[lab]] = w
            padded[s] = Valuation(space, tuple(weights))
        joint = pointed_product_valuation(lifted, padded, max_points,
                                          max_opens if validate else None)
    except Exception as e:  # noqa: BLE001 - the refusal is the outcome
        return type(e), str(e), vars(e)
    # a thread's last component is its tuple at the full subset
    bottoms = [f.bottom() for f in lifted]
    carrier = joint.valuation.space
    clean = carrier.mask_of([lab for lab in carrier.labels
                             if all(map(ne, lab[-1], bottoms))])
    full = subsets[-1]
    space = plain[full]
    return (space, Valuation(space, family[full].weights),
            {s: (space, plain[s], brute_drop_graph(factors, full, s))
             for s in subsets},
            joint.valuation, support_check(joint.valuation, clean))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(CASES))
@settings(max_examples=250, deadline=None)
def test_dk_product_matches_the_lifted_route(seed, case):
    args = case_arguments(seed, case)
    assert outcome(dk_product, args) == by_the_lifted_route(*args)


def test_every_case_kind_reaches_its_outcome():
    # the differential is only as good as its cases: each kind must show
    # up as the outcome it is named for on some seed
    seen = {case: set() for case in CASES}
    for seed in range(40):
        for case in CASES:
            got = outcome(dk_product, case_arguments(seed, case))
            seen[case].add(got[0].__name__ if isinstance(got[0], type)
                           else "accepted")
    # validate may refuse a lifted lattice past max_opens
    for case in ("compatible", "masked"):
        assert "accepted" in seen[case] <= {"accepted", "SizeLimit"}
    assert "Incompatible" in seen["broken"]
    assert seen["missing"] == seen["wrong_space"] == {"ValimError"}
    assert seen["points"] == seen["opens"] == {"accepted", "SizeLimit"}


def counting_systems(monkeypatch):
    built = []
    real = PosetSystem.__post_init__

    def counting(self):
        built.append(self)
        real(self)
    monkeypatch.setattr(PosetSystem, "__post_init__", counting)
    return built


def test_lifted_route_is_built_on_first_read_only(monkeypatch):
    factors, family, *_ = case_arguments(7, "compatible")
    built = counting_systems(monkeypatch)
    dk = dk_product(factors, family)
    again = dk_product(factors, family)
    # equality, repr and pickling read neither lifted nor restriction
    assert dk == again
    assert "lifted" not in repr(dk) and "_route" not in repr(dk)
    blob = pickle.dumps(dk)
    assert built == []
    lifted = dk.lifted
    assert dk.lifted is lifted
    dk.restriction
    assert len(built) == 1
    with pytest.raises(FrozenInstanceError):
        dk.lifted = None
    # a pickle taken before the build builds its own, equal one
    copy = pickle.loads(blob)
    assert copy == dk
    assert copy.lifted.valuation == lifted.valuation
    assert copy.restriction == dk.restriction
    assert len(built) == 2
    assert pickle.loads(pickle.dumps(dk)).lifted.valuation == lifted.valuation


def test_refusals_build_the_plain_products_once(monkeypatch):
    rng = random.Random(3)
    factors = factors_for(rng, "broken")
    family = marginals_from_joint(
        factors, rand_valuation(rng, product_space(factors)[0]))
    # one more unit of mass on a partial product than the family's total
    s = next(s for s in family if s)
    weights = family[s].weights
    family[s] = Valuation(family[s].space, (weights[0] + ONE,) + weights[1:])
    calls = counting_partial_products(monkeypatch)
    with pytest.raises(Incompatible):
        dk_product(factors, family)
    # once for the plain products, once inside the lifted subset system
    assert calls == [len(factors)] * 2


def test_cli_product_refusals_build_the_plain_products_once(
        tmp_path, capsys, monkeypatch):
    # two 2-point chains whose joint puts all mass where no marginal does
    marginals = [
        {"positions": [0], "weights": ["1/2", "1/2"]},
        {"positions": [1], "weights": ["1/2", "1/2"]},
        {"positions": [0, 1], "weights": ["1", "0", "0", "0"]},
    ]
    factor = {k: v for k, v in json.loads(dumps(CHAIN2)).items()
              if k not in ("schema", "kind")}
    body = {"schema": 1, "kind": "query", "operation": "product",
            "arguments": {"factors": [factor] * 2,
                          "marginals": marginals}}
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    calls = counting_partial_products(monkeypatch)
    assert main(["product", str(path)]) == 1
    assert "law violation" in capsys.readouterr().err
    # the command's plain products are the ones dk_product decides on
    assert calls == [2, 2]


def counting_partial_products(monkeypatch):
    """The factor counts of every _PartialProducts built from now on."""
    calls = []

    class Counting(constructions._PartialProducts):
        def __init__(self, spaces, *args):
            calls.append(len(spaces))
            super().__init__(spaces, *args)
    for module in (constructions, cli):
        monkeypatch.setattr(module, "_PartialProducts", Counting)
    return calls
