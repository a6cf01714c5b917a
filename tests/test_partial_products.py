"""The partial products behind dk_product, marginals_from_joint and
subset_product_system, and what criterion 4 builds of them.

Every drop between two subsets is checked against the label lookup of
brute_drop_graph, the subsets against the sort they replace, and the
gate's product criterion against a count of the products it builds.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import constructions, order, product_space, suites
from valim.constructions import _PartialProducts, _subsets
from valim.generators import rand_poset
from valim.suites import run_suite

from _oracles import brute_drop_graph

seeds = st.integers(min_value=0, max_value=10_000)


@pytest.mark.parametrize("k", range(6))
def test_subsets_are_in_size_then_positions_order(k):
    assert _subsets(k) == tuple(sorted(
        (tuple(p for p in range(k) if (bits >> p) & 1)
         for bits in range(1 << k)), key=lambda s: (len(s), s)))
    assert _subsets(k) is _subsets(k)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=4), seeds)
@settings(max_examples=60, deadline=None)
def test_every_drop_is_the_label_lookup(sizes, seed):
    # one-point factors and the drop onto the empty subset included
    rng = random.Random(seed)
    factors = tuple(rand_poset(rng, n, edge_prob=rng.uniform(0.2, 0.8),
                               prefix=f"f{p}_")
                    for p, n in enumerate(sizes))
    parts = _PartialProducts(factors)
    assert parts.subsets[0] == ()
    assert parts.spaces[-1] == product_space(factors)[0]
    for b, t in enumerate(parts.subsets):
        for a, s in enumerate(parts.subsets):
            if set(s) <= set(t):
                f = parts.drop(b, a)
                assert (f.source, f.target) == (parts.spaces[b],
                                                parts.spaces[a])
                assert f.graph == brute_drop_graph(factors, t, s)


def valim_modules():
    return [m for name, m in sys.modules.items()
            if name == "valim" or name.startswith("valim.")]


def test_criterion_4_builds_one_product_table_per_case(monkeypatch):
    # the suite draws each joint on one _PartialProducts and reads its
    # marginals there; dk_product builds the only other one
    reals = {"product_space": order.product_space,
             "marginals_from_joint": constructions.marginals_from_joint,
             "dk_product": constructions.dk_product}
    calls = dict.fromkeys(reals, 0)
    for name, real in reals.items():
        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        for module in valim_modules():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    built = []

    class Counting(constructions._PartialProducts):
        def __init__(self, spaces, *args):
            built.append(len(spaces))
            super().__init__(spaces, *args)
    for module in valim_modules():
        if getattr(module, "_PartialProducts", None) is _PartialProducts:
            monkeypatch.setattr(module, "_PartialProducts", Counting)
    r = run_suite(4)
    assert r.passed, r.line()
    assert r.detail == "100 products (92 with full open enumeration)"
    assert calls == {"product_space": 0, "marginals_from_joint": 0,
                     "dk_product": 100}
    # per case, the suite's table and then dk_product's, of k factors
    assert len(built) == 200
    assert built[0::2] == built[1::2]
    assert set(built) == {2, 3}
    assert suites._PartialProducts is Counting
