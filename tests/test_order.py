import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    FiniteSpace,
    MonotoneMap,
    UpSet,
    check_space,
    closure,
    compose,
    enumerate_opens,
    identity_map,
    interior,
    lift,
    product_space,
    sobriety_witness,
    space_from_covers,
    subspace,
    upward_closure,
)
from valim import _kernels
from valim.errors import SizeLimit, ValimError
from valim.generators import rand_poset
from valim.order import NotAPoset, NotMonotone

from _oracles import all_upsets, brute_product_up

SIER = FiniteSpace(("bot", "top"), (0b11, 0b10))
DIAMOND = space_from_covers(
    ("bot", "a", "b", "top"), [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
)

seeds = st.integers(min_value=0, max_value=10_000)


def test_check_space_reflexive_transitive_closure():
    sp = check_space(("x", "y", "z"), [("x", "y"), ("y", "z")],
                     transitive_closure=True)
    assert sp.leq("x", "z")
    assert sp.leq("x", "x")


def test_check_space_rejects_cycles():
    with pytest.raises(NotAPoset):
        check_space(("x", "y"), [("x", "y"), ("y", "x")])


def test_check_space_rejects_nontransitive_relation():
    # without closure the input must already be transitive
    with pytest.raises(NotAPoset):
        check_space(("x", "y", "z"), [("x", "y"), ("y", "z")])


def test_covers_generate_the_order():
    assert DIAMOND.leq("bot", "top")
    assert not DIAMOND.leq("a", "b")
    assert DIAMOND.up[DIAMOND.index["bot"]] == DIAMOND.full_mask


@given(seeds, st.integers(min_value=1, max_value=6))
def test_enumerate_opens_matches_powerset_filter(seed, n):
    sp = rand_poset(random.Random(seed), n)
    assert sorted(u.mask for u in enumerate_opens(sp)) == all_upsets(sp)


def test_enumerate_opens_respects_limit():
    anti = FiniteSpace(tuple("abcdef"), tuple(1 << i for i in range(6)))
    with pytest.raises(SizeLimit):
        list(enumerate_opens(anti, max_opens=10))


def test_upset_validation():
    with pytest.raises(ValimError):
        UpSet(SIER, 0b01)  # {bot} is not upward closed
    u = UpSet(SIER, 0b10)
    assert u.members == ("top",)
    assert "top" in u and "bot" not in u


def test_upward_closure_and_interior_are_adjoint_to_closure():
    u = upward_closure(DIAMOND, ["a"])
    assert set(u.members) == {"a", "top"}
    v = interior(DIAMOND, ["a", "top", "b"])
    assert set(v.members) == {"a", "b", "top"}
    labs = closure(DIAMOND, ["top"])
    assert set(labs) == {"bot", "a", "b", "top"}


@given(seeds, st.integers(min_value=1, max_value=6))
def test_interior_is_largest_open_inside(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    pts = [lab for lab in sp.labels if rng.random() < 0.5]
    mask = sp.mask_of(pts)
    got = interior(sp, pts).mask
    best = 0
    for m in all_upsets(sp):
        if m & ~mask == 0:
            best |= m
    assert got == best


def test_sobriety_every_irreducible_closed_has_unique_generic_point():
    for sp in (SIER, DIAMOND, rand_poset(random.Random(3), 6)):
        pairs = sobriety_witness(sp)
        assert len(pairs) == sp.n
        for labs, pt in pairs:
            assert pt in labs


def test_lift_adds_a_fresh_bottom():
    anti = FiniteSpace(("x", "y"), (0b01, 0b10))
    lifted = lift(anti)
    bot = lifted.bottom()
    assert bot is not None and bot not in ("x", "y")
    assert lifted.n == 3
    assert lifted.leq(bot, "x") and lifted.leq(bot, "y")


def test_product_space_order_is_componentwise():
    prod, projs = product_space([SIER, SIER])
    assert prod.n == 4
    assert prod.leq(("bot", "bot"), ("top", "top"))
    assert not prod.leq(("top", "bot"), ("bot", "top"))
    for k, p in enumerate(projs):
        for lab in prod.labels:
            assert p(lab) == lab[k]


@given(seeds, st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                       max_size=3))
@settings(max_examples=40, deadline=None)
def test_product_space_rows_and_projections_match_brute_force(seed, sizes):
    from itertools import product

    rng = random.Random(seed)
    # a one-point factor in some position whenever there are several
    if len(sizes) > 1:
        sizes[rng.randrange(len(sizes))] = 1
    factors = [rand_poset(rng, n, edge_prob=rng.uniform(0.2, 0.9),
                          prefix=f"f{d}_") for d, n in enumerate(sizes)]
    prod, projs = product_space(factors)
    assert prod.labels == tuple(product(*(f.labels for f in factors)))
    assert list(prod.up) == brute_product_up(factors)
    assert len(projs) == len(factors)
    for d, (f, p) in enumerate(zip(factors, projs)):
        assert p.source == prod and p.target == f
        assert p.graph == tuple(f.index[lab[d]] for lab in prod.labels)


def test_product_of_no_factors_is_a_point():
    prod, projs = product_space([])
    assert prod.labels == ((),) and prod.up == (1,)
    assert projs == []


def test_product_space_size_limit():
    big = FiniteSpace(tuple(range(20)), tuple(1 << i for i in range(20)))
    with pytest.raises(SizeLimit):
        product_space([big, big, big], max_points=100)


def test_subspace_restricts_the_order():
    sub, inc = subspace(DIAMOND, ["bot", "a", "top"])
    assert sub.leq("bot", "top") and sub.leq("a", "top")
    assert inc.source is sub and inc.target is DIAMOND
    for lab in sub.labels:
        assert inc(lab) == lab


def test_monotone_map_rejects_order_breakers():
    with pytest.raises(NotMonotone):
        MonotoneMap(SIER, SIER, (1, 0))  # swaps bot above top


def test_identity_and_compose():
    f = MonotoneMap(SIER, SIER, (0, 0))
    assert compose(f, identity_map(SIER)).graph == f.graph
    assert compose(identity_map(SIER), f).graph == f.graph
    assert identity_map(SIER).is_identity()


@given(seeds)
@settings(max_examples=30)
def test_preimage_of_open_is_open(seed):
    rng = random.Random(seed)
    sp = rand_poset(rng, 5)
    from valim.generators import rand_monotone_map

    f = rand_monotone_map(rng, sp, rand_poset(rng, 4))
    for m in all_upsets(f.target):
        assert f.source.is_upset(f.preimage_mask(m))


@pytest.mark.parametrize("warmup", [(), (None,), (64,), (5, None)],
                         ids=["fresh", "uncapped", "capped", "refused"])
def test_open_masks_cap_holds_after_any_cache_state(warmup):
    # 64 opens; a cap of 10 refuses whatever was asked before
    s = check_space(tuple(f"a{i}" for i in range(6)), [])
    for cap in warmup:
        try:
            s.open_masks() if cap is None else s.open_masks(cap)
        except SizeLimit:
            pass
    with pytest.raises(SizeLimit):
        s.open_masks(10)
    assert len(s.open_masks(64)) == 64


def test_open_masks_refuses_by_count_and_caches_nothing(monkeypatch):
    # 12 points, 3 * 2^10 opens: a cap that 2^n passes is counted
    # first, so a refusal lists no mask and leaves no cache; a larger
    # cap then counts and lists
    s = check_space(tuple(f"a{i}" for i in range(12)), [("a0", "a1")])
    counted, listed = [], []
    count, upsets = _kernels.count_upsets, _kernels._upsets
    monkeypatch.setattr(_kernels, "count_upsets",
                        lambda up, n, cap: counted.append(cap)
                        or count(up, n, cap))
    monkeypatch.setattr(_kernels, "_upsets",
                        lambda up, n, cap: listed.append(cap)
                        or upsets(up, n, cap))
    with pytest.raises(SizeLimit,
                       match="^open lattice exceeds the configured bound "
                             "1000$"):
        s.open_masks(1000)
    assert (counted, listed) == ([1000], [])
    assert "_open_masks" not in s.__dict__
    assert len(s.open_masks(3072)) == 3072
    assert (counted, listed) == ([1000, 3072], [3072])
    # the cached list refuses a smaller cap as it stands
    with pytest.raises(SizeLimit):
        s.open_masks(3071)
    assert (counted, listed) == ([1000, 3072], [3072])


def test_open_masks_lists_a_lattice_that_cannot_pass_the_cap(monkeypatch):
    monkeypatch.setattr(_kernels, "count_upsets", None)
    s = check_space(tuple(f"a{i}" for i in range(6)), [])
    assert len(s.open_masks(64)) == 64


def test_a_zero_cap_refuses_the_empty_space():
    s = check_space((), [])
    with pytest.raises(SizeLimit):
        s.open_masks(0)
    assert "_open_masks" not in s.__dict__
    assert s.open_masks(1) == [0]
    with pytest.raises(SizeLimit):
        s.open_masks(0)
