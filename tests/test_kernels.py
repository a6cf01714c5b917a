"""The bitmask kernels against the brute-force oracles, including which
witness a failing scan reports first."""

import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import ExtRat, FiniteSpace, MonotoneMap, Valuation, lift
from valim import _kernels
from valim._kernels import (
    _BLOCK,
    _COUNT_DEPTH,
    count_upsets,
    enumerate_upsets,
    eval_weights,
    scan_axioms,
    union_map,
)
from valim.extreal import INF
from valim.generators import rand_poset
from valim.order import check_space, product_space

from _oracles import (
    all_upsets,
    brute_axiom_witness,
    by_size,
    closed_upsets,
    mask_value,
)

seeds = st.integers(min_value=0, max_value=100_000)


def lattice_of(seed, n):
    sp = rand_poset(random.Random(seed), n)
    return sp, by_size(all_upsets(sp))


def as_ext(v):
    return INF if v == math.inf else ExtRat(v)


def relabelled(rng, sp):
    """sp with its points in a random index order, rebuilt through
    check_space, so that index order need not be a linear extension."""
    order = list(range(sp.n))
    rng.shuffle(order)
    return check_space([sp.labels[i] for i in order],
                       [(sp.labels[i], sp.labels[j]) for i in range(sp.n)
                        for j in range(sp.n) if sp.up[i] >> j & 1])


def assert_listed(sp, opens):
    """enumerate_upsets gives opens, in scan order, at every cap they
    fit, and refuses one short of them, whether _upsets scans the whole
    list or windows of it."""
    opens = by_size(opens)
    for stack_from in (0, 1 << 30):
        with patch.object(_kernels, "_STACK_FROM", stack_from):
            for cap in (len(opens) + 1, len(opens), 1 << 20):
                assert enumerate_upsets(sp.up, sp.n, cap) == opens
            assert enumerate_upsets(sp.up, sp.n, len(opens) - 1) is None


@given(seeds, st.integers(min_value=0, max_value=13),
       st.floats(min_value=0.05, max_value=0.8))
@settings(max_examples=60, deadline=None)
def test_enumerate_upsets_matches_powerset_filter(seed, n, edge_prob):
    rng = random.Random(seed)
    sp = relabelled(rng, rand_poset(rng, n, edge_prob))
    assert_listed(sp, all_upsets(sp))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_enumerate_upsets_on_products(seed):
    # the product criterion lists such lattices, up to 2^14 opens
    rng = random.Random(seed)
    # now and then an empty factor, and so an empty product
    factors = [rand_poset(rng, 0 if rng.random() < 0.05
                          else rng.randint(1, 4), rng.uniform(0.2, 0.8),
                          f"f{p}_") for p in range(rng.randint(2, 3))]
    big, _ = product_space([lift(f) for f in factors]
                           if rng.random() < 0.5 else factors)
    if rng.random() < 0.5:
        big = relabelled(rng, big)
    opens = closed_upsets(big, 1 << 14)
    if opens is None:
        assert enumerate_upsets(big.up, big.n, 1 << 14) is None
    else:
        assert_listed(big, opens)


def test_enumerate_upsets_edge_cases():
    assert enumerate_upsets((), 0, 1) == [0]
    # the empty space has one up-set, the empty set, which a cap of 0
    # refuses like any other
    assert enumerate_upsets((), 0, 0) is None
    assert count_upsets((), 0, 0) is None
    assert count_upsets((), 0, 1) == 1
    up = [1 << i for i in range(10)]  # antichain: 1024 up-sets
    assert enumerate_upsets(up, 10, 100) is None
    assert len(enumerate_upsets(up, 10, 1024)) == 1024
    assert count_upsets(up, 10, 1023) is None
    assert count_upsets(up, 10, 1024) == 1024


# how far the differentials list: past it only refusals are compared
LISTED = 1 << 16


def assert_count_matches_the_list(up, n):
    listed = enumerate_upsets(up, n, LISTED)
    if listed is None:
        for cap in (LISTED, LISTED // 3, 0):
            assert count_upsets(up, n, cap) is None
        return
    total = len(listed)
    for cap in (total - 1, total, total + 1, total // 3, 0):
        want = total if total <= cap else None
        assert count_upsets(up, n, cap) == want
        got = enumerate_upsets(up, n, cap)
        assert (got is None) == (want is None)


@given(seeds, st.integers(min_value=0, max_value=24),
       st.floats(min_value=0.05, max_value=0.7))
@settings(max_examples=150, deadline=None)
def test_count_upsets_matches_the_list(seed, n, edge_prob):
    sp = rand_poset(random.Random(seed), n, edge_prob)
    assert_count_matches_the_list(sp.up, sp.n)


@given(seeds, st.lists(st.integers(min_value=1, max_value=3), min_size=1,
                       max_size=3))
@settings(max_examples=60, deadline=None)
def test_count_upsets_matches_the_list_on_lifted_products(seed, sizes):
    # the size guard of dk_product counts exactly these lattices
    rng = random.Random(seed)
    factors = [lift(rand_poset(rng, k, rng.uniform(0.3, 0.8)))
               for k in sizes]
    big, _ = product_space(factors)
    assert_count_matches_the_list(big.up, big.n)


def listing_calls(monkeypatch):
    """The point counts of every _upsets call made from now on."""
    calls = []
    real = _kernels._upsets

    def spy(up, n, limit):
        calls.append(n)
        return real(up, n, limit)

    monkeypatch.setattr(_kernels, "_upsets", spy)
    return calls


def memo_overflows(monkeypatch):
    """One entry for every count that ran out of memo from now on."""
    overflows = []

    class Spy(_kernels._MemoFull):
        def __init__(self):
            overflows.append(1)

    monkeypatch.setattr(_kernels, "_MemoFull", Spy)
    return overflows


def test_count_upsets_lists_past_its_memo_bound(monkeypatch):
    # 12 points, 424 up-sets: at a cap near 424 the memo has room for
    # 26 sets, more than two per point, and runs out on the way; the
    # count then lists, with the same answer
    sp = rand_poset(random.Random(115), 12, 0.2)
    total = len(enumerate_upsets(sp.up, sp.n, 1 << 20))
    assert total == 424
    calls = listing_calls(monkeypatch)
    overflows = memo_overflows(monkeypatch)
    assert count_upsets(sp.up, sp.n, total) == total
    assert count_upsets(sp.up, sp.n, total - 1) is None
    assert (calls, overflows) == ([12, 12], [1, 1])
    # at a cap of 2^20 the memo has room and nothing is listed
    assert count_upsets(sp.up, sp.n, 1 << 20) == total
    assert (calls, overflows) == ([12, 12], [1, 1])


def test_count_upsets_lists_a_small_cap_at_once(monkeypatch):
    # 11 points, 416 up-sets, and a cap of half that: the memo would
    # have room for 13 sets, under two per point, and would run out, so
    # the count lists at once
    sp = rand_poset(random.Random(0), 11, 0.2)
    total = len(enumerate_upsets(sp.up, sp.n, 1 << 20))
    assert total == 416
    calls = listing_calls(monkeypatch)
    overflows = memo_overflows(monkeypatch)
    assert count_upsets(sp.up, sp.n, total // 2) is None
    # 16 points, 374 up-sets: room for 23 sets at a cap near 374
    sp = rand_poset(random.Random(4), 16, 0.2)
    assert count_upsets(sp.up, sp.n, 374) == 374
    assert count_upsets(sp.up, sp.n, 373) is None
    assert (calls, overflows) == ([11, 16, 16], [])


def chain_up(n):
    return [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]


def test_count_upsets_lists_past_its_depth(monkeypatch):
    # a chain of n points has n + 1 up-sets; the recursion could drop one
    # point a level, so past _COUNT_DEPTH points the count lists, with
    # room in the memo either way
    calls = listing_calls(monkeypatch)
    n = _COUNT_DEPTH
    assert count_upsets(chain_up(n), n, 20_000) == n + 1
    assert calls == []
    n += 1
    assert count_upsets(chain_up(n), n, 20_000) == n + 1
    assert calls == [n]


def test_count_upsets_refuses_when_a_first_term_equals_the_cap(monkeypatch):
    # ten points a_i below x below t, and a lone point y.  The pivot is
    # x: its first branch, the a_i, has 2^10 up-sets and the second,
    # {t}, 2 more; the component {a_i, x, t} (1026) then meets {y} (2).
    # A first term equal to the cap must still be added to or multiplied
    bit = {name: 1 << k for k, name in enumerate(
        [f"a{i}" for i in range(10)] + ["x", "t", "y"])}
    xt = bit["x"] | bit["t"]
    up = [bit[f"a{i}"] | xt for i in range(10)] + [xt, bit["t"], bit["y"]]
    calls = listing_calls(monkeypatch)
    assert count_upsets(up[:12], 12, 1024) is None
    assert count_upsets(up[:12], 12, 1026) == 1026
    assert count_upsets(up, 13, 1026) is None
    assert count_upsets(up, 13, 2052) == 2052
    assert calls == []


def test_count_upsets_does_not_list_a_large_lattice(monkeypatch):
    # three lifted 3-point chains: 64 points and 232,848 up-sets
    chain = rand_poset(random.Random(0), 3, 1.0)
    big, _ = product_space([lift(chain)] * 3)
    calls = listing_calls(monkeypatch)
    assert count_upsets(big.up, big.n, 1 << 20) == 232_848
    assert count_upsets(big.up, big.n, 232_847) is None
    assert calls == []


@given(seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=60)
def test_eval_weights_matches_mask_value(seed, n):
    # infinite weights and sums far beyond 64 bits
    rng = random.Random(seed)
    sp, opens = lattice_of(seed, n)
    weights = [
        math.inf if rng.random() < 0.2 else rng.randint(0, 1 << 70)
        for _ in range(sp.n)
    ]
    nu = Valuation(sp, tuple(as_ext(w) for w in weights))
    got = eval_weights(weights, opens)
    assert [as_ext(v) for v in got] == [mask_value(nu, m) for m in opens]


@given(seeds, st.integers(min_value=0, max_value=30))
@settings(max_examples=60)
def test_eval_weights_on_any_masks_of_many_points(seed, n):
    # up to four bytes of points; masks need not be up-sets
    rng = random.Random(seed)
    weights = [math.inf if rng.random() < 0.1 else rng.randint(0, 1 << 70)
               for _ in range(n)]
    masks = [rng.getrandbits(n) for _ in range(40)]
    want = []
    for m in masks:
        picked = [weights[i] for i in range(n) if (m >> i) & 1]
        want.append(math.inf if math.inf in picked else sum(picked))
    assert eval_weights(weights, masks) == want


def test_eval_weights_refuses_masks_beyond_the_weights():
    for n in (3, 12, 20):
        with pytest.raises(IndexError):
            eval_weights([1] * n, [1 << (n + 9)])


@given(seeds, st.integers(min_value=17, max_value=24))
@settings(max_examples=40, deadline=None)
def test_three_byte_lookups_match_the_oracles(seed, n):
    # 17-24 points: three lookups a mask, no columns
    rng = random.Random(seed)
    sp = relabelled(rng, rand_poset(rng, n, rng.uniform(0.05, 0.5)))
    weights = [math.inf if rng.random() < 0.15 else rng.randint(0, 1 << 70)
               for _ in range(n)]
    nu = Valuation(sp, tuple(as_ext(w) for w in weights))
    opens = [0, sp.full_mask] + [sp.up_close(rng.getrandbits(n))
                                 for _ in range(60)]
    assert [as_ext(v) for v in eval_weights(weights, opens)] == [
        mask_value(nu, m) for m in opens]
    masks = [rng.getrandbits(n) for _ in range(60)]
    assert union_map(sp.up, masks, n) == [sp.up_close(m) for m in masks]
    assert union_map(sp.down, masks, n) == [sp.down_close(m) for m in masks]
    # a mask past the points is refused, an infinite point in it or not
    for past in (1 << n, (1 << n) | 1):
        with pytest.raises(IndexError):
            eval_weights([math.inf] + weights[1:], opens + [past])
        with pytest.raises(IndexError):
            union_map(sp.up, masks + [past], n)


def per_mask_sums(weights, masks):
    out = []
    for m in masks:
        picked = [weights[i] for i in range(len(weights)) if (m >> i) & 1]
        out.append(math.inf if math.inf in picked else sum(picked))
    return out


@given(seeds, st.integers(min_value=0, max_value=70),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=80)
def test_eval_weights_by_columns_matches_per_mask_sums(seed, n, count):
    # one to nine bytes of points, infinite weights, no masks at all
    rng = random.Random(seed)
    weights = [math.inf if rng.random() < 0.1 else rng.randint(0, 1 << 70)
               for _ in range(n)]
    masks = [rng.getrandbits(n) for _ in range(count)]
    assert eval_weights(weights, masks) == per_mask_sums(weights, masks)


def random_map(rng, m, n):
    """A map from an m-point antichain (so any graph is monotone) into a
    random n-point poset; with n = 0 the source is empty too."""
    target = rand_poset(rng, n, 0.1) if n else FiniteSpace((), ())
    m = m if n else 0
    source = FiniteSpace(tuple(f"s{i}" for i in range(m)),
                         tuple(1 << i for i in range(m)))
    return MonotoneMap(source, target,
                       tuple(rng.randrange(n) for _ in range(m)))


@given(seeds, st.integers(min_value=0, max_value=70),
       st.integers(min_value=0, max_value=70),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=80, deadline=None)
def test_union_map_matches_the_bit_loops(seed, m, n, count):
    # saturated images and preimages, each fixed by its single points
    rng = random.Random(seed)
    f = random_map(rng, m, n)
    src, dst = f.source, f.target
    masks = [rng.getrandbits(src.n) for _ in range(count)]
    up = [dst.up[y] for y in f.graph]
    assert union_map(up, masks, src.n) == [
        dst.up_close(f.image_mask(q)) for q in masks]
    opens = [dst.up_close(rng.getrandbits(dst.n)) for _ in range(count)]
    fibres = [f.preimage_mask(1 << y) for y in range(dst.n)]
    assert union_map(fibres, opens, dst.n) == [
        f.preimage_mask(u) for u in opens]
    assert union_map(dst.down, opens, dst.n) == [
        dst.down_close(u) for u in opens]


def test_union_map_refuses_masks_beyond_the_points():
    for n in (3, 12, 20):
        for mask in (1 << n, 1 << (n + 9)):
            with pytest.raises(IndexError):
                union_map([1] * n, [mask], n)
    assert union_map([], [0], 0) == [0]
    assert union_map([0b10] * 20, [], 20) == []


def _kernel_witness(opens, values):
    code, i, j = scan_axioms(opens, values)
    # a table's own index of its masks gives the same scan
    index = {m: k for k, m in enumerate(opens)}
    assert scan_axioms(opens, tuple(values), index) == (code, i, j)
    assert code != 4
    if code == 0:
        return None
    if code == 1:
        return ("strictness", opens[i], None)
    return (("monotonicity", "modularity")[code - 2], opens[i], opens[j])


@given(seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=40)
def test_scan_axioms_passes_lawful_tables(seed, n):
    rng = random.Random(seed)
    sp, opens = lattice_of(seed, n)
    weights = [math.inf if rng.random() < 0.1 else rng.randint(0, 1 << 70)
               for _ in range(sp.n)]
    assert scan_axioms(opens, eval_weights(weights, opens)) == (0, -1, -1)


@given(seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=120)
def test_scan_axioms_reports_the_first_witness(seed, n):
    # corrupt one entry; the scan must name the brute-force first witness
    rng = random.Random(seed)
    sp, opens = lattice_of(seed, n)
    weights = [math.inf if rng.random() < 0.1 else rng.randint(0, 9)
               for _ in range(sp.n)]
    values = eval_weights(weights, opens)
    k = rng.randrange(len(values))
    values[k] = math.inf if rng.random() < 0.1 else rng.randint(0, 60)
    want = brute_axiom_witness(opens, dict(zip(opens, map(as_ext, values))))
    assert _kernel_witness(opens, values) == want


def test_scan_axioms_refuses_families_that_are_not_lattices():
    # {a} and {b} without their union
    assert scan_axioms([0, 0b01, 0b10], [0, 1, 1]) == (4, 1, 2)
    # no empty set at all
    assert scan_axioms([0b01], [0]) == (1, 0, -1)


def test_the_column_paths_run_across_blocks_of_masks():
    rng = random.Random(7)
    n = 40
    weights = [math.inf if rng.random() < 0.05 else rng.randint(0, 99)
               for _ in range(n)]
    images = [rng.getrandbits(n) for _ in range(n)]
    masks = [rng.getrandbits(n) for _ in range(2 * _BLOCK + 3)]
    assert eval_weights(weights, masks) == per_mask_sums(weights, masks)
    assert union_map(images, masks, n) == [
        union_of_images(images, m) for m in masks]
    with pytest.raises(IndexError):
        union_map(images, masks + [1 << n], n)


def union_of_images(images, mask):
    out = 0
    for i, img in enumerate(images):
        if (mask >> i) & 1:
            out |= img
    return out
