"""The bitmask kernels against the brute-force oracles, including which
witness a failing scan reports first."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import ExtRat, FiniteSpace, MonotoneMap, Valuation
from valim._kernels import (
    _BLOCK,
    enumerate_upsets,
    eval_weights,
    scan_axioms,
    union_map,
)
from valim.extreal import INF
from valim.generators import rand_poset

from _oracles import all_upsets, brute_axiom_witness, by_size, mask_value

seeds = st.integers(min_value=0, max_value=100_000)


def lattice_of(seed, n):
    sp = rand_poset(random.Random(seed), n)
    return sp, by_size(all_upsets(sp))


def as_ext(v):
    return INF if v == math.inf else ExtRat(v)


@given(seeds, st.integers(min_value=1, max_value=9))
@settings(max_examples=60)
def test_enumerate_upsets_matches_powerset_filter(seed, n):
    sp, opens = lattice_of(seed, n)
    assert enumerate_upsets(sp.up, sp.n, 1 << 20) == opens
    assert enumerate_upsets(sp.up, sp.n, len(opens)) == opens
    assert enumerate_upsets(sp.up, sp.n, len(opens) - 1) is None


def test_enumerate_upsets_edge_cases():
    assert enumerate_upsets((), 0, 1) == [0]
    up = [1 << i for i in range(10)]  # antichain: 1024 up-sets
    assert enumerate_upsets(up, 10, 100) is None
    assert len(enumerate_upsets(up, 10, 1024)) == 1024


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
