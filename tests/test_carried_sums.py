"""Sums carried through the listing of the open lattice.

_kernels._upsets with weights lists each up-set u packed with its
weight sum s as s * 2^n + u; valuation._first_differing_upset compares
two valuations on every open from those sums.  Both are held to the
plain listing, per-mask sums and the brute-force first difference of
tests/_oracles.py, on both listing paths (the whole-list loop below
_STACK_FROM points, the stack from it on).
"""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import ExtRat, FiniteSpace, UpSet, Valuation
from valim import _kernels
from valim.errors import SizeLimit, ValimError
from valim.extreal import INF, ONE, ZERO
from valim.generators import rand_poset
from valim.order import DEFAULT_MAX_OPENS
from valim.valuation import _first_differing_upset

from _oracles import brute_first_differing_mask

seeds = st.integers(min_value=0, max_value=100_000)
# how far the differentials list: past it only refusals are compared
LISTED = 1 << 12


def rand_ints(rng, n):
    """Zeros, small ints of either sign and ints past 2^64 of either
    sign."""
    pool = [0, 0, 1, -1, 2 ** 64, -(2 ** 64) - 3, 2 ** 100 + 7, -(2 ** 90)]
    return [rng.choice(pool) if rng.random() < 0.5
            else rng.randint(-50, 50) for _ in range(n)]


def space_of(rng, wide):
    """A random poset of 0-12 points, or of 13-20 points dense enough
    that its lattice is usually listed."""
    if wide:
        return rand_poset(rng, rng.randint(13, 20), rng.uniform(0.3, 0.8))
    return rand_poset(rng, rng.randint(0, 12), rng.uniform(0.05, 0.8))


def sum_over(weights, mask):
    return sum(w for i, w in enumerate(weights) if mask >> i & 1)


@given(seeds, st.booleans())
@settings(max_examples=150, deadline=None)
def test_packed_listing_matches_per_mask_sums(seed, wide):
    rng = random.Random(seed)
    sp = space_of(rng, wide)
    n = sp.n
    weights = rand_ints(rng, n)
    plain = _kernels._upsets(sp.up, n, LISTED)
    packed = _kernels._upsets(sp.up, n, LISTED, weights)
    if plain is None:
        assert packed is None
        return
    low = (1 << n) - 1
    # the same masks in the same order, each with its own sum
    assert [c & low for c in packed] == plain
    assert [c >> n for c in packed] == [sum_over(weights, u) for u in plain]
    size = len(plain)
    for limit in (size - 1, size, size + 1):
        got = _kernels._upsets(sp.up, n, limit, weights)
        assert (got is None) == (limit < size)
        if got is not None:
            assert got == packed


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_both_listing_paths_carry_the_same_sums(seed):
    rng = random.Random(seed)
    sp = space_of(rng, rng.random() < 0.5)
    weights = rand_ints(rng, sp.n)
    listed = []
    for stack_from in (0, 1 << 30):
        with patch.object(_kernels, "_STACK_FROM", stack_from):
            listed.append(_kernels._upsets(sp.up, sp.n, LISTED, weights))
    if listed[0] is None:
        assert listed[1] is None
    else:
        assert sorted(listed[0]) == sorted(listed[1])


# --- the first differing open from the carried sums ----------------------


def rand_weights(rng, n, inf_prob):
    """Zeros, infinities, ints past 2^64 and fractions with assorted
    denominators."""
    pool = [ZERO, ExtRat(2 ** 70), ExtRat(1, 3), ExtRat(5, 4), ONE]
    return [INF if rng.random() < inf_prob
            else rng.choice(pool) if rng.random() < 0.5
            else ExtRat(Fraction(rng.randint(0, 40), rng.randint(1, 9)))
            for _ in range(n)]


def rand_pair(rng, sp, inf_sides):
    """Two valuations on sp, each side with infinite weights or not; the
    second is often the first with at most one weight moved."""
    n = sp.n
    a = rand_weights(rng, n, 0.25 if "a" in inf_sides else 0)
    b = rand_weights(rng, n, 0.25 if "b" in inf_sides else 0)
    if n and rng.random() < 0.6:
        b = [ONE if w == INF and "b" not in inf_sides else w for w in a]
        k = rng.randrange(n)
        if rng.random() < 0.7 and b[k] != INF:
            b[k] = b[k] + ExtRat(1, rng.randint(1, 7))
    return Valuation(sp, tuple(a)), Valuation(sp, tuple(b))


def outcome(compare, *args):
    try:
        return compare(*args)
    except SizeLimit as err:
        return ("SizeLimit", str(err))


def listed_first_difference(nu_a, nu_b, cap):
    return brute_first_differing_mask(nu_a, nu_b, nu_a.space.open_masks(cap))


@given(seeds, st.sampled_from(("", "a", "b", "ab")), st.booleans())
@settings(max_examples=200, deadline=None)
def test_first_differing_upset_matches_the_brute_force(seed, inf_sides,
                                                       wide):
    rng = random.Random(seed)
    sp = space_of(rng, wide)
    nu_a, nu_b = rand_pair(rng, sp, inf_sides)
    want = outcome(listed_first_difference, nu_a, nu_b, LISTED)
    # the opens listed above were cached on sp: a fresh copy proves
    # neither that the cache is needed nor that it is filled
    fresh = FiniteSpace._trusted(sp.labels, sp.up)
    a, b = (Valuation._from_scaled(fresh, *nu._scaled) for nu in (nu_a, nu_b))
    for first, second in ((a, b), (b, a)):
        assert outcome(_first_differing_upset, first, second, LISTED) == want
    assert "_open_masks" not in vars(fresh)
    if want is not None and not isinstance(want, tuple):
        # a witness is an open on which the two values differ
        assert nu_a.evaluate(want) != nu_b.evaluate(want)


@given(seeds, st.booleans())
@settings(max_examples=80, deadline=None)
def test_first_differing_upset_refuses_at_the_caps_of_open_masks(seed,
                                                                 wide):
    rng = random.Random(seed)
    sp = space_of(rng, wide)
    nu_a, nu_b = rand_pair(rng, sp, rng.choice(("", "a", "ab")))
    size = _kernels.count_upsets(sp.up, sp.n, LISTED)
    caps = (LISTED,) if size is None else (size - 1, size, size + 1)
    for cap in caps:
        want = outcome(listed_first_difference, nu_a, nu_b, cap)
        fresh = FiniteSpace._trusted(sp.labels, sp.up)
        a, b = (Valuation._from_scaled(fresh, *nu._scaled)
                for nu in (nu_a, nu_b))
        assert outcome(_first_differing_upset, a, b, cap) == want
        assert isinstance(want, tuple) == (size is None or cap < size)


def test_first_differing_upset_does_not_read_the_cache():
    chain = FiniteSpace(("lo", "hi"), (0b11, 0b10))
    nu_a = Valuation(chain, (ONE, ZERO))
    nu_b = Valuation(chain, (ZERO, ZERO))
    # a wrong cache, which open_masks would trust
    vars(chain)["_open_masks"] = [0]
    assert _first_differing_upset(nu_a, nu_b, DEFAULT_MAX_OPENS) == 0b11
    assert _first_differing_upset(nu_a, nu_a, DEFAULT_MAX_OPENS) is None


def test_first_differing_upset_decides_infinite_points_by_their_masks():
    # lo < hi: {hi} and {lo, hi} are the non-empty opens
    chain = FiniteSpace(("lo", "hi"), (0b11, 0b10))
    finite = Valuation(chain, (ONE, ONE))
    top_inf = Valuation(chain, (ZERO, INF))
    both_inf = Valuation(chain, (ONE, INF))
    assert _first_differing_upset(finite, top_inf, 8) == 0b10
    assert _first_differing_upset(top_inf, finite, 8) == 0b10
    # inf on both sides of every non-empty open hides the finite weights
    assert _first_differing_upset(top_inf, both_inf, 8) is None
    assert _first_differing_upset(
        Valuation(chain, (INF, ONE)), Valuation(chain, (INF, ZERO)), 8) \
        == 0b10


def test_first_differing_upset_refuses_valuations_on_two_spaces():
    a = Valuation(FiniteSpace(("x",), (1,)), (ONE,))
    b = Valuation(FiniteSpace(("y",), (1,)), (ONE,))
    with pytest.raises(ValimError, match="different spaces"):
        _first_differing_upset(a, b, DEFAULT_MAX_OPENS)


# --- masks with a point outside the space --------------------------------


CHAIN = FiniteSpace(("a", "b"), (0b11, 0b10))


@pytest.mark.parametrize("call", [
    lambda: CHAIN.up_close(0b100),
    lambda: CHAIN.down_close(0b101),
    lambda: CHAIN.is_upset(0b110),
    lambda: Valuation(CHAIN, (ONE, ONE)).evaluate(0b100),
    lambda: CHAIN.up_close(-1),
], ids=["up_close", "down_close", "is_upset", "evaluate", "negative"])
def test_a_mask_outside_the_space_is_refused(call):
    with pytest.raises(ValimError, match="^mask outside the space$"):
        call()


def test_masks_inside_the_space_still_close():
    assert CHAIN.up_close(0b01) == 0b11
    assert CHAIN.down_close(0b10) == 0b11
    assert CHAIN.is_upset(0b10) and not CHAIN.is_upset(0b01)
    assert Valuation(CHAIN, (ONE, ONE)).evaluate(UpSet(CHAIN, 0b10)) == ONE
