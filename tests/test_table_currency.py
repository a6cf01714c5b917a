"""Tables held in the scaled-integer currency.

Tables the library derives (tabulate, nu_bullet, mu_circ, the support
restriction, the tight route's outer set function) hold their values as
integers over one denominator and decode ExtRat values only when
`values` is first read.  Publicly built tables store the values they are
given.  These tests hold both kinds to one contract: equal values,
equality, hash, repr, documents and lookups, and no decoding on the
paths that never read values.
"""

import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    ExtRat,
    FiniteSpace,
    TabulatedSetFunction,
    Valuation,
    check_space,
    check_valuation,
    identity_map,
    image_valuation,
    is_tight,
    mu_circ,
    nu_bullet,
    support_check,
)
from valim import valuation
from valim.documents import dumps
from valim.extreal import INF, ZERO
from valim.generators import rand_monotone_map, rand_poset

from _oracles import mask_value

BIG = ExtRat(2 ** 1100)


def rand_weights(rng, n):
    """Zeros, infinities, a weight of 2**1100, small fractions, and
    repeats, so that tables carry ties."""
    pool = [ZERO, INF, BIG, ExtRat(1, 3), ExtRat(1, 2), ExtRat(2)]
    return tuple(rng.choice(pool) if rng.random() < 0.6
                 else ExtRat(Fraction(rng.randint(1, 40), rng.randint(1, 9)))
                 for _ in range(n))


def eager(nu, masks):
    """Each mask's value as an ExtRat sum, the slow way."""
    return tuple(mask_value(nu, m) for m in masks)


def assert_same_table(derived, public):
    assert derived == public and public == derived
    assert hash(derived) == hash(public)
    assert repr(derived) == repr(public)
    assert dumps(derived) == dumps(public)
    assert list(derived.items()) == list(public.items())
    for m in public.masks:
        assert derived.lookup(m) == public.lookup(m)


seeds = st.integers(min_value=0, max_value=10_000)


@given(seeds, st.integers(min_value=0, max_value=7))
@settings(max_examples=40, deadline=None)
def test_decoded_values_equal_the_eager_values(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n, edge_prob=rng.uniform(0.1, 0.7))
    nu = Valuation(sp, rand_weights(rng, sp.n))
    table = nu.tabulate()
    assert "values" not in table.__dict__
    want = eager(nu, table.masks)
    assert table.values == want
    assert all(type(v) is ExtRat for v in table.values)
    assert [repr(v) for v in table.values] == [repr(v) for v in want]
    assert_same_table(table, TabulatedSetFunction(sp, table.masks, want))


def test_ties_infinity_and_a_huge_weight_decode_exactly():
    sp = check_space(("a", "b", "c", "d"), [("a", "d")])
    nu = Valuation(sp, (BIG, INF, ExtRat(1, 3), ExtRat(1, 3)))
    table = nu.tabulate()
    assert table.values == eager(nu, table.masks)
    assert table.lookup(sp.mask_of(["a", "d"])) == BIG + ExtRat(1, 3)
    assert table.lookup(sp.mask_of(["c"])) == table.lookup(sp.mask_of(["d"]))
    assert table.lookup(sp.mask_of(["b"])) is INF
    assert table.lookup(0) is ZERO


def test_derived_and_public_tables_agree():
    sp = FiniteSpace(("bot", "a", "b", "top"),
                     (0b1111, 0b1010, 0b1100, 0b1000))
    nu = Valuation(sp, (ExtRat(1, 4), INF, ExtRat(1, 8), BIG))
    derived = nu.tabulate()
    public = TabulatedSetFunction(sp, derived.masks, eager(nu, derived.masks))
    # compared before and after the derived table decodes its values
    assert hash(derived) == hash(public)
    assert_same_table(derived, public)
    for op in (nu_bullet, mu_circ):
        out = op(derived)
        assert_same_table(out, TabulatedSetFunction(
            sp, out.masks, public.values, out.on))
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.values = public.values
    with pytest.raises(dataclasses.FrozenInstanceError):
        public.values = derived.values
    with pytest.raises(AttributeError):
        derived.nonesuch
    # a public table's pickle carries no filled cache; a derived one
    # round-trips either way
    assert b"_scaled" not in pickle.dumps(
        TabulatedSetFunction(sp, derived.masks, public.values))
    assert pickle.loads(pickle.dumps(nu.tabulate())) == public
    assert pickle.loads(pickle.dumps(derived)) == public


def test_the_accept_path_decodes_no_values():
    rng = random.Random(3)
    sp = rand_poset(rng, 7, edge_prob=0.3)
    nu = Valuation(sp, (INF,) + rand_weights(rng, sp.n - 1))
    table = nu.tabulate()
    check_valuation(table)
    assert "values" not in table.__dict__
    report = is_tight(table)
    assert report.composite_matches
    assert "values" not in table.__dict__
    # an infinite weight sends support_check through its trace tables
    restriction = support_check(nu, sp.full_mask)
    assert restriction.valuation.weights == nu.weights


def test_nu_bullet_then_mu_circ_scales_once(monkeypatch):
    calls = []
    real = valuation._scale

    def counting(values):
        calls.append(len(values))
        return real(values)
    monkeypatch.setattr(valuation, "_scale", counting)
    sp = check_space(("a", "b", "c"), [("c", "a")])
    nu = Valuation(sp, (ExtRat(1, 2), INF, ExtRat(1, 3)))
    table = nu.tabulate()
    public = TabulatedSetFunction(sp, table.masks, table.values)
    calls.clear()
    assert is_tight(public).composite_matches
    # the public table is scaled once; the derived tables share its scale
    assert calls == [len(public.masks)]
    assert nu_bullet(public)._scaled[1] is public._scaled[1]
    calls.clear()
    assert is_tight(table).composite_matches
    assert calls == []


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_pushes_to_compares_the_pushed_weights(seed):
    rng = random.Random(seed)
    src = rand_poset(rng, rng.randint(0, 6), edge_prob=rng.uniform(0.1, 0.7))
    dst = rand_poset(rng, rng.randint(1, 5), edge_prob=rng.uniform(0.1, 0.7))
    f = rand_monotone_map(rng, src, dst)
    nu = Valuation(src, rand_weights(rng, src.n))
    pushed = image_valuation(f, nu)
    # the pushforward itself (often on a smaller denominator than nu's),
    # one weight of it redrawn, or a fresh valuation
    weights = list(pushed.weights)
    kind = rng.randrange(3)
    if kind == 1:
        weights[rng.randrange(dst.n)] = rand_weights(rng, 1)[0]
    elif kind == 2:
        weights = rand_weights(rng, dst.n)
    mu = Valuation(dst, tuple(weights))
    assert valuation._pushes_to(f, nu, mu) == (pushed.weights == mu.weights)


def test_pushes_to_compares_infinity_past_float_range():
    # denominators past float range: inf times either would overflow
    sp = FiniteSpace(("a", "b"), (0b01, 0b10))
    nu = Valuation(sp, (INF, ExtRat(1, 2 ** 1100)))
    f = identity_map(sp)
    assert valuation._pushes_to(f, nu, nu)
    assert valuation._pushes_to(
        f, nu, Valuation(sp, (INF, ExtRat(2, 2 ** 1101))))
    assert not valuation._pushes_to(
        f, nu, Valuation(sp, (INF, ExtRat(1, 2 ** 1099))))
    assert not valuation._pushes_to(
        f, nu, Valuation(sp, (ExtRat(1, 2 ** 1099), ExtRat(1, 2 ** 1100))))
