"""nu_bullet and is_tight decided by one cover check, against the walk.

A table is refused exactly where some lower cover of an open outweighs
that open, and a Valuation is never checked; is_tight's witnesses are
built on first read.  The oracles in _oracles.py are the two functions
as they ran before: nu_bullet's walk of the open lattice, and is_tight's
eager staircase walk with its own refusal, which names the open where
the walk stops and its outweighing cover.  Valuations, raw tables,
tables with one or several outweighed opens, tables with masked
infinities and tables listed out of lattice order must give the same
verdicts, the same refusals (type, text and witness) and equal witness
mappings, read in any order.
"""

import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    ExtRat,
    FiniteSpace,
    TabulatedSetFunction,
    UpSet,
    ValimError,
    is_tight,
    mu_circ,
    nu_bullet,
)
from valim.cli import _violation_entry
from valim.extreal import INF, ONE, ZERO
from valim.generators import rand_poset, rand_valuation

from _oracles import walked_is_tight, walked_nu_bullet

seeds = st.integers(min_value=0, max_value=10_000)

KINDS = ("valuation", "infinite weights", "monotone", "outweighed",
         "several outweighed", "masked", "shuffled")
OUTWEIGHED = ("outweighed", "several outweighed")
READS = ("len", "ascending", "items", "lookup", "pickle")


def case(rng, kind):
    """A Valuation or a table of the given kind on a random space."""
    sp = rand_poset(rng, rng.randint(1, 6), edge_prob=rng.uniform(0.1, 0.6))
    if kind in ("valuation", "infinite weights"):
        return rand_valuation(rng, sp,
                              inf_prob=0.3 if kind != "valuation" else 0.0)
    if kind == "masked":
        # finite weights below infinite ones, read as a table
        return rand_valuation(rng, sp, inf_prob=0.4).tabulate()
    if kind == "shuffled":
        table = case(rng, rng.choice(("monotone", "masked") + OUTWEIGHED))
        rows = list(zip(table.masks, table.values))
        rng.shuffle(rows)
        masks, values = zip(*rows)
        return TabulatedSetFunction(table.space, masks, values)
    # the monotone hull of a raw table whose values are all positive, so
    # that lowering one non-empty open to 0 makes its covers outweigh it
    # and no other open changes its standing; lowering several leaves
    # the smallest of them outweighed by every cover
    masks = tuple(sp.open_masks())
    raw = TabulatedSetFunction(sp, masks, tuple(
        INF if rng.random() < 0.1 else ExtRat(rng.randint(1, 9), 4)
        for _ in masks))
    values = list(mu_circ(raw).values)
    if kind == "outweighed":
        values[rng.randrange(1, len(masks))] = ZERO
    elif kind == "several outweighed":
        for k in rng.sample(range(1, len(masks)), min(len(masks) - 1, 3)):
            values[k] = ZERO
    return TabulatedSetFunction(sp, masks, tuple(values))


def outcome(fn, nu):
    try:
        return "ok", fn(nu)
    except Exception as e:  # the two sides must refuse alike
        return "raised", type(e), str(e), vars(e)


def assert_same_witnesses(new, old, reads):
    """new read in the given order against the eager old view; old's
    entries are listed once, by its own iteration."""
    want = list(old.items())
    for read in reads:
        if read == "len":
            assert len(new) == len(old) == len(want)
        elif read == "ascending":
            assert list(islice(new.ascending(), 32)) == list(
                islice(old.ascending(), 32))
            assert list(new.ascending()) == list(old.ascending())
        elif read == "items":
            assert list(new.items()) == want
            assert list(new) == [key for key, _ in want]
            assert list(new.values()) == [q for _, q in want]
            assert new == old
        elif read == "lookup":
            for key, q in want:
                assert new[key] == q
            for (u, r), _ in want[:4]:
                assert (u, r + ExtRat(1, 7)) not in new
                assert (u, INF) not in new
        else:
            back = pickle.loads(pickle.dumps(new))
            assert list(back.items()) == want
            assert len(back) == len(want)
            new = back


@given(seeds, st.sampled_from(KINDS), st.permutations(READS))
@settings(max_examples=300, deadline=None)
def test_cover_check_matches_the_eager_walk(seed, kind, reads):
    nu = case(random.Random(seed), kind)
    got, want = outcome(is_tight, nu), outcome(walked_is_tight, nu)
    if kind in OUTWEIGHED:
        assert want[0] == "raised"
    if kind in ("valuation", "infinite weights", "monotone", "masked"):
        assert want[0] == "ok"
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
    else:
        new, old = got[1], want[1]
        assert (new.space, new.verdict, new.composite_matches,
                new.failure) == (old.space, old.verdict,
                                 old.composite_matches, old.failure)
        assert_same_witnesses(new.witnesses, old.witnesses, reads)
    got, want = outcome(nu_bullet, nu), outcome(walked_nu_bullet, nu)
    if got[0] == "raised":
        assert got == want
    else:
        new, old = got[1], want[1]
        assert want[0] == "ok"
        assert (new.space, new.masks, new.on, new._scaled) == (
            old.space, old.masks, old.on, old._scaled)
        assert list(new.values) == list(old.values)



ANTI = FiniteSpace(("x", "y"), (0b01, 0b10))


def test_the_refusal_names_the_first_outweighed_open_and_its_cover():
    # one outweighed open, which both covers outweigh: the least point
    # names the cover; then two, where the later point's open comes first
    two = ExtRat(2)
    for values, (u, x) in (((ZERO, two, ONE, ZERO), (0b11, "x")),
                           ((ONE, two, ZERO, ZERO), (0b10, "y"))):
        table = TabulatedSetFunction(ANTI, (0, 0b01, 0b10, 0b11), values)
        for check in (nu_bullet, is_tight):
            with pytest.raises(ValimError) as e:
                check(table)
            err = e.value
            members = ANTI.points_of(u)
            assert str(err) == (
                "inf over neighborhoods missed the direct value: the open "
                f"{members!r} is worth less than its lower cover without "
                f"{x!r}")
            assert err.witness == (UpSet(ANTI, u), x)
            assert _violation_entry(err)["witness"] == [list(members), x]
