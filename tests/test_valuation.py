import pickle
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    AxiomViolation,
    ExtRat,
    FiniteSpace,
    MonotoneMap,
    NotOnLattice,
    NotSimple,
    NotSupported,
    PrefixChain,
    SizeLimit,
    TabulatedSetFunction,
    UpSet,
    Valuation,
    ValuedSystem,
    check_space,
    check_valuation,
    decompose_simple,
    ep_limit_valuation,
    first_differing_mask,
    first_differing_open,
    image_valuation,
    is_locally_finite,
    is_tight,
    mu_circ,
    nu_bullet,
    point_mass,
    restrict_to_open,
    support_check,
    valuations_equal,
    way_below,
    zero_valuation,
)
from valim import valuation as valuation_module
from valim.errors import ValimError
from valim.extreal import INF, ONE, ZERO
from valim.generators import rand_poset, rand_valuation

from _oracles import (
    all_upsets,
    brute_check_valuation,
    brute_decompose,
    brute_first_differing,
    brute_first_differing_mask,
    brute_inf_above,
    brute_sup_below,
    brute_support,
    brute_tightness,
    mask_value,
    push_weights,
)

SIER = FiniteSpace(("bot", "top"), (0b11, 0b10))

seeds = st.integers(min_value=0, max_value=10_000)


def tabulate_full(nu):
    """dict mask -> value over the whole lattice, via the brute scanner."""
    return {m: mask_value(nu, m) for m in all_upsets(nu.space)}


def test_point_mass_and_zero():
    d = point_mass(SIER, "top")
    assert d.weights == (ZERO, ONE)
    assert d.evaluate(0b10) == ONE
    z = zero_valuation(SIER)
    assert z.total() == ZERO
    heavy = point_mass(SIER, "bot", ExtRat(3))
    assert heavy.total() == ExtRat(3)


def test_evaluate_accepts_upsets_and_masks():
    nu = Valuation(SIER, (ExtRat(1, 3), ExtRat(2, 3)))
    assert nu.evaluate(UpSet(SIER, 0b10)) == ExtRat(2, 3)
    assert nu.evaluate(0b11) == ONE
    assert nu.evaluate(0) == ZERO


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_simple_valuations_satisfy_the_axioms(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu = rand_valuation(rng, sp)
    table = tabulate_full(nu)
    assert table[0] == ZERO
    for a in table:
        for b in table:
            if a & ~b == 0:
                assert table[a] <= table[b]
            assert table[a] + table[b] == table[a | b] + table[a & b]


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_decompose_inverts_tabulation(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu = rand_valuation(rng, sp)
    got = decompose_simple(nu.tabulate())
    assert got.weights == nu.weights


def test_check_valuation_accepts_a_lawful_table():
    nu = Valuation(SIER, (ExtRat(1, 4), ExtRat(1, 2)))
    back = check_valuation(nu.tabulate())
    assert back.weights == nu.weights


def _full_table(space, values):
    masks = sorted(all_upsets(space), key=lambda m: (bin(m).count("1"), m))
    return TabulatedSetFunction(space, tuple(masks),
                                tuple(values[m] for m in masks))


def test_check_valuation_strictness_witness():
    vals = {0: ONE, 0b10: ONE, 0b11: ONE}
    with pytest.raises(AxiomViolation) as e:
        check_valuation(_full_table(SIER, vals))
    assert e.value.axiom == "strictness"


def test_check_valuation_monotonicity_witness():
    vals = {0: ZERO, 0b10: ONE, 0b11: ExtRat(1, 2)}
    with pytest.raises(AxiomViolation) as e:
        check_valuation(_full_table(SIER, vals))
    assert e.value.axiom == "monotonicity"
    u, v = e.value.witness
    assert u.mask & ~v.mask == 0
    # the table really does drop along that inclusion
    assert vals[u.mask] > vals[v.mask]


def test_check_valuation_modularity_witness():
    dia = FiniteSpace(("bot", "a", "b", "top"), (0b1111, 0b1010, 0b1100, 0b1000))
    vals = {m: ExtRat(bin(m).count("1"), 4) for m in all_upsets(dia)}
    vals[0b1110] = ExtRat(1, 2)  # modularity forces 3/4 here
    with pytest.raises(AxiomViolation) as e:
        check_valuation(_full_table(dia, vals))
    assert e.value.axiom == "modularity"
    u, v = e.value.witness
    assert vals[u.mask] + vals[v.mask] != vals[u.mask | v.mask] + vals[u.mask & v.mask]


def test_check_valuation_requires_the_whole_lattice():
    t = TabulatedSetFunction(SIER, (0, 0b10), (ZERO, ONE))
    with pytest.raises(ValimError):
        check_valuation(t)


def _outcome(fn, table):
    try:
        nu = fn(table)
    except ValimError as err:
        return (type(err), str(err), getattr(err, "witness", None))
    return ("ok", nu.weights)


def _corpus(rng, kind):
    """A table over a random poset: lawful, one value corrupted, or with an
    infinite weight strictly above some point (criterion 1's NotSimple
    cases); a shuffled table is a corrupted one with its rows shuffled,
    so that check_valuation scans it in lattice order, not its own."""
    corrupted = kind in ("corrupted", "shuffled")
    sp = rand_poset(rng, rng.randint(1, 6), edge_prob=rng.uniform(0.2, 0.7))
    nu = rand_valuation(rng, sp, inf_prob=0.1 if corrupted else 0)
    if kind == "shadowed":
        above = [y for y in range(sp.n) if sp.down[y] != 1 << y]
        if above:
            weights = list(nu.weights)
            weights[rng.choice(above)] = INF
            nu = Valuation(sp, tuple(weights))
    table = nu.tabulate()
    if corrupted:
        values = list(table.values)
        k = rng.randrange(len(values))
        values[k] = rng.choice([ZERO, INF, ExtRat(rng.randint(0, 12), 5),
                                values[k] + ExtRat(1, 5)])
        rows = list(zip(table.masks, values))
        if kind == "shuffled":
            rng.shuffle(rows)
        table = TabulatedSetFunction(sp, *map(tuple, zip(*rows)))
    return table


@pytest.mark.parametrize("kind", ["lawful", "corrupted", "shadowed",
                                  "shuffled"])
def test_check_valuation_matches_the_brute_force_oracle(kind):
    """Same verdict, exception type, witness and message as an ExtRat
    pair scan followed by an ExtRat decomposition."""
    rng = random.Random(f"differential-{kind}")
    seen = set()
    for _ in range(200):
        table = _corpus(rng, kind)
        got = _outcome(check_valuation, table)
        assert got == _outcome(brute_check_valuation, table)
        assert _outcome(decompose_simple, table) == \
            _outcome(brute_decompose, table)
        seen.add(got[0] if got[0] == "ok" else got[1].split(" ")[0])
    expected = {
        "lawful": {"ok"},
        "corrupted": {"ok", "strictness", "monotonicity", "modularity",
                      "inf"},
        "shuffled": {"ok", "strictness", "monotonicity", "modularity",
                     "inf"},
        "shadowed": {"ok", "inf"},
    }[kind]
    assert seen == expected


@pytest.mark.parametrize("masks", [(0, 0b01, 0b11), (0, 0b11)],
                         ids=["not-an-upset", "missing-open"])
def test_check_valuation_refuses_tables_off_the_open_lattice(masks):
    # SIER's opens are {}, {top}, {bot, top}
    table = TabulatedSetFunction(SIER, masks, (ZERO,) * len(masks))
    with pytest.raises(NotOnLattice,
                       match="^table must cover the whole open lattice$"):
        check_valuation(table)


def test_check_valuation_accepts_without_scanning(monkeypatch):
    import valim._kernels

    def refuse(*args):
        raise AssertionError("scan_axioms called on a lawful table")

    nu = rand_valuation(random.Random(5), rand_poset(random.Random(5), 7))
    monkeypatch.setattr(valim._kernels, "scan_axioms", refuse)
    assert check_valuation(nu.tabulate()).weights == nu.weights


def test_decompose_simple_refuses_masks_that_are_not_open():
    # {bot} is not upward closed; the weights match it anyway
    t = TabulatedSetFunction(SIER, (0, 0b01, 0b10, 0b11),
                             (ZERO, ONE, ONE, ExtRat(2)))
    with pytest.raises(ValimError, match="opens only"):
        decompose_simple(t)


def test_masked_infinity_is_not_simple():
    # inf strictly above a finite point swallows its weight
    nu = Valuation(SIER, (ExtRat(1, 2), INF))
    table = nu.tabulate()
    with pytest.raises(NotSimple) as e:
        decompose_simple(table)
    assert "inf - inf" in str(e.value)


def test_unmasked_infinity_is_fine():
    # inf at the bottom shadows nobody
    nu = Valuation(SIER, (INF, ExtRat(1, 2)))
    got = decompose_simple(nu.tabulate())
    assert got.weights == nu.weights


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_masked_table_dichotomy(seed, n):
    """decompose raises NotSimple exactly when some point is shadowed by
    an infinite weight strictly above it."""
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu = rand_valuation(rng, sp, inf_prob=0.3)
    shadowed = any(
        not nu.weights[y].is_finite and y != x and (sp.up[x] >> y) & 1
        for x in range(sp.n)
        for y in range(sp.n)
    )
    if shadowed:
        with pytest.raises(NotSimple):
            decompose_simple(nu.tabulate())
    else:
        assert decompose_simple(nu.tabulate()).weights == nu.weights


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_first_differing_open_matches_brute_scan(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu_a = rand_valuation(rng, sp, inf_prob=0.2)
    nu_b = rand_valuation(rng, sp, inf_prob=0.2)
    brute = brute_first_differing(nu_a, nu_b)
    got = first_differing_open(nu_a, nu_b)
    if brute is None:
        assert got is None
        assert valuations_equal(nu_a, nu_b)
    else:
        assert got is not None
        # candidate scan may land on a different open; both must disagree
        assert nu_a.evaluate(got.mask) != nu_b.evaluate(got.mask)
        assert not valuations_equal(nu_a, nu_b)


def test_equal_tables_with_different_weights():
    # a finite weight hidden strictly below an infinite point mass
    nu_a = Valuation(SIER, (ExtRat(1, 2), INF))
    nu_b = Valuation(SIER, (ExtRat(1, 3), INF))
    assert valuations_equal(nu_a, nu_b)
    assert nu_a.weights != nu_b.weights


@given(seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=40)
def test_image_valuation_matches_fiber_sums(seed, n):
    rng = random.Random(seed)
    src = rand_poset(rng, n)
    dst = rand_poset(rng, max(1, n - 1), prefix="y")
    from valim.generators import rand_monotone_map

    f = rand_monotone_map(rng, src, dst)
    nu = rand_valuation(rng, src)
    assert image_valuation(f, nu).weights == push_weights(f, nu).weights


def test_image_valuation_rejects_wrong_space():
    from valim.errors import ValimError

    f = MonotoneMap(SIER, SIER, (0, 1))
    other = FiniteSpace(("p",), (1,))
    with pytest.raises(ValimError):
        image_valuation(f, Valuation(other, (ONE,)))


def test_restrict_to_open():
    nu = Valuation(SIER, (ExtRat(1, 3), ExtRat(2, 3)))
    r = restrict_to_open(nu, UpSet(SIER, 0b10))
    assert r.space.labels == ("top",)
    assert r.weights == (ExtRat(2, 3),)


def test_support_check_accepts_the_support():
    nu = Valuation(SIER, (ZERO, ExtRat(2, 3)))
    res = support_check(nu, ["top"])
    assert res.space.labels == ("top",)
    assert res.valuation.weights == (ExtRat(2, 3),)
    # mu(U cap A) = nu(U) on every open
    assert res.valuation.evaluate(0b1) == nu.evaluate(0b10)


def test_support_check_witness_pair():
    nu = Valuation(SIER, (ExtRat(1, 3), ExtRat(2, 3)))
    with pytest.raises(NotSupported) as e:
        support_check(nu, ["top"])
    u, v = e.value.witness
    assert u.mask & nu.space.mask_of(["top"]) == v.mask & nu.space.mask_of(["top"])
    assert nu.evaluate(u.mask) != nu.evaluate(v.mask)


def test_support_check_with_masking_infinity():
    # the hidden 1/2 at bot is invisible: supported on {top} regardless
    nu = Valuation(SIER, (ExtRat(1, 2), INF))
    res = support_check(nu, ["top"])
    assert res.valuation.weights == (INF,)


# x0 < x2 < x3 and x1 < x2: every open holding x0 holds x2
MASKED_X = check_space(("x0", "x1", "x2", "x3"),
                       [("x0", "x2"), ("x1", "x2"), ("x2", "x3")],
                       transitive_closure=True)
MASKED_NU = Valuation(MASKED_X, (ExtRat(2), ExtRat(2), INF, INF))


def test_support_check_restricts_by_weights_past_a_masked_point():
    # x0's weight sits under x2's infinite one, so the traces on A agree;
    # the table of traces is infinite on every non-empty open and cannot
    # be inverted, but the weights on A restrict nu
    a_mask = MASKED_X.mask_of(["x1", "x2", "x3"])
    res = support_check(MASKED_NU, a_mask)
    assert res.space.labels == ("x1", "x2", "x3")
    assert res.valuation.weights == (ExtRat(2), INF, INF)
    assert brute_support(MASKED_NU, a_mask) == res.valuation
    for u in all_upsets(MASKED_X):
        trace = res.space.mask_of(MASKED_X.points_of(u & a_mask))
        assert res.valuation.evaluate(trace) == MASKED_NU.evaluate(u)


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=40)
def test_support_check_on_weighted_points_roundtrips(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu = rand_valuation(rng, sp)
    pts = nu.support_points()
    res = support_check(nu, pts)
    back = [ZERO] * sp.n
    for lab, w in zip(res.space.labels, res.valuation.weights):
        back[sp.index[lab]] = w
    assert valuations_equal(nu, Valuation(sp, tuple(back)))


def support_outcome(call):
    """What a support test gives, in terms both routes share."""
    try:
        nu = call()
    except NotSupported as err:
        return ("not supported", tuple(u.mask for u in err.witness))
    except NotSimple as err:
        return ("not simple", err.reason, err.witness)
    return ("supported", nu.space.labels, nu.weights)


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=80)
def test_support_check_with_infinite_weights_matches_the_trace_scan(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    weights = list(rand_valuation(rng, sp, inf_prob=0.3).weights)
    weights[rng.randrange(n)] = INF
    nu = Valuation(sp, tuple(weights))
    # half the subsets hold every weighted point, so both verdicts occur
    a_mask = rng.getrandbits(n)
    if rng.random() < 0.5:
        a_mask |= sp.mask_of(nu.support_points())
    want = support_outcome(lambda: brute_support(nu, a_mask))
    assert support_outcome(
        lambda: support_check(nu, a_mask).valuation) == want


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=80)
def test_support_check_on_a_table_matches_its_weights(seed, n):
    # a table is scanned trace by trace whatever its weights; its
    # verdict and witness are the weights' scan's, and its restriction
    # is the weights' restriction tabulated
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    weights = list(rand_valuation(rng, sp, inf_prob=0.3).weights)
    weights[rng.randrange(n)] = INF
    nu = Valuation(sp, tuple(weights))
    a_mask = rng.getrandbits(n)
    if rng.random() < 0.5:
        a_mask |= sp.mask_of(nu.support_points())
    try:
        want = support_check(nu, a_mask).valuation.tabulate()
    except NotSupported as err:
        with pytest.raises(NotSupported) as got:
            support_check(nu.tabulate(), a_mask)
        assert got.value.witness == err.witness
        return
    mu = support_check(nu.tabulate(), a_mask).valuation
    assert (mu.space, dict(mu.items())) == (want.space, dict(want.items()))


# --- a weight beyond float range next to an infinite one -------------------

# scaled by the denominator 3, a's weight is past 2**1024, where adding it
# to float inf raises OverflowError
BIG = ExtRat(2 ** 1100)
BIG_X = check_space(("a", "b", "c"), [("c", "a")])
BIG_NU = Valuation(BIG_X, (BIG, INF, ExtRat(1, 3)))


def test_beyond_float_weight_next_to_infinity_in_check_valuation():
    table = BIG_NU.tabulate()
    assert table.values == (ZERO, BIG, INF, INF, BIG + ExtRat(1, 3), INF)
    assert check_valuation(table).weights == BIG_NU.weights
    verdicts = []
    for k, v in enumerate(table.values):
        values = list(table.values)
        values[k] = BIG if not v.is_finite else INF
        try:
            nu = check_valuation(
                TabulatedSetFunction(BIG_X, table.masks, tuple(values)))
        except AxiomViolation as err:
            verdicts.append((err.axiom, [u.members for u in err.witness]))
        else:
            verdicts.append(nu.weights)
    assert verdicts == [
        ("strictness", [()]),
        ("monotonicity", [("a",), ("a", "c")]),
        ("modularity", [("a",), ("b",)]),
        ("modularity", [("a",), ("b",)]),
        # an infinite {a, c} is lawful: c weighs inf
        (BIG, INF, INF),
        ("modularity", [("b",), ("a", "c")]),
    ]


def test_beyond_float_weight_next_to_infinity_pushed_tight_and_limited():
    line = check_space(("q", "p"), [("q", "p")])
    both = MonotoneMap.from_dict(BIG_X, line, {"a": "p", "b": "p", "c": "q"})
    assert image_valuation(both, BIG_NU).weights == (ExtRat(1, 3), INF)
    for nu in (BIG_NU, BIG_NU.tabulate()):
        report = is_tight(nu)
        assert (report.verdict, report.composite_matches) == (True, True)
        assert sorted(
            (BIG_X.points_of(u), r, BIG_X.points_of(q))
            for (u, r), q in report.witnesses.items()) == sorted([
                ((), ZERO, ()),
                (("a",), ZERO, ()),
                (("b",), ZERO, ()),
                (("b",), BIG, ("b",)),
                (("b",), BIG + ExtRat(1, 3), ("b",)),
                (("a", "b"), ZERO, ()),
                (("a", "b"), BIG, ("a",)),
                (("a", "b"), BIG + ExtRat(1, 3), ("b",)),
                (("a", "c"), ZERO, ()),
                (("a", "c"), BIG, ("a",)),
                (("a", "b", "c"), ZERO, ()),
                (("a", "b", "c"), BIG, ("a",)),
                (("a", "b", "c"), BIG + ExtRat(1, 3), ("b",)),
            ])
    # an ep step folding c onto a
    pair = check_space(("p", "q"), [])
    fold = MonotoneMap.from_dict(BIG_X, pair, {"a": "p", "b": "q", "c": "p"})
    vs = ValuedSystem(PrefixChain((pair, BIG_X), (fold,)),
                      (image_valuation(fold, BIG_NU), BIG_NU))
    assert vs.valuations[0].weights == (BIG + ExtRat(1, 3), INF)
    lv = ep_limit_valuation(vs)
    assert lv.valuation.weights == BIG_NU.weights


def test_beyond_float_weight_next_to_infinity_in_support_check():
    got = {}
    for a_mask in range(1 << BIG_X.n):
        got[BIG_X.points_of(a_mask)] = support_outcome(
            lambda: support_check(BIG_NU, a_mask).valuation)
    refused = {
        (): ((), ("a", "b", "c")),
        ("a",): ((), ("b",)),
        ("b",): ((), ("a", "c")),
        ("c",): ((), ("a", "b")),
        ("a", "b"): (("a",), ("a", "c")),
        ("a", "c"): ((), ("b",)),
        ("b", "c"): ((), ("a",)),
    }
    assert got == {
        **{a: ("not supported", tuple(map(BIG_X.mask_of, pair)))
           for a, pair in refused.items()},
        ("a", "b", "c"): ("supported", ("a", "b", "c"), BIG_NU.weights),
    }


def test_nu_bullet_equals_table_on_upsets():
    nu = Valuation(SIER, (ExtRat(1, 4), ExtRat(1, 2)))
    nb = nu_bullet(nu)
    for m in nb.masks:
        assert nb.lookup(m) == nu.evaluate(m)


def test_mu_circ_recovers_valuation_from_nu_bullet():
    rng = random.Random(5)
    sp = rand_poset(rng, 5)
    nu = rand_valuation(rng, sp)
    comp = mu_circ(nu_bullet(nu))
    for m in comp.masks:
        assert comp.lookup(m) == nu.evaluate(m)


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=40)
def test_simple_valuations_are_tight(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu = rand_valuation(rng, sp, inf_prob=0.15)
    rep = is_tight(nu)
    assert rep.verdict
    assert rep.composite_matches
    # every recorded witness is a compact (= up-set) inside its open
    for (u, r), q in rep.witnesses.items():
        assert q & ~u == 0
        assert way_below(r, nu.evaluate(u))


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_is_tight_matches_brute_witness_search(seed, n):
    # same witnesses, recorded in the same order, as a linear scan
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    nu = rand_valuation(rng, sp, inf_prob=0.2)
    rep = is_tight(nu)
    matches, witnesses, failure = brute_tightness(nu.tabulate())
    assert rep.composite_matches == matches
    assert rep.failure == failure
    assert list(rep.witnesses.items()) == list(witnesses.items())


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_nu_bullet_and_mu_circ_match_brute_inf_and_sup(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    table = rand_valuation(rng, sp, inf_prob=0.2).tabulate()
    nb = nu_bullet(table)
    assert dict(nb.items()) == brute_inf_above(table)
    # mu_circ assumes no laws: a raw table with random values
    raw = TabulatedSetFunction(sp, table.masks, tuple(
        INF if rng.random() < 0.15 else ExtRat(rng.randint(0, 9), 4)
        for _ in table.masks), "upsets")
    assert dict(mu_circ(raw).items()) == brute_sup_below(raw)


def test_nu_bullet_refuses_a_table_that_is_not_monotone():
    table = TabulatedSetFunction(SIER, (0, 0b10, 0b11), (ZERO, ONE, ZERO))
    with pytest.raises(ValimError, match="inf over neighborhoods") as e:
        nu_bullet(table)
    assert e.value.witness == (UpSet(SIER, 0b11), "bot")


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_is_tight_refuses_exactly_the_tables_nu_bullet_refuses(seed, n):
    # raw tables, and their monotone hulls, which need not be modular
    rng = random.Random(seed)
    sp = rand_poset(rng, n)
    masks = tuple(sp.open_masks())
    raw = TabulatedSetFunction(sp, masks, tuple(
        INF if rng.random() < 0.1 else ExtRat(rng.randint(0, 9), 4)
        for _ in masks))
    hull = mu_circ(raw)
    for table in (raw, hull):
        try:
            nu_bullet(table)
        except ValimError as err:
            with pytest.raises(ValimError) as again:
                is_tight(table)
            assert (str(again.value), vars(again.value)) == (str(err),
                                                             vars(err))
            continue
        rep = is_tight(table)
        matches, witnesses, failure = brute_tightness(table)
        assert (rep.verdict, rep.composite_matches, rep.failure) == (
            matches, matches, failure)
        assert list(rep.witnesses.items()) == list(witnesses.items())


# 1,728 opens on 12 points: big enough for long staircases and many
# covers per open, small enough for the oracles' quadratic scans
SCALE_WEIGHTS = (ZERO, ExtRat(1, 2), ONE, ExtRat(3, 2), INF)


def test_whole_lattice_extremes_match_the_oracles_at_scale():
    rng = random.Random(0)
    sp = rand_poset(rng, 12, edge_prob=0.1)
    nu = Valuation(sp, tuple(rng.choice(SCALE_WEIGHTS) for _ in range(12)))
    table = nu.tabulate()
    assert len(table.masks) == 1728
    assert 0 < sum(not v.is_finite for v in table.values) < 1728
    assert dict(nu_bullet(table).items()) == brute_inf_above(table)
    raw = TabulatedSetFunction(sp, table.masks, tuple(
        INF if rng.random() < 0.1 else ExtRat(rng.randint(0, 99), 4)
        for _ in table.masks), "upsets")
    assert dict(mu_circ(raw).items()) == brute_sup_below(raw)
    rep = is_tight(table)
    matches, witnesses, failure = brute_tightness(table)
    assert (rep.composite_matches, rep.failure) == (matches, failure)
    assert list(rep.witnesses.items()) == list(witnesses.items())


ANTICHAIN3 = FiniteSpace(("a", "b", "c"), (0b001, 0b010, 0b100))


@pytest.mark.parametrize("op", [nu_bullet, mu_circ, is_tight])
def test_whole_lattice_operations_hold_tables_to_the_size_guard(op):
    # as check_valuation does, and as the Valuation path always did
    table = Valuation(ANTICHAIN3, (ONE, ZERO, ONE)).tabulate()
    with pytest.raises(SizeLimit):
        op(table, max_opens=4)


@pytest.mark.parametrize("op", [nu_bullet, mu_circ, is_tight])
def test_whole_lattice_operations_refuse_tables_off_the_lattice(op):
    full = Valuation(ANTICHAIN3, (ONE, ZERO, ONE)).tabulate()
    table = TabulatedSetFunction(ANTICHAIN3, full.masks[:3], full.values[:3])
    with pytest.raises(NotOnLattice):
        op(table)


def test_tightness_witness_lookup():
    nu = Valuation(SIER, (ExtRat(1, 3), ExtRat(2, 3)))
    rep = is_tight(nu)
    q = rep.witness(UpSet(SIER, 0b11), ExtRat(2, 3))
    assert q is not None and q.mask & ~0b11 == 0
    assert nu.evaluate(q.mask) >= ExtRat(2, 3)


def test_tightness_witnesses_are_a_read_only_mapping():
    rng = random.Random(3)
    sp = rand_poset(rng, 6, edge_prob=0.3)
    nu = rand_valuation(rng, sp, inf_prob=0.2)
    table = nu.tabulate()
    rep = is_tight(table)
    _, witnesses, _ = brute_tightness(table)
    view = rep.witnesses
    assert isinstance(view, Mapping)
    assert not isinstance(view, dict)
    assert dict(view) == witnesses
    assert view == witnesses and witnesses == view
    assert len(view) == len(witnesses) > 0
    assert list(view) == list(witnesses)
    assert list(view.values()) == list(witnesses.values())
    for key, q in witnesses.items():
        assert key in view
        assert view[key] == view.get(key) == q
        assert rep.witness(UpSet(sp, key[0]), key[1]) == UpSet(sp, q)
    # absent: an open not of the lattice, a rational not tried, one not
    # way below the open's value, infinity, and keys of the wrong shape
    top = max(v for v in table.values if v.is_finite)
    assert top > ZERO
    untried = top + ExtRat(1, 7)
    full = sp.full_mask
    absent = [(full + 1, ZERO), (full, untried), (0, top), (full, INF),
              (full, 0), full, (full, ZERO, ZERO)]
    for key in absent:
        assert key not in view
        assert view.get(key) is None
        assert view.get(key, "none") == "none"
        with pytest.raises(KeyError):
            view[key]
    assert rep.witness(full, untried) is None
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep
    assert list(back.witnesses.items()) == list(witnesses.items())


def test_is_tight_on_a_valuation_builds_witnesses_on_first_read(
        monkeypatch):
    # a valuation is monotone as it stands: no cover pass, and nothing of
    # the witnesses until they are read; then one walk, and each distinct
    # value decoded and hashed once, with no per-entry dict keyed by
    # ExtRat
    rng = random.Random(7)
    sp = rand_poset(rng, 7, edge_prob=0.2)
    nu = rand_valuation(rng, sp, inf_prob=0.1)
    calls = {"_check_covers": 0, "_walk_below": 0, "_ext": 0}
    hashes = []
    for name in calls:
        def counted(*args, _real=getattr(valuation_module, name),
                    _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(valuation_module, name, counted)
    real_hash = ExtRat.__hash__

    def counting_hash(self):
        hashes.append(self)
        return real_hash(self)
    monkeypatch.setattr(ExtRat, "__hash__", counting_hash)
    rep = is_tight(nu)
    assert calls == {"_check_covers": 0, "_walk_below": 0, "_ext": 0}
    assert hashes == []
    distinct = set(nu.tabulate()._scaled[1])
    items = list(rep.witnesses.items())
    assert calls["_check_covers"] == 0
    assert calls["_walk_below"] == 1
    assert calls["_ext"] <= len(distinct)
    assert len(hashes) <= len(distinct) + 1
    assert len(rep.witnesses) == len(items) > 2 * len(distinct)
    list(rep.witnesses.ascending())
    assert calls["_walk_below"] == 1


def test_local_finiteness_flags_infinite_opens():
    nu = Valuation(SIER, (ZERO, INF))
    rep = is_locally_finite(nu)
    assert not rep.verdict
    fin = is_locally_finite(Valuation(SIER, (ONE, ONE)))
    assert fin.verdict


def test_tabulated_set_function_lookup_and_items():
    t = Valuation(SIER, (ONE, ZERO)).tabulate()
    assert t.lookup(0) == ZERO
    assert dict(t.items())[0b11] == ONE
    with pytest.raises(Exception):
        t.lookup(0b01)  # not an up-set, never tabulated


# Denominators whose least common multiple passes 2**64, so the scaled
# integers behind evaluate and image_valuation outgrow a machine word.
BIG_DENS = (1, 3, 2**31 - 1, 10**9 + 7, 2**61 - 1)


def mixed_weights(rng, n):
    """Zero, infinite and large-denominator weights."""
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.15:
            out.append(ZERO)
        elif r < 0.25:
            out.append(INF)
        else:
            den = rng.choice(BIG_DENS)
            out.append(ExtRat(Fraction(rng.randint(1, 3 * den), den)))
    return tuple(out)


def check_evaluate_against_oracle(nu):
    opens = set(all_upsets(nu.space))
    for m in range(1 << nu.space.n):
        if m in opens:
            assert nu.evaluate(m) == mask_value(nu, m)
            assert nu.evaluate(UpSet(nu.space, m)) == mask_value(nu, m)
        else:
            with pytest.raises(ValimError, match="evaluate opens only"):
                nu.evaluate(m)
    assert nu.total() == mask_value(nu, nu.space.full_mask)


@given(seeds, st.integers(min_value=0, max_value=7))
@settings(max_examples=40, deadline=None)
def test_evaluate_and_total_match_mask_value(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n, edge_prob=rng.uniform(0.1, 0.7))
    check_evaluate_against_oracle(Valuation(sp, mixed_weights(rng, sp.n)))


def test_evaluate_past_a_machine_word():
    chain = FiniteSpace(("a", "b", "c", "d"),
                        (0b1111, 0b1110, 0b1100, 0b1000))
    weights = (ExtRat(1, 2**61 - 1), ExtRat(2, 10**9 + 7),
               ExtRat(5, 2**31 - 1), ZERO)
    assert (2**61 - 1) * (10**9 + 7) * (2**31 - 1) > 2**64
    nu = Valuation(chain, weights)
    check_evaluate_against_oracle(nu)
    assert nu.total() == ExtRat(Fraction(1, 2**61 - 1)
                                + Fraction(2, 10**9 + 7)
                                + Fraction(5, 2**31 - 1))
    with_inf = Valuation(chain, (INF,) + weights[1:])
    check_evaluate_against_oracle(with_inf)
    assert with_inf.total() == INF
    assert with_inf.evaluate(0b1110) == ExtRat(Fraction(2, 10**9 + 7)
                                               + Fraction(5, 2**31 - 1))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_image_valuation_matches_push_weights(seed):
    from valim.generators import rand_monotone_map

    rng = random.Random(seed)
    src = rand_poset(rng, rng.randint(1, 7), edge_prob=rng.uniform(0.1, 0.7))
    dst = rand_poset(rng, rng.randint(1, 5), edge_prob=rng.uniform(0.1, 0.7))
    f = rand_monotone_map(rng, src, dst)
    nu = Valuation(src, mixed_weights(rng, src.n))
    pushed = image_valuation(f, nu)
    assert pushed.space == dst
    assert pushed.weights == push_weights(f, nu).weights
    check_evaluate_against_oracle(pushed)


@given(seeds, st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_first_differing_mask_matches_brute_scan(seed, n):
    rng = random.Random(seed)
    sp = rand_poset(rng, n, edge_prob=rng.uniform(0.1, 0.7))
    nu_a = Valuation(sp, mixed_weights(rng, n))
    # redraw some weights, so that the first difference can land anywhere
    weights = list(nu_a.weights)
    for i in rng.sample(range(n), rng.randint(0, n)):
        weights[i] = mixed_weights(rng, 1)[0]
    nu_b = Valuation(sp, tuple(weights))
    masks = all_upsets(sp)
    rng.shuffle(masks)
    masks = masks[:rng.randint(0, len(masks))]
    assert (first_differing_mask(nu_a, nu_b, masks)
            == brute_first_differing_mask(nu_a, nu_b, masks))


def test_first_differing_mask_edge_cases():
    chain = FiniteSpace(("a", "b", "c"), (0b111, 0b110, 0b100))
    opens = [0b000, 0b100, 0b110, 0b111]
    weights = (ExtRat(1, 2**61 - 1), ExtRat(2, 10**9 + 7),
               ExtRat(5, 2**31 - 1))
    nu = Valuation(chain, weights)
    b_moved = Valuation(chain, (weights[0], ExtRat(3, 10**9 + 7), weights[2]))
    # the lcm of the denominators outgrows a machine word
    assert first_differing_mask(nu, b_moved, opens) == 0b110
    assert first_differing_mask(nu, nu, opens) is None
    # the first mask in the given order, not in (size, mask) order
    assert first_differing_mask(nu, b_moved, opens[::-1]) == 0b111
    assert first_differing_mask(nu, b_moved, [0b000, 0b100]) is None
    # infinity against a finite weight, and infinite weights on both sides
    # hiding different finite weights below them
    c_inf = Valuation(chain, weights[:2] + (INF,))
    assert first_differing_mask(nu, c_inf, opens) == 0b100
    hidden = Valuation(chain, (ONE, ExtRat(7), INF))
    assert first_differing_mask(c_inf, hidden, opens) is None
    for got, other in ((nu, b_moved), (nu, c_inf), (c_inf, hidden)):
        assert (first_differing_mask(got, other, opens[::-1])
                == brute_first_differing_mask(got, other, opens[::-1]))
    with pytest.raises(ValimError, match="different spaces"):
        first_differing_mask(nu, Valuation(SIER, (ONE, ONE)), [0])


# --- refusals name their mask ---------------------------------------------

CHAIN_AB = FiniteSpace(("a", "b"), (0b11, 0b10))


def test_evaluate_off_the_opens_names_the_points():
    # on the chain a < b, {a} is not an up-set
    nu = Valuation(CHAIN_AB, (ONE, ONE))
    with pytest.raises(ValimError) as err:
        nu.evaluate(0b01)
    assert str(err.value) == (
        "valuations evaluate opens only: ('a',) is not an up-set")


def test_decompose_off_the_opens_names_the_points():
    # the weights reproduce every row, so the non-open row is what fails
    table = TabulatedSetFunction(CHAIN_AB, (0b00, 0b01, 0b10, 0b11), tuple(
        ExtRat(v) for v in (0, 1, 1, 2)))
    with pytest.raises(ValimError) as err:
        decompose_simple(table)
    assert str(err.value) == (
        "valuations evaluate opens only: ('a',) is not an up-set")


def test_duplicate_masks_name_the_first_repeated_row():
    masks = (0b00, 0b10, 0b11, 0b10, 0b11)
    with pytest.raises(ValimError) as err:
        TabulatedSetFunction(CHAIN_AB, masks, (ZERO,) * len(masks))
    assert str(err.value) == (
        "duplicate masks in table: rows 1 and 3 both hold 0b10")
