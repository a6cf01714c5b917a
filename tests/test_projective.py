import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    CompactFamily,
    CylinderOpen,
    EventualImage,
    ExtRat,
    FiniteSpace,
    LazyChain,
    MonotoneMap,
    PosetSystem,
    PrefixChain,
    UpSet,
    Valuation,
    ValuedSystem,
    check_compatibility,
    check_ep_system,
    check_space,
    check_system,
    compose,
    cylinder_join,
    cylinder_meet,
    cylinders_equal,
    embedding_from_projection,
    eventual_images,
    find_dominating_level,
    identity_map,
    limit_ep_structure,
    materialize_limit,
    projective,
    steenrod_nonempty,
    upper_adjoint,
    upper_adjoints,
    verify_ep_limit_laws,
)
from valim.constructions import (
    marginal_family_from_joint,
    subset_product_system,
)
from valim.errors import ValimError
from valim.extreal import INF
from valim.generators import (
    rand_ep_prefix_chain,
    rand_monotone_map,
    rand_poset,
    rand_poset_system,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
    shrinking_injection_chain,
)
from valim.order import NotEpPair, lift
from valim.projective import (
    BondLawViolation,
    EpLawViolation,
    Incompatible,
    InconclusiveAtDepth,
    NotAProjection,
    NotDirected,
    _compatibility_scan,
    _ep_scan,
    _system_scan,
)
from valim.valuation import _pushes_to

from _oracles import all_upsets, brute_adjoint_mask, brute_eventual_image

seeds = st.integers(min_value=0, max_value=10_000)


def truncation_chain(n):
    """Levels {0..k} as chains, step k+1 -> k clamps the top point."""
    spaces, steps = [], []
    for k in range(1, n + 1):
        up = tuple(((1 << k) - 1) & ~((1 << i) - 1) for i in range(k))
        spaces.append(FiniteSpace(tuple(f"x{i}" for i in range(k)), up))
    for k in range(n - 1):
        src, dst = spaces[k + 1], spaces[k]
        steps.append(MonotoneMap(src, dst, tuple(min(i, k) for i in range(k + 2))))
    return PrefixChain(tuple(spaces), tuple(steps))


def test_prefix_chain_identity_tail():
    ch = truncation_chain(3)
    assert ch.space(10) is ch.spaces[-1]
    assert ch.bond(2, 99).is_identity()
    assert ch.bond(0, 2)("x2") == "x0"


def test_prefix_chain_step_alignment_enforced():
    a = FiniteSpace(("p",), (1,))
    b = FiniteSpace(("q", "r"), (0b11, 0b10))
    with pytest.raises(BondLawViolation):
        check_system(PrefixChain((a, b), (MonotoneMap(b, b, (0, 1)),)))
    check_system(PrefixChain((a, b), (MonotoneMap(b, a, (0, 0)),)))


def test_poset_system_completes_missing_bonds_by_composition():
    idx = check_space(("lo", "mid", "hi"), [("lo", "mid"), ("mid", "hi")],
                      transitive_closure=True)
    s0 = FiniteSpace(("a",), (1,))
    s1 = FiniteSpace(("a", "b"), (0b11, 0b10))
    s2 = FiniteSpace(("a", "b", "c"), (0b111, 0b110, 0b100))
    b01 = MonotoneMap(s1, s0, (0, 0))
    b12 = MonotoneMap(s2, s1, (0, 1, 1))
    sys = PosetSystem(idx, (s0, s1, s2), {(0, 1): b01, (1, 2): b12})
    check_system(sys)
    # the skipped pair was filled in by composing along covers
    assert sys.bond(0, 2)("c") == "a"
    assert sys.top_index() == 2


def test_poset_system_requires_directed_index():
    two = FiniteSpace(("i", "j"), (0b01, 0b10))  # antichain: not directed
    pt = FiniteSpace(("p",), (1,))
    with pytest.raises(NotDirected):
        PosetSystem(two, (pt, pt), {})


def test_check_system_catches_inconsistent_composite():
    idx = check_space(("lo", "mid", "hi"), [("lo", "mid"), ("mid", "hi")],
                      transitive_closure=True)
    s = FiniteSpace(("a", "b"), (0b01, 0b10))
    ident = identity_map(s)
    swap_free = MonotoneMap(s, s, (0, 1))
    # direct bond lo<-hi contradicts the composite through mid
    bonds = {(0, 1): ident, (1, 2): swap_free,
             (0, 2): MonotoneMap(s, s, (1, 0))}
    sys = PosetSystem(idx, (s, s, s), bonds)
    with pytest.raises(BondLawViolation) as e:
        check_system(sys)
    assert e.value.law == "composition"
    assert e.value.witness == ("lo", "mid", "hi")


@pytest.mark.parametrize("shape", ["chain2", "chain3", "chain4", "vee",
                                   "square"])
@pytest.mark.parametrize("seed", range(4))
def test_check_system_composes_only_where_routes_part(shape, seed,
                                                      monkeypatch):
    sys = rand_poset_system(random.Random(seed), shape)
    calls = []
    real = projective.compose
    with monkeypatch.context() as m:
        m.setattr(projective, "compose",
                  lambda f, g: calls.append(1) or real(f, g))
        assert check_system(sys) is sys
    # one route of covers joins any two indices of a chain or a vee; a
    # square's two routes from its top to its bottom are compared
    assert len(calls) == (2 if shape == "square" else 0)


def test_check_compatibility_accepts_and_refuses():
    ch = truncation_chain(3)
    top = Valuation(ch.spaces[-1],
                    (ExtRat(1, 6), ExtRat(1, 3), ExtRat(1, 2)))
    mids = [top]
    for k in (1, 0):
        f = ch.bond(k, 2)
        from _oracles import push_weights

        mids.append(push_weights(f, top))
    vs = ValuedSystem(ch, (mids[2], mids[1], top))
    check_compatibility(vs)

    broken = ValuedSystem(
        ch, (Valuation(ch.spaces[0], (ExtRat(1, 7),)), mids[1], top)
    )
    with pytest.raises(Incompatible) as e:
        check_compatibility(broken)
    assert e.value.pair[0] == 0


def test_check_compatibility_accepts_weights_masked_by_infinity():
    # every open holding a holds b, so below b's infinite weight a's
    # finite one is invisible: (2, inf) and (1, inf) agree on every open
    # though their weights differ, and only the open-by-open comparison
    # can tell
    chain = FiniteSpace(("a", "b"), (0b11, 0b10))
    index = FiniteSpace(("lo", "hi"), (0b11, 0b10))
    sys = PosetSystem(index, (chain, chain), {(0, 1): identity_map(chain)})
    lo = Valuation(chain, (ExtRat(2), INF))
    hi = Valuation(chain, (ExtRat(1), INF))
    assert not _pushes_to(sys.bond(0, 1), hi, lo)
    vs = ValuedSystem(sys, (lo, hi))
    assert check_compatibility(vs) is vs
    # with b finite, a's weight shows on the open {a, b}
    finite = ValuedSystem(sys, (Valuation(chain, (ExtRat(2), ExtRat(1))),
                                Valuation(chain, (ExtRat(1), ExtRat(1)))))
    with pytest.raises(Incompatible) as e:
        check_compatibility(finite)
    assert (e.value.pair, e.value.witness.members) == ((0, 1), ("a", "b"))


def test_materialize_limit_prefix_is_last_level():
    ch = truncation_chain(4)
    lim = materialize_limit(ch)
    assert lim.space is ch.spaces[-1]
    assert lim.projection(0)("x3") == "x0"
    assert lim.projection(99).is_identity()


def test_materialize_limit_poset_threads():
    idx = check_space(("lo", "hi"), [("lo", "hi")])
    s0 = FiniteSpace(("a",), (1,))
    s1 = FiniteSpace(("u", "v"), (0b11, 0b10))
    sys = PosetSystem(idx, (s0, s1), {(0, 1): MonotoneMap(s1, s0, (0, 0))})
    lim = materialize_limit(sys)
    assert lim.space.n == 2
    # each thread lists its component at every index
    assert set(lim.space.labels) == {("a", "u"), ("a", "v")}
    for t, lab in enumerate(lim.space.labels):
        for i in sys.indices():
            assert lim.projection(i)(lab) == lab[i]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_upper_adjoint_matches_brute_force(seed):
    rng = random.Random(seed)
    ch = rand_prefix_chain(rng, levels=3, max_n=4)
    lim = materialize_limit(ch)
    i = rng.randrange(len(ch.spaces))
    for u_mask in all_upsets(lim.space):
        u = UpSet(lim.space, u_mask)
        got = upper_adjoint(lim, i, u)
        assert got.mask == brute_adjoint_mask(lim, i, u_mask)
        # Galois law, both directions
        assert lim.projection(i).preimage_mask(got.mask) & ~u_mask == 0


def assert_adjoint_laws(lim, i):
    """upper_adjoints and upper_adjoint at index i, on every open of the
    limit, against the brute-force adjoint, and the Galois law both
    ways: an open V at i has its cylinder inside u exactly when V is
    inside u's adjoint."""
    p = lim.projection(i)
    masks = lim.space.open_masks()
    level = all_upsets(p.target)
    for u_mask, got in zip(masks, upper_adjoints(lim, i, masks),
                           strict=True):
        assert got == brute_adjoint_mask(lim, i, u_mask)
        assert upper_adjoint(lim, i, UpSet(lim.space, u_mask)).mask == got
        for v in level:
            assert (p.preimage_mask(v) & ~u_mask == 0) == (v & ~got == 0)


@given(seeds, st.sampled_from(
    ["prefix", "chain2", "chain3", "chain4", "vee", "square"]))
@settings(max_examples=60, deadline=None)
def test_upper_adjoints_match_brute_force_on_every_system(seed, kind):
    rng = random.Random(seed)
    if kind == "prefix":
        sys = rand_prefix_chain(rng, rng.randint(1, 4), 5)
    else:
        sys = rand_valued_poset_system(rng, kind, max_top=6).system
    lim = materialize_limit(sys)
    for i in sys.indices():
        assert_adjoint_laws(lim, i)


@given(seeds, st.sampled_from([0, 1, 5, 8, 9, 16, 17, 20, 24, 30]),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_preimage_masks_match_preimage_mask(seed, n, count):
    # empty targets, one and two bytes of points, three direct lookups
    # at 17-24 points, and byte columns past them
    rng = random.Random(seed)
    dst = rand_poset(rng, n, 0.1)
    src = rand_poset(rng, rng.randint(0, 12) if n else 0, 0.3)
    f = rand_monotone_map(rng, src, dst)
    masks = [rng.getrandbits(n) for _ in range(count)] + [0, dst.full_mask]
    assert f.preimage_masks(masks) == [f.preimage_mask(m) for m in masks]
    with pytest.raises(IndexError):
        f.preimage_masks(masks + [1 << n])


def test_embedding_from_projection_least_preimage():
    big = FiniteSpace(("bot", "x", "y"), (0b111, 0b010, 0b100))
    small = FiniteSpace(("pt",), (1,))
    p = MonotoneMap(big, small, (0, 0, 0))
    pair = embedding_from_projection(p)
    assert pair.embedding("pt") == "bot"


def test_embedding_from_projection_refuses_no_least():
    big = FiniteSpace(("x", "y"), (0b01, 0b10))  # no least point
    small = FiniteSpace(("pt",), (1,))
    p = MonotoneMap(big, small, (0, 0))
    with pytest.raises(NotAProjection) as e:
        embedding_from_projection(p)
    assert set(e.value.candidates) == {"x", "y"}


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_ep_chains_satisfy_limit_laws(seed):
    rng = random.Random(seed)
    ch = rand_ep_prefix_chain(rng, levels=3, max_n=4)
    eps = check_ep_system(ch)
    lim = materialize_limit(ch)
    pairs = limit_ep_structure(lim, eps)
    verify_ep_limit_laws(lim, pairs)


@pytest.mark.parametrize("seed", range(8))
def test_check_ep_system_walks_a_chain_s_bonds_once(seed, monkeypatch):
    rng = random.Random(seed)
    ch = rand_ep_prefix_chain(rng, levels=5, max_n=4)
    calls = []
    real = PrefixChain.bond
    with monkeypatch.context() as m:
        m.setattr(PrefixChain, "bond",
                  lambda self, i, j: calls.append((i, j)) or real(self, i, j))
        eps = check_ep_system(ch)
    # only the steps are validated, and no bond is composed for them
    assert calls == []
    assert set(eps._cache) == {(k, k + 1) for k in range(ch.last)}
    for k, step in enumerate(ch.steps):
        assert eps._cache[k, k + 1] == embedding_from_projection(step)
    # every other pair on demand: the bond's own pair, whose embedding
    # is the composite of the step embeddings above it
    for i in ch.indices():
        e = identity_map(ch.spaces[i])
        for j in range(i, ch.last + 1):
            if j > i:
                e = compose(eps.embedding(j - 1, j), e)
            pair = eps.pair(i, j)
            assert pair == embedding_from_projection(ch.bond(i, j))
            assert pair.embedding == e


SHAPES = ("prefix", "ep chain", "chain2", "chain3", "chain4", "vee",
          "square", "deep square", "subset")
FAMILIES = ("lawful", "broken diamond", "broken non-cover", "non-ep cover",
            "gained weight", "masked")


def deep_square(rng, broken):
    """A square o < a, b < t whose bottom space is not a point, so its
    two routes down can differ: they agree unless broken, when o <- b is
    drawn at random."""
    idx = check_space(("o", "a", "b", "t"),
                      [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")],
                      transitive_closure=True)
    xo, xa, xt = (rand_poset(rng, rng.randint(1, 4), 0.35, p)
                  for p in "oat")
    oa, at = rand_monotone_map(rng, xa, xo), rand_monotone_map(rng, xt, xa)
    ob = rand_monotone_map(rng, xt, xo) if broken else compose(oa, at)
    return PosetSystem(idx, (xo, xa, xt, xt),
                       {(0, 1): oa, (1, 3): at, (0, 2): ob,
                        (2, 3): identity_map(xt)})


def rebond(rng, sys, pairs):
    """sys with the bond of one of the index pairs drawn at random."""
    i, j = rng.choice(pairs)
    bonds = {(a, b): f for a, b, f in sys.given()}
    bonds[i, j] = rand_monotone_map(rng, sys.space(j), sys.space(i))
    return PosetSystem(sys.index_poset, sys.spaces, bonds)


def system_family(seed, shape, kind):
    """A valued system of the given shape and kind: lawful (pushed
    marginals); with a diamond whose routes down may differ; with a
    given bond that is not a cover drawn at random; with a cover that
    need not be an ep projection; with a marginal that gained weight; or
    with that gain placed below an infinite weight where one exists, so
    that it may be masked.  A shape that cannot carry the kind's fault
    gives way to a square whose bottom is not a point."""
    rng = random.Random(seed)
    levels = rng.randint(2, 5)
    if shape in ("prefix", "ep chain"):
        sys = rand_ep_prefix_chain(rng, levels, max_n=5)
        if shape == "ep chain":
            idx = check_space(range(levels),
                              [(k, k + 1) for k in range(levels - 1)],
                              transitive_closure=True)
            sys = PosetSystem(idx, sys.spaces, {
                (k, k + 1): f for k, f in enumerate(sys.steps)})
    elif shape == "deep square":
        sys = deep_square(rng, False)
    elif shape == "subset":
        factors = [lift(rand_poset(rng, rng.randint(1, 2)))
                   for _ in range(rng.randint(2, 3))]
        sys, _ = subset_product_system(factors)
    else:
        sys = rand_poset_system(rng, shape, max_top=5)
    if kind == "broken diamond":
        sys = deep_square(rng, True)
    elif kind == "broken non-cover":
        if shape == "prefix":
            sys = rand_poset_system(rng, "chain4", max_top=5)
        covers = {(i, j) for i, j, _ in sys.covers()}
        pairs = [(i, j) for i in sys.indices() for j in sys.indices()
                 if i != j and sys.index_leq(i, j) and (i, j) not in covers]
        sys = rebond(rng, sys if pairs else deep_square(rng, False),
                     pairs or [(0, 3)])
    elif kind == "non-ep cover":
        if shape == "prefix":
            if rng.random() < 0.5:
                sys = rand_prefix_chain(rng, levels, max_n=4)
            else:
                k = rng.randrange(levels - 1)
                steps = list(sys.steps)
                steps[k] = rand_monotone_map(rng, sys.spaces[k + 1],
                                             sys.spaces[k])
                sys = PrefixChain(sys.spaces, tuple(steps))
        else:
            sys = rebond(rng, sys, [(i, j) for i, j, _ in sys.covers()])
    inf_prob = 0.4 if kind == "masked" else 0.0
    if shape == "prefix" and kind not in ("broken diamond",
                                          "broken non-cover"):
        vs = rand_valued_chain(rng, sys, inf_prob=inf_prob)
    else:
        top = sys.space(sys.top_index())
        vs = marginal_family_from_joint(
            sys, rand_valuation(rng, top, inf_prob=inf_prob))
    if kind in ("gained weight", "masked"):
        k = rng.choice(list(sys.indices()))
        sp, weights = sys.space(k), list(vs.val(k).weights)
        masked = [x for x in range(sp.n)
                  if any(weights[y] == INF for y in range(sp.n)
                         if y != x and (sp.up[x] >> y) & 1)]
        x = rng.choice(masked) if kind == "masked" and masked \
            else rng.randrange(sp.n)
        weights[x] = weights[x] + ExtRat(1, rng.randint(1, 3))
        vals = list(vs.valuations)
        vals[k] = Valuation(sp, tuple(weights))
        vs = ValuedSystem(sys, tuple(vals))
    return sys, vs


def refusal_or(call, arg, accepted):
    """What a check gives: the refusal's type and attributes, or
    accepted(result)."""
    try:
        out = call(arg)
    except (BondLawViolation, Incompatible, NotAProjection, NotEpPair,
            EpLawViolation) as err:
        return type(err), vars(err)
    return accepted(out)


@given(seeds, st.sampled_from(SHAPES), st.sampled_from(FAMILIES))
@settings(max_examples=400, deadline=None)
def test_step_checks_match_the_full_scans(seed, shape, kind):
    # the cover walks give what the scans over every pair and triple give
    sys, vs = system_family(seed, shape, kind)
    idxs = sys.indices()

    def pairs(eps):
        return [eps.pair(i, j) for i in idxs for j in idxs
                if sys.index_leq(i, j)]
    assert refusal_or(check_system, sys, lambda out: out is sys) == \
        refusal_or(_system_scan, sys, lambda out: out is sys)
    assert refusal_or(check_ep_system, sys, pairs) == \
        refusal_or(lambda s: _ep_scan(_system_scan(s)), sys, pairs)
    assert refusal_or(check_compatibility, vs, lambda out: out is vs) == \
        refusal_or(_compatibility_scan, vs, lambda out: True)


def test_non_ep_bond_is_refused():
    big = FiniteSpace(("x", "y"), (0b01, 0b10))
    small = FiniteSpace(("pt",), (1,))
    ch = PrefixChain((small, big), (MonotoneMap(big, small, (0, 0)),))
    with pytest.raises(NotAProjection):
        check_ep_system(ch)


def test_cylinder_meet_join_and_rebase():
    ch = truncation_chain(3)
    c1 = CylinderOpen(ch, 1, UpSet(ch.spaces[1], 0b10))
    c2 = CylinderOpen(ch, 2, UpSet(ch.spaces[2], 0b100))
    met = cylinder_meet(c1, c2)
    assert met.level <= 2
    lim = materialize_limit(ch)
    assert met.denotation(lim).mask == (
        c1.denotation(lim).mask & c2.denotation(lim).mask
    )
    joined = cylinder_join(c1, c2)
    assert joined.denotation(lim).mask == (
        c1.denotation(lim).mask | c2.denotation(lim).mask
    )


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_cylinders_equal_iff_same_denotation(seed):
    rng = random.Random(seed)
    ch = rand_prefix_chain(rng, levels=3, max_n=4)
    lim = materialize_limit(ch)
    picks = []
    for _ in range(2):
        i = rng.randrange(len(ch.spaces))
        opens = all_upsets(ch.spaces[i])
        picks.append(
            CylinderOpen(ch, i, UpSet(ch.spaces[i], rng.choice(opens)))
        )
    c1, c2 = picks
    same = c1.denotation(lim).mask == c2.denotation(lim).mask
    assert cylinders_equal(c1, c2) == same


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_eventual_images_prefix_matches_iteration(seed):
    rng = random.Random(seed)
    ch = rand_prefix_chain(rng, levels=4, max_n=4)
    top = len(ch.spaces) - 1
    for i in range(len(ch.spaces)):
        img = eventual_images(ch, i)
        assert img.exact
        # identity tail: the image from the last level is already eventual
        assert img.mask == brute_eventual_image(ch, i, top)


def test_eventual_images_lazy_is_upper_bound():
    sp = FiniteSpace(("a", "b"), (0b01, 0b10))
    drop = MonotoneMap(sp, sp, (0, 0))
    lazy = LazyChain(lambda n: sp, lambda k: drop, depth=3)
    img = eventual_images(lazy, 0)
    assert not img.exact
    assert img.members == ("a",)
    with pytest.raises(InconclusiveAtDepth):
        eventual_images(lazy, 7)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_steenrod_thread_is_a_real_thread(seed):
    rng = random.Random(seed)
    ch = rand_prefix_chain(rng, levels=4, max_n=5)
    res = steenrod_nonempty(ch)
    assert res.nonempty
    for k in range(len(ch.spaces) - 1):
        assert ch.steps[k](res.thread[k + 1]) == res.thread[k]


def test_steenrod_reports_first_empty_level():
    ch = shrinking_injection_chain(3, depth=5)
    res = steenrod_nonempty(ch)
    assert not res.nonempty
    assert res.empty_at == 3  # sizes 3,2,1,0,...


def test_steenrod_poset_system_thread():
    rng = random.Random(11)
    sys = rand_poset_system(rng)
    res = steenrod_nonempty(sys)
    assert res.nonempty
    lim = materialize_limit(sys)
    assert res.thread in lim.space.labels


def test_steenrod_lazy_chain_inconclusive():
    sp = FiniteSpace(("a",), (1,))
    lazy = LazyChain(lambda n: sp, lambda k: identity_map(sp), depth=2)
    with pytest.raises(InconclusiveAtDepth):
        steenrod_nonempty(lazy)


def test_compact_family_verify_and_limit_mask():
    ch = truncation_chain(3)
    parts = tuple(
        UpSet(sp, sp.up[sp.n - 1]) for sp in ch.spaces
    )  # top point of every level
    fam = CompactFamily(ch, parts).verify()
    lim = materialize_limit(ch)
    mask = fam.limit_mask(lim)
    assert lim.space.points_of(mask) == ("x2",)

    bad = CompactFamily(
        ch, (UpSet(ch.spaces[0], 0),) + parts[1:]
    )
    with pytest.raises(ValimError):
        bad.verify()


def test_find_dominating_level():
    ch = truncation_chain(3)
    parts = tuple(UpSet(sp, sp.up[sp.n - 1]) for sp in ch.spaces)
    fam = CompactFamily(ch, parts).verify()
    lim = materialize_limit(ch)
    u = UpSet(ch.spaces[0], ch.spaces[0].full_mask)
    j = find_dominating_level(lim, 0, fam, u)
    assert j in ch.indices()
    # precondition enforcement: an open missing the projected family
    with pytest.raises(ValimError):
        find_dominating_level(lim, 0, fam, UpSet(ch.spaces[0], 0))


def test_eventual_image_members_type():
    img = EventualImage(FiniteSpace(("a",), (1,)), 1, True)
    assert img.members == ("a",)


def test_failed_selection_names_its_level(monkeypatch):
    # with every image taken as the whole level, the bottom choice is
    # "b", which the one point above does not map to
    x0 = FiniteSpace(("b", "a"), (0b01, 0b10))
    x1 = FiniteSpace(("c",), (0b1,))
    ch = PrefixChain((x0, x1), (MonotoneMap(x1, x0, (1,)),))
    assert steenrod_nonempty(ch).thread == ("a", "c")
    monkeypatch.setattr(MonotoneMap, "image_mask",
                        lambda f, mask: f.target.full_mask)
    with pytest.raises(ValimError) as err:
        steenrod_nonempty(ch)
    assert str(err.value) == (
        "selection through eventual images failed at level 1")
