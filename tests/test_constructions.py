import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valim import (
    BondLawViolation,
    LimitLawViolation,
    CylinderOpen,
    ExtRat,
    FiniteSpace,
    Incompatible,
    MonotoneMap,
    NoWitness,
    NotPointed,
    NotUniformlyTight,
    PosetSystem,
    PrefixChain,
    SizeLimit,
    UpSet,
    Valuation,
    ValuedSystem,
    dk_product,
    ep_limit_valuation,
    image_valuation,
    loccomp_certificate,
    marginal_family_from_joint,
    marginals_from_joint,
    materialize_limit,
    point_mass,
    pointed_product_valuation,
    prohorov_limit,
    subset_product_system,
    check_system,
    uniform_tightness_check,
    valuations_equal,
    way_below,
    zero_valuation,
)
from valim import constructions
from valim.errors import ValimError
from valim.extreal import INF, ONE, ZERO
from valim.generators import (
    rand_ep_prefix_chain,
    rand_poset,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
    shrinking_injection_chain,
)

from _oracles import brute_uniform_tightness, independent_joint

SIER = FiniteSpace(("bot", "top"), (0b11, 0b10))
ANTI = FiniteSpace(("x", "y"), (0b01, 0b10))

seeds = st.integers(min_value=0, max_value=10_000)


def frac(a, b=1):
    return ExtRat(Fraction(a, b))


# --- marginal families -------------------------------------------------


def test_marginal_family_from_joint_is_compatible():
    rng = random.Random(2)
    from valim.generators import rand_prefix_chain

    ch = rand_prefix_chain(rng, levels=3, max_n=4)
    vs = rand_valued_chain(rng, ch)
    from valim import check_compatibility

    check_compatibility(vs)


def test_marginals_from_joint_covers_all_subsets():
    nu = independent_joint(
        [SIER, SIER],
        [Valuation(SIER, (frac(1, 2), frac(1, 2)))] * 2,
    )
    fam = marginals_from_joint([SIER, SIER], nu)
    assert set(fam) == {(), (0,), (1,), (0, 1)}
    assert fam[(0,)].weights == (frac(1, 2), frac(1, 2))
    assert fam[()].total() == ONE


# --- ep route ----------------------------------------------------------


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_ep_limit_valuation_reproduces_marginals(seed):
    rng = random.Random(seed)
    ch = rand_ep_prefix_chain(rng, levels=3, max_n=4)
    joint = rand_valuation(rng, ch.spaces[-1])
    vs = marginal_family_from_joint(ch, joint)
    lv = ep_limit_valuation(vs)
    assert lv.route == "ep"
    for i in ch.indices():
        assert valuations_equal(lv.marginal(i), vs.val(i))


def test_ep_limit_valuation_refuses_incompatible_family():
    ch = PrefixChain((SIER, SIER), (MonotoneMap(SIER, SIER, (0, 1)),))
    vs = ValuedSystem(
        ch,
        (point_mass(SIER, "top"), point_mass(SIER, "bot")),
    )
    with pytest.raises(Incompatible):
        ep_limit_valuation(vs)


def test_both_limit_routes_refuse_a_broken_composition():
    # the bonds a <- b <- c are identities but a <- c swaps; zero
    # valuations are compatible over any bonds, so the bond laws decide
    idx = FiniteSpace(("a", "b", "c"), (0b111, 0b110, 0b100))
    ident = MonotoneMap(ANTI, ANTI, (0, 1))
    swap = MonotoneMap(ANTI, ANTI, (1, 0))
    sys = PosetSystem(idx, (ANTI, ANTI, ANTI),
                      {(0, 1): ident, (1, 2): ident, (0, 2): swap})
    with pytest.raises(BondLawViolation) as want:
        check_system(sys)
    vs = ValuedSystem(sys, (zero_valuation(ANTI),) * 3)
    for route in (ep_limit_valuation, prohorov_limit):
        with pytest.raises(BondLawViolation) as got:
            route(vs)
        assert got.value.law == want.value.law == "composition"
        assert got.value.witness == want.value.witness == ("a", "b", "c")


def test_eval_cylinder_agrees_with_the_base_level():
    ch = PrefixChain((SIER, SIER), (MonotoneMap(SIER, SIER, (0, 1)),))
    nu = Valuation(SIER, (frac(1, 3), frac(2, 3)))
    vs = marginal_family_from_joint(ch, nu)
    lv = ep_limit_valuation(vs)
    c = CylinderOpen(ch, 0, UpSet(SIER, 0b10))
    assert lv.eval_cylinder(c) == frac(2, 3)


# --- products ----------------------------------------------------------


def test_subset_product_system_shape():
    sys, subsets = subset_product_system([SIER, ANTI])
    assert subsets == ((), (0,), (1,), (0, 1))
    assert sys.top_index() == subsets.index((0, 1))
    assert sys.space(subsets.index((0, 1))).n == 4
    assert sys.space(subsets.index(())).n == 1


def test_pointed_product_of_two_sierpinski():
    half = Valuation(SIER, (frac(1, 2), frac(1, 2)))
    joint = independent_joint([SIER, SIER], [half, half])
    fam = marginals_from_joint([SIER, SIER], joint)
    lv = pointed_product_valuation([SIER, SIER], fam)
    prod_marg = lv.marginal(lv.source.system.top_index())
    assert valuations_equal(prod_marg, joint)


def test_pointed_product_requires_pointed_factors():
    half = Valuation(ANTI, (frac(1, 2), frac(1, 2)))
    with pytest.raises(NotPointed) as e:
        pointed_product_valuation([ANTI], {(0,): half})
    assert e.value.position == 0


def test_empty_subset_marginal_is_derived_when_absent():
    half = Valuation(SIER, (frac(1, 2), frac(1, 2)))
    joint = independent_joint([SIER, SIER], [half, half])
    fam = marginals_from_joint([SIER, SIER], joint)
    del fam[()]
    lv = pointed_product_valuation([SIER, SIER], fam)
    assert lv.valuation.total() == ONE


def test_pointed_product_names_the_first_bad_subset():
    # subsets are checked in (size, positions) order, each for presence
    # and then for its space: a marginal off its partial product at (0,)
    # is named before the one missing at (0, 1)
    half = Valuation(SIER, (frac(1, 2), frac(1, 2)))
    fam = marginals_from_joint(
        [SIER, SIER], independent_joint([SIER, SIER], [half, half]))
    good = fam[(0,)]
    fam[(0,)] = fam.pop((0, 1))
    with pytest.raises(ValimError) as e:
        pointed_product_valuation([SIER, SIER], fam)
    assert str(e.value) == (
        "marginal at (0,) does not live on that partial product")
    fam[(0,)] = good
    with pytest.raises(ValimError) as e:
        pointed_product_valuation([SIER, SIER], fam)
    assert str(e.value) == "marginal missing for subset (0, 1)"


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_dk_product_recovers_the_joint(seed):
    # family drawn from a joint: the extension must be that joint.
    # skip the per-open lift validation here; sizes are kept small but
    # antichain-heavy factors still blow that lattice up
    rng = random.Random(seed)
    spaces = [rand_poset(rng, rng.randint(1, 3), prefix=f"f{k}_")
              for k in range(rng.randint(1, 2))]
    from valim import product_space

    prod, _ = product_space(spaces)
    joint = rand_valuation(rng, prod)
    fam = marginals_from_joint(spaces, joint)
    dk = dk_product(spaces, fam, validate=False)
    assert dk.space == prod
    assert valuations_equal(dk.valuation, joint)
    for s, p in dk.projections.items():
        assert valuations_equal(image_valuation(p, dk.valuation), fam[s])


def test_dk_product_three_chain_factors_fully_validated():
    c2 = FiniteSpace(("a", "b"), (0b11, 0b10))
    rng = random.Random(9)
    from valim import product_space

    prod, _ = product_space([c2, c2, c2])
    joint = rand_valuation(rng, prod)
    fam = marginals_from_joint([c2, c2, c2], joint)
    dk = dk_product([c2, c2, c2], fam)
    assert valuations_equal(dk.valuation, joint)


def test_dk_product_on_independent_weights():
    third = Valuation(ANTI, (frac(1, 3), frac(2, 3)))
    half = Valuation(SIER, (frac(1, 2), frac(1, 2)))
    joint = independent_joint([ANTI, SIER], [third, half])
    fam = marginals_from_joint([ANTI, SIER], joint)
    dk = dk_product([ANTI, SIER], fam)
    got = {lab: w for lab, w in zip(dk.space.labels, dk.valuation.weights)}
    assert got[("x", "top")] == frac(1, 6)
    assert got[("y", "bot")] == frac(1, 3)


def test_dk_product_single_factor_echo():
    # the one-element partial product is tuple-labeled, so the marginal
    # has to live there, not on the bare factor
    from valim import product_space

    part, _ = product_space([ANTI])
    nu = Valuation(part, (frac(1, 4), frac(3, 4)))
    dk = dk_product([ANTI], {(0,): nu})
    assert dk.space.labels == (("x",), ("y",))
    assert dk.valuation.weights == nu.weights


def test_dk_product_refuses_incompatible_marginals():
    half = Valuation(ANTI, (frac(1, 2), frac(1, 2)))
    fam = marginals_from_joint(
        [ANTI, ANTI],
        independent_joint([ANTI, ANTI], [half, half]),
    )
    # claim a deterministic pair joint against uniform singles
    prod_space_ = fam[(0, 1)].space
    det = [ZERO] * 4
    det[0] = ONE
    fam[(0, 1)] = Valuation(prod_space_, tuple(det))
    with pytest.raises(Incompatible):
        dk_product([ANTI, ANTI], fam)


def test_pointed_product_accepts_marginals_masked_by_infinity():
    # the joint pushes (0, inf) onto each coordinate; claiming (1, inf)
    # there changes a weight but no open, as bot's only open holds top
    from valim import product_space

    prod, _ = product_space([SIER, SIER])
    joint = Valuation(prod, (ZERO, ZERO, ZERO, INF))
    fam = marginals_from_joint([SIER, SIER], joint)
    for s in ((0,), (1,)):
        assert fam[s].weights == (ZERO, INF)
        fam[s] = Valuation(fam[s].space, (ONE, INF))
    lv = pointed_product_valuation([SIER, SIER], fam)
    assert lv.valuation.weights == joint.weights


def test_dk_product_extends_a_joint_with_an_infinite_weight():
    # every tuple touching a lifted bottom weighs zero, so the support
    # restriction is the lifted joint's own weights, however infinite
    from valim import product_space

    prod, _ = product_space([SIER, SIER])
    joint = Valuation(prod, (ZERO, ZERO, ZERO, INF))
    fam = marginals_from_joint([SIER, SIER], joint)
    for validate in (False, True):
        dk = dk_product([SIER, SIER], fam, validate=validate)
        assert dk.space == prod
        assert dk.valuation.weights == joint.weights


@given(seeds)
@settings(max_examples=60)
def test_dk_product_recovers_joints_with_infinite_weights(seed):
    rng = random.Random(seed)
    spaces = [rand_poset(rng, rng.randint(1, 3), prefix=f"f{k}_")
              for k in range(rng.randint(2, 3))]
    from valim import first_differing_open, product_space

    prod, _ = product_space(spaces)
    joint = rand_valuation(rng, prod, inf_prob=0.2)
    dk = dk_product(spaces, marginals_from_joint(spaces, joint),
                    validate=False)
    assert dk.space == prod
    assert first_differing_open(dk.valuation, joint) is None


def test_dk_product_size_guard_keeps_no_open_list():
    c2 = FiniteSpace(("a", "b"), (0b11, 0b10))
    rng = random.Random(9)
    from valim import product_space

    prod, _ = product_space([c2, c2])
    fam = marginals_from_joint([c2, c2], rand_valuation(rng, prod))
    dk = dk_product([c2, c2], fam)
    assert "_open_masks" not in dk.lifted.limit.space.__dict__
    # the lifted factors are 3-chains, whose product, a 3 x 3 grid, has
    # C(6, 3) = 20 up-sets
    with pytest.raises(SizeLimit):
        dk_product([c2, c2], fam, max_opens=19)
    assert dk_product([c2, c2], fam, max_opens=20).valuation == dk.valuation


def test_dk_product_validates_no_space(monkeypatch):
    # every space dk_product builds is derived from valid ones, so none
    # may go through the public validation again
    rng = random.Random(5)
    factors = [rand_poset(rng, n, edge_prob=0.5, prefix=f"f{p}_")
               for p, n in enumerate((2, 2, 3))]
    from valim import product_space

    prod, _ = product_space(factors)
    fam = marginals_from_joint(factors, rand_valuation(rng, prod))
    calls = []
    real = FiniteSpace.__post_init__

    def counting(self):
        calls.append(self.labels)
        real(self)
    monkeypatch.setattr(FiniteSpace, "__post_init__", counting)
    FiniteSpace(("a",), (1,))
    assert len(calls) == 1
    for validate in (False, True):
        dk_product(factors, fam, validate=validate)
    assert len(calls) == 1


# --- uniform tightness and the tight route ------------------------------


def healthy_chain():
    c2 = FiniteSpace(("x0", "x1"), (0b11, 0b10))
    c1 = FiniteSpace(("x0",), (0b1,))
    ch = PrefixChain((c1, c2), (MonotoneMap(c2, c1, (0, 0)),))
    top = Valuation(c2, (frac(1, 3), frac(2, 3)))
    return marginal_family_from_joint(ch, top)


def test_uniform_tightness_holds_on_pushed_families():
    vs = healthy_chain()
    rep = uniform_tightness_check(vs)
    assert rep.verdict
    assert rep.failure is None
    # every witness is matched: mu of the witness reaches the rational
    for (i, u), q in rep.witnesses.items():
        r_needed = [r for r in [ZERO] if way_below(r, vs.val(i).evaluate(u))]
        assert q is not None


def _truncated_injections(levels):
    # materialize the shrinking chain so the limit machinery can run on it
    lazy = shrinking_injection_chain(3, depth=levels)
    spaces = tuple(lazy.space(i) for i in range(levels))
    steps = tuple(lazy.step(k) for k in range(levels - 1))
    return PrefixChain(spaces, steps)


def test_uniform_tightness_fails_on_engineered_empty_limit():
    ch = _truncated_injections(5)
    # nonzero marginals over a chain whose limit is empty
    vals = []
    for i in ch.indices():
        sp = ch.space(i)
        vals.append(
            Valuation(sp, tuple([ONE] + [ZERO] * (sp.n - 1)) if sp.n else ())
        )
    vs = ValuedSystem(ch, tuple(vals))
    rep = uniform_tightness_check(vs)
    assert not rep.verdict
    # the broken family only reaches the tightness stage with the
    # compatibility gate off; it then fails there, not as Incompatible
    with pytest.raises(NotUniformlyTight) as e:
        prohorov_limit(vs, verify_compatibility=False)
    assert way_below(e.value.rational, ONE)
    assert e.value.rational > ZERO


def test_prohorov_limit_agrees_with_ep_route():
    vs = healthy_chain()
    tight = prohorov_limit(vs)
    assert tight.route == "tight"
    ep = ep_limit_valuation(vs)
    assert valuations_equal(tight.valuation, ep.valuation)
    for i in vs.system.indices():
        assert valuations_equal(tight.marginal(i), vs.val(i))


@pytest.mark.parametrize("limits", [{}, {"max_points": 2}])
def test_prohorov_limit_checks_uniqueness_on_its_own_limit(monkeypatch,
                                                           limits):
    # a precomputed report on a 4-point product: the ep comparison runs on
    # report.limit, so a point bound below the product cannot skip it
    half = Valuation(SIER, (frac(1, 2), frac(1, 2)))
    joint = independent_joint([SIER, SIER], [half, half])
    sys, _ = subset_product_system([SIER, SIER])
    vs = marginal_family_from_joint(sys, joint)
    report = uniform_tightness_check(vs)
    assert report.limit.space.n == 4
    assert valuations_equal(prohorov_limit(vs, report, **limits).valuation,
                            Valuation(report.limit.space, joint.weights))

    real = constructions._ep_valuation

    def skewed_ep(vs, limit):
        nu = real(vs, limit)
        return Valuation(nu.space, nu.weights[:-1] + (nu.weights[-1] + ONE,))

    monkeypatch.setattr(constructions, "_ep_valuation", skewed_ep)
    with pytest.raises(LimitLawViolation) as e:
        prohorov_limit(vs, report, **limits)
    assert e.value.law == "uniqueness"


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_prohorov_limit_on_random_poset_systems(seed):
    rng = random.Random(seed)
    vs = rand_valued_poset_system(rng, max_top=5)
    lv = prohorov_limit(vs)
    for i in vs.system.indices():
        assert valuations_equal(lv.marginal(i), vs.val(i))


def test_prohorov_limit_zero_family_on_empty_limit():
    ch = _truncated_injections(5)
    vals = tuple(zero_valuation(ch.space(i)) for i in ch.indices())
    vs = ValuedSystem(ch, vals)
    rep = uniform_tightness_check(vs)
    assert rep.verdict


def test_uniform_tightness_with_infinite_marginals_is_flagged():
    c1 = FiniteSpace(("x0",), (0b1,))
    ch = PrefixChain((c1, c1), (MonotoneMap(c1, c1, (0,)),))
    vs = ValuedSystem(
        ch, (Valuation(c1, (INF,)), Valuation(c1, (INF,)))
    )
    rep = uniform_tightness_check(vs)
    assert rep.verdict
    assert rep.experimental_infinite


# --- way-below certificates ---------------------------------------------


def test_loccomp_certificate_basics():
    vs = healthy_chain()
    ch = vs.system
    u = UpSet(ch.space(1), 0b11)
    cert = loccomp_certificate(vs, 1, u, frac(1, 2))
    assert cert.level_floor >= frac(1, 2)
    cert.family.verify()
    assert cert.family.part(1).mask & ~u.mask == 0
    # every part is valued beyond the rational at its own level
    for i in ch.indices():
        assert vs.val(i).evaluate(cert.family.part(i)) >= cert.rational


def test_loccomp_certificate_requires_way_below():
    vs = healthy_chain()
    ch = vs.system
    u = UpSet(ch.space(1), 0b10)  # value 2/3
    with pytest.raises(NoWitness):
        loccomp_certificate(vs, 1, u, frac(2, 3))


def test_loccomp_supplier_feeds_uniform_tightness():
    vs = healthy_chain()
    ch = vs.system
    u = UpSet(ch.space(1), 0b11)
    cert = loccomp_certificate(vs, 1, u, frac(1, 2))
    rep = uniform_tightness_check(vs)
    assert rep.verdict
    # the oracle fed the certificate's family decides as the library,
    # which takes no supplier: a supplied family never raises mu
    want = brute_uniform_tightness(vs, rep.limit,
                                   lambda i, u, r: cert.family)
    assert (list(rep.mu.values), rep.verdict, dict(rep.witnesses),
            rep.failure) == want
