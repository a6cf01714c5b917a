"""The random builders must only ever emit lawful objects, and the
valuations they build in the scaled currency must equal the ones their
public weights build."""

import pickle
import random

import pytest

from valim import (
    Valuation,
    check_compatibility,
    check_ep_system,
    check_system,
    check_valuation,
    embedding_from_projection,
)
from valim.constructions import marginal_family_from_joint
from valim.extreal import ZERO
from valim.valuation import NotSimple
from valim.generators import (
    rand_ep_prefix_chain,
    rand_ep_step,
    rand_monotone_map,
    rand_poset,
    rand_poset_system,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
    rand_weights,
    shrinking_injection_chain,
)


def test_rand_poset_shape_and_determinism():
    a = rand_poset(random.Random(5), 6, prefix="p")
    b = rand_poset(random.Random(5), 6, prefix="p")
    assert a == b
    assert a.n == 6
    assert all(lab.startswith("p") for lab in a.labels)


def test_rand_valuation_is_lawful():
    rng = random.Random(0)
    for _ in range(25):
        sp = rand_poset(rng, rng.randint(1, 6))
        nu = rand_valuation(rng, sp, inf_prob=0.15)
        assert all(w >= ZERO for w in nu.weights if w.is_finite)
        shadowed = any(
            not nu.weights[y].is_finite and y != x and (sp.up[x] >> y) & 1
            for x in range(sp.n)
            for y in range(sp.n)
        )
        # the induced table passes the axiom scan; recovery only stalls
        # when some point sits strictly under an infinite mass
        if shadowed:
            try:
                check_valuation(nu.tabulate())
            except NotSimple:
                pass
        else:
            back = check_valuation(nu.tabulate())
            assert back.weights == nu.weights


def test_rand_monotone_map_is_monotone():
    rng = random.Random(9)
    for _ in range(25):
        src = rand_poset(rng, rng.randint(1, 5))
        dst = rand_poset(rng, rng.randint(1, 5))
        f = rand_monotone_map(rng, src, dst)
        for i in range(src.n):
            for j in range(src.n):
                if (src.up[i] >> j) & 1:
                    assert (dst.up[f.graph[i]] >> f.graph[j]) & 1


def test_rand_ep_step_projection_splits():
    rng = random.Random(12)
    for _ in range(15):
        base = rand_poset(rng, rng.randint(1, 4))
        big, proj = rand_ep_step(rng, base, rng.randint(0, 3))
        assert big.n == base.n + len(proj.graph) - base.n
        ep = embedding_from_projection(proj)
        for x in range(base.n):
            assert proj.apply_index(ep.embedding.apply_index(x)) == x


def test_rand_prefix_chain_passes_check():
    rng = random.Random(21)
    for _ in range(10):
        check_system(rand_prefix_chain(rng, rng.randint(1, 4), 4))


def test_rand_ep_prefix_chain_is_ep():
    rng = random.Random(31)
    for _ in range(10):
        ch = rand_ep_prefix_chain(rng, rng.randint(2, 4), 6)
        check_ep_system(ch)


def test_rand_valued_chain_is_compatible():
    rng = random.Random(41)
    for _ in range(10):
        ch = rand_prefix_chain(rng, rng.randint(1, 4), 4)
        check_compatibility(rand_valued_chain(rng, ch))


@pytest.mark.parametrize("shape", ["chain2", "chain3", "chain4", "vee",
                                   "square"])
def test_rand_poset_system_every_shape(shape):
    rng = random.Random(hash(shape) % 1000)
    sys = rand_poset_system(rng, shape=shape, max_top=5)
    check_system(sys)
    assert sys.top_index() == sys.index_poset.n - 1


def test_rand_poset_system_rejects_unknown_shape():
    with pytest.raises(ValueError, match="shape"):
        rand_poset_system(random.Random(1), shape="torus")


def test_rand_valued_poset_system_is_compatible():
    rng = random.Random(51)
    for _ in range(8):
        check_compatibility(rand_valued_poset_system(rng, max_top=5))


def test_shrinking_injection_chain_levels():
    ch = shrinking_injection_chain(4, depth=8)
    sizes = [ch.space(i).n for i in ch.indices()]
    assert sizes == [4, 3, 2, 1, 0, 0, 0, 0, 0]
    check_system(ch)
    # each step is injective on the smaller level
    for k in range(3):
        g = ch.step(k).graph
        assert len(set(g)) == len(g)


# rand_valuation builds its valuation from its scaled integers; each
# test below draws it and its public twin, Valuation over rand_weights,
# from two Randoms on the same seed.


def assert_born_twins(nu, twin):
    assert "weights" not in vars(nu)
    # pickled first, so that neither side has been compared or hashed
    assert pickle.dumps(nu) == pickle.dumps(twin)
    assert nu == twin and twin == nu and hash(nu) == hash(twin)
    assert nu.weights == twin.weights
    assert nu._scaled == twin._scaled


def draw_args(rng):
    return rng.randint(1, 9), rng.choice((0.0, 0.1, 0.4))


def test_rand_valuation_equals_its_public_twin():
    for seed in range(200):
        rng = random.Random(seed)
        sp = rand_poset(rng, rng.randint(0, 8), rng.uniform(0.1, 0.7))
        max_den, inf_prob = draw_args(rng)
        a, b = random.Random(seed), random.Random(seed)
        nu = rand_valuation(a, sp, max_den, inf_prob)
        twin = Valuation(sp, rand_weights(b, sp.n, max_den, inf_prob))
        assert a.getstate() == b.getstate()
        assert_born_twins(nu, twin)


def assert_families_twin(vs, twin):
    for nu, other in zip(vs.valuations, twin.valuations, strict=True):
        assert_born_twins(nu, other)
    assert vs == twin


def test_rand_valued_chain_equals_its_public_twin():
    for seed in range(200):
        rng = random.Random(seed)
        ch = rand_prefix_chain(rng, rng.randint(1, 4), 5)
        max_den, inf_prob = draw_args(rng)
        a, b = random.Random(seed), random.Random(seed)
        vs = rand_valued_chain(a, ch, max_den, inf_prob)
        top = ch.spaces[-1]
        twin = marginal_family_from_joint(ch, Valuation(
            top, rand_weights(b, top.n, max_den, inf_prob)))
        assert a.getstate() == b.getstate()
        assert_families_twin(vs, twin)


@pytest.mark.parametrize("shape", ["chain2", "chain3", "chain4", "vee",
                                   "square"])
def test_rand_valued_poset_system_equals_its_public_twin(shape):
    for seed in range(200):
        max_den, inf_prob = draw_args(random.Random(seed))
        a, b = random.Random(seed), random.Random(seed)
        vs = rand_valued_poset_system(a, shape, 5, max_den, inf_prob)
        sys = rand_poset_system(b, shape, 5)
        top = sys.space(sys.top_index())
        twin = marginal_family_from_joint(sys, Valuation(
            top, rand_weights(b, top.n, max_den, inf_prob)))
        assert a.getstate() == b.getstate()
        assert_families_twin(vs, twin)
