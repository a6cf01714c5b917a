"""The eight acceptance suites: seeded, exact, time-budgeted.

Each suite returns a SuiteResult; run_all executes them in order.  The
suites are deliberately independent of the unit tests: they regenerate
their own corpora from the seed and re-verify the laws from scratch, so
a pass is reproducible from the command line (`valim suite`) alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .constructions import (
    dk_product,
    ep_limit_valuation,
    marginals_from_joint,
    prohorov_limit,
    uniform_tightness_check,
)
from .errors import ValimError
from .extreal import ZERO, ExtRat
from .generators import (
    rand_ep_prefix_chain,
    rand_poset,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
    shrinking_injection_chain,
)
from .order import UpSet, product_space
from .projective import (
    CylinderOpen,
    Incompatible,
    PrefixChain,
    ValuedSystem,
    check_compatibility,
    check_ep_system,
    materialize_limit,
    steenrod_nonempty,
    upper_adjoint,
)
from .valuation import (
    NotSimple,
    Valuation,
    check_valuation,
    first_differing_mask,
    first_differing_open,
    is_locally_finite,
    is_tight,
    mu_circ,
    nu_bullet,
    zero_valuation,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class SuiteResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed < self.budget

    def line(self) -> str:
        word = "PASS" if (self.passed and self.within_budget) else "FAIL"
        return (
            f"criterion {self.number} ({self.name}): {word} "
            f"[{self.elapsed:.2f}s < {self.budget:.0f}s] {self.detail}"
        )


def _result(number, name, budget, t0, passed, detail) -> SuiteResult:
    return SuiteResult(number, name, passed, detail, time.monotonic() - t0,
                       budget)


def suite_axioms(seed: int = 20207) -> SuiteResult:
    """500 random simple valuations on posets of up to 8 points: the
    full table passes strictness, monotonicity and modularity over every
    open, and inverting the table recovers the weights exactly."""
    t0 = time.monotonic()
    rng = Random(seed)
    checked = 0
    masked = 0
    for _ in range(500):
        sp = rand_poset(rng, rng.randint(1, 8), edge_prob=rng.uniform(0.2, 0.7))
        nu = rand_valuation(rng, sp, inf_prob=0.08)
        table = nu.tabulate()
        # inversion is defined exactly when no point has an infinite
        # weight strictly above it; such tables stay tabulated
        shadow = any(
            not nu.weights[y].is_finite
            and sp.up[x] & ~(1 << x) & (1 << y)
            for x in range(sp.n) for y in range(sp.n)
        )
        try:
            back = check_valuation(table)
        except NotSimple:
            if not shadow:
                return _result(1, "valuation axioms", 30.0, t0, False,
                               f"inversion refused a clean table ({checked})")
            masked += 1
            checked += 1
            continue
        if shadow:
            return _result(1, "valuation axioms", 30.0, t0, False,
                           f"inversion accepted a shadowed table ({checked})")
        if back.weights != nu.weights:
            return _result(1, "valuation axioms", 30.0, t0, False,
                           f"round trip broke on seed case {checked}")
        checked += 1
    return _result(1, "valuation axioms", 30.0, t0, True,
                   f"{checked} valuations, exhaustive laws; round trip "
                   f"exact on all {checked - masked} invertible tables")


def suite_projection_approximation(seed: int = 20211) -> SuiteResult:
    """On materialized systems with 2 to 4 indices: the saturated level
    approximations of any limit open are monotone under the bonds,
    increase along the index order, and their preimages exhaust the open
    exactly."""
    t0 = time.monotonic()
    rng = Random(seed)
    systems = 0
    for _ in range(100):
        vs = rand_valued_poset_system(rng, max_top=5)
        sys = vs.system
        limit = materialize_limit(sys)
        idxs = list(sys.indices())
        for w in limit.space.open_masks():
            u = UpSet(limit.space, w)
            adj = {i: upper_adjoint(limit, i, u) for i in idxs}
            union = 0
            for i in idxs:
                pre_i = limit.projection(i).preimage_mask(adj[i].mask)
                union |= pre_i
                for j in idxs:
                    if not sys.index_leq(i, j):
                        continue
                    # bond preimage of the lower approximation sits
                    # inside the higher one
                    lifted = sys.bond(i, j).preimage_mask(adj[i].mask)
                    if lifted & ~adj[j].mask:
                        return _result(
                            2, "level approximation", 30.0, t0, False,
                            f"bond monotonicity failed at {(i, j)}")
                    pre_j = limit.projection(j).preimage_mask(adj[j].mask)
                    if pre_i & ~pre_j:
                        return _result(
                            2, "level approximation", 30.0, t0, False,
                            f"approximants not increasing at {(i, j)}")
            if union != w:
                return _result(2, "level approximation", 30.0, t0, False,
                               "preimages do not exhaust the open")
        systems += 1
    return _result(2, "level approximation", 30.0, t0, True,
                   f"{systems} systems, all three laws exhaustive")


def suite_ep_limits(seed: int = 20219) -> SuiteResult:
    """100 random projection chains with pushed-down weight families:
    the limit valuation reproduces every marginal on every open."""
    t0 = time.monotonic()
    rng = Random(seed)
    chains = 0
    for _ in range(100):
        ch = rand_ep_prefix_chain(rng, rng.randint(1, 5), 6)
        vs = rand_valued_chain(rng, ch)
        lv = ep_limit_valuation(vs)
        for i in ch.indices():
            m = first_differing_mask(lv.marginal(i), vs.val(i),
                                     ch.space(i).open_masks())
            if m is not None:
                return _result(3, "ep limit marginals", 60.0, t0, False,
                               f"open {m:#b} at level {i}")
        chains += 1
    return _result(3, "ep limit marginals", 60.0, t0, True,
                   f"{chains} chains, marginals exact on every open")


def suite_products(seed: int = 20231) -> SuiteResult:
    """Products of 2 or 3 factors of up to 4 points, marginal families
    read off a random joint: the extension equals the joint on every
    open of the materialized product (exhaustively when the open lattice
    is small enough to list, and by the weight-determination argument in
    every case)."""
    t0 = time.monotonic()
    rng = Random(seed)
    cases = 0
    enumerated = 0
    while cases < 100:
        k = rng.randint(2, 3)
        factors = [
            rand_poset(rng, rng.randint(1, 4),
                       edge_prob=rng.uniform(0.3, 0.8), prefix=f"f{p}_")
            for p in range(k)
        ]
        prod, _ = product_space(factors)
        joint = rand_valuation(rng, prod, max_den=4)
        fam = marginals_from_joint(factors, joint)
        dk = dk_product(factors, fam, validate=False)
        aligned = Valuation(
            dk.space,
            tuple(joint.weights[prod.index[lab]] for lab in dk.space.labels),
        )
        w = first_differing_open(dk.valuation, aligned)
        if w is not None:
            return _result(4, "product extension", 60.0, t0, False,
                           f"differs on {w.members} (case {cases})")
        try:
            masks = dk.space.open_masks(1 << 14)
        except ValimError:
            masks = None
        if masks is not None:
            m = first_differing_mask(dk.valuation, aligned, masks)
            if m is not None:
                return _result(4, "product extension", 60.0, t0, False,
                               f"open {m:#b} (case {cases})")
            enumerated += 1
        cases += 1
    return _result(4, "product extension", 60.0, t0, True,
                   f"{cases} products ({enumerated} with full open "
                   "enumeration)")


def suite_tightness(seed: int = 20233) -> SuiteResult:
    """Inner regularization of the outer approximation is the identity
    on valuations, and every valuation is tight with explicit compact
    witnesses."""
    t0 = time.monotonic()
    rng = Random(seed)
    checked = 0
    for _ in range(200):
        sp = rand_poset(rng, rng.randint(1, 6), edge_prob=rng.uniform(0.2, 0.8))
        nu = rand_valuation(rng, sp, inf_prob=0.06)
        masks = sp.open_masks()
        nb = nu_bullet(nu)
        composite = mu_circ(nb)
        for m in masks:
            if composite.lookup(m) != nu.evaluate(m):
                return _result(5, "tightness", 30.0, t0, False,
                               f"composite differs on {m:#b}")
        rep = is_tight(nu)
        if not (rep.verdict and rep.composite_matches):
            return _result(5, "tightness", 30.0, t0, False,
                           f"not tight at case {checked}: {rep.failure}")
        if any(q is None for q in rep.witnesses.values()):
            return _result(5, "tightness", 30.0, t0, False,
                           "missing witness")
        checked += 1
    return _result(5, "tightness", 30.0, t0, True,
                   f"{checked} valuations, composite identity + witnesses")


def suite_tight_limits(seed: int = 20249) -> SuiteResult:
    """Uniform tightness and the tight-route limit on 100 random
    compatible chains; against the projection route wherever that one
    applies, cylinder by cylinder."""
    t0 = time.monotonic()
    rng = Random(seed)
    chains = 0
    ep_compared = 0
    for t in range(100):
        if t % 2:
            ch = rand_ep_prefix_chain(rng, rng.randint(1, 4), 5)
        else:
            ch = rand_prefix_chain(rng, rng.randint(1, 4), 5)
        vs = rand_valued_chain(rng, ch)
        rep = uniform_tightness_check(vs)
        if not rep.verdict:
            return _result(6, "tight-route limits", 60.0, t0, False,
                           f"chain {t} not uniformly tight: {rep.failure}")
        lv = prohorov_limit(vs, rep)
        for i in ch.indices():
            m = first_differing_mask(lv.marginal(i), vs.val(i),
                                     ch.space(i).open_masks())
            if m is not None:
                return _result(6, "tight-route limits", 60.0, t0,
                               False, f"marginal {i} open {m:#b}")
        try:
            check_ep_system(ch)
            has_ep = True
        except ValimError:
            has_ep = False
        if has_ep:
            other = ep_limit_valuation(vs, validate=False)
            for i in ch.indices():
                xi = ch.space(i)
                for m in xi.open_masks():
                    cyl = CylinderOpen(ch, i, UpSet(xi, m))
                    if lv.eval_cylinder(cyl) != other.eval_cylinder(cyl):
                        return _result(6, "tight-route limits", 60.0, t0,
                                       False,
                                       f"routes disagree on ({i}, {m:#b})")
            ep_compared += 1
        chains += 1
    return _result(6, "tight-route limits", 60.0, t0, True,
                   f"{chains} chains, {ep_compared} cross-checked against "
                   "the projection route on all cylinders")


def suite_threads(seed: int = 20261) -> SuiteResult:
    """200 random chains of nonempty posets all yield a verified witness
    thread; the shrinking-injection chain has an empty limit; a weight
    family on it is solvable exactly when every marginal is zero."""
    t0 = time.monotonic()
    rng = Random(seed)
    threads = 0
    for t in range(200):
        ch = rand_prefix_chain(rng, rng.randint(1, 5), 6)
        verdict = steenrod_nonempty(ch)
        if not verdict.nonempty:
            return _result(7, "thread search", 30.0, t0, False,
                           f"chain {t} claimed empty at {verdict.empty_at}")
        th = verdict.thread
        for k in range(len(ch.spaces) - 1):
            if ch.steps[k](th[k + 1]) != th[k]:
                return _result(7, "thread search", 30.0, t0, False,
                               f"thread broken at step {k}")
        threads += 1
    start = 4
    lazy = shrinking_injection_chain(start, depth=start + 3)
    verdict = steenrod_nonempty(lazy)
    if verdict.nonempty or verdict.empty_at != start:
        return _result(7, "thread search", 30.0, t0, False,
                       "injection chain not recognized as empty")
    levels = start + 2
    chain = PrefixChain(
        tuple(lazy.space(n) for n in range(levels)),
        tuple(lazy.step(n) for n in range(levels - 1)),
    )
    zero = ValuedSystem(chain, tuple(
        zero_valuation(chain.spaces[n]) for n in range(levels)
    ))
    check_compatibility(zero)
    lv = prohorov_limit(zero)
    if lv.limit.space.n != 0 or lv.valuation.total() != ZERO:
        return _result(7, "thread search", 30.0, t0, False,
                       "zero family did not extend over the empty limit")
    w = [ExtRat(0)] * chain.spaces[0].n
    w[0] = ExtRat(1)
    vals = [Valuation(chain.spaces[0], tuple(w))] + [
        zero_valuation(chain.spaces[n]) for n in range(1, levels)
    ]
    try:
        check_compatibility(ValuedSystem(chain, tuple(vals)))
        return _result(7, "thread search", 30.0, t0, False,
                       "nonzero family passed compatibility")
    except Incompatible:
        pass
    return _result(7, "thread search", 30.0, t0, True,
                   f"{threads} threads verified; empty-limit criterion "
                   "holds both ways")


def suite_local_finiteness(seed: int = 20269) -> SuiteResult:
    """The four readings of local finiteness agree on 100 random
    valuations, infinite weights included."""
    t0 = time.monotonic()
    rng = Random(seed)
    finite_count = 0
    infinite_count = 0
    for t in range(100):
        sp = rand_poset(rng, rng.randint(1, 7), edge_prob=rng.uniform(0.2, 0.7))
        nu = rand_valuation(rng, sp, inf_prob=0.35 if t % 2 else 0.0)
        rep = is_locally_finite(nu)
        if len(set(rep.conditions)) != 1:
            return _result(8, "local finiteness", 10.0, t0, False,
                           f"conditions split: {rep.conditions}")
        if rep.verdict != rep.conditions[0]:
            return _result(8, "local finiteness", 10.0, t0, False,
                           "verdict does not match the conditions")
        if any(not w.is_finite for w in nu.weights):
            infinite_count += 1
        else:
            finite_count += 1
    return _result(8, "local finiteness", 10.0, t0, True,
                   f"{finite_count} finite + {infinite_count} with "
                   "infinite weights, all four conditions agree")


SUITES = (
    suite_axioms,
    suite_projection_approximation,
    suite_ep_limits,
    suite_products,
    suite_tightness,
    suite_tight_limits,
    suite_threads,
    suite_local_finiteness,
)


def run_suite(number: int, seed: int = None) -> SuiteResult:
    if not 1 <= number <= len(SUITES):
        raise ValimError(f"no criterion {number}; 1..{len(SUITES)}")
    fn = SUITES[number - 1]
    return fn() if seed is None else fn(seed)


def run_all(numbers=None) -> list:
    picked = numbers or range(1, len(SUITES) + 1)
    return [run_suite(n) for n in picked]
