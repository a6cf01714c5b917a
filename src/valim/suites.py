"""The eight acceptance suites: seeded, exact, time-budgeted.

Each suite returns its detail string on a pass and raises _Fail with the
detail otherwise.  run_suite owns the rest: it times the criterion,
names it, holds it to its budget and turns any ValimError escaping the
criterion into that criterion's FAIL line, so run_all always reports
every criterion asked for.  The suites are deliberately independent of
the unit tests: they regenerate their own corpora from the seed and
re-verify the laws from scratch, so a pass is reproducible from the
command line (`valim suite`) alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from random import Random

from . import _kernels
from .constructions import (
    _PartialProducts,
    _marginals,
    dk_product,
    ep_limit_valuation,
    prohorov_limit,
    uniform_tightness_check,
)
from .errors import SizeLimit, ValimError
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
from .projective import (
    EpLawViolation,
    Incompatible,
    NotAProjection,
    PrefixChain,
    ValuedSystem,
    check_compatibility,
    check_ep_system,
    materialize_limit,
    steenrod_nonempty,
    upper_adjoints,
)
from .valuation import (
    NotSimple,
    Valuation,
    _first_unequal,
    _inf_mask,
    _same_scaled,
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


class _Fail(Exception):
    """A criterion's check failed; the argument is the detail."""


def suite_axioms(seed: int = 20207) -> str:
    """500 random simple valuations on posets of up to 8 points: the
    full table passes strictness, monotonicity and modularity over every
    open, and inverting the table recovers the weights exactly."""
    rng = Random(seed)
    checked = 0
    masked = 0
    for _ in range(500):
        sp = rand_poset(rng, rng.randint(1, 8), edge_prob=rng.uniform(0.2, 0.7))
        nu = rand_valuation(rng, sp, inf_prob=0.08)
        table = nu.tabulate()
        # inversion is defined exactly when no point has an infinite
        # weight strictly above it; such tables stay tabulated
        inf_points = _inf_mask(nu._scaled[1])
        shadow = any(sp.up[x] & ~(1 << x) & inf_points for x in range(sp.n))
        try:
            back = check_valuation(table)
        except NotSimple:
            if not shadow:
                raise _Fail(f"inversion refused a clean table ({checked})")
            masked += 1
            checked += 1
            continue
        if shadow:
            raise _Fail(f"inversion accepted a shadowed table ({checked})")
        if not _same_scaled(*back._scaled, *nu._scaled):
            raise _Fail(f"round trip broke on seed case {checked}")
        checked += 1
    return (f"{checked} valuations, exhaustive laws; round trip exact on all "
            f"{checked - masked} invertible tables")


def suite_projection_approximation(seed: int = 20211) -> str:
    """On materialized systems with 2 to 4 indices: the saturated level
    approximations of any limit open are monotone under the bonds,
    increase along the index order, and their preimages exhaust the open
    exactly.

    Each law is checked on columns over every open of the limit: each
    index's upper adjoints, their preimages under the projections and,
    for each pair i <= j, the bond(i, j) preimages of the adjoints at i.
    Only a failure is rescanned open by open, then i, then j, then the
    exhaustion, to name it."""
    rng = Random(seed)
    systems = 0
    for _ in range(100):
        vs = rand_valued_poset_system(rng, max_top=5)
        sys = vs.system
        limit = materialize_limit(sys)
        idxs = list(sys.indices())
        masks = limit.space.open_masks()
        adj = {i: upper_adjoints(limit, i, masks) for i in idxs}
        pre = {i: limit.projection(i).preimage_masks(adj[i]) for i in idxs}
        pairs = [(i, j) for i in idxs for j in idxs if sys.index_leq(i, j)]
        # bond preimage of the lower approximation sits inside the higher
        # one
        lifted = {(i, j): sys.bond(i, j).preimage_masks(adj[i])
                  for i, j in pairs}
        union = reduce(_join, pre.values(), [0] * len(masks))
        if union == masks and all(
                _join(lifted[i, j], adj[j]) == adj[j]
                and _join(pre[i], pre[j]) == pre[j] for i, j in pairs):
            systems += 1
            continue
        for k in range(len(masks)):
            for i, j in pairs:
                if lifted[i, j][k] & ~adj[j][k]:
                    raise _Fail(f"bond monotonicity failed at {(i, j)}")
                if pre[i][k] & ~pre[j][k]:
                    raise _Fail(f"approximants not increasing at {(i, j)}")
            if union[k] != masks[k]:
                raise _Fail("preimages do not exhaust the open")
    return f"{systems} systems, all three laws exhaustive"


def _join(a, b) -> list:
    """Two columns of masks joined entry by entry."""
    return list(map(or_, a, b))


def suite_ep_limits(seed: int = 20219) -> str:
    """100 random projection chains with pushed-down weight families:
    the limit valuation reproduces every marginal on every open."""
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
                raise _Fail(f"open {m:#b} at level {i}")
        chains += 1
    return f"{chains} chains, marginals exact on every open"


def suite_products(seed: int = 20231) -> str:
    """Products of 2 or 3 factors of up to 4 points, marginal families
    read off a random joint: the extension equals the joint on every
    open of the materialized product (exhaustively when the open lattice
    is small enough to list, and by the weight-determination argument in
    every case).  The joint is drawn on the top space of one
    _PartialProducts and its marginals are read off the same products
    (_marginals); dk_product builds its own, as any caller's."""
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
        parts = _PartialProducts(factors)
        joint = rand_valuation(rng, parts.spaces[-1], max_den=4)
        dk = dk_product(factors, _marginals(parts, joint), validate=False)
        # the joint's weights in dk.space's point order, still scaled
        den, ints = joint._scaled
        index = joint.space.index
        aligned = Valuation._from_scaled(
            dk.space, den, tuple(ints[index[lab]] for lab in dk.space.labels))
        w = first_differing_open(dk.valuation, aligned)
        if w is not None:
            raise _Fail(f"differs on {w.members} (case {cases})")
        try:
            masks = dk.space.open_masks(1 << 14)
        except SizeLimit:
            masks = None
        if masks is not None:
            m = first_differing_mask(dk.valuation, aligned, masks)
            if m is not None:
                raise _Fail(f"open {m:#b} (case {cases})")
            enumerated += 1
        cases += 1
    return f"{cases} products ({enumerated} with full open enumeration)"


def suite_tightness(seed: int = 20233) -> str:
    """Inner regularization of the outer approximation is the identity
    on valuations, and every valuation is tight with explicit compact
    witnesses."""
    rng = Random(seed)
    checked = 0
    for _ in range(200):
        sp = rand_poset(rng, rng.randint(1, 6), edge_prob=rng.uniform(0.2, 0.8))
        nu = rand_valuation(rng, sp, inf_prob=0.06)
        masks = sp.open_masks()
        nb = nu_bullet(nu)
        composite = mu_circ(nb)
        # both sides as scaled columns over masks, in masks order
        den, got = composite._scaled
        if composite.masks != tuple(masks):
            got = [got[composite._row(m)] for m in masks]
        nu_den, ints = nu._scaled
        k = _first_unequal(den, got, nu_den,
                           _kernels.eval_weights(ints, masks))
        if k < len(masks):
            raise _Fail(f"composite differs on {masks[k]:#b}")
        rep = is_tight(nu)
        if not (rep.verdict and rep.composite_matches):
            raise _Fail(f"not tight at case {checked}: {rep.failure}")
        if any(q is None for q in rep.witnesses.values()):
            raise _Fail("missing witness")
        checked += 1
    return f"{checked} valuations, composite identity + witnesses"


def suite_tight_limits(seed: int = 20249) -> str:
    """Uniform tightness and the tight-route limit on 100 random
    compatible chains; against the projection route wherever that one
    applies, on every open of the limit."""
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
            raise _Fail(f"chain {t} not uniformly tight: {rep.failure}")
        lv = prohorov_limit(vs, rep)
        for i in ch.indices():
            m = first_differing_mask(lv.marginal(i), vs.val(i),
                                     ch.space(i).open_masks())
            if m is not None:
                raise _Fail(f"marginal {i} open {m:#b}")
        chains += 1
        try:
            check_ep_system(ch)
        except (NotAProjection, EpLawViolation):
            continue
        other = ep_limit_valuation(vs)
        m = first_differing_mask(lv.valuation, other.valuation,
                                 lv.limit.space.open_masks())
        if m is not None:
            raise _Fail(f"routes disagree on open {m:#b}")
        ep_compared += 1
    return (f"{chains} chains, {ep_compared} cross-checked against the "
            "projection route on every open")


def suite_threads(seed: int = 20261) -> str:
    """200 random chains of nonempty posets all yield a verified witness
    thread; the shrinking-injection chain has an empty limit; a weight
    family on it is solvable exactly when every marginal is zero."""
    rng = Random(seed)
    threads = 0
    for t in range(200):
        ch = rand_prefix_chain(rng, rng.randint(1, 5), 6)
        verdict = steenrod_nonempty(ch)
        if not verdict.nonempty:
            raise _Fail(f"chain {t} claimed empty at {verdict.empty_at}")
        th = verdict.thread
        for k in range(len(ch.spaces) - 1):
            if ch.steps[k](th[k + 1]) != th[k]:
                raise _Fail(f"thread broken at step {k}")
        threads += 1
    start = 4
    lazy = shrinking_injection_chain(start, depth=start + 3)
    verdict = steenrod_nonempty(lazy)
    if verdict.nonempty or verdict.empty_at != start:
        raise _Fail("injection chain not recognized as empty")
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
        raise _Fail("zero family did not extend over the empty limit")
    w = [ExtRat(0)] * chain.spaces[0].n
    w[0] = ExtRat(1)
    vals = [Valuation(chain.spaces[0], tuple(w))] + [
        zero_valuation(chain.spaces[n]) for n in range(1, levels)
    ]
    try:
        check_compatibility(ValuedSystem(chain, tuple(vals)))
    except Incompatible:
        return (f"{threads} threads verified; empty-limit criterion holds "
                "both ways")
    raise _Fail("nonzero family passed compatibility")


def suite_local_finiteness(seed: int = 20269) -> str:
    """The four readings of local finiteness agree on 100 random
    valuations, infinite weights included."""
    rng = Random(seed)
    finite_count = 0
    infinite_count = 0
    for t in range(100):
        sp = rand_poset(rng, rng.randint(1, 7), edge_prob=rng.uniform(0.2, 0.7))
        nu = rand_valuation(rng, sp, inf_prob=0.35 if t % 2 else 0.0)
        rep = is_locally_finite(nu)
        if len(set(rep.conditions)) != 1:
            raise _Fail(f"conditions split: {rep.conditions}")
        if rep.verdict != rep.conditions[0]:
            raise _Fail("verdict does not match the conditions")
        if _inf_mask(nu._scaled[1]):
            infinite_count += 1
        else:
            finite_count += 1
    return (f"{finite_count} finite + {infinite_count} with infinite "
            "weights, all four conditions agree")


# Looked up at call time: a tracer may rebind SUITES with wrapped callables.
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

# (name, budget in seconds) per criterion, in SUITES order
_CRITERIA = (
    ("valuation axioms", 30.0),
    ("level approximation", 30.0),
    ("ep limit marginals", 60.0),
    ("product extension", 60.0),
    ("tightness", 30.0),
    ("tight-route limits", 60.0),
    ("thread search", 30.0),
    ("local finiteness", 10.0),
)


def run_suite(number: int, seed: int = None) -> SuiteResult:
    """Run one criterion; a failed check or a ValimError is its FAIL."""
    if not 1 <= number <= len(SUITES):
        raise ValimError(f"no criterion {number}; 1..{len(SUITES)}")
    fn = SUITES[number - 1]
    name, budget = _CRITERIA[number - 1]
    t0 = time.monotonic()
    try:
        detail = fn() if seed is None else fn(seed)
        passed = True
    except _Fail as fail:
        detail, passed = str(fail), False
    except ValimError as err:
        detail, passed = f"{type(err).__name__}: {err}", False
    return SuiteResult(number, name, passed, detail, time.monotonic() - t0,
                       budget)


def run_all(numbers=None) -> list:
    picked = numbers or range(1, len(SUITES) + 1)
    return [run_suite(n) for n in picked]
