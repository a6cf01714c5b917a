"""`constructions`: the paper's Daniell-Kolmogorov / Prohorov path.

One operation is one construction on small spaces: `ep_limit_valuation`
on an ep chain, `uniform_tightness_check` + `prohorov_limit` on a
general chain, `materialize_limit` + `check_compatibility` on a poset
system, `dk_product` on 2-3 factors of at most 4 points, or
`steenrod_nonempty` on a long prefix chain.  Chain lengths, system
shapes and factor sizes follow fixed schedules; the seed decides the
spaces, maps and weights.  Every check recomputes the expected result
from plain graphs and Fractions, without valim.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from random import Random

from valim import (
    check_compatibility,
    dk_product,
    ep_limit_valuation,
    marginals_from_joint,
    materialize_limit,
    prohorov_limit,
    steenrod_nonempty,
    uniform_tightness_check,
)
from valim.generators import (
    rand_ep_prefix_chain,
    rand_monotone_map,
    rand_poset,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
)
from valim.order import product_space
from valim.projective import PrefixChain

from harness import CheckFailed, Corpus, fresh_blob

# Sizes are fixed per class; the seed decides structure and weights.
# Classes are sized so that the round's median falls inside the
# steenrod class and its 90th percentile inside the (2, 2, 3) products,
# not at the edge between two classes.
EP_LEVELS = (4,) * 25                    # at most 8 points per level
PROHOROV_SIZES = ((3, 4, 5),) * 25       # points per level
POSET_SHAPES = ("chain2", "chain3", "chain4", "vee", "square") * 12
DK_SIZES = (
    (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (1, 4), (2, 4), (4, 3),
    (3, 3, 3), (3, 3, 3), (2, 3, 3), (2, 3, 3), (2, 2, 4), (2, 2, 4),
) + ((2, 2, 3),) * 20
STEENROD_SIZES = ((8,) * 20,) * 60       # 20 levels of 8 points


def fixed_chain(rng, sizes):
    """A prefix chain of random posets with the given sizes, joined by
    random monotone steps."""
    spaces = [rand_poset(rng, n, prefix=f"l{k}_")
              for k, n in enumerate(sizes)]
    steps = [rand_monotone_map(rng, spaces[k + 1], spaces[k])
             for k in range(len(sizes) - 1)]
    return PrefixChain(tuple(spaces), tuple(steps))


def fracs(nu):
    return [w.frac for w in nu.weights]


def push(weights, graph, n):
    """Fibre sums of `weights` along `graph` onto n target points."""
    out = [Fraction(0)] * n
    for i, w in enumerate(weights):
        out[graph[i]] += w
    return out


class ChainLimit:
    """ep_limit_valuation, or the tight route, on a prefix chain."""

    def __init__(self, vs, route):
        ch = vs.system
        self.route = route
        self.sizes = [sp.n for sp in ch.spaces]
        self.steps = [f.graph for f in ch.steps]
        self.joint = fracs(vs.val(ch.last))
        self.blob = fresh_blob(vs)
        self.name = f"{route}[{len(self.sizes)}]"

    def prepare(self):
        return pickle.loads(self.blob)

    def run(self, vs):
        if self.route == "ep":
            return None, ep_limit_valuation(vs)
        report = uniform_tightness_check(vs)
        return report, prohorov_limit(vs, report)

    def graph_to(self, i):
        g = list(range(self.sizes[-1]))
        for k in range(len(self.sizes) - 2, i - 1, -1):
            g = [self.steps[k][x] for x in g]
        return g

    def check(self, vs, out):
        report, lv = out
        if report is not None and not report.verdict:
            raise CheckFailed(f"not uniformly tight: {report.failure}")
        if lv.route != self.route:
            raise CheckFailed(f"route {lv.route}")
        if fracs(lv.valuation) != self.joint:
            raise CheckFailed("limit valuation is not the joint")
        for i, n in enumerate(self.sizes):
            want = push(self.joint, self.graph_to(i), n)
            if fracs(lv.marginal(i)) != want:
                raise CheckFailed(f"marginal at level {i}")


# cover bonds of each generated system shape, as (below, above) indices
_COVERS = {
    "chain2": ((0, 1),),
    "chain3": ((0, 1), (1, 2)),
    "chain4": ((0, 1), (1, 2), (2, 3)),
    "vee": ((0, 2), (1, 2)),
    "square": ((0, 1), (0, 2), (1, 3), (2, 3)),
}


class PosetLimit:
    """materialize_limit + check_compatibility on a poset system."""

    def __init__(self, vs, shape):
        sys = vs.system
        self.top = sys.top_index()
        self.sizes = [sp.n for sp in sys.spaces]
        self.labels = [sp.labels for sp in sys.spaces]
        # graphs from the top down, composed along cover bonds only
        covers = {pair: sys.bonds[pair].graph for pair in _COVERS[shape]}
        down = {self.top: tuple(range(self.sizes[self.top]))}
        while len(down) < len(self.sizes):
            for (lo, hi), g in covers.items():
                if hi in down and lo not in down:
                    down[lo] = tuple(g[x] for x in down[hi])
        self.down = down
        self.joint = fracs(vs.val(self.top))
        self.blob = fresh_blob(vs)
        self.name = f"poset-{shape}"

    def prepare(self):
        return pickle.loads(self.blob)

    def run(self, vs):
        limit = materialize_limit(vs.system)
        check_compatibility(vs)
        return limit

    def check(self, vs, limit):
        if limit.space.n != self.sizes[self.top]:
            raise CheckFailed(f"{limit.space.n} threads")
        for i, g in self.down.items():
            if tuple(limit.projection(i).graph) != g:
                raise CheckFailed(f"projection to {i}")
            for x, lab in enumerate(limit.space.labels):
                if lab[i] != self.labels[i][g[x]]:
                    raise CheckFailed(f"thread {lab} at index {i}")
            # accepted as compatible: each marginal must be the
            # pushforward of the joint it was read from
            if fracs(vs.val(i)) != push(self.joint, g, self.sizes[i]):
                raise CheckFailed(f"marginal at {i} is not the pushforward")


class Product:
    """dk_product of the marginals read off a random joint."""

    def __init__(self, rng, sizes):
        factors = [
            rand_poset(rng, n, edge_prob=rng.uniform(0.3, 0.8),
                       prefix=f"f{p}_")
            for p, n in enumerate(sizes)
        ]
        prod, _ = product_space(factors)
        joint = rand_valuation(rng, prod, max_den=4)
        family = marginals_from_joint(factors, joint)
        self.joint = dict(zip(prod.labels, fracs(joint)))
        self.blob = fresh_blob((factors, family))
        self.name = f"dk{sizes}"

    def prepare(self):
        return pickle.loads(self.blob)

    def run(self, inputs):
        factors, family = inputs
        # unvalidated, as the gate's product criterion calls it
        return dk_product(factors, family, validate=False)

    def check(self, inputs, dk):
        got = dict(zip(dk.space.labels, fracs(dk.valuation)))
        if got != self.joint:
            raise CheckFailed("product valuation is not the joint")
        for s, proj in dk.projections.items():
            want = {}
            for lab, w in self.joint.items():
                key = tuple(lab[p] for p in s)
                want[key] = want.get(key, Fraction(0)) + w
            pushed = push(fracs(dk.valuation), proj.graph, proj.target.n)
            if dict(zip(proj.target.labels, pushed)) != want:
                raise CheckFailed(f"marginal on positions {s}")


class Threads:
    """steenrod_nonempty on a prefix chain of nonempty levels."""

    def __init__(self, rng, sizes):
        ch = fixed_chain(rng, sizes)
        self.index = [sp.index for sp in ch.spaces]
        self.labels = [sp.labels for sp in ch.spaces]
        self.steps = [f.graph for f in ch.steps]
        self.blob = fresh_blob(ch)
        self.name = f"steenrod[{len(sizes)}]"

    def prepare(self):
        return pickle.loads(self.blob)

    def run(self, ch):
        return steenrod_nonempty(ch)

    def check(self, ch, result):
        thread = result.thread
        if thread is None or len(thread) != len(self.labels):
            raise CheckFailed(f"no full thread: {result}")
        for k, g in enumerate(self.steps):
            x = self.index[k + 1][thread[k + 1]]
            if self.labels[k][g[x]] != thread[k]:
                raise CheckFailed(f"thread breaks at step {k}")


def setup(seed, workdir):
    rng = Random(seed)
    cases = []
    for levels in EP_LEVELS:
        ch = rand_ep_prefix_chain(rng, levels, 8)
        cases.append(ChainLimit(rand_valued_chain(rng, ch), "ep"))
        yield
    for sizes in PROHOROV_SIZES:
        ch = fixed_chain(rng, sizes)
        cases.append(ChainLimit(rand_valued_chain(rng, ch), "tight"))
        yield
    for shape in POSET_SHAPES:
        vs = rand_valued_poset_system(rng, shape, max_top=12)
        cases.append(PosetLimit(vs, shape))
        yield
    for sizes in DK_SIZES:
        cases.append(Product(rng, sizes))
        yield
    for sizes in STEENROD_SIZES:
        cases.append(Threads(rng, sizes))
        yield
    Random(seed).shuffle(cases)
    return Corpus(cases)
