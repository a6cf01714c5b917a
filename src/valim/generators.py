"""Seeded random instances for tests, benchmarks and the gallery.

Everything here takes a random.Random (never the module-level RNG) so
runs are reproducible from a single seed.  Spaces come out of
check_space, not trusted constructions: a relation that is closed
transitively there is still checked for antisymmetry, the one law its
closure can break, and any other relation for every law, so a generator
bug fails loudly at generation time.  Valuations are born scaled:
rand_valuation builds its valuation from the integers of its draws
(Valuation._from_scaled), equal in weights, hash and pickle to the one
Valuation builds from rand_weights on the same draws.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from random import Random

from .extreal import INF, ZERO, ExtRat
from .order import FiniteSpace, MonotoneMap, check_space
from .projective import LazyChain, PosetSystem, PrefixChain, ValuedSystem
from .valuation import Valuation

__all__ = [
    "rand_poset",
    "rand_weights",
    "rand_valuation",
    "rand_monotone_map",
    "rand_ep_step",
    "rand_prefix_chain",
    "rand_ep_prefix_chain",
    "rand_valued_chain",
    "rand_poset_system",
    "rand_valued_poset_system",
    "shrinking_injection_chain",
]


def rand_poset(rng: Random, n: int, edge_prob: float = 0.35,
               prefix: str = "x") -> FiniteSpace:
    """A random n-point poset: a DAG on 0 < 1 < ... < n-1 with the given
    edge probability, transitively closed."""
    labels = tuple(f"{prefix}{i}" for i in range(n))
    relation = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return check_space(labels, relation, transitive_closure=True)


def _draws(rng: Random, n: int, max_den: int, inf_prob: float) -> list:
    """One weight per point, drawn: None for infinity, else (num, den)
    for num / den."""
    out = []
    for _ in range(n):
        if inf_prob and rng.random() < inf_prob:
            out.append(None)
        else:
            den = rng.randint(1, max_den)
            out.append((rng.randint(0, 2 * den), den))
    return out


def rand_weights(rng: Random, n: int, max_den: int = 6,
                 inf_prob: float = 0.0) -> tuple:
    # each Fraction built once; a zero is ZERO, as the library decodes it
    return tuple([INF if d is None else ZERO if not d[0]
                  else ExtRat._trusted(Fraction(*d))
                  for d in _draws(rng, n, max_den, inf_prob)])


def rand_valuation(rng: Random, space: FiniteSpace, max_den: int = 6,
                   inf_prob: float = 0.0) -> Valuation:
    """Valuation(space, rand_weights(rng, space.n, max_den, inf_prob)),
    from the same draws, built in the scaled currency: the weights in
    lowest terms over the least common denominator, as Valuation scales
    them."""
    low = []
    for d in _draws(rng, space.n, max_den, inf_prob):
        if d is not None:
            g = gcd(*d)
            d = (d[0] // g, d[1] // g)
        low.append(d)
    den = lcm(*{d[1] for d in low if d is not None})
    return Valuation._from_scaled(space, den, tuple([
        inf if d is None else d[0] * (den // d[1]) for d in low]))


def rand_monotone_map(rng: Random, src: FiniteSpace, dst: FiniteSpace,
                      tries: int = 32) -> MonotoneMap:
    """A random monotone map, by filling a linear extension greedily.

    Each point's image is drawn from the upper bounds of the images of
    its strict down-set; a dead end restarts the draw.  Falls back to a
    constant map (always monotone) if every try dead-ends.
    """
    if dst.n == 0:
        if src.n:
            raise ValueError("no maps into the empty space")
        return MonotoneMap(src, dst, ())
    order = sorted(range(src.n), key=lambda i: src.down[i].bit_count())
    full = (1 << dst.n) - 1
    for _ in range(tries):
        graph = [None] * src.n
        ok = True
        for i in order:
            allowed = full
            below = src.down[i] & ~(1 << i)
            while below:
                b = below & -below
                allowed &= dst.up[graph[b.bit_length() - 1]]
                below ^= b
            if not allowed:
                ok = False
                break
            choices = [j for j in range(dst.n) if (allowed >> j) & 1]
            graph[i] = rng.choice(choices)
        if ok:
            return MonotoneMap(src, dst, tuple(graph))
    c = rng.randrange(dst.n)
    return MonotoneMap(src, dst, (c,) * src.n)


def rand_ep_step(rng: Random, base: FiniteSpace, extras: int,
                 tag: str = "z"):
    """A space containing base as a copy plus `extras` fresh maximal
    points, each pinned directly above one base point.

    Returns (big, projection).  The projection folds each fresh point
    onto its anchor; the copy point at the anchor is the least preimage
    of the anchor's up-set, so the projection half of an ep-pair.
    """
    labels = list(base.labels)
    relation = [
        (base.labels[i], base.labels[j])
        for i in range(base.n)
        for j in range(base.n)
        if i != j and (base.up[i] >> j) & 1
    ]
    anchors = []
    for k in range(extras):
        name = f"{tag}{k}"
        while name in base.index or name in labels:
            name += "_"
        a = rng.randrange(base.n)
        anchors.append(a)
        labels.append(name)
        for i in range(base.n):
            if (base.up[i] >> a) & 1:
                relation.append((base.labels[i], name))
    big = check_space(tuple(labels), relation)
    graph = tuple(list(range(base.n)) + anchors)
    return big, MonotoneMap(big, base, graph)


def rand_prefix_chain(rng: Random, levels: int, max_n: int,
                      edge_prob: float = 0.35) -> PrefixChain:
    """Random spaces joined by random monotone steps (downward)."""
    spaces = [
        rand_poset(rng, rng.randint(1, max_n), edge_prob, f"l{k}_")
        for k in range(levels)
    ]
    steps = [
        rand_monotone_map(rng, spaces[k + 1], spaces[k])
        for k in range(levels - 1)
    ]
    return PrefixChain(tuple(spaces), tuple(steps))


def rand_ep_prefix_chain(rng: Random, levels: int, max_n: int,
                         edge_prob: float = 0.35) -> PrefixChain:
    """A chain grown upward by ep steps; every bond is a projection."""
    base_n = rng.randint(1, max(1, max_n - levels + 1))
    spaces = [rand_poset(rng, base_n, edge_prob, "b")]
    steps = []
    for k in range(1, levels):
        room = max_n - spaces[-1].n
        extras = rng.randint(0, max(0, min(2, room)))
        big, proj = rand_ep_step(rng, spaces[-1], extras, f"z{k}_")
        spaces.append(big)
        steps.append(proj)
    return PrefixChain(tuple(spaces), tuple(steps))


def rand_valued_chain(rng: Random, chain: PrefixChain, max_den: int = 6,
                      inf_prob: float = 0.0) -> ValuedSystem:
    """Compatible marginals: a random valuation on the last level pushed
    down every bond."""
    from .constructions import marginal_family_from_joint

    joint = rand_valuation(rng, chain.spaces[-1], max_den, inf_prob)
    return marginal_family_from_joint(chain, joint)


_SHAPES = ("chain2", "chain3", "chain4", "vee", "square")


def rand_poset_system(rng: Random, shape: str = None, max_top: int = 8,
                      edge_prob: float = 0.35) -> PosetSystem:
    """A small directed-index system with the top space generated first
    and the rest reached by random monotone bonds out of it.

    Shapes: chain2/chain3/chain4 (linear), vee (two incomparable indices
    under a top; no composition constraints), square (a diamond whose
    bottom space is a single point, which makes the two composites down
    agree for free).
    """
    if shape is None:
        shape = rng.choice(_SHAPES)
    top = rand_poset(rng, rng.randint(1, max_top), edge_prob, "t")
    if shape.startswith("chain"):
        k = int(shape[-1])
        idx = check_space(tuple(str(i) for i in range(k)),
                          [(str(i), str(i + 1)) for i in range(k - 1)],
                          transitive_closure=True)
        spaces = [None] * k
        spaces[k - 1] = top
        bonds = {}
        for i in range(k - 2, -1, -1):
            spaces[i] = rand_poset(rng, rng.randint(1, max_top),
                                   edge_prob, f"s{i}_")
            bonds[(i, i + 1)] = rand_monotone_map(rng, spaces[i + 1],
                                                  spaces[i])
        return PosetSystem(idx, tuple(spaces), bonds)
    if shape == "vee":
        idx = check_space(("a", "b", "t"), [("a", "t"), ("b", "t")])
        xa = rand_poset(rng, rng.randint(1, max_top), edge_prob, "a")
        xb = rand_poset(rng, rng.randint(1, max_top), edge_prob, "b")
        bonds = {
            (0, 2): rand_monotone_map(rng, top, xa),
            (1, 2): rand_monotone_map(rng, top, xb),
        }
        return PosetSystem(idx, (xa, xb, top), bonds)
    if shape == "square":
        idx = check_space(("o", "a", "b", "t"),
                          [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")],
                          transitive_closure=True)
        xo = check_space(("pt",), [])
        xa = rand_poset(rng, rng.randint(1, max_top), edge_prob, "a")
        xb = rand_poset(rng, rng.randint(1, max_top), edge_prob, "b")
        bonds = {
            (0, 1): MonotoneMap(xa, xo, (0,) * xa.n),
            (0, 2): MonotoneMap(xb, xo, (0,) * xb.n),
            (1, 3): rand_monotone_map(rng, top, xa),
            (2, 3): rand_monotone_map(rng, top, xb),
        }
        return PosetSystem(idx, (xo, xa, xb, top), bonds)
    raise ValueError(f"unknown shape {shape!r}")


def rand_valued_poset_system(rng: Random, shape: str = None,
                             max_top: int = 8, max_den: int = 6,
                             inf_prob: float = 0.0) -> ValuedSystem:
    from .constructions import marginal_family_from_joint

    sys = rand_poset_system(rng, shape, max_top)
    joint = rand_valuation(rng, sys.space(sys.top_index()), max_den,
                           inf_prob)
    return marginal_family_from_joint(sys, joint)


def shrinking_injection_chain(start: int, depth: int = 16) -> LazyChain:
    """Antichains of size start, start-1, ... with label-inclusion steps:
    every step is injective and not surjective, every explored level up
    to `start` is nonempty, and the level hits empty beyond.  The thread
    set over the full tail is empty even though no finite stage says so.
    """
    def space_rule(n: int) -> FiniteSpace:
        size = max(0, start - n)
        return check_space(tuple(f"i{k}" for k in range(size)), [])

    def step_rule(n: int) -> MonotoneMap:
        hi = space_rule(n + 1)
        lo = space_rule(n)
        return MonotoneMap(hi, lo, tuple(range(hi.n)))

    return LazyChain(space_rule, step_rule, depth)
