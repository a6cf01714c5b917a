"""Projective systems of finite T0 spaces and their limits.

A system assigns a space to every index of a directed order and a bond
map to every comparable pair, contravariantly: bond(i, j) maps the space
at the higher index j onto the space at the lower index i, with identity
bonds on the diagonal and composition along chains.

Three presentations:

* PosetSystem: an explicit finite directed index poset, all data given.
* PrefixChain: an omega-chain that is constant beyond a finite prefix;
  everything about it is exact because the tail is the identity.
* LazyChain: an omega-chain given by rules and probed up to a depth
  bound; answers that depend on the unseen tail carry an explicit
  exact/upper-bound status and are never silently truncated.

The canonical limit is the space of threads (tuples matching under all
bonds) with componentwise order; for a PrefixChain it is presented as the
last prefix space itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import _kernels
from .errors import SizeLimit, ValimError
from .order import (
    DEFAULT_MAX_OPENS,
    DEFAULT_MAX_POINTS,
    EpPair,
    FiniteSpace,
    MonotoneMap,
    NotEpPair,
    UpSet,
    compose,
    identity_map,
    _hasse_covers,
)
from .valuation import (
    Valuation,
    _pushes_to,
    first_differing_open,
    image_valuation,
)

__all__ = [
    "BondLawViolation",
    "Incompatible",
    "EpLawViolation",
    "NotAProjection",
    "NotDirected",
    "InconclusiveAtDepth",
    "PosetSystem",
    "PrefixChain",
    "LazyChain",
    "ValuedSystem",
    "LimitSpace",
    "EpSystem",
    "CylinderOpen",
    "EventualImage",
    "SteenrodResult",
    "CompactFamily",
    "check_system",
    "check_compatibility",
    "materialize_limit",
    "upper_adjoint",
    "upper_adjoints",
    "embedding_from_projection",
    "check_ep_system",
    "limit_ep_structure",
    "verify_ep_limit_laws",
    "cylinder_meet",
    "cylinder_join",
    "cylinders_equal",
    "eventual_images",
    "steenrod_nonempty",
    "find_dominating_level",
]


class BondLawViolation(ValimError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"bond law {law} fails at {witness!r}")


class Incompatible(ValimError):
    def __init__(self, i, j, witness):
        self.pair = (i, j)
        self.witness = witness
        super().__init__(
            f"marginals at {i} and {j} disagree on {witness.members}"
        )


class EpLawViolation(ValimError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"ep law {law} fails at {witness!r}")


class NotAProjection(ValimError):
    """The map admits no lower adjoint at the witness point."""

    def __init__(self, point, candidates):
        self.point = point
        self.candidates = candidates
        super().__init__(
            f"no least preimage point above {point!r}; minimal candidates "
            f"{candidates!r}"
        )


class NotDirected(ValimError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"index pair {pair!r} has no upper bound")


class InconclusiveAtDepth(ValimError):
    def __init__(self, what, depth):
        self.what = what
        self.depth = depth
        super().__init__(f"{what}: not decided within depth {depth}")


@dataclass(frozen=True)
class PosetSystem:
    """A projective system over an explicit finite directed index poset.

    Indices are the points of index_poset in canonical order; spaces[k]
    sits at index k.  bonds maps comparable index pairs (i, j), i below
    j, to the bond X_j -> X_i; given() yields those.  Every cover must be
    given and a missing pair is filled in by composing given ones, so
    each bond is a composite of the covers (covers(): the Hasse covers of
    index_poset), the same along every route once check_system passes.
    """

    index_poset: FiniteSpace
    spaces: tuple
    bonds: dict = field(hash=False)

    kind = "poset"

    def __post_init__(self):
        n = self.index_poset.n
        if n == 0:
            raise ValimError("the index poset must be nonempty")
        if len(self.spaces) != n:
            raise ValimError("one space per index required")
        up, labels = self.index_poset.up, self.index_poset.labels
        for i in range(n):
            for j in range(n):
                if up[i] & up[j] == 0:
                    raise NotDirected((labels[i], labels[j]))
        object.__setattr__(self, "bonds", dict(self.bonds))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if (up[i] >> j) & 1]
        object.__setattr__(self, "_given",
                           tuple(p for p in pairs if p in self.bonds))
        for i, j in pairs:
            self._derive_bond(i, j)

    def _derive_bond(self, i, j) -> MonotoneMap:
        if (i, j) in self.bonds:
            return self.bonds[(i, j)]
        if i == j:
            m = identity_map(self.spaces[i])
        else:
            idx = self.index_poset
            for k in range(idx.n):
                if (k, j) in self.bonds and k != j \
                        and (idx.up[i] >> k) & 1 and (idx.up[k] >> j) & 1:
                    m = compose(self._derive_bond(i, k), self.bonds[(k, j)])
                    break
            else:
                raise BondLawViolation(
                    "missing bond",
                    (idx.labels[i], idx.labels[j]),
                )
        self.bonds[(i, j)] = m
        return m

    def indices(self):
        return range(self.index_poset.n)

    def covers(self):
        for i, j in _hasse_covers(self.index_poset):
            yield i, j, self.bonds[i, j]

    def given(self):
        for i, j in self._given:
            yield i, j, self.bonds[i, j]

    def index_leq(self, i, j) -> bool:
        return bool((self.index_poset.up[i] >> j) & 1)

    def designated_ub(self, i, j) -> int:
        """The chosen upper bound of an index pair: least canonical label."""
        both = self.index_poset.up[i] & self.index_poset.up[j]
        return (both & -both).bit_length() - 1

    def top_index(self) -> int:
        # a finite directed poset has a greatest element
        for i in self.indices():
            if self.index_poset.down[i] == self.index_poset.full_mask:
                return i
        raise NotDirected(self.index_poset.labels)

    def space(self, i) -> FiniteSpace:
        return self.spaces[i]

    def bond(self, i, j) -> MonotoneMap:
        if not self.index_leq(i, j):
            raise ValimError(f"indices not comparable: {i}, {j}")
        return self.bonds[(i, j)]


class _Chain:
    """What both chains share: steps are covers, bonds compose steps."""

    def indices(self):
        return range(self.last + 1)

    def index_leq(self, i, j) -> bool:
        return i <= j

    def designated_ub(self, i, j) -> int:
        return max(i, j)

    def top_index(self) -> int:
        """The last index: a PrefixChain's last prefix level, a
        LazyChain's depth."""
        return self.last

    def given(self):
        return self.covers()

    def bond(self, i, j) -> MonotoneMap:
        if i > j:
            raise ValimError(f"indices not comparable: {i}, {j}")
        f = identity_map(self.space(j))
        for k in range(min(j, self.last) - 1, i - 1, -1):
            f = compose(self.step(k), f)
        return f


@dataclass(frozen=True)
class PrefixChain(_Chain):
    """An omega-chain that is the identity beyond its explicit prefix.

    steps[k] is the bond from level k+1 down to level k; step(k) checks
    its alignment, covers() leaves that to check_system.  Level n beyond
    the prefix is the last prefix space, bonded by identities, which is
    what makes every limit-level question exact.
    """

    spaces: tuple
    steps: tuple

    kind = "prefix"

    def __post_init__(self):
        if not self.spaces:
            raise ValimError("a chain needs at least one level")
        if len(self.steps) != len(self.spaces) - 1:
            raise ValimError("need exactly one step map per adjacent pair")

    @property
    def last(self) -> int:
        return len(self.spaces) - 1

    def space(self, i) -> FiniteSpace:
        spaces = self.spaces
        return spaces[i] if i < len(spaces) else spaces[-1]

    def step(self, k) -> MonotoneMap:
        if k >= self.last:
            return identity_map(self.spaces[-1])
        m = self.steps[k]
        if m.source != self.spaces[k + 1] or m.target != self.spaces[k]:
            raise BondLawViolation("step alignment", k)
        return m

    def covers(self):
        for k, m in enumerate(self.steps):
            yield k, k + 1, m


@dataclass
class LazyChain(_Chain):
    """An omega-chain given by rules, probed up to a fixed depth.

    space_rule(n) yields level n; step_rule(n) yields the bond from level
    n+1 down to level n.  Rules must be pure; results are memoized.
    Nothing beyond `depth` is ever consulted, and operations that would
    need the tail report upper bounds or raise InconclusiveAtDepth.
    """

    space_rule: object
    step_rule: object
    depth: int

    kind = "lazy"

    def __post_init__(self):
        if self.depth < 0:
            raise ValimError("depth must be non-negative")
        self._spaces = {}
        self._steps = {}

    @property
    def last(self) -> int:
        return self.depth

    def space(self, i) -> FiniteSpace:
        if i > self.depth:
            raise InconclusiveAtDepth(f"space at level {i}", self.depth)
        if i not in self._spaces:
            self._spaces[i] = self.space_rule(i)
        return self._spaces[i]

    def step(self, k) -> MonotoneMap:
        if k + 1 > self.depth:
            raise InconclusiveAtDepth(f"step at level {k}", self.depth)
        if k not in self._steps:
            m = self.step_rule(k)
            if m.source != self.space(k + 1) or m.target != self.space(k):
                raise BondLawViolation("step alignment", k)
            self._steps[k] = m
        return self._steps[k]

    def covers(self):
        for k in range(self.depth):
            yield k, k + 1, self.step(k)


def check_system(sys):
    """Validate bond laws on the verified range; returns the system.

    Every bond the caller gave (given()) must be aligned, and the
    identity on the diagonal; the others compose given ones.  So
    composition holds on every triple once all routes of covers from k
    down to i compose alike, and two routes first part at an index i
    with two upper covers below k: bond(i, j) o bond(j, k) is compared
    with bond(i, k), for the upper covers j of i below k, only there and
    at a given non-cover (i, k), and a chain composes nothing.  A failed
    check reruns the full scan (_system_scan), in whose order it fails.
    """
    if not _bond_laws_hold(sys):
        _system_scan(sys)
    return sys


def _bond_laws_hold(sys) -> bool:
    """check_system's walk: whether the bond laws hold.  It reads the
    given bonds once.  Every cover is given, so the upper covers of i are
    the j of its given pairs (i, j) with no other given (i, m) below j,
    and an index with one given pair above it has nothing to compose."""
    space, leq = sys.space, sys.index_leq
    above = {}  # i -> the indices j of the given pairs (i, j), i < j
    for i, j, f in sys.given():
        src, dst = space(j), space(i)
        if f.source is not src and f.source != src or f.target is not dst \
                and f.target != dst or i == j and not f.is_identity():
            return False
        if i != j:
            above.setdefault(i, []).append(j)
    for i, up_i in above.items():
        if len(up_i) == 1:
            continue
        ups = [j for j in up_i if not any(m != j and leq(m, j) for m in up_i)]
        extra = [k for k in up_i if k not in ups]
        for k in sys.indices() if len(ups) > 1 else extra:
            routes = [j for j in ups if j != k and leq(j, k)]
            if (len(routes) > 1 or k in extra) and any(
                    compose(sys.bond(i, j), sys.bond(j, k)) != sys.bond(i, k)
                    for j in routes):
                return False
    return True


def _system_scan(sys):
    """check_system over every index pair and triple, in scan order.  Only
    a poset system fails here: a chain's bonds compose checked steps."""
    for i in sys.indices():
        b = sys.bond(i, i)
        if b.source != sys.space(i) or not b.is_identity():
            raise BondLawViolation("identity", sys.index_poset.labels[i])
        for j in sys.indices():
            if not sys.index_leq(i, j):
                continue
            b = sys.bond(i, j)
            if b.source != sys.space(j) or b.target != sys.space(i):
                raise BondLawViolation("alignment", tuple(
                    sys.index_poset.labels[x] for x in (i, j)))
            for k in sys.indices():
                if sys.index_leq(j, k) and \
                        compose(b, sys.bond(j, k)) != sys.bond(i, k):
                    raise BondLawViolation("composition", tuple(
                        sys.index_poset.labels[x] for x in (i, j, k)))
    return sys


@dataclass(frozen=True)
class ValuedSystem:
    """A system with one valuation per verified index."""

    system: object
    valuations: tuple

    def __post_init__(self):
        idxs = list(self.system.indices())
        if len(self.valuations) != len(idxs):
            raise ValimError("one valuation per index required")
        for i in idxs:
            if self.valuations[i].space != self.system.space(i):
                raise ValimError(f"valuation at {i} lives on the wrong space")

    def val(self, i) -> Valuation:
        if self.system.kind == "prefix":
            return self.valuations[min(i, self.system.last)]
        return self.valuations[i]


def check_compatibility(vs: ValuedSystem) -> ValuedSystem:
    """Exact marginal compatibility over every verified index pair.

    Pushing the valuation at j down the bond must reproduce the
    valuation at i as a set function on every open.  Weights are
    compared on scaled integers (_pushes_to), and open by open only
    where they differ, as an infinite weight masking finite ones allows.
    Only the bonds the caller gave (given(): the covers, and any other
    pair a poset system was given) are pushed along: pushforward is
    functorial, (f o g)_* = f_* o g_*, and the other bonds compose given
    ones, so all agree when those do, bond laws or not; otherwise the
    scan over every pair (_compatibility_scan) decides.
    """
    if not all(_pushes_to(f, vs.val(j), vs.val(i))
               for i, j, f in vs.system.given()):
        _compatibility_scan(vs)
    return vs


def _compatibility_scan(vs: ValuedSystem):
    """check_compatibility over every index pair, in (i, j) order;
    first_differing_open compares the scaled weights before any open."""
    sys = vs.system
    for i in sys.indices():
        for j in sys.indices():
            if not sys.index_leq(i, j):
                continue
            pushed = image_valuation(sys.bond(i, j), vs.val(j))
            w = first_differing_open(vs.val(i), pushed)
            if w is not None:
                raise Incompatible(i, j, w)


@dataclass(frozen=True)
class LimitSpace:
    """A materialized canonical limit: carrier plus all projections.

    Each projection must map space to its index's space; the spaces are
    compared by identity first, so a limit _materialize builds is
    checked in O(levels)."""

    system: object
    space: FiniteSpace
    projections: tuple

    def __post_init__(self):
        sys, space = self.system, self.space
        idxs = sys.indices()
        if len(self.projections) != len(idxs):
            raise ValimError("one projection per index required")
        for i, f in zip(idxs, self.projections):
            xi = sys.space(i)
            if not ((f.source is space or f.source == space)
                    and (f.target is xi or f.target == xi)):
                raise ValimError(
                    f"projection at {i} does not map the limit to the "
                    f"space at {i}")

    def projection(self, i) -> MonotoneMap:
        if self.system.kind == "prefix":
            return self.projections[min(i, self.system.last)]
        return self.projections[i]


def materialize_limit(sys, max_points: int = DEFAULT_MAX_POINTS) -> LimitSpace:
    """Build the limit space of threads.

    PrefixChain: the last prefix level is the limit (identity tail), its
    projections are the bonds down from there.  PosetSystem: a finite
    directed index has a top, and a thread is determined by (and free at)
    its top component, so the carrier is the top space relabeled with the
    full thread tuples; this keeps the carrier size at the top space
    rather than the product of all levels.  LazyChain has no materialized
    limit; use cylinder-level operations instead.  The bond laws are
    checked first (check_system).
    """
    check_system(sys)
    return _materialize(sys, max_points)


def _materialize(sys, max_points) -> LimitSpace:
    """materialize_limit on a system whose bond laws were already checked."""
    if sys.kind not in ("prefix", "poset"):
        raise ValimError("only poset systems and prefix chains materialize")
    top = sys.top_index()
    xt = sys.space(top)
    idxs = list(sys.indices())
    down = _bonds_to(sys, top)
    if sys.kind == "prefix":
        return LimitSpace(sys, xt, tuple(down[i] for i in idxs))
    if xt.n > max_points:
        raise SizeLimit("limit points", max_points)
    graphs = [down[i].graph for i in idxs]
    # thread x is the x-th entry of every index's column of labels
    labels = tuple(zip(*[list(map(sys.space(i).labels.__getitem__, g))
                         for i, g in zip(idxs, graphs)]))
    # the top's order under thread labels, which are distinct because a
    # thread's top component is the top point itself; so each bond stays
    # monotone
    carrier = FiniteSpace._trusted(labels, xt.up)
    projections = tuple(
        MonotoneMap._trusted(carrier, sys.space(i), g)
        for i, g in zip(idxs, graphs)
    )
    return LimitSpace(sys, carrier, projections)


def _bonds_to(sys, j) -> dict:
    """bond(i, j) for every index i below j, in one walk down the covers
    from j; where the bond laws hold, every route gives the system's own
    bond.  Nothing is stored on the system, which is pickled as input."""
    below = {}  # k -> [(i, bond(i, k))] over the indices i that k covers
    for i, k, f in sys.covers():
        below.setdefault(k, []).append((i, f))
    down, todo = {j: identity_map(sys.space(j))}, [j]
    for k in todo:
        for i, f in below.get(k, ()):
            if i not in down:
                down[i] = compose(f, down[k])
                todo.append(i)
    return down


def upper_adjoint(limit: LimitSpace, i, u: UpSet) -> UpSet:
    """Largest open V at index i whose cylinder sits inside u.

    Satisfies the Galois law: preimage(V') inside u iff V' inside V.
    V is the upper adjoint of the saturated image (Abramsky and Jung,
    Domain Theory, 3.1), and has a closed form: a point x at i is
    outside V exactly when some limit point y outside u has p_i(y) >= x,
    as p_i^-1(up x) is inside u iff no such y exists.  So V is the
    points at i minus the down-sets of p_i(y) over the y outside u,
    which upper_adjoints computes for a whole column of opens.
    """
    if u.space != limit.space:
        raise ValimError("the open must live on the limit")
    (out,) = upper_adjoints(limit, i, [u.mask])
    return UpSet(limit.projection(i).target, out)


def upper_adjoints(limit: LimitSpace, i, masks) -> list:
    """upper_adjoint's mask at index i for every mask of limit points:
    the points at i minus the union of down(p_i(y)) over the limit
    points y outside the mask (_kernels.union_map).  IndexError for a
    mask with points past the limit's."""
    p = limit.projection(i)
    down = p.target.down
    full, full_i = limit.space.full_mask, p.target.full_mask
    blocked = _kernels.union_map([down[x] for x in p.graph],
                                 [full ^ m for m in masks], limit.space.n)
    return [full_i ^ b for b in blocked]


def embedding_from_projection(p: MonotoneMap) -> EpPair:
    """Recover the embedding from a projection, when it exists.

    e(x) must be the least point of the preimage of the up-set of x, and
    p(e(x)) must land back on x; otherwise p is not the upper half of an
    ep-pair and the witness point with its minimal candidates is
    reported.

    The embedding is monotone by construction, so it is built without
    re-validation: x <= x' gives up(x') inside up(x), hence
    p^-1(up x') inside p^-1(up x), and the least point of the larger
    set lies below every point of the smaller one, e(x') among them.
    EpPair still checks p o e = id and e o p <= id.
    """
    big, small = p.source, p.target
    graph = []
    for x in range(small.n):
        sx = p.preimage_mask(small.up[x])
        least = None
        for y in range(big.n):
            if (sx >> y) & 1 and sx & ~big.up[y] == 0:
                least = y
                break
        if least is None or p.graph[least] != x:
            minimals = [
                big.labels[y]
                for y in range(big.n)
                if (sx >> y) & 1 and big.down[y] & sx == (1 << y)
            ]
            raise NotAProjection(small.labels[x], tuple(minimals))
        graph.append(least)
    e = MonotoneMap._trusted(small, big, tuple(graph))
    return EpPair(p, e)


@dataclass(frozen=True)
class EpSystem:
    """A projective system whose bonds are all projections of ep-pairs."""

    system: object

    @cached_property
    def _cache(self) -> dict:
        return {}

    def pair(self, i, j, bond=None) -> EpPair:
        """The ep-pair of bond(i, j); bond, when given, is that bond
        already composed."""
        key = (i, j)
        if key not in self._cache:
            if bond is None:
                bond = self.system.bond(i, j)
            self._cache[key] = embedding_from_projection(bond)
        return self._cache[key]

    def embedding(self, i, j) -> MonotoneMap:
        return self.pair(i, j).embedding


def check_ep_system(sys) -> EpSystem:
    """Verify the ep laws across the system, after its bond laws.

    Every bond must admit an embedding; embeddings must be the identity
    on the diagonal and compose upward the way bonds compose downward.
    Only the cover pairs are built and validated: a composite of ep
    pairs is an ep pair, (p o p', e' o e), and a projection has exactly
    one embedding, its lower adjoint (Abramsky and Jung, Domain Theory,
    3.1).  Every bond composes covers, so each is then a projection
    whose embedding composes theirs along any route; other pairs are
    built on demand (EpSystem.pair).  A refused cover reruns the full
    scan (_ep_scan) from a fresh EpSystem, in whose order it fails.
    """
    check_system(sys)
    return _check_ep(sys)


def _check_ep(sys) -> EpSystem:
    """check_ep_system on a system whose bond laws hold."""
    eps = EpSystem(sys)
    try:
        for i, j, f in sys.covers():
            eps.pair(i, j, f)
    except (NotAProjection, NotEpPair):
        return _ep_scan(sys)
    return eps


def _ep_scan(sys) -> EpSystem:
    """check_ep_system over every index pair and triple, in scan order,
    on a system whose bond laws hold."""
    eps = EpSystem(sys)
    idxs = list(sys.indices())
    # every bond from one walk down per upper index (_bonds_to); the
    # pairs are still built, and so refused, in the order of the scan
    bonds = {(i, j): f for j in idxs for i, f in _bonds_to(sys, j).items()}

    def embedding(i, j):
        return eps.pair(i, j, bonds[i, j]).embedding
    for i in idxs:
        if not embedding(i, i).is_identity():
            raise EpLawViolation("identity embedding", i)
    for i in idxs:
        for j in idxs:
            if not (sys.index_leq(i, j) and i != j):
                continue
            embedding(i, j)  # EpPair construction validates both laws
            for k in idxs:
                if not (sys.index_leq(j, k) and j != k):
                    continue
                left = compose(embedding(j, k), embedding(i, j))
                if left != embedding(i, k):
                    raise EpLawViolation("embedding composition", (i, j, k))
    return eps


def limit_ep_structure(limit: LimitSpace, eps: EpSystem) -> tuple:
    """Ep-pairs between each level and the limit.

    The embedding of a level point is assembled componentwise: its j-th
    coordinate is the bond image of its embedding into any common upper
    index.  The designated upper bound fixes the choice; the result does
    not depend on it, which the ep-law validation below re-confirms.
    """
    sys = limit.system
    if sys is not eps.system and sys != eps.system:
        raise ValimError("ep structure belongs to a different system")
    out = []
    if sys.kind == "prefix":
        top = sys.last
        for i in sys.indices():
            e = eps.embedding(i, top)
            out.append(EpPair(limit.projection(i), e))
        return tuple(out)
    if sys.kind != "poset":
        raise ValimError("limit ep structure needs a materialized limit")
    carrier = limit.space
    thread_index = {lab: t for t, lab in enumerate(carrier.labels)}
    idxs = list(sys.indices())
    for i in idxs:
        xi = sys.space(i)
        graph = []
        for x in range(xi.n):
            components = []
            for j in idxs:
                k = sys.designated_ub(i, j)
                lifted = eps.embedding(i, k)(xi.labels[x])
                components.append(sys.bond(j, k)(lifted))
            lab = tuple(components)
            t = thread_index.get(lab)
            if t is None:
                raise EpLawViolation("embedded point is not a thread", lab)
            graph.append(t)
        e = MonotoneMap(xi, carrier, tuple(graph))
        out.append(EpPair(limit.projection(i), e))
    return tuple(out)


def verify_ep_limit_laws(limit: LimitSpace, pairs,
                         max_opens: int = DEFAULT_MAX_OPENS):
    """Assert the limit-level ep laws.

    (a) embeddings factor: e_j after e_ij equals e_i; (b) the round trips
    e_i p_i sit below the identity, increase with the index, and reach
    every thread at some index; (c) their preimages of any open increase
    to that open.  Raises EpLawViolation with a witness.
    """
    sys = limit.system
    idxs = list(sys.indices())
    eps = EpSystem(sys)
    for i in idxs:
        for j in idxs:
            if not (sys.index_leq(i, j) and i != j):
                continue
            left = compose(pairs[j].embedding, eps.embedding(i, j))
            if left != pairs[i].embedding:
                raise EpLawViolation("embedding factorization", (i, j))
    carrier = limit.space
    rounds = [compose(pairs[i].embedding, limit.projection(i)) for i in idxs]
    for t in range(carrier.n):
        seen_top = False
        for i in idxs:
            ri = rounds[i].graph[t]
            if not (carrier.up[ri] >> t) & 1:
                raise EpLawViolation(
                    "round trip not below identity", (i, carrier.labels[t])
                )
            if ri == t:
                seen_top = True
            for j in idxs:
                if sys.index_leq(i, j):
                    rj = rounds[j].graph[t]
                    if not (carrier.up[ri] >> rj) & 1:
                        raise EpLawViolation(
                            "round trips not increasing",
                            (i, j, carrier.labels[t]),
                        )
        if not seen_top:
            raise EpLawViolation("thread not reached", carrier.labels[t])
    for u in carrier.open_masks(max_opens):
        union = 0
        for i in idxs:
            m = rounds[i].preimage_mask(u)
            union |= m
            for j in idxs:
                if sys.index_leq(i, j) and m & ~rounds[j].preimage_mask(u):
                    raise EpLawViolation(
                        "preimages not increasing", (i, j, carrier.points_of(u))
                    )
        if union != u:
            raise EpLawViolation(
                "preimages do not exhaust the open", carrier.points_of(u)
            )


@dataclass(frozen=True)
class CylinderOpen:
    """A basic open of the limit: the cylinder over an open at one level."""

    system: object
    level: int
    base: UpSet

    def __post_init__(self):
        if self.base.space != self.system.space(self.level):
            raise ValimError("base does not live at the stated level")

    def denotation(self, limit: LimitSpace) -> UpSet:
        if limit.system is not self.system and limit.system != self.system:
            raise ValimError("cylinder belongs to a different system")
        return limit.projection(self.level).preimage(self.base)

    def at_level(self, j) -> "CylinderOpen":
        """The same cylinder re-based at a higher level."""
        sys = self.system
        if not sys.index_leq(self.level, j):
            raise ValimError("can only push a cylinder upward")
        pulled = sys.bond(self.level, j).preimage(self.base)
        return CylinderOpen(sys, j, pulled)

    def normalize(self) -> "CylinderOpen":
        """Chains: re-express at the least level that can carry the base.

        Descending one step is possible exactly when the largest lower
        base pulls back onto the current base; greedy descent therefore
        finds the least expressible level.  Not a complete invariant:
        distinct bases at one level can still denote the same open when
        the projections are not surjective, so equality of cylinders is
        decided by cylinders_equal, not by comparing normal forms.
        Poset-indexed cylinders are returned unchanged.
        """
        sys = self.system
        if sys.kind == "poset":
            return self
        level, mask = self.level, self.base.mask
        while level > 0:
            step = sys.step(level - 1)
            below = step.target
            cand = 0
            for x in range(below.n):
                if step.preimage_mask(below.up[x]) & ~mask == 0:
                    cand |= 1 << x
            if step.preimage_mask(cand) != mask:
                break
            level, mask = level - 1, cand
        return CylinderOpen(sys, level, UpSet(sys.space(level), mask))


def _common_level(c1: CylinderOpen, c2: CylinderOpen) -> int:
    if c1.system is not c2.system and c1.system != c2.system:
        raise ValimError("cylinders belong to different systems")
    return c1.system.designated_ub(c1.level, c2.level)


def cylinder_meet(c1: CylinderOpen, c2: CylinderOpen) -> CylinderOpen:
    k = _common_level(c1, c2)
    a, b = c1.at_level(k), c2.at_level(k)
    out = CylinderOpen(c1.system, k, a.base & b.base)
    return out.normalize()


def cylinder_join(c1: CylinderOpen, c2: CylinderOpen) -> CylinderOpen:
    k = _common_level(c1, c2)
    a, b = c1.at_level(k), c2.at_level(k)
    out = CylinderOpen(c1.system, k, a.base | b.base)
    return out.normalize()


def cylinders_equal(c1: CylinderOpen, c2: CylinderOpen,
                    max_points: int = DEFAULT_MAX_POINTS) -> bool:
    """Equality as opens of the limit.

    Bases are compared at a common level, restricted to the points the
    limit actually projects onto.  Exact for poset systems and prefix
    chains.  For lazy chains only a superset of that image is known, so
    agreement on it certifies equality but disagreement is inconclusive.
    """
    k = _common_level(c1, c2)
    a, b = c1.at_level(k).base.mask, c2.at_level(k).base.mask
    sys = c1.system
    img = eventual_images(sys, k)
    if a & img.mask == b & img.mask:
        return True
    if img.exact:
        return False
    raise InconclusiveAtDepth("cylinder equality", sys.depth)


@dataclass(frozen=True)
class EventualImage:
    """What survives at a level from far up the system.

    Images of monotone maps need not be upward closed, so this is a bare
    point set.  exact=True only when the tail is certified (prefix
    chains, poset systems); lazy probes yield upper bounds.
    """

    space: FiniteSpace
    mask: int
    exact: bool

    @property
    def members(self) -> tuple:
        return self.space.points_of(self.mask)


def eventual_images(sys, i, depth=None) -> EventualImage:
    if sys.kind == "prefix":
        # the image of a composite is the image of an image
        img = sys.space(sys.last).full_mask
        for step in reversed(sys.steps[i:]):
            img = step.image_mask(img)
        return EventualImage(sys.space(i), img, True)
    if sys.kind == "poset":
        top = sys.top_index()
        img = sys.bond(i, top).image_mask(sys.space(top).full_mask)
        return EventualImage(sys.space(i), img, True)
    limit_depth = sys.depth if depth is None else min(depth, sys.depth)
    if i > limit_depth:
        raise InconclusiveAtDepth(f"eventual image at {i}", sys.depth)
    img = sys.bond(i, limit_depth).image_mask(sys.space(limit_depth).full_mask)
    return EventualImage(sys.space(i), img, False)


@dataclass(frozen=True)
class SteenrodResult:
    """Either a witness thread (labels per verified index) or the first
    index whose space is empty."""

    thread: tuple | None
    empty_at: object | None

    @property
    def nonempty(self) -> bool:
        return self.thread is not None


def steenrod_nonempty(sys, max_points: int = DEFAULT_MAX_POINTS) -> SteenrodResult:
    """Produce a point of the limit whenever every level is nonempty.

    Prefix chains use selection through the exact eventual images: pick
    any surviving point at the bottom, then repeatedly a surviving
    preimage one level up; survival guarantees the next choice exists.
    The images are walked down the steps, one image_mask per step, with
    no bond composed: the image of the last level under a composite of
    steps is the image, under the lowest step, of the image one level up.
    Poset systems materialize (their directed index has a top, so the
    limit is the top space in disguise).
    """
    check_system(sys)
    for i in sys.indices():
        if sys.space(i).n == 0:
            label = (sys.index_poset.labels[i] if sys.kind == "poset" else i)
            return SteenrodResult(None, label)
    if sys.kind == "prefix":
        imgs = [sys.space(sys.last).full_mask]
        for step in reversed(sys.steps):
            imgs.append(step.image_mask(imgs[-1]))
        imgs.reverse()
        thread = []
        prev = None
        for i in sys.indices():
            xi = sys.space(i)
            allowed = imgs[i]
            if prev is not None:
                allowed &= sys.steps[i - 1].preimage_mask(1 << prev)
            if allowed == 0:
                raise ValimError(
                    f"selection through eventual images failed at level {i}")
            prev = (allowed & -allowed).bit_length() - 1
            thread.append(xi.labels[prev])
        return SteenrodResult(tuple(thread), None)
    if sys.kind != "poset":
        # lazy chain, no empty level in sight: the tail stays unknown
        raise InconclusiveAtDepth("thread existence", sys.depth)
    limit = materialize_limit(sys, max_points)
    if limit.space.n == 0:
        raise ValimError(
            "empty limit although every level is nonempty; bond data broken"
        )
    t = limit.space.labels[0]
    return SteenrodResult(tuple(t), None)


@dataclass(frozen=True)
class CompactFamily:
    """Compact saturated sets, one per verified index, matched by bonds:
    the bond image of the set at j must land inside the set at i."""

    system: object
    parts: tuple

    def __post_init__(self):
        idxs = list(self.system.indices())
        if len(self.parts) != len(idxs):
            raise ValimError("one part per index required")
        for i in idxs:
            if self.parts[i].space != self.system.space(i):
                raise ValimError(f"part at {i} lives on the wrong space")

    def part(self, i) -> UpSet:
        if self.system.kind == "prefix":
            return self.parts[min(i, self.system.last)]
        return self.parts[i]

    def verify(self) -> "CompactFamily":
        sys = self.system
        for i in sys.indices():
            for j in sys.indices():
                if not sys.index_leq(i, j):
                    continue
                img = sys.bond(i, j).image_mask(self.part(j).mask)
                if img & ~self.part(i).mask:
                    raise ValimError(
                        f"family not matched under the bond {i} <= {j}"
                    )
        return self

    def limit_mask(self, limit: LimitSpace) -> int:
        """Threads whose every component stays inside the family."""
        out = 0
        for t in range(limit.space.n):
            if all(
                (self.part(i).mask >> limit.projection(i).graph[t]) & 1
                for i in limit.system.indices()
            ):
                out |= 1 << t
        return out


def find_dominating_level(limit, i, family: CompactFamily, u: UpSet):
    """Least index j above i whose family part is already trapped in u.

    Precondition (verified when a limit is given): u is an open
    neighborhood of the saturation of the projected family limit.  On
    prefix chains and poset systems the scan always succeeds under the
    precondition; lazy chains have no materialized limit, so pass None,
    skip the precondition, and accept InconclusiveAtDepth when the scan
    exhausts the probe range.
    """
    sys = family.system if limit is None else limit.system
    family.verify()
    xi = sys.space(i)
    if u.space != xi:
        raise ValimError("the open must live at the base index")
    if limit is not None:
        qlim = family.limit_mask(limit)
        sat = xi.up_close(limit.projection(i).image_mask(qlim))
        if sat & ~u.mask:
            raise ValimError(
                "precondition: the open does not contain the projected family"
            )
    for j in sys.indices():
        if not sys.index_leq(i, j):
            continue
        img = xi.up_close(sys.bond(i, j).image_mask(family.part(j).mask))
        if img & ~u.mask == 0:
            return j
    if sys.kind == "lazy":
        raise InconclusiveAtDepth("dominating level", sys.depth)
    raise ValimError(
        "no dominating level found on a materialized system; broken data"
    )
