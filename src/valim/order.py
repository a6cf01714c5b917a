"""Finite T0 spaces as finite posets.

A finite T0 topology and its specialization order determine each other:
opens are exactly the upward-closed sets, continuous maps are exactly the
monotone ones.  Everything here works on the order side and treats subsets
as bitmasks (bit i = point i in canonical label order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .errors import SizeLimit, ValimError

DEFAULT_MAX_OPENS = 1 << 20
DEFAULT_MAX_POINTS = 4096

__all__ = [
    "FiniteSpace",
    "UpSet",
    "MonotoneMap",
    "EpPair",
    "NotAPoset",
    "NotMonotone",
    "NotEpPair",
    "check_space",
    "space_from_covers",
    "enumerate_opens",
    "upward_closure",
    "interior",
    "closure",
    "sobriety_witness",
    "lift",
    "product_space",
    "subspace",
    "identity_map",
    "compose",
    "DEFAULT_MAX_OPENS",
    "DEFAULT_MAX_POINTS",
]


class NotAPoset(ValimError):
    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness!r}")


class NotMonotone(ValimError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map not monotone at {witness!r}")


class NotEpPair(ValimError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"{law} fails at {witness!r}")


@dataclass(frozen=True)
class FiniteSpace:
    """A finite poset; equivalently a finite T0 topological space.

    labels fixes the canonical point order.  up[i] is the bitmask of weak
    upper bounds of point i, so bit j of up[i] means i <= j.

    Public construction (FiniteSpace(...), check_space, documents)
    validates the poset laws; spaces derived inside the library from
    spaces that are already valid (products, lifts, subspaces, limit
    carriers), and relations check_space has closed and found
    antisymmetric, are built by _trusted without re-checking.
    """

    labels: tuple
    up: tuple

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise NotAPoset("distinct labels", self.labels)
        if len(self.up) != n:
            raise NotAPoset("up table length", (len(self.up), n))
        full = (1 << n) - 1
        for i, row in enumerate(self.up):
            if row & ~full:
                raise NotAPoset("up table range", self.labels[i])
            if not (row >> i) & 1:
                raise NotAPoset("reflexivity", self.labels[i])
        # transitivity: i <= j forces up[j] subset of up[i]
        for i in range(n):
            row = self.up[i]
            m = row
            while m:
                b = m & -m
                j = b.bit_length() - 1
                m ^= b
                if self.up[j] & ~row:
                    k = (self.up[j] & ~row).bit_length() - 1
                    raise NotAPoset(
                        "transitivity",
                        (self.labels[i], self.labels[j], self.labels[k]),
                    )
                if i != j and (self.up[j] >> i) & 1:
                    raise NotAPoset(
                        "antisymmetry", (self.labels[i], self.labels[j])
                    )

    @classmethod
    def _trusted(cls, labels, up) -> "FiniteSpace":
        """A space whose labels are distinct and whose up table is a
        partial order by construction, not re-validated."""
        sp = object.__new__(cls)
        object.__setattr__(sp, "labels", labels)
        object.__setattr__(sp, "up", up)
        return sp

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def down(self) -> tuple:
        # down[j] = mask of weak lower bounds of j
        rows = [0] * self.n
        for i in range(self.n):
            m = self.up[i]
            while m:
                b = m & -m
                rows[b.bit_length() - 1] |= 1 << i
                m ^= b
        return tuple(rows)

    def leq(self, a, b) -> bool:
        return bool((self.up[self.index[a]] >> self.index[b]) & 1)

    def mask_of(self, points) -> int:
        m = 0
        for p in points:
            m |= 1 << self.index[p]
        return m

    def points_of(self, mask) -> tuple:
        return tuple(
            self.labels[i] for i in range(self.n) if (mask >> i) & 1
        )

    def up_close(self, mask: int) -> int:
        """The least up-set holding mask; ValimError for a mask with a
        point outside the space (a negative mask has infinitely many)."""
        if mask & ~self.full_mask:
            raise ValimError("mask outside the space")
        out = 0
        m = mask
        while m:
            b = m & -m
            out |= self.up[b.bit_length() - 1]
            m ^= b
        return out

    def down_close(self, mask: int) -> int:
        """The least down-set holding mask; ValimError for a mask with a
        point outside the space (a negative mask has infinitely many)."""
        if mask & ~self.full_mask:
            raise ValimError("mask outside the space")
        out = 0
        m = mask
        while m:
            b = m & -m
            out |= self.down[b.bit_length() - 1]
            m ^= b
        return out

    def is_upset(self, mask: int) -> bool:
        return self.up_close(mask) == mask

    def open_masks(self, max_opens: int = DEFAULT_MAX_OPENS) -> list:
        """All open sets as masks, sorted by (size, mask).  Cached once
        built; every call, cached or not, refuses more than max_opens.
        A lattice that may pass max_opens (2^n > max_opens) is counted
        before it is listed, so a refusal caches nothing and lists
        nothing unless max_opens is small (_kernels.count_upsets)."""
        masks = self.__dict__.get("_open_masks")
        if masks is None:
            self._guard_opens(max_opens)
            masks = _kernels.enumerate_upsets(self.up, self.n, max_opens)
            self.__dict__["_open_masks"] = masks
        elif len(masks) > max_opens:
            raise SizeLimit("open lattice", max_opens)
        return masks

    def _guard_opens(self, max_opens: int):
        """SizeLimit when there are more than max_opens opens, counted
        rather than listed, and only when 2^n passes max_opens, as fewer
        points cannot have that many."""
        if (1 << self.n > max_opens
                and _kernels.count_upsets(self.up, self.n, max_opens) is None):
            raise SizeLimit("open lattice", max_opens)

    def bottom(self):
        """The least point, or None if there is no single least point."""
        for i in range(self.n):
            if self.up[i] == self.full_mask:
                return self.labels[i]
        return None


@dataclass(frozen=True)
class UpSet:
    """An open (= upward-closed) subset of a FiniteSpace."""

    space: FiniteSpace
    mask: int

    def __post_init__(self):
        if not self.space.is_upset(self.mask):
            raise ValimError(
                f"not upward closed: {self.space.points_of(self.mask)}"
            )

    @property
    def members(self) -> tuple:
        return self.space.points_of(self.mask)

    def __repr__(self) -> str:
        return "UpSet{%s}" % ", ".join(map(str, self.members))

    def __contains__(self, label) -> bool:
        return bool((self.mask >> self.space.index[label]) & 1)

    def __or__(self, other: "UpSet") -> "UpSet":
        _same_space(self.space, other.space)
        return UpSet(self.space, self.mask | other.mask)

    def __and__(self, other: "UpSet") -> "UpSet":
        _same_space(self.space, other.space)
        return UpSet(self.space, self.mask & other.mask)

    def __le__(self, other: "UpSet") -> bool:
        _same_space(self.space, other.space)
        return self.mask & ~other.mask == 0


def _same_space(a: FiniteSpace, b: FiniteSpace):
    if a != b:
        raise ValimError("operands live on different spaces")


def check_space(labels, relation, *, reflexive_closure=True,
                transitive_closure=False) -> FiniteSpace:
    """Validate a relation given as (below, above) label pairs.

    The reflexive part is implied by default; pass reflexive_closure=False
    to demand explicit (x, x) pairs.  Transitivity is checked, not
    repaired, unless transitive_closure is set.  Raises NotAPoset naming
    the first violated axiom with a witness.

    With transitive_closure the relation is closed on its bit rows
    (Warshall), and then only antisymmetry can still fail.  In a
    reflexive, transitive relation, i <= j <= i exactly when rows i and
    j are equal, so antisymmetry holds when the rows are distinct; the
    witness is the one FiniteSpace reports, the least point whose row
    repeats and the next point with that row.  The space is then built
    without the pair-by-pair re-check (FiniteSpace._trusted).
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise NotAPoset("distinct labels", labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [0] * n
    for a, b in relation:
        if a not in idx or b not in idx:
            raise NotAPoset("unknown label", (a, b))
        up[idx[a]] |= 1 << idx[b]
    if reflexive_closure:
        for i in range(n):
            up[i] |= 1 << i
    else:
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise NotAPoset("reflexivity", labels[i])
    if not transitive_closure:
        return FiniteSpace(labels, tuple(up))
    for k in range(n):
        bit, row = 1 << k, up[k]
        up = [r | row if r & bit else r for r in up]
    if len(set(up)) != n:
        i = next(i for i, r in enumerate(up) if up.count(r) > 1)
        raise NotAPoset("antisymmetry",
                        (labels[i], labels[up.index(up[i], i + 1)]))
    return FiniteSpace._trusted(labels, tuple(up))


def space_from_covers(labels, covers) -> FiniteSpace:
    """Build a space from cover pairs (lower, upper); closure applied."""
    return check_space(labels, covers, transitive_closure=True)


def _hasse_covers(space: FiniteSpace):
    """Yield the index pairs (i, j) in which j covers i, by i then j."""
    for i in range(space.n):
        above = space.up[i] & ~(1 << i)
        m = above
        while m:
            b = m & -m
            j = b.bit_length() - 1
            m ^= b
            # j covers i when nothing strictly above i sits below j
            if above & space.down[j] == b:
                yield i, j


def enumerate_opens(space: FiniteSpace, max_opens: int = DEFAULT_MAX_OPENS):
    """The open sets, by (cardinality, canonical bit order).  SizeLimit if
    there are more than max_opens of them."""
    return [UpSet(space, m) for m in space.open_masks(max_opens)]


def upward_closure(space: FiniteSpace, points) -> UpSet:
    return UpSet(space, space.up_close(space.mask_of(points)))


def interior(space: FiniteSpace, points) -> UpSet:
    """Largest open contained in the given subset."""
    mask = space.mask_of(points)
    out = 0
    for i in range(space.n):
        if (mask >> i) & 1 and space.up[i] & ~mask == 0:
            out |= 1 << i
    return UpSet(space, out)


def closure(space: FiniteSpace, points) -> tuple:
    """Topological closure = downward closure; returned as a label tuple."""
    return space.points_of(space.down_close(space.mask_of(points)))


def sobriety_witness(space: FiniteSpace,
                     max_opens: int = DEFAULT_MAX_OPENS) -> list:
    """Each irreducible closed set with its unique generic point.

    Irreducibility is checked against the definition (no cover by two
    smaller closed sets), not via the order; uniqueness of the generic
    point is asserted.  Returns [(closed labels, point)] sorted by point.
    """
    closed = [space.full_mask & ~m for m in space.open_masks(max_opens)]
    out = []
    for c in closed:
        if c == 0:
            continue
        ok = True
        for c1 in closed:
            if not ok:
                break
            if c & ~c1 == 0:
                continue
            for c2 in closed:
                if c & ~(c1 | c2) == 0 and c & ~c2:
                    ok = False
                    break
        if not ok:
            continue
        generic = [
            i for i in range(space.n)
            if (c >> i) & 1 and space.down[i] == c
        ]
        if len(generic) != 1:
            raise ValimError(
                f"not sober: {space.points_of(c)} has generic points "
                f"{[space.labels[i] for i in generic]}"
            )
        out.append((space.points_of(c), space.labels[generic[0]]))
    out.sort(key=lambda t: space.index[t[1]])
    return out


_BOTTOM_NAMES = ("⊥", "_bot", "_bottom")


def lift(space: FiniteSpace, label=None) -> FiniteSpace:
    """Add a fresh point below everything.  Opens become the old opens
    plus the whole new space."""
    if label is None:
        for cand in _BOTTOM_NAMES:
            if cand not in space.index:
                label = cand
                break
        else:
            k = 2
            while f"_bot{k}" in space.index:
                k += 1
            label = f"_bot{k}"
    elif label in space.index:
        raise ValimError(f"label already used: {label!r}")
    labels = space.labels + (label,)
    n = space.n
    up = tuple(space.up) + ((1 << (n + 1)) - 1,)
    # a partial order with a least point added is a partial order
    return FiniteSpace._trusted(labels, up)


def product_space(factors, max_points: int = DEFAULT_MAX_POINTS):
    """Product with componentwise order.

    Point labels are tuples, in itertools.product order (first factor
    slowest).  Returns (space, projections).  SizeLimit when the point
    count would exceed max_points.
    """
    total = 1
    for f in factors:
        total *= f.n
    if total > max_points:
        raise SizeLimit("product points", max_points)
    # built from the last factor back
    part = _EMPTY_PRODUCT
    for f in reversed(factors):
        part = _product_step(f, part)
    labels, rows, digits = part
    space = FiniteSpace._trusted(labels, rows)
    return space, [MonotoneMap._trusted(space, f, d)
                   for f, d in zip(factors, digits)]


# the product of no factors: one point, the empty tuple
_EMPTY_PRODUCT = (((),), (1,), ())


def _product_step(f, part) -> tuple:
    """f times a product given as (labels, up rows, coordinate graphs),
    f's coordinate first, in the same form.

    Putting f in front of a product of `size` points places (i, rest)
    at i * size + rest.  Its label is (f's i-th label,) + rest's, and
    its row is rest's row copied into the block of every j above i, one
    multiplication because the blocks are `size` bits apart.  f's
    coordinate runs through its points, each repeated `size` times, and
    each old coordinate repeats its graph once per point of f.  The
    componentwise order of partial orders is one, and tuples of
    distinct labels are distinct, so the rows make a trusted space.
    """
    labels, rows, digits = part
    size = len(labels)
    spreads = []
    for m in f.up:
        spread = 0
        while m:
            b = m & -m
            spread |= 1 << ((b.bit_length() - 1) * size)
            m ^= b
        spreads.append(spread)
    return (tuple([(lab,) + c for lab in f.labels for c in labels]),
            tuple([r * spread for spread in spreads for r in rows]),
            (tuple([x for x in range(f.n) for _ in range(size)]),)
            + tuple([d * f.n for d in digits]))


def subspace(space: FiniteSpace, points):
    """Induced order on a subset.  Returns (sub, inclusion)."""
    mask = points if isinstance(points, int) else space.mask_of(points)
    keep = [i for i in range(space.n) if (mask >> i) & 1]
    pos = {i: p for p, i in enumerate(keep)}
    labels = tuple(space.labels[i] for i in keep)
    up = []
    for i in keep:
        row = 0
        for j in keep:
            if (space.up[i] >> j) & 1:
                row |= 1 << pos[j]
        up.append(row)
    # an induced order is a partial order
    sub = FiniteSpace._trusted(labels, tuple(up))
    inclusion = MonotoneMap._trusted(sub, space, tuple(keep))
    return sub, inclusion


@dataclass(frozen=True)
class MonotoneMap:
    """A continuous (= monotone) map between finite T0 spaces.

    graph[i] is the target index of source point i.  Public
    construction (MonotoneMap(...), from_dict, documents) validates
    monotonicity; maps derived inside the library from maps or orders
    that are already valid (composites, identities, product projections,
    subspace inclusions, bonds and limit projections, embeddings
    recovered from projections) are built by _trusted without
    re-checking.
    """

    source: FiniteSpace
    target: FiniteSpace
    graph: tuple

    def __post_init__(self):
        if len(self.graph) != self.source.n:
            raise NotMonotone("graph length")
        for i in self.graph:
            if not 0 <= i < self.target.n:
                raise NotMonotone(f"target index {i} out of range")
        for i in range(self.source.n):
            m = self.source.up[i]
            while m:
                b = m & -m
                j = b.bit_length() - 1
                m ^= b
                if not (self.target.up[self.graph[i]] >> self.graph[j]) & 1:
                    raise NotMonotone(
                        (self.source.labels[i], self.source.labels[j])
                    )

    @classmethod
    def _trusted(cls, source, target, graph) -> "MonotoneMap":
        """A map that is monotone by construction, not re-validated."""
        f = object.__new__(cls)
        object.__setattr__(f, "source", source)
        object.__setattr__(f, "target", target)
        object.__setattr__(f, "graph", graph)
        return f

    @classmethod
    def from_dict(cls, source, target, mapping) -> "MonotoneMap":
        graph = tuple(
            target.index[mapping[lab]] for lab in source.labels
        )
        return cls(source, target, graph)

    def __call__(self, label):
        return self.target.labels[self.graph[self.source.index[label]]]

    def apply_index(self, i: int) -> int:
        return self.graph[i]

    def image_mask(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            b = m & -m
            out |= 1 << self.graph[b.bit_length() - 1]
            m ^= b
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i in range(self.source.n):
            if (mask >> self.graph[i]) & 1:
                out |= 1 << i
        return out

    def preimage_masks(self, masks) -> list:
        """preimage_mask of every mask, as one column: a preimage is the
        union of the fibres over the mask's points (_kernels.union_map).
        IndexError for a mask with points past the target's."""
        fibres = [0] * self.target.n
        for s, t in enumerate(self.graph):
            fibres[t] |= 1 << s
        return _kernels.union_map(fibres, masks, self.target.n)

    def preimage(self, u: UpSet) -> UpSet:
        _same_space(u.space, self.target)
        return UpSet(self.source, self.preimage_mask(u.mask))

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            self.graph[i] == i for i in range(self.source.n)
        )


def identity_map(space: FiniteSpace) -> MonotoneMap:
    return MonotoneMap._trusted(space, space, tuple(range(space.n)))


def compose(outer: MonotoneMap, inner: MonotoneMap) -> MonotoneMap:
    """compose(f, g) applies g first: x -> f(g(x))."""
    if inner.target != outer.source:
        raise ValimError("maps do not compose")
    graph = tuple(map(outer.graph.__getitem__, inner.graph))
    return MonotoneMap._trusted(inner.source, outer.target, graph)


@dataclass(frozen=True)
class EpPair:
    """An embedding-projection pair: p . e = id and e . p <= id pointwise."""

    projection: MonotoneMap
    embedding: MonotoneMap

    def __post_init__(self):
        p, e = self.projection, self.embedding
        if e.source != p.target or e.target != p.source:
            raise NotEpPair("spaces", (p.source.labels, p.target.labels))
        for i in range(e.source.n):
            if p.graph[e.graph[i]] != i:
                raise NotEpPair("p . e = id", e.source.labels[i])
        big = p.source
        for y in range(big.n):
            if not (big.up[e.graph[p.graph[y]]] >> y) & 1:
                raise NotEpPair("e . p <= id", big.labels[y])

    @property
    def big(self) -> FiniteSpace:
        return self.projection.source

    @property
    def small(self) -> FiniteSpace:
        return self.projection.target
