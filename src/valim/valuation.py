"""Continuous valuations on finite T0 spaces.

A valuation assigns to every open a value in the extended non-negative
rationals subject to strictness (empty set gets 0), monotonicity and
modularity.  On a finite space every such set function is a weighted sum
of point masses, so Valuation stores one weight per point and the full
table is derived.  decompose_simple inverts a table back to weights and
validates that inversion on every call; check_valuation accepts a table
exactly when that inversion succeeds.  Whole-table work and single
evaluations run on one currency: the values scaled to a common
denominator as integers, math.inf standing for infinity (see _scale).
Valuations and tables the library derives rest in that form
(Valuation._from_scaled: image_valuation, check_valuation, limits,
products, restrictions; TabulatedSetFunction._from_scaled: tabulate,
nu_bullet, mu_circ, support_check's restriction, tables read from
documents) and decode their weights or values on first read, through
_ext; a publicly built one is scaled once, on first use.  evaluate,
total and image_valuation (_push) sum those integers, and
first_differing_mask compares two valuations by one sum of their
difference, so an ExtRat is built only for a result.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, count
from math import inf, lcm
from operator import itemgetter, ne, or_

from . import _kernels
from .errors import ValimError
from .extreal import INF, ZERO, ExtRat, way_below
from .order import (
    DEFAULT_MAX_OPENS,
    FiniteSpace,
    MonotoneMap,
    UpSet,
    subspace,
)

__all__ = [
    "Valuation",
    "TabulatedSetFunction",
    "AxiomViolation",
    "NotSimple",
    "NotOnLattice",
    "NotSupported",
    "Restriction",
    "TightnessReport",
    "TightnessWitnesses",
    "LocalFinitenessReport",
    "point_mass",
    "zero_valuation",
    "check_valuation",
    "decompose_simple",
    "image_valuation",
    "restrict_to_open",
    "first_differing_mask",
    "first_differing_open",
    "valuations_equal",
    "support_check",
    "nu_bullet",
    "mu_circ",
    "way_below",
    "is_tight",
    "is_locally_finite",
]


class AxiomViolation(ValimError):
    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


class NotSimple(ValimError):
    # the reason for tables whose laws hold but an infinite weight hides
    # the finite ones below it
    SHADOWED = "inf - inf has no defined weight"

    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason} at {witness!r}")


class NotOnLattice(ValimError):
    """A table whose masks are not exactly the opens of its space."""

    def __init__(self):
        super().__init__("table must cover the whole open lattice")


class NotSupported(ValimError):
    """Carries a pair of opens with equal traces but different values."""

    def __init__(self, u, v):
        self.witness = (u, v)
        super().__init__(
            f"not supported: opens {u.members} and {v.members} have equal "
            f"traces but different values"
        )


@dataclass(frozen=True)
class Valuation:
    """A simple valuation: one ExtRat weight per point.

    Public construction validates and stores the given weights;
    valuations derived inside the library (image_valuation, check_valuation,
    limits, products, restrictions) are built by _from_scaled from their
    scaled integers, and decode weights only when they are first read.
    Either kind pickles in the public form, space and weights.
    """

    space: FiniteSpace
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.space.n:
            raise ValimError("one weight per point required")
        for w in self.weights:
            if not isinstance(w, ExtRat):
                raise ValimError(f"weights must be ExtRat, got {w!r}")

    @classmethod
    def _from_scaled(cls, space, den, ints) -> "Valuation":
        """A valuation held as its scaled weights (_scale): ints is a
        tuple with one entry per point, non-negative by construction;
        not re-validated."""
        nu = object.__new__(cls)
        object.__setattr__(nu, "space", space)
        object.__setattr__(nu, "_scaled", (den, ints))
        return nu

    def __getattr__(self, name):
        return _decoded(self, name, "weights")

    def __getstate__(self):
        # the public form: no cache travels with a pickle
        return {"space": self.space, "weights": self.weights}

    @classmethod
    def from_dict(cls, space, mapping) -> "Valuation":
        """Weights from a {label: value} dict; absent labels weigh zero."""
        weights = [ZERO] * space.n
        for lab, w in mapping.items():
            weights[space.index[lab]] = ExtRat(w)
        return cls(space, tuple(weights))

    @cached_property
    def _scaled(self):
        return _scale(self.weights)

    def evaluate(self, arg) -> ExtRat:
        mask = arg.mask if isinstance(arg, UpSet) else arg
        if not self.space.is_upset(mask):
            raise _not_an_open(self.space, mask)
        den, ints = self._scaled
        total = 0
        m = mask
        while m:
            b = m & -m
            w = ints[b.bit_length() - 1]
            if w == inf:
                return INF
            total += w
            m ^= b
        return ExtRat(total, den)

    def total(self) -> ExtRat:
        return self.evaluate(self.space.full_mask)

    def support_points(self) -> tuple:
        ints = self._scaled[1]
        return tuple(
            self.space.labels[i] for i in range(self.space.n) if ints[i]
        )

    def labels_weights(self):
        return zip(self.space.labels, self.weights)

    def tabulate(self, max_opens: int = DEFAULT_MAX_OPENS) -> "TabulatedSetFunction":
        masks = self.space.open_masks(max_opens)
        den, ints = self._scaled
        return TabulatedSetFunction._from_scaled(
            self.space, tuple(masks), den,
            tuple(_kernels.eval_weights(ints, masks)))


@dataclass(frozen=True)
class TabulatedSetFunction:
    """A raw table mask -> value over a listed domain of subsets.

    `on` records what the domain is meant to be: "opens" or "upsets"
    (the same sets on a finite space; the tag keeps intent explicit).
    No laws are assumed; run check_valuation to promote a table.

    Public construction validates and stores the given values; tables
    derived inside the library (tabulate, nu_bullet, mu_circ, ...) or
    read from a document are built by _from_scaled from their scaled
    integers, and decode values only when they are first read.
    """

    space: FiniteSpace
    masks: tuple
    values: tuple
    on: str = "opens"

    def __post_init__(self):
        if len(self.masks) != len(self.values):
            raise ValimError("masks and values must be parallel")
        if len(set(self.masks)) != len(self.masks):
            first = {}
            for k, m in enumerate(self.masks):
                j = first.setdefault(m, k)
                if j != k:
                    raise ValimError(f"duplicate masks in table: rows {j} "
                                     f"and {k} both hold {m:#b}")
        for v in self.values:
            if not isinstance(v, ExtRat):
                raise ValimError(f"values must be ExtRat, got {v!r}")

    @classmethod
    def _from_scaled(cls, space, masks, den, ints,
                     on="opens") -> "TabulatedSetFunction":
        """A table held as its scaled integers (_scale): ints is a tuple
        parallel to masks, non-negative by construction; not re-validated."""
        t = object.__new__(cls)
        object.__setattr__(t, "space", space)
        object.__setattr__(t, "masks", masks)
        object.__setattr__(t, "on", on)
        object.__setattr__(t, "_scaled", (den, ints))
        return t

    def __getattr__(self, name):
        return _decoded(self, name, "values")

    @cached_property
    def _index(self) -> dict:
        return {m: k for k, m in enumerate(self.masks)}

    @cached_property
    def _scaled(self):
        return _scale(self.values)

    def _row(self, mask) -> int:
        k = self._index.get(mask)
        if k is None:
            raise ValimError(f"mask not tabulated: {self.space.points_of(mask)}")
        return k

    def lookup(self, arg) -> ExtRat:
        mask = arg.mask if isinstance(arg, UpSet) else arg
        return self.values[self._row(mask)]

    def items(self):
        return zip(self.masks, self.values)


def _decoded(obj, name, field) -> tuple:
    """The __getattr__ of a type built by _from_scaled, reached only when
    lookup fails: field, the scaled integers decoded on first read
    (_ext) and kept; AttributeError for any other name."""
    if name != field or "_scaled" not in obj.__dict__:
        raise AttributeError(
            f"{type(obj).__name__!r} object has no attribute {name!r}")
    den, ints = obj._scaled
    out = tuple([_ext(v, den) for v in ints])
    object.__setattr__(obj, field, out)
    return out


def point_mass(space, label, mass=None) -> Valuation:
    weights = [ZERO] * space.n
    weights[space.index[label]] = ExtRat(1) if mass is None else ExtRat(mass)
    return Valuation(space, tuple(weights))


def _not_an_open(space, mask) -> ValimError:
    """The refusal of a mask that is not an up-set of space, naming its
    points."""
    return ValimError(f"valuations evaluate opens only: "
                      f"{space.points_of(mask)!r} is not an up-set")


def zero_valuation(space) -> Valuation:
    return Valuation(space, (ZERO,) * space.n)


def _scale(values) -> tuple:
    """(den, ints): ExtRat values over their least common denominator,
    ints[k] = values[k] * den, with inf standing for infinity."""
    fracs = [v.frac for v in values]
    # read from Fraction's slots, not through its properties, as
    # ExtRat.__hash__ does: publicly built tables are scaled here
    den = lcm(*{f._denominator for f in fracs if f is not None})
    return den, tuple([inf if f is None
                       else f._numerator * (den // f._denominator)
                       for f in fracs])


def _ext(v, den) -> ExtRat:
    """A scaled integer (inf for infinity) back in ExtRat."""
    return INF if v == inf else ZERO if v == 0 \
        else ExtRat._trusted(Fraction(v, den))


def _push(ints, graph, n) -> list:
    """Scaled weights pushed along a map's graph onto its n target points;
    inf is tested for, as inf plus an int past float range overflows."""
    out = [0] * n
    for w, j in zip(ints, graph):
        if w:
            out[j] = inf if w == inf or out[j] == inf else out[j] + w
    return out


def _first_difference(col_a, col_b, op) -> int:
    """First position where op(a, b) holds; len(col_a) when none does."""
    return next(compress(count(), map(op, col_a, col_b)), len(col_a))


def _walk_below(space, opens, step) -> dict:
    """u -> step(u, [the result at each lower cover of u]) for every u of
    opens, the open lattice of space in (size, mask) order.

    The lower covers of u are the u minus x, x minimal in u.  An up-set
    q inside u other than u lies inside one: a point minimal in u minus
    q is minimal in u, as q is an up-set (Birkhoff's representation;
    Rota 1964).  So an extreme over the up-sets inside u combines u with
    the extremes at its covers, in O(opens x points).
    """
    down = space.down
    out = {}
    for u in opens:
        below = []
        m = u
        while m:
            bit = m & -m
            m ^= bit
            if down[bit.bit_length() - 1] & u == bit:
                below.append(out[u ^ bit])
        out[u] = step(u, below)
    return out


def _first_best_below(space, opens, images, keys) -> dict:
    """u -> the first position, in images order, of the largest key
    among those whose image (an open of space) lies inside u, for every
    u of opens (_walk_below); keys are scaled integers (inf above all)."""
    own = {}
    for pos, (s, k) in enumerate(zip(images, keys)):
        cur = own.get(s)
        if cur is None or k > keys[cur]:
            own[s] = pos

    def best(u, below):
        b = own.get(u)
        for c in below:
            if b is None or (keys[c], -c) > (keys[b], -b):
                b = c
        return b
    return _walk_below(space, opens, best)


def check_valuation(table: TabulatedSetFunction,
                    max_opens: int = DEFAULT_MAX_OPENS) -> Valuation:
    """Verify the three valuation laws on a total table and invert it.

    The table must cover the full open lattice (NotOnLattice otherwise:
    a row that is not an up-set, or a missing open).  Decomposition is the
    acceptance proof: a table that non-negative point weights reproduce
    on every open is strict, monotone and modular, so a lawful table is
    accepted without looking at pairs of opens.  When decomposition
    refuses, all pairs of opens are scanned in (size, mask) order and the
    first violation is reported as AxiomViolation with UpSet witnesses;
    if the laws hold after all, decomposition's NotSimple stands (an
    infinite weight shadows the finite ones below it).
    """
    space = table.space
    _, lattice = _as_table(table, max_opens)
    try:
        return _decompose(table, masks_are_opens=True)
    except NotSimple as err:
        refusal = err
    # the lattice comes sorted by (size, mask), the scan order; a table
    # listed in that order is scanned as it stands
    ints, index = table._scaled[1], table._index
    if lattice is table.masks:
        code, i, j = _kernels.scan_axioms(lattice, ints, index)
    else:
        code, i, j = _kernels.scan_axioms(
            lattice, [ints[index[m]] for m in lattice])
    if code == 1:
        raise AxiomViolation("strictness", (UpSet(space, 0),))
    if code == 2:
        raise AxiomViolation(
            "monotonicity", (UpSet(space, lattice[i]), UpSet(space, lattice[j]))
        )
    if code == 3:
        raise AxiomViolation(
            "modularity", (UpSet(space, lattice[i]), UpSet(space, lattice[j]))
        )
    # code 4 cannot occur: the open lattice is closed under union and
    # intersection
    raise refusal


def decompose_simple(table: TabulatedSetFunction) -> Valuation:
    """Invert a table to point weights and validate the inversion.

    w(x) = t(up(x)) - t(up(x) minus x); the smaller set is open because x
    is the unique minimal point of its up-set.  Tables where that
    difference is inf - inf stay tables: NotSimple.  The recovered weights
    are re-evaluated on every tabulated mask, in table order, and must
    match exactly; a mask that is not open is refused when reached.
    Birkhoff's representation of the lattice of up-sets (Rota 1964) is
    why the principal up-sets and their punctured variants suffice.
    """
    return _decompose(table, masks_are_opens=False)


def _decompose(table, masks_are_opens) -> Valuation:
    space = table.space
    den, ints = table._scaled
    weights = []
    for x in range(space.n):
        whole = ints[table._row(space.up[x])]
        punct = ints[table._row(space.up[x] & ~(1 << x))]
        if whole == inf:
            if punct == inf:
                raise NotSimple(NotSimple.SHADOWED, space.labels[x])
            weights.append(inf)
        elif whole < punct:
            raise NotSimple("negative weight", space.labels[x])
        else:
            weights.append(whole - punct)
    got = _kernels.eval_weights(weights, table.masks)
    bad = len(got) if tuple(got) == ints else _first_difference(got, ints, ne)
    if not masks_are_opens:
        for mask in table.masks[:bad + 1]:
            if not space.is_upset(mask):
                raise _not_an_open(space, mask)
    if bad < len(got):
        raise NotSimple("weights do not reproduce the table",
                        space.points_of(table.masks[bad]))
    return Valuation._from_scaled(space, den, tuple(weights))


def image_valuation(f: MonotoneMap, nu: Valuation) -> Valuation:
    """Pushforward: the image valuation weighs f-preimages."""
    if nu.space != f.source:
        raise ValimError("valuation does not live on the map's source")
    den, ints = nu._scaled
    return Valuation._from_scaled(f.target, den,
                                  tuple(_push(ints, f.graph, f.target.n)))


def _pushes_to(f: MonotoneMap, nu: Valuation, mu: Valuation) -> bool:
    """Whether image_valuation(f, nu) has mu's weights, compared on
    scaled integers: nu's weights are pushed along f (_push) and each
    side is cross-multiplied by the other's denominator.  Equal weights
    mean equal valuations; unequal weights can still agree on every open
    when an infinite weight masks the finite ones below it, which only
    first_differing_open decides."""
    den, ints = nu._scaled
    return _same_scaled(den, _push(ints, f.graph, f.target.n), *mu._scaled)


def _same_scaled(den_a, a, den_b, b) -> bool:
    """Whether two scaled vectors, on denominators den_a and den_b, are
    equally long and hold the same values (_first_unequal)."""
    if den_a == den_b:
        # one comparison in C, about three times faster on short vectors
        return list(a) == list(b)
    return len(a) == len(b) and _first_unequal(den_a, a, den_b, b) == len(a)


def _first_unequal(den_a, a, den_b, b) -> int:
    """The first position where two equally long scaled vectors, on
    denominators den_a and den_b, hold different values; len(a) when
    none does.  Each side is cross-multiplied by the other's
    denominator, unless the two are the same."""
    if den_a == den_b:
        return _first_difference(a, b, ne)
    # inf times an int past float range overflows, so inf is compared
    # as itself
    return _first_difference(a, b, lambda x, y: x != y
                             if x == inf or y == inf
                             else x * den_b != y * den_a)


def _inf_mask(ints) -> int:
    """The mask of the positions where a scaled vector holds inf."""
    return sum([1 << i for i, w in enumerate(ints) if w == inf])


def restrict_to_open(nu: Valuation, u: UpSet) -> Valuation:
    """The restriction to an open subspace (weights outside u dropped)."""
    if nu.space != u.space:
        raise ValimError("open does not live on the valuation's space")
    sub, inclusion = subspace(nu.space, u.mask)
    den, ints = nu._scaled
    return Valuation._from_scaled(sub, den,
                                  tuple([ints[i] for i in inclusion.graph]))


def first_differing_mask(nu_a: Valuation, nu_b: Valuation, masks):
    """The first of `masks`, in the given order, on which the two
    valuations differ; None when they agree on all of them.

    One _kernels.eval_weights call sums the finite weight difference
    a - b, cross-multiplied onto one denominator, over every mask, so a
    comparison over the whole open lattice adds no ExtRat.  Each side's
    infinite points are kept as a mask: a mask differs when exactly one
    side has an infinite point in it, or when neither has and the
    difference sums to non-zero.  The masks are taken as given; pass
    opens, where the values are the valuations'.  IndexError for a mask
    with more points than the space.
    """
    if nu_a.space != nu_b.space:
        raise ValimError("valuations live on different spaces")
    (den_a, a), (den_b, b) = nu_a._scaled, nu_b._scaled
    inf_a, inf_b = _inf_mask(a), _inf_mask(b)
    # the difference at an infinite point is never read: the masks that
    # hold one are decided by the two masks of infinite points
    sums = _kernels.eval_weights(
        [0 if x == inf or y == inf else x * den_b - y * den_a
         for x, y in zip(a, b)], masks)
    either = inf_a | inf_b
    if either:
        sums = [(not m & inf_a) != (not m & inf_b) if m & either else s
                for m, s in zip(masks, sums)]
    return next(compress(masks, sums), None)


def first_differing_open(nu_a: Valuation, nu_b: Valuation):
    """Least open (by size, then mask) among the principal up-sets and
    their punctured variants where the two tables differ; None when the
    valuations agree on every open.

    Scanning just these 2n candidates decides full equality.  Points
    whose principal value is infinite agree everywhere above them once
    the candidates agree; every other point has its weight pinned down
    by the two candidates at it.  Weight tuples can differ while all
    opens agree (a point mass of infinite weight hides finite weight
    changes strictly below it), so raw weight comparison is only usable
    as a shortcut for the equal case.  The candidates are compared by
    first_differing_mask; to compare every open instead, call that with
    space.open_masks().
    """
    if nu_a.space != nu_b.space:
        raise ValimError("valuations live on different spaces")
    if _same_scaled(*nu_a._scaled, *nu_b._scaled):
        return None
    space = nu_a.space
    candidates = set()
    for x in range(space.n):
        candidates.add(space.up[x])
        candidates.add(space.up[x] & ~(1 << x))
    candidates = sorted(candidates, key=lambda m: (m.bit_count(), m))
    m = first_differing_mask(nu_a, nu_b, candidates)
    return None if m is None else UpSet(space, m)


def valuations_equal(nu_a: Valuation, nu_b: Valuation) -> bool:
    """Equality as set functions on the whole open lattice."""
    return first_differing_open(nu_a, nu_b) is None


@dataclass(frozen=True)
class Restriction:
    """Result of a successful support check: mu on the subspace of A."""

    space: FiniteSpace
    inclusion: MonotoneMap
    valuation: Valuation | TabulatedSetFunction


def support_check(nu: Valuation | TabulatedSetFunction, points,
                  max_opens: int = DEFAULT_MAX_OPENS) -> Restriction:
    """Decide whether nu is supported on the subset A.

    Supported means: any two opens with the same trace on A get the same
    value.  When every point outside A weighs zero, nu(U) depends on
    U cap A alone.  Otherwise, for finite weights, a violating pair can
    be written down directly; with infinite weights masking is possible,
    so the traces are scanned instead (each trace T pins the sandwich
    up(T) <= V <= M(T), and by monotonicity only the two ends need
    comparing).  On success returns the restriction mu with
    mu(U cap A) = nu(U), which is nu's weights on A, infinite or not.

    That holds past the scan too.  On a supported nu, every point y
    outside A with non-zero weight has an infinitely weighted point of A
    in up(y): up(y) and up(T), for T = up(y) cap A, share the trace T
    and up(T) misses y, so nu(up T) = nu(up y) >= nu(up T) + w(y) makes
    nu(up T) infinite; an infinitely weighted point of up(T) lies in T,
    or outside A with an up-set smaller than up(y), and the argument
    repeats.  So for every trace T, nu(up T) and the sum of the weights
    on T differ only when both are infinite.

    nu may also be a lawful table on the open lattice that an infinite
    weight keeps from being inverted (NotSimple.SHADOWED): the traces
    are then scanned on the table's own values, and the restriction is
    the table T -> nu(up T).
    """
    space = nu.space
    a_mask = points if isinstance(points, int) else space.mask_of(points)
    table = isinstance(nu, TabulatedSetFunction)
    den, ints = nu._scaled
    if not table:
        outside = [y for y in range(space.n)
                   if ints[y] != 0 and not (a_mask >> y) & 1]
        if outside and inf not in ints:
            y = outside[0]
            u = space.up_close(space.up[y] & a_mask)
            raise NotSupported(UpSet(space, u), UpSet(space, u | space.up[y]))
    sub, inclusion = subspace(space, a_mask)
    if table or outside:
        # infinite weights can hide each other; scan traces honestly,
        # both ends of every sandwich as one column
        traces = sub.open_masks(max_opens)
        smalls = []
        bigs = []
        for tm in traces:
            trace = inclusion.image_mask(tm)
            smalls.append(space.up_close(trace))
            big = 0
            for y in range(space.n):
                if space.up[y] & a_mask & ~trace == 0:
                    big |= 1 << y
            bigs.append(big)
        if table:
            lo, hi = ([ints[nu._row(m)] for m in ms] for ms in (smalls, bigs))
        else:
            lo = _kernels.eval_weights(ints, smalls)
            hi = _kernels.eval_weights(ints, bigs)
        k = _first_difference(lo, hi, ne)
        if k < len(lo):
            raise NotSupported(UpSet(space, smalls[k]), UpSet(space, bigs[k]))
        if table:
            mu = TabulatedSetFunction._from_scaled(sub, tuple(traces), den,
                                                   tuple(lo))
            return Restriction(sub, inclusion, mu)
    return Restriction(sub, inclusion, Valuation._from_scaled(
        sub, den, tuple([ints[i] for i in inclusion.graph])))


def _as_table(nu, max_opens):
    """nu as a table, and its open lattice in (size, mask) order: the
    table's own masks when it lists them in that order; NotOnLattice for
    a table whose masks are not exactly the opens."""
    if not isinstance(nu, TabulatedSetFunction):
        table = nu.tabulate(max_opens)
        return table, table.masks
    lattice = nu.space.open_masks(max_opens)
    # a table listed in lattice order, as derived tables are, is compared
    # without building sets, and its masks are the lattice returned
    if nu.masks == tuple(lattice):
        return nu, nu.masks
    if set(nu.masks) != set(lattice):
        raise NotOnLattice()
    return nu, lattice


def _check_covers(table, opens):
    """Refuse, with ValimError, a table where some lower cover of an
    open outweighs that open; opens is the table's open lattice in
    (size, mask) order.  The tables that pass are the monotone ones, as
    every up-set inside an open other than itself lies inside a lower
    cover (_walk_below).  The lower covers of u are the u minus x, x
    minimal in u: one comprehension per point x, over the opens x is
    minimal in.  The refusal names no open."""
    value = dict(zip(table.masks, table._scaled[1]))
    down = table.space.down
    for x in range(table.space.n):
        bit = 1 << x
        low = down[x]
        if [u for u in opens
                if u & low == bit and value[u ^ bit] > value[u]]:
            raise ValimError("inf over neighborhoods missed the direct value")


def nu_bullet(nu, max_opens: int = DEFAULT_MAX_OPENS) -> TabulatedSetFunction:
    """Outer approximation on compact saturated sets.

    value(Q) = inf of nu over opens containing Q.  Every up-set of a
    finite space is open, so the inf is attained at Q, and the table's
    own values are returned, exactly when nu is monotone: when no lower
    cover is worth more than its open (_check_covers; ValimError
    otherwise).  A Valuation is monotone, as its weights are
    non-negative, and is not checked.  nu is a Valuation or a table on
    exactly the open lattice (NotOnLattice; SizeLimit past max_opens).
    """
    table, opens = _as_table(nu, max_opens)
    if not isinstance(nu, Valuation):
        _check_covers(table, opens)
    den, ints = table._scaled
    return TabulatedSetFunction._from_scaled(table.space, table.masks, den,
                                             ints, "upsets")


def mu_circ(mu: TabulatedSetFunction,
            max_opens: int = DEFAULT_MAX_OPENS) -> TabulatedSetFunction:
    """Inner approximation on opens: sup of mu over up-sets inside, the
    best of mu(u) and the sups at u's lower covers (_first_best_below).

    mu may be any raw table on exactly the open lattice (NotOnLattice;
    SizeLimit past max_opens); no laws are assumed."""
    _, opens = _as_table(mu, max_opens)
    den, ints = mu._scaled
    best = _first_best_below(mu.space, opens, mu.masks, ints)
    return TabulatedSetFunction._from_scaled(
        mu.space, mu.masks, den, tuple([ints[best[u]] for u in mu.masks]))


class TightnessWitnesses(Mapping):
    """is_tight's witnesses: a read-only mapping (open mask, rational) ->
    the mask of the first up-set inside the open, in (size, mask) order,
    worth at least the rational, for every rational way below the open's
    value.

    Entries are not stored.  The view keeps the monotone table and its
    open lattice in (size, mask) order.  Built on first read and kept:
    the scaled value at each position of the lattice, each open's
    staircase (the positions of the running-max records of the values
    over the up-sets inside it, the open's own last; _walk_below) and
    the rationals tried with their scaled values, in the order of a set
    filled in table order.  A lookup is one bisect on a staircase.
    Iteration runs over the opens in order, then the rationals in that
    order, as a dict filled the same way would; len counts by bisecting
    the sorted scaled values, and builds neither staircases nor
    rationals.
    """

    def __init__(self, table, opens):
        self._table = table
        self._opens = opens

    @cached_property
    def _keys(self) -> list:
        # values by position in opens, which is the staircases' order
        table = self._table
        ints = table._scaled[1]
        return [ints[table._index[u]] for u in self._opens]

    @cached_property
    def _stairs(self) -> dict:
        keys = self._keys
        pos = {u: p for p, u in enumerate(self._opens)}

        def records(u, below):
            # the table is monotone, so the records below end at or
            # under u's own value
            stair, top = [], -1
            for p in sorted(set().union(*below)):
                if keys[p] > top:
                    stair.append(p)
                    top = keys[p]
            if keys[pos[u]] > top:
                stair.append(pos[u])
            return stair
        return _walk_below(self._table.space, self._opens, records)

    @cached_property
    def _ranked(self) -> list:
        # each distinct finite value decoded and hashed once; they join
        # the set one at a time in table order, as the set's order is
        # the witnesses' order
        den, ints = self._table._scaled
        rationals = {ZERO}
        rationals.update([_ext(v, den) for v in dict.fromkeys(ints)
                          if v != inf])
        return [(r, r.frac.numerator * (den // r.frac.denominator))
                for r in rationals]

    @cached_property
    def _attained(self) -> frozenset:
        # the scaled values of the rationals tried
        return frozenset([0, *(v for v in self._table._scaled[1]
                               if v != inf)])

    def __getitem__(self, key):
        stair = r = None
        if isinstance(key, tuple) and len(key) == 2:
            u, r = key
            stair = self._stairs.get(u)
        if stair is None or not isinstance(r, ExtRat) or r.frac is None:
            raise KeyError(key)
        # r on the table's scale; a value that is not a multiple of 1/den
        # is not attained
        den, keys = self._table._scaled[0], self._keys
        num, d = r.frac.numerator, r.frac.denominator
        ri = num * (den // d)
        if den % d or ri not in self._attained or (
                ri and ri >= keys[stair[-1]]):
            raise KeyError(key)
        return self._opens[stair[bisect_left(stair, ri,
                                             key=keys.__getitem__)]]

    def _entries(self, ranked):
        """((u, r), witness) for every open u in order and every r of
        ranked way below u's value, r in ranked's order."""
        opens, keys = self._opens, self._keys
        for u, top, stair in zip(opens, keys, self._stairs.values()):
            tops = [keys[p] for p in stair]
            for r, ri in ranked:
                if ri < top or ri == 0:
                    yield (u, r), opens[stair[bisect_left(tops, ri)]]

    def __iter__(self):
        return (key for key, _ in self._entries(self._ranked))

    def __len__(self):
        # the zero rational, and every non-zero one below the open's value
        values = sorted(self._attained - {0})
        return sum([1 + bisect_left(values, top)
                    for top in self._table._scaled[1]])

    def items(self):
        return _WitnessItems(self)

    def values(self):
        return _WitnessValues(self)

    def ascending(self):
        """The items by open in (size, mask) order, then by ascending
        rational, produced one at a time (valim tight prints a prefix)."""
        return self._entries(sorted(self._ranked, key=itemgetter(1)))

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class _WitnessItems(ItemsView):
    def __iter__(self):
        return self._mapping._entries(self._mapping._ranked)


class _WitnessValues(ValuesView):
    def __iter__(self):
        return (q for _, q in self._mapping._entries(self._mapping._ranked))


@dataclass(frozen=True)
class TightnessReport:
    space: FiniteSpace
    verdict: bool
    composite_matches: bool
    witnesses: Mapping
    failure: tuple | None

    def witness(self, u, r):
        mask = u.mask if isinstance(u, UpSet) else u
        q = self.witnesses.get((mask, ExtRat(r)))
        return None if q is None else UpSet(self.space, q)


def is_tight(nu, max_opens: int = DEFAULT_MAX_OPENS) -> TightnessReport:
    """Tightness: every value way below nu(U) is already reached on some
    compact saturated Q inside U.

    Witness values are 0 plus every attained table value; between two
    attained values the witness for the larger one serves, so this set is
    complete at finite scale.  nu is as for nu_bullet.

    The witness for (U, r) is the first Q inside U, in (size, mask)
    order, with r <= nu(Q): the first step of U's staircase (the
    running-max records of nu over the up-sets inside U) to reach r.
    The witnesses are served from the staircases, built on first read
    (TightnessWitnesses).

    The verdict, and the composite law that the inner approximation of
    the outer approximation reproduces nu, need no staircase.  A table
    is refused with nu_bullet's ValimError where some lower cover
    outweighs an open (_check_covers); a Valuation is monotone as it
    stands.  On a monotone table the inf over the opens containing Q is
    attained at Q (nu_bullet returns the table), the sup over the
    up-sets inside U at U (mu_circ returns it again), and U's staircase
    ends at nu(U), so every r way below nu(U) has a witness: verdict and
    composite_matches hold exactly when nothing is raised.
    """
    table, opens = _as_table(nu, max_opens)
    if not isinstance(nu, Valuation):
        _check_covers(table, opens)
    return TightnessReport(table.space, True, True,
                           TightnessWitnesses(table, opens), None)


@dataclass(frozen=True)
class LocalFinitenessReport:
    verdict: bool
    conditions: tuple
    witness: object | None


def is_locally_finite(nu: Valuation,
                      max_opens: int = DEFAULT_MAX_OPENS) -> LocalFinitenessReport:
    """Four equivalent readings of local finiteness, computed separately.

    1. every point has a neighborhood of finite measure (the minimal one,
       its up-set, decides);
    2. the space is covered by opens of finite measure;
    3. every open is covered by opens of finite measure;
    4. every open is the directed union of its finite-measure opens.
    The four booleans must agree; the report carries them all.  The
    family in 4 is directed as it stands (two opens that avoid every
    infinite weight have a union that avoids them), so only its union is
    computed, over lower covers (_walk_below).
    """
    space = nu.space
    inf_points = _inf_mask(nu._scaled[1])
    cond1 = True
    witness = None
    for x in range(space.n):
        if not nu.evaluate(space.up[x]).is_finite:
            cond1 = False
            witness = space.labels[x]
            break
    # the union of all finite-measure opens: points whose minimal
    # neighborhood avoids every infinite weight
    finite_hull = 0
    for x in range(space.n):
        if space.up[x] & inf_points == 0:
            finite_hull |= 1 << x
    cond2 = finite_hull == space.full_mask
    masks = space.open_masks(max_opens)
    cond3 = all(u & ~finite_hull == 0 for u in masks)
    # the union of the finite-measure opens inside each open
    union = _walk_below(space, masks, lambda u, below: (
        u if u & inf_points == 0 else reduce(or_, below, 0)))
    cond4 = all(union[u] == u for u in masks)
    conditions = (cond1, cond2, cond3, cond4)
    if len(set(conditions)) != 1:
        raise ValimError(f"local finiteness readings disagree: {conditions}")
    return LocalFinitenessReport(cond1, conditions, witness)
