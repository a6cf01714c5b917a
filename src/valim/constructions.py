"""Limit valuations and the constructions built from them.

Three routes onto the limit of a compatible valued system:

* ep_limit_valuation: when the bonds are projections of ep-pairs the
  marginals transport directly to the thread space and the value of any
  limit open stabilizes along the index order.
* prohorov_limit: the tight route; an outer set function on the compact
  saturated subsets of the limit is squeezed from the marginals.  On a
  materialized limit it is the top marginal carried to the limit
  whenever the top projection is the identity and every projection
  pushes that marginal onto its own weight for weight, so no walk or
  certificate runs; otherwise it is inner regularized and certified as
  a valuation with the right pushforwards.
* product valuations: a compatible family of marginals over the finite
  subsets of a factor list extends to the full product.  Pointed factors
  support this directly (dropping coordinates is a projection whose
  embedding pads with bottoms); for arbitrary factors (dk_product) the
  full marginal is the extension when it pushes onto every other, and
  lifting below fresh bottoms is left to refusals and to first reads.

loccomp_certificate rounds the picture out: a way-below witness at one
level is traded for a matched family of compact saturated sets, the
object find_dominating_level and the tightness check consume.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from math import inf, lcm, prod
from operator import lt, ne

from . import _kernels
from .errors import SizeLimit, ValimError
from .extreal import ZERO, ExtRat, inf_of, way_below
from .order import (
    DEFAULT_MAX_OPENS,
    DEFAULT_MAX_POINTS,
    FiniteSpace,
    MonotoneMap,
    UpSet,
    _EMPTY_PRODUCT,
    _product_step,
    lift,
    product_space,
    sobriety_witness,
    subspace,
)
from .projective import (
    CompactFamily,
    CylinderOpen,
    LimitSpace,
    PosetSystem,
    ValuedSystem,
    check_compatibility,
    check_ep_system,
    _bonds_to,
    _materialize,
    materialize_limit,
)
from .valuation import (
    TabulatedSetFunction,
    Valuation,
    _ext,
    _first_best_below,
    _first_difference,
    _pushes_to,
    _same_scaled,
    check_valuation,
    first_differing_open,
    image_valuation,
    mu_circ,
    support_check,
)

__all__ = [
    "LimitLawViolation",
    "NotPointed",
    "NotUniformlyTight",
    "NoWitness",
    "LimitValuation",
    "marginal_family_from_joint",
    "ep_limit_valuation",
    "subset_product_system",
    "marginals_from_joint",
    "pointed_product_valuation",
    "DkProduct",
    "dk_product",
    "UniformTightnessReport",
    "UniformTightnessWitnesses",
    "uniform_tightness_check",
    "prohorov_limit",
    "LocCompCertificate",
    "loccomp_certificate",
]


class LimitLawViolation(ValimError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"limit law {law} fails at {witness!r}")


class NotPointed(ValimError):
    def __init__(self, position):
        self.position = position
        super().__init__(f"factor {position} has no least point")


class NotUniformlyTight(ValimError):
    def __init__(self, index, u_members, rational):
        self.index = index
        self.u_members = u_members
        self.rational = rational
        super().__init__(
            f"no compact witness for {rational} under the open "
            f"{u_members} at index {index}"
        )


class NoWitness(ValimError):
    def __init__(self, rational, value):
        self.rational = rational
        self.value = value
        super().__init__(
            f"{rational} is not way below {value}; no compact witness exists"
        )


@dataclass(frozen=True)
class LimitValuation:
    """A valuation on a materialized limit, marginal-exact by contract.

    route records how it was obtained ("ep" or "tight"); either way
    pushing along any projection reproduces the marginal at that index,
    so a cylinder is worth exactly its base's value at its own level.
    The tight route also carries its tightness report's mu, the outer
    set function on the up-sets of the limit (the valuation's own table
    there whenever the top-marginal theorem applied), and its witnesses
    mapping, the realizing compact witness per (index, open), found
    when first read.
    """

    source: ValuedSystem
    limit: LimitSpace
    valuation: Valuation
    route: str
    mu: TabulatedSetFunction | None = None
    tight_witnesses: Mapping | None = None

    def marginal(self, i) -> Valuation:
        return image_valuation(self.limit.projection(i), self.valuation)

    def eval_cylinder(self, cyl: CylinderOpen) -> ExtRat:
        direct = self.valuation.evaluate(cyl.denotation(self.limit))
        at_level = self.source.val(cyl.level).evaluate(cyl.base)
        if direct != at_level:
            raise LimitLawViolation(
                "cylinder evaluation", (cyl.level, cyl.base.members)
            )
        return direct


def _top_index(sys):
    """A finite directed index set's top; a chain's last index."""
    return sys.top_index() if sys.kind == "poset" else sys.last


def marginal_family_from_joint(sys, joint: Valuation) -> ValuedSystem:
    """The compatible family obtained by pushing a top-level valuation
    down every bond.  Compatible by functoriality of pushforward."""
    top = _top_index(sys)
    if joint.space != sys.space(top):
        raise ValimError("joint valuation must live on the top space")
    down = _bonds_to(sys, top)
    vals = tuple(image_valuation(down[i], joint) for i in sys.indices())
    return ValuedSystem(sys, vals)


def _ep_valuation(vs: ValuedSystem, limit: LimitSpace) -> Valuation:
    """The ep route's limit valuation: a materialized carrier is the top
    space in thread clothing, so the top marginal transports verbatim."""
    return Valuation._from_scaled(limit.space,
                                  *vs.val(_top_index(vs.system))._scaled)


def _top_marginal(vs: ValuedSystem, limit: LimitSpace):
    """_ep_valuation(vs, limit), nu_L, when the premises of the
    top-marginal theorem hold on limit, else None.  With t the top index:

    * (P1) limit.projection(t) is the identity and the limit carries
      X_t's order (limit.space.up == X_t.up);
    * (P2) at every index i, limit.projection(i) is a map from the limit
      to X_i along which nu_L pushes to nu_i weight for weight
      (_pushes_to).

    Both are checked on the limit as given, whoever built it, in
    O(points x levels).  P2 holds at t by P1, as nu_L has nu_t's
    weights.  The theorem is in uniform_tightness_check's docstring."""
    sys, space = vs.system, limit.space
    top = _top_index(sys)
    xt = sys.space(top)
    if space.up != xt.up or limit.projection(top).graph != tuple(
            range(xt.n)):
        return None
    nu = _ep_valuation(vs, limit)
    for i in sys.indices():
        if i == top:
            continue
        f, xi = limit.projection(i), sys.space(i)
        # identity first, as == compares the spaces' tables
        if not ((f.source is space or f.source == space)
                and (f.target is xi or f.target == xi)
                and _pushes_to(f, nu, vs.val(i))):
            return None
    return nu


def _check_limit_of(sys, limit: LimitSpace):
    """ValimError at the first index of sys whose projection in limit is
    missing or does not land on sys's space there.  A limit of sys itself
    passes on identity, as LimitSpace checks its projections against its
    own system."""
    if limit.system is sys:
        return
    for i in sys.indices():
        xi = sys.space(i)
        try:
            target = limit.projection(i).target
        except IndexError:
            target = None
        if not (target is xi or target == xi):
            raise ValimError(
                f"the limit's projection at {i} does not land on the "
                f"space at {i}")


def _assert_marginals(lv: LimitValuation):
    """The marginal law at every index, in index order: scaled weights
    are compared first (_pushes_to), and the first differing open is
    looked for only where they differ, as an infinite weight can mask
    finite ones below it."""
    for i in lv.source.system.indices():
        nu_i = lv.source.val(i)
        if _pushes_to(lv.limit.projection(i), lv.valuation, nu_i):
            continue
        w = first_differing_open(lv.marginal(i), nu_i)
        if w is not None:
            raise LimitLawViolation("marginal", (i, w.members))


def ep_limit_valuation(vs: ValuedSystem,
                       max_points: int = DEFAULT_MAX_POINTS,
                       max_opens: int = DEFAULT_MAX_OPENS) -> LimitValuation:
    """The unique limit valuation of a compatible family over ep bonds.

    Checks the family's compatibility, then the system's bond and ep
    laws (check_ep_system).  The carrier of the limit is the top space in
    thread clothing, so the top marginal transports verbatim.  The limit
    law then holds by a theorem, not a run-time check.  The best level-i
    approximation of a limit open W is the upper adjoint of the
    projection p_i, which for ep bonds is the embedding preimage
    e_i^-1(W) (Abramsky and Jung, Domain Theory, 3.1); the law asks that
    nu_i(e_i^-1 W) increase along the index and reach nu(W).

    * Increasing.  Take i <= j.  Then e_i = e_j o e_ij.  For any up-set V
      of X_j, p_ij^-1(e_ij^-1 V) is inside V, because e_ij o p_ij <= id.
      Take V = e_j^-1 W; compatibility (nu_i = nu_j o p_ij^-1) then gives
      nu_i(e_i^-1 W) = nu_j(p_ij^-1 e_ij^-1 e_j^-1 W) <= nu_j(e_j^-1 W).
    * Top equals nu.  _materialize gives the carrier the top space's
      order and points, so the top projection is the identity, and
      _ep_valuation is the top marginal carried along it.

    So a cylinder is worth its base's value at its own level, which makes
    evaluation exact.  tests/test_limit_oracles.py checks the theorem
    against the per-open oracle.  The limit's opens are counted, not
    listed, under max_opens, as a size guard (SizeLimit past it:
    FiniteSpace._opens_past); nothing is cached on the limit space, and
    a caller that compares over every open lists them itself
    (FiniteSpace.open_masks).
    """
    check_compatibility(vs)
    # check_ep_system runs check_system first, so the bond laws are
    # checked once and the limit is built without re-checking them
    check_ep_system(vs.system)
    return _ep_limit(vs, max_points, max_opens)


def _ep_limit(vs: ValuedSystem, max_points, max_opens) -> LimitValuation:
    """ep_limit_valuation on a compatible family over a system whose bond
    and ep laws hold, by a check or by construction.  max_opens=None
    skips the size guard."""
    limit = _materialize(vs.system, max_points)
    if max_opens is not None and limit.space._opens_past(max_opens):
        raise SizeLimit("open lattice", max_opens)
    return LimitValuation(vs, limit, _ep_valuation(vs, limit), "ep")


def subset_product_system(spaces,
                          max_points: int = DEFAULT_MAX_POINTS):
    """The system of partial products over the subsets of the factor
    list, bonds dropping coordinates.

    Returns (system, subsets) with subsets[k] the positions carried by
    index k; the top index carries all of them.  Subset labels order the
    index poset by (size, positions).
    """
    parts = _PartialProducts(tuple(spaces), max_points)
    subsets = parts.subsets
    bits = [sum(1 << p for p in s) for s in subsets]
    # inclusion of subsets is a partial order
    index_space = FiniteSpace._trusted(subsets, tuple(
        sum(1 << b for b, tb in enumerate(bits) if sb & ~tb == 0)
        for sb in bits))
    # the covers drop one coordinate; PosetSystem composes the rest
    bonds = {(a, b): parts.drop(b, a)
             for a, s in enumerate(subsets) for b, t in enumerate(subsets)
             if not bits[a] & ~bits[b] and len(t) == len(s) + 1}
    return PosetSystem(index_space, parts.spaces, bonds), subsets


@cache
def _subsets(k) -> tuple:
    """The subsets of k factor positions as sorted tuples, in (size,
    positions) order: combinations lists each size in lexicographic
    order.  Every product of k factors has the same ones."""
    return tuple(s for r in range(k + 1) for s in combinations(range(k), r))


class _PartialProducts:
    """The products of the factors, of sizes[p] points, over every subset
    of their positions: subsets in (size, positions) order (_subsets), so
    the full one is last, spaces[b] the product at subsets[b] and
    digits[b][c] the graph of its c-th coordinate.  Each product is its
    first factor times the product at the subset's tail, which comes
    earlier in that order, as product_space builds it (_product_step).
    SizeLimit when some product would pass max_points."""

    def __init__(self, spaces, max_points=DEFAULT_MAX_POINTS):
        self.sizes = tuple(sp.n for sp in spaces)
        self.subsets = _subsets(len(spaces))
        # the product of no factors has one point
        if max_points < 1:
            raise SizeLimit("product points", max_points)
        parts = {(): _EMPTY_PRODUCT}
        for s in self.subsets[1:]:
            tail = parts[s[1:]]
            if self.sizes[s[0]] * len(tail[0]) > max_points:
                raise SizeLimit("product points", max_points)
            parts[s] = _product_step(spaces[s[0]], tail)
        self.spaces = tuple(FiniteSpace._trusted(*parts[s][:2])
                            for s in self.subsets)
        self.digits = tuple(parts[s][2] for s in self.subsets)

    def drop(self, b, a) -> MonotoneMap:
        """The map from spaces[b] onto spaces[a], for subsets[a] inside
        subsets[b], that drops the other coordinates.  Its graph is the
        kept digit columns read as one number, first coordinate slowest
        (_product_index), so a single kept coordinate is its column and
        keeping none is the constant map onto the one point."""
        graph = _product_index(self.digits[b], self.subsets[b],
                               self.subsets[a], self.sizes, self.spaces[b].n)
        # dropping coordinates is monotone for componentwise orders
        return MonotoneMap._trusted(self.spaces[b], self.spaces[a], graph)


def _product_index(columns, at, keep, sizes, n) -> tuple:
    """For each x < n, the index in product_space of the factors at
    positions keep of the tuple whose coordinate at position p is point
    columns[at.index(p)][x] of factor p, of sizes[p] points.  The first
    kept coordinate is the slowest digit, so the graph starts from its
    column; keeping none gives the constant map onto the product of no
    factors.  Positions index sizes directly, so no caller builds a
    list per call."""
    if not keep:
        return (0,) * n
    graph = columns[at.index(keep[0])]
    for p in keep[1:]:
        size = sizes[p]
        graph = [g * size + d for g, d in zip(graph, columns[at.index(p)])]
    return tuple(graph)


def marginals_from_joint(spaces, joint: Valuation) -> dict:
    """Marginal per subset of factor positions, from a joint valuation
    on the full product (labels must be coordinate tuples in position
    order, as product_space builds them), read off one _PartialProducts
    (_marginals)."""
    parts = _PartialProducts(tuple(spaces))
    if joint.space != parts.spaces[-1]:
        raise ValimError("joint must live on the product of all factors")
    return _marginals(parts, joint)


def _marginals(parts: _PartialProducts, joint: Valuation) -> dict:
    """joint, a valuation on parts.spaces[-1], pushed along the drop onto
    every partial product, keyed by subset."""
    top = len(parts.subsets) - 1
    return {s: image_valuation(parts.drop(top, a), joint)
            for a, s in enumerate(parts.subsets)}


def pointed_product_valuation(spaces, marginals,
                              max_points: int = DEFAULT_MAX_POINTS,
                              max_opens: int = DEFAULT_MAX_OPENS,
                              ) -> LimitValuation:
    """Extend a compatible family of partial-product marginals of
    pointed factors to the full product.

    marginals maps each subset of factor positions (a sorted tuple) to a
    valuation on the product of those factors.  Dropping coordinates
    admits padding-with-bottom embeddings exactly because every factor
    is pointed (NotPointed names the first factor that is not), so the
    family rides the ep route to the full product.  The subset system is
    built once, and only the family's compatibility is checked: the
    coordinate-dropping bonds compose and are ep by construction, so
    check_system and check_ep_system would only re-prove that, and the
    limit law holds by ep_limit_valuation's theorem.  The product's opens
    are counted under max_opens, as ep_limit_valuation's size guard.
    """
    spaces = tuple(spaces)
    for pos, sp in enumerate(spaces):
        if sp.bottom() is None:
            raise NotPointed(pos)
    sys, subsets = subset_product_system(spaces, max_points)
    return _pointed_extension(sys, subsets, marginals, max_points,
                              max_opens)


def _pointed_extension(sys, subsets, marginals, max_points,
                       max_opens) -> LimitValuation:
    """The ep-route extension of a marginal family over the subset system
    (sys, subsets) of pointed factors.  Its bonds drop coordinates, and
    their embeddings pad with the factors' bottoms, so the system is ep
    by construction and only compatibility is checked.  max_opens=None
    skips the size guard, as in _ep_limit."""
    marginals = _checked_family(marginals, sys.spaces, subsets)
    vs = ValuedSystem(sys, tuple(marginals[s] for s in subsets))
    check_compatibility(vs)
    return _ep_limit(vs, max_points, max_opens)


def _checked_family(marginals, spaces, subsets) -> dict:
    """The marginals, one per subset on its partial product spaces[k]
    (ValimError names the first subset where one is missing or does not
    live there), with the empty-subset marginal filled in when absent.

    Compatibility forces it: the bond from any singleton to the empty
    product pushes the whole mass onto the one point, so its weight must
    be the common total.  Taking the first nonempty subset's total keeps
    the cross-checks downstream honest; a mismatched family still fails
    at the bonds into the point.
    """
    if () not in marginals:
        donor = next((s for s in subsets if s and s in marginals), None)
        if donor is None:
            raise ValimError("marginal missing for subset ()")
        point = spaces[subsets.index(())]
        marginals = {**marginals,
                     (): Valuation(point, (marginals[donor].total(),))}
    for s, space in zip(subsets, spaces):
        if s not in marginals:
            raise ValimError(f"marginal missing for subset {s!r}")
        if marginals[s].space != space:
            raise ValimError(
                f"marginal at {s!r} does not live on that partial product"
            )
    return marginals


@dataclass(frozen=True)
class DkProduct:
    """A product valuation: the extension of a marginal family.

    space is the product of the original factor spaces (labels are
    coordinate tuples), valuation the extension of the given marginals
    to it, projections the maps onto the partial products (keyed by
    subset).  lifted is the limit valuation on the product of the lifted
    factors, and restriction the support-check step that removes the
    padding bottoms.  dk_product's lifted route builds both on first read
    and caches them; == and repr leave them out.
    """

    spaces: tuple
    subsets: tuple
    space: FiniteSpace
    valuation: Valuation
    projections: dict
    # the lifted route's arguments after spaces
    _route: tuple = field(repr=False, compare=False)

    @cached_property
    def _lifted(self) -> tuple:
        """(lifted, restriction), built by the lifted route."""
        return _lifted_product(self.spaces, *self._route)._lifted

    lifted = property(lambda self: self._lifted[0])
    restriction = property(lambda self: self._lifted[1])


def dk_product(spaces, marginals, max_points: int = DEFAULT_MAX_POINTS,
               max_opens: int = DEFAULT_MAX_OPENS,
               validate: bool = True) -> DkProduct:
    """Extend a compatible marginal family to the product of arbitrary
    finite T0 factors.

    The full subset is in the family, so the extension can only be its
    marginal nu.  nu is pushed along the coordinate projection p_s onto
    every partial product and compared with nu_s on scaled integers
    (_pushes_to).  When all agree, nu_s = (p_s)+ nu for every s, so for
    s inside t, (p_st)+ nu_t = (p_st)+ (p_t)+ nu = (p_s)+ nu = nu_s: the
    family is compatible, and nu extends it with the marginal law holding.

    The lifted route (_lifted_product) lifts each factor below a fresh
    bottom, pads each marginal with zeros on the tuples that touch a
    bottom, extends that family by the pointed construction, restricts
    the lifted joint to the bottom-free tuples (support_check) and checks
    the marginal law again.  Lifted bonds map bottom-free tuples as the
    plain ones do, so equal plain weights are equal lifted weights: every
    lifted check passes, with the same result.  So the lifted route runs
    only when a push differs, on the plain products already built: for
    an incompatible family (Incompatible names the same pair and witness)
    or one whose finite weights an infinite weight masks (accepted).  Its
    refusals before that come first, in its order: SizeLimit when the
    lifted top product would pass max_points, then ValimError for the
    first marginal missing or off its partial product.  lifted and
    restriction are built on first read (DkProduct).

    validate counts the lifted top product's opens under max_opens, as
    ep_limit_valuation's size guard (SizeLimit past it), rather than
    listing them (FiniteSpace._opens_past); validate=False skips it, as
    that lattice can pass a million opens while the product takes
    milliseconds.  Every space built here is derived from the factors
    and trusted (FiniteSpace._trusted).
    """
    return _dk_product(spaces, marginals, max_points, max_opens, validate)


def _dk_product(spaces, marginals, max_points, max_opens, validate,
                parts=None) -> DkProduct:
    """dk_product, on parts when the caller has built the plain partial
    products of spaces under max_points."""
    spaces = tuple(spaces)
    if not spaces:
        raise ValimError("at least one factor required")
    # the lifted route's first refusal, raised before building anything
    if prod(sp.n + 1 for sp in spaces) > max_points:
        raise SizeLimit("product points", max_points)
    if parts is None:
        parts = _PartialProducts(spaces, max_points)
    family = _checked_family(marginals, parts.spaces, parts.subsets)
    subsets, top = parts.subsets, len(parts.subsets) - 1
    nu = family[subsets[top]]
    projections = {}
    for a, s in enumerate(subsets):
        projections[s] = parts.drop(top, a)
        if not _pushes_to(projections[s], nu, family[s]):
            return _lifted_product(spaces, family, max_points, max_opens,
                                   validate, parts)
    if validate:
        big, _ = product_space([lift(sp) for sp in spaces], max_points)
        if big._opens_past(max_opens):
            raise SizeLimit("open lattice", max_opens)
    space = parts.spaces[top]
    return DkProduct(spaces, subsets, space,
                     Valuation._from_scaled(space, *nu._scaled),
                     projections, (family, max_points, max_opens, False,
                                   parts))


def _lifted_product(spaces, marginals, max_points, max_opens, validate,
                    parts=None) -> DkProduct:
    """dk_product by the lifted route, with lifted and restriction built.
    parts, when given, are the plain partial products, and marginals
    have been checked against them."""
    lifted_sys, subsets = subset_product_system(tuple(map(lift, spaces)),
                                                max_points)
    if parts is None:
        parts = _PartialProducts(spaces, max_points)
        marginals = _checked_family(marginals, parts.spaces, parts.subsets)
    # lift keeps a factor's points at their indices and adds its bottom
    # last, so a point's coordinates index the lifted factors as they
    # index the plain ones
    sizes = parts.sizes
    lifted_sizes = tuple(size + 1 for size in sizes)
    lifted_marginals = {}
    for i, s in enumerate(subsets):
        lifted_prod = lifted_sys.space(i)
        at = _product_index(parts.digits[i], s, s, lifted_sizes,
                            parts.spaces[i].n)
        den, ints = marginals[s]._scaled
        weights = [0] * lifted_prod.n
        for x, w in zip(at, ints):
            weights[x] = w
        lifted_marginals[s] = Valuation._from_scaled(lifted_prod, den,
                                                     tuple(weights))
    lifted_joint = _pointed_extension(lifted_sys, subsets, lifted_marginals,
                                      max_points, None)
    # the limit carrier is the top space in thread clothing: the thread's
    # component at the top index is the plain coordinate tuple
    big = lifted_joint.valuation.space
    # the size guard counts the lifted opens; nothing lists them
    if validate and big._opens_past(max_opens):
        raise SizeLimit("open lattice", max_opens)
    top = lifted_sys.top_index()
    # the carrier's points are the lifted top product's; a thread is
    # bottom-free when no coordinate sits on its factor's bottom
    lifted_digits = [lifted_sys.bond(subsets.index((p,)), top).graph
                     for p in range(len(spaces))]
    clean = sum(1 << t for t, ds in enumerate(zip(*lifted_digits))
                if all(map(lt, ds, sizes)))
    restriction = support_check(lifted_joint.valuation, clean, max_opens)
    rs = restriction.space
    # the restriction's order under the threads' top components, which
    # are distinct as the top component determines the thread
    space = FiniteSpace._trusted(tuple(lab[top] for lab in rs.labels), rs.up)
    valuation = Valuation._from_scaled(space, *restriction.valuation._scaled)
    digits = [[d[t] for t in restriction.inclusion.graph]
              for d in lifted_digits]
    projections = {}
    for i, s in enumerate(subsets):
        graph = _product_index(digits, subsets[-1], s, sizes, space.n)
        # space carries the componentwise order of the factors (lifting
        # only adds points below), so dropping coordinates is monotone
        projections[s] = MonotoneMap._trusted(space, parts.spaces[i], graph)
        if _pushes_to(projections[s], valuation, marginals[s]):
            continue
        pushed = image_valuation(projections[s], valuation)
        w = first_differing_open(pushed, marginals[s])
        if w is not None:
            raise LimitLawViolation("product marginal", (s, w.members))
    dk = DkProduct(spaces, subsets, space, valuation, projections,
                   (marginals, max_points, max_opens, False, parts))
    dk.__dict__["_lifted"] = (lifted_joint, restriction)
    return dk


@dataclass(frozen=True)
class UniformTightnessReport:
    """Outcome of the uniform tightness test for a valued system.

    mu tabulates the outer set function on the up-sets of the limit:
    mu(Q) = inf over indices of the marginal value of the saturated
    projection of Q.  witnesses maps (index, open mask) to the first
    (smallest, then lowest mask) up-set of the limit realizing the
    supremum the marginal demands, with its mu value, read lazily
    (UniformTightnessWitnesses); failure, on a negative verdict, is
    (index, open mask, unreachable rational).  experimental_infinite
    flags families with infinite marginal values; the witness-rational
    scheme is exact for them on finite lattices but flagged anyway.
    """

    system: object
    limit: LimitSpace
    mu: TabulatedSetFunction
    verdict: bool
    witnesses: Mapping
    failure: tuple | None
    experimental_infinite: bool


class UniformTightnessWitnesses(Mapping):
    """uniform_tightness_check's witnesses: a read-only mapping (index,
    open mask) -> (mask of the first up-set of the limit, in (size,
    mask) order, of largest mu among those whose saturated projection at
    the index fits in the open; that mu value), for every index in order
    and every open there in (size, mask) order, up to and including the
    failing entry of a negative verdict.

    The verdict does not need them, so they are found on first read and
    kept: one walk of each index's opens (_first_best_below) over the
    saturated projections of the limit's up-sets.  Equality, iteration
    and pickling are a dict's, filled in that order.
    """

    def __init__(self, limit, mu, failure, max_opens):
        self._args = (limit, mu, failure, max_opens)

    @cached_property
    def _entries(self) -> dict:
        limit, mu, failure, max_opens = self._args
        sys = limit.system
        den, keys = mu._scaled
        qmasks = mu.masks
        value_at = cache(lambda pos: _ext(keys[pos], den))
        out = {}
        for i in sys.indices():
            xi = sys.space(i)
            opens_i = xi.open_masks(max_opens)
            first = _first_best_below(
                xi, opens_i, _saturated_images(limit, i, qmasks), keys)
            for u in opens_i:
                out[(i, u)] = (qmasks[first[u]], value_at(first[u]))
                if failure is not None and failure[:2] == (i, u):
                    return out
        return out

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return f"{type(self).__name__}({self._entries!r})"


def _saturated_images(limit: LimitSpace, i, masks) -> list:
    """up(p_i(q)) at index i for every mask q of limit points, where
    p_i is the limit's projection (_kernels.union_map)."""
    up = limit.system.space(i).up
    return _kernels.union_map([up[x] for x in limit.projection(i).graph],
                              masks, limit.space.n)


def uniform_tightness_check(vs: ValuedSystem, limit: LimitSpace = None,
                            max_points: int = DEFAULT_MAX_POINTS,
                            max_opens: int = DEFAULT_MAX_OPENS,
                            ) -> UniformTightnessReport:
    """Test whether the marginals are uniformly approximated from inside
    by compact saturated subsets of the limit.

    For every index i and open U at i, every rational way below the
    marginal value of U (it is enough to scan 0 and the attained table
    values) must be carried by some up-set Q of the limit whose
    saturated projection lands in U; mu(Q) is the least marginal value
    of Q's saturated projections, so the supremum of mu over such Q must
    reach the marginal value.  That supremum is mu(q*) for
    q* = p_i^-1(U), the upper adjoint of the saturated image (Abramsky
    and Jung, Domain Theory, 3.1): up(p_i(Q)) is inside U exactly when
    Q is inside q*, as U is an up-set; so the Q in question are the
    up-sets inside q*, q* among them, and mu, a minimum of monotone
    functions, is largest at q*.

    On a materialized limit a theorem decides the test.  Let t be the
    top index and nu_L the top marginal carried to the limit
    (_ep_valuation), and suppose (P1) p_t is the identity and the limit
    carries X_t's order, and (P2) every p_i pushes nu_L to nu_i weight
    for weight (_top_marginal checks both on the limit as given).  For
    an up-set Q of the limit, Q lies inside p_i^-1(up p_i(Q)), so by P2
    nu_i(up p_i(Q)) = nu_L(p_i^-1(up p_i(Q))) >= nu_L(Q), with equality
    at i = t, where up p_t(Q) = Q by P1.  So mu = nu_L on every up-set,
    and mu(q*) = nu_L(p_i^-1 U) = nu_i(U) at every open: the verdict is
    True, with no failure, and mu is one column, nu_L's scaled weights
    summed over the limit's opens (_kernels.eval_weights).  The limit's
    opens are listed; each level's are only counted against max_opens
    (FiniteSpace._opens_past), as no column runs there.  The paper's
    Prohorov theorem has content for infinite index sets (LazyChain),
    which no materialized limit reaches.

    Where P1 or P2 fails (an incompatible family, finite weights that an
    infinite weight masks, a limit built by hand with other
    projections), the column walk decides: mu is the least of the
    indices' saturated-projection columns, each index's column mu(q*)
    is compared with its marginal column, and the first open where they
    differ is the failure.  mu and the marginal values are compared as
    integers on one common scale, and the saturated projections (for
    mu) and the preimages (for q*) are unions of the images of single
    points (_kernels.union_map).  Either way report.mu holds those
    integers and decodes its values on read; only a failure is built as
    ExtRat here.  The first Q realizing each supremum is a witness,
    found only when report.witnesses is read
    (UniformTightnessWitnesses).

    Compatibility of vs is a precondition, not re-verified here: the
    check is meaningful (and fails honestly) on engineered families,
    e.g. nonzero marginals over an empty limit.  A given limit must have
    a projection onto vs's space at every index (_check_limit_of:
    ValimError names the first index where it does not).
    """
    sys = vs.system
    if limit is None:
        limit = materialize_limit(sys, max_points)
    else:
        _check_limit_of(sys, limit)
    idxs = list(sys.indices())
    qmasks = limit.space.open_masks(max_opens)
    # one scale for every marginal, so that mu, its witnesses and the
    # marginal values compare as integers (inf is infinity)
    scaled = [vs.val(i)._scaled for i in idxs]
    den = lcm(*(d for d, _ in scaled))
    level_ints = {i: ints if d == den
                  else tuple([w if w == inf else w * (den // d)
                              for w in ints])
                  for i, (d, ints) in zip(idxs, scaled)}
    if _top_marginal(vs, limit) is None:
        mu, failure = _tightness_walk(vs, limit, qmasks, den, level_ints,
                                      max_opens)
    else:
        if any(sys.space(i)._opens_past(max_opens) for i in idxs):
            raise SizeLimit("open lattice", max_opens)
        top_col = _kernels.eval_weights(level_ints[_top_index(sys)], qmasks)
        mu = TabulatedSetFunction._from_scaled(
            limit.space, tuple(qmasks), den, tuple(top_col), "upsets")
        failure = None
    witnesses = UniformTightnessWitnesses(limit, mu, failure, max_opens)
    return UniformTightnessReport(
        sys, limit, mu, failure is None, witnesses, failure,
        any(inf in ints for ints in level_ints.values()))


def _tightness_walk(vs, limit, qmasks, den, level_ints, max_opens) -> tuple:
    """(mu, failure) of uniform_tightness_check by the column walk, with
    level_ints[i] index i's weights on the common scale den."""
    sys = vs.system
    mu_keys = None
    for i, ints in level_ints.items():
        col = _kernels.eval_weights(ints, _saturated_images(limit, i, qmasks))
        mu_keys = col if mu_keys is None else list(map(min, mu_keys, col))
    mu = TabulatedSetFunction._from_scaled(limit.space, tuple(qmasks), den,
                                           tuple(mu_keys), "upsets")
    row = mu._index
    for i, ints in level_ints.items():
        xi = sys.space(i)
        opens_i = xi.open_masks(max_opens)
        raw = _kernels.eval_weights(ints, opens_i)
        # q* = p_i^-1(U) for every open U
        sups = [mu_keys[row[q]]
                for q in limit.projection(i).preimage_masks(opens_i)]
        k = _first_difference(sups, raw, ne)
        if k == len(raw):
            continue
        # every way-below rational must be dominated; on a finite lattice
        # that is exactly sup = target (the marginal equality), so a
        # shortfall is witnessed by some rational in the gap even when no
        # attained one sits there
        best, target = _ext(sups[k], den), _ext(raw[k], den)
        gap = next((r for r in reversed(_rationals(raw, den))
                    if way_below(r, target) and r > best), None)
        if gap is None:
            if target.is_finite:
                gap = ExtRat((best.frac + target.frac) / 2)
            else:
                gap = ExtRat(best.frac + 1)
        return mu, (i, opens_i[k], gap)
    return mu, None


def _rationals(raw, den) -> list:
    """0 and the distinct values of a scaled column, as sorted ExtRat."""
    return sorted({ZERO} | {_ext(v, den) for v in set(raw)})


def prohorov_limit(vs: ValuedSystem, report: UniformTightnessReport = None,
                   max_points: int = DEFAULT_MAX_POINTS,
                   max_opens: int = DEFAULT_MAX_OPENS,
                   verify_compatibility: bool = True) -> LimitValuation:
    """Limit valuation by the tight route.

    Verifies compatibility and uniform tightness (NotUniformlyTight on
    failure; a precomputed report is accepted, when its limit projects
    onto vs's space at every index: _check_limit_of).  On a materialized limit
    there is only one limit valuation to find: the top projection is the
    identity, so the top marginal carried to the limit, nu_L
    (_ep_valuation), is the only candidate, ep bonds or not.  The result
    is nu_L, returned without a re-check, when

    * (P1)-(P2) of uniform_tightness_check hold for vs on report.limit
      (_top_marginal): p_t is the identity on X_t's order, and every
      p_i pushes nu_L to nu_i weight for weight;
    * (P3) nu_L has no infinite weight;
    * (P4) report.mu is nu_L's table on the limit's opens, listed in
      (size, mask) order on nu_L's scale.

    Then the full certificate would pass and return nu_L: mu_circ(mu)
    is mu, as nu_L is monotone and the best value over the up-sets
    inside an open is its own; check_valuation inverts that table to
    nu_L's weights, as no infinite weight shadows another (P3); every
    marginal pushes to nu_i (P2); and the comparison with nu_L agrees.
    The result is tight without a check: every table check_valuation
    accepts passes nu_bullet's cover check, so the composite reproduces
    it (is_tight).

    Otherwise that certificate runs in full: the inner regularization of
    mu (mu_circ) is certified as a valuation by the full axiom check
    (check_valuation), so a shadowing infinity is refused as NotSimple;
    its marginals are verified to reproduce the family
    (LimitLawViolation "marginal"), and it is compared with nu_L
    (LimitLawViolation "uniqueness").  That covers a report for another
    family, a hand-built report or limit, and a family the walk passed
    without P2.  Either way the limit's lattice is listed under
    max_opens (SizeLimit past it).

    verify_compatibility=False lets a deliberately broken family through
    to the tightness stage, where it fails as NotUniformlyTight instead
    of Incompatible; nonzero marginals over a vanishing system are the
    canonical example.
    """
    if verify_compatibility:
        check_compatibility(vs)
    if report is None:
        report = uniform_tightness_check(vs, None, max_points, max_opens)
    else:
        _check_limit_of(vs.system, report.limit)
    if not report.verdict:
        i, u, r = report.failure
        raise NotUniformlyTight(i, vs.system.space(i).points_of(u), r)
    limit = report.limit
    nu = _reported_top_marginal(vs, report, max_opens)
    if nu is not None:
        return LimitValuation(vs, limit, nu, "tight", report.mu,
                              report.witnesses)
    inner = mu_circ(report.mu, max_opens)
    nu = check_valuation(inner, max_opens)
    lv = LimitValuation(vs, limit, nu, "tight", report.mu, report.witnesses)
    _assert_marginals(lv)
    w = first_differing_open(nu, _ep_valuation(vs, limit))
    if w is not None:
        raise LimitLawViolation("uniqueness", w.members)
    return lv


def _reported_top_marginal(vs, report, max_opens):
    """nu_L when (P1)-(P4) of prohorov_limit hold for vs and report,
    else None.  The limit's lattice is listed first, so its SizeLimit is
    the one mu_circ would raise."""
    limit, mu = report.limit, report.mu
    if mu.space is not limit.space and mu.space != limit.space:
        return None
    opens = limit.space.open_masks(max_opens)
    if mu.masks != tuple(opens):
        return None
    nu = _top_marginal(vs, limit)
    if nu is None:
        return None
    den, ints = nu._scaled
    if inf in ints or not _same_scaled(
            den, _kernels.eval_weights(ints, opens), *mu._scaled):
        return None
    return nu


@dataclass(frozen=True)
class LocCompCertificate:
    """A compact witness family for a way-below approximation.

    family is matched under the bonds, its part at base_index sits
    inside base_open, and every member valuation values its part
    strictly beyond the stated rational (level_floor is the attained
    minimum).  mu_value is the exact outer value of the family's thread
    set in the materialized limit (None for lazy chains, which have
    none)."""

    system: object
    base_index: int
    base_open: UpSet
    rational: ExtRat
    family: CompactFamily
    level_floor: ExtRat
    mu_value: ExtRat | None


def loccomp_certificate(vs: ValuedSystem, i, u: UpSet, r,
                        max_points: int = DEFAULT_MAX_POINTS,
                        max_opens: int = DEFAULT_MAX_OPENS,
                        ) -> LocCompCertificate:
    """Turn a way-below estimate at one level into a compact family.

    Requires r way below the value of u at index i (NoWitness otherwise;
    note 0 is way below everything, including 0).  Every finite T0 space
    is locally compact and sober, which is what lets a compact witness
    be chosen inside u; sobriety is certified rather than assumed.  The
    witness is the smallest up-set inside u that r is still way below,
    ties broken by lowest mask; it propagates through the system upward
    by preimage and downward by saturated image (through the top for a
    branching index, which keeps the family matched).  The family is
    verified and feeds find_dominating_level directly.
    """
    sys = vs.system
    nu_i = vs.val(i)
    xi = sys.space(i)
    if u.space != xi:
        raise ValimError("the open must live at the stated index")
    sobriety_witness(xi, max_opens)
    r = ExtRat(r)
    if not way_below(r, nu_i.evaluate(u)):
        raise NoWitness(r, nu_i.evaluate(u))
    sub, inclusion = subspace(xi, u.mask)
    candidates = [inclusion.image_mask(m) for m in sub.open_masks(max_opens)]
    candidates.sort(key=lambda m: (m.bit_count(), m))
    core = None
    for g in candidates:
        if way_below(r, nu_i.evaluate(g)):
            core = g
            break
    if core is None:
        raise NoWitness(r, nu_i.evaluate(u))
    q_i = UpSet(xi, core)

    # chains: preimages upward, saturated images downward; poset systems:
    # everything through the top, which keeps the family matched across
    # incomparable branches
    parts = []
    if sys.kind == "poset":
        top = sys.top_index()
        qt = sys.bond(i, top).preimage_mask(core)
        for j in sys.indices():
            xj = sys.space(j)
            parts.append(
                UpSet(xj, xj.up_close(sys.bond(j, top).image_mask(qt)))
            )
    else:
        for j in sys.indices():
            if j >= i:
                parts.append(sys.bond(i, j).preimage(q_i))
            else:
                xj = sys.space(j)
                parts.append(
                    UpSet(xj, xj.up_close(sys.bond(j, i).image_mask(core)))
                )
    family = CompactFamily(sys, tuple(parts)).verify()
    floor = inf_of(
        vs.val(j).evaluate(family.part(j)) for j in sys.indices()
    )
    if not way_below(r, floor):
        raise LimitLawViolation("family floor", (floor, r))
    mu_value = None
    if sys.kind in ("prefix", "poset"):
        limit = materialize_limit(sys, max_points)
        qlim = family.limit_mask(limit)
        sat_i = xi.up_close(limit.projection(i).image_mask(qlim))
        if sat_i & ~u.mask:
            raise LimitLawViolation(
                "family escapes the open", xi.points_of(sat_i & ~u.mask)
            )
        mu_value = inf_of(
            vs.val(j).evaluate(
                sys.space(j).up_close(limit.projection(j).image_mask(qlim))
            )
            for j in sys.indices()
        )
        if not (mu_value >= r):
            raise LimitLawViolation("outer value below witness",
                                    (mu_value, r))
    return LocCompCertificate(sys, i, u, r, family, floor, mu_value)
