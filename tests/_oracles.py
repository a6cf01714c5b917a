"""Brute-force reference implementations the tests check against.

Everything here is written the slow, obvious way on purpose: filter all
2^n subsets, scan all opens, iterate bonds until nothing moves.  Keep
these independent of the package internals so a bug cannot hide in both
places at once.  The exceptions are at the end, kept whole on the
package's kernels as the references their shortcuts are compared with:
the tight route's column walk and full certificate, the eager
tightness walk on one space, check_space's pair-by-pair validation of
a closed relation and the two-column valuation comparison.
"""

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import inf, lcm
from operator import itemgetter, ne

from valim import (
    AxiomViolation,
    ExtRat,
    FiniteSpace,
    LimitLawViolation,
    LimitValuation,
    NotAPoset,
    NotSimple,
    NotSupported,
    NotUniformlyTight,
    TightnessReport,
    UniformTightnessReport,
    UniformTightnessWitnesses,
    UpSet,
    ValimError,
    Valuation,
    check_compatibility,
    check_valuation,
    first_differing_open,
    image_valuation,
    materialize_limit,
    mu_circ,
    subspace,
    upper_adjoint,
)
from valim import _kernels
from valim.documents import (
    _parse_space,
    _parse_weights,
    _ratio_from_str,
    _require,
)
from valim.errors import BadDocument
from valim.extreal import INF, ZERO, inf_of, sup_of, way_below
from valim.order import DEFAULT_MAX_OPENS, DEFAULT_MAX_POINTS
from valim.valuation import (
    TabulatedSetFunction,
    _as_table,
    _ext,
    _first_difference,
    _pushes_to,
    _scale,
    _walk_below,
)


def all_upsets(space: FiniteSpace):
    """Every upward-closed mask, by filtering the full power set."""
    out = []
    for m in range(1 << space.n):
        if all(not (m >> i) & 1 or (space.up[i] & ~m) == 0
               for i in range(space.n)):
            out.append(m)
    return out


def closed_upsets(space: FiniteSpace, cap: int):
    """Every upward-closed mask, as the unions of principal up-sets
    reached from the empty set one principal up-set at a time; None once
    more than cap are found.  For spaces too large to filter 2^n subsets
    whose lattices are small."""
    seen = {0}
    todo = [0]
    while todo:
        u = todo.pop()
        for row in space.up:
            v = u | row
            if v not in seen:
                seen.add(v)
                if len(seen) > cap:
                    return None
                todo.append(v)
    return list(seen)


def by_size(masks):
    """Masks in scan order: by popcount, then by value."""
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def mask_value(nu: Valuation, mask: int) -> ExtRat:
    total = ZERO
    for i in range(nu.space.n):
        if (mask >> i) & 1:
            total = total + nu.weights[i]
    return total


def brute_first_differing_mask(nu_a: Valuation, nu_b: Valuation, masks):
    """First of masks, in the given order, where the ExtRat sums differ."""
    assert nu_a.space == nu_b.space
    for m in masks:
        if mask_value(nu_a, m) != mask_value(nu_b, m):
            return m
    return None


def brute_first_differing(nu_a: Valuation, nu_b: Valuation):
    """Smallest open (by size, then mask) where the two tables differ."""
    return brute_first_differing_mask(nu_a, nu_b,
                                      by_size(all_upsets(nu_a.space)))


def push_weights(f, nu: Valuation) -> Valuation:
    """Pushforward by summing the weights over each fiber."""
    weights = [ZERO] * f.target.n
    for i, w in enumerate(nu.weights):
        j = f.apply_index(i)
        weights[j] = weights[j] + w
    return Valuation(f.target, tuple(weights))


def brute_adjoint_mask(limit, i, u_mask: int) -> int:
    """Union of the level-i opens whose cylinders fit inside u."""
    level = limit.system.space(i)
    p = limit.projections[i]
    best = 0
    for v in all_upsets(level):
        pre = p.preimage_mask(v)
        if pre & ~u_mask == 0:
            best |= v
    return best


def level_law_failures(limit):
    """Criterion 2's three laws on one limit, checked open by open, then
    i, then j, then the exhaustion: (position of the open, detail) for
    every check that fails, in that order."""
    sys = limit.system
    idxs = list(sys.indices())
    for k, w in enumerate(limit.space.open_masks()):
        adj = {i: brute_adjoint_mask(limit, i, w) for i in idxs}
        union = 0
        for i in idxs:
            pre_i = limit.projection(i).preimage_mask(adj[i])
            union |= pre_i
            for j in idxs:
                if not sys.index_leq(i, j):
                    continue
                if sys.bond(i, j).preimage_mask(adj[i]) & ~adj[j]:
                    yield k, f"bond monotonicity failed at {(i, j)}"
                if pre_i & ~limit.projection(j).preimage_mask(adj[j]):
                    yield k, f"approximants not increasing at {(i, j)}"
        if union != w:
            yield k, "preimages do not exhaust the open"


def brute_eventual_image(chain, i, horizon: int) -> int:
    """Intersection of bond images from above, iterated to the horizon."""
    space = chain.space(i)
    mask = space.full_mask
    for j in range(i + 1, horizon + 1):
        mask &= chain.bond(i, j).image_mask(chain.space(j).full_mask)
    return mask


def independent_joint(spaces, factor_vals):
    """Product-space valuation with coordinatewise multiplied weights.

    Only sound when all the factor weights are finite; the tests keep it
    that way.
    """
    from valim import product_space

    prod, _ = product_space(spaces)
    weights = []
    for lab in prod.labels:
        f = Fraction(1)
        for pos, point in enumerate(lab):
            w = factor_vals[pos].weights[spaces[pos].index[point]]
            f *= w.frac
        weights.append(ExtRat(f))
    return Valuation(prod, tuple(weights))


def brute_axiom_witness(opens, value):
    """First law violation of a table over `opens`, in scan order.

    `opens` is sorted by size then mask; `value` maps each to an ExtRat.
    Returns None, ("strictness", 0, None), or (axiom, a, b) for the first
    pair a before b that breaks monotonicity (a inside b) or modularity.
    """
    if value.get(0) != ZERO:
        return ("strictness", 0, None)
    for i, a in enumerate(opens):
        for b in opens[i + 1:]:
            if a & ~b == 0:
                if not value[a] <= value[b]:
                    return ("monotonicity", a, b)
            elif value[a] + value[b] != value[a | b] + value[a & b]:
                return ("modularity", a, b)
    return None


def brute_decompose(table):
    """Weights t(up x) - t(up x minus x) in ExtRat, checked on every
    tabulated mask in table order."""
    space = table.space
    value = dict(table.items())
    weights = []
    for x in range(space.n):
        whole = value[space.up[x]]
        punct = value[space.up[x] & ~(1 << x)]
        if not whole.is_finite and not punct.is_finite:
            raise NotSimple("inf - inf has no defined weight", space.labels[x])
        if not whole.is_finite:
            weights.append(INF)
            continue
        try:
            weights.append(whole - punct)
        except ArithmeticError:
            raise NotSimple("negative weight", space.labels[x]) from None
    nu = Valuation(space, tuple(weights))
    for mask, v in table.items():
        if mask_value(nu, mask) != v:
            raise NotSimple("weights do not reproduce the table",
                            space.points_of(mask))
    return nu


def brute_check_valuation(table):
    """An ExtRat pair scan over the whole lattice, then decomposition."""
    space = table.space
    opens = by_size(all_upsets(space))
    if sorted(table.masks) != sorted(opens):
        raise ValimError("table must cover the whole open lattice")
    bad = brute_axiom_witness(opens, dict(table.items()))
    if bad is not None:
        axiom, a, b = bad
        witness = ((UpSet(space, 0),) if b is None
                   else (UpSet(space, a), UpSet(space, b)))
        raise AxiomViolation(axiom, witness)
    return brute_decompose(table)


def brute_support(nu: Valuation, a_mask: int) -> Valuation:
    """The support test by an ExtRat scan of the traces on A, infinite
    weights or not: the opens with trace T on A run from up(T) to M(T),
    and nu must agree at the two ends.  NotSupported names the first
    pair that differs; else the restriction, nu's weights on A, which
    must reproduce nu(up T) on every trace T (AssertionError if not):
    weights outside A are either zero or masked by infinite weights on
    A, so the table of traces need not be invertible."""
    space = nu.space
    sub, inclusion = subspace(space, a_mask)
    sub_masks = by_size(all_upsets(sub))
    table_masks = []
    table_values = []
    for tm in sub_masks:
        trace = 0
        for p, i in enumerate(inclusion.graph):
            if (tm >> p) & 1:
                trace |= 1 << i
        small = space.up_close(trace)
        big = 0
        for y in range(space.n):
            if space.up[y] & a_mask & ~trace == 0:
                big |= 1 << y
        lo = nu.evaluate(small)
        hi = nu.evaluate(big)
        if lo != hi:
            raise NotSupported(UpSet(space, small), UpSet(space, big))
        table_masks.append(tm)
        table_values.append(lo)
    mu = Valuation(sub, tuple(nu.weights[i] for i in inclusion.graph))
    for tm, value in zip(table_masks, table_values):
        if mu.evaluate(tm) != value:
            raise AssertionError(f"weights on A miss the trace {tm:b}")
    return mu


def brute_inf_above(table):
    """mask -> inf of the table over the masks containing it."""
    out = {}
    for q in table.masks:
        low = INF
        for u, v in table.items():
            if q & ~u == 0 and v < low:
                low = v
        out[q] = low
    return out


def brute_sup_below(table):
    """mask -> sup of the table over the masks inside it."""
    out = {}
    for u in table.masks:
        top = ZERO
        for q, v in table.items():
            if q & ~u == 0 and top < v:
                top = v
        out[u] = top
    return out


def brute_tightness(table):
    """(composite_matches, witnesses, failure) of a lawful table, by a
    linear ExtRat scan per (open, value): the first up-set inside the
    open, by size then mask, whose value reaches the value.  The values
    tried are 0 and the finite table values, in the order of a set built
    the same way as is_tight's."""
    composite = brute_sup_below(table)
    matches = all(composite[m] == v for m, v in table.items())
    rationals = {ZERO}
    for v in table.values:
        if v.is_finite:
            rationals.add(v)
    value = dict(table.items())
    masks = by_size(table.masks)
    witnesses = {}
    for u in masks:
        for r in rationals:
            if not way_below(r, value[u]):
                continue
            found = next((q for q in masks
                          if q & ~u == 0 and r <= value[q]), None)
            if found is None:
                return matches, witnesses, (u, r)
            witnesses[(u, r)] = found
    return matches, witnesses, None


def brute_product_up(factors):
    """Up rows of the componentwise order on itertools.product labels,
    by comparing every pair of points coordinate by coordinate."""
    from itertools import product

    points = list(product(*(range(f.n) for f in factors)))
    rows = []
    for a in points:
        row = 0
        for k, b in enumerate(points):
            if all(f.leq(f.labels[x], f.labels[y])
                   for f, x, y in zip(factors, a, b)):
                row |= 1 << k
        rows.append(row)
    return rows


def brute_coordinate_graph(src: FiniteSpace, dst: FiniteSpace, keep):
    """The map from one product's points to another's that keeps the
    coordinates at positions `keep` of each label tuple, by looking the
    kept tuple up among dst's labels."""
    return tuple(dst.index[tuple(lab[c] for c in keep)]
                 for lab in src.labels)


def brute_drop_graph(factors, t, s):
    """The map from the product of the factors at positions t onto the
    one at positions s, s inside t, that drops the other coordinates:
    both products listed as label tuples in itertools.product order, each
    big tuple cut to the coordinates of s and looked up among the small
    ones."""
    from itertools import product

    small = {lab: k for k, lab in enumerate(
        product(*(factors[p].labels for p in s)))}
    keep = [t.index(p) for p in s]
    return tuple(small[tuple(lab[c] for c in keep)]
                 for lab in product(*(factors[p].labels for p in t)))


def brute_subset_bonds(sys, subsets):
    """Every bond graph of a subset product system, (i, j) -> graph for
    each pair of subsets s <= t, by label lookup (brute_coordinate_graph)."""
    out = {}
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            if set(s) <= set(t):
                out[(i, j)] = brute_coordinate_graph(
                    sys.space(j), sys.space(i), [t.index(p) for p in s])
    return out


def brute_is_monotone(f) -> bool:
    """x <= y implies f(x) <= f(y), over every pair of source points."""
    src, dst = f.source, f.target
    return all(
        dst.leq(f(a), f(b))
        for a in src.labels for b in src.labels if src.leq(a, b)
    )


def brute_ep_approximants(vs, limit, nu):
    """The ep route's limit law, open by open in ExtRat: at every limit
    open W, in open_masks order, the marginal values of the upper
    adjoints must increase along the index order (else the first
    decreasing pair (a, b) is named), and their supremum must be nu(W).
    Raises LimitLawViolation as ep_limit_valuation does."""
    sys = vs.system
    idxs = list(sys.indices())
    for w in limit.space.open_masks():
        wset = UpSet(limit.space, w)
        approx = [mask_value(vs.val(i), upper_adjoint(limit, i, wset).mask)
                  for i in idxs]
        for a in idxs:
            for b in idxs:
                if sys.index_leq(a, b) and approx[a] > approx[b]:
                    raise LimitLawViolation(
                        "approximants not increasing", (a, b, wset.members)
                    )
        if sup_of(approx) != mask_value(nu, w):
            raise LimitLawViolation(
                "stabilization", (wset.members, sup_of(approx))
            )


def brute_uniform_tightness(vs, limit, supplier=None):
    """(mu values, verdict, witnesses, failure) of the uniform tightness
    test, by an ExtRat scan of every limit up-set for each (index, open):
    mu(Q) is the least marginal value of Q's saturated projections, and
    the witness is where the running max of mu over the up-sets whose
    projection fits the open first stops growing or reaches the open's
    value.  Where that max falls short, a supplier's family counts only
    where its saturated projection fits the open, which puts its thread
    set inside the open's preimage: it never raises the max, which the
    tests check against uniform_tightness_check, which takes no
    supplier.  The gap rational is as uniform_tightness_check documents
    it."""
    sys = vs.system
    idxs = list(sys.indices())
    qmasks = limit.space.open_masks()
    proj_up = {}
    for i in idxs:
        p = limit.projection(i)
        xi = sys.space(i)
        proj_up[i] = [xi.up_close(p.image_mask(q)) for q in qmasks]
    mu_values = [
        inf_of(mask_value(vs.val(i), proj_up[i][pos]) for i in idxs)
        for pos in range(len(qmasks))
    ]
    mu = dict(zip(qmasks, mu_values))
    witnesses = {}
    for i in idxs:
        xi = sys.space(i)
        nu_i = vs.val(i)
        opens_i = by_size(all_upsets(xi))
        rationals = sorted({ZERO} | {mask_value(nu_i, m) for m in opens_i})
        for u in opens_i:
            target = mask_value(nu_i, u)
            best = None
            best_q = None
            for pos, q in enumerate(qmasks):
                if proj_up[i][pos] & ~u:
                    continue
                if best is None or mu_values[pos] > best:
                    best = mu_values[pos]
                    best_q = q
                if best == target:
                    break
            if best_q is not None:
                witnesses[(i, u)] = (best_q, best)
            if supplier is not None and best != target:
                for r in rationals:
                    if not way_below(r, target):
                        continue
                    if best is not None and r <= best:
                        continue
                    q = supplier(i, UpSet(xi, u), r).limit_mask(limit)
                    sat = xi.up_close(limit.projection(i).image_mask(q))
                    if sat & ~u == 0:
                        val = mu[q]
                        if best is None or val > best:
                            best, best_q = val, q
                            witnesses[(i, u)] = (best_q, best)
            if best != target:
                gap = next(
                    (r for r in reversed(rationals)
                     if way_below(r, target) and r > best),
                    None,
                )
                if gap is None:
                    if target.is_finite:
                        gap = ExtRat((best.frac + target.frac) / 2)
                    else:
                        gap = ExtRat(best.frac + 1)
                return mu_values, False, witnesses, (i, u, gap)
    return mu_values, True, witnesses, None


def walk_uniform_tightness(vs, limit, supplier=None):
    """(mu values, verdict, witnesses, failure) of the uniform tightness
    test as the walk decided it before the preimage argument: for every
    index in order and every open u there in (size, mask) order, the
    best limit up-set is the first of largest mu among those whose
    saturated projection fits u, found by a lower-cover walk of the
    opens at the index; the supplier's thread set replaces it where it
    fits u and mu values it higher; the first open whose best falls
    short of its value fails, with the largest rational of 0 and the
    attained values that is way below the value and above the best."""
    sys = vs.system
    idxs = list(sys.indices())
    qmasks = limit.space.open_masks()
    proj_up = {}
    for i in idxs:
        p = limit.projection(i)
        xi = sys.space(i)
        proj_up[i] = [xi.up_close(p.image_mask(q)) for q in qmasks]
    mu_values = [
        inf_of(mask_value(vs.val(i), proj_up[i][pos]) for i in idxs)
        for pos in range(len(qmasks))
    ]
    mu = dict(zip(qmasks, mu_values))
    witnesses = {}
    for i in idxs:
        xi = sys.space(i)
        nu_i = vs.val(i)
        opens_i = by_size(all_upsets(xi))
        rationals = sorted({ZERO} | {mask_value(nu_i, m) for m in opens_i})
        first = _first_best_inside(xi, opens_i, proj_up[i], mu_values)
        for u in opens_i:
            pos = first[u]
            best, best_q = mu_values[pos], qmasks[pos]
            witnesses[(i, u)] = (best_q, best)
            target = mask_value(nu_i, u)
            if best == target:
                continue
            if supplier is not None:
                for r in rationals:
                    if not way_below(r, target) or r <= best:
                        continue
                    q = supplier(i, UpSet(xi, u), r).limit_mask(limit)
                    sat = xi.up_close(limit.projection(i).image_mask(q))
                    if sat & ~u == 0 and mu[q] > best:
                        best, best_q = mu[q], q
                        witnesses[(i, u)] = (best_q, best)
            if best != target:
                gap = next((r for r in reversed(rationals)
                            if way_below(r, target) and r > best), None)
                if gap is None:
                    if target.is_finite:
                        gap = ExtRat((best.frac + target.frac) / 2)
                    else:
                        gap = ExtRat(best.frac + 1)
                return mu_values, False, witnesses, (i, u, gap)
    return mu_values, True, witnesses, None


def _first_best_inside(space, opens, images, values):
    """u -> the first position, in images order, of the largest value
    among the images inside u, for every u of opens in (size, mask)
    order: u's own images, then the best at each lower cover u minus x,
    x minimal in u."""
    own = {}
    for pos, (s, v) in enumerate(zip(images, values)):
        if s not in own or v > values[own[s]]:
            own[s] = pos
    out = {}
    for u in opens:
        b = own.get(u)
        for x in range(space.n):
            if (u >> x) & 1 and space.down[x] & u == 1 << x:
                c = out[u ^ (1 << x)]
                if b is None or values[c] > values[b] or (
                        values[c] == values[b] and c < b):
                    b = c
        out[u] = b
    return out


def row_loop_valuation(obj):
    """A valuation document's body read one table row at a time: each
    row checked for its type, its open, the open's labels and its value,
    the first bad row refused, duplicate opens refused after all rows.
    It shares the document layer's space, weight and key helpers, which
    the column reader uses as well."""
    space = _parse_space(_require(obj, "space", dict, "valuation"),
                         "valuation.space")
    if "weights" in obj:
        return _parse_weights(obj["weights"], space, "valuation")
    table = _require(obj, "table", list, "valuation")
    index = space.index
    masks, nums, dens = [], [], []
    for row in table:
        if not isinstance(row, dict):
            raise BadDocument("valuation: table rows must be objects")
        mask = 0
        for lab in _require(row, "open", list, "valuation.table"):
            k = index.get(lab) if isinstance(lab, str) else None
            if k is None:
                raise BadDocument(
                    f"valuation.table: unknown element {lab!r}"
                )
            mask |= 1 << k
        masks.append(mask)
        num, den = _ratio_from_str(_require(row, "value", str,
                                            "valuation.table"))
        nums.append(num)
        dens.append(den)
    if len(set(masks)) != len(masks):
        raise BadDocument("valuation.table: duplicate opens")
    den = lcm(*set(dens))
    ints = tuple([inf if n == inf else n * (den // d)
                  for n, d in zip(nums, dens)])
    return TabulatedSetFunction._from_scaled(space, tuple(masks), den, ints)


# --- the tight route as it ran before the top-marginal theorem ----------
#
# uniform_tightness_check and prohorov_limit used to decide every family
# by the column walk and certify every limit by the full axiom check.
# These are those two functions, kept whole, so that the shortcut can be
# compared with them on any input, broken ones and misuse included.


def _walk_saturated_images(limit, i, masks):
    up = limit.system.space(i).up
    return _kernels.union_map([up[x] for x in limit.projection(i).graph],
                              masks, limit.space.n)


def walked_uniform_tightness_check(vs, supplier=None, limit=None,
                                   max_points=DEFAULT_MAX_POINTS,
                                   max_opens=DEFAULT_MAX_OPENS):
    """uniform_tightness_check by the column walk at every index: mu is
    the least column of saturated-image values, and each open U at each
    index is decided at its preimage p_i^-1(U)."""
    sys = vs.system
    if limit is None:
        limit = materialize_limit(sys, max_points)
    idxs = list(sys.indices())
    qmasks = limit.space.open_masks(max_opens)
    den, ints = _scale(tuple(w for i in idxs for w in vs.val(i).weights))
    level_ints = {}
    mu_keys = None
    start = 0
    for i in idxs:
        n = sys.space(i).n
        level_ints[i] = ints[start:start + n]
        start += n
        col = _kernels.eval_weights(level_ints[i],
                                    _walk_saturated_images(limit, i, qmasks))
        mu_keys = col if mu_keys is None else list(map(min, mu_keys, col))
    mu = TabulatedSetFunction._from_scaled(limit.space, tuple(qmasks), den,
                                           tuple(mu_keys), "upsets")
    row = mu._index
    failure = None
    for i in idxs:
        xi = sys.space(i)
        opens_i = xi.open_masks(max_opens)
        raw = _kernels.eval_weights(level_ints[i], opens_i)
        fibres = [0] * xi.n
        for t, x in enumerate(limit.projection(i).graph):
            fibres[x] |= 1 << t
        sups = [mu_keys[row[q]]
                for q in _kernels.union_map(fibres, opens_i, xi.n)]
        k = _first_difference(sups, raw, ne)
        if k == len(raw):
            continue
        best, target = _ext(sups[k], den), _ext(raw[k], den)
        rationals = sorted({ZERO} | {_ext(v, den) for v in set(raw)})
        gap = next((r for r in reversed(rationals)
                    if way_below(r, target) and r > best), None)
        if gap is None:
            if target.is_finite:
                gap = ExtRat((best.frac + target.frac) / 2)
            else:
                gap = ExtRat(best.frac + 1)
        failure = (i, opens_i[k], gap)
        break
    witnesses = UniformTightnessWitnesses(limit, mu, failure, max_opens)
    return UniformTightnessReport(sys, limit, mu, failure is None,
                                  witnesses, failure, inf in ints)


def checked_prohorov_limit(vs, report=None, max_points=DEFAULT_MAX_POINTS,
                           max_opens=DEFAULT_MAX_OPENS,
                           verify_compatibility=True):
    """prohorov_limit with the whole certificate: mu_circ of the report's
    mu, check_valuation of that, every marginal compared (the first
    differing open where scaled weights differ), and the result compared
    with the top marginal carried to the limit."""
    if verify_compatibility:
        check_compatibility(vs)
    if report is None:
        report = walked_uniform_tightness_check(vs, None, None, max_points,
                                                max_opens)
    if not report.verdict:
        i, u, r = report.failure
        raise NotUniformlyTight(i, vs.system.space(i).points_of(u), r)
    limit = report.limit
    inner = mu_circ(report.mu, max_opens)
    nu = check_valuation(inner, max_opens)
    lv = LimitValuation(vs, limit, nu, "tight", report.mu, report.witnesses)
    for i in vs.system.indices():
        nu_i = vs.val(i)
        if _pushes_to(limit.projection(i), nu, nu_i):
            continue
        w = first_differing_open(image_valuation(limit.projection(i), nu),
                                 nu_i)
        if w is not None:
            raise LimitLawViolation("marginal", (i, w.members))
    sys = vs.system
    top = sys.top_index() if sys.kind == "poset" else sys.last
    w = first_differing_open(nu, Valuation(limit.space, vs.val(top).weights))
    if w is not None:
        raise LimitLawViolation("uniqueness", w.members)
    return lv


# --- tightness on one space as it ran before the shared cover check -----
#
# nu_bullet refused a table by a walk of the open lattice, and is_tight
# built every open's witness staircase eagerly, refusing by that same
# walk, and decoded every distinct value before returning.  These are
# the two functions and the eager witness view, kept whole.


def walked_nu_bullet(nu, max_opens=DEFAULT_MAX_OPENS):
    """nu_bullet by a walk of the open lattice that compares each open's
    value with its lower covers' (_walk_below), refusing at the first
    open a cover outweighs (outweighed)."""
    table, opens = _as_table(nu, max_opens)
    den, ints = table._scaled
    key_of = dict(zip(table.masks, ints))

    def check(u, below):
        own = key_of[u]
        if any(k > own for k in below):
            raise outweighed(table.space, u, below, lambda k: k > own)
        return own
    _walk_below(table.space, opens, check)
    return TabulatedSetFunction._from_scaled(table.space, table.masks, den,
                                             ints, "upsets")


def outweighed(space, u, below, outweighs):
    """The cover check's refusal where a walk stops at the open u, below
    holding the walk's results at u's lower covers, u minus x for x
    minimal in u, in ascending x: it names u and the least x whose
    result outweighs u."""
    minimal = [x for x in range(space.n)
               if u >> x & 1 and space.down[x] & u == 1 << x]
    x = next(x for x, got in zip(minimal, below) if outweighs(got))
    err = ValimError(
        f"inf over neighborhoods missed the direct value: the open "
        f"{space.points_of(u)!r} is worth less than its lower cover "
        f"without {space.labels[x]!r}")
    err.witness = (UpSet(space, u), space.labels[x])
    return err


class EagerTightnessWitnesses(Mapping):
    """TightnessWitnesses as it was: every staircase and every decoded
    rational built by walked_is_tight before it returns."""

    def __init__(self, opens, keys, stairs, ranked, den):
        self._opens = opens
        self._keys = keys
        self._stairs = stairs
        self._ranked = ranked
        self._den = den
        self._attained = frozenset(ri for _, ri in ranked)

    def __getitem__(self, key):
        stair = r = None
        if isinstance(key, tuple) and len(key) == 2:
            u, r = key
            stair = self._stairs.get(u)
        if stair is None or not isinstance(r, ExtRat) or r.frac is None:
            raise KeyError(key)
        den, keys = self._den, self._keys
        num, d = r.frac.numerator, r.frac.denominator
        ri = num * (den // d)
        if den % d or ri not in self._attained or (
                ri and ri >= keys[stair[-1]]):
            raise KeyError(key)
        return self._opens[stair[bisect_left(stair, ri,
                                             key=keys.__getitem__)]]

    def _entries(self, ranked):
        opens, keys = self._opens, self._keys
        for u, top, stair in zip(opens, keys, self._stairs.values()):
            tops = [keys[p] for p in stair]
            for r, ri in ranked:
                if ri < top or ri == 0:
                    yield (u, r), opens[stair[bisect_left(tops, ri)]]

    def __iter__(self):
        return (key for key, _ in self._entries(self._ranked))

    def __len__(self):
        values = sorted(ri for _, ri in self._ranked if ri)
        return sum([1 + bisect_left(values, top) for top in self._keys])

    def ascending(self):
        return self._entries(sorted(self._ranked, key=itemgetter(1)))


def walked_is_tight(nu, max_opens=DEFAULT_MAX_OPENS):
    """is_tight by one walk that builds each open's staircase from its
    lower covers' and refuses the first open worth less than the best
    record below it, with nu_bullet's ValimError (outweighed)."""
    table, opens = _as_table(nu, max_opens)
    den, ints = table._scaled
    keys = [ints[table._index[u]] for u in opens]
    pos = {u: p for p, u in enumerate(opens)}

    def records(u, below):
        stair, top = [], -1
        for p in sorted(set().union(*below)):
            if keys[p] > top:
                stair.append(p)
                top = keys[p]
        own = keys[pos[u]]
        if top > own:
            raise outweighed(table.space, u, below,
                             lambda stair: keys[stair[-1]] > own)
        if own > top:
            stair.append(pos[u])
        return stair
    stairs = _walk_below(table.space, opens, records)
    rationals = {ZERO}
    rationals.update([_ext(v, den) for v in dict.fromkeys(ints) if v != inf])
    ranked = [(r, r.frac.numerator * (den // r.frac.denominator))
              for r in rationals]
    witnesses = EagerTightnessWitnesses(opens, keys, stairs, ranked, den)
    return TightnessReport(table.space, True, True, witnesses, None)


# --- spaces and comparisons as they ran before valuations rested scaled --
#
# check_space closed a relation by a double loop over its points and
# then validated it as FiniteSpace(...) does, transitivity and all; and
# first_differing_mask scaled both weight vectors to one denominator and
# evaluated each side's whole column.  These are the two functions, kept
# whole.


def validated_check_space(labels, relation, *, reflexive_closure=True,
                          transitive_closure=False) -> FiniteSpace:
    """check_space, closing by the double loop and validating the
    closed relation with every poset law (FiniteSpace(...))."""
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
    if transitive_closure:
        for k in range(n):
            for i in range(n):
                if (up[i] >> k) & 1:
                    up[i] |= up[k]
    return FiniteSpace(labels, tuple(up))


def two_column_first_differing_mask(nu_a: Valuation, nu_b: Valuation,
                                    masks):
    """first_differing_mask by one _kernels.eval_weights column per side,
    both weight vectors on one denominator (_scale)."""
    if nu_a.space != nu_b.space:
        raise ValimError("valuations live on different spaces")
    n = nu_a.space.n
    _, ints = _scale(nu_a.weights + nu_b.weights)
    values_a = _kernels.eval_weights(ints[:n], masks)
    values_b = _kernels.eval_weights(ints[n:], masks)
    if values_a == values_b:
        return None
    return next(m for m, a, b in zip(masks, values_a, values_b) if a != b)
