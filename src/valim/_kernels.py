"""Bitmask kernels for whole-table work.

Subsets of a space with n points are Python ints with bit i standing for
point i.  Values are arbitrary-precision non-negative ints, with math.inf
standing for infinity: the scaled-integer currency of valim.valuation.
"""

from math import inf
from operator import add, or_

__all__ = ["enumerate_upsets", "count_upsets", "scan_axioms", "eval_weights",
           "union_map"]

# masks per block of _by_columns
_BLOCK = 4096
# points past which count_upsets lists: each level of its recursion drops
# at least one point, and Python's stack holds about a thousand frames
_COUNT_DEPTH = 400
# points from which _upsets orders them by a stack and scans windows
_STACK_FROM = 13


def enumerate_upsets(up, n, limit):
    """All upward-closed subsets as masks, sorted by (popcount, mask);
    None when more than `limit` up-sets exist (_upsets)."""
    out = _upsets(up, n, limit)
    if out is not None:
        # stable: by mask, then by popcount
        out.sort()
        out.sort(key=int.bit_count)
    return out


def _upsets(up, n, limit, weights=None):
    """All upward-closed subsets as masks, in the order they are found;
    None when more than `limit` up-sets exist.  With `weights` (one int
    of any sign or size per point), each up-set u is listed packed with
    its weight sum s, as c = s * 2^n + u.

    up[i] is the mask of weak upper bounds of point i.  Points are added
    one at a time, each after all of its strict upper bounds, so the
    points added so far are always upward closed and the up-sets inside
    them are the previous up-sets with and without the new point (those
    that hold its strict upper bounds).  Such an up-set holds b, the
    strict upper bound added last, and every up-set listed before b was
    added lacks it, so a point scans only the up-sets listed since b's
    turn (Steiner, Oper. Res. Lett. 1986; Squire 1995).  A stack orders
    the points: a point is pushed when its last strict upper bound is
    added, and the last pushed goes next, so b is often the point just
    added.  No scan is longer than the final list, so the cost is at
    most n * count, never O(2^n); on the product criterion's 92 lattices
    the scans touch 1.34 sets per up-set listed, against 4.8 when
    every point scans the whole list.

    Below _STACK_FROM points every point scans the whole list, maximal
    points first: the down rows and the stack cost more there than the
    scans they save.  On random posets (edge probability 0.05-0.8) and
    the gate's own lattices, the stack took 1.45 times the loop's time
    at 6-8 points, 1.2 at 9-10, 1.06 at 11, 1.02 at 12, 0.88 at 13 and
    0.68 at 16.  Dense posets with few opens still lose past it (about
    twice the loop's time on 13-16 points with 50 opens): the setup
    walks every strict relation twice.

    A new up-set is an earlier one plus a point e outside it, so it is
    listed as that up-set plus a step: (weights[e] << n) + (1 << e) with
    weights, the bit alone without, one add per set either way.  The
    packing holds for sums of
    any sign: c = s * 2^n + u with 0 <= u < 2^n gives u = c & (2^n - 1)
    and s = c >> n (floor division by 2^n, exact on ints), and adding
    the step adds weights[e] to s and the bit to u, which lacks it, so
    no carry crosses into s.  The filter reads only u: `above` has no
    bit at or past n, so above & ~c == above & ~u.
    """
    if limit < 1:
        # the empty set is always an up-set
        return None
    out = [0]
    if n < _STACK_FROM:
        # a strict upper bound has fewer upper bounds than the point
        for e in sorted(range(n), key=lambda i: (up[i].bit_count(), i)):
            bit = 1 << e
            above = up[e] ^ bit
            step = bit if weights is None else (weights[e] << n) + bit
            out += [u + step for u in out if above & ~u == 0]
            if len(out) > limit:
                return None
        return out
    # left[i]: strict upper bounds of i not added yet; down[j]: the
    # points strictly below j
    left = []
    down = [0] * n
    for i, row in enumerate(up):
        m = row ^ (1 << i)
        left.append(m.bit_count())
        while m:
            b = m & -m
            down[b.bit_length() - 1] |= 1 << i
            m ^= b
    # (point, where the up-sets that may hold its upper bounds start)
    stack = [(i, 0) for i in range(n - 1, -1, -1) if not left[i]]
    while stack:
        e, lo = stack.pop()
        bit = 1 << e
        above = up[e] ^ bit
        step = bit if weights is None else (weights[e] << n) + bit
        start = len(out)
        out += [u + step for u in (out[lo:] if lo else out)
                if above & ~u == 0]
        if len(out) > limit:
            return None
        # highest first, so the lowest point freed here goes next
        m = down[e]
        while m:
            j = m.bit_length() - 1
            m ^= 1 << j
            left[j] -= 1
            if not left[j]:
                stack.append((j, start))
    return out


class _MemoFull(Exception):
    pass


def count_upsets(up, n, limit):
    """The number of upward-closed subsets, or None when more than
    `limit` exist, without listing them.

    A memoised recursion on a set S of points, under the order induced
    on S, starting from all n points:
    - the up-sets of S are the unions of up-sets of the connected
      components of its comparability graph, so the count is the
      product of theirs;
    - on a connected S, pick a point x.  An up-set containing x contains
      up(x), and the rest of it is any up-set of S minus up(x); an
      up-set missing x misses down(x), and is any up-set of S minus
      down(x).  So count(S) = count(S \\ up(x)) + count(S \\ down(x)).
      x maximises |up(x)| * |down(x)| in S, the pairs through x: on the
      product criterion's lattices that took half the memo and time of
      the point with the most comparable points.
    Every result is capped at limit + 1, which settles a sum once its
    first term reaches the cap, and a product once its partial product
    does.  Counting up-sets is #P-hard in general (Provan and Ball,
    SIAM J. Comput. 1983), so no recursion is small on every poset: the
    memo stops at limit / 16 sets and the count then lists instead
    (_upsets).  A set costs what 13 to 15 listed masks do (2.2-3.0 us
    against 0.15-0.23 us, on the product criterion's counts and on
    random and lifted posets of up to 2^16 opens), so a count that
    gives up has spent about what listing costs (half, when listing
    scanned the whole list at every point).  The bound stays: the
    gate's 20 counts settle within a quarter of theirs.  A count that
    accepts visits a set for each point, where the point ends as a
    lone point or a pivot x (a point other than x stays in one of the
    branches, and every set is smaller), so a memo with
    no room for n sets beyond the empty one could only refuse.  One
    with room for two sets a point or fewer ran out on most random
    posets of 10-16 points (and cost about 1.5 times listing), one with
    room for two to four on few of them, so the count lists at once
    when limit / 16 <= 2n, where limit is small.  It also lists past
    _COUNT_DEPTH points, which the recursion's depth could reach.
    """
    cap = limit + 1
    bound = limit >> 4
    if bound <= 2 * n or n > _COUNT_DEPTH:
        return _listed_count(up, n, limit)
    down = [0] * n
    for i in range(n):
        m = up[i]
        while m:
            b = m & -m
            down[b.bit_length() - 1] |= 1 << i
            m ^= b
    comparable = [u | d for u, d in zip(up, down)]
    memo = {0: 1}

    def count(s):
        got = memo.get(s)
        if got is not None:
            return got
        # the component of s's lowest point, and the point of it with
        # the most pairs through it
        seen = todo = s & -s
        best = x = 0
        while todo:
            b = todo & -todo
            todo ^= b
            i = b.bit_length() - 1
            new = comparable[i] & s & ~seen
            seen |= new
            todo |= new
            pairs = (up[i] & s).bit_count() * (down[i] & s).bit_count()
            if pairs > best:
                best, x = pairs, i
        if seen != s:
            out = count(seen)
            if out < cap:
                out = min(out * count(s & ~seen), cap)
        elif best == 1:
            # a lone point
            out = 2
        else:
            out = count(s & ~up[x])
            if out < cap:
                out = min(out + count(s & ~down[x]), cap)
        if len(memo) >= bound:
            raise _MemoFull
        memo[s] = out
        return out

    try:
        got = count((1 << n) - 1)
    except _MemoFull:
        return _listed_count(up, n, limit)
    return None if got > limit else got


def _listed_count(up, n, limit):
    out = _upsets(up, n, limit)
    return None if out is None else len(out)


def scan_axioms(opens, values, index=None):
    """Check strictness, monotonicity and modularity over a full table.

    `opens` must be sorted by (popcount, mask) with `values` parallel;
    `index`, when given, maps each of opens to its position.
    Returns (code, i, j): code 0 = all laws hold, 1 = strictness fails at
    entry i, 2 = monotonicity fails on the pair (i, j), 3 = modularity
    fails on the pair (i, j), 4 = the family is not closed under union or
    intersection at the pair (i, j).  The first violation in scan order is
    the one reported.
    """
    idx = {m: k for k, m in enumerate(opens)} if index is None else index
    k0 = idx.get(0)
    if k0 is None or values[k0] != 0:
        return (1, 0 if k0 is None else k0, -1)
    m = len(opens)
    for i in range(m):
        mi = opens[i]
        if mi == 0:
            # the empty set is below everything and worth 0: no pair fails
            continue
        vi = values[i]
        for j in range(i + 1, m):
            mj = opens[j]
            vj = values[j]
            if mi & ~mj == 0:
                # comparable pair: modularity is automatic, order matters
                if vi > vj:
                    return (2, i, j)
                continue
            ku = idx.get(mi | mj)
            kw = idx.get(mi & mj)
            if ku is None or kw is None:
                return (4, i, j)
            vu = values[ku]
            vw = values[kw]
            try:
                if vu + vw != vi + vj:
                    return (3, i, j)
            except OverflowError:
                # inf plus an int past float range: where the infs sit decides
                if (vu == inf or vw == inf) != (vi == inf or vj == inf):
                    return (3, i, j)
    return (0, -1, -1)


def eval_weights(weights, opens):
    """Table of a weighted sum over each mask; an inf weight makes it inf.

    The weights are cut into bytes, and each byte's 256 subset sums are
    tabulated once, so a mask costs one lookup per byte of points
    whatever its popcount.  Past 24 points the bytes are summed one
    column at a time over all masks (_by_columns).  IndexError for a
    mask with more points than weights.
    """
    inf_mask = sum(1 << i for i, w in enumerate(weights) if w == inf)
    # an inf weight counts 0 here and is caught by inf_mask
    parts = _byte_tables([0 if w == inf else w for w in weights], add)
    if len(parts) == 2:
        low, high = parts
        return [inf if m & inf_mask else low[m & 255] + high[m >> 8]
                for m in opens]
    if len(parts) == 3:
        # every mask is summed, so one past the points raises IndexError
        # whether or not it holds an inf point
        low, mid, high = parts
        out = [low[m & 255] + mid[m >> 8 & 255] + high[m >> 16]
               for m in opens]
    else:
        out = _by_columns(parts, opens, add, "weights")
    if inf_mask:
        return [inf if m & inf_mask else v for m, v in zip(opens, out)]
    return out


def union_map(point_images, masks, n):
    """For each mask of points below n, the OR of point_images[x] over
    its points x.

    A map on masks that preserves unions is fixed by the images of
    single points (the free join-semilattice on the points), so images,
    preimages, up- and down-closures and their composites all run
    here.  As in eval_weights, each byte's 256 ORs are tabulated once,
    a mask costs one lookup per byte of points, and past 24 points the
    bytes are combined one column at a time.  IndexError for a mask
    with points at or past n.
    """
    parts = _byte_tables(point_images[:n], or_)
    if len(parts) == 2:
        low, high = parts
        return [low[m & 255] | high[m >> 8] for m in masks]
    if len(parts) == 3:
        low, mid, high = parts
        return [low[m & 255] | mid[m >> 8 & 255] | high[m >> 16]
                for m in masks]
    return _by_columns(parts, masks, or_, "point images")


def _byte_tables(values, op) -> list:
    """For each byte of points, at least two, the 256 (or fewer, in a
    last short byte) op-folds of values over the byte's subsets."""
    parts = []
    for lo in range(0, max(len(values), 16), 8):
        table = [0]
        for v in values[lo:lo + 8]:
            # the operator inline: a call per entry costs a fifth more
            table += [t + v for t in table] if op is add \
                else [t | v for t in table]
        parts.append(table)
    return parts


def _by_columns(parts, masks, op, what) -> list:
    """op over each mask's lookups in parts, one byte column at a time:
    a block of masks is packed into bytes, and column c is the table
    lookups of every c-th byte.  Blocks keep the columns in flight to a
    few thousand entries.  A short last table refuses a point past the
    values by IndexError; so does a mask past the last byte."""
    width = len(parts)
    out = []
    for lo in range(0, len(masks), _BLOCK):
        block = masks[lo:lo + _BLOCK]
        try:
            packed = b"".join([m.to_bytes(width, "little") for m in block])
        except OverflowError:
            bad = next(m for m in block if m >> 8 * width)
            raise IndexError(
                f"mask {bad:#x} has more points than {what}") from None
        acc = [parts[0][b] for b in packed[::width]]
        for c in range(1, width):
            table = parts[c]
            acc = list(map(op, acc, [table[b] for b in packed[c::width]]))
        out += acc
    return out
