"""Bitmask kernels for whole-table work.

Subsets of a space with n points are Python ints with bit i standing for
point i.  Values are arbitrary-precision non-negative ints, with math.inf
standing for infinity: the scaled-integer currency of valim.valuation.
"""

from math import inf

__all__ = ["enumerate_upsets", "scan_axioms", "eval_weights"]


def enumerate_upsets(up, n, limit):
    """All upward-closed subsets as masks, sorted by (popcount, mask).

    up[i] is the mask of weak upper bounds of point i.  Points are added
    one at a time, maximal points first, so the points added so far are
    always upward closed and the up-sets inside them are the previous
    up-sets with and without the new point.  The lists only grow, so the
    cost is the sum of their sizes, at most n * count, never O(2^n).
    Returns None when more than `limit` up-sets exist.
    """
    # maximal points first, so a point's strict upper bounds are decided
    # before the point itself
    order = sorted(range(n), key=lambda i: (up[i].bit_count(), i))
    out = [0]
    for e in order:
        above = up[e] & ~(1 << e)
        bit = 1 << e
        out += [u | bit for u in out if above & ~u == 0]
        if len(out) > limit:
            return None
    # stable: by mask, then by popcount
    out.sort()
    out.sort(key=int.bit_count)
    return out


def scan_axioms(opens, values):
    """Check strictness, monotonicity and modularity over a full table.

    `opens` must be sorted by (popcount, mask) with `values` parallel.
    Returns (code, i, j): code 0 = all laws hold, 1 = strictness fails at
    entry i, 2 = monotonicity fails on the pair (i, j), 3 = modularity
    fails on the pair (i, j), 4 = the family is not closed under union or
    intersection at the pair (i, j).  The first violation in scan order is
    the one reported.
    """
    idx = {m: k for k, m in enumerate(opens)}
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
    whatever its popcount.
    """
    inf_mask = sum(1 << i for i, w in enumerate(weights) if w == inf)
    parts = []
    # at least two bytes, so that up to 16 points take the fast path
    for lo in range(0, max(len(weights), 16), 8):
        sums = [0]
        for w in weights[lo:lo + 8]:
            w = 0 if w == inf else w  # caught by inf_mask
            sums += [s + w for s in sums]
        parts.append(sums)
    if len(parts) == 2:
        low, high = parts
        return [inf if m & inf_mask else low[m & 255] + high[m >> 8]
                for m in opens]
    out = []
    for m in opens:
        if m & inf_mask:
            out.append(inf)
            continue
        s = 0
        rest = m
        for sums in parts:
            s += sums[rest & 255]
            rest >>= 8
        if rest:
            raise IndexError(f"mask {m:#x} has more points than weights")
        out.append(s)
    return out
