"""`tables`: whole-table work through the API.

Each lawful operation tabulates a valuation on a random 10-16 point
poset, inverts the table with `check_valuation`, compares the result
with a copy perturbed at one point through `first_differing_open`, and,
on tables small enough for its cubic scan, runs `is_tight`.  A minority
of operations hand `check_valuation` a corrupted table and expect a
refusal.  Table sizes follow a fixed schedule of open counts, so every
seed costs about the same; the seed decides the posets and weights.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from random import Random

from valim import (
    AxiomViolation,
    check_space,
    TabulatedSetFunction,
    Valuation,
    check_valuation,
    first_differing_open,
    is_tight,
)
from valim._kernels import enumerate_upsets
from valim.extreal import ExtRat
from valim.generators import rand_weights

from harness import CheckFailed, Corpus, fresh_blob

# (target open count, tables per round, run is_tight); a table is
# accepted when its lattice is within 4% (and 8 opens) of the target.
# A round has 72 operations and most of its time goes to the sixteen
# 800-open tables, so no few tables decide a seed's cost.  The median
# falls inside the twelve 250-open tables and the 90th percentile inside
# the 800-open ones, not at the edge of a size class.
LAWFUL = (
    (50, 4, True), (64, 4, True),
    (90, 6, False), (130, 6, False), (180, 6, False), (250, 12, False),
    (350, 4, False), (500, 4, False), (800, 16, False),
)
# corrupted tables: (target open count, corruption)
CORRUPT = (
    (100, "strictness"), (100, "raise"), (300, "lower"), (300, "raise"),
    (1000, "lower"), (1000, "raise"), (2500, "lower"), (2500, "raise"),
    (5000, "lower"), (5000, "raise"),
)
TOLERANCE = 0.04
# corrupted tables up to this size are re-scanned pair by pair
BRUTE_FORCE_OPENS = 600


def _order_key(m):
    return (m.bit_count(), m)


def rand_space(rng: Random, target: int):
    """A poset on 10-16 points whose open lattice has about `target`
    members.

    Each candidate ranks the pairs i < j by a random key; the poset at
    threshold k relates the k pairs with the smallest keys.  More pairs
    never make more opens, so bisecting on k finds the band when the
    candidate crosses it, and a new candidate is drawn when it jumps
    over it.
    """
    slack = max(int(target * TOLERANCE), 8)
    lo_ok, hi_ok = target - slack, target + slack
    # an antichain on n points has 2**n opens: leave room above the target
    least_n = max(10, (3 * target // 2).bit_length())
    while True:
        n = rng.randint(least_n, 16)
        labels = tuple(f"x{i}" for i in range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        lo, hi = 0, len(pairs)  # opens(lo) > hi_ok, opens(hi) < lo_ok
        while hi - lo > 1:
            k = (lo + hi) // 2
            sp = check_space(
                labels, [(labels[i], labels[j]) for i, j in pairs[:k]],
                transitive_closure=True)
            masks = enumerate_upsets(sp.up, n, hi_ok)
            if masks is None:
                lo = k
            elif len(masks) < lo_ok:
                hi = k
            else:
                return sp, masks


def table_values(weights, masks):
    """Each open's value as the Fraction sum of its points' weights."""
    out = []
    for m in masks:
        s = Fraction(0)
        for i, w in enumerate(weights):
            if (m >> i) & 1:
                s += w
        out.append(s)
    return out


class Lawful:
    def __init__(self, rng, target, tight):
        space, masks = rand_space(rng, target)
        weights = rand_weights(rng, space.n)
        self.fracs = [w.frac for w in weights]
        self.point = rng.randrange(space.n)
        bumped = list(weights)
        bumped[self.point] = weights[self.point] + ExtRat(Fraction(1, 7))
        nu = Valuation(space, weights)
        other = Valuation(space, tuple(bumped))
        self.blob = fresh_blob((nu, other))
        self.up = space.up
        self.opens = len(masks)
        self.tight = tight
        self.name = f"lawful[{self.opens}]"

    def prepare(self):
        return pickle.loads(self.blob)

    def run(self, inputs):
        nu, other = inputs
        table = nu.tabulate()
        back = check_valuation(table)
        first = first_differing_open(back, other)
        report = is_tight(back) if self.tight else None
        return table, back, first, report

    def check(self, inputs, out):
        table, back, first, report = out
        if len(table.masks) != self.opens:
            raise CheckFailed(f"{len(table.masks)} opens tabulated")
        got = [w.frac for w in back.weights]
        if got != self.fracs:
            raise CheckFailed(f"weights {got} != generated {self.fracs}")
        # the perturbed point's principal up-set is the least open that
        # contains it, so the least open the two tables differ on
        if first is None or first.mask != self.up[self.point]:
            raise CheckFailed(f"first differing open {first!r}")
        if report is not None:
            check_tight(report, self.up, self.fracs)


def check_tight(report, up, fracs):
    if not (report.verdict and report.composite_matches):
        raise CheckFailed(f"not tight: {report.failure}")
    if not report.witnesses:
        raise CheckFailed("no tightness witnesses")
    for (u, r), q in report.witnesses.items():
        if q & ~u:
            raise CheckFailed(f"witness {q:#b} outside open {u:#b}")
        if any((q >> i) & 1 and up[i] & ~q for i in range(len(up))):
            raise CheckFailed(f"witness {q:#b} is not an up-set")
        value = sum((w for i, w in enumerate(fracs) if (q >> i) & 1),
                    Fraction(0))
        if value < r.frac:
            raise CheckFailed(f"witness {q:#b} worth {value} < {r}")


def first_violation(masks, values):
    """The first failing law in check_valuation's documented scan order:
    strictness, then pairs (i, j), i < j, in (size, mask) order; a
    comparable pair is checked for monotonicity, any other for
    modularity.  Values are Fractions, None for infinity."""
    order = sorted(range(len(masks)), key=lambda k: _order_key(masks[k]))
    ms = [masks[k] for k in order]
    vs = [values[k] for k in order]
    at = {m: k for k, m in enumerate(ms)}
    if vs[at[0]] != 0:
        return "strictness", (0,)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if ms[i] & ~ms[j] == 0:
                if vs[i] > vs[j]:
                    return "monotonicity", (ms[i], ms[j])
            elif (vs[at[ms[i] | ms[j]]] + vs[at[ms[i] & ms[j]]]
                  != vs[i] + vs[j]):
                return "modularity", (ms[i], ms[j])
    return None


def law_fails(law, witness, value_of):
    """Whether the named law fails on the witness, evaluated directly."""
    if law == "strictness":
        return value_of[0] != 0
    a, b = witness
    if law == "monotonicity":
        return a & ~b == 0 and value_of[a] > value_of[b]
    if law == "modularity":
        return (value_of[a | b] + value_of[a & b]
                != value_of[a] + value_of[b])
    return False


def corrupt(rng, masks, values, n, how):
    """Change one value of a lawful table in place; returns its index.

    "strictness" gives the empty open a value; "raise" and "lower"
    change a nonempty open of at most n/2 points that some open is
    incomparable with, which breaks modularity on that pair at least.
    """
    if how == "strictness":
        values[0] = Fraction(1, 3)
        return 0
    while True:
        k = rng.randrange(1, len(masks))
        u = masks[k]
        if (u.bit_count() <= n // 2
                and (how == "raise" or values[k] > 0)
                and any(u & ~v and v & ~u for v in masks)):
            break
    values[k] = values[k] + Fraction(1, 5) if how == "raise" else Fraction(0)
    return k


class Corrupt:
    def __init__(self, rng, target, how):
        space, masks = rand_space(rng, target)
        weights = [w.frac for w in rand_weights(rng, space.n)]
        masks = sorted(masks, key=_order_key)
        values = table_values(weights, masks)
        corrupt(rng, masks, values, space.n, how)
        self.value_of = dict(zip(masks, values))
        self.expected = first_violation(masks, values) \
            if len(masks) <= BRUTE_FORCE_OPENS else None
        table = TabulatedSetFunction(
            space, tuple(masks), tuple(ExtRat(v) for v in values))
        self.blob = fresh_blob(table)
        self.name = f"corrupt-{how}[{len(masks)}]"

    def prepare(self):
        return pickle.loads(self.blob)

    def run(self, table):
        try:
            check_valuation(table)
        except AxiomViolation as err:
            return err
        return None

    def check(self, table, err):
        if err is None:
            raise CheckFailed("corrupted table accepted")
        witness = tuple(u.mask for u in err.witness)
        if not law_fails(err.axiom, witness, self.value_of):
            raise CheckFailed(f"{err.axiom} holds on witness {witness}")
        if self.expected is not None \
                and (err.axiom, witness) != self.expected:
            raise CheckFailed(
                f"reported {(err.axiom, witness)}, first in scan order "
                f"is {self.expected}")


def setup(seed, workdir):
    rng = Random(seed)
    cases = []
    for target, count, tight in LAWFUL:
        for _ in range(count):
            cases.append(Lawful(rng, target, tight))
            yield
    for target, how in CORRUPT:
        cases.append(Corrupt(rng, target, how))
        yield
    # interleave sizes so that a round has no slow stretch
    Random(seed).shuffle(cases)
    return Corpus(cases)
