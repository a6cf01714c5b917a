"""`cli`: documents through `valim.cli.main`, in process.

Set-up writes documents to the work directory; one operation is one
`main(argv)` call with stdout and stderr captured.  About a third of
the documents verify (exit 0); the rest are built to end in a law
failure with a witness (1), a malformed document (2) or a `--max-opens`
cap below the lattice size (3).  Each check compares the exit code with
the one the document was built to provoke and recomputes the reported
weights, values and witnesses from the generating data.

One operation fails today: a map document whose graph image is a JSON
list makes `_parse_graph` raise TypeError out of `main`, where the
contract says exit 2.  It is kept, and counted as failed, until that is
mended; its document does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from random import Random

from valim.cli import main
from valim.constructions import marginals_from_joint
from valim.documents import dumps
from valim.extreal import ExtRat
from valim.generators import (
    rand_ep_prefix_chain,
    rand_poset,
    rand_prefix_chain,
    rand_valuation,
    rand_valued_chain,
    rand_valued_poset_system,
)
from valim.order import product_space
from valim.projective import ValuedSystem
from valim.valuation import TabulatedSetFunction, Valuation

from harness import CheckFailed, Corpus
from workloads.constructions import fracs, push
from workloads.tables import (
    corrupt,
    first_violation,
    law_fails,
    rand_space,
    table_values,
)

# Documents per round, by the `Builder` method that makes them.  Sizes
# are fixed per kind; the seed decides structure and weights.  The
# twenty 150-open tables are the round's slowest operations, and its
# 90th percentile falls in the middle of that one class.
ROUND = (
    # exit 0
    ("table_ok", 20), ("chain_ok", 3), ("valued_ok", 3), ("tight_ok", 4),
    ("support_ok", 3), ("limit_ok", 4), ("product_ok", 4),
    # exit 1
    ("table_bad", 12), ("valued_bad", 4), ("support_bad", 4),
    ("limit_bad", 3), ("product_bad", 3),
    # exit 2
    ("bad_json", 4), ("bad_schema", 4), ("bad_cover", 4), ("bad_weight", 4),
    ("cyclic", 4), ("bad_cylinder", 4), ("list_graph", 1),
    # exit 3
    ("table_cap", 5), ("tight_cap", 5), ("limit_cap", 3), ("product_cap", 3),
)

LIST_GRAPH_DOC = json.dumps({
    "schema": 1,
    "kind": "map",
    "src": {"elements": ["a"], "covers": []},
    "dst": {"elements": ["a"], "covers": []},
    "graph": {"a": ["a"]},
})


def mask_of(index, labels):
    m = 0
    for lab in labels:
        m |= 1 << index[lab]
    return m


def value(weights, mask):
    return sum((w for i, w in enumerate(weights) if (mask >> i) & 1),
               Fraction(0))


def is_upset(up, mask):
    return all(up[i] & ~mask == 0 for i in range(len(up)) if (mask >> i) & 1)


class Command:
    """One `valim` command on one document, and the outcome it was built
    to provoke; `verify(report)` checks an exit-0 or exit-1 report."""

    def __init__(self, name, argv, exit_code, verify=None):
        self.name = name
        self.argv = argv
        self.exit_code = exit_code
        self.verify = verify

    def prepare(self):
        return None

    def run(self, _):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(self.argv)
        return code, out.getvalue()

    def check(self, _, result):
        code, stdout = result
        if code != self.exit_code:
            raise CheckFailed(f"exit {code}, built for {self.exit_code}")
        if self.verify is not None:
            self.verify(json.loads(stdout))


class Builder:
    """Writes the documents of one round and pairs each with its check."""

    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = workdir
        self.written = 0

    def command(self, kind, text, command, exit_code, verify=None,
                options=(), extra=()):
        path = os.path.join(self.workdir, f"{self.written:03d}-{kind}.json")
        self.written += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["--format", "json", *options, command, path, *extra]
        return Command(kind, argv, exit_code, verify)

    # -- valuation tables ------------------------------------------------

    def _table(self, target):
        space, masks = rand_space(self.rng, target)
        weights = fracs(rand_valuation(self.rng, space))
        return space, masks, weights, table_values(weights, masks)

    @staticmethod
    def _table_text(space, masks, values):
        return dumps(TabulatedSetFunction(
            space, tuple(masks), tuple(ExtRat(v) for v in values)))

    def table_ok(self):
        space, masks, weights, values = self._table(150)

        def verify(rep):
            got = [Fraction(w) for w in rep["weights"]]
            if rep["verdict"] != "ok" or got != weights:
                raise CheckFailed(f"weights {rep['weights']} != {weights}")
        return self.command("table_ok", self._table_text(space, masks, values),
                            "check", 0, verify)

    def table_bad(self):
        space, masks, _, values = self._table(80)
        corrupt(self.rng, masks, values, space.n,
                self.rng.choice(("raise", "lower")))
        value_of = dict(zip(masks, values))
        expected = first_violation(masks, values)

        def verify(rep):
            (entry,) = rep["violations"]
            law = entry["detail"].split(" fails at ")[0]
            witness = tuple(mask_of(space.index, w) for w in entry["witness"])
            if not law_fails(law, witness, value_of):
                raise CheckFailed(f"{law} holds on {entry['witness']}")
            if (law, witness) != expected:
                raise CheckFailed(f"{(law, witness)} is not {expected}")
        return self.command("table_bad",
                            self._table_text(space, masks, values),
                            "check", 1, verify)

    def table_cap(self):
        # `tight`, not `check`: `check` reports a table's size limit as a
        # law violation (exit 1), a fault this workload leaves out
        space, masks, _, values = self._table(400)
        return self.command("table_cap",
                            self._table_text(space, masks, values), "tight",
                            3, options=("--max-opens", str(len(masks) // 2)))

    # -- systems ---------------------------------------------------------

    def chain_ok(self):
        levels = 4
        ch = rand_ep_prefix_chain(self.rng, levels, 7)

        def verify(rep):
            if (rep["verdict"], rep["indices"], rep["ep_structure"]) \
                    != ("ok", levels, True):
                raise CheckFailed(f"ep chain reported {rep}")
        return self.command("chain_ok", dumps(ch), "check", 0, verify)

    def valued_ok(self):
        # the chain shapes index by integers, which documents refuse
        vs = rand_valued_poset_system(
            self.rng, self.rng.choice(("vee", "square")), max_top=8)
        n = vs.system.index_poset.n

        def verify(rep):
            if (rep["verdict"], rep["indices"], rep["compatible"]) \
                    != ("ok", n, True):
                raise CheckFailed(f"compatible family reported {rep}")
        return self.command("valued_ok", dumps(vs), "check", 0, verify)

    def _broken_chain(self):
        """A valued prefix chain whose level-0 marginal gained weight."""
        ch = rand_prefix_chain(self.rng, 3, 6)
        vs = rand_valued_chain(self.rng, ch)
        w0 = list(vs.val(0).weights)
        w0[0] = w0[0] + ExtRat(1)
        vals = (Valuation(ch.spaces[0], tuple(w0)),) + vs.valuations[1:]
        return ch, ValuedSystem(ch, vals)

    def valued_bad(self):
        ch, vs = self._broken_chain()
        index = ch.spaces[0].index
        level0 = fracs(vs.val(0))
        above = [push(fracs(vs.val(1)), ch.steps[0].graph, ch.spaces[0].n)]
        g = ch.steps[0].graph
        above.append(push(fracs(vs.val(2)),
                          [g[x] for x in ch.steps[1].graph], ch.spaces[0].n))

        def verify(rep):
            (entry,) = rep["violations"]
            if entry["law"] != "compatibility":
                raise CheckFailed(f"violation {entry}")
            u = mask_of(index, entry["witness"])
            if not any(value(level0, u) != value(w, u) for w in above):
                raise CheckFailed(f"marginals agree on {entry['witness']}")
        return self.command("valued_bad", dumps(vs), "check", 1, verify)

    def _ep_family(self):
        ch = rand_ep_prefix_chain(self.rng, 4, 6)
        return ch, rand_valued_chain(self.rng, ch)

    def limit_ok(self):
        ch, vs = self._ep_family()
        joint = fracs(vs.val(ch.last))
        specs, want = [], []
        for _ in range(2):
            level = self.rng.randrange(len(ch.spaces))
            sp = ch.spaces[level]
            base = sp.up[self.rng.randrange(sp.n)]
            graph = list(range(ch.spaces[-1].n))
            for k in range(ch.last - 1, level - 1, -1):
                graph = [ch.steps[k].graph[x] for x in graph]
            specs.append(f"{level}:{','.join(sp.points_of(base))}")
            want.append(value(push(joint, graph, sp.n), base))

        def verify(rep):
            got = [Fraction(v["value"]) for v in rep["values"]]
            if rep["route"] != "ep" or got != want:
                raise CheckFailed(f"cylinder values {got} != {want}")
        extra = [a for spec in specs for a in ("--cylinder", spec)]
        return self.command("limit_ok", dumps(vs), "limit-eval", 0, verify,
                            extra=extra)

    def limit_bad(self):
        _, vs = self._broken_chain()
        return self.command("limit_bad", dumps(vs), "limit-eval", 1)

    def limit_cap(self):
        # every nonempty space has at least two opens
        _, vs = self._ep_family()
        return self.command("limit_cap", dumps(vs), "limit-eval", 3,
                            options=("--max-opens", "1"))

    def bad_cylinder(self):
        _, vs = self._ep_family()
        return self.command("bad_cylinder", dumps(vs), "limit-eval", 2,
                            extra=("--cylinder", "0:no-such-point"))

    # -- point valuations ------------------------------------------------

    def tight_ok(self):
        space = rand_poset(self.rng, 5)
        weights = fracs(rand_valuation(self.rng, space))
        nu = Valuation(space, tuple(ExtRat(w) for w in weights))

        def verify(rep):
            if rep["verdict"] != "ok" or not rep["witnesses"]:
                raise CheckFailed(f"tightness report {rep['verdict']}")
            for w in rep["witnesses"]:
                u = mask_of(space.index, w["open"])
                q = mask_of(space.index, w["compact_witness"])
                if q & ~u or not is_upset(space.up, q) \
                        or value(weights, q) < Fraction(w["rational"]):
                    raise CheckFailed(f"bad tightness witness {w}")
        return self.command("tight_ok", dumps(nu), "tight", 0, verify)

    def tight_cap(self):
        space, masks = rand_space(self.rng, 200)
        nu = rand_valuation(self.rng, space)
        return self.command("tight_cap", dumps(nu), "tight", 3,
                            options=("--max-opens", str(len(masks) // 2)))

    def _support_case(self):
        space = rand_poset(self.rng, 8)
        weights = [w if self.rng.random() < 0.5 else Fraction(0)
                   for w in fracs(rand_valuation(self.rng, space))]
        weights[self.rng.randrange(space.n)] = Fraction(1, 2)
        nu = Valuation(space, tuple(ExtRat(w) for w in weights))
        return space, weights, nu

    def support_ok(self):
        space, weights, nu = self._support_case()
        keep = [i for i in range(space.n)
                if weights[i] or self.rng.random() < 0.3]
        subset = ",".join(space.labels[i] for i in keep)
        want = [weights[i] for i in keep]

        def verify(rep):
            got = [Fraction(w) for w in rep["document"]["weights"]]
            if rep["verdict"] != "ok" or got != want:
                raise CheckFailed(f"restriction {got} != {want}")
        return self.command("support_ok", dumps(nu), "support", 0, verify,
                            extra=("--subset", subset))

    def support_bad(self):
        space, weights, nu = self._support_case()
        heavy = [i for i in range(space.n) if weights[i]]
        drop = self.rng.choice(heavy)
        keep = [i for i in range(space.n) if i != drop]
        a = sum(1 << i for i in keep)

        def verify(rep):
            u, v = (mask_of(space.index, w) for w in rep["witness"])
            if not (is_upset(space.up, u) and is_upset(space.up, v)
                    and u & a == v & a
                    and value(weights, u) != value(weights, v)):
                raise CheckFailed(f"support witness {rep['witness']}")
        return self.command(
            "support_bad", dumps(nu), "support", 1, verify,
            extra=("--subset", ",".join(space.labels[i] for i in keep)))

    # -- products --------------------------------------------------------

    def _product_query(self, bump=False):
        factors = [rand_poset(self.rng, 2, prefix=f"f{p}_") for p in range(2)]
        prod, _ = product_space(factors)
        joint = rand_valuation(self.rng, prod, max_den=4)
        family = marginals_from_joint(factors, joint)
        marginals = []
        for s, nu in sorted(family.items()):
            if not s:
                continue
            weights = [str(w) for w in nu.weights]
            if bump and len(marginals) == 0:
                weights[0] = str(nu.weights[0] + ExtRat(1))
            marginals.append({"positions": list(s), "weights": weights})
        text = json.dumps({
            "schema": 1, "kind": "query", "operation": "product",
            "arguments": {
                "factors": [json.loads(dumps(f)) for f in factors],
                "marginals": marginals,
            },
        })
        return prod, joint, text

    def product_ok(self):
        prod, joint, text = self._product_query()
        want = {",".join(lab): w for lab, w in zip(prod.labels, fracs(joint))}

        def verify(rep):
            doc = rep["document"]
            got = {lab: Fraction(w) for lab, w in
                   zip(doc["space"]["elements"], doc["weights"])}
            if rep["verdict"] != "ok" or got != want:
                raise CheckFailed(f"product {got} != joint {want}")
        return self.command("product_ok", text, "product", 0, verify)

    def product_bad(self):
        return self.command("product_bad", self._product_query(True)[2],
                            "product", 1)

    def product_cap(self):
        return self.command("product_cap", self._product_query()[2],
                            "product", 3, options=("--max-opens", "4"))

    # -- malformed documents ---------------------------------------------

    def _weights_doc(self):
        space = rand_poset(self.rng, self.rng.randint(4, 8))
        return json.loads(dumps(rand_valuation(self.rng, space)))

    def bad_json(self):
        text = json.dumps(self._weights_doc())
        return self.command("bad_json", text[: len(text) // 2], "check", 2)

    def bad_schema(self):
        doc = self._weights_doc()
        doc["schema"] = 2
        return self.command("bad_schema", json.dumps(doc), "check", 2)

    def bad_cover(self):
        doc = self._weights_doc()
        doc["space"]["covers"].append([doc["space"]["elements"][0], "nowhere"])
        return self.command("bad_cover", json.dumps(doc), "check", 2)

    def bad_weight(self):
        doc = self._weights_doc()
        doc["weights"][-1] = 0.5
        return self.command("bad_weight", json.dumps(doc), "check", 2)

    def cyclic(self):
        doc = self._weights_doc()
        a, b = doc["space"]["elements"][:2]
        doc["space"]["covers"] += [[a, b], [b, a]]
        return self.command("cyclic", json.dumps(doc), "check", 2)

    def list_graph(self):
        return self.command("list_graph", LIST_GRAPH_DOC, "check", 2)


def setup(seed, workdir):
    builder = Builder(Random(seed), workdir)
    cases = []
    for kind, count in ROUND:
        for _ in range(count):
            cases.append(getattr(builder, kind)())
            yield
    Random(seed).shuffle(cases)
    return Corpus(cases)
