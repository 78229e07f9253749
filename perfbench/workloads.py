"""The three workloads: what one pass does, and how its answers are checked.

Each workload makes its inputs from the seed when it is constructed (the
benchmark's set-up), `run` does one pass (every call into latticelab,
timed item by item) and `verify` checks the answers outside the timed
region.  `run` returns the items it timed and the pass's wall time, from
its first to its last operation.

Times are taken with a HostClock (hostclock.py), in seconds and in ref
units.  After the pass, `run(lib, clock, repeat=True)` times cheap items
again, in rounds that do not count towards the wall time.  An item's
latency is the median of its timings in ref units, or the least of them
in seconds.

Why these workloads:

* el9 exercises both uses of `el_search`: certifying the 803 left-modular
  classes at n=9 (cheap, many) and refuting the 40 semidistributive ones
  without a left-modular chain (the costly hot path).  The other
  non-semidistributive, non-left-modular classes are left out on time
  grounds alone: at n=8 seven of them take 31-52 s each, and the 40 n=8
  EL decisions take about 300 s.
* scan10 is enumeration to n=10 (dominated by canonical labeling) plus the
  open-question hunt's filter on every n=10 class, with no EL search.
* check-large runs `latticelab check --json` on lattices of 50-250
  elements, all left modular, so the time goes to the labeling and its
  verifier rather than to the search.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

import families

# OEIS A006966: lattices on n unlabeled elements, n = 1..10.
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994)


@dataclass
class Item:
    key: str
    value: object = None
    error: str | None = None
    extra: dict = field(default_factory=dict)
    seconds: float = math.inf  # the least of the item's timings
    refs: list = field(default_factory=list)  # every timing in ref units

    def observe(self, seconds, ref):
        self.seconds = min(self.seconds, seconds)
        self.refs.append(ref)

    @property
    def ref(self):
        "Median timing in ref units; the host's speed is already divided out."
        return statistics.median(self.refs)


@dataclass
class Pass:
    wall: tuple  # (seconds, ref units) from the first to the last operation
    items: list
    info: dict = field(default_factory=dict)


def _relabeled(lib, L, perm):
    "Build L with element i renamed perm[i], the way a loaded file is built."
    covers = [(perm[a], perm[b]) for a, b in L.covers]
    return lib.try_lattice(lib.poset_from_covers(L.n, covers))


def _digest(forms):
    return hashlib.sha256(b"".join(sorted(forms))).hexdigest()[:16]


# --------------------------------------------------------------------------
# el9
# --------------------------------------------------------------------------

EL_SIZES = {
    "full": {"n": 9, "left_modular": 803, "sd_not_left_modular": 40},
    "smoke": {"n": 6, "left_modular": 14, "sd_not_left_modular": 1},
}
# Searches of at most this many nodes are repeated in a second round under
# another relabeling (about 7 s at n=9); only the eight heaviest n=9
# refutations (79k-570k nodes, 0.4-4 s each) are not.
REPEAT_MAX_NODES = 50_000


class El:
    def __init__(self, seed, size):
        self.size = EL_SIZES[size]
        n = self.size["n"]
        count = LATTICE_COUNTS[n - 1]
        rng = random.Random(seed)
        self.perms = [rng.sample(range(n), n) for _ in range(2 * count)]

    def describe(self):
        return {"n": self.size["n"], "relabelings": len(self.perms)}

    def run(self, lib, clock, repeat):
        t0 = clock.sample()
        classes = lib.enumerate_lattices(self.size["n"])
        items = []
        for i, L in enumerate(classes):
            clock.tick()
            left_modular = lib.left_modular_chain(L) is not None
            if not left_modular and not lib.is_semidistributive(L)[0]:
                continue
            M = _relabeled(lib, L, self.perms[2 * i % len(self.perms)])
            it = Item(str(i), extra={"left_modular": left_modular, "lattices": [M]})
            it.value, it.error = clock.timed(it, lib.el_search, M)
            it.extra["results"] = [it.value]
            items.append(it)
        wall = clock.stop(t0)
        for it in items if repeat else ():
            if it.value is None or it.value.nodes > REPEAT_MAX_NODES:
                continue
            i = int(it.key)
            M = _relabeled(lib, classes[i], self.perms[(2 * i + 1) % len(self.perms)])
            result, error = clock.timed(it, lib.el_search, M)
            it.error = it.error or error
            it.extra["lattices"].append(M)
            it.extra["results"].append(result)
        clock.finish()
        return Pass(wall, items, {"classes": len(classes)})

    def verify(self, lib, run):
        problems = []
        if run.info["classes"] != LATTICE_COUNTS[self.size["n"] - 1]:
            problems.append(f"{run.info['classes']} classes")
        lm = sum(1 for it in run.items if it.extra["left_modular"])
        if lm != self.size["left_modular"]:
            problems.append(f"{lm} left-modular classes")
        if len(run.items) - lm != self.size["sd_not_left_modular"]:
            problems.append(f"{len(run.items) - lm} SD classes without LM chain")
        failed = 0
        for it in run.items:
            wrong = self._wrong(lib, it)
            if wrong:
                failed += 1
                problems.append(f"class {it.key}: {wrong}")
        nodes = {it.key: it.value.nodes for it in run.items if it.value is not None}
        certify = sum(nodes.get(it.key, 0) for it in run.items if it.extra["left_modular"])
        run.info.update(
            nodes=nodes,
            nodes_total=sum(nodes.values()),
            nodes_certify=certify,
            nodes_refute=sum(nodes.values()) - certify,
            nodes_digest=hashlib.sha256(json.dumps(list(nodes.items())).encode()).hexdigest()[:16],
            repeated=sum(1 for it in run.items if len(it.refs) > 1),
        )
        return failed, problems

    @staticmethod
    def _wrong(lib, it):
        "Why the item's answers are wrong, or None."
        if it.error:
            return it.error
        first = it.extra["results"][0]
        for M, result in zip(it.extra["lattices"], it.extra["results"]):
            if (result.status, result.nodes) != (first.status, first.nodes):
                return (
                    f"{first.status} in {first.nodes} nodes, but {result.status} "
                    f"in {result.nodes} under another relabeling"
                )
            if not it.extra["left_modular"]:
                if result.status != "not_shellable":
                    return f"semidistributive, not left modular, but {result.status}"
                continue
            if result.status != "shellable":
                return f"left modular but {result.status}"
            try:
                ok = bool(lib.is_el_labeling(M, result.labeling))
            except Exception as exc:
                return f"certificate rejected: {exc!r}"
            if not ok:
                return "certificate fails the EL verifier"
        return None


# --------------------------------------------------------------------------
# scan10
# --------------------------------------------------------------------------

SCAN_SIZES = {
    "full": {
        "max_n": 10,
        "sd": (534, "6ee21400482aa73c"),
        "candidates": (154, "831669429b172526"),
    },
    "smoke": {
        "max_n": 6,
        "sd": (9, "1e89515f2ad1f662"),
        "candidates": (1, "287d5cbafbfa4aa5"),
    },
}
# The filter costs about 25 us per class.  Repeated, each class is
# filtered once per round, in a new seeded order each round; the 19
# rounds after the pass take about 6 s.
SCAN_ROUNDS = 20


def _hunt_filter(lib, L):
    "(semidistributive, candidate): an SD class without a left-modular chain."
    sd = lib.is_semidistributive(L)[0]
    return sd, sd and lib.left_modular_chain(L) is None


class Scan:
    def __init__(self, seed, size):
        self.size = SCAN_SIZES[size]
        count = LATTICE_COUNTS[self.size["max_n"] - 1]
        rng = random.Random(seed)
        self.orders = [rng.sample(range(count), count) for _ in range(SCAN_ROUNDS)]

    def describe(self):
        return {
            "max_n": self.size["max_n"],
            "filtered": len(self.orders[0]),
            "rounds": len(self.orders),
        }

    def run(self, lib, clock, repeat):
        t0 = clock.sample()
        counts = []
        for n in range(1, self.size["max_n"] + 1):
            clock.tick()
            classes = lib.enumerate_lattices(n)
            counts.append(len(classes))
        items = {}
        for r, order in enumerate(self.orders if repeat else self.orders[:1]):
            for i in order:
                if i >= len(classes):
                    continue
                it = items.setdefault(i, Item(str(i), extra={"lattice": classes[i]}))
                value, error = clock.timed(it, _hunt_filter, lib, classes[i])
                it.error = it.error or error
                if r == 0:
                    it.value = value
                elif value != it.value:
                    it.error = it.error or f"filter gave {it.value}, then {value}"
            if r == 0:
                wall = clock.stop(t0)
        clock.finish()
        return Pass(wall, [items[i] for i in sorted(items)], {"counts": counts})

    def verify(self, lib, run):
        problems = []
        expected_counts = list(LATTICE_COUNTS[: self.size["max_n"]])
        if run.info["counts"] != expected_counts:
            problems.append(f"class counts {run.info['counts']}")
        failed = sum(1 for it in run.items if it.error)
        problems += [f"class {it.key}: {it.error}" for it in run.items if it.error]
        if len(run.items) != len(self.orders[0]):
            problems.append(f"{len(run.items)} classes filtered")
        sd = [it for it in run.items if it.value and it.value[0]]
        candidates = [it for it in sd if it.value[1]]
        for name, chosen in (("sd", sd), ("candidates", candidates)):
            forms = [lib.canonical_form(it.extra["lattice"].poset) for it in chosen]
            got = (len(chosen), _digest(forms))
            run.info[name] = got
            if got != self.size[name]:
                problems.append(f"{name}: {got}, expected {self.size[name]}")
        return failed, problems


# --------------------------------------------------------------------------
# check-large
# --------------------------------------------------------------------------


def _chain_steps(n, covers):
    """(chain steps, intervals) of a lattice whose covers go up in id order.

    Chain steps, the sum over intervals [a, b], a < b, of the number of
    maximal chains times their length, is what the EL verifier walks.
    Counted by dynamic programming over the covers, all sources at once.
    """
    paths = np.eye(n)
    steps = np.zeros((n, n))
    for a, b in sorted(covers):
        paths[:, b] += paths[:, a]
        steps[:, b] += steps[:, a] + paths[:, a]
    return int(steps.sum()), int(np.count_nonzero(paths)) - n


def _seeded_ideals(rng, p, window, max_elements):
    """Down-set lattice of a seeded random p-element poset, its chain steps
    inside the window, so that a change of seed does not swing the cost.

    Relations are added to an antichain in a seeded order; each one can only
    lower the cost, so a bisection finds where the cost enters the window,
    and relations that would jump past it are skipped.
    """
    low, high = window

    def cost(relations):
        lower = [[] for _ in range(p)]
        for x, y in relations:
            lower[y].append(x)
        lattice = families.ideals(p, lower, cap=max_elements)
        if lattice is None:
            return float("inf"), None
        return _chain_steps(lattice[0], lattice[1])[0], lattice

    while True:
        pairs = [(x, y) for y in range(p) for x in range(y)]
        rng.shuffle(pairs)
        lo, hi = 0, len(pairs)
        while lo < hi:
            mid = (lo + hi) // 2
            if cost(pairs[:mid])[0] <= high:
                hi = mid
            else:
                lo = mid + 1
        steps, lattice = cost(pairs[:lo])
        if steps >= low:
            return lattice
        base = pairs[: lo - 1]
        for pair in pairs[lo:]:
            steps, lattice = cost(base + [pair])
            if low <= steps <= high:
                return lattice
            if steps > high:
                base.append(pair)


CHECK_SIZES = {
    "full": {
        "fixed": (
            ("chain100", lambda: families.chain(100)),
            ("chain150", lambda: families.chain(150)),
            ("chain200", lambda: families.chain(200)),
            ("B6", lambda: families.boolean(6)),
            ("B7", lambda: families.boolean(7)),
            ("Pi5", lambda: families.partitions(5)),
            ("Pi6", lambda: families.partitions(6)),
            ("Pi5-dual", lambda: families.dual(families.partitions(5))),
            ("Pi6-dual", lambda: families.dual(families.partitions(6))),
        ),
        "ideals": 21,
        "poset_size": 10,
        "window": (0.475e6, 0.525e6),
        "max_elements": 250,
    },
    "smoke": {
        "fixed": (
            ("chain12", lambda: families.chain(12)),
            ("B3", lambda: families.boolean(3)),
            ("Pi4", lambda: families.partitions(4)),
            ("Pi4-dual", lambda: families.dual(families.partitions(4))),
        ),
        "ideals": 2,
        "poset_size": 5,
        "window": (60, 400),
        "max_elements": 32,
    },
}

def _lat_text(n, covers, rng):
    "The lattice in the .lat grammar with ids permuted and lines shuffled."
    perm = rng.sample(range(n), n)
    lines = [f"{perm[a]} {perm[b]}" for a, b in covers]
    rng.shuffle(lines)
    return "\n".join([str(n)] + lines) + "\n"


def _check_json(path):
    "Exit code and standard output of `latticelab check PATH --json`."
    from latticelab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", path, "--json"])
    return code, out.getvalue()


class Check:
    def __init__(self, seed, size, workdir):
        spec = CHECK_SIZES[size]
        rng = random.Random(seed)
        lattices = [(name, make()) for name, make in spec["fixed"]]
        for k in range(spec["ideals"]):
            lattice = _seeded_ideals(
                rng, spec["poset_size"], spec["window"], spec["max_elements"]
            )
            lattices.append((f"ideals{k:02d}", lattice))
        self.inputs = []
        for name, (n, covers, expected) in lattices:
            path = os.path.join(workdir, f"{name}.lat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_lat_text(n, covers, rng))
            steps, intervals = _chain_steps(n, covers)
            self.inputs.append(
                {
                    "name": name,
                    "path": path,
                    "expected": expected,
                    "elements": n,
                    "covers": len(covers),
                    "intervals": intervals,
                    "chain_steps": steps,
                }
            )

    def describe(self):
        keys = ("name", "elements", "covers", "intervals", "chain_steps")
        return {"inputs": [{k: x[k] for k in keys} for x in self.inputs]}

    def run(self, lib, clock, repeat):
        "One `check` per lattice; at a second or so each, none is repeated."
        t0 = clock.sample()
        items = []
        for spec in self.inputs:
            it = Item(spec["name"], extra={"expected": spec["expected"]})
            it.value, it.error = clock.timed(it, _check_json, spec["path"])
            items.append(it)
        wall = clock.stop(t0)
        clock.finish()
        return Pass(wall, items)

    def verify(self, lib, run):
        problems = []
        for it in run.items:
            wrong = self._wrong(it)
            if wrong:
                problems.append(f"{it.key}: {wrong}")
        return len(problems), problems

    @staticmethod
    def _wrong(it):
        "Why the item's answers are wrong, or None."
        if it.error:
            return it.error
        code, text = it.value
        if code != 0:
            return f"exit code {code}"
        try:
            record = json.loads(text)
            got = {name: record[name] for name in families.FLAGS}
            got["length"] = record["length"]
            got["J"] = record["num_join_irreducibles"]
            got["M"] = record["num_meet_irreducibles"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        expected = it.extra["expected"]
        diff = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
        return f"got/expected {diff}" if diff else None


def make(workload, seed, size, workdir):
    if workload == "el9":
        return El(seed, size)
    if workload == "scan10":
        return Scan(seed, size)
    if workload == "check-large":
        return Check(seed, size, workdir)
    raise ValueError(f"unknown workload {workload!r}")
