"""Edge labelings, the left-modular labeling, and EL-shellability.

An edge labeling maps every covering pair to an integer; only the relative
order of labels carries meaning.  A labeling is EL when every interval has
exactly one strictly increasing maximal chain, and that chain's label
vector is lexicographically smallest in the interval (Bjorner, Trans. AMS
260, 1980).  An interval that meets this condition passes.

Both the verifier and the search decide an interval from its first edges
alone, by this lemma; write x -< w when w covers x.  Let x < y, where y
does not cover x, and suppose every interval [w, y] with x -< w <= y
passes.  Let f(w) be the first label of the increasing chain of [w, y],
with f(y) = +inf.  Then:
  - the increasing chains of [x, y] are exactly the chains x -< w followed
    by the increasing chain of [w, y], one for each such w with
    label(x, w) < f(w);
  - [x, y] passes exactly when exactly one w satisfies label(x, w) < f(w),
    and its label(x, w) is strictly less than every other label(x, w').
Proof, <=: a chain that starts at another w' loses at its first label; a
chain that starts at w loses inside [w, y], because [w, y] passes.
Proof, =>: a w' with a smaller label would give a smaller chain.  With a
tied label, the chain x -< w' followed by the increasing chain of [w', y]
is not increasing, so f(w') <= label(x, w), which is less than the second
label of the increasing chain, and this chain is smaller.

is_el_labeling applies the lemma in one backward sweep per target, in
O(sum over b of (n_b + m_b)) Python steps, where n_b counts the elements
before b in a topological order and m_b the covers below b.
is_el_labeling_naive lists every maximal chain of every interval instead;
it is the independent oracle the tests hold the fast verifier to, and it
compares whole label vectors.

The exact shellability decision searches the weak orders induced on the
cover set: labelings inducing the same weak order are interchangeable, and
every weak order on m edges is realized by labels in 1..m, so enumerating
weak orders (with per-interval pruning) is sound and complete.  The search
labels the edges in a fixed order and keeps the state of every chain of
every interval in bitmasks: one bit per chain, a mask per pair of edges
adjacent in some chain, and per depth the set of chains already broken.
Each label class is a fixed integer, the midpoint of the gap it opens,
so a new class moves no labeled edge.  A node costs the pairs and
intervals on its own edge, not a rescan of their chains or labels, and a
completed interval compares only its first edges, by the lemma.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChainNotLeftModular,
    InvariantViolation,
    PartialLabelingError,
)
from .irreducibles import _cover_paths, check_maximal_chain
from .poset import canonical_relabeling
from .properties import _cover_index, _left_modular_set

DEFAULT_EL_BUDGET = 10_000_000


def lm_labeling(L, chain):
    """Edge labeling induced by a maximal chain of left-modular elements,
    which is a longest one (properties.left_modular_chain proves it).  Any
    other maximal chain, a shorter one included, raises ChainNotLeftModular
    at its first element that is not left modular.

    Cover x -< y gets the least chain index i with y <= x v c_i (McNamara
    and Thomas, Europ. J. Combin. 27, 2006), read for every cover at once
    from the chain's columns of the join table.  The index exists, as c_k
    is the top, and is at least 1, as c_0 is the bottom.  It is also the
    least gamma(j) over the join irreducibles j with x v j = y, where
    gamma(j) indexes the first chain element above j.  As c_i is left
    modular, y = (x v c_i) ^ y = x v (c_i ^ y), so c_i ^ y is not below
    x, some join irreducible j <= c_i ^ y lies outside down(x), and
    x v j = y with gamma(j) <= i; conversely, x v j = y gives
    y <= x v c_gamma(j).
    """
    chain = check_maximal_chain(L, chain)
    lm = _left_modular_set(L)
    for c in chain:
        if c not in lm:
            raise ChainNotLeftModular(c)
    lower, upper = _cover_index(L, up=False)[:2]
    joins = L.join[:, chain][lower]  # x v c_i, one row per cover x -< y
    # y <= x v c_i, with leq read flat: [y, z] at y * n + z
    first = L.leq.ravel().take(upper[:, None] * L.n + joins).argmax(axis=1)
    return dict(zip(L.covers, first.tolist()))


def label_vector(labeling, chain):
    "Labels along consecutive pairs of a chain."
    return tuple(labeling[(a, b)] for a, b in zip(chain, chain[1:]))


def is_increasing(vector):
    return all(x < y for x, y in zip(vector, vector[1:]))


def format_labeling(labeling):
    "One 'a b label' line per cover, in cover order."
    return "\n".join(f"{a} {b} {v}" for (a, b), v in sorted(labeling.items()))


@dataclass(frozen=True)
class ELVerdict:
    status: str  # "is_el" | "not_el"
    interval: tuple | None = None
    reason: str | None = None  # "no_increasing_chain" | "multiple_increasing_chains" | "increasing_not_lex_min"
    chains: tuple | None = None

    def __bool__(self):
        return self.status == "is_el"


def _interval_key(L, slot=None):
    """Key of a pair (a, b) with a <= b: (|[a, b]|, slot[a], slot[b]), slot
    defaulting to the ids; |[a, b]| counts up(a) & down(b)."""
    slot = range(L.n) if slot is None else slot
    up, down = L.up_sets, L.down_sets
    return lambda p: ((up[p[0]] & down[p[1]]).bit_count(), slot[p[0]], slot[p[1]])


def _intervals_by_size(L, slot=None):
    "(a, b) pairs with a < b as Python ints, in _interval_key order."
    a, b = np.nonzero(L.leq & ~np.eye(L.n, dtype=bool))
    return sorted(zip(a.tolist(), b.tolist()), key=_interval_key(L, slot))


def _interval_failure(L, labeling, a, b):
    "ELVerdict for [a, b] from a list of its chains, or None if it passes."
    chains = list(_cover_paths(L, a, b))
    vectors = [label_vector(labeling, ch) for ch in chains]
    rising = [i for i, v in enumerate(vectors) if is_increasing(v)]
    if not rising:
        return ELVerdict(
            "not_el", (a, b), "no_increasing_chain", tuple(chains)
        )
    if len(rising) > 1:
        return ELVerdict(
            "not_el",
            (a, b),
            "multiple_increasing_chains",
            tuple(chains[i] for i in rising),
        )
    best = vectors[rising[0]]
    for i, v in enumerate(vectors):
        if v < best:
            return ELVerdict(
                "not_el",
                (a, b),
                "increasing_not_lex_min",
                (chains[rising[0]], chains[i]),
            )
    return None


def _check_complete(L, labeling):
    missing = set(L.covers) - set(labeling)
    if missing:
        raise PartialLabelingError(missing)


def is_el_labeling_naive(L, labeling):
    """Verify the EL condition by listing every maximal chain of every interval.

    The brute-force reference for is_el_labeling, kept as the oracle the
    tests compare it against; its cost grows with the number of chains.
    """
    _check_complete(L, labeling)
    for a, b in _intervals_by_size(L):
        verdict = _interval_failure(L, labeling, a, b)
        if verdict is not None:
            return verdict
    return ELVerdict("is_el")


def _failing_intervals(L, labeling):
    """Every (a, b) such that [a, b] fails, or some [w, b] with a < w fails.

    One backward sweep per target b, in topological order, applies the
    lemma of the module docstring.  Each pending x below b keeps five
    scalars over its covers x -< w <= b swept so far: the least label, the
    number of covers with that label, the number of rising covers
    (label(x, w) < first(w)), the label of the rising cover, and whether
    every [w, b] passes.  All covers of x are swept before x itself, and
    then first(x) is the rising label if [x, b] passes, else False, which
    marks every x' below x as well.  first(b) is None, for +inf.  The
    least member of the result in (size, a, b) order fails itself: a pair
    listed only for a failing [w, b] above it comes after (w, b), which
    is smaller.  So it is the least failing interval.
    """
    order = L.topological_order
    downs = [
        [(x, labeling[(x, w)]) for x in L.lower_covers[w]] for w in range(L.n)
    ]
    failing = []
    for stop, b in enumerate(order):
        first = None
        pending = {}  # x -> [least, ties, rising, riser, every [w, b] passes]
        for w in order[stop::-1]:
            if w != b:
                state = pending.pop(w, None)
                if state is None:
                    continue
                least, ties, rising, riser, ok = state
                if ok and ties == 1 and rising == 1 and riser == least:
                    first = least
                else:
                    first = False
                    failing.append((w, b))
            for x, label in downs[w]:
                state = pending.get(x)
                if state is None:
                    state = pending[x] = [label, 0, 0, None, True]
                if first is False:
                    state[4] = False
                    continue
                if label < state[0]:
                    state[0] = label
                    state[1] = 1
                elif label == state[0]:
                    state[1] += 1
                if first is None or label < first:
                    state[2] += 1
                    state[3] = label
    return failing


def is_el_labeling(L, labeling):
    """Verify the EL condition on every interval in polynomial time.

    A chain whose label vector ties the increasing chain's is increasing
    too, so a tie fails as "multiple_increasing_chains".

    _failing_intervals decides every interval from its first edges, in
    O(sum over b of (n_b + m_b)) Python steps with no numpy, where n_b
    counts the elements before b in a topological order and m_b the
    covers below b; it builds no label vectors.  On failure the verdict
    names the smallest failing interval in (size, a, b) order, with the
    reason and chains that is_el_labeling_naive reports, found by listing
    the chains of that interval alone.
    """
    _check_complete(L, labeling)
    failing = _failing_intervals(L, labeling)
    if not failing:
        return ELVerdict("is_el")
    a, b = min(failing, key=_interval_key(L))
    verdict = _interval_failure(L, labeling, a, b)
    if verdict is None:
        raise InvariantViolation(
            f"interval {(a, b)} failed the first-edge rule but not its chain list"
        )
    return verdict


PRUNE_RULES = ("no_live_chain", "two_increasing_chains", "not_lex_least")


@dataclass(frozen=True)
class ELSearchResult:
    status: str  # "shellable" | "not_shellable" | "unknown"
    labeling: dict | None
    nodes: int
    budget: int
    # Telemetry, kept compact because callers hold many results:
    # (edges, intervals, chains) of the plan, and one
    # (plan, slice, nodes, status, prunes in PRUNE_RULES order) per pass.
    plan_size: tuple = field(default=(0, 0, 0), compare=False, repr=False)
    passes: tuple = field(default=(), compare=False, repr=False)

    def __bool__(self):
        return self.status == "shellable"

    @property
    def stats(self):
        "The telemetry as a JSON-ready dict, with the prunes summed over passes."
        passes = []
        totals = dict.fromkeys(PRUNE_RULES, 0)
        for plan, given, nodes, status, prunes in self.passes:
            passes.append(
                {
                    "plan": plan,
                    "slice": given,
                    "nodes": nodes,
                    "status": status,
                    "prunes": dict(zip(PRUNE_RULES, prunes)),
                }
            )
            for rule, count in zip(PRUNE_RULES, prunes):
                totals[rule] += count
        edges, intervals, chains = self.plan_size
        return {
            "plan": {"edges": edges, "intervals": intervals, "chains": chains},
            "passes": passes,
            "prunes": totals,
        }


def _search_plans(L):
    """The intervals and their chains, and the two edge orders.

    The "down" order labels covers from the top of the lattice downward,
    the "up" order from the bottom upward; neither dominates, so the search
    runs both.  The intervals and their chains are listed once, here, for
    both orders, and _compile_plan turns an order into a plan.  Along a
    chain the down order lists edges top to bottom and the up order bottom
    to top, so at any depth a chain's labeled edges are contiguous: a
    non-ascending pair of labeled neighbours is what breaks a chain, and
    nothing else can.  The plan is ordered by canonical slot, read on L
    with no copy: intervals by (|[a, b]|, slot[a], slot[b]), edges by
    level, then slot.  So a relabeled L gets the image of L's plan.
    """
    slot = canonical_relabeling(L)
    intervals = []
    for a, b in _intervals_by_size(L, slot):
        chains = list(_cover_paths(L, a, b))
        if len(chains) == 1 and len(chains[0]) == 2:
            continue  # single cover: nothing to constrain
        intervals.append(chains)
    levels = L.levels
    covers = sorted(L.covers, key=lambda e: (slot[e[0]], slot[e[1]]))
    return intervals, [  # down, then up; ties stay in slot order
        sorted(covers, key=lambda e: (s * levels[e[1]], s * levels[e[0]]))
        for s in (-1, 1)
    ]


def _compile_plan(edge_order, intervals):
    """Bitmask tables for one edge order; edge t is labeled at depth t.

    Chain k of the interval list (counted over all intervals) is bit k.
    For each edge t:
      below[t]: (u, mask) for every u < t right below t on some chain,
        where mask holds the chains with that pair, all broken unless
        label(u) < label(t);
      above[t]: the same for every u < t right above t on some chain,
        broken unless label(t) < label(u);
      hooks[t]: (mask, full, lex) per interval with edge t, where mask is
        its chains, full those whose edges all have index <= t, and lex
        is (first bit, the first edge of each chain, the distinct first
        edges) when t is the interval's last edge, else None.
    hooks[t] lists its intervals in _intervals_by_size order, the order
    of the interval list, so each [w, y] inside [x, y] is checked before
    it; _run_plan relies on this to apply the first-edge rule.
    """
    index = {e: i for i, e in enumerate(edge_order)}
    m = len(edge_order)
    pair_masks = {}  # (lower edge, upper edge) in a chain -> chains with it
    hooks = [[] for _ in range(m)]
    bit = 0
    for chains in intervals:
        first = bit
        paths = [
            tuple(index[(u, v)] for u, v in zip(ch, ch[1:])) for ch in chains
        ]
        ends = {}  # last edge -> chains that end there
        for path in paths:
            for pair in zip(path, path[1:]):
                pair_masks[pair] = pair_masks.get(pair, 0) | 1 << bit
            ends[max(path)] = ends.get(max(path), 0) | 1 << bit
            bit += 1
        mask = (1 << bit) - (1 << first)
        heads = tuple(path[0] for path in paths)
        starts = sorted(set(heads))
        members = sorted({e for path in paths for e in path})
        full = 0
        for e in members:
            full |= ends.get(e, 0)
            lex = (first, heads, starts) if e == members[-1] else None
            hooks[e].append((mask, full, lex))
    below = [[] for _ in range(m)]
    above = [[] for _ in range(m)]
    for (lo, hi), chain_mask in pair_masks.items():
        if lo < hi:
            below[hi].append((lo, chain_mask))
        else:
            above[lo].append((hi, chain_mask))
    return edge_order, below, above, hooks


def _run_plan(plan, budget, prunes):
    """One complete backtracking pass; returns (status, nodes_used, labeling).

    frames[t] is (choice, classes) for edge t: the choice last tried there
    and the sorted label values of the classes before it, framed by the
    span ends 0 and 2^(m + 1).  Choice 2g opens a class at the midpoint
    of gap g, choice 2k + 1 joins class k.  A path halves a gap at most m
    times, so no gap closes and no labeled edge ever moves.  The node
    that exceeds the budget is counted; a shellable labeling is ranked
    1..k.

    dead[t] holds the chains broken by edges 0..t-1.  Labeled edges never
    change their relative order, so a pair's verdict is final once both
    its edges are labeled: each node ORs the masks of t's non-ascending
    pairs into dead[t] to get dead[t + 1], and nothing is undone.  Every
    interval hooked on t needs a live chain, and at most one live chain
    whose edges are all labeled.  When t completes an interval [x, y],
    its one live chain is its increasing chain, and every [w, y] with
    x -< w has passed: at an earlier depth, or earlier in hooks[t], which
    lists smaller intervals first.  So by the lemma of the module
    docstring, [x, y] passes exactly when the live chain's first edge is
    labeled strictly below every other first edge.  prunes counts the
    failed nodes per rule, in PRUNE_RULES order.
    """
    edges, below, above, hooks = plan
    m = len(edges)
    values = [0] * m
    dead = [0] * (m + 1)
    nodes = 0
    frames = [(-1, [0, 1 << (m + 1)])]
    t = 0
    while t >= 0:
        choice, classes = frames[t]
        choice += 1
        if choice > 2 * (len(classes) - 2):
            frames.pop()
            t -= 1
            continue
        nodes += 1
        if nodes > budget:
            return "unknown", nodes, None
        g = (choice + 1) >> 1
        if choice & 1:
            v = classes[g]
        else:
            v = (classes[g] + classes[g + 1]) >> 1
        values[t] = v
        frames[t] = (choice, classes)
        d = dead[t]
        for u, mask in below[t]:
            if values[u] >= v:
                d |= mask
        for u, mask in above[t]:
            if v >= values[u]:
                d |= mask
        alive = ~d
        for mask, full, lex in hooks[t]:
            live = mask & alive
            if not live:
                prunes[0] += 1
                break
            both = live & full
            if both & (both - 1):
                prunes[1] += 1
                break
            if lex is None:
                continue
            first, heads, starts = lex
            e = heads[live.bit_length() - 1 - first]
            x = values[e]
            for f in starts:
                if values[f] <= x and f != e:
                    break
            else:
                continue
            prunes[2] += 1
            break
        else:
            if not choice & 1:
                classes = classes[:g + 1] + [v] + classes[g + 1:]
            if t + 1 == m:
                rank = {c: k for k, c in enumerate(classes)}
                labeling = {e: rank[x] for e, x in zip(edges, values)}
                return "shellable", nodes, labeling
            t += 1
            dead[t] = d
            frames.append((-1, classes))
    return "not_shellable", nodes, None


_INITIAL_SLICE = 4096
_SLICE_GROWTH = 16


def el_search(L, budget=DEFAULT_EL_BUDGET):
    """Exact EL-shellability decision with a node budget.

    Backtracks over the weak orders on the cover set: each new edge either
    joins an existing label class or starts a new class in any gap, which
    realizes every weak order exactly once.  Every interval is checked
    each time one of its edges is labeled, through bitmasks of its broken
    and its fully labeled chains (see _run_plan), and verified exactly
    once its last edge is labeled; relative order of already-labeled edges
    never changes afterwards, so those verdicts are stable.

    The plan is ordered by canonical slot, with no copy of L, so the
    outcome depends only on its isomorphism class, and two edge orders
    (top-down, then bottom-up) run under iteratively deepened node slices,
    since either can be far faster on a given instance; the bottom-up
    plan is built only when the first top-down slice runs out.  Nodes are
    counted across all passes; exceeding the budget returns status
    "unknown".  The budget bounds search nodes only.  The canonical
    labeling before the search prunes with the automorphisms it finds,
    so symmetric inputs do not stall it: it takes about 1 ms on B5 and
    M_10, 10 ms on B7, M_20 and the weak order of S5, 0.15 s on M_40 and
    4 s on the weak order of S6 (720 elements; 2 vCPUs, Python 3.11).

    A negative budget raises ValueError.  The result also carries
    telemetry that no verdict depends on: result.plan_size and
    result.passes, and result.stats, the same as a dict with the plan
    size ("plan": edges, intervals, chains), one record per pass
    ("passes": plan, slice, nodes, status, prunes per rule, counted only
    on failing nodes) and the prunes summed over passes ("prunes").
    """
    if budget < 0:
        raise ValueError(f"el_search budget must be nonnegative, got {budget}")
    intervals, edge_orders = _search_plans(L)
    size = (len(L.covers), len(intervals), sum(map(len, intervals)))
    if not L.covers:
        return ELSearchResult("shellable", {}, 0, budget, size)
    passes = []
    plans = [None, None]
    spent = 0
    slice_budget = _INITIAL_SLICE
    while spent < budget:
        for k, name in enumerate(("down", "up")):
            if spent >= budget:
                break
            if plans[k] is None:
                plans[k] = _compile_plan(edge_orders[k], intervals)
            given = min(slice_budget, budget - spent)
            prunes = [0] * len(PRUNE_RULES)
            status, used, labeling = _run_plan(plans[k], given, prunes)
            spent += used
            passes.append((name, given, used, status, tuple(prunes)))
            if status == "unknown":
                continue
            if status == "shellable":
                verdict = is_el_labeling(L, labeling)
                if not verdict:
                    raise InvariantViolation(
                        "search produced a labeling rejected by the "
                        f"verifier: {verdict}"
                    )
            return ELSearchResult(
                status, labeling, spent, budget, size, tuple(passes)
            )
        slice_budget *= _SLICE_GROWTH
    return ELSearchResult("unknown", None, spent, budget, size, tuple(passes))
