"""Edge labelings, the left-modular labeling, and EL-shellability.

An edge labeling maps every covering pair to an integer; only the relative
order of labels carries meaning.  A labeling is EL when every interval has
exactly one strictly increasing maximal chain, and that chain's label
vector is lexicographically smallest in the interval.

is_el_labeling checks a labeling in polynomial time, O(n * m * (d + k))
for n elements, m covers, maximum degree d and length k: dynamic programs
over the covers count every interval's increasing chains and find its
lexicographically first chain without listing chains.
is_el_labeling_naive lists every maximal chain of every interval instead;
it is the independent oracle the tests hold the fast verifier to.

The exact shellability decision searches the weak orders induced on the
cover set: labelings inducing the same weak order are interchangeable, and
every weak order on m edges is realized by labels in 1..m, so enumerating
weak orders (with per-interval pruning) is sound and complete.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChainNotLeftModular,
    ChainNotMaximumLength,
    InvariantViolation,
    PartialLabelingError,
)
from .irreducibles import (
    _cover_paths,
    check_maximal_chain,
    join_irreducible_ids,
    length,
)
from .properties import _cover_arrays, _left_modular_set

DEFAULT_EL_BUDGET = 10_000_000


def lm_labeling(L, chain):
    """Edge labeling induced by a maximum-length left-modular chain.

    Cover (a, b) gets the smallest chain index gamma(j) of a join
    irreducible j with a v j = b.  Every gamma(j) comes from one table
    lookup, and every cover takes its label from one scan of the join
    irreducibles sorted by gamma.  The candidate set is never empty (each
    cover has a perspectivity witness below its upper element); this is
    asserted.
    """
    chain = check_maximal_chain(L, chain)
    if len(chain) - 1 != length(L):
        raise ChainNotMaximumLength(
            f"chain has length {len(chain) - 1}, lattice has {length(L)}"
        )
    lm = _left_modular_set(L)
    for c in chain:
        if c not in lm:
            raise ChainNotLeftModular(c)
    if not L.covers:
        return {}
    J = np.array(join_irreducible_ids(L), dtype=np.intp)
    gam = L.leq[np.ix_(J, chain)].argmax(axis=1)  # first chain index above j
    by_gamma = np.argsort(gam, kind="stable")
    lower, upper = _cover_arrays(L)
    generates = L.join[np.ix_(lower, J[by_gamma])] == upper[:, None]
    first = generates.argmax(axis=1)
    missing = np.flatnonzero(~generates[np.arange(len(first)), first])
    if missing.size:
        raise InvariantViolation(
            f"no join irreducible generates the cover {L.covers[missing[0]]}"
        )
    return dict(zip(L.covers, gam[by_gamma][first].tolist()))


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


def _intervals_by_size(L):
    "(a, b) pairs with a < b as Python ints, in (|[a, b]|, a, b) order."
    leq = L.leq.astype(np.int32)
    sizes = leq @ leq  # sizes[a, b] = |[a, b]|
    a, b = np.nonzero(L.leq & ~np.eye(L.n, dtype=bool))
    order = np.lexsort((b, a, sizes[a, b]))
    return list(zip(a[order].tolist(), b[order].tolist()))


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


def _increasing_chain_counts(L, labeling):
    """counts[b, a]: strictly increasing maximal chains of [a, b], capped at 2.

    One forward sweep over the covers in topological order, for all
    sources a at once: the row of cover (v, w) counts the increasing chains
    from each a that end in it.  They are the cover itself when a is v,
    and the chains ending in a cover into v with a smaller label.
    """
    n = L.n
    counts = np.zeros((n, n), dtype=np.int8)
    ending = np.zeros((len(L.covers), n), dtype=np.int8)
    into = [[] for _ in range(n)]  # (label, row of ending) per cover into v
    e = 0
    for v in L.poset.topological_order:
        for w in L.upper_covers[v]:
            label = labeling[(v, w)]
            row = ending[e]
            row[v] = 1
            for m, f in into[v]:
                if m < label:
                    row += ending[f]
                    np.minimum(row, 2, out=row)
            into[w].append((label, e))
            counts[w] += row
            np.minimum(counts[w], 2, out=counts[w])
            e += 1
    return counts


def _failing_intervals(L, labeling):
    """Every (a, b), a < b, whose interval breaks the EL condition.

    Per target b, a backward sweep takes the lexicographically first label
    vector from each x below b, best[x] = min over covers x < w <= b of
    (label(x, w),) + best[w], with a flag that says whether it increases.
    [a, b] passes exactly when it has one increasing chain and its first
    vector increases: a chain tying that vector has the same labels, so it
    would be a second increasing chain.
    """
    single = (_increasing_chain_counts(L, labeling) == 1).tolist()
    order = L.poset.topological_order
    downs = [
        [(x, labeling[(x, w)]) for x in L.lower_covers[w]] for w in range(L.n)
    ]
    failing = []
    for stop, b in enumerate(order):
        best = {b: ()}
        rising = {b: True}
        pending = {}  # x -> (label, w) of the best cover x < w seen so far
        for w in order[stop::-1]:
            if w != b:
                step = pending.pop(w, None)
                if step is None:
                    continue
                label, u = step
                tail = best[u]
                best[w] = (label,) + tail
                rising[w] = rising[u] and (not tail or label < tail[0])
                if not (rising[w] and single[b][w]):
                    failing.append((w, b))
            vector = best[w]
            for x, label in downs[w]:
                seen = pending.get(x)
                if (
                    seen is None
                    or label < seen[0]
                    or (label == seen[0] and vector < best[seen[1]])
                ):
                    pending[x] = (label, w)
    return failing


def is_el_labeling(L, labeling):
    """Verify the EL condition on every interval in polynomial time.

    A chain whose label vector ties the increasing chain's is increasing
    too, so a tie fails as "multiple_increasing_chains".

    Two dynamic programs over the cover graph decide every interval (see
    _increasing_chain_counts and _failing_intervals) in O(n * m * (d + k))
    steps for n elements, m covers, maximum degree d and length k.  On
    failure the verdict names the smallest failing interval in (size, a, b)
    order, with the reason and chains that is_el_labeling_naive reports,
    found by listing the chains of that interval alone.
    """
    _check_complete(L, labeling)
    failing = set(_failing_intervals(L, labeling))
    if not failing:
        return ELVerdict("is_el")
    a, b = next(ab for ab in _intervals_by_size(L) if ab in failing)
    verdict = _interval_failure(L, labeling, a, b)
    if verdict is None:
        raise InvariantViolation(
            f"interval {(a, b)} failed the chain count but not its chain list"
        )
    return verdict


@dataclass(frozen=True)
class ELSearchResult:
    status: str  # "shellable" | "not_shellable" | "unknown"
    labeling: dict | None
    nodes: int
    budget: int

    def __bool__(self):
        return self.status == "shellable"


def _search_plans(L):
    """Two edge orders, each with the interval checks hooked onto its edges.

    The "down" plan labels covers from the top of the lattice downward,
    the "up" plan from the bottom upward; neither dominates, so the search
    runs both.  The intervals and their chains are listed once for both.
    hooks[t] holds (complete, chain_ix) for every interval with edge t:
    each is checked whenever edge t receives a label, which catches
    interval failures that are already unavoidable, and complete is true
    when t is the interval's last edge, so the check is exact.
    """
    interval_edges = []
    for a, b in _intervals_by_size(L):
        chains = list(_cover_paths(L, a, b))
        if len(chains) == 1 and len(chains[0]) == 2:
            continue  # single cover: nothing to constrain
        interval_edges.append(chains)
    levels = L.levels
    plans = []
    for sign in (-1, 1):  # down, then up
        edge_order = sorted(
            L.covers, key=lambda e: (sign * levels[e[1]], sign * levels[e[0]], e)
        )
        index = {e: i for i, e in enumerate(edge_order)}
        hooks = [[] for _ in edge_order]
        for chains in interval_edges:
            chain_ix = [
                tuple(index[(u, v)] for u, v in zip(ch, ch[1:])) for ch in chains
            ]
            members = sorted({e for ch in chain_ix for e in ch})
            for e in members[:-1]:
                hooks[e].append((False, chain_ix))
            hooks[members[-1]].append((True, chain_ix))
        plans.append((edge_order, hooks))
    return plans


def _interval_ok(values, chain_ix, complete):
    """Can this interval still get one increasing, lexicographically least chain?

    A chain is dead once two adjacent labeled edges do not ascend: later
    assignments never reorder existing labels.  All chains dead, or two
    fully labeled chains alive, doom every completion.  Once the interval
    is complete (every edge labeled), a live chain is an increasing chain,
    so the one live chain must also be lexicographically least.
    """
    live = None
    seen_full = False
    for ch in chain_ix:
        prev = 0
        full = True
        for e in ch:
            x = values[e]
            if not x:
                full = False
            elif prev >= x:
                break
            prev = x
        else:
            if full:
                if seen_full:
                    return False
                seen_full = True
            live = ch
    if live is None:
        return False
    if not complete:
        return True
    first = [values[e] for e in live]
    return all([values[e] for e in ch] >= first for ch in chain_ix)


def _run_plan(plan, budget):
    """One complete backtracking pass; returns (status, nodes_used, labeling).

    frames[t] is (choice, classes, bumped) for edge t: the choice last
    tried there, the number of label classes before it, and the edges it
    moved up by one.  Choice 2g opens a new class in gap g, choice 2k - 1
    joins class k.  The node that exceeds the budget is counted.
    """
    edges, hooks = plan
    m = len(edges)
    values = [0] * m
    nodes = 0
    frames = [(-1, 0, ())]
    while frames:
        t = len(frames) - 1
        choice, classes, bumped = frames[t]
        for i in bumped:
            values[i] -= 1
        values[t] = 0
        choice += 1
        if choice > 2 * classes:
            frames.pop()
            continue
        nodes += 1
        if nodes > budget:
            return "unknown", nodes, None
        if choice % 2 == 0:
            gap = choice // 2
            bumped = [i for i in range(t) if values[i] > gap]
            for i in bumped:
                values[i] += 1
            values[t] = gap + 1
        else:
            bumped = ()
            values[t] = (choice + 1) // 2
        frames[t] = (choice, classes, bumped)
        if all(_interval_ok(values, ix, complete) for complete, ix in hooks[t]):
            if t + 1 == m:
                return "shellable", nodes, dict(zip(edges, values))
            frames.append((-1, classes + 1 - choice % 2, ()))
    return "not_shellable", nodes, None


_INITIAL_SLICE = 4096
_SLICE_GROWTH = 16


def el_search(L, budget=DEFAULT_EL_BUDGET):
    """Exact EL-shellability decision with a node budget.

    Backtracks over the weak orders on the cover set: each new edge either
    joins an existing label class or starts a new class in any gap, which
    realizes every weak order exactly once.  Intervals are re-verified the
    moment they are fully labeled; relative order of already-labeled edges
    never changes afterwards, so those verdicts are stable.

    The lattice is canonicalized first, so the outcome depends only on its
    isomorphism class, and two edge orders (bottom-up and top-down) run
    under iteratively deepened node slices, since either can be far faster
    on a given instance.  Nodes are counted across all passes; exceeding
    the budget returns status "unknown".
    """
    from .poset import canonical_relabeling

    perm = canonical_relabeling(L.poset)
    if any(perm[i] != i for i in range(L.n)):
        result = el_search(L.canonicalize(), budget)
        if result.labeling is None:
            return result
        labeling = {
            (a, b): result.labeling[(perm[a], perm[b])] for a, b in L.covers
        }
        return ELSearchResult(result.status, labeling, result.nodes, budget)

    if not L.covers:
        return ELSearchResult("shellable", {}, 0, budget)
    plans = _search_plans(L)
    spent = 0
    slice_budget = _INITIAL_SLICE
    while spent < budget:
        for plan in plans:
            if spent >= budget:
                break
            status, used, labeling = _run_plan(
                plan, min(slice_budget, budget - spent)
            )
            spent += used
            if status == "unknown":
                continue
            if status == "shellable":
                verdict = is_el_labeling(L, labeling)
                if not verdict:
                    raise InvariantViolation(
                        "search produced a labeling rejected by the "
                        f"verifier: {verdict}"
                    )
            return ELSearchResult(status, labeling, spent, budget)
        slice_budget *= _SLICE_GROWTH
    return ELSearchResult("unknown", None, spent, budget)
