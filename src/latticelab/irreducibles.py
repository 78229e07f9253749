"""Irreducible elements, chains, perspectivity and canonical join data.

Conventions: a join irreducible j is any non-bottom element with a single
lower cover, written j_star here.  Maximal chains are tuples running from
bottom to top along covers.  All functions are pure.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    InvariantViolation,
    NotACoverError,
    NotAMaximalChainError,
    NotJoinIrreducibleError,
)
from .poset import _check_element, _minimal_of


@dataclass(frozen=True)
class JoinIrreducible:
    j: int
    j_star: int  # the unique lower cover


def join_irreducible_ids(L):
    "Ids of elements covering exactly one thing."
    return [x for x in range(L.n) if len(L.lower_covers[x]) == 1]


def join_irreducibles(L):
    "The join irreducibles, each paired with its one lower cover."
    return [JoinIrreducible(j, L.lower_covers[j][0]) for j in join_irreducible_ids(L)]


def meet_irreducibles(L):
    "Ids of elements covered by exactly one thing (irreducibles of the dual)."
    return [x for x in range(L.n) if len(L.upper_covers[x]) == 1]


def length(L):
    "Maximum length of a maximal chain (cover steps from bottom to top)."
    return L.levels[L.top]


def _cover_paths(L, a, b):
    """Cover paths from a up to b as tuples, in lexicographic order.

    Walks on an explicit stack of upper-cover iterators, so the length of
    a path is not bounded by the recursion limit.
    """
    if a == b:
        yield (a,)
        return
    below = L.down_sets[b]
    path = [a]
    stack = [iter(L.upper_covers[a])]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            path.pop()
        elif w == b:
            yield (*path, b)
        elif below >> w & 1:
            path.append(w)
            stack.append(iter(L.upper_covers[w]))


def maximal_chains(L):
    "All maximal chains, in lexicographic order of their element sequences."
    return _cover_paths(L, L.bot, L.top)


def check_maximal_chain(L, chain):
    chain = tuple(chain)
    if not chain or chain[0] != L.bot or chain[-1] != L.top:
        raise NotAMaximalChainError(f"chain {chain} does not run bottom to top")
    cover_set = set(L.covers)
    for a, b in zip(chain, chain[1:]):
        if (a, b) not in cover_set:
            raise NotAMaximalChainError(f"{(a, b)} in {chain} is not a cover")
    return chain


def gamma(L, chain, j):
    """Index of the first chain element weakly above join irreducible j.

    For a maximal chain c_0 < ... < c_k this is min{s : j <= c_s}; it is
    never 0 because j is not the bottom.
    """
    chain = check_maximal_chain(L, chain)
    _check_element(L, j)
    if len(L.lower_covers[j]) != 1:
        raise NotJoinIrreducibleError(j)
    for s, c in enumerate(chain):
        if L.leq[j, c]:
            return s
    raise InvariantViolation(f"{j} not below the top of {chain}")


def _require_cover(L, pair):
    if tuple(pair) not in set(L.covers):
        raise NotACoverError(tuple(pair))
    return tuple(pair)


def is_perspective(L, pair1, pair2):
    """Whether two covering pairs are perspective.

    (a1,b1) and (a2,b2) are perspective when b1 v a2 = b2 and b1 ^ a2 = a1,
    or the mirror image with the roles of the pairs swapped.
    """
    a1, b1 = _require_cover(L, pair1)
    a2, b2 = _require_cover(L, pair2)
    if L.join[b1, a2] == b2 and L.meet[b1, a2] == a1:
        return True
    return bool(L.join[a1, b2] == b1 and L.meet[a1, b2] == a2)


def perspectivity_witness_scan(L, pair):
    "First join irreducible j (by id) with (a,b) perspective to (j_star, j)."
    a, b = _require_cover(L, pair)
    for ji in join_irreducibles(L):
        if is_perspective(L, (a, b), (ji.j_star, ji.j)):
            return ji
    raise InvariantViolation(
        f"cover {(a, b)} of {L!r} has no perspectivity witness"
    )


def perspectivity_witness_recursive(L, pair):
    """Witness via structural descent instead of scanning.

    Walks down from the cover (a, b) in a loop, in the ids of L: while b
    has another lower cover, take the smallest one c != a, let z = a ^ c,
    and continue from the cover (z, d) for the smallest upper cover d of
    z with d <= c and d not below a.  The b where this stops has a as its
    only lower cover and is the witness.  This is the descent into the
    interval [bot, b] at every step, without building the interval.
    """
    cover = _require_cover(L, pair)
    a, b = cover
    while len(L.lower_covers[b]) > 1:
        c = next(x for x in L.lower_covers[b] if x != a)
        z = int(L.meet[a, c])
        b = next(
            x
            for x in L.upper_covers[z]
            if L.leq[x, c] and not L.leq[x, a]
        )
        a = z
    ji = JoinIrreducible(int(b), int(a))
    if not is_perspective(L, cover, (ji.j_star, ji.j)):
        raise InvariantViolation(
            f"descent produced {ji} which is not perspective to {cover}"
        )
    return ji


@dataclass(frozen=True)
class KappaData:
    """The blocking set of a join irreducible j.

    members: all elements above j_star but not above j (never empty, since
    j_star itself qualifies).  maximals: its maximal elements, a nonempty
    antichain.  kappa: the unique maximal element when there is one.
    """

    j: JoinIrreducible
    members: frozenset
    maximals: frozenset
    kappa: int | None


def kappa_data(L, j):
    _check_element(L, j)
    if len(L.lower_covers[j]) != 1:
        raise NotJoinIrreducibleError(j)
    j_star = L.lower_covers[j][0]
    members = [a for a in range(L.n) if L.leq[j_star, a] and not L.leq[j, a]]
    maximals = _minimal_of(L.leq.T, members)
    kappa = maximals[0] if len(maximals) == 1 else None
    return KappaData(
        JoinIrreducible(j, j_star),
        frozenset(members),
        frozenset(maximals),
        kappa,
    )


def canonical_join_rep(L, x):
    """The canonical join representation of x, or None if it has none.

    Searches all irredundant sets of join irreducibles joining to x for
    one that join-refines every other such set (each of its members lies
    below some member of the other set).  Brute force by design: this is
    the trusted oracle, and the irreducible count stays small at desk
    scale.  bot gets the empty representation.
    """
    _check_element(L, x)
    below = [j for j in join_irreducible_ids(L) if L.leq[j, x]]
    reps = []
    for size in range(len(below) + 1):
        for subset in combinations(below, size):
            if L.join_all(subset) != x:
                continue
            if any(
                L.join_all(subset[:i] + subset[i + 1:]) == x
                for i in range(len(subset))
            ):
                continue
            reps.append(subset)
    for candidate in reps:
        if all(
            all(any(L.leq[u, v] for v in other) for u in candidate)
            for other in reps
        ):
            return tuple(sorted(candidate))
    return None
