import hashlib
import inspect
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_ideal_posets, weak_order
from latticelab import zoo
from latticelab.atlas import enumerate_lattices
from latticelab.classify import classify
from latticelab.errors import (
    ChainNotLeftModular,
    InvariantViolation,
    PartialLabelingError,
)
from latticelab.irreducibles import _cover_paths, gamma, join_irreducibles, length
from latticelab.lattice import Lattice, dual, ideal_lattice, try_lattice
from latticelab.poset import FinitePoset, canonical_relabeling, poset_from_covers
from latticelab.properties import left_modular_chain
from latticelab.shellability import (
    DEFAULT_EL_BUDGET,
    PRUNE_RULES,
    _compile_plan,
    _failing_intervals,
    _interval_failure,
    _intervals_by_size,
    _run_plan,
    _search,
    _search_plans,
    disconnected_skeleton,
    el_search,
    format_labeling,
    is_el_labeling,
    is_el_labeling_naive,
    is_increasing,
    label_vector,
    lm_labeling,
)


def test_m3_labeling_table():
    L = zoo.m3()
    labels = lm_labeling(L, (0, 1, 4))
    assert labels == {
        (0, 1): 1, (0, 2): 2, (0, 3): 2,
        (1, 4): 2, (2, 4): 1, (3, 4): 1,
    }


def test_ideal_lattice_orange_chain_labels_itself_increasingly():
    L, ideals = ideal_lattice(zoo.vee_plus_isolated())
    index = {s: i for i, s in enumerate(ideals)}
    chain = tuple(
        index[frozenset(s)]
        for s in (set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3})
    )
    labels = lm_labeling(L, chain)
    assert label_vector(labels, chain) == (1, 2, 3, 4)


def test_chain_lattice_labels_run_up():
    L = zoo.chain(4)
    chain = tuple(range(5))
    labels = lm_labeling(L, chain)
    assert label_vector(labels, chain) == (1, 2, 3, 4)


def reference_lm_labeling(L, chain):
    """lm_labeling as the library computed it before: gamma(j) one join
    irreducible at a time, then for each cover the least gamma(j) over
    the j with a v j = b."""
    gam = {ji.j: gamma(L, chain, ji.j) for ji in join_irreducibles(L)}
    return {
        (a, b): min(s for j, s in gam.items() if L.join[a, j] == b)
        for a, b in L.covers
    }


def test_lm_labeling_matches_reference_up_to_8_and_on_large_families(
    large_lattices,
):
    small = [
        M for n in range(1, 9) for L in enumerate_lattices(n) for M in (L, dual(L))
    ]
    labeled = 0
    for L in small + list(large_lattices.values()):
        chain = left_modular_chain(L)
        if chain is not None:
            assert lm_labeling(L, chain) == reference_lm_labeling(L, chain), L
            labeled += 1
    assert labeled == 542


def test_lm_labeling_commutes_with_relabeling_up_to_7():
    rng = random.Random(31)
    labeled = 0
    for n in range(1, 8):
        for L in enumerate_lattices(n):
            chain = left_modular_chain(L)
            if chain is None:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            want = {
                (perm[a], perm[b]): v
                for (a, b), v in reference_lm_labeling(L, chain).items()
            }
            image = tuple(perm[c] for c in chain)
            assert lm_labeling(L.relabel(perm), image) == want, (L, perm)
            labeled += 1
    assert labeled == 71


def test_lm_labeling_rejects_bad_chains():
    with pytest.raises(ChainNotLeftModular):
        lm_labeling(zoo.hexagon(), (0, 1, 3, 5))
    # a maximal chain shorter than the lattice holds a non-left-modular element
    with pytest.raises(ChainNotLeftModular) as caught:
        lm_labeling(zoo.pentagon(), (0, 1, 4))
    assert caught.value.element == 1


def test_lm_labeling_accepts_exactly_the_left_modular_maximal_chains_up_to_8():
    """Every maximal chain of every lattice with n <= 8 and of its dual.  A
    chain of left-modular elements is a longest one and gets the gamma-form
    labeling; any other chain, each shorter one among them, raises
    ChainNotLeftModular at its first element that is not left modular.
    Left modularity is read from its definition over every pair b <= c."""
    small = [
        M for n in range(1, 9) for L in enumerate_lattices(n) for M in (L, dual(L))
    ]
    accepted = rejected = short = 0
    for L in small:
        b, c = np.nonzero(L.leq)
        lm = [
            bool((L.meet[L.join[b, a], c] == L.join[b, L.meet[a, c]]).all())
            for a in range(L.n)
        ]
        for chain in _cover_paths(L, L.bot, L.top):
            bad = [x for x in chain if not lm[x]]
            if bad:
                with pytest.raises(ChainNotLeftModular) as caught:
                    lm_labeling(L, chain)
                assert caught.value.element == bad[0], (L, chain)
                rejected += 1
                short += len(chain) - 1 < length(L)
            else:
                assert len(chain) - 1 == length(L), (L, chain)
                assert lm_labeling(L, chain) == reference_lm_labeling(L, chain)
                accepted += 1
    assert (accepted, rejected, short) == (1086, 928, 652)


def test_label_vector_and_is_increasing():
    assert is_increasing((1, 2, 3))
    assert not is_increasing((1, 1))
    assert is_increasing(())
    L = zoo.m3()
    labels = lm_labeling(L, (0, 1, 4))
    assert label_vector(labels, (0, 2, 4)) == (2, 1)
    assert not is_increasing(label_vector(labels, (0, 2, 4)))


def test_m3_left_modular_labeling_is_el():
    L = zoo.m3()
    assert is_el_labeling(L, lm_labeling(L, (0, 1, 4)))


def test_constant_labeling_has_no_increasing_chain():
    L = zoo.m3()
    verdict = is_el_labeling(L, {c: 1 for c in L.covers})
    assert not verdict
    assert verdict.reason == "no_increasing_chain"
    assert verdict.interval == (0, 4)


def test_hexagon_symmetric_labeling_has_two_increasing_chains():
    L = zoo.hexagon()
    labels = {(0, 1): 1, (0, 2): 1, (1, 3): 2, (2, 4): 2, (3, 5): 3, (4, 5): 3}
    verdict = is_el_labeling(L, labels)
    assert not verdict
    assert verdict.reason == "multiple_increasing_chains"
    assert verdict.interval == (0, 5)
    assert set(verdict.chains) == {(0, 1, 3, 5), (0, 2, 4, 5)}


def test_lex_minimality_is_enforced():
    # single interval, increasing chain exists but ties/loses lexicographically
    L = zoo.m3()
    labels = {(0, 1): 2, (1, 4): 3, (0, 2): 1, (2, 4): 1, (0, 3): 3, (3, 4): 1}
    verdict = is_el_labeling(L, labels)
    assert not verdict
    assert verdict.reason == "increasing_not_lex_min"


def test_partial_labeling_is_rejected():
    L = zoo.m3()
    with pytest.raises(PartialLabelingError):
        is_el_labeling(L, {(0, 1): 1})


def test_strict_mode_accepts_when_no_ties():
    L = zoo.m3()
    labels = lm_labeling(L, (0, 1, 4))
    assert is_el_labeling(L, labels)


def test_tie_with_the_increasing_chain_is_a_multiplicity_failure():
    # A chain tying the increasing chain's vector is itself increasing, so
    # the tie shows up as a multiplicity failure.
    L = zoo.m3()
    labels = {(0, 1): 1, (1, 4): 2, (0, 2): 1, (2, 4): 2, (0, 3): 3, (3, 4): 1}
    verdict = is_el_labeling(L, labels)
    assert verdict.reason == "multiple_increasing_chains"


def test_el_search_finds_certificates_for_figure_lattices():
    for L in (zoo.extremal_not_left_modular(), zoo.jsd_not_left_modular()):
        result = el_search(L)
        assert result.status == "shellable"
        assert is_el_labeling(L, result.labeling)


def test_el_search_refutes_hexagon():
    result = el_search(zoo.hexagon())
    assert result.status == "not_shellable"
    assert result.labeling is None
    assert (result.nodes, result.refuted_by) == (0, (0, 5, 1))
    assert result.stats == {"stage": "skeleton", "refuted_by": [0, 5, 1]}
    # No budget is spent on a refutation, and none is needed.
    cut = el_search(zoo.hexagon(), budget=0)
    assert (cut.status, cut.nodes, cut.refuted_by) == ("not_shellable", 0, (0, 5, 1))
    searched = _search(zoo.hexagon(), DEFAULT_EL_BUDGET)
    assert (searched.status, searched.nodes, searched.refuted_by) == (
        "not_shellable", 388, None
    )


def test_el_search_certifies_a_left_modular_lattice_by_its_chain():
    L = zoo.boolean(2)
    result = el_search(L, budget=0)
    assert (result.status, result.nodes, result.chain) == ("shellable", 0, (0, 1, 3))
    assert result.labeling == lm_labeling(L, (0, 1, 3))
    assert result.stats == {"stage": "left_modular", "chain": [0, 1, 3]}
    # A relabeled copy gets its own least chain, in its own ids.
    M = zoo.m3().relabel([4, 2, 0, 3, 1])
    result = el_search(M)
    assert result.stats == {"stage": "left_modular", "chain": [4, 0, 1]}
    assert result.chain == left_modular_chain(M)
    assert result.labeling == lm_labeling(M, (4, 0, 1))
    assert is_el_labeling(M, result.labeling)


def test_el_search_checks_the_left_modular_labeling(monkeypatch):
    "A labeling the verifier rejects is a bug, not a verdict."
    monkeypatch.setattr(
        "latticelab.shellability.lm_labeling",
        lambda L, chain: dict.fromkeys(L.covers, 1),
    )
    with pytest.raises(InvariantViolation, match="left-modular labeling"):
        el_search(zoo.boolean(2))


def test_el_search_budget_exhaustion():
    # The skeleton test passes this lattice, so the search spends the budget.
    L = zoo.jsd_not_left_modular()
    assert disconnected_skeleton(L) is None
    result = el_search(L, budget=5)
    assert result.status == "unknown"
    assert result.nodes == 6
    assert result.refuted_by is None


def test_el_search_result_is_true_exactly_when_shellable():
    assert el_search(zoo.boolean(2))
    assert not el_search(zoo.hexagon())
    assert not el_search(zoo.jsd_not_left_modular(), budget=5)  # unknown


def test_el_search_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="nonnegative"):
        el_search(zoo.hexagon(), budget=-3)
    with pytest.raises(ValueError, match="nonnegative"):
        el_search(zoo.chain(0), budget=-1)


def test_el_search_stats_count_nodes_and_prunes_per_pass():
    result = _search(zoo.hexagon(), DEFAULT_EL_BUDGET)
    assert result.stats == {
        "stage": "search",
        "plan": {"edges": 6, "intervals": 5, "chains": 6},
        "passes": [
            {
                "plan": "down",
                "slice": 4096,
                "nodes": 388,
                "status": "not_shellable",
                "prunes": result.stats["prunes"],
            }
        ],
        "prunes": result.stats["prunes"],
    }
    assert result.stats["prunes"] == {
        "no_live_chain": 278,
        "two_increasing_chains": 63,
        "not_lex_least": 0,
    }
    # The first slice ran out, so the up plan was never built or run.
    cut = _search(zoo.hexagon(), 5)
    assert [(p["plan"], p["slice"], p["nodes"]) for p in cut.stats["passes"]] == [
        ("down", 5, 6)
    ]
    # Relabeled input reports the canonical search's stats.
    L = zoo.extremal_not_left_modular()
    result = el_search(L)
    assert sum(p["nodes"] for p in result.stats["passes"]) == result.nodes
    for p in result.stats["passes"]:
        assert sum(p["prunes"].values()) < p["nodes"]


def test_el_search_refutation_is_stable_under_bigger_budget():
    first = el_search(zoo.hexagon())
    again = el_search(zoo.hexagon(), budget=2 * first.budget)
    assert first.status == again.status == "not_shellable"


def test_left_modular_lattices_are_shellable():
    from latticelab.atlas import enumerate_lattices

    for n in range(1, 7):
        for L in enumerate_lattices(n):
            chain = left_modular_chain(L)
            if chain is None:
                continue
            assert is_el_labeling(L, lm_labeling(L, chain))
            assert el_search(L).status == "shellable"


def test_order_preserving_relabelings_stay_el():
    rng = random.Random(7)
    L = zoo.m3()
    labels = lm_labeling(L, (0, 1, 4))
    for _ in range(25):
        shift = rng.randrange(1, 50)
        scale = rng.randrange(1, 9)
        squashed = {e: scale * v + shift for e, v in labels.items()}
        assert is_el_labeling(L, squashed)
    # an arbitrary strictly monotone map over the used values
    used = sorted(set(labels.values()))
    jitter = {v: 10 * i + rng.randrange(1, 10) for i, v in enumerate(used)}
    assert is_el_labeling(L, {e: jitter[v] for e, v in labels.items()})


def test_format_labeling_lines():
    L = zoo.chain(2)
    labels = lm_labeling(L, (0, 1, 2))
    assert format_labeling(labels) == "0 1 1\n1 2 2"


def test_one_point_lattice_is_trivially_shellable():
    result = el_search(zoo.chain(0))
    assert result.status == "shellable"
    assert result.labeling == {}
    assert is_el_labeling(zoo.chain(0), {})


# ---------------------------------------------------------------------------
# The polynomial verifier against the brute-force oracle
# ---------------------------------------------------------------------------

REASONS = {
    "no_increasing_chain",
    "multiple_increasing_chains",
    "increasing_not_lex_min",
}


def reference_intervals_by_size(L, slot=None):
    """_intervals_by_size as the library computed it before: the sizes
    from the int32 product leq @ leq, the order from one lexsort."""
    slot = np.arange(L.n) if slot is None else np.asarray(slot)
    leq = L.leq.astype(np.int32)
    sizes = leq @ leq  # sizes[a, b] = |[a, b]|
    a, b = np.nonzero(L.leq & ~np.eye(L.n, dtype=bool))
    order = np.lexsort((slot[b], slot[a], sizes[a, b]))
    return list(zip(a[order].tolist(), b[order].tolist()))


def test_intervals_by_size_matches_reference(large_lattices):
    "With ids and with a seeded slot key, up to 8, the duals and large families."
    rng = random.Random(23)
    small = [
        K for n in range(1, 9) for L in enumerate_lattices(n) for K in (L, dual(L))
    ]
    for L in [*small, *large_lattices.values()]:
        slot = rng.sample(range(L.n), L.n)
        assert _intervals_by_size(L) == reference_intervals_by_size(L), L
        assert _intervals_by_size(L, slot) == reference_intervals_by_size(
            L, slot
        ), L


def test_a_failing_labeling_of_b10_is_refuted_quickly():
    L = zoo.boolean(10)
    start = time.perf_counter()
    verdict = is_el_labeling(L, dict.fromkeys(L.covers, 1))
    assert time.perf_counter() - start < 2.0
    assert (verdict.status, verdict.interval, verdict.reason) == (
        "not_el", (0, 11), "no_increasing_chain"
    )


def reference_failing_intervals(L, labeling):
    "(a, b) with [w, b] failing by its chain list for some w in [a, b)."
    intervals = _intervals_by_size(L)
    fails = {
        (w, b)
        for w, b in intervals
        if _interval_failure(L, labeling, w, b) is not None
    }
    return {
        (a, b)
        for a, b in intervals
        if any((w, b) in fails for w in range(L.n) if L.leq[a, w])
    }


def assert_matches_oracle(L, labeling):
    """The verifier gives the oracle's verdict, diagnostics included, and
    for n <= 7 _failing_intervals returns the set its contract names."""
    verdict = is_el_labeling(L, labeling)
    assert verdict == is_el_labeling_naive(L, labeling), (L, labeling)
    if L.n <= 7:
        failing = _failing_intervals(L, labeling)
        assert len(failing) == len(set(failing))
        assert set(failing) == reference_failing_intervals(L, labeling), (
            L, labeling,
        )
    return verdict


@pytest.fixture(scope="module")
def small_lattices():
    return [L for n in range(1, 8) for L in enumerate_lattices(n)]


def test_verifier_matches_oracle_on_certificates(small_lattices):
    certified = 0
    for L in small_lattices:
        chain = left_modular_chain(L)
        if chain is not None:
            assert assert_matches_oracle(L, lm_labeling(L, chain))
        result = _search(L, DEFAULT_EL_BUDGET)
        if result.labeling is not None:
            assert assert_matches_oracle(L, result.labeling)
            certified += 1
    assert certified == 71


def test_verifier_matches_oracle_on_drawn_labelings(small_lattices):
    reasons = set()

    @settings(max_examples=400)
    @given(st.data())
    def check(data):
        L = data.draw(st.sampled_from(small_lattices))
        top = data.draw(st.integers(1, 4))
        values = data.draw(
            st.lists(
                st.integers(1, top),
                min_size=len(L.covers),
                max_size=len(L.covers),
            )
        )
        reasons.add(assert_matches_oracle(L, dict(zip(L.covers, values))).reason)

    check()
    assert reasons >= REASONS


def perturbed(labeling, rng):
    "The labeling with one cover relabeled, or two covers' labels swapped."
    out = dict(labeling)
    covers = sorted(out)
    e, f = rng.sample(covers, 2)
    if rng.random() < 0.5:
        out[e], out[f] = out[f], out[e]
    else:
        out[e] = rng.randint(0, max(out.values()) + 1)
    return out


def test_verifier_matches_oracle_on_larger_lattices(large_lattices):
    rng = random.Random(11)
    poset = poset_from_covers(7, [(0, 3), (1, 3), (1, 4), (2, 5), (4, 6)])
    lattices = [
        zoo.boolean(5),
        large_lattices["partitions4"],
        zoo.chain(39),
        ideal_lattice(poset)[0],
        ideal_lattice(zoo.vee_plus_isolated())[0],
    ]
    assert [L.n for L in lattices[:3]] == [32, 15, 40]
    reasons = set()
    for L in lattices:
        labels = lm_labeling(L, left_modular_chain(L))
        assert assert_matches_oracle(L, labels)
        for _ in range(12):
            reasons.add(assert_matches_oracle(L, perturbed(labels, rng)).reason)
    assert reasons >= REASONS


def test_verifier_is_polynomial_on_a_long_chain():
    L = zoo.chain(299)
    labels = lm_labeling(L, tuple(range(300)))
    start = time.perf_counter()
    assert is_el_labeling(L, labels)
    assert time.perf_counter() - start < 0.5
    labels[(150, 151)] = 0
    verdict = is_el_labeling(L, labels)
    assert verdict.interval == (149, 151)
    assert verdict.reason == "no_increasing_chain"
    L = zoo.chain(2000)
    labels = lm_labeling(L, left_modular_chain(L))
    start = time.perf_counter()
    verdict = is_el_labeling(L, labels)
    assert time.perf_counter() - start < 0.15
    assert verdict.status == "is_el"


def test_verifier_matches_oracle_at_eight_elements():
    "All 222 lattices with 8 elements, without el_search on the slow ones."
    rng = random.Random(8)
    lattices = enumerate_lattices(8)
    assert len(lattices) == 222
    certified = 0
    reasons = set()
    for L in lattices:
        chain = left_modular_chain(L)
        if chain is not None:
            assert assert_matches_oracle(L, lm_labeling(L, chain))
            certified += 1
        for top in (1, 2, 3, 4):
            labels = {e: rng.randint(1, top) for e in L.covers}
            reasons.add(assert_matches_oracle(L, labels).reason)
    assert certified == 182
    assert reasons >= REASONS


def reference_target_sweep(L, labeling):
    """_failing_intervals as the library computed it before: one backward
    sweep per target b, with five scalars per element below b."""
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


def one_label_changed(labeling, rng):
    "The labeling with one cover's label replaced."
    out = dict(labeling)
    out[rng.choice(sorted(out))] = rng.randint(0, max(out.values()) + 1)
    return out


def test_failing_intervals_match_the_target_sweep(large_lattices):
    """Where listing chains is too slow: every left-modular labeling with
    n <= 9, B6, the partition lattice of 5 points and its dual, the chain
    of 61 elements and ideal lattices of random 8-element posets, each as
    labeled and with one label changed."""
    rng = random.Random(35)
    lattices = [L for n in range(1, 10) for L in enumerate_lattices(n)]
    lattices += [
        large_lattices["boolean6"],
        large_lattices["partitions5"],
        large_lattices["dual_partitions5"],
        zoo.chain(60),
        *(ideal_lattice(p)[0] for p in random_ideal_posets(35, 6, k=8)),
    ]
    checked = 0
    for L in lattices:
        chain = left_modular_chain(L)
        if chain is None or not L.covers:
            continue
        labels = lm_labeling(L, chain)
        for labeling in (labels, one_label_changed(labels, rng)):
            failing = _failing_intervals(L, labeling)
            assert len(failing) == len(set(failing))
            assert set(failing) == set(reference_target_sweep(L, labeling)), L
            checked += 1
    assert checked == 2130


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------


def pinned_rows(lattices, budget=DEFAULT_EL_BUDGET, search=_search):
    "(n, status, nodes) of the search per lattice, with its digest."
    rows = []
    for L in lattices:
        result = search(L, budget)
        rows.append((L.n, result.status, result.nodes))
    return rows, hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def status_counts(rows):
    statuses = [status for _, status, _ in rows]
    return [statuses.count(s) for s in ("shellable", "not_shellable", "unknown")]


def test_el_search_node_counts_are_pinned_up_to_seven(small_lattices):
    "Same verdicts and search trees as the recursive search, n <= 7."
    rows, digest = pinned_rows(small_lattices)
    assert len(rows) == 78
    assert sum(nodes for _, _, nodes in rows) == 87_638
    assert digest == "c05e48e8867ff63a"


def test_el_search_node_counts_are_pinned_at_eight():
    "Same verdicts and search trees as the rescanning search, n = 8."
    rows, digest = pinned_rows(enumerate_lattices(8), budget=5000)
    assert len(rows) == 222
    assert sum(nodes for _, _, nodes in rows) == 248_498
    assert status_counts(rows) == [184, 11, 27]
    assert digest == "733eacf28ff0b837"


def test_el_search_with_the_skeleton_test_is_pinned_at_eight(monkeypatch):
    """The public el_search at n = 8, stage by stage: the left-modular
    certificate decides 182 classes and the skeleton test 38, both with
    no node, and the search certifies the other 2.  Without the first
    stage, the skeleton test and then the search decide the same 222
    classes in 94,833 nodes, the figure before the left-modular stage."""
    lattices = enumerate_lattices(8)
    stages = {}
    for L in lattices:
        result = el_search(L, 5000)
        count, nodes = stages.get(result.stats["stage"], (0, 0))
        stages[result.stats["stage"]] = (count + 1, nodes + result.nodes)
    assert stages == {
        "left_modular": (182, 0),
        "skeleton": (38, 0),
        "search": (2, 1_539),
    }
    rows, digest = pinned_rows(lattices, budget=5000, search=el_search)
    assert status_counts(rows) == [184, 38, 0]
    assert sum(nodes for _, _, nodes in rows) == 1_539
    assert digest == "19ea913e34a29eab"
    monkeypatch.setattr("latticelab.shellability.left_modular_chain", lambda L: None)
    rows, digest = pinned_rows(lattices, budget=5000, search=el_search)
    assert status_counts(rows) == [184, 38, 0]
    assert sum(nodes for _, _, nodes in rows) == 94_833
    assert digest == "3824a9d93d0410e8"


# The search as it was before the chain bitmasks: hooks name each
# interval's chains as edge-index tuples, and every check rescans them.


def reference_search_plans(L):
    """Two edge orders, each with the interval checks hooked onto its edges.

    hooks[t] holds (complete, chain_ix) for every interval with edge t;
    complete is true when t is the interval's last edge.
    """
    interval_edges = []
    for a, b in _intervals_by_size(L):
        chains = list(_cover_paths(L, a, b))
        if len(chains) == 1 and len(chains[0]) == 2:
            continue
        interval_edges.append(chains)
    levels = L.levels
    plans = []
    for sign in (-1, 1):
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


def reference_interval_ok(values, chain_ix, complete):
    """Can this interval still get one increasing, lexicographically least chain?

    A chain is dead once two labeled edges, with none labeled between
    them, do not ascend.  All chains dead, or two fully labeled chains
    alive, fail; once complete, the live chain must be lexicographically
    least.
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


def reference_run_plan(plan, budget):
    "One backtracking pass that rescans every hooked interval at each node."
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
        if all(reference_interval_ok(values, ix, c) for c, ix in hooks[t]):
            if t + 1 == m:
                return "shellable", nodes, dict(zip(edges, values))
            frames.append((-1, classes + 1 - choice % 2, ()))
    return "not_shellable", nodes, None


def assert_plans_match_reference(L, budgets):
    intervals, edge_orders = _search_plans(L)
    for order, reference in zip(edge_orders, reference_search_plans(L)):
        plan = _compile_plan(order, intervals)
        for budget in budgets:
            prunes = [0] * len(PRUNE_RULES)
            got = _run_plan(plan, budget, prunes)
            assert got == reference_run_plan(reference, budget), (L, budget)
            assert sum(prunes) <= got[1]


def test_run_plan_matches_reference_up_to_seven(small_lattices):
    for L in small_lattices:
        if L.covers:
            assert_plans_match_reference(L, (50, 4096, float("inf")))


def test_run_plan_matches_reference_at_eight():
    for L in enumerate_lattices(8):
        assert_plans_match_reference(L, (4096,))


def test_el_search_does_not_depend_on_element_names(small_lattices):
    """A renamed lattice gets the same decision and the same search, and
    the search's labeling, pulled back, is the original one moved by an
    automorphism: the one that the renamed copy's canonical relabeling
    leaves over (the identity unless L has symmetries)."""
    rng = random.Random(17)
    moved = 0
    for L in small_lattices:
        perm = list(range(L.n))
        rng.shuffle(perm)
        M = L.relabel(perm)
        want, got = el_search(L), el_search(M)
        assert (got.status, got.nodes, got.refuted_by is None) == (
            want.status, want.nodes, want.refuted_by is None
        ), L
        want, got = _search(L, DEFAULT_EL_BUDGET), _search(M, DEFAULT_EL_BUDGET)
        assert (got.status, got.nodes, got.passes) == (
            want.status, want.nodes, want.passes
        ), L
        if want.labeling is None:
            assert got.labeling is None
            continue
        canon = canonical_relabeling(M.poset)
        sigma = [canon[perm[x]] for x in range(L.n)]
        assert {(sigma[a], sigma[b]) for a, b in L.covers} == set(L.covers)
        back = {(a, b): got.labeling[(perm[a], perm[b])] for a, b in L.covers}
        assert back == {
            (a, b): want.labeling[(sigma[a], sigma[b])] for a, b in L.covers
        }, L
        moved += back != want.labeling
    assert moved > 0


def test_el_search_plans_on_the_lattice_it_is_given(small_lattices, monkeypatch):
    """No relabeled copy: with Lattice.relabel and FinitePoset.relabel
    disabled, a renamed lattice gets the canonical lattice's search."""
    rng = random.Random(29)
    renamed = [(L, L.relabel(rng.sample(range(L.n), L.n))) for L in small_lattices]

    def no_copy(*args, **kwargs):
        raise AssertionError("el_search made a relabeled copy")

    monkeypatch.setattr(Lattice, "relabel", no_copy)
    monkeypatch.setattr(FinitePoset, "relabel", no_copy)
    for L, M in renamed:
        for search in (el_search, _search):
            want, got = search(L, DEFAULT_EL_BUDGET), search(M, DEFAULT_EL_BUDGET)
            assert (got.status, got.nodes, got.passes) == (
                want.status, want.nodes, want.passes
            ), L


def test_el_search_runs_without_recursion():
    L = zoo.chain(59)
    limit = sys.getrecursionlimit()
    # 30 frames above the caller's depth: too few for a search that
    # recurses once per edge of a 59-edge chain.
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        result = _search(L, DEFAULT_EL_BUDGET)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.status, result.nodes) == ("shellable", 59)


# ---------------------------------------------------------------------------
# The skeleton test against a chain-listing oracle
# ---------------------------------------------------------------------------


def skeleton_parts(chains, i):
    """The parts of the pure i-skeleton of the order complex of (x, y),
    from the maximal chains of [x, y]: each chain with at least i + 2
    covers is a facet of dimension at least i, and facets that share an
    element lie in one part."""
    parts = []
    for chain in chains:
        if len(chain) - 1 >= i + 2:
            inner = set(chain[1:-1])
            parts = [p for p in parts if not p & inner] + [
                inner.union(*(p for p in parts if p & inner))
            ]
    return parts


def skeleton_oracle(L):
    "The least (x, y, i) in (l(x, y), x, y, i) order, from listed chains."
    found = []
    for x in range(L.n):
        for y in range(L.n):
            if x == y or not L.leq[x, y]:
                continue
            chains = list(_cover_paths(L, x, y))
            longest = max(map(len, chains)) - 1
            for i in range(1, longest - 1):
                if len(skeleton_parts(chains, i)) > 1:
                    found.append((longest, x, y, i))
                    break
    return min(found)[1:] if found else None


def assert_certificate(L, certificate):
    "The certificate rechecked from the maximal chains of its interval."
    x, y, i = certificate
    assert i >= 1 and x != y and L.leq[x, y]
    assert len(skeleton_parts(list(_cover_paths(L, x, y)), i)) > 1


@pytest.fixture(scope="module")
def up_to_eight():
    return [L for n in range(1, 9) for L in enumerate_lattices(n)]


def test_skeleton_test_matches_the_chain_listing_oracle(up_to_eight):
    "On every lattice with n <= 8 and on its dual, with the same verdict."
    for L in up_to_eight:
        D = dual(L)
        want, got = disconnected_skeleton(L), disconnected_skeleton(D)
        assert want == skeleton_oracle(L), L
        assert got == skeleton_oracle(D), L
        assert (want is None) == (got is None), L
        for M, certificate in ((L, want), (D, got)):
            if certificate is not None:
                assert_certificate(M, certificate)


def test_skeleton_test_refutes_no_left_modular_lattice(up_to_eight):
    refuted = {n: 0 for n in range(1, 9)}
    for L in up_to_eight:
        certificate = disconnected_skeleton(L)
        if left_modular_chain(L) is not None:
            assert certificate is None, L
        refuted[L.n] += certificate is not None
    assert refuted == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 6, 8: 38}


def test_skeleton_test_agrees_with_the_search_up_to_seven(small_lattices):
    "Every non-left-modular class with n <= 7 is refuted, as the search says."
    checked = 0
    for L in small_lattices:
        if left_modular_chain(L) is not None:
            continue
        searched = _search(L, DEFAULT_EL_BUDGET)
        assert searched.status != "unknown"
        assert (disconnected_skeleton(L) is not None) == (
            searched.status == "not_shellable"
        ), L
        checked += 1
    assert checked == 7


def test_skeleton_test_on_the_hexagon_by_hand():
    """The hexagon 0 -< 1 -< 3 -< 5, 0 -< 2 -< 4 -< 5: the open interval
    (0, 5) has the two facets {1, 3} and {2, 4}, with no element in
    common, so its 1-skeleton is disconnected.  Every smaller interval is
    a chain."""
    L = zoo.hexagon()
    assert skeleton_parts(list(_cover_paths(L, 0, 5)), 1) == [{1, 3}, {2, 4}]
    assert disconnected_skeleton(L) == (0, 5, 1)
    assert disconnected_skeleton(dual(L)) == (5, 0, 1)
    # Glue one extra cover 1 -< 4 in place of 1 -< 3: the open interval
    # now has the facets {1, 4} and {2, 4}, which meet at 4.
    glued = try_lattice(
        poset_from_covers(6, [(0, 1), (0, 2), (1, 4), (2, 4), (3, 5), (4, 5), (1, 3)])
    )
    assert disconnected_skeleton(glued) is None


def test_refuted_input_gets_no_canonical_labeling_and_no_chain_list(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("a refuted input reached the search")

    monkeypatch.setattr("latticelab.shellability.canonical_relabeling", unused)
    monkeypatch.setattr("latticelab.shellability._cover_paths", unused)
    for L in (zoo.hexagon(), weak_order(4), weak_order(5)):
        result = el_search(L)
        assert (result.status, result.nodes) == ("not_shellable", 0)
        assert result.passes == () and result.labeling is None
        assert_certificate(L, result.refuted_by)


def test_weak_orders_are_refuted_in_milliseconds():
    "S4 ended unknown after 10^7 search nodes; the skeleton test needs none."
    for k in (4, 5):
        L = weak_order(k)
        start = time.perf_counter()
        result = el_search(L, budget=0)
        assert time.perf_counter() - start < 1.0
        assert (result.status, result.refuted_by) == ("not_shellable", (0, 5, 1))


def test_left_modular_stage_needs_no_skeleton_and_no_search(up_to_eight, monkeypatch):
    """Every left-modular lattice with n <= 8 is certified by its labeling,
    with the skeleton test, the canonical labeling and every chain list
    disabled."""
    def unused(*args, **kwargs):
        raise AssertionError("a left-modular input went past its certificate")

    for name in ("canonical_relabeling", "_cover_paths", "disconnected_skeleton"):
        monkeypatch.setattr("latticelab.shellability." + name, unused)
    certified = 0
    for L in up_to_eight:
        chain = left_modular_chain(L)
        if chain is None:
            continue
        result = el_search(L)
        assert (result.status, result.nodes, result.passes) == ("shellable", 0, ()), L
        assert result.chain == chain
        assert result.labeling == lm_labeling(L, chain), L
        certified += 1
    assert certified == 1 + 1 + 1 + 2 + 5 + 14 + 47 + 182


def test_left_modular_stage_agrees_with_the_search(up_to_eight):
    for L in up_to_eight:
        if left_modular_chain(L) is not None:
            searched = _search(L, DEFAULT_EL_BUDGET)
            assert searched.status == el_search(L).status == "shellable", L


def test_classify_records_the_certificate_in_place_of_the_search():
    record = classify(zoo.hexagon())
    assert record.el_shellable == "no"
    assert record.witnesses["el_refuted_by"] == [0, 5, 1]
    assert "el_search_nodes" not in record.witnesses
    assert "el_search_budget" not in record.witnesses
    searched = classify(zoo.jsd_not_left_modular()).witnesses
    assert "el_refuted_by" not in searched
    assert searched["el_search_nodes"] == 113
    certified = classify(zoo.boolean(2)).witnesses
    assert certified["left_modular_chain"] == [0, 1, 3]
    assert certified["el_labeling"] == [[0, 1, 1], [0, 2, 2], [1, 3, 2], [2, 3, 1]]
    assert not {"el_refuted_by", "el_search_nodes", "el_search_budget"} & set(certified)
