"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Criteria 3-5 sweep every isomorphism class of lattices with up to
8 elements; 6 and 8 sweep up to 8 elements with the exact shellability
decision.  Everything is exact (boolean or integer equality), no
tolerances anywhere.
"""

import random
from dataclasses import dataclass

import pytest

from latticelab import zoo
from latticelab.atlas import (
    AtlasEntry,
    build_atlas,
    check_implications,
    entry_lattice,
    enumerate_lattices,
    enumerate_lattices_naive,
    hunt_questions,
    write_atlas,
)
from latticelab.classify import classify
from latticelab.irreducibles import (
    canonical_join_rep,
    gamma,
    is_perspective,
    join_irreducible_ids,
    kappa_data,
    length,
    maximal_chains,
    meet_irreducibles,
    perspectivity_witness_recursive,
    perspectivity_witness_scan,
)
from latticelab.lattice import ideal_lattice
from latticelab.poset import canonical_form
from latticelab.properties import (
    is_distributive,
    is_join_semidistributive,
    is_meet_semidistributive,
    left_modular_chain,
)
from latticelab.shellability import (
    DEFAULT_EL_BUDGET,
    el_search,
    is_el_labeling,
    lm_labeling,
)

MAX_N_FULL_SCAN = 8
MAX_N_SHELLABILITY = 8
ORACLE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
FROZEN_COUNTS = {7: 53, 8: 222}


def report(criterion, message):
    print(f"[PASS] criterion {criterion}: {message}")


@dataclass(frozen=True)
class Profile:
    lattice: object
    jsd: bool
    msd: bool
    lm_chain: tuple | None
    length: int
    num_j: int
    num_m: int

    @property
    def sd(self):
        return self.jsd and self.msd

    @property
    def join_extremal(self):
        return self.length == self.num_j

    @property
    def extremal(self):
        return self.join_extremal and self.length == self.num_m

    @property
    def left_modular(self):
        return self.lm_chain is not None


@pytest.fixture(scope="module")
def swept():
    profiles = []
    for n in range(1, MAX_N_FULL_SCAN + 1):
        for L in enumerate_lattices(n):
            profiles.append(
                Profile(
                    lattice=L,
                    jsd=is_join_semidistributive(L)[0],
                    msd=is_meet_semidistributive(L)[0],
                    lm_chain=left_modular_chain(L),
                    length=length(L),
                    num_j=len(join_irreducible_ids(L)),
                    num_m=len(meet_irreducibles(L)),
                )
            )
    return profiles


def test_criterion_1_fixture_captions():
    expected = {
        # (jsd, join_extremal, left_modular)
        "hexagon": (True, False, False),
        "m3": (False, False, True),
        "extremal_not_left_modular": (False, True, False),
        "left_modular_not_semidistributive": (True, True, True),
        "jsd_not_left_modular": (True, True, False),
    }
    fixtures = zoo.fixture_lattices()
    for name, (jsd, je, lm) in expected.items():
        r = classify(fixtures[name])
        assert r.join_semidistributive == jsd, name
        assert r.join_extremal == je, name
        assert r.left_modular == lm, name
    # the stated side conditions of each caption
    assert not classify(fixtures["m3"]).join_extremal
    assert classify(fixtures["extremal_not_left_modular"]).extremal
    assert not classify(fixtures["left_modular_not_semidistributive"]).semidistributive
    # the perspectivity figure: same hexagon shape, its two stated facts
    hx = fixtures["hexagon"]
    assert is_perspective(hx, (0, 1), (4, 5))
    assert all(
        not is_perspective(hx, (2, 4), c) for c in hx.covers if c != (2, 4)
    )
    report(1, "all five figure lattices classify exactly as captioned")


def test_criterion_2_ideal_lattice_pipeline():
    L, ideals = ideal_lattice(zoo.vee_plus_isolated())
    assert L.n == 10
    assert is_distributive(L)[0]
    assert length(L) == 4 == len(join_irreducible_ids(L))
    rep = canonical_join_rep(L, L.top)
    assert sorted(ideals[j] for j in rep) == sorted(
        [frozenset({2}), frozenset({0, 1, 3})]
    )
    index = {s: i for i, s in enumerate(ideals)}
    chain = tuple(
        index[frozenset(s)]
        for s in (set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3})
    )
    assert chain in set(maximal_chains(L))
    by_ideal = {ideals[j]: j for j in join_irreducible_ids(L)}
    values = [
        gamma(L, chain, by_ideal[frozenset(s)])
        for s in ({0}, {1}, {2}, {0, 1, 3})
    ]
    assert values == [1, 2, 3, 4]
    report(2, "down-set lattice of the 4-poset: 10 elements, distributive, "
              "len=4=|J|, canonical top representation and chain map check out")


def test_criterion_3_jsd_left_modular_forces_join_extremal(swept):
    counts = {}
    violations = []
    for p in swept:
        counts[p.lattice.n] = counts.get(p.lattice.n, 0) + 1
        if p.jsd and p.left_modular and not p.join_extremal:
            violations.append(p.lattice.covers)
    for n, want in ORACLE_COUNTS.items():
        assert counts[n] == want, (n, counts[n])
    for n, want in FROZEN_COUNTS.items():
        assert counts[n] == want, (n, counts[n])
    assert violations == []
    report(3, f"0 of {len(swept)} lattices (n<=8) are join-semidistributive "
              "and left modular without being join extremal")


def test_criterion_4_sd_extremal_forces_left_modular(swept):
    violations = [
        p.lattice.covers
        for p in swept
        if p.sd and p.extremal and not p.left_modular
    ]
    assert violations == []
    report(4, f"0 of {len(swept)} lattices (n<=8) are semidistributive and "
              "extremal without being left modular")


def test_criterion_5_lemma_suite(swept):
    checked_covers = 0
    for p in swept:
        L = p.lattice
        # every cover has a perspectivity witness, via both constructions
        for cover in L.covers:
            scan = perspectivity_witness_scan(L, cover)
            descent = perspectivity_witness_recursive(L, cover)
            assert is_perspective(L, cover, (scan.j_star, scan.j))
            assert is_perspective(L, cover, (descent.j_star, descent.j))
            checked_covers += 1
        # the chain map is onto for every maximal chain, so len <= |J|
        irr = join_irreducible_ids(L)
        for chain in maximal_chains(L):
            values = {gamma(L, chain, j) for j in irr}
            assert values == set(range(1, len(chain))), (L.covers, chain)
            # bijective exactly on maximum-length chains of join-extremal lattices
            if len(chain) - 1 == p.length:
                injective = len([gamma(L, chain, j) for j in irr]) == len(
                    {gamma(L, chain, j) for j in irr}
                )
                assert injective == p.join_extremal
        assert p.length <= p.num_j
        # blocking sets: maximal elements are meet irreducible
        mi = set(meet_irreducibles(L))
        kdata = {j: kappa_data(L, j) for j in irr}
        for kd in kdata.values():
            assert kd.maximals <= mi
        if p.jsd:
            # distinct irreducibles never share a maximal blocking element
            for i, j1 in enumerate(irr):
                for j2 in irr[i + 1:]:
                    assert not (kdata[j1].maximals & kdata[j2].maximals)
        # matching irreducible counts upgrade one-sided semidistributivity
        if p.jsd and p.num_j == p.num_m:
            assert p.msd
        if p.sd:
            assert p.num_j == p.num_m
            assert p.left_modular == p.extremal
    report(5, f"lemma suite clean over {len(swept)} lattices, "
              f"{checked_covers} covers witnessed both ways")


def test_criterion_6_left_modular_labelings_pass_the_verifier():
    verified = 0
    for n in range(1, MAX_N_SHELLABILITY + 1):
        for L in enumerate_lattices(n):
            chain = left_modular_chain(L)
            if chain is None:
                continue
            assert is_el_labeling(L, lm_labeling(L, chain)), L.covers
            verified += 1
    report(6, f"{verified} left-modular lattices (n<={MAX_N_SHELLABILITY}) all produce "
              "verified EL labelings")


def test_criterion_7_search_certificates_for_figure_lattices():
    for name, L in (
        ("extremal_not_left_modular", zoo.extremal_not_left_modular()),
        ("jsd_not_left_modular", zoo.jsd_not_left_modular()),
    ):
        result = el_search(L, budget=DEFAULT_EL_BUDGET)
        assert result.status == "shellable", name
        assert result.nodes <= DEFAULT_EL_BUDGET
        assert is_el_labeling(L, result.labeling), name
    report(7, "exact search certifies both non-left-modular figure "
              "lattices, certificates re-verified")


def test_criterion_8_question_hunts():
    entries = build_atlas(MAX_N_SHELLABILITY)
    undecided = [e for e in entries if e.record.el_shellable == "unknown"]
    assert undecided == []
    figures = {
        "m3": zoo.m3(),
        "extremal_not_left_modular": zoo.extremal_not_left_modular(),
        "jsd_not_left_modular": zoo.jsd_not_left_modular(),
    }
    figure_entries = {
        name: AtlasEntry(L.n, canonical_form(L.poset), classify(L))
        for name, L in figures.items()
    }
    report_obj = hunt_questions(list(entries) + list(figure_entries.values()))
    assert report_obj.summary_lines()
    for entry in report_obj.not_left_modular + report_obj.not_extremal:
        assert classify(entry_lattice(entry)) == entry.record
    # each figure is shellable yet excluded: none is semidistributive
    for name, entry in figure_entries.items():
        assert entry.record.el_shellable == "yes", name
        assert not entry.record.semidistributive, name
        assert entry not in report_obj.not_left_modular, name
        assert entry not in report_obj.not_extremal, name
    assert report_obj.not_left_modular == ()
    assert report_obj.not_extremal == ()
    report(8, f"hunt over n<={MAX_N_SHELLABILITY} (all EL statuses decided) lists no "
              "candidates; figure lattices excluded as not semidistributive")


def test_criterion_9_enumeration_cross_validation():
    for n in range(1, 7):
        first = [canonical_form(L.poset) for L in enumerate_lattices(n)]
        second = [canonical_form(L.poset) for L in enumerate_lattices(n)]
        oracle = [canonical_form(L.poset) for L in enumerate_lattices_naive(n)]
        assert first == second == oracle
        assert len(first) == ORACLE_COUNTS[n]
    report(9, "orderly generation and the naive filter-and-dedup oracle "
              "agree byte-for-byte on all classes up to n=6, twice")


def test_criterion_9b_atlas_files_are_reproducible(tmp_path):
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    entries = build_atlas(6)
    write_atlas(str(p1), entries)
    write_atlas(str(p2), entries)
    assert p1.read_bytes() == p2.read_bytes()
    assert check_implications(entries).ok
    report(9, "atlas persistence is byte-identical across runs and the "
              "implication grid holds on it")


FLAGS = (
    "distributive", "join_semidistributive", "meet_semidistributive",
    "semidistributive", "join_extremal", "extremal", "left_modular",
    "el_shellable",
)


def test_criterion_10_relabeling_invariance():
    from latticelab.lattice import dual

    rng = random.Random(424242)
    relabelings = 0
    for name, L in zoo.fixture_lattices().items():
        base_form = canonical_form(L.poset)
        base_record = classify(L)
        assert dual(dual(L)) == L, name
        labeling = base_record.witnesses.get("el_labeling")
        for _ in range(100):
            perm = list(range(L.n))
            rng.shuffle(perm)
            M = L.relabel(perm)
            assert canonical_form(M.poset) == base_form, name
            record = classify(M)
            for flag in FLAGS:
                assert getattr(record, flag) == getattr(base_record, flag), (
                    name, flag,
                )
            relabelings += 1
        if labeling is not None:
            # strictly order-preserving value maps keep the certificate
            cert = {(a, b): v for a, b, v in labeling}
            shift = rng.randrange(1, 10)
            scale = rng.randrange(2, 6)
            assert is_el_labeling(L, {e: scale * v + shift
                                      for e, v in cert.items()}), name
    report(10, f"{relabelings} random relabelings preserve canonical forms "
               "and all flags; dual is an involution; scaled EL "
               "certificates still verify")
