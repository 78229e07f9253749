import dataclasses
import hashlib
import json
import random

import pytest

from latticelab import zoo
from latticelab.atlas import (
    _KEEP_EXAMPLES,
    ARROWS,
    ArrowResult,
    AtlasEntry,
    HuntReport,
    ImplicationReport,
    _down_set_extensions,
    build_atlas,
    check_implications,
    entry_lattice,
    enumerate_lattices,
    enumerate_lattices_naive,
    hunt_questions,
    read_atlas,
    write_atlas,
    write_csv,
)
from latticelab.classify import classify
from latticelab.cli import main
from latticelab.errors import (
    AtlasParseError,
    BoundExceededError,
    InvariantViolation,
)
from latticelab.lattice import dual
from latticelab.poset import canonical_form, canonical_relabeling, transitive_reduce

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}


def test_a_second_enumeration_returns_the_same_lattices(monkeypatch):
    import latticelab.atlas as atlas_module
    import latticelab.poset as poset_module

    first = {n: enumerate_lattices(n) for n in range(1, 9)}
    calls = []
    for module, name in (
        (atlas_module, "try_lattice"),
        (atlas_module, "_class_block"),
        (atlas_module, "_candidate_covers"),
        (atlas_module, "_canonical_search"),
        (poset_module, "_canonical_search"),
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    for n, lattices in first.items():
        again = enumerate_lattices(n)
        assert again is not lattices and len(again) == len(lattices)
        assert all(a is b for a, b in zip(again, lattices))
        again.clear()
        assert len(enumerate_lattices(n)) == len(lattices)
    assert calls == []


def test_class_counts_up_to_six_match_the_oracle():
    for n in range(1, 7):
        generated = enumerate_lattices(n)
        oracle = enumerate_lattices_naive(n)
        assert len(generated) == len(oracle) == EXPECTED_COUNTS[n]
        assert [canonical_form(L.poset) for L in generated] == [
            canonical_form(L.poset) for L in oracle
        ]
        assert [L.covers for L in generated] == [L.covers for L in oracle]


def test_naive_oracle_raises_what_is_not_a_non_lattice(monkeypatch):
    def broken(p):
        raise InvariantViolation("a bug in try_lattice")

    monkeypatch.setattr("latticelab.atlas.try_lattice", broken)
    with pytest.raises(InvariantViolation):
        enumerate_lattices_naive(3)


def test_class_counts_seven_and_eight():
    assert len(enumerate_lattices(7)) == EXPECTED_COUNTS[7]
    assert len(enumerate_lattices(8)) == EXPECTED_COUNTS[8]


def test_enumeration_is_deterministic():
    first = [canonical_form(L.poset) for L in enumerate_lattices(6)]
    second = [canonical_form(L.poset) for L in enumerate_lattices(6)]
    assert first == second
    assert first == sorted(first)


# Self-dual classes with n = 1..9 elements, as this generator counts them.
SELF_DUAL_COUNTS = (1, 1, 1, 2, 3, 7, 13, 36, 76)


def test_each_level_holds_the_dual_of_each_class():
    """The generator's pruning rules are stated on the coatom side; the
    dual of a class turns its atoms into coatoms, so a level that lost a
    class, or kept a wrong one, would miss the dual of some class.  The
    dual is searched afresh, not read from the class's seeded memo."""
    for n, self_dual in enumerate(SELF_DUAL_COUNTS, start=1):
        forms = [canonical_form(L) for L in enumerate_lattices(n)]
        duals = [canonical_form(dual(L)) for L in enumerate_lattices(n)]
        assert set(duals) == set(forms), n
        assert sum(map(bytes.__eq__, forms, duals)) == self_dual, n


def test_removing_a_largest_coatom_gives_a_class_of_the_level_below():
    """The largest-coatom rule, checked directly: for every class with
    n <= 9 and each coatom c with the largest down-set, the class minus
    c, reduced from its order, is a class P of level n - 1, and the
    down-set of c minus c, in P's ids, is one of P's extensions."""
    removals = 0
    for n in range(2, 10):
        below = {canonical_form(P): P for P in enumerate_lattices(n - 1)}
        for L in enumerate_lattices(n):
            sizes = {c: L.down_sets[c].bit_count() for c in L.coatoms}
            largest = max(sizes.values())
            for c in L.coatoms:
                if sizes[c] != largest:
                    continue
                keep = [x for x in range(n) if x != c]
                order = [
                    (i, j)
                    for i, a in enumerate(keep)
                    for j, b in enumerate(keep)
                    if a != b and L.leq[a, b]
                ]
                p = transitive_reduce(n - 1, order)
                P = below[canonical_form(p)]
                perm = canonical_relabeling(p)
                mask = sum(1 << perm[i] for i, a in enumerate(keep) if L.leq[a, c])
                assert mask in {m for m, _ in _down_set_extensions(P)}, (L, c)
                removals += 1
    assert removals == 1764


def test_enumerated_lattices_are_canonical_and_distinct():
    from latticelab.poset import canonicalize

    for n in range(1, 7):
        forms = set()
        for L in enumerate_lattices(n):
            assert canonicalize(L.poset) == L.poset
            forms.add(canonical_form(L.poset))
        assert len(forms) == EXPECTED_COUNTS[n]


def test_entry_lattice_searches_a_form_read_from_a_file():
    "A valid form that is not canonical is decoded, not trusted."
    record = classify(zoo.chain(1))
    entry = AtlasEntry(n=2, canonical=bytes.fromhex("0000000240"), record=record)
    L = entry_lattice(entry)  # the 2-chain written as 1 < 0
    assert L.covers == ((1, 0),)
    assert canonical_form(L.poset) == bytes.fromhex("0000000280")


def test_fixtures_appear_in_the_atlas():
    by_size = {
        5: zoo.m3(),
        6: zoo.hexagon(),
        7: zoo.left_modular_not_semidistributive(),
        8: zoo.jsd_not_left_modular(),
        9: zoo.extremal_not_left_modular(),
    }
    for n, L in by_size.items():
        forms = {canonical_form(q.poset) for q in enumerate_lattices(n)}
        assert canonical_form(L.poset) in forms


def test_enumeration_bounds():
    with pytest.raises(BoundExceededError):
        enumerate_lattices(0)
    with pytest.raises(BoundExceededError):
        enumerate_lattices(11)
    with pytest.raises(BoundExceededError):
        enumerate_lattices_naive(7)


def test_build_atlas_rejects_max_n_before_enumerating(monkeypatch):
    def no_run(n):
        raise AssertionError(f"enumerated n={n} before checking max_n")

    monkeypatch.setattr("latticelab.atlas.enumerate_lattices", no_run)
    with pytest.raises(BoundExceededError, match="n <= 10, got 11"):
        build_atlas(11)


@pytest.mark.parametrize("max_n", [0, -3])
def test_build_atlas_rejects_max_n_below_one(max_n):
    with pytest.raises(BoundExceededError, match=f"at least 1, got {max_n}"):
        build_atlas(max_n)


def test_atlas_roundtrip(tmp_path):
    path = tmp_path / "atlas.jsonl"
    entries = build_atlas(5)
    write_atlas(str(path), entries)
    assert len(entries) == 1 + 1 + 1 + 2 + 5
    header, back = read_atlas(str(path))
    assert header["max_n"] == 5 and header["schema"] == 1
    assert back == entries


def test_atlas_files_are_byte_identical_across_runs(tmp_path):
    p1, p2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
    write_atlas(str(p1), build_atlas(5))
    write_atlas(str(p2), build_atlas(5))
    assert p1.read_bytes() == p2.read_bytes()


def test_atlas_bytes_up_to_seven_are_pinned(tmp_path):
    """The .jsonl and .csv bytes of the n <= 7 atlas.  A change that means
    to alter the .jsonl (say, new EL witnesses) moves only its pin."""
    entries = build_atlas(7)
    jsonl, csv = tmp_path / "a7.jsonl", tmp_path / "a7.csv"
    write_atlas(str(jsonl), entries)
    write_csv(str(csv), entries)
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert digest(jsonl) == "c3b11630ff888439"
    assert digest(csv) == "39c516fb65d58e29"


def test_grid_rows_and_reports_up_to_seven_are_pinned(tmp_path, capsys):
    """Each arrow as (id, premises, conclusion, expected, designated), and
    the `implications` and `hunt` stdout of the n <= 7 atlas file."""
    digest = lambda data: hashlib.sha256(data).hexdigest()[:16]
    rows = [
        (a.arrow_id, a.premises, a.conclusion, a.expected, a.designated)
        for a in ARROWS
    ]
    assert digest(repr(rows).encode()) == "305b151573af2707"
    path = tmp_path / "a7.jsonl"
    write_atlas(str(path), build_atlas(7))
    for command, want in (
        ("implications", "b2c04597fbe7674d"),
        ("hunt", "30fb203a8aa9d10f"),
    ):
        assert main([command, str(path)]) == 0
        assert digest(capsys.readouterr().out.encode()) == want


def test_reclassifying_an_entry_reproduces_its_record():
    entries = build_atlas(5)
    for entry in entries:
        L = entry_lattice(entry)
        assert classify(L) == entry.record


def test_corrupt_line_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    entries = build_atlas(3)
    write_atlas(str(path), entries)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AtlasParseError) as err:
        read_atlas(str(path))
    assert err.value.lineno == 3


@pytest.mark.parametrize(
    "where",
    ["header", "schema-true", "schema-float", "entry", "record", "field", "encoding"],
)
def test_lines_of_the_wrong_shape_are_parse_errors(tmp_path, where):
    path = tmp_path / "shape.jsonl"
    write_atlas(str(path), build_atlas(2))
    lines = path.read_bytes().splitlines()
    obj = json.loads(lines[2])
    lineno = 3
    if where == "header":
        lines[0] = b"[1]"
        lineno = 1
    elif where.startswith("schema"):
        schema = b"true" if where == "schema-true" else b"1.0"
        lines[0] = lines[0].replace(b'"schema":1', b'"schema":' + schema)
        lineno = 1
    elif where == "entry":
        lines[2] = b"[1]"
    elif where == "record":
        obj["record"] = 5
    elif where == "field":
        obj["record"]["length"] = "1"
    else:
        lines[2] = b"\xff\xfe" + lines[2]
    if where in ("record", "field"):
        lines[2] = json.dumps(obj).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(AtlasParseError) as err:
        read_atlas(str(path))
    assert err.value.lineno == lineno


def test_missing_header_is_an_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(AtlasParseError):
        read_atlas(str(path))


def test_csv_summary(tmp_path):
    path = tmp_path / "atlas.csv"
    entries = build_atlas(4)
    write_csv(str(path), entries)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("n,canonical,distributive")
    assert len(lines) == 1 + len(entries)


def test_implication_grid_holds_up_to_six():
    entries = build_atlas(6)
    report = check_implications(entries)
    assert report.ok
    by_id = {r.arrow.arrow_id: r for r in report.results}
    # the two small designated witnesses are in range and refute their arrows
    assert by_id["left_modular=>join_extremal"].designated_found is True
    assert by_id["el_shellable=>jsd"].designated_found is True
    # the larger designated witnesses are out of range at n <= 6
    assert by_id["jsd&join_extremal=>extremal"].designated_found is None
    # green arrows scanned clean
    for r in report.results:
        if r.arrow.expected == "holds":
            assert r.violations == 0, r.arrow.arrow_id


def test_implication_grid_holds_up_to_seven_with_larger_witnesses():
    entries = build_atlas(7)
    report = check_implications(entries)
    assert report.ok
    by_id = {r.arrow.arrow_id: r for r in report.results}
    # the 7-element designated witness enters range at n=7
    assert by_id["jsd&join_extremal=>extremal"].designated_found is True
    assert by_id["join_extremal=>extremal"].designated_found is True
    assert by_id["jsd&left_modular=>sd"].designated_found is True


def test_implication_report_summary_mentions_every_arrow():
    entries = build_atlas(5)
    report = check_implications(entries)
    lines = report.summary_lines()
    assert len(lines) == len(report.results)


def test_implication_scan_catches_a_violation():
    entries = build_atlas(5)
    bad = []
    for entry in entries:
        record = entry.record
        if record.left_modular and record.el_shellable == "yes":
            # forge a record claiming a left-modular lattice is not shellable
            obj = record.as_json()
            obj["el_shellable"] = "no"
            from latticelab.classify import ClassificationRecord

            bad.append(
                AtlasEntry(entry.n, entry.canonical,
                           ClassificationRecord.from_json(obj))
            )
        else:
            bad.append(entry)
    report = check_implications(bad)
    assert not report.ok


def test_hunt_reports_are_empty_on_small_lattices():
    entries = build_atlas(6)
    report = hunt_questions(entries)
    assert report.not_left_modular == ()
    assert report.not_extremal == ()
    assert report.unknown_el == ()
    assert sum(report.scanned.values()) == len(entries)
    assert report.summary_lines()


def test_hunt_keeps_unknown_el_entries_separate():
    entries = build_atlas(6, el_budget=0)
    report = hunt_questions(entries)
    # semidistributive non-left-modular lattices cannot certify via the
    # left-modular labeling, so a zero budget leaves them undecided
    for entry in report.unknown_el:
        assert entry.record.semidistributive
        assert entry.record.el_shellable == "unknown"
    assert not report.not_left_modular


def test_atlas_entry_json_is_sorted_and_stable():
    entry = build_atlas(3)[-1]
    line = entry.as_json_line()
    obj = json.loads(line)
    assert list(obj) == sorted(obj)
    assert AtlasEntry.from_json_obj(obj) == entry


# ---------------------------------------------------------------------------
# The grid and the hunt against their former two-scan bodies
# ---------------------------------------------------------------------------


def reference_check_implications(entries):
    "The grid as one scan per arrow plus a second pass for each witness."
    names = (
        "m3",
        "hexagon",
        "extremal_not_left_modular",
        "left_modular_not_semidistributive",
        "jsd_not_left_modular",
    )
    designated_forms = {
        name: canonical_form(getattr(zoo, name)().poset) for name in names
    }
    entries = list(entries)
    max_n = max((e.n for e in entries), default=0)
    results = []
    for arrow in ARROWS:
        needs_el = "el_shellable" in arrow.premises + (arrow.conclusion,)
        violations = 0
        examples = []
        skipped = 0
        for entry in entries:
            record = entry.record
            if needs_el and record.el_shellable == "unknown":
                skipped += 1
                continue
            if not all(record.flag(p) for p in arrow.premises):
                continue
            if record.flag(arrow.conclusion):
                continue
            violations += 1
            if len(examples) < _KEEP_EXAMPLES:
                examples.append(entry.canonical)
        designated_found = None
        if arrow.designated:
            form = designated_forms[arrow.designated]
            size = int.from_bytes(form[:4], "big")
            if size <= max_n:
                designated_found = any(
                    e.canonical == form
                    and all(e.record.flag(p) for p in arrow.premises)
                    and not e.record.flag(arrow.conclusion)
                    for e in entries
                )
        results.append(
            ArrowResult(arrow, violations, tuple(examples), skipped, designated_found)
        )
    return ImplicationReport(tuple(results), max_n)


def reference_hunt_questions(entries):
    "The hunt as its own filter over the entries."
    entries = list(entries)
    scanned = {}
    not_lm = []
    not_ext = []
    unknown = []
    for entry in entries:
        scanned[entry.n] = scanned.get(entry.n, 0) + 1
        record = entry.record
        if not record.semidistributive:
            continue
        if record.el_shellable == "unknown":
            unknown.append(entry)
            continue
        if record.el_shellable != "yes":
            continue
        if not record.left_modular:
            not_lm.append(entry)
        if not record.extremal:
            not_ext.append(entry)
    key = lambda e: (e.n, e.canonical)
    return HuntReport(
        tuple(sorted(not_lm, key=key)),
        tuple(sorted(not_ext, key=key)),
        tuple(sorted(unknown, key=key)),
        scanned,
    )


def forged_entries(seed):
    """The n <= 7 atlas with each boolean flag flipped at random and a
    random EL status, so every arrow and both questions see violators."""
    rng = random.Random(seed)
    out = []
    for entry in build_atlas(7, el_budget=0):
        record = entry.record
        flips = {
            f.name: not getattr(record, f.name)
            for f in dataclasses.fields(record)
            if f.type is bool and rng.random() < 0.3
        }
        el = rng.choice(("yes", "no", "unknown"))
        record = dataclasses.replace(record, el_shellable=el, **flips)
        out.append(AtlasEntry(entry.n, entry.canonical, record))
    return out


@pytest.fixture(scope="module")
def grid_entry_sets():
    forged = forged_entries(14)
    return {
        "atlas": build_atlas(7, el_budget=0) + build_atlas(6),
        "forged": forged,
        "forged_reversed": forged[::-1],
    }


@pytest.mark.parametrize("which", ["atlas", "forged", "forged_reversed"])
def test_grid_and_hunt_match_their_references(grid_entry_sets, which):
    entries = grid_entry_sets[which]
    want, got = reference_check_implications(entries), check_implications(entries)
    assert got.max_n == want.max_n
    for g, w in zip(got.results, want.results, strict=True):
        assert g == w, w.arrow.arrow_id
    assert got.summary_lines() == want.summary_lines()
    want, got = reference_hunt_questions(entries), hunt_questions(entries)
    for f in dataclasses.fields(HuntReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.summary_lines() == want.summary_lines()


def test_forged_entries_reach_every_branch_of_the_grid(grid_entry_sets):
    """The forgeries give the comparison above something to compare: hunt
    candidates of each kind, undecided entries, and witnesses both found
    and missing."""
    hunt = reference_hunt_questions(grid_entry_sets["forged"])
    assert hunt.not_left_modular and hunt.not_extremal and hunt.unknown_el
    report = reference_check_implications(grid_entry_sets["forged"])
    found = {r.designated_found for r in report.results if r.arrow.designated}
    assert {True, False} <= found
    assert any(r.violations > _KEEP_EXAMPLES for r in report.results)
