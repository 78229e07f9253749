import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latticelab import zoo
from latticelab.atlas import enumerate_lattices
from latticelab.classify import classify
from latticelab.cli import main
from latticelab.errors import FormatError, LatticeError
from latticelab.io import dumps_indented, format_covers, parse_covers, to_dot
from latticelab.lattice import dual, try_lattice
from latticelab.poset import poset_from_covers
from latticelab.shellability import el_search

HEXAGON_LAT = "6\n0 1\n0 2\n1 3\n2 4\n3 5\n4 5\n"
HEXAGON_JSON = '{"n": 6, "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]]}'


def test_parse_basic():
    n, pairs = parse_covers(HEXAGON_LAT)
    assert n == 6
    assert pairs == [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]


def test_parse_comments_and_blank_lines():
    text = "# the diamond\n\n5  # count\n0 1\n0 2 # middle\n0 3\n1 4\n2 4\n3 4\n"
    n, pairs = parse_covers(text)
    assert n == 5 and len(pairs) == 6


def test_parse_json_equivalent():
    n, pairs = parse_covers('{"n": 2, "covers": [[0, 1]]}')
    assert n == 2 and pairs == [(0, 1)]


def test_parse_drops_one_leading_byte_order_mark():
    assert parse_covers("\ufeff" + HEXAGON_LAT) == parse_covers(HEXAGON_LAT)
    assert parse_covers('\ufeff{"n": 2, "covers": [[0, 1]]}') == (2, [(0, 1)])
    with pytest.raises(FormatError, match="line 1: bad count"):
        parse_covers("\ufeff\ufeff" + HEXAGON_LAT)


def test_parse_errors_name_lines():
    with pytest.raises(FormatError, match="line 2"):
        parse_covers("3\n0 1 2\n")
    with pytest.raises(FormatError):
        parse_covers("")
    with pytest.raises(FormatError):
        parse_covers('{"covers": []}')


def test_parse_covers_rejects_a_pair_that_is_not_two_integers():
    with pytest.raises(FormatError, match="line 2: bad pair '0 x'"):
        parse_covers("2\n0 x\n")


def test_parse_rejects_negative_counts():
    with pytest.raises(FormatError, match="line 2: negative"):
        parse_covers("# no elements\n-3\n")
    with pytest.raises(FormatError, match="negative"):
        parse_covers('{"n": -3, "covers": []}')


NON_INTEGER_JSON = (
    '{"n": 1e400, "covers": []}',
    '{"n": 2, "covers": [[0, 1e400]]}',
    '{"n": 2.5, "covers": []}',
    '{"n": 2, "covers": [[0.9, 1.2]]}',
    '{"n": true, "covers": []}',
    '{"n": 2, "covers": [[false, true]]}',
    '{"n": "2", "covers": []}',
    '{"n": 2, "covers": [["0", 1]]}',
)


@pytest.mark.parametrize("text", NON_INTEGER_JSON)
def test_parse_json_accepts_only_integers(text):
    with pytest.raises(FormatError, match="is not an integer"):
        parse_covers(text)


def test_parse_json_too_deep_is_a_format_error():
    with pytest.raises(FormatError, match="bad JSON"):
        parse_covers('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")


LAT_ALPHABET = "0123456789 -+_#\n\tx"
JSON_ALPHABET = '{}[]":, 0123456789.eE+-ncoversutfal'
POINT = st.integers(-1, 8)
# Integers, or in their place a float (inf and nan among them), a bool, a
# string or null.
JSON_NUMBER = st.one_of(POINT, st.floats(), st.booleans(), st.text(max_size=2), st.none())


def _lat_texts(n):
    """.lat texts on n elements whose pairs are mostly a < b, so that many
    reach the order checks; else a reversed pair, a self-loop or an end out
    of range."""
    upward = [(a, b) for a in range(n) for b in range(a + 1, n)]
    odd = [(b, a) for a, b in upward] + [(a, a) for a in range(n)] + [(-1, 0), (0, n)]
    pairs = st.lists(st.sampled_from(upward * 8 + odd), max_size=12, unique=True)
    return pairs.map(lambda ps: "\n".join([str(n)] + [f"{a} {b}" for a, b in ps]))


INGESTION_TEXT = st.one_of(
    st.text(LAT_ALPHABET),
    st.text(JSON_ALPHABET).map(lambda t: "{" + t),
    st.integers(2, 8).flatmap(_lat_texts),
    st.fixed_dictionaries(
        {
            "n": JSON_NUMBER,
            "covers": st.lists(
                st.one_of(st.tuples(JSON_NUMBER, JSON_NUMBER), st.lists(JSON_NUMBER)),
                max_size=12,
            ),
        }
    ).map(json.dumps),
)


@settings(max_examples=1000)
@example('{"n": 1e400, "covers": []}')
@given(INGESTION_TEXT)
def test_ingestion_raises_only_lattice_errors(text):
    try:
        n, pairs = parse_covers(text)
        try_lattice(poset_from_covers(n, pairs))
    except LatticeError:
        pass


def test_format_roundtrip():
    L = zoo.hexagon()
    text = format_covers(L.n, L.covers)
    assert text == HEXAGON_LAT
    n, pairs = parse_covers(text)
    assert (n, tuple(pairs)) == (L.n, L.covers)


def test_covers_json_roundtrip():
    L = zoo.m3()
    text = json.dumps({"covers": [list(c) for c in L.covers], "n": L.n})
    n, pairs = parse_covers(text)
    assert (n, tuple(pairs)) == (L.n, L.covers)


def test_dot_output():
    dot = to_dot(zoo.chain(1).poset)
    assert "rankdir=BT" in dot and "0 -> 1" in dot
    labeled = to_dot(zoo.chain(1).poset, labeling={(0, 1): 7})
    assert 'label="7"' in labeled


def lat_file(tmp_path, L, name="input.lat"):
    path = tmp_path / name
    path.write_text(format_covers(L.n, L.covers))
    return str(path)


def test_cli_check_table(tmp_path, capsys):
    code = main(["check", lat_file(tmp_path, zoo.m3())])
    out = capsys.readouterr().out
    assert code == 0
    assert "left modular" in out and "True" in out
    assert "EL-shellable" in out


def test_cli_check_json_deterministic(tmp_path, capsys):
    path = lat_file(tmp_path, zoo.hexagon())
    assert main(["check", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["join_semidistributive"] is True
    assert record["left_modular"] is False
    assert record["el_shellable"] == "no"
    assert list(record) == sorted(record)


def indented(value):
    "json.dumps(value, sort_keys=True, indent=2), which dumps_indented must equal."
    return json.dumps(value, sort_keys=True, indent=2)


JSON_INT = st.integers(-(2**70), 2**70)
INT_ROWS = st.integers(1, 4).flatmap(
    lambda k: st.lists(
        st.lists(JSON_INT | st.booleans(), min_size=k, max_size=k)
        | st.lists(JSON_INT, min_size=k, max_size=k),
        max_size=5,
    )
)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | JSON_INT
    | st.floats()
    | st.text(max_size=4)
    | st.lists(JSON_INT, max_size=5)
    | INT_ROWS
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(JSON_VALUES)
@example([[1, True], [2, 3]])
@example({"b": [1, 2], "a": [[1, 2, 3]]})
def test_dumps_indented_is_json_dumps_indented(value):
    assert dumps_indented(value) == indented(value)


def test_dumps_indented_writes_every_check_record():
    """Every class with n <= 7 and its dual, then one n = 8 search left
    unknown at budget 0; n = 1's witness is an empty labeling and the
    hexagon's a skeleton refutation."""
    records = [
        classify(M).as_json()
        for n in range(1, 8)
        for L in enumerate_lattices(n)
        for M in (L, dual(L))
    ]
    assert records[0]["witnesses"]["el_labeling"] == []
    assert "el_refuted_by" in classify(zoo.hexagon()).witnesses
    unknown = next(
        r
        for L in enumerate_lattices(8)
        if (r := classify(L, el_budget=0)).el_shellable == "unknown"
    )
    assert unknown.witnesses["el_search_budget"] == 0
    records.append(unknown.as_json())
    for record in records:
        assert dumps_indented(record) == indented(record)


@pytest.mark.parametrize(
    "L", [zoo.m3(), zoo.hexagon(), zoo.boolean(6)], ids=["M3", "hexagon", "B6"]
)
def test_cli_check_json_is_json_dumps_indented(tmp_path, capsys, L):
    assert main(["check", lat_file(tmp_path, L), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == indented(json.loads(out)) + "\n"


def test_cli_calls_in_one_process_share_no_flags(tmp_path, capsys):
    "The parser is built once per process; each call parses its own flags."
    path = lat_file(tmp_path, zoo.hexagon())
    assert main(["check", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["el_shellable"] == "no"
    assert main(["check", path]) == 0
    table = capsys.readouterr().out
    assert "EL-shellable" in table and not table.startswith("{")
    assert main(["el", path, "--stats"]) == 0
    assert capsys.readouterr().err
    assert main(["el", path]) == 0
    plain = capsys.readouterr()
    assert plain.out == "status: not_shellable\nnodes: 0\nrefuted_by: 0 5 1\n"
    assert plain.err == ""


def test_cli_check_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(HEXAGON_LAT))
    assert main(["check", "-", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["length"] == 3


@pytest.mark.parametrize(
    "command, want",
    [("label", "chain: 0\n"), ("el", "status: shellable\nnodes: 0\n")],
)
def test_cli_labelings_of_the_one_element_lattice_end_without_a_blank_line(
    capsys, monkeypatch, command, want
):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    assert main([command, "-"]) == 0
    assert capsys.readouterr().out == want


def test_cli_check_dot(tmp_path, capsys):
    dot_path = tmp_path / "out.dot"
    assert main(["check", lat_file(tmp_path, zoo.m3()), "--dot",
                 str(dot_path)]) == 0
    capsys.readouterr()
    assert "rankdir=BT" in dot_path.read_text()


def test_cli_witness(tmp_path, capsys):
    assert main(["witness", lat_file(tmp_path, zoo.hexagon()), "4", "5"]) == 0
    out = capsys.readouterr().out
    assert "scan:    j=1" in out
    assert "descent: j=1" in out


def test_cli_witness_rejects_non_cover(tmp_path, capsys):
    assert main(["witness", lat_file(tmp_path, zoo.hexagon()), "0", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_label(tmp_path, capsys):
    assert main(["label", lat_file(tmp_path, zoo.m3())]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chain: 0 1 4")
    assert "0 1 1" in out


def test_cli_label_without_chain(tmp_path, capsys):
    assert main(["label", lat_file(tmp_path, zoo.jsd_not_left_modular())]) == 0
    assert "no left-modular chain" in capsys.readouterr().out


def test_cli_el(tmp_path, capsys):
    assert main(["el", lat_file(tmp_path, zoo.jsd_not_left_modular())]) == 0
    out = capsys.readouterr().out
    assert "status: shellable" in out


def test_cli_el_budget_is_one_flag(tmp_path, capsys):
    # The skeleton test passes this lattice, so the budget reaches the search.
    path = lat_file(tmp_path, zoo.jsd_not_left_modular())
    assert main(["el", path, "--el-budget", "5"]) == 0
    assert "status: unknown" in capsys.readouterr().out
    assert main(["check", path, "--json", "--el-budget", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["el_shellable"] == "unknown"
    out = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "3", "--out", str(out), "--el-budget", "5"]) == 0
    assert json.loads(out.read_text().splitlines()[0])["el_budget"] == 5
    with pytest.raises(SystemExit) as exc:
        main(["el", path, "--budget", "5"])
    assert exc.value.code == 2


def test_cli_el_stats_go_to_stderr_alone(tmp_path, capsys):
    path = lat_file(tmp_path, zoo.hexagon())
    assert main(["el", path]) == 0
    plain = capsys.readouterr()
    assert plain.out == "status: not_shellable\nnodes: 0\nrefuted_by: 0 5 1\n"
    assert main(["el", path, "--stats"]) == 0
    both = capsys.readouterr()
    assert both.out == plain.out and plain.err == ""
    assert json.loads(both.err) == {"stage": "skeleton", "refuted_by": [0, 5, 1]}
    path = lat_file(tmp_path, zoo.boolean(2))
    assert main(["el", path, "--stats"]) == 0
    both = capsys.readouterr()
    assert both.out == "status: shellable\nnodes: 0\n0 1 1\n0 2 2\n1 3 2\n2 3 1\n"
    assert json.loads(both.err) == {"stage": "left_modular", "chain": [0, 1, 3]}
    L = zoo.jsd_not_left_modular()
    path = lat_file(tmp_path, L)
    assert main(["el", path, "--stats"]) == 0
    both = capsys.readouterr()
    assert "refuted_by" not in both.out
    stats = json.loads(both.err)
    assert stats == el_search(L).stats
    assert stats["stage"] == "search"
    assert sum(p["nodes"] for p in stats["passes"]) == 113
    assert main(["check", path, "--json"]) == 0
    assert "prunes" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    (["el", "FILE"], ["check", "FILE", "--json"], ["atlas", "--max-n", "3"]),
)
def test_cli_negative_el_budget_is_a_usage_error(tmp_path, capsys, argv):
    path = lat_file(tmp_path, zoo.hexagon())
    argv = [path if arg == "FILE" else arg for arg in argv]
    for budget, message in (
        ("-3", "must be nonnegative, got -3"),
        ("x", "invalid int value: 'x'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--el-budget", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--el-budget: {message}" in captured.err


def test_cli_ideals_pipes_into_check(tmp_path, capsys, monkeypatch):
    poset_path = tmp_path / "vee.poset"
    p = zoo.vee_plus_isolated()
    poset_path.write_text(format_covers(p.n, p.covers))
    assert main(["ideals", str(poset_path)]) == 0
    lat_text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(lat_text))
    assert main(["check", "-", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["distributive"] is True
    assert record["length"] == 4
    assert record["num_join_irreducibles"] == 4


def test_cli_dual_roundtrip(tmp_path, capsys, monkeypatch):
    path = lat_file(tmp_path, zoo.pentagon())
    assert main(["dual", path]) == 0
    dual_text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(dual_text))
    assert main(["dual", "-"]) == 0
    again = capsys.readouterr().out
    n, pairs = parse_covers(again)
    L = zoo.pentagon()
    # double dual gives back the same cover set
    assert (n, tuple(sorted(pairs))) == (L.n, L.covers)


def test_cli_atlas_implications_hunt(tmp_path, capsys):
    atlas_path = tmp_path / "atlas.jsonl"
    csv_path = tmp_path / "atlas.csv"
    assert main(["atlas", "--max-n", "5", "--out", str(atlas_path),
                 "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert main(["implications", str(atlas_path)]) == 0
    out = capsys.readouterr().out
    assert "expected holds" in out
    assert main(["hunt", str(atlas_path)]) == 0
    out = capsys.readouterr().out
    assert "scanned: 10 lattices" in out


def test_cli_atlas_prints_the_file_it_would_write(tmp_path, capsys):
    path = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "5", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["atlas", "--max-n", "5"]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


def _stdin(monkeypatch, data):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))


@pytest.mark.parametrize("command", ["hunt", "implications"])
def test_cli_atlas_pipes_into_hunt_and_implications(
    tmp_path, capsys, monkeypatch, command
):
    path = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "5", "--out", str(path)]) == 0
    assert main(["atlas", "--max-n", "5"]) == 0
    printed = capsys.readouterr().out.encode()
    assert main([command, str(path)]) == 0
    want = capsys.readouterr().out
    _stdin(monkeypatch, printed)
    assert main([command, "-"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["hunt", "implications"])
def test_cli_reads_an_atlas_after_leading_blank_lines(tmp_path, capsys, command):
    path = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "5", "--out", str(path)]) == 0
    assert main([command, str(path)]) == 0
    want = capsys.readouterr().out
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n \n" + path.read_text())
    assert main([command, str(padded)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["hunt", "implications"])
def test_cli_reads_an_atlas_after_a_byte_order_mark(tmp_path, capsys, command):
    path = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main([command, str(path)]) == 0
    want = capsys.readouterr()
    marked = tmp_path / "bom.jsonl"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main([command, str(marked)]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("command", ["hunt", "implications"])
def test_cli_non_utf8_atlas_on_stdin_names_the_line(capsys, monkeypatch, command):
    _stdin(monkeypatch, b"\xff\xfe{}\n")
    assert main([command, "-"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1:")


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text", [HEXAGON_LAT, HEXAGON_JSON], ids=["text", "json"])
def test_cli_check_reads_input_after_a_byte_order_mark(
    tmp_path, capsys, monkeypatch, source, text
):
    plain = tmp_path / "plain.lat"
    plain.write_text(text, encoding="utf-8")
    assert main(["check", str(plain), "--json"]) == 0
    want = capsys.readouterr().out
    data = b"\xef\xbb\xbf" + text.encode()
    if source == "file":
        path = tmp_path / "bom.lat"
        path.write_bytes(data)
        argv = ["check", str(path), "--json"]
    else:
        _stdin(monkeypatch, data)
        argv = ["check", "-", "--json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_cli_nonlattice_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "anti.lat"
    path.write_text("2\n")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_bad_file_reports_and_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.lat")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.lat"
    bad.write_text("3\n0 1 junk\n")
    assert main(["check", str(bad)]) == 2


def test_cli_negative_count_is_a_usage_error(tmp_path, capsys):
    for text in ("-3\n", '{"n": -3, "covers": []}'):
        path = tmp_path / "negative.lat"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "negative element count" in err


def test_cli_json_overflow_is_a_usage_error(tmp_path, capsys):
    for text in NON_INTEGER_JSON[:2]:
        path = tmp_path / "overflow.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "inf is not an integer" in err


def test_cli_huge_count_is_rejected_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.lat"
    path.write_text("1000000000\n0 1\n")
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "element count 1000000000" in err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_cli_closed_stdout_exits_141_with_nothing_printed():
    """A reader that takes one line and closes the pipe, as `head -1`
    does.  The atlas to n = 8 is 152 kB, more than a pipe holds, so the
    writer is still writing when the pipe closes.  Its stderr holds the
    progress lines alone."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "latticelab.cli", "atlas", "--max-n", "8"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    totals = (1, 2, 3, 5, 10, 25, 78, 300)
    assert err == "".join(f"n={n}: {t} entries so far\n" for n, t in enumerate(totals, 1))


def test_cli_implications_flags_forged_atlas(tmp_path, capsys):
    from latticelab.atlas import build_atlas, write_atlas

    entries = build_atlas(5)
    forged = []
    for e in entries:
        obj = e.record.as_json()
        if obj["left_modular"]:
            obj["el_shellable"] = "no"  # contradicts a grid arrow
        from latticelab.atlas import AtlasEntry
        from latticelab.classify import ClassificationRecord

        forged.append(
            AtlasEntry(e.n, e.canonical, ClassificationRecord.from_json(obj))
        )
    path = tmp_path / "forged.jsonl"
    write_atlas(str(path), forged)
    assert main(["implications", str(path)]) == 1
    assert "VIOLATED" in capsys.readouterr().err


def test_cli_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    lat = tmp_path / "bad.lat"
    lat.write_bytes(b"2\n0 1\xff\n")
    assert main(["check", str(lat)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    atlas = tmp_path / "bad.jsonl"
    atlas.write_bytes(b"\xff\xfe{}\n")
    assert main(["hunt", str(atlas)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_cli_atlas_rejects_a_bad_output_path_before_the_run(
    tmp_path, capsys, monkeypatch, flag
):
    def no_run(*args, **kwargs):
        raise AssertionError("build_atlas ran before the output path was checked")

    monkeypatch.setattr("latticelab.cli.build_atlas", no_run)
    missing = tmp_path / "missing" / "a.jsonl"
    assert main(["atlas", "--max-n", "7", flag, str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("existing", [False, True])
def test_cli_atlas_rejects_out_and_csv_naming_one_file(
    tmp_path, capsys, monkeypatch, existing
):
    def no_run(*args, **kwargs):
        raise AssertionError("build_atlas ran with --out and --csv on one file")

    monkeypatch.setattr("latticelab.cli.build_atlas", no_run)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "a.jsonl"
    if existing:
        path.write_text("kept\n")
    (tmp_path / "link.jsonl").symlink_to(path)
    for other in ("a.jsonl", "link.jsonl", "./a.jsonl"):
        argv = ["atlas", "--max-n", "3", "--out", str(path), "--csv", other]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--out and --csv" in err
        assert path.exists() == existing
        if existing:
            assert path.read_text() == "kept\n"


def test_cli_atlas_rejects_max_n_above_the_bound_at_once(tmp_path, capsys):
    out = tmp_path / "a.jsonl"
    start = time.perf_counter()
    assert main(["atlas", "--max-n", "11", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n <= 10, got 11" in err


def test_cli_failed_run_keeps_a_dangling_output_link(tmp_path, capsys, monkeypatch):
    """--out naming a dangling symlink writes its target; a failed run
    removes the target it created and keeps the link."""
    monkeypatch.chdir(tmp_path)
    link, target = tmp_path / "link.jsonl", tmp_path / "target.jsonl"
    link.symlink_to("target.jsonl")
    assert main(["atlas", "--max-n", "11", "--out", "link.jsonl"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert link.is_symlink() and not target.exists()
    assert main(["atlas", "--max-n", "3", "--out", "link.jsonl"]) == 0
    assert link.is_symlink() and target.read_text().count("\n") == 4


def test_cli_el_on_b5_returns_within_its_budget(tmp_path, capsys):
    "The canonical labeling before the search no longer hangs on B5."
    path = tmp_path / "b5.lat"
    L = zoo.boolean(5)
    path.write_text(format_covers(L.n, L.covers))
    start = time.perf_counter()
    assert main(["el", "--el-budget", "1000", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert "nodes: " in capsys.readouterr().out


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_cli_atlas_rejects_max_n_below_one_at_once(tmp_path, capsys, max_n):
    out = tmp_path / "a.jsonl"
    start = time.perf_counter()
    assert main(["atlas", "--max-n", max_n, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"at least 1, got {max_n}" in err


@pytest.mark.parametrize("command", ["hunt", "implications"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("n", True),
        ("length", True),
        ("el_shellable", "maybe"),
        ("canonical", "0000000380"),  # a 3-chain's form on an n=2 line
    ],
)
def test_cli_rejects_a_forged_atlas_value(tmp_path, capsys, command, field, value):
    from latticelab.atlas import build_atlas, write_atlas

    path = tmp_path / "forged.jsonl"
    write_atlas(str(path), build_atlas(3))
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    (obj if field in ("n", "canonical") else obj["record"])[field] = value
    lines[2] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3:") and field in captured.err


def test_cli_ideals_cap_zero_is_exceeded(tmp_path, capsys):
    path = tmp_path / "empty.poset"
    path.write_text(format_covers(0, []))
    assert main(["ideals", str(path), "--cap", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed the cap of 0 elements" in captured.err


@pytest.mark.parametrize("cap", ["4097", "-1"])
def test_cli_ideals_rejects_a_cap_outside_the_element_bound(
    tmp_path, capsys, cap
):
    # 2^20 ideals: the cap must be refused before any is built.
    path = tmp_path / "antichain.poset"
    p = zoo.antichain(20)
    path.write_text(format_covers(p.n, p.covers))
    start = time.perf_counter()
    assert main(["ideals", str(path), "--cap", cap]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"ideal cap {cap} is outside 0..4096" in captured.err


@pytest.mark.parametrize("command", ["check", "label", "el"])
def test_cli_rejects_a_bad_dot_path_before_the_work(
    tmp_path, capsys, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the --dot path was checked")

    for name in ("classify", "el_search", "left_modular_chain"):
        monkeypatch.setattr(f"latticelab.cli.{name}", no_work)
    missing = tmp_path / "missing" / "x.dot"
    path = lat_file(tmp_path, zoo.m3())
    assert main([command, path, "--dot", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command, lattice",
    [("label", zoo.jsd_not_left_modular), ("el", zoo.hexagon)],
)
def test_cli_run_that_draws_nothing_leaves_no_dot_file(
    tmp_path, capsys, command, lattice
):
    dot_path = tmp_path / "x.dot"
    argv = [command, lat_file(tmp_path, lattice()), "--dot", str(dot_path)]
    assert main(argv) == 0
    assert not dot_path.exists()
    dot_path.write_text("kept")  # a file that was there stays as it was
    assert main(argv) == 0
    assert dot_path.read_text() == "kept"


def test_cli_unexpected_exception_is_exit_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr("latticelab.cli.classify", broken)
    assert main(["check", lat_file(tmp_path, zoo.m3())]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.endswith("\ninternal error: KeyError: 'lost'\n")
