"""Command-line front door.

Exit codes: 0 success; 1 a structural fact that holds for every finite
lattice was violated (a bug, with a diagnostic dump); 2 usage or input
errors; 3 any other exception (a bug): its traceback, then a last line
"internal error: TYPE: MESSAGE"; 141 (128 + SIGPIPE) its standard output
was closed before everything was written, with nothing printed.  '-'
reads stdin wherever a file is expected.
"""

import argparse
import functools
import json
import os
import sys
import traceback
from contextlib import contextmanager
from itertools import combinations

from .atlas import (
    build_atlas,
    check_implications,
    hunt_questions,
    read_atlas,
    write_atlas,
    write_csv,
)
from .classify import classify
from .errors import FormatError, InvariantViolation, LatticeError
from .io import format_covers, parse_covers, to_dot
from .irreducibles import (
    perspectivity_witness_recursive,
    perspectivity_witness_scan,
)
from .lattice import dual, ideal_lattice, try_lattice
from .poset import MAX_ELEMENTS, poset_from_covers
from .properties import left_modular_chain
from .shellability import (
    DEFAULT_EL_BUDGET,
    el_search,
    format_labeling,
    lm_labeling,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
_EXIT_INTERNAL = 3
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer it killed


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_poset(path):
    n, pairs = parse_covers(_read_text(path))
    return poset_from_covers(n, pairs)


def _load_lattice(path):
    return try_lattice(_load_poset(path))


@contextmanager
def _claimed_outputs(args):
    """Open every output path (--dot, --out, --csv) before the work, so a
    bad one, or two flags naming one file, fails at once; appending
    truncates nothing.  A file created here and still empty at the end
    (the run failed or drew nothing) goes.  A path that is a dangling
    symlink creates its target: the target goes, and the link stays."""
    given = vars(args)
    flags = [k for k in ("dot", "out", "csv") if given.get(k)]
    paths = [given[k] for k in flags]
    created = [os.path.realpath(path) for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "a", encoding="utf-8").close()
        for first, second in combinations(flags, 2):
            if os.path.samefile(given[first], given[second]):
                raise LatticeError(
                    f"--{first} and --{second} name one file: {given[second]}"
                )
        yield
    finally:
        for path in created:
            if os.path.isfile(path) and not os.path.getsize(path):
                os.remove(path)


def _emit_dot(args, poset, labeling=None):
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(poset, labeling=labeling))


def cmd_check(args):
    L = _load_lattice(args.file)
    record = classify(L, el_budget=args.el_budget)
    _emit_dot(args, L)
    if args.json:
        print(json.dumps(record.as_json(), sort_keys=True, indent=2))
        return EXIT_OK
    rows = [
        ("elements", L.n),
        ("covers", len(L.covers)),
        ("length", record.length),
        ("join irreducibles", record.num_join_irreducibles),
        ("meet irreducibles", record.num_meet_irreducibles),
        ("distributive", record.distributive),
        ("join semidistributive", record.join_semidistributive),
        ("meet semidistributive", record.meet_semidistributive),
        ("semidistributive", record.semidistributive),
        ("join extremal", record.join_extremal),
        ("extremal", record.extremal),
        ("left modular", record.left_modular),
        ("EL-shellable", record.el_shellable),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    if record.witnesses:
        print("witnesses:")
        for key in sorted(record.witnesses):
            print(f"  {key}: {record.witnesses[key]}")
    return EXIT_OK


def cmd_witness(args):
    L = _load_lattice(args.file)
    pair = (args.a, args.b)
    scan = perspectivity_witness_scan(L, pair)
    descent = perspectivity_witness_recursive(L, pair)
    print(f"scan:    j={scan.j} j_star={scan.j_star}")
    print(f"descent: j={descent.j} j_star={descent.j_star}")
    return EXIT_OK


def cmd_label(args):
    L = _load_lattice(args.file)
    chain = left_modular_chain(L)
    if chain is None:
        print("no left-modular chain")
        return EXIT_OK
    labeling = lm_labeling(L, chain)
    print("chain: " + " ".join(map(str, chain)))
    if labeling:
        print(format_labeling(labeling))
    _emit_dot(args, L, labeling)
    return EXIT_OK


def cmd_el(args):
    L = _load_lattice(args.file)
    result = el_search(L, budget=args.el_budget)
    if args.stats:
        print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)
    print(f"status: {result.status}")
    print(f"nodes: {result.nodes}")
    if result.refuted_by is not None:
        print("refuted_by: " + " ".join(map(str, result.refuted_by)))
    if result.labeling is not None:
        if result.labeling:
            print(format_labeling(result.labeling))
        _emit_dot(args, L, result.labeling)
    return EXIT_OK


def cmd_ideals(args):
    p = _load_poset(args.file)
    L, _ = ideal_lattice(p, cap=args.cap)
    sys.stdout.write(format_covers(L.n, L.covers))
    _emit_dot(args, L)
    return EXIT_OK


def cmd_dual(args):
    L = _load_lattice(args.file)
    D = dual(L)
    sys.stdout.write(format_covers(D.n, D.covers))
    _emit_dot(args, D)
    return EXIT_OK


def cmd_atlas(args):
    "Without --out and --csv, print the atlas file --out would hold."
    entries = build_atlas(
        args.max_n,
        el_budget=args.el_budget,
        progress=lambda n, total: print(
            f"n={n}: {total} entries so far", file=sys.stderr
        ),
    )
    if args.csv:
        write_csv(args.csv, entries)
    if args.out or not args.csv:
        out = args.out or sys.stdout
        write_atlas(out, entries, el_budget=args.el_budget)
    return EXIT_OK


def _read_atlas(path):
    return read_atlas(sys.stdin.buffer if path == "-" else path)


def cmd_implications(args):
    _, entries = _read_atlas(args.atlas)
    report = check_implications(entries)
    for line in report.summary_lines():
        print(line)
    if not report.ok:
        print("IMPLICATION GRID VIOLATED", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_hunt(args):
    _, entries = _read_atlas(args.atlas)
    report = hunt_questions(entries)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def _el_budget(text):
    "A node budget: a nonnegative integer."
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {budget}")
    return budget


@functools.cache
def build_parser():
    "The argument parser, built on the first call and shared by the rest."
    parser = argparse.ArgumentParser(
        prog="latticelab",
        description="Analyze finite lattices and build the small-lattice atlas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "classify a lattice file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--el-budget", type=_el_budget, default=DEFAULT_EL_BUDGET)
    p.add_argument("--dot", metavar="PATH")

    p = add("witness", cmd_witness, "perspectivity witness for a cover, both ways")
    p.add_argument("file")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("label", cmd_label, "left-modular chain and its induced labeling")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH")

    p = add(
        "el",
        cmd_el,
        "exact EL-shellability decision: left-modular certificate, "
        "skeleton test, then search",
    )
    p.add_argument("file")
    p.add_argument("--el-budget", type=_el_budget, default=DEFAULT_EL_BUDGET)
    p.add_argument("--dot", metavar="PATH")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the stage that decided, and the certificate or the "
        "search's plan size, nodes and prunes, as JSON on stderr",
    )

    p = add("ideals", cmd_ideals, "write the lattice of down-sets of a poset")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=MAX_ELEMENTS)
    p.add_argument("--dot", metavar="PATH")

    p = add("dual", cmd_dual, "write the dual lattice")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH")

    p = add("atlas", cmd_atlas, "enumerate and classify all small lattices")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--el-budget", type=_el_budget, default=DEFAULT_EL_BUDGET)

    p = add("implications", cmd_implications, "scan the implication grid over an atlas")
    p.add_argument("atlas")

    p = add("hunt", cmd_hunt, "list open-question counterexample candidates")
    p.add_argument("atlas")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _claimed_outputs(args):
            return args.func(args)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION (library bug): {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        # The reader is gone.  Point stdout at the null device, so that
        # the interpreter's last flush has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: keep its traceback, then say so
        traceback.print_exc()
        name = type(exc).__name__
        print(f"internal error: {name}: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
