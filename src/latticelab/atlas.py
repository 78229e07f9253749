"""Exhaustive catalog of small lattices and the implication grid over it.

Enumeration up to isomorphism runs two ways.  The production generator
grows lattices one coatom at a time (a lattice minus a coatom is a
lattice, so each class is a smaller one with a new element right under
its top), rejecting isomorphs by canonical form.  Its scan walks only
the down-sets of the parent, and keeps only the new coatoms with a
down-set as large as any other coatom's, since removing such a coatom
already reaches every class: for n <= 10 it walks 33,533 down-sets and
gives the lattice test the 16,914 that are large enough.  Of the 11,213
extensions that pass, the generator skips each whose mask one of the
parent's automorphisms (found by its own canonical search) maps
lower: 7,946 searches in all, the one-element base included, for 7,372
classes.  Everything about a child but its canonical labeling comes
from its parent.  A candidate is searched on cover lists and levels
edited from the parent's, with no poset built.  Only a kept class is
built, from the upper covers its search ran on, the meet row the scan
found for the new element, and its parent's join and meet tables.  A
level's kept classes are built a block at a time: their parents' tables
are stacked, the new element's row and column added to all of them at
once, and one fancy-index pass writes them into canonical slots, where
the meets give the order.  Each class's tables are views of its block's
arrays, and as for every lattice, numpy refuses to make them writable.
So past one element the generator neither reduces, decodes a form nor
calls try_lattice.  The naive oracle filters all upper-triangular cover
sets and exists only to cross-check the generator at small sizes.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import lattice
from .classify import ClassificationRecord, classify
from .errors import (
    AtlasParseError,
    BoundExceededError,
    NotALatticeError,
    NotReducedError,
)
from .lattice import Lattice, try_lattice
from .poset import (
    _canonical_search,
    _form_size,
    _read_only,
    _seed_canonical,
    canonical_form,
    canonicalize,
    poset_from_canonical,
    poset_from_covers,
    transitive_reduce,
)
from .shellability import DEFAULT_EL_BUDGET

PRACTICAL_MAX_N = 10
SCHEMA_VERSION = 1
_NAIVE_MAX_N = 6  # the naive oracle scans 2^(n(n-1)/2) cover sets
_KEEP_EXAMPLES = 5  # counterexamples kept per arrow of the grid


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _down_set_extensions(L):
    """(mask, meets) for each down-set D of L minus its top, in increasing
    order of its bitmask, over which a new element e = L.n right under
    the top keeps L a lattice and is a coatom with a down-set as large as
    any other coatom's: D cut below each x but the top is the down-set of
    one element, e ∧ x, and |D| + 1 is at least the size of every
    coatom's down-set in L.  meets is bytes, e ∧ x at x, with e ∧ top = e.

    A mask has bit x for element x, as L.down_sets does, and never the
    top's bit.  The down-sets are walked along L.topological_order: each
    element joins every down-set found so far that holds the rest of its
    own down-set, so each down-set comes once and no other set is
    visited.  Only those large enough get the cut test, one lookup per x
    in an index from each down-set of an element but the top to that
    element: a down-set has a single maximal member exactly when it is
    the down-set of that member, which is then the meet.
    """
    e, top, down = L.n, L.top, L.down_sets
    need = max((down[c].bit_count() - 1 for c in L.coatoms), default=0)
    element = {d: x for x, d in enumerate(down) if x != top}
    masks = [0]
    for x in L.topological_order[:-1]:  # the top comes last
        below = down[x] ^ 1 << x
        masks += [m | 1 << x for m in masks if m & below == below]
    extensions = []
    for m in sorted(masks):
        if m.bit_count() >= need:
            meets = [element.get(m & d) for d in down]
            meets[top] = e
            if None not in meets:
                extensions.append((m, bytes(meets)))
    return extensions


def _candidate_covers(L, mask):
    """(ups, downs, levels): the upper covers, lower covers and level of
    each element of the candidate L + mask, that is L with a new element
    e = L.n right under its top, above the members of the down-set mask.
    They are edited from L's own in O(n), with no poset built, and this
    is the one place that says what the candidate covers.

    Only the members of mask, e and the top change: a coatom in mask
    loses the top as its upper cover, each maximal member of mask (its
    up-set meets mask in itself alone) gains e, e is covered by the top,
    and the top covers e and the coatoms outside mask.  e is the largest
    id, so every tuple stays sorted.
    """
    e, top, up = L.n, L.top, L.up_sets
    ups = [*L.upper_covers, (top,)]
    downs = [*L.lower_covers]
    levels = [*L.levels, 0]
    outside = []
    for c in L.coatoms:
        if mask >> c & 1:
            ups[c] = ()
        else:
            outside.append(c)
    maximal = tuple(m for m in range(e) if mask >> m & 1 and up[m] & mask == 1 << m)
    for m in maximal:
        ups[m] += (e,)
        levels[e] = max(levels[e], levels[m] + 1)
    downs.append(maximal)
    downs[top] = (*outside, e)
    levels[top] = max(levels[top], levels[e] + 1)
    return ups, downs, levels


def _class_block(n, block):
    """The classes of a block of candidates with n elements, as
    canonically labeled Lattices read off their parents.  Each candidate
    is (L, mask, meets, perm, automorphisms, form, ups): the parent L, the
    down-set mask with its meet row from _down_set_extensions, the
    candidate's canonical search result and its upper covers as
    _candidate_covers edited them.

    The k parents' join and meet tables are gathered into (k, n, n)
    arrays.  On L's elements the meet is L's, and the join is L's but
    that two members of mask whose join in L is the top now join to
    e = n - 1.  e joins a member of mask to e and anything else to the
    top, and meets are its meet row.  One fancy-index pass moves every
    class into canonical slots, where the order is read off the meet:
    a <= b exactly when a ∧ b = a.  The arrays are made read-only once;
    each class's tables are views of them, which the Lattice constructor
    takes as they are, with no poset built.  A class's covers are its
    search's upper covers in canonical slots, sorted once as codes
    a * n + b and read as the shared tuples of _pairs(n).  The bottom is
    e ∧ L's bottom: e itself when L has one element, where mask is empty.
    """
    k, e = len(block), n - 1
    parents = [c[0] for c in block]
    tops = np.array([L.top for L in parents], dtype=np.int32)
    masks = np.array([c[1] for c in block], dtype=np.int64)
    join = np.empty((k, n, n), dtype=np.int32)
    meet = np.empty((k, n, n), dtype=np.int32)
    inside = (masks[:, None] >> np.arange(e) & 1).astype(bool)
    join[:, :e, :e] = [L.join for L in parents]
    old = join[:, :e, :e]
    old[(old == tops[:, None, None]) & inside[:, :, None] & inside[:, None, :]] = e
    join[:, e, :e] = join[:, :e, e] = np.where(inside, e, tops[:, None])
    meet[:, :e, :e] = [L.meet for L in parents]
    rows = np.frombuffer(b"".join(c[2] for c in block), dtype=np.uint8)
    meet[:, e, :e] = meet[:, :e, e] = rows.reshape(k, e)
    join[:, e, e] = meet[:, e, e] = e

    # Element v of class c goes to slot perm[v]: slot s holds inverse[c, s].
    ids = np.array([c[3] for c in block], dtype=np.int32)
    inverse = np.argsort(ids, axis=1)
    index = np.arange(k)[:, None, None], inverse[:, :, None], inverse[:, None, :]
    join = _read_only(ids[index[0], join[index]])
    meet = _read_only(ids[index[0], meet[index]])
    leq = _read_only(meet == np.arange(n)[:, None])
    pairs = _pairs(n)
    classes = []
    for c, (L, _, meets, perm, automorphisms, form, ups) in enumerate(block):
        codes = sorted([perm[a] * n + perm[b] for a, bs in enumerate(ups) for b in bs])
        covers = tuple(map(pairs.__getitem__, codes))
        bot, top = perm[meets[L.bot]], perm[L.top]
        M = Lattice(n, covers, leq[c], join[c], meet[c], bot, top)
        classes.append(_seed_canonical(M, form, automorphisms))
    return classes


@lru_cache(maxsize=None)
def _pairs(n):
    """The tuple (a, b) at a * n + b, one per pair of ids below n: the
    covers of every class with n elements share them, and their codes
    sort as the pairs do."""
    return tuple((a, b) for a in range(n) for b in range(n))


def _least_image(mask, automorphisms):
    "Whether none of the automorphisms maps the bitmask mask to a smaller one."
    members = [x for x in range(mask.bit_length()) if mask >> x & 1]
    return all(sum(1 << g[x] for x in members) >= mask for g in automorphisms)


@lru_cache(maxsize=None)
def _lattices(n):
    """All n-element lattices up to isomorphism, canonically labeled and
    sorted by canonical form.

    Each candidate is an (n-1)-element lattice L with a new element
    e = n-1 right under its top, above a down-set D from
    _down_set_extensions; the one-element lattice is the only candidate
    for n = 1.  Its one canonical search, on the cover lists and levels
    _candidate_covers edits from L's, rejects isomorphs, and a level
    keeps, per form, only the first candidate's parent, D with the new
    element's meet row, search result and upper covers.  In the order of
    their forms, the classes are then built by _class_block from their
    parents' tables, in blocks of as many classes as fit lattice._BLOCK
    table cells, and each is seeded with its relabeling, form and
    automorphisms so that it is never searched again.

    A mask that one of L's automorphisms maps to a smaller one is not
    searched, and this changes no class.  Masks are tried in increasing
    order.  An automorphism g maps down-sets, their cuts and their sizes
    to those of the image, so the smaller image of such a mask is an
    extension tried before it, with an isomorphic candidate.  By
    induction on the mask, each extension's form is kept by the time its
    mask has been tried, and the first mask of each form is never
    skipped, so every form keeps the same first parent, mask and
    relabeling as with no skip.  This needs only that each automorphism
    L's search returned is one, not that they generate L's whole group.
    Each image is tested once, with no orbit walked, so the skipped masks
    are some of those that products of the automorphisms map lower;
    through n = 12 they are all of them.

    The candidate is a lattice.  The cut test makes D cut below each x
    other than the top a principal down-set, the down-set of e ∧ x, so
    every pair with e has a meet, and so has every pair of L.  A finite
    meet-semilattice with a top is a lattice.  In particular two members
    of D with a join z below the top have z in D, as D cut below z is
    the down-set of a member above both; so the join of members of D is
    e exactly when it is the top in L.

    The extensions make the new element a coatom with the largest
    down-set, and this loses no class.  Let C be an n-element lattice and
    c a coatom of C with the largest |down-set of c|.  C minus c is a
    lattice, isomorphic to some parent P, and the image D of (down-set
    of c) minus c is a down-set of P that passes the cut test; the
    candidate P + D is C with c as its new element.  The candidate's
    other coatoms are P's coatoms outside D, with the same down-sets as
    in P; a coatom of P inside D has at most |D| elements below it, so
    it never blocks, and comparing |D| + 1 with every coatom of P is the
    whole test.  Every class is still reached, and the form set removes
    the duplicates."""
    if n == 1:
        L = try_lattice(transitive_reduce(1, []))
        canonical_form(L)  # searched once, as every candidate is
        return (L,)
    forms = {}
    for L in _lattices(n - 1):
        symmetries = L._canonical[2]
        for mask, meets in _down_set_extensions(L):
            if symmetries and not _least_image(mask, symmetries):
                continue
            ups, downs, levels = _candidate_covers(L, mask)
            perm, form, automorphisms = _canonical_search(n, ups, downs, levels)
            if form not in forms:
                forms[form] = (L, mask, meets, perm, automorphisms, form, ups)
    order = sorted(forms)
    size = max(1, lattice._BLOCK // (n * n))
    classes = []
    for i in range(0, len(order), size):
        classes += _class_block(n, [forms.pop(form) for form in order[i:i + size]])
    return tuple(classes)


def _check_practical(n):
    if n < 1:
        raise BoundExceededError(f"n must be at least 1, got {n}")
    if n > PRACTICAL_MAX_N:
        raise BoundExceededError(
            f"enumeration supports n <= {PRACTICAL_MAX_N}, got {n}"
        )


def enumerate_lattices(n):
    """All isomorphism classes of n-element lattices, each once, sorted by
    canonical form and canonically labeled.  The lattices are built once
    per process and shared between calls; the list is new each time."""
    _check_practical(n)
    return list(_lattices(n))


def enumerate_lattices_naive(n):
    """Cross-check oracle: filter every upper-triangular cover set.

    Any poset can be labeled along a linear extension, so scanning cover
    sets with lower < upper hits every isomorphism class.  Exponential in
    n(n-1)/2; guarded to small n.
    """
    _check_practical(n)
    if n > _NAIVE_MAX_N:
        raise BoundExceededError(
            f"naive enumeration is capped at n <= {_NAIVE_MAX_N}"
        )
    slots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    found = {}
    for mask in range(1 << len(slots)):
        covers = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        try:
            L = try_lattice(poset_from_covers(n, covers))
        except (NotReducedError, NotALatticeError):
            continue
        found.setdefault(canonical_form(L), L)
    return [canonicalize(found[f]) for f in sorted(found)]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _json_line(obj):
    "One line of an atlas file: compact JSON with sorted keys."
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class AtlasEntry:
    n: int
    canonical: bytes
    record: ClassificationRecord

    def as_json_line(self):
        return _json_line({
            "canonical": self.canonical.hex(),
            "n": self.n,
            "record": self.record.as_json(),
        })

    @classmethod
    def from_json_obj(cls, obj):
        "The entry an atlas line holds; TypeError or ValueError for a bad field."
        entry = cls(
            n=obj["n"],
            canonical=bytes.fromhex(obj["canonical"]),
            record=ClassificationRecord.from_json(obj["record"]),
        )
        for item in (entry, entry.record):
            for f in fields(item):
                if type(getattr(item, f.name)) is not f.type:
                    raise TypeError(f"{f.name} is not {f.type.__name__}")
        if entry.record.el_shellable not in ("yes", "no", "unknown"):
            raise ValueError(f"el_shellable {entry.record.el_shellable!r}")
        if _form_size(entry.canonical) != entry.n:
            raise ValueError(f"canonical form is not of size n={entry.n}")
        return entry


def entry_lattice(entry):
    "Rebuild the lattice an entry describes (canonical labels)."
    return try_lattice(poset_from_canonical(entry.canonical))


def build_atlas(max_n, el_budget=DEFAULT_EL_BUDGET, progress=None):
    """Classify every lattice with up to max_n elements.

    Entries come out sorted by (n, canonical form), so runs with equal
    parameters produce identical files when write_atlas writes them.  A
    max_n outside 1..PRACTICAL_MAX_N raises BoundExceededError before any
    lattice is enumerated.
    """
    _check_practical(max_n)
    entries = []
    for n in range(1, max_n + 1):
        for L in enumerate_lattices(n):
            entries.append(
                AtlasEntry(
                    n=n,
                    canonical=canonical_form(L),
                    record=classify(L, el_budget=el_budget),
                )
            )
        if progress:
            progress(n, len(entries))
    return entries


def write_atlas(out, entries, el_budget=DEFAULT_EL_BUDGET):
    """Write entries to out, a path or a text stream such as sys.stdout,
    as one JSON object per line under a schema header, sorted by (n,
    canonical form) so the bytes are deterministic.  The header's max_n
    is the largest entry n, 0 when there is none."""
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8") as fh:
            return write_atlas(fh, entries, el_budget)
    entries = sorted(entries, key=lambda e: (e.n, e.canonical))
    max_n = max((e.n for e in entries), default=0)
    header = {"schema": SCHEMA_VERSION, "max_n": max_n, "el_budget": el_budget}
    out.write(_json_line(header) + "\n")
    for entry in entries:
        out.write(entry.as_json_line() + "\n")
    return entries


def read_atlas(source):
    """Parse an atlas from source, a path or a binary stream such as
    sys.stdin.buffer; returns (header, entries).  A byte-order mark
    (U+FEFF) leading the first line is dropped, blank lines are skipped,
    and the first other line is the schema header.

    Raises AtlasParseError, naming the line, for text that is not UTF-8,
    a line that is not a JSON object, and an entry field of the wrong type.
    """
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return read_atlas(fh)
    header = None
    entries = []
    for lineno, raw in enumerate(source, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise AtlasParseError(lineno, f"not UTF-8: {exc}") from exc
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AtlasParseError(lineno, f"bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise AtlasParseError(lineno, "not a JSON object")
        if header is None:
            schema = obj.get("schema")
            if type(schema) is not int or schema != SCHEMA_VERSION:
                raise AtlasParseError(lineno, f"unsupported schema {schema!r}")
            header = obj
            continue
        try:
            entries.append(AtlasEntry.from_json_obj(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise AtlasParseError(lineno, f"bad entry: {exc!r}") from exc
    if header is None:
        raise AtlasParseError(1, "missing schema header")
    return header, entries


CSV_COLUMNS = (
    "n", "canonical", "distributive", "jsd", "msd", "sd",
    "join_extremal", "extremal", "left_modular", "el", "lenL", "J", "M",
)


def write_csv(path, entries):
    """Flat per-lattice summary: n, the form, then the record's fields in
    order but the witnesses, each bool as 0/1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for e in sorted(entries, key=lambda e: (e.n, e.canonical)):
            record = e.record.as_json()
            del record["witnesses"]
            row = [e.n, e.canonical.hex(), *record.values()]
            cells = (int(v) if type(v) is bool else v for v in row)
            fh.write(",".join(map(str, cells)) + "\n")


# ---------------------------------------------------------------------------
# The implication grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    """One arrow of the property grid.

    expected is "holds" (must scan clean), "refuted" (a counterexample is
    known) or "open" (scanned and reported, never asserted).  designated
    names the zoo lattice the literature offers as the refuting example.
    """

    arrow_id: str
    premises: tuple
    conclusion: str
    expected: str
    designated: str | None = None


_SHORT_NAMES = {"jsd": "join_semidistributive", "sd": "semidistributive"}


def _arrow(arrow_id, expected, designated=None):
    """The arrow arrow_id names: its premises joined by "&", then "=>"
    and its conclusion, with jsd and sd short for the semidistributive
    flags."""
    *premises, conclusion = (
        _SHORT_NAMES.get(name, name) for name in re.split("&|=>", arrow_id)
    )
    return Arrow(arrow_id, tuple(premises), conclusion, expected, designated)


ARROWS = (
    # row: all lattices
    _arrow("extremal=>join_extremal", "holds"),
    _arrow("join_extremal=>extremal", "refuted",
           "left_modular_not_semidistributive"),
    _arrow("join_extremal=>left_modular", "refuted", "jsd_not_left_modular"),
    _arrow("left_modular=>join_extremal", "refuted", "m3"),
    _arrow("left_modular=>el_shellable", "holds"),
    _arrow("el_shellable=>left_modular", "refuted", "jsd_not_left_modular"),
    # row: join-semidistributive lattices
    _arrow("jsd&extremal=>join_extremal", "holds"),
    _arrow("jsd&join_extremal=>extremal", "refuted",
           "left_modular_not_semidistributive"),
    _arrow("jsd&join_extremal=>left_modular", "refuted",
           "jsd_not_left_modular"),
    _arrow("jsd&left_modular=>join_extremal", "holds"),
    _arrow("jsd&left_modular=>el_shellable", "holds"),
    _arrow("jsd&el_shellable=>left_modular", "refuted",
           "jsd_not_left_modular"),
    # row: semidistributive lattices
    _arrow("sd&extremal=>join_extremal", "holds"),
    _arrow("sd&join_extremal=>extremal", "holds"),
    _arrow("sd&join_extremal=>left_modular", "holds"),
    _arrow("sd&left_modular=>join_extremal", "holds"),
    _arrow("sd&left_modular=>el_shellable", "holds"),
    _arrow("sd&el_shellable=>left_modular", "open"),
    _arrow("sd&el_shellable=>extremal", "open"),
    # columns: does the column property force the row hypothesis?
    _arrow("extremal=>jsd", "refuted", "extremal_not_left_modular"),
    _arrow("join_extremal=>jsd", "refuted", "extremal_not_left_modular"),
    _arrow("left_modular=>jsd", "refuted", "m3"),
    _arrow("el_shellable=>jsd", "refuted", "m3"),
    _arrow("jsd&extremal=>sd", "holds"),
    _arrow("jsd&join_extremal=>sd", "refuted",
           "left_modular_not_semidistributive"),
    _arrow("jsd&left_modular=>sd", "refuted",
           "left_modular_not_semidistributive"),
    _arrow("jsd&el_shellable=>sd", "refuted",
           "left_modular_not_semidistributive"),
)


@dataclass(frozen=True)
class ArrowResult:
    arrow: Arrow
    violations: int
    counterexamples: tuple  # canonical forms, at most a handful kept
    skipped_unknown_el: int
    designated_found: bool | None

    @property
    def ok(self):
        if self.arrow.expected == "holds":
            return self.violations == 0
        return True  # refuted/open arrows never fail the scan


@dataclass(frozen=True)
class ImplicationReport:
    results: tuple
    max_n: int

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def summary_lines(self):
        lines = []
        for r in self.results:
            arrow = r.arrow
            if arrow.expected == "holds":
                state = "holds" if r.violations == 0 else "VIOLATED"
            elif arrow.expected == "open":
                state = f"open ({r.violations} candidates)"
            else:
                state = (
                    f"refuted ({r.violations} counterexamples)"
                    if r.violations
                    else "no counterexample in range"
                )
            extra = ""
            if arrow.designated:
                mark = {True: "found", False: "MISSING", None: "out of range"}[
                    r.designated_found
                ]
                extra = f"  [designated {arrow.designated}: {mark}]"
            if r.skipped_unknown_el:
                extra += f"  [{r.skipped_unknown_el} skipped: EL unknown]"
            lines.append(
                f"{arrow.arrow_id:45s} expected {arrow.expected:8s} -> "
                f"{state}{extra}"
            )
        return lines


def _violators(arrow, entries):
    """(violators, skipped): the entries that meet every premise of arrow
    but fail its conclusion, in the order given, and the number of entries
    left out because arrow mentions EL-shellability and their EL status
    is unknown."""
    needs_el = "el_shellable" in (*arrow.premises, arrow.conclusion)
    violators = []
    skipped = 0
    for entry in entries:
        record = entry.record
        if needs_el and record.el_shellable == "unknown":
            skipped += 1
        elif all(map(record.flag, arrow.premises)):
            if not record.flag(arrow.conclusion):
                violators.append(entry)
    return violators, skipped


def _zoo_canonical_forms():
    "Name -> canonical form of every zoo lattice some arrow designates."
    from . import zoo

    names = {arrow.designated for arrow in ARROWS if arrow.designated}
    return {name: canonical_form(getattr(zoo, name)()) for name in names}


def check_implications(entries):
    """Scan every grid arrow against a set of classified entries.

    Arrows expected to hold must have zero violations; refuted arrows
    report the counterexamples found (the designated zoo witness must be
    among them whenever its size is in range).  Entries with unknown
    shellability are skipped for arrows that mention it.
    """
    entries = list(entries)
    max_n = max((e.n for e in entries), default=0)
    designated_forms = _zoo_canonical_forms()
    results = []
    for arrow in ARROWS:
        violators, skipped = _violators(arrow, entries)
        designated_found = None
        if arrow.designated:
            form = designated_forms[arrow.designated]
            if _form_size(form) <= max_n:
                designated_found = any(e.canonical == form for e in violators)
        examples = tuple(e.canonical for e in violators[:_KEEP_EXAMPLES])
        results.append(
            ArrowResult(arrow, len(violators), examples, skipped, designated_found)
        )
    return ImplicationReport(tuple(results), max_n)


# ---------------------------------------------------------------------------
# Question hunts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HuntReport:
    """Counterexample candidates for the two open questions.

    Both questions quantify over semidistributive EL-shellable lattices:
    the first asks whether such a lattice can avoid being left modular,
    the second whether it can avoid being extremal.  The candidates are
    the violators of the grid's two open arrows.  The second question
    reduces to the first: by the paper SD and LM imply join extremal, and
    left modularity is self-dual, so SD and LM imply extremal.  Hence
    every not_extremal entry is also in not_left_modular.  The report
    only lists findings up to the scanned size; it never claims an answer.
    """

    not_left_modular: tuple
    not_extremal: tuple
    unknown_el: tuple
    scanned: dict

    def summary_lines(self):
        lines = [
            f"scanned: {sum(self.scanned.values())} lattices "
            f"({', '.join(f'n={n}: {c}' for n, c in sorted(self.scanned.items()))})",
            f"semidistributive, EL-shellable, not left modular: "
            f"{len(self.not_left_modular)}",
            f"semidistributive, EL-shellable, not extremal: "
            f"{len(self.not_extremal)}",
            f"semidistributive with undecided EL status: {len(self.unknown_el)}",
        ]
        for entry in self.not_left_modular:
            lines.append(f"  candidate (not left modular): n={entry.n} "
                         f"{entry.canonical.hex()}")
        for entry in self.not_extremal:
            lines.append(f"  candidate (not extremal): n={entry.n} "
                         f"{entry.canonical.hex()}")
        for entry in self.unknown_el:
            lines.append(f"  undecided: n={entry.n} {entry.canonical.hex()}")
        return lines


def hunt_questions(entries):
    """The violators of the open arrows sd&el_shellable=>left_modular and
    sd&el_shellable=>extremal, and the SD entries whose EL status is
    unknown, each sorted by (n, canonical form)."""
    entries = sorted(entries, key=lambda e: (e.n, e.canonical))
    not_lm, not_ext = (
        tuple(_violators(arrow, entries)[0])
        for arrow in ARROWS
        if arrow.expected == "open"
    )
    unknown = tuple(
        e for e in entries
        if e.record.semidistributive and e.record.el_shellable == "unknown"
    )
    scanned = dict(Counter(e.n for e in entries))
    return HuntReport(not_lm, not_ext, unknown, scanned)
