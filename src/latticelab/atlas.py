"""Exhaustive catalog of small lattices and the implication grid over it.

Enumeration up to isomorphism runs two ways.  The production generator
grows lattices one coatom at a time (a lattice minus a coatom is a
lattice, so each class is a smaller one with a new element right under
its top), rejecting isomorphs by canonical form.  Its scan keeps only
the new coatoms with a down-set as large as any other coatom's, since
removing such a coatom already reaches every class, and it generates
only the bitmasks of that size: for n <= 10 the lattice test sees the
108,109 of 308,359 bitmasks that are large enough, and 11,214
candidates are searched, not 20,304.  Everything about a child but its
canonical labeling comes from its parent.  A candidate is searched on
cover lists and levels edited from the parent's, with no poset built;
only a kept class is built, its covers, order and join and meet tables
read off the parent's and written straight into canonical slots.  So
past one element the generator neither reduces, decodes a form nor
calls try_lattice.  The naive oracle filters all upper-triangular cover
sets and exists only to cross-check the generator at small sizes.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .classify import ClassificationRecord, classify
from .errors import (
    AtlasParseError,
    BoundExceededError,
    InvariantViolation,
    NotALatticeError,
    NotReducedError,
)
from .lattice import Lattice, try_lattice
from .poset import (
    FinitePoset,
    _canonical_search,
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


def _masks_with_at_least(width, need):
    """Every int below 1 << width with at least need bits set, in
    increasing order.  The low half of the bits is read from lists of
    the values with at least k bits set, so no mask below the size is
    visited."""
    half = width // 2
    lows = range(1 << half)
    at_least = [[x for x in lows if x.bit_count() >= k] for k in range(half + 2)]
    for high in range(1 << (width - half)):
        k = min(max(need - high.bit_count(), 0), half + 1)
        shifted = high << half
        for low in at_least[k]:
            yield shifted | low


def _down_set_extensions(L):
    """Bitmasks, in increasing order, of the down-sets D of L minus its
    top over which a new element right under the top keeps L a lattice
    and is a coatom with a down-set as large as any other coatom's: D cut
    below any element but the top has a single maximal member, and
    |D| + 1 is at least the size of every coatom's down-set in L.

    A mask has bit x for element x, as L.down_sets does, and never the
    top's bit.  Only masks large enough are generated, so the cut test
    runs on those alone.  A set D passes the cut test exactly when D cut
    below every element but the top is a principal down-set: the cut
    below a member x is then the down-set of x, so D is down-closed, and
    a down-set has a single maximal member exactly when it is the
    down-set of that member.
    """
    n, top, down = L.n, L.top, L.down_sets
    need = max((down[c].bit_count() - 1 for c in L.coatoms), default=0)
    principal = down[:top] + down[top + 1:]
    principal_set = set(principal)
    masks = _masks_with_at_least(n - 1, need)
    masks = (m + (m >> top << top) for m in masks)  # skip top's bit
    return [
        mask for mask in masks if all(mask & d in principal_set for d in principal)
    ]


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


def _child(L, mask, perm, form):
    """The class of the candidate L + mask as a canonically labeled
    Lattice, read off L: perm is the candidate's canonical relabeling
    and form its canonical form.

    The covers are those _candidate_covers lists.  leq is L's, with the
    column of e true on mask and on e, and its row true on e and the
    top.  On L's elements the meet is L's, and the join is L's but that
    two members of mask whose join in L is the top now join to e.  e
    joins a member of mask to e and anything else to the top.  The meet
    of e and an element x below the top is the element whose down-set is
    mask cut below x; the scan made that cut principal, and
    InvariantViolation is raised if it is not.  e meets the top to e, and
    e is the bottom when L has one element, where mask is empty.  The
    covers, order and tables are written straight into canonical slots.
    """
    n, e, top, down = L.n + 1, L.n, L.top, L.down_sets
    ups = _candidate_covers(L, mask)[0]
    leq = np.zeros((n, n), dtype=bool)
    leq[:e, :e] = L.leq
    leq[:e, e] = [mask >> x & 1 for x in range(e)]
    leq[e, [e, top]] = True
    inside = leq[:e, e]
    index = {d: x for x, d in enumerate(down)}
    meet_e = [index.get(mask & d) for d in down]
    meet_e[top] = e
    if None in meet_e:
        x = meet_e.index(None)
        raise InvariantViolation(f"down-set {mask:#b} cut below {x} is not principal")
    join = np.empty((n, n), dtype=np.int32)
    meet = np.empty((n, n), dtype=np.int32)
    join[:e, :e] = np.where((L.join == top) & inside & inside[:, None], e, L.join)
    join[e, :e] = join[:e, e] = np.where(inside, e, top)
    meet[:e, :e] = L.meet
    meet[e, :e] = meet[:e, e] = meet_e
    join[e, e] = meet[e, e] = e
    bot = L.bot if mask else e
    # Element v goes to slot perm[v]: slot s holds element inverse[s].
    ids = np.asarray(perm, dtype=np.int32)
    inverse = np.empty(n, dtype=np.intp)
    inverse[ids] = np.arange(n)
    square = np.ix_(inverse, inverse)
    covers = [(perm[a], perm[b]) for a, bs in enumerate(ups) for b in bs]
    q = FinitePoset(n, covers, leq[square])
    M = Lattice(q, ids[join[square]], ids[meet[square]], perm[bot], perm[top])
    return _seed_canonical(M, form)


@lru_cache(maxsize=None)
def _lattices(n):
    """All n-element lattices up to isomorphism, canonically labeled and
    sorted by canonical form.

    Each candidate is an (n-1)-element lattice L with a new element
    e = n-1 right under its top, above a down-set D from
    _down_set_extensions; the one-element lattice is the only candidate
    for n = 1.  Its one canonical search, on the cover lists and levels
    _candidate_covers edits from L's, rejects isomorphs, and a level
    keeps, per form, only the first candidate's parent, D and canonical
    relabeling.  Each class is then built from its parent's tables by
    _child, seeded so that it is never searched again.

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
        for mask in _down_set_extensions(L):
            perm, form = _canonical_search(n, *_candidate_covers(L, mask))
            forms.setdefault(form, (L, mask, perm))
    return tuple(_child(*forms[form], form) for form in sorted(forms))


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
        if int.from_bytes(entry.canonical[:4], "big") != entry.n:
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
            if int.from_bytes(form[:4], "big") <= max_n:
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
