"""Text formats: the ".lat"/".poset" cover-list grammar, JSON, and DOT.

Grammar: first significant line is the element count, then one "a b"
cover pair per line (0-indexed, lower element first).  '#' starts a
comment, blank lines are skipped.  The JSON equivalent is
{"n": int, "covers": [[a, b], ...]}, every number a JSON integer.  Both
spellings are accepted by the same parser; writers emit covers sorted by
(a, b).  `dumps_indented` writes the indented JSON of `check --json`.
"""

import json
from itertools import chain

from .errors import FormatError


def _json_int(value):
    "value if it is a JSON integer; TypeError for a float, bool or string."
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def parse_covers(text):
    """Parse .lat/.poset text or the JSON equivalent into (n, pairs).  One
    leading byte-order mark (U+FEFF) is dropped."""
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"bad JSON: {exc}") from exc
        try:
            n = _json_int(obj["n"])
            pairs = [(_json_int(a), _json_int(b)) for a, b in obj["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad JSON lattice object: {exc!r}") from exc
        if n < 0:
            raise FormatError(f"negative element count {n}")
        return n, pairs
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise FormatError(
                    f"line {lineno}: expected the element count, got {raw!r}"
                )
            try:
                n = int(fields[0])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad count {raw!r}") from exc
            if n < 0:
                raise FormatError(f"line {lineno}: negative element count {n}")
            continue
        if len(fields) != 2:
            raise FormatError(
                f"line {lineno}: expected 'a b', got {raw!r}"
            )
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad pair {raw!r}") from exc
    if n is None:
        raise FormatError("empty input: missing the element count")
    return n, pairs


def format_covers(n, covers):
    "Render (n, covers) in the .lat grammar, covers sorted."
    lines = [str(n)]
    lines.extend(f"{a} {b}" for a, b in sorted(covers))
    return "\n".join(lines) + "\n"


def dumps_indented(obj):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, without the
    pure-Python encoder that the standard library falls back to whenever
    indent is set.

    A dict with str keys recurses in sorted key order and a list item by
    item.  A list of exact ints is one join, and a list of lists of exact
    ints, all of one length k >= 1 (the el_labeling triples), is one
    %-format over a template repeated once per row.  Ints are tested with
    `type(x) is int`, never isinstance, so that True stays "true".  Anything
    else, empty containers and scalars included, is json.dumps's own output,
    re-indented to its depth.
    """
    return _indented(obj, "\n")


def _indented(obj, nl):
    "dumps_indented of obj at the depth whose line break plus pad is nl."
    inner = nl + "  "
    if isinstance(obj, dict) and obj and {*map(type, obj)} == {str}:
        items = ("," + inner).join(
            json.dumps(key) + ": " + _indented(value, inner)
            for key, value in sorted(obj.items())
        )
        return "{" + inner + items + nl + "}"
    if isinstance(obj, (list, tuple)) and obj:
        sep = "," + inner
        kinds = {*map(type, obj)}
        if kinds == {int}:
            return "[" + inner + sep.join(map(str, obj)) + nl + "]"
        if kinds == {list} and len({*map(len, obj)}) == 1:
            flat = tuple(chain.from_iterable(obj))
            if flat and {*map(type, flat)} == {int}:
                row_nl = inner + "  "
                cells = ("," + row_nl).join(["%d"] * len(obj[0]))
                row = "[" + row_nl + cells + inner + "]"
                return ("[" + inner + sep.join([row] * len(obj)) + nl + "]") % flat
        return "[" + inner + sep.join(_indented(x, inner) for x in obj) + nl + "]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def to_dot(poset, labeling=None):
    "Hasse diagram in DOT, covers drawn upward; optional edge labels."
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=circle];"]
    for v in range(poset.n):
        lines.append(f"  {v};")
    for a, b in poset.covers:
        if labeling is not None and (a, b) in labeling:
            lines.append(f'  {a} -> {b} [label="{labeling[(a, b)]}"];')
        else:
            lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
