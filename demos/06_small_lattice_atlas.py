"""The atlas: every small lattice up to isomorphism, classified.

Enumeration grows each lattice from a smaller one by a new coatom, an
element right under its top, and rejects isomorphs by canonical form; a
naive filter over all cover sets cross-checks it at small sizes.  The
classified atlas machine-verifies the implication grid between the
properties and hunts for counterexample candidates to the open questions.
"""

import collections
import os
import tempfile

from latticelab import (
    build_atlas,
    check_implications,
    enumerate_lattices,
    enumerate_lattices_naive,
    hunt_questions,
    read_atlas,
    write_atlas,
)

print("isomorphism classes per size (generator vs naive oracle):")
for n in range(1, 7):
    fast = enumerate_lattices(n)
    slow = enumerate_lattices_naive(n)
    print(f"  n={n}: {len(fast):3d} vs {len(slow):3d}")

print("\nclassifying everything up to 7 elements...")
entries = build_atlas(7)
by_flags = collections.Counter(
    (e.record.semidistributive, e.record.left_modular,
     e.record.el_shellable) for e in entries
)
print("  (semidistributive, left modular, shellable) -> count")
for flags, count in sorted(by_flags.items(), key=str):
    print(f"  {flags}: {count}")

print("\nimplication grid over the atlas:")
report = check_implications(entries)
for line in report.summary_lines():
    print(" ", line)
print("  grid ok:", report.ok)

print("\nopen-question hunt:")
for line in hunt_questions(entries).summary_lines():
    print(" ", line)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "atlas.jsonl")
    write_atlas(path, build_atlas(5), max_n=5)
    header, back = read_atlas(path)
print(f"\npersisted and re-read {len(back)} entries (schema {header['schema']})")
