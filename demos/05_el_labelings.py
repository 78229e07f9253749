"""EL-labelings: the left-modular certificate and the exact search.

A left-modular chain induces an edge labeling that always verifies as an
EL-labeling.  Lattices without such a chain may still be EL-shellable;
el_search decides in three stages.  It first looks for a left-modular
chain and checks the labeling it induces; then for an interval whose
order complex has a disconnected pure skeleton, which refutes
EL-shellability with no search; otherwise the exact search returns a
certificate or a refutation (or "unknown" past its node budget).
"""

from latticelab import (
    el_search,
    is_el_labeling,
    label_vector,
    lm_labeling,
    maximal_chains,
    zoo,
)
from latticelab.properties import left_modular_chain
from latticelab.shellability import format_labeling

m3 = zoo.m3()
chain = left_modular_chain(m3)
labels = lm_labeling(m3, chain)
print("diamond, left-modular chain", chain)
print(format_labeling(labels))
for c in maximal_chains(m3):
    print(f"  chain {c}: labels {label_vector(labels, c)}")
print("verifier:", is_el_labeling(m3, labels).status)

print("\nhexagon: no left-modular chain, and provably no EL-labeling")
result = el_search(zoo.hexagon())
print(f"  el_search says {result.status} after {result.nodes} nodes")
x, y, i = result.refuted_by
print(f"  refuted by ({x}, {y}, {i}): the pure {i}-skeleton of ({x}, {y}) "
      "is disconnected")

print("\n8-element witness: not left modular, yet EL-shellable")
L = zoo.jsd_not_left_modular()
print("  left-modular chain:", left_modular_chain(L))
result = el_search(L)
print(f"  el_search says {result.status} after {result.nodes} nodes")
print(format_labeling(result.labeling))
print("  certificate re-verified:", bool(is_el_labeling(L, result.labeling)))

print("\na deliberately bad labeling on the hexagon:")
bad = {(0, 1): 1, (0, 2): 1, (1, 3): 2, (2, 4): 2, (3, 5): 3, (4, 5): 3}
verdict = is_el_labeling(zoo.hexagon(), bad)
print(f"  {verdict.status}: {verdict.reason} on interval {verdict.interval}")
