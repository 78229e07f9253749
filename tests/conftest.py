import random

import pytest

from latticelab import zoo
from latticelab.errors import CapExceededError
from latticelab.lattice import dual, ideal_lattice, try_lattice
from latticelab.poset import transitive_reduce


def partition_lattice(k):
    "Set partitions of a k-set ordered by refinement."
    parts = [()]
    for x in range(k):
        parts = [
            q[:i] + (q[i] | {x},) + q[i + 1:] for q in parts for i in range(len(q))
        ] + [q + (frozenset({x}),) for q in parts]
    pairs = [
        (i, j)
        for i, p in enumerate(parts)
        for j, q in enumerate(parts)
        if i != j and all(any(b <= c for c in q) for b in p)
    ]
    return try_lattice(transitive_reduce(len(parts), pairs))


def random_ideal_lattices(seed, count, k=10, cap=300):
    """Ideal lattices of seeded random k-element posets, the first count
    of them with at most cap elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        density = rng.uniform(0.1, 0.5)
        pairs = [
            (a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < density
        ]
        try:
            out.append(ideal_lattice(transitive_reduce(k, pairs), cap)[0])
        except CapExceededError:
            continue
    return out


@pytest.fixture(scope="session")
def large_lattices():
    """Name -> lattice for families of 15-250 elements and their duals:
    chains, B5-B7, the partition lattices of 4-6 points and ideal lattices
    of random 10-element posets."""
    named = {f"chain{k}": zoo.chain(k) for k in (99, 149, 199)}
    named |= {f"boolean{k}": zoo.boolean(k) for k in (5, 6, 7)}
    named |= {f"partitions{k}": partition_lattice(k) for k in (4, 5, 6)}
    for i, L in enumerate(random_ideal_lattices(7, 8)):
        named[f"ideals{i}"] = L
    return named | {f"dual_{name}": dual(L) for name, L in named.items()}
