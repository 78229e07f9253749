"""Aggregate all property verdicts for one lattice into a single record."""

from dataclasses import dataclass, field, fields

from .irreducibles import join_irreducible_ids, length, meet_irreducibles
from .properties import (
    is_distributive,
    is_join_semidistributive,
    is_meet_semidistributive,
)
from .shellability import DEFAULT_EL_BUDGET, el_search

@dataclass(frozen=True)
class ClassificationRecord:
    """Verdicts for the eight properties plus basic counts and evidence.

    el_shellable is three-valued ("yes"/"no"/"unknown") because the exact
    shellability search runs under a node budget; the remaining flags are
    always decided.
    """

    distributive: bool
    join_semidistributive: bool
    meet_semidistributive: bool
    semidistributive: bool
    join_extremal: bool
    extremal: bool
    left_modular: bool
    el_shellable: str
    length: int
    num_join_irreducibles: int
    num_meet_irreducibles: int
    witnesses: dict = field(default_factory=dict)

    def flag(self, name):
        value = getattr(self, name)
        if name == "el_shellable":
            return value == "yes"
        return value

    def as_json(self):
        "The fields by name; the witnesses dict is the record's own."
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, obj):
        """The record as_json gives.  A missing witnesses dict reads as
        empty; any other missing field is a TypeError."""
        names = [f.name for f in fields(cls)]
        return cls(**{name: obj[name] for name in names if name in obj})


# The eight property flags: the record's fields up to el_shellable.
FLAG_NAMES = tuple(f.name for f in fields(ClassificationRecord))[:8]


def classify(L, el_budget=DEFAULT_EL_BUDGET):
    """Compute every flag of the record, each by its own decision procedure.

    Nothing is inferred from implications between properties; the record
    is what the implication scans are checked against, so every flag runs
    its full decision procedure.  Distributivity and left modularity are
    decided by the exact characterisations in properties.py (Birkhoff's
    one-step test, the cover form of the left-modular law), the
    semidistributive laws by the fiber test in cover form.  el_search alone
    decides el_shellable: a left-modular chain gives it a certificate that
    it verifies, a disconnected skeleton a refutation, and otherwise it
    searches.  The chain it returns, left_modular_chain's, also decides
    the left_modular flag and is its witness.  Both certificates write
    their labeling as the witness el_labeling, the refutation its
    [x, y, i] as el_refuted_by, and only a search writes el_search_nodes
    and el_search_budget.
    """
    distributive, dist_violation = is_distributive(L)
    jsd, jsd_violation = is_join_semidistributive(L)
    msd, msd_violation = is_meet_semidistributive(L)
    k = length(L)
    num_j = len(join_irreducible_ids(L))
    num_m = len(meet_irreducibles(L))
    result = el_search(L, el_budget)
    chain = result.chain

    witnesses = {}
    for violation in (dist_violation, jsd_violation, msd_violation):
        if violation is not None:
            witnesses[violation.kind + "_violation"] = list(violation.elements)
    if chain is not None:
        witnesses["left_modular_chain"] = list(chain)
    el = {
        "shellable": "yes",
        "not_shellable": "no",
        "unknown": "unknown",
    }[result.status]
    if result.refuted_by is not None:
        witnesses["el_refuted_by"] = list(result.refuted_by)
    elif result.chain is None:
        witnesses["el_search_nodes"] = result.nodes
        witnesses["el_search_budget"] = result.budget
    if result.labeling is not None:
        witnesses["el_labeling"] = [
            [a, b, v] for (a, b), v in sorted(result.labeling.items())
        ]

    return ClassificationRecord(
        distributive=distributive,
        join_semidistributive=jsd,
        meet_semidistributive=msd,
        semidistributive=jsd and msd,
        join_extremal=k == num_j,
        extremal=k == num_j and k == num_m,
        left_modular=chain is not None,
        el_shellable=el,
        length=k,
        num_join_irreducibles=num_j,
        num_meet_irreducibles=num_m,
        witnesses=witnesses,
    )
