"""Exception types shared across the library.

Every error the library raises deliberately derives from LatticeError so
callers (and the CLI) can distinguish bad input from genuine bugs.
InvariantViolation is special: it flags an internal state that contradicts
a proven structural fact, so it should never fire on valid lattices.
"""


class LatticeError(Exception):
    pass


class InvalidCoverError(LatticeError):
    "Cover pair out of range or a self-loop."


class DuplicatePairError(LatticeError):
    def __init__(self, pair):
        super().__init__(f"duplicate cover pair {pair}")
        self.pair = pair


class CycleError(LatticeError):
    def __init__(self, path):
        super().__init__(f"cover relation contains a cycle through {path}")
        self.path = tuple(path)


class NotReducedError(LatticeError):
    "A declared cover is implied by a longer path, so it is not a cover."

    def __init__(self, pair, path):
        super().__init__(f"pair {pair} is implied by the path {path}")
        self.pair = pair
        self.path = tuple(path)


class NotALatticeError(LatticeError):
    pass


class NoUniqueJoin(NotALatticeError):
    def __init__(self, a, b, minimal_upper_bounds):
        super().__init__(
            f"elements {a} and {b} have minimal upper bounds "
            f"{sorted(minimal_upper_bounds)}, not a unique join"
        )
        self.a = a
        self.b = b
        self.candidates = frozenset(minimal_upper_bounds)


class NoUniqueMeet(NotALatticeError):
    def __init__(self, a, b, maximal_lower_bounds):
        super().__init__(
            f"elements {a} and {b} have maximal lower bounds "
            f"{sorted(maximal_lower_bounds)}, not a unique meet"
        )
        self.a = a
        self.b = b
        self.candidates = frozenset(maximal_lower_bounds)


class NoBottom(NotALatticeError):
    pass


class NoTop(NotALatticeError):
    pass


class NotComparableError(LatticeError):
    "Interval endpoints are not ordered."


class CapExceededError(LatticeError):
    def __init__(self, cap):
        super().__init__(f"ideal lattice would exceed the cap of {cap} elements")
        self.cap = cap


class NotACoverError(LatticeError):
    def __init__(self, pair):
        super().__init__(f"{pair} is not a covering pair")
        self.pair = pair


class NotJoinIrreducibleError(LatticeError):
    def __init__(self, x):
        super().__init__(f"element {x} is not join irreducible")
        self.element = x


class NotAMaximalChainError(LatticeError):
    pass


class ChainNotLeftModular(LatticeError):
    def __init__(self, element):
        super().__init__(f"chain element {element} is not left modular")
        self.element = element


class PartialLabelingError(LatticeError):
    def __init__(self, missing):
        super().__init__(f"labeling misses cover pairs {sorted(missing)}")
        self.missing = frozenset(missing)


class BoundExceededError(LatticeError):
    "A size beyond what is supported (enumeration n, element count)."


class AtlasParseError(LatticeError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class FormatError(LatticeError):
    "Malformed lattice/poset text or JSON input."


class InvariantViolation(LatticeError):
    """A structural fact that holds for every finite lattice failed.

    Raised e.g. when a covering pair has no perspectivity witness.  This
    indicates a bug, never bad user input.
    """
