"""Reference class rule for the tests: D compared with 2 * order, row by row.

`families.classify_kinds` classifies a column by looking D - 2 * order up in
a table; this states the same rule as a chain of comparisons, as the paper
does: D = 2|G| is Leinster, one more is quasi-Leinster, one less is
almost-Leinster, and any other D is abundant above 2|G| and deficient below.
"""

from leinster.families import GroupKind


def reference_kind(D: int, order: int) -> GroupKind:
    """The class of one row; a D or order below 1 raises ValueError."""
    if D < 1 or order < 1:
        raise ValueError(f"need D >= 1 and order >= 1, got ({D}, {order})")
    twice = 2 * order
    if D == twice:
        return GroupKind.LEINSTER
    if D == twice + 1:
        return GroupKind.QUASI_LEINSTER
    if D == twice - 1:
        return GroupKind.ALMOST_LEINSTER
    return GroupKind.ABUNDANT if D > twice else GroupKind.DEFICIENT
