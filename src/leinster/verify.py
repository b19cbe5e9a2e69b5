"""Formula-versus-oracle verification suite.

Builds a corpus of explicit groups (cyclic, dihedral, generalized dihedral,
dicyclic, metacyclic, prime affine, and their coprime direct products) up to
a maximum order, then checks every closed-form divisor-sum formula and every
structural invariant of the group divisor-sum function against brute force.
Each invariant reports a pass/fail verdict together with how many instances
were checked and the first counterexample on failure.  `_corpus` is one loop
over (family, order cap) rows: a family's entries are the params its
`search.FAMILY` record's `up_to` gives under its cap, in that order, built
by the record's builder.  So a family reaches the corpus with its record and
one row; Dic(A, y) has no record yet and keeps a loop of its own.

Some parts of the corpus stop at fixed orders whatever the maximum order:
generalized dihedral Dih(A) entries have |A| <= 32, generalized dicyclic
Dic(A, y) entries have |A| <= 16, metacyclic and pq entries go to order 200,
and quotient-monotonicity checks groups of order at most 100.  So the
checked counts of quotient-monotonicity, noncyclic-dihedral-strictly-abundant
and known-instance-spot-checks stop growing past a maximum order of 100, and
those of the two zm invariants past 200.

The corpus is never held whole.  `run_verify` makes one pass over it and
checks each entry with every invariant before it builds the next one.  Of
the entries it has checked it keeps only those that can be a factor of a
coprime product of order at most the maximum order, and
direct-product-multiplicativity, the one invariant over pairs of entries,
runs over those after the pass.  So `verify --max-order 300` peaks at about
45 MB and `--max-order 512` at about 65 MB.

An invariant is a generator over one corpus entry that yields None for
each instance that passes and a detail string for one that fails (an
invariant about one family yields nothing for the entries of another).
Each invariant's instances are counted over the corpus, in corpus order,
and it is not run again after its first detail.  Adding an invariant takes
one such generator and one row in `_INVARIANTS`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import families, numtheory, oracle
from .search import FAMILY

__all__ = ["CorpusEntry", "InvariantResult", "run_verify"]

# what an invariant yields per instance: None when it passes, else the detail
Outcomes = Iterator[str | None]

# The corpus caps that hold whatever the maximum order (`verify --help`
# states them): quotient-monotonicity checks groups up to _QUOTIENT_CAP,
# Dih(A) and Dic(A, y) entries have |A| up to _DIH_CAP and _DIC_CAP, and zm
# and pq entries go to order _ZM_PQ_CAP.
_QUOTIENT_CAP = 100
_DIH_CAP = 32
_DIC_CAP = 16
_ZM_PQ_CAP = 200


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    family: str
    params: tuple[int, ...]
    group: oracle.FiniteGroup


def _gen_dicyclic_part(max_order: int) -> Iterator[CorpusEntry]:
    """Dic(A, y) for non-cyclic A of even order > 2, one entry per distinct table."""
    seen_digests: set[bytes] = set()
    for chain in families.iter_abelian_types(max_order // 2):
        if len(chain) < 2 or math.prod(chain) % 2 or math.prod(chain) <= 2:
            continue
        for y in oracle.order_two_elements(oracle.build_abelian(chain)):
            group = oracle.build_generalized_dicyclic(chain, y)
            if group.digest() not in seen_digests:
                seen_digests.add(group.digest())
                label = "Dic(" + "x".join(f"C{d}" for d in chain) + f",y={y})"
                yield CorpusEntry(label, "gen-dicyclic", chain + (y,), group)


def _corpus(max_order: int) -> Iterator[CorpusEntry]:
    """The corpus up to max_order, entry by entry, each table built as it is
    reached; the order caps are read at each call."""
    for name, cap in (
        ("cyclic", max_order), ("dihedral", max_order), ("gen-dihedral", 2 * _DIH_CAP),
        ("dicyclic", max_order), ("gen-dicyclic", 2 * _DIC_CAP), ("zm", _ZM_PQ_CAP),
        ("affine", max_order), ("pq", _ZM_PQ_CAP),
    ):
        family = FAMILY.get(name)
        if family is None:  # gen-dicyclic has no registry record yet
            yield from _gen_dicyclic_part(min(cap, max_order))
            continue
        for params in family.up_to(min(cap, max_order)):
            group = family.build(params)
            if group is not None:
                yield CorpusEntry(family.label(params), name, params, group)


def _pairable(order: int, max_order: int) -> bool:
    """Whether a group of this order can be a factor of a coprime direct
    product of order at most max_order with another nontrivial group.

    The other factor has a prime factor that does not divide order, so it is
    at least q, the least such prime, and order * q <= max_order.
    """
    if order == 1:
        return False
    q = 2
    while order % q == 0 or not numtheory.is_prime(q):
        q += 1
    return order * q <= max_order


def _swept_mismatch(entry: CorpusEntry, got: int) -> str | None:
    """The detail when the D a sweep prints for `entry` (its record's
    `evaluate_batch` on a batch of one) is not the oracle's `got`, else None."""
    family = FAMILY[entry.family]
    swept = family.evaluate_batch([entry.params])[1][0]
    return f"{entry.label}: oracle D = {got} != swept formula {swept}" if got != swept else None


def _check_cyclic_dsum(entry: CorpusEntry, max_order: int) -> Outcomes:
    if entry.family != "cyclic":
        return
    got = oracle.group_divisor_sum(entry.group)
    want = numtheory.divisor_sum(entry.params[0])
    yield f"D({entry.label}) = {got} != {want}" if got != want else _swept_mismatch(entry, got)


def _check_delta(entry: CorpusEntry, max_order: int) -> Outcomes:
    order = entry.group.order
    if order == 1:
        return
    total = oracle.group_divisor_sum(entry.group)
    yield f"{entry.label}: D = {total} <= order {order}" if total <= order else None


def _check_multiplicativity(corpus: list[CorpusEntry], max_order: int) -> Outcomes:
    # several entries share a table (G(2,3) is ZM(3,2,2), and C2 is D2 and
    # Aff(2)), so each product is built and summed once per pair of factor
    # tables, and a repeated pair reads the D stored for it
    product_sums: dict[tuple[bytes, bytes], int] = {}
    for i, left in enumerate(corpus):
        if left.group.order == 1:
            continue
        for right in corpus[i + 1 :]:
            if right.group.order == 1:
                continue
            if left.group.order * right.group.order > max_order:
                continue
            if math.gcd(left.group.order, right.group.order) != 1:
                continue
            key = (left.group.digest(), right.group.digest())
            got = product_sums.get(key)
            if got is None:
                product = oracle.build_direct_product(left.group, right.group)
                got = product_sums[key] = oracle.group_divisor_sum(product)
            want = oracle.group_divisor_sum(left.group) * oracle.group_divisor_sum(
                right.group
            )
            yield f"D({left.label} x {right.label}) = {got} != {want}" if got != want else None


def _check_quotient_monotonicity(entry: CorpusEntry, max_order: int) -> Outcomes:
    group = entry.group
    if group.order > min(_QUOTIENT_CAP, max_order):
        return
    d_group = oracle.group_divisor_sum(group)
    # D is read once per distinct quotient table of the group
    d_of: dict[bytes, int] = {}
    for quot in oracle.normal_quotients(group):
        d_quot = d_of.get(quot.digest())
        if d_quot is None:
            d_quot = d_of[quot.digest()] = oracle.group_divisor_sum(quot)
        # delta(G/N) <= delta(G), cross-multiplied to stay in integers
        if d_quot * group.order > d_group * quot.order:
            yield (
                f"{entry.label} / N of order {group.order // quot.order}: "
                f"{d_quot}/{quot.order} > {d_group}/{group.order}"
            )
        else:
            yield None


def _check_zm_lattice(entry: CorpusEntry, max_order: int) -> Outcomes:
    if entry.family != "zm":
        return
    triple = families.zm_validate(*entry.params)
    subs = oracle.all_subgroups(entry.group)
    got = (len(subs), sum(normal for _, normal in subs))
    want = (
        len(families.zm_subgroup_triples(triple)),
        len(families.zm_normal_triples(triple)),
    )
    if got != want:
        yield f"{entry.label}: subgroup/normal counts {got} != triple counts {want}"
    else:
        yield None


def _check_zm_three_path(entry: CorpusEntry, max_order: int) -> Outcomes:
    if entry.family != "zm":
        return
    triple = families.zm_validate(*entry.params)
    formula = families.zm_divisor_sum(triple)
    triple_sum = sum(lt.subgroup_order for lt in families.zm_normal_triples(triple))
    brute = oracle.group_divisor_sum(entry.group)
    if not formula == triple_sum == brute:
        yield f"{entry.label}: {formula} / {triple_sum} / {brute} disagree"
    else:
        yield _swept_mismatch(entry, brute)


def _check_noncyclic_dihedral(entry: CorpusEntry, max_order: int) -> Outcomes:
    if entry.family != "gen-dihedral":
        return
    total = oracle.group_divisor_sum(entry.group)
    bound = 2 * entry.group.order + 1
    yield f"{entry.label}: D = {total} <= {bound}" if total <= bound else None


def _check_dicyclic_bound(entry: CorpusEntry, max_order: int) -> Outcomes:
    if entry.family not in ("dicyclic", "gen-dicyclic"):
        return
    # A is C_2n for Dic4n, and the chain before y for Dic(A, y)
    chain = (2 * entry.params[0],) if entry.family == "dicyclic" else entry.params[:-1]
    base = oracle.build_abelian(chain)
    total = oracle.group_divisor_sum(entry.group)
    half = 2 * base.order  # 4n where |A| = 2n
    base_sum = oracle.group_divisor_sum(base)
    if total < half + base_sum:
        yield f"{entry.label}: D = {total} < {half} + {base_sum}"
    else:
        yield None


def _check_nilpotent_equivalence(entry: CorpusEntry, max_order: int) -> Outcomes:
    group = entry.group
    if not oracle.is_nilpotent(group):
        return
    total = oracle.group_divisor_sum(group)
    small = total <= 2 * group.order
    # sigma(|G|) <= 2|G|: the order is perfect or deficient
    expected = group.is_cyclic() and numtheory.divisor_sum(group.order) <= 2 * group.order
    if small != expected:
        yield (
            f"{entry.label}: delta <= 2 is {small} but cyclic-and-"
            f"perfect-or-deficient is {expected}"
        )
    else:
        yield None


# cyclic and zm D, per tuple and swept, are held to the oracle by invariants of their own
_OWN_FORMULA_CHECK = frozenset({"cyclic", "zm"})


def _check_family_formulas(entry: CorpusEntry, max_order: int) -> Outcomes:
    family = FAMILY.get(entry.family)
    if family is None or entry.family in _OWN_FORMULA_CHECK:
        return
    want = family.evaluate(entry.params)[1]
    got = oracle.group_divisor_sum(entry.group)
    if got != want:
        yield f"{entry.label}: oracle D = {got} != formula {want}"
    else:
        yield _swept_mismatch(entry, got)  # a sweep prints the D of `evaluate_batch`


def _check_spot_values(entry: CorpusEntry, max_order: int) -> Outcomes:
    # D of named groups, known apart from every formula; each is checked
    # once the corpus reaches its order
    spots = {"C6": 12, "Dic12": 24, "ZM(7,6,3)": 85, "Aff(7)": 85}
    want = spots.get(entry.label)
    if want is None:
        return
    got = oracle.group_divisor_sum(entry.group)
    yield f"{entry.label}: D = {got} != {want}" if got != want else None


# Every invariant in report order, as (name, generator, over pairs).  An
# invariant over pairs runs once, after the pass, over the list of entries
# that `_pairable` keeps; every other runs over each entry of the corpus.
_INVARIANTS: tuple[tuple[str, Callable[..., Outcomes], bool], ...] = (
    ("cyclic-group-divisor-sum", _check_cyclic_dsum, False),
    ("delta-exceeds-one", _check_delta, False),
    ("direct-product-multiplicativity", _check_multiplicativity, True),
    ("quotient-monotonicity", _check_quotient_monotonicity, False),
    ("zm-lattice-bijection", _check_zm_lattice, False),
    ("zm-three-path-agreement", _check_zm_three_path, False),
    ("noncyclic-dihedral-strictly-abundant", _check_noncyclic_dihedral, False),
    ("dicyclic-lower-bound", _check_dicyclic_bound, False),
    ("nilpotent-equivalence", _check_nilpotent_equivalence, False),
    ("family-formula-agreement", _check_family_formulas, False),
    ("known-instance-spot-checks", _check_spot_values, False),
)


def _run(outcomes: Outcomes, checked: int) -> tuple[int, str | None]:
    """Count an invariant's instances on from `checked`, stopping at the
    first failure; the count and that failure's detail (None: all passed)."""
    for detail in outcomes:
        checked += 1
        if detail is not None:
            return checked, detail
    return checked, None


def run_verify(max_order: int) -> list[InvariantResult]:
    """Run the whole invariant suite over the corpus up to max_order."""
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    cap = oracle.order_cap()
    if max_order > cap:
        raise oracle.OrderCapError(
            f"max_order {max_order} exceeds the oracle cap {cap}"
        )
    # name -> (instances checked, first failure's detail or None)
    tallies: dict[str, tuple[int, str | None]] = {name: (0, None) for name, *_ in _INVARIANTS}
    held: list[CorpusEntry] = []
    for entry in _corpus(max_order):
        for name, check, over_pairs in _INVARIANTS:
            checked, detail = tallies[name]
            if not over_pairs and detail is None:
                tallies[name] = _run(check(entry, max_order), checked)
        if _pairable(entry.group.order, max_order):
            held.append(entry)
    for name, check, over_pairs in _INVARIANTS:
        if over_pairs:
            tallies[name] = _run(check(held, max_order), 0)
    return [
        InvariantResult(name, detail is None, checked, detail or "")
        for name, (checked, detail) in tallies.items()
    ]
