"""Formula-versus-oracle verification suite.

Builds a corpus of explicit groups (cyclic, dihedral, generalized dihedral,
dicyclic, metacyclic, prime affine, and their coprime direct products) up to
a maximum order, then checks every closed-form divisor-sum formula and every
structural invariant of the group divisor-sum function against brute force.
Each invariant reports a pass/fail verdict together with how many instances
were checked and the first counterexample on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import families, numtheory, oracle
from .search import FAMILY

__all__ = ["CorpusEntry", "InvariantResult", "run_verify"]


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
    base: oracle.FiniteGroup | None = None  # the abelian A behind Dih/Dic builds


def _build_corpus(max_order: int) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []

    def add(label: str, family: str, params: tuple[int, ...], base=None) -> None:
        group = FAMILY[family].build(params)
        entries.append(CorpusEntry(label, family, params, group, base))

    for n in range(1, max_order + 1):
        add(f"C{n}", "cyclic", (n,))

    for n in range(1, max_order // 2 + 1):
        add(f"D{2 * n}", "dihedral", (n,))

    dih_cap = min(32, max_order // 2)
    for chain in oracle.abelian_types(dih_cap):
        if len(chain) < 2:
            continue  # cyclic A is covered by the dihedral entries
        label = "Dih(" + "x".join(f"C{d}" for d in chain) + ")"
        add(label, "gen-dihedral", chain, oracle.build_abelian(chain))

    for n in range(2, max_order // 4 + 1):
        add(f"Dic{4 * n}", "dicyclic", (n,), oracle.build_abelian([2 * n]))

    dic_cap = min(16, max_order // 2)
    seen_digests: set[bytes] = set()
    for chain in oracle.abelian_types(dic_cap):
        if len(chain) < 2 or math.prod(chain) % 2 or math.prod(chain) <= 2:
            continue
        base = oracle.build_abelian(chain)
        for y in oracle.order_two_elements(base):
            group = oracle.build_generalized_dicyclic(chain, y)
            if group.digest() in seen_digests:
                continue
            seen_digests.add(group.digest())
            label = "Dic(" + "x".join(f"C{d}" for d in chain) + f",y={y})"
            entries.append(CorpusEntry(label, "gen-dicyclic", chain + (y,), group, base))

    zm_cap = min(max_order, 200)
    for m in range(2, zm_cap // 2 + 1):
        for n in range(2, zm_cap // m + 1):
            if math.gcd(m, n) != 1:
                continue
            for r in range(2, m):
                if families.zm_validate(m, n, r) is not None:
                    add(f"ZM({m},{n},{r})", "zm", (m, n, r))

    p = 2
    while p * (p - 1) <= max_order:
        if numtheory.is_prime(p):
            add(f"Aff({p})", "affine", (p,))
        p += 1

    pq_cap = min(max_order, 200)
    for q in range(3, pq_cap + 1):
        if not numtheory.is_prime(q):
            continue
        for p in range(2, q):
            if p * q <= pq_cap and numtheory.is_prime(p) and (q - 1) % p == 0:
                add(f"G({p},{q})", "pq", (p, q))

    return entries


def _first_fail(name: str, checked: int, detail: str | None) -> InvariantResult:
    if detail is None:
        return InvariantResult(name, True, checked)
    return InvariantResult(name, False, checked, detail)


def _check_cyclic_dsum(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if entry.family != "cyclic":
            continue
        checked += 1
        n = entry.params[0]
        got = oracle.group_divisor_sum(entry.group)
        want = numtheory.divisor_sum(n)
        if got != want:
            return _first_fail(
                "cyclic-group-divisor-sum", checked, f"D({entry.label}) = {got} != {want}"
            )
    return _first_fail("cyclic-group-divisor-sum", checked, None)


def _check_delta(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if entry.group.order == 1:
            continue
        checked += 1
        total = oracle.group_divisor_sum(entry.group)
        if total <= entry.group.order:
            return _first_fail(
                "delta-exceeds-one",
                checked,
                f"{entry.label}: D = {total} <= order {entry.group.order}",
            )
    return _first_fail("delta-exceeds-one", checked, None)


def _check_multiplicativity(corpus: list[CorpusEntry], max_order: int) -> InvariantResult:
    checked = 0
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
            checked += 1
            product = oracle.build_direct_product(left.group, right.group)
            got = oracle.group_divisor_sum(product)
            want = oracle.group_divisor_sum(left.group) * oracle.group_divisor_sum(
                right.group
            )
            if got != want:
                return _first_fail(
                    "direct-product-multiplicativity",
                    checked,
                    f"D({left.label} x {right.label}) = {got} != {want}",
                )
    return _first_fail("direct-product-multiplicativity", checked, None)


def _check_quotient_monotonicity(
    corpus: list[CorpusEntry], max_order: int
) -> InvariantResult:
    limit = min(100, max_order)
    checked = 0
    for entry in corpus:
        group = entry.group
        if group.order > limit:
            continue
        d_group = oracle.group_divisor_sum(group)
        for sub in oracle.normal_subgroups(group):
            checked += 1
            quot = oracle.quotient(group, sub)
            d_quot = oracle.group_divisor_sum(quot)
            # delta(G/N) <= delta(G), cross-multiplied to stay in integers
            if d_quot * group.order > d_group * quot.order:
                return _first_fail(
                    "quotient-monotonicity",
                    checked,
                    f"{entry.label} / N of order {sub.order}: "
                    f"{d_quot}/{quot.order} > {d_group}/{group.order}",
                )
    return _first_fail("quotient-monotonicity", checked, None)


def _check_zm_lattice(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if entry.family != "zm":
            continue
        checked += 1
        triple = families.zm_validate(*entry.params)
        subs = len(oracle.all_subgroups(entry.group))
        norms = len(oracle.normal_subgroups(entry.group))
        want_subs = len(families.zm_subgroup_triples(triple))
        want_norms = len(families.zm_normal_triples(triple))
        if subs != want_subs or norms != want_norms:
            return _first_fail(
                "zm-lattice-bijection",
                checked,
                f"{entry.label}: subgroup/normal counts ({subs}, {norms}) "
                f"!= triple counts ({want_subs}, {want_norms})",
            )
    return _first_fail("zm-lattice-bijection", checked, None)


def _check_zm_three_path(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if entry.family != "zm":
            continue
        checked += 1
        triple = families.zm_validate(*entry.params)
        formula = families.zm_divisor_sum(triple)
        triple_sum = sum(lt.subgroup_order for lt in families.zm_normal_triples(triple))
        brute = oracle.group_divisor_sum(entry.group)
        if not formula == triple_sum == brute:
            return _first_fail(
                "zm-three-path-agreement",
                checked,
                f"{entry.label}: {formula} / {triple_sum} / {brute} disagree",
            )
    return _first_fail("zm-three-path-agreement", checked, None)


def _check_noncyclic_dihedral(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if entry.family != "gen-dihedral":
            continue
        checked += 1
        total = oracle.group_divisor_sum(entry.group)
        if total <= 2 * entry.group.order + 1:
            return _first_fail(
                "noncyclic-dihedral-strictly-abundant",
                checked,
                f"{entry.label}: D = {total} <= {2 * entry.group.order + 1}",
            )
    return _first_fail("noncyclic-dihedral-strictly-abundant", checked, None)


def _check_dicyclic_bound(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if entry.family not in ("dicyclic", "gen-dicyclic"):
            continue
        checked += 1
        total = oracle.group_divisor_sum(entry.group)
        half = entry.base.order // 2 * 4  # 4n where |A| = 2n
        base_sum = oracle.group_divisor_sum(entry.base)
        if total < half + base_sum:
            return _first_fail(
                "dicyclic-lower-bound",
                checked,
                f"{entry.label}: D = {total} < {half} + {base_sum}",
            )
    return _first_fail("dicyclic-lower-bound", checked, None)


def _check_nilpotent_equivalence(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        if not oracle.is_nilpotent(entry.group):
            continue
        checked += 1
        group = entry.group
        total = oracle.group_divisor_sum(group)
        nc = numtheory.classify_number(group.order)
        small = total <= 2 * group.order
        expected = group.is_cyclic() and (nc.is_perfect or nc.is_deficient)
        if small != expected:
            return _first_fail(
                "nilpotent-equivalence",
                checked,
                f"{entry.label}: delta <= 2 is {small} but cyclic-and-"
                f"perfect-or-deficient is {expected}",
            )
    return _first_fail("nilpotent-equivalence", checked, None)


# cyclic and zm formulas are held to the oracle by invariants of their own
_OWN_FORMULA_CHECK = frozenset({"cyclic", "zm"})


def _check_family_formulas(corpus: list[CorpusEntry]) -> InvariantResult:
    checked = 0
    for entry in corpus:
        family = FAMILY.get(entry.family)
        if family is None or entry.family in _OWN_FORMULA_CHECK:
            continue
        want = family.evaluate(entry.params)[1]
        checked += 1
        got = oracle.group_divisor_sum(entry.group)
        if got != want:
            return _first_fail(
                "family-formula-agreement",
                checked,
                f"{entry.label}: oracle D = {got} != formula {want}",
            )
    return _first_fail("family-formula-agreement", checked, None)


def _check_spot_values(max_order: int) -> InvariantResult:
    checked = 0
    failures: list[str] = []

    def check(label: str, got: int, want: int) -> None:
        nonlocal checked
        checked += 1
        if got != want:
            failures.append(f"{label}: D = {got} != {want}")

    if max_order >= 6:
        check("C6", oracle.group_divisor_sum(oracle.build_cyclic(6)), 12)
    if max_order >= 12:
        check(
            "Dic12",
            oracle.group_divisor_sum(oracle.build_generalized_dicyclic([6], 3)),
            24,
        )
    if max_order >= 42:
        check("ZM(7,6,3)", oracle.group_divisor_sum(oracle.build_zm(7, 6, 3)), 85)
        check("Aff(7)", oracle.group_divisor_sum(oracle.build_affine_prime(7)), 85)
    detail = None if not failures else "; ".join(failures)
    return _first_fail("known-instance-spot-checks", checked, detail)


def run_verify(max_order: int) -> list[InvariantResult]:
    """Run the whole invariant suite over the corpus up to max_order."""
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    cap = oracle.order_cap()
    if max_order > cap:
        raise oracle.OrderCapError(
            f"max_order {max_order} exceeds the oracle cap {cap}"
        )
    corpus = _build_corpus(max_order)
    return [
        _check_cyclic_dsum(corpus),
        _check_delta(corpus),
        _check_multiplicativity(corpus, max_order),
        _check_quotient_monotonicity(corpus, max_order),
        _check_zm_lattice(corpus),
        _check_zm_three_path(corpus),
        _check_noncyclic_dihedral(corpus),
        _check_dicyclic_bound(corpus),
        _check_nilpotent_equivalence(corpus),
        _check_family_formulas(corpus),
        _check_spot_values(max_order),
    ]
