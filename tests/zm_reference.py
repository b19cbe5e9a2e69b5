"""Reference zm enumeration for the tests: a scan over every residue of each m.

`zm_row_scan` tries every r mod m, keeps those with r and r - 1 prime to m,
groups them by their multiplicative order d, and gives each multiple n of d
prime to m its group; `zm_canonical` names the representative r of a triple
as the least r^k over k prime to n.  The sweep's order-vector enumerator
must list exactly the triples these give, in the same order.
"""

import math

from leinster import families, numtheory


def zm_canonical(t: families.ZMTriple) -> families.ZMTriple:
    """Representative triple with r replaced by min(r^k mod m, gcd(k, n) = 1).

    Replacing the acting generator b by a coprime power b^k turns r into r^k
    and gives an isomorphic group, so this picks one triple per such orbit.
    """
    best = t.r
    for k in range(1, t.n + 1):
        if math.gcd(k, t.n) == 1:
            cand = pow(t.r, k, t.m)
            if cand < best:
                best = cand
    return families.ZMTriple(t.m, t.n, best)


def zm_row_scan(m, lo, hi, residues, dedupe=False):
    """The valid (m, n, r) with lo <= n <= hi and r in `residues`, in (n, r) order."""
    by_order = {}
    for r in residues:
        if math.gcd(r, m) == 1 and math.gcd(r - 1, m) == 1:
            d = numtheory.mult_order(r, m)
            if d <= hi and math.gcd(d, m) == 1:
                by_order.setdefault(d, []).append(r)
    rows = {}
    for d, rs in by_order.items():
        for n in range(-(-lo // d) * d, hi + 1, d):  # multiples of d in [lo, hi]
            if math.gcd(m, n) == 1:
                rows.setdefault(n, []).extend(rs)
    out = []
    for n in sorted(rows):
        for r in sorted(rows[n]):
            if not dedupe or zm_canonical(families.ZMTriple(m, n, r)).r == r:
                out.append((m, n, r))
    return out


def enumerate_zm_scan(max_m, max_n=None, paper_mode=False, fixed_r=None, dedupe=False):
    """Every triple a zm sweep with these options lists, sorted, by `zm_row_scan`."""
    out = []
    for m in range(1, max_m + 1, 2):  # an even m has no valid r
        if paper_mode:
            if not numtheory.is_prime(m) or (max_n is not None and m - 1 > max_n):
                continue
            lo = hi = m - 1
        else:
            lo, hi = 1, max_n
        residues = [fixed_r % m] if fixed_r is not None else range(m)
        out += zm_row_scan(m, lo, hi, residues, dedupe)
    return out


def zm_up_to_scan(max_order):
    """The triples of order <= max_order with m >= 3, as verify's corpus lists them."""
    return [
        t
        for m in range(3, max_order // 2 + 1, 2)
        for t in zm_row_scan(m, 1, max_order // m, range(m))
    ]
