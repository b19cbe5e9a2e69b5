"""Workload definitions and the correctness gate.

A workload is a fixed list of `leinster` command lines that one fresh
interpreter runs in order (see child.py).  Only `classify-big` draws from the
seed; the other workloads are fixed parameter spaces.

Every operation's standard output is checked.  Fixed operations must match
the SHA-256 digest recorded in reference.json, because JSON records, exit
codes and verify verdicts stay byte-identical across versions.  The random
`classify-big` instances are checked against the record rebuilt from an
independent sympy computation of D(ZM(p, p-1, r)).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# stands for a fresh per-repetition cache file in a command line
CACHE = "{cache}"

REFERENCE_PATH = Path(__file__).with_name("reference.json")

VERIFY_MAX_ORDER = 100
CLASSIFY_BIG_COUNT = 24
PAPER_INSTANCES = ((33550337, 3), (137438691329, 3))

_VERIFY_ELAPSED = re.compile(r"^(verify: .*) in [0-9.]+s$", re.MULTILINE)


@dataclass(frozen=True)
class Op:
    """One command line; `expected` is the exact stdout when known in advance."""

    argv: tuple[str, ...]
    expected: str | None = None

    @property
    def id(self) -> str:
        return " ".join(self.argv)


def _search(*args: str) -> Op:
    return Op(("search", *args, "--workers", "1"))


def verify_ops(seed: int) -> list[Op]:
    return [Op(("verify", "--max-order", str(VERIFY_MAX_ORDER)))]


def sweep_ops(seed: int) -> list[Op]:
    return [
        # the same sweep twice against one fresh cache: the first run writes
        # every record, the second reads them all back
        _search("cyclic", "--max-n", "50000", "--cache", CACHE),
        _search("cyclic", "--max-n", "50000", "--cache", CACHE),
        _search("dihedral", "--max-n", "20000"),
        _search("dicyclic", "--min-n", "2", "--max-n", "20000"),
        _search("affine", "--max-q", "20000"),
        _search("pq", "--max-q", "2000"),
        _search("zm", "--max-m", "150", "--max-n", "20"),
    ]


def gen_dihedral_ops(seed: int) -> list[Op]:
    return [
        _search("gen-dihedral", "--max-a", "127"),
        Op(("classify", "--family", "gen-dihedral", "--params", "2,2,2,2,2,4")),
        Op(("classify", "--family", "gen-dihedral", "--params", "2,2,2,4,4")),
    ]


def _classify_zm(p: int, r: int, expected: str | None = None) -> Op:
    return Op(("classify", "--family", "zm", "--params", f"{p},{p - 1},{r}"), expected)


def classify_big_ops(seed: int) -> list[Op]:
    ops = [
        _classify_zm(p, r, expected_zm_record(p, r))
        for p, r in classify_big_instances(seed)
    ]
    ops += [_classify_zm(p, r) for p, r in PAPER_INSTANCES]
    ops.append(Op(("perfect-plus-one", "--count", "12")))
    return ops


WORKLOADS = {
    "verify": verify_ops,
    "sweep": sweep_ops,
    "classify-big": classify_big_ops,
    "gen-dihedral": gen_dihedral_ops,
}


def instance_ops(workload: str, ops: list[Op]) -> list[int]:
    """Indices of the operations whose latencies op_p50_s and op_tail_s cover:
    the `classify` instances on classify-big, every operation elsewhere."""
    if workload == "classify-big":
        return [i for i, op in enumerate(ops) if op.argv[0] == "classify"]
    return list(range(len(ops)))


# ---------------------------------------------------------------------------
# classify-big instances


def _prime_with_split_p_minus_1(rng: random.Random, bits: float) -> int:
    """A prime p of about `bits` bits with p - 1 = 2 * s * [t *] q.

    s is a prime below 2^10 and q a large prime.  From 60 bits on, t is a
    prime between 2^21 and 2^23, above the trial-division bound of
    `factorize`, so splitting t * q takes Brent rho about 2^11 steps.  No
    other large factor appears, which keeps every instance inside the rho
    effort cap and the cost of an instance close to a function of its size.
    """
    import sympy

    while True:
        parts = [2, sympy.nextprime(rng.randrange(3, 1 << 10))]
        if bits >= 60:
            parts.append(sympy.nextprime(rng.randrange(1 << 21, 1 << 23)))
        low = int(2.0**bits) // math.prod(parts)
        q = sympy.nextprime(rng.randrange(low, low + low // 16))
        p = math.prod(parts) * q + 1
        if sympy.isprime(p):
            return p


def classify_big_instances(seed: int, count: int = CLASSIFY_BIG_COUNT) -> list[tuple[int, int]]:
    """`count` pairs (p, r) drawn from `seed`, sizes spread evenly over 2^32..2^80.

    Instance i gets r of multiplicative order (p - 1) / e with e = 1 for even
    i and e = 2 for odd i, r otherwise uniform among such elements.  The
    formula path factors p again for every n1 | p - 1 that ord(r) divides,
    so fixing e fixes that count and keeps the batch cost steady across seeds.
    """
    import sympy

    rng = random.Random(seed)
    out = []
    for i in range(count):
        bits = 32 + 48 * (i + rng.random()) / count
        p = _prime_with_split_p_minus_1(rng, bits)
        e = 1 + i % 2
        n = (p - 1) // e
        u = rng.randrange(1, n)
        while math.gcd(u, n) != 1:
            u = rng.randrange(1, n)
        out.append((p, pow(sympy.primitive_root(p), e * u, p)))
    return out


def zm_paper_divisor_sum(p: int, r: int) -> int:
    """D(ZM(p, p-1, r)) = p * sigma(p-1) + sigma((p-1) / ord_p(r)), by sympy."""
    import sympy

    n = p - 1
    return p * int(sympy.divisor_sigma(n)) + int(
        sympy.divisor_sigma(n // int(sympy.n_order(r, p)))
    )


def classify(D: int, order: int) -> str:
    if D == 2 * order:
        return "leinster"
    if D == 2 * order + 1:
        return "quasi-leinster"
    if D == 2 * order - 1:
        return "almost-leinster"
    return "abundant" if D > 2 * order else "deficient"


def expected_zm_record(p: int, r: int) -> str:
    """The exact stdout of `classify --family zm --params p,p-1,r`."""
    order = p * (p - 1)
    D = zm_paper_divisor_sum(p, r)
    record = {
        "family": "zm",
        "params": [p, p - 1, r % p],
        "order": order,
        "D": D,
        "class": classify(D, order),
        "notes": [],
    }
    return json.dumps(record) + "\n"


# ---------------------------------------------------------------------------
# the gate


def normalize(stdout: str) -> str:
    """Drop the only run-dependent text in any output: verify's elapsed time."""
    return _VERIFY_ELAPSED.sub(r"\1 in <elapsed>s", stdout)


def digest(stdout: str) -> str:
    return hashlib.sha256(normalize(stdout).encode()).hexdigest()


def run_op(main, op: Op, cache: str) -> tuple[int, str, str, float]:
    """Run `op` through `main` (leinster.cli.main) in this process.

    `cache` replaces CACHE in the command line.  Returns the exit code,
    stdout, stderr and the seconds spent in `main`; a crash is exit code -1
    with its traceback on stderr, so it fails the gate instead of the run.
    """
    argv = [cache if a == CACHE else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())


def check(op: Op, code: int, stdout_digest: str, reference: dict[str, str]) -> str | None:
    """Why the operation's result is wrong, or None when it passes."""
    if code != 0:
        return f"exit code {code}"
    if op.expected is not None:
        want = digest(op.expected)
    elif op.id in reference:
        want = reference[op.id]
    else:
        return "no reference digest recorded"
    if stdout_digest != want:
        return f"output digest {stdout_digest[:12]} != reference {want[:12]}"
    return None
