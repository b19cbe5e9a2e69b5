"""Fixed reference work, timed next to the program to factor out host speed.

The benchmark runs on shared hosts whose speed drifts: the same
`gen-dihedral` repetition took from 2.0 s to 4.2 s within five minutes, and
a fixed 0.5 ms kernel read 1.5 times slower or faster from one second to the
next, with CPU time tracking wall time.  Raw times of the same code
therefore spread by 25-30% between runs.  Every time the benchmark reports
is scaled by a reference timed next to it:

    reported = seconds * NOMINAL / reference

NOMINAL is a constant, so the figures stay in seconds and a change to the
program moves them exactly as it moves the raw times; only the host's speed
is divided out.  The raw medians are printed with the provenance of every run.

* Operations: while an operation runs, a SIGALRM timer interrupts it every
  INTERVAL_S and times `tick()`, a 0.5 ms kernel of the kinds of work the
  program does (small-integer bytecode, modular powers of big integers,
  numpy fancy indexing on a small and on a 256 KiB table, `json.dumps` of a
  record).  The kernel is also read between operations (`reading()`).  An
  operation's reference is the median of its ticks and the readings just
  before and after it, and the time the handler took is subtracted from its
  seconds.  Ticks taken during the operation follow the host as it changes
  within a long operation, which readings at its ends alone do not.
* Set-up: starting an interpreter is mostly loading files and shared
  libraries, which the kernel does not track.  Set-up times are scaled by
  the time of an interpreter that only imports numpy (START_BASELINE),
  started just before them; it does not depend on the program.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

# the references' times on the host the benchmark was defined on (an Intel
# Xeon of a 2-core shared container) when that host was quiet; fixed scales
NOMINAL_TICK_S = 0.0004
NOMINAL_START_S = 0.2

# arguments to the interpreter for the set-up reference
START_BASELINE = ("-c", "import numpy")

INTERVAL_S = 0.025
READING_TICKS = 9

_MODULUS = (1 << 79) + 23
_TABLE = np.arange(64 * 64, dtype=np.int32).reshape(64, 64) % 64
_PICK = np.arange(0, 64, 3)
_BIG_TABLE = (np.arange(256 * 256, dtype=np.int64).reshape(256, 256) * 7919 % 256).astype(
    np.int32
)
_RECORD = {"family": "zm", "params": [1, 2, 3], "order": 0, "D": 99999,
           "class": "abundant", "notes": []}


def tick() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(1000):
        total += (i * i) % 977
    x = 3
    for i in range(45):
        x = pow(x, 65537, _MODULUS) + i
    for _ in range(8):
        total += int(_TABLE[np.ix_(_PICK, _PICK)].sum())
    total += int(_BIG_TABLE[:, _BIG_TABLE[7]][3, 5])
    for i in range(20):
        _RECORD["order"] = i
        json.dumps(_RECORD)
    return time.perf_counter() - start


def reading() -> float:
    """The kernel's time between operations: a median of READING_TICKS."""
    return statistics.median(tick() for _ in range(READING_TICKS))


class Sampler:
    """Ticks every INTERVAL_S of wall time inside a `with` block.

    The handler runs in the main thread between bytecodes, so it samples the
    host's speed during the operation, on the operation's own core.  `spent`
    is the time the handler took, to be subtracted from the operation's.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(tick())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(seconds: float, spent: float, ticks: list[float], before: float, after: float) -> float:
    """An operation's seconds on the nominal host: without the sampler's
    `spent`, divided by the median of its ticks and the readings around it."""
    reference = statistics.median([*ticks, before, after])
    return (seconds - spent) * NOMINAL_TICK_S / reference


def scale(reference: float) -> float:
    """The factor that takes a time measured while the kernel read
    `reference` to the nominal host."""
    return NOMINAL_TICK_S / reference


def normalize_start(seconds: float, baseline: float) -> float:
    """A set-up time measured while START_BASELINE took `baseline`, on the
    nominal host."""
    return seconds * NOMINAL_START_S / baseline
