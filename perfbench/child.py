"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py PLAN.json

`import leinster.cli` comes first, so the time from process start to the end
of that import (the package, numpy, and the command-line module) is the
program's set-up time.  The plan then lists the command lines to run in this
process, in order, through `leinster.cli.main` with stdout and stderr
captured.  The result file gets, per operation, the exit code, the seconds
spent in `main` and the digest of the normalized stdout, plus the clock
reading when the import finished and the peak resident set.  So that the
parent can divide out the host's speed (calibrate.py), each operation runs
under the tick sampler and the result has its ticks and the sampler's time,
plus readings of the kernel before the first operation and after each one.
With tracing on, the layer modules are wrapped before the first operation,
the span table is saved at the end, and no sampler runs, so its handler
adds nothing to any span.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import leinster.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402
import workloads  # noqa: E402


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(
            [leinster.numtheory, leinster.families, leinster.oracle,
             leinster.search, leinster.verify, leinster.cli]
        )
    readings = [calibrate.reading()]
    ops = []
    for argv in plan["ops"]:
        op = workloads.Op(tuple(argv))
        sampler = calibrate.Sampler()
        with sampler if tracer is None else contextlib.nullcontext():
            code, stdout, stderr, seconds = workloads.run_op(leinster.cli.main, op, plan["cache"])
        ops.append(
            {
                "code": code,
                "seconds": seconds,
                "sampler_s": sampler.spent,
                "ticks": sampler.ticks,
                "digest": workloads.digest(stdout),
                "stderr": stderr[-2000:],
            }
        )
        readings.append(calibrate.reading())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.save(plan["spans"])
    result = {"ready": READY, "ops": ops, "peak_rss_mb": peak_kib / 1024, "readings": readings}
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
