"""Record reference.json: the stdout digest of every fixed benchmark operation.

Usage: python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference.  Operations with an
independently computed expected output (the random classify-big instances)
are not recorded.  Refuses to record a failing exit code or a verify run
with any invariant not PASS.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from leinster import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, make_ops in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            cache = str(Path(tmp) / "cache.jsonl")
            for op in make_ops(0):
                if op.expected is not None:
                    continue
                code, text, stderr, _ = workloads.run_op(cli.main, op, cache)
                if code != 0:
                    raise SystemExit(f"{op.id}: exit code {code}\n{stderr}")
                if op.argv[0] == "verify" and any(
                    not line.startswith("PASS ") for line in text.splitlines()[:-1]
                ):
                    raise SystemExit(f"{op.id}: not every invariant passed:\n{text}")
                reference[op.id] = workloads.digest(text)
                print(f"{name}: {op.id} -> {reference[op.id][:12]}", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
