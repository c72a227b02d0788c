#!/usr/bin/env python3
"""Record ``expected.json``: the checked output of every benchmark op.

Covers every argv any bench seed can send (the five CLI argvs plus the
serve-cold seed pool), computed on the repo's oracles -- the reference
simulator core and the naive cost engine -- so the timed runs check the
fast core and batched engine against them.  Run from the checkout root::

    python3 benchmarks/e2e/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(harness.SRC))
    rows = {}
    for argv in harness.expected_argvs():
        rows[harness.op_key(argv)] = harness.oracle_summary(argv)
        print(harness.op_key(argv), file=sys.stderr)
    lines = [f"  {json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
             for key in sorted(rows)]
    text = ('{"oracle": "reference simulator core + naive cost engine",\n'
            ' "argv": {\n' + ",\n".join(lines) + "\n }\n}\n")
    (harness.HERE / "expected.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
