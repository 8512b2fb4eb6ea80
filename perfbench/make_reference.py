"""Regenerate the committed reference CSVs: each workload's default-seed
config, solved at the workload's tighter reference tolerance.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on code whose numerics are trusted; the benchmark measures every
later version's output against these files.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, RESULTS, import_program
from workloads import DEFAULT_SEED, WORKLOADS, make_config


def main(names: list[str]) -> int:
    cli = import_program()
    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        target = REFERENCE / f"{name}.csv"
        config = work / f"{name}-reference-build.json"
        config.write_text(json.dumps(make_config(w, DEFAULT_SEED, str(target), tol=w.reference_tol), indent=1))
        code = cli.main([*w.argv, "--config", str(config)])
        config.unlink()
        if code != 0:
            print(f"{name}: CLI exited with {code}", file=sys.stderr)
            return 1
        print(f"wrote {target.relative_to(REFERENCE.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
