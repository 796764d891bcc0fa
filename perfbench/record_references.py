"""Rewrite references.json from the current library's CLI output.

    python3 perfbench/record_references.py

Runs every workload's jobs once on the default seed and stores the
sha256 of each CLI job's stdout.  Only for a change that is meant to
alter output bytes; otherwise the recorded references are the gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for name, make_jobs in workloads.WORKLOADS.items():
            for job in make_jobs(workloads.DEFAULT_SEED, workdir, {}):
                if job.digest_key is None:
                    continue
                output = job.run()
                if output.code != 0:
                    print(f"{job.name} exited {output.code}", file=sys.stderr)
                    return 1
                digests[job.digest_key] = workloads.sha256(output.stdout)
                print(f"{name}: {job.digest_key} {digests[job.digest_key]}")
    with open(workloads.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
