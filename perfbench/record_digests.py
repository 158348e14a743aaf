"""Record the SHA-256 of every benchmarked command's stdout, for every CLI seed.

Usage (from the repository root): python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only on a commit whose stdout is the
reference; the benchmark then reports ``stdout_changed`` per command against
it.  A command whose output fails its check is not recorded.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    digests = {}
    for name, commands in run.WORKLOADS.items():
        for seed in run.CLI_SEEDS:
            # run_pass maps a benchmark seed to CLI_SEEDS[seed % len(CLI_SEEDS)]
            result = run.run_pass(commands, run.CLI_SEEDS.index(seed), False, {})
            for row in result["commands"]:
                if row["problems"]:
                    print(f"not recorded, check failed: {row['argv']}: {row['problems']}", file=sys.stderr)
                    return 1
                digests[run.digest_key(row["argv"])] = row["stdout_sha256"]
        print(f"{name}: recorded", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
