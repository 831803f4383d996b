"""Records the tree checksum of every workload for a range of seeds into
perfbench/checksums.json, which the benchmark compares each run against.

    python3 perfbench/record_checksums.py

Run it from the root of a checkout, and only when a change is meant to alter
what the program writes. The live workload is recorded from a mock run of
the same config: a live run must write exactly that tree.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import TMP_DIR, run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# seeds 0 .. SEEDS-1 are recorded
SEEDS = 32


def main() -> int:
    root = Path.cwd()
    (root / TMP_DIR).mkdir(exist_ok=True)
    recorded: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=root / TMP_DIR) as work:
        for name in WORKLOADS:
            recorded[name] = {}
            for seed in range(SEEDS):
                result = run_worker(root, Path(work), name, seed, traced=False, mock=True)
                if "error" in result:
                    print(f"{name} seed {seed}: {result['error']}", file=sys.stderr)
                    return 1
                recorded[name][str(seed)] = result["checksum"]
                print(f"{name} seed {seed}: {result['checksum']}", flush=True)
    (root / TMP_DIR).rmdir()
    with open(HERE / "checksums.json", "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
