"""Compare the payload digests of bench runs with the pinned ones.

Usage: python3 tests/check_payload_digests.py [OUT_DIR]

For each seed and workload in tests/payload_digests.json, reads
OUT_DIR/<workload>-seed<seed>-trace0.json (OUT_DIR defaults to bench/out)
and exits 1, naming every job whose payload digest differs from the
pinned one, is missing, or is not pinned.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    out = argv[1] if len(argv) > 1 else os.path.join(HERE, os.pardir, "bench", "out")
    with open(os.path.join(HERE, "payload_digests.json")) as fh:
        pinned = json.load(fh)["seeds"]
    problems = []
    for seed, jobs in sorted(pinned.items()):
        for workload, want in sorted(jobs.items()):
            path = os.path.join(out, f"{workload}-seed{seed}-trace0.json")
            try:
                with open(path) as fh:
                    got = {job["id"]: job["digest"] for job in json.load(fh)["jobs"]}
            except FileNotFoundError:
                problems.append(f"{path}: no bench run")
                continue
            for job in sorted(want.keys() | got.keys()):
                if got.get(job) != want.get(job):
                    problems.append(
                        f"seed {seed} {workload} {job}: "
                        f"pinned {want.get(job)}, got {got.get(job)}"
                    )
    for line in problems:
        print(line, file=sys.stderr)
    count = sum(len(want) for jobs in pinned.values() for want in jobs.values())
    print(f"{count} pinned payload digests (seeds {', '.join(sorted(pinned))}): "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
