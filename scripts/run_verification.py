#!/usr/bin/env python3
"""Run the full verification suite over every signature up to a size cap
and print a summary table plus the recorded global signs.

Usage: python3 scripts/run_verification.py [--max-pq N] [--json]
"""

import argparse
import json
import sys
import time

from thomform.checks import EPSILON_TRANSGRESSION, SIGMA_EVEN, SIGMA_ODD, run_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-pq", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    try:
        results = run_all(args.max_pq)
    except ValueError as exc:
        parser.error(str(exc))
    elapsed = time.perf_counter() - start

    if args.json:
        print(json.dumps({
            "schema": "thomform/1",
            "max_pq": args.max_pq,
            "elapsed_s": round(elapsed, 3),
            "results": [r.to_json() for r in results],
        }, indent=2))
    else:
        width = max(len(r.check_id) for r in results)
        for r in results:
            sig = f" sigma={r.sign_sigma:+d}" if r.sign_sigma is not None else ""
            wit = f"  [{r.witness}]" if r.witness else ""
            print(
                f"{r.status.upper():4s}  {r.check_id:<{width}s}  "
                f"{str(r.params):<30s} {r.elapsed * 1000:8.1f} ms{sig}{wit}"
            )
        passed = sum(r.passed for r in results)
        print(
            f"\n{passed}/{len(results)} checks passed in {elapsed:.1f}s "
            f"(recorded signs: sigma_even={SIGMA_EVEN:+d}, "
            f"sigma_odd={SIGMA_ODD:+d}, epsilon={EPSILON_TRANSGRESSION:+d})"
        )
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
