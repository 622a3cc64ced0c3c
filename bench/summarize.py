"""Summarize untraced runs recorded in bench/out/ as a Markdown table.

    python3 bench/summarize.py --seeds 1-10

For each workload and each end-to-end metric (plus raw, unscaled work and
set-up times) prints the median, the quartiles as statistics.quantiles
gives them, and the spread: the distance between the quartiles as a share
of the median. `rounds` is the number of rounds per run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
METRICS = ("setup_s", "setup_raw_s", "work_s", "work_raw_s", "op_p50_ms", "op_tail_ms",
           "peak_rss_mb")


def seed_range(text: str) -> set[int]:
    lo, _, hi = text.partition("-")
    return set(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    runs: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", "*-trace0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if record["seed"] in args.seeds:
            runs.setdefault(record["workload"], []).append(record)
    print("| workload | metric | runs | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, records in sorted(runs.items()):
        for metric in METRICS + ("rounds",):
            values = [len(r["rounds"]) if metric == "rounds" else r["summary"][metric]
                      for r in records]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print("| %s | %s | %d | %.4g | %.4g | %.4g | %.1f%% |"
                  % (workload, metric, len(values), q2, q1, q3, 100 * (q3 - q1) / q2))


if __name__ == "__main__":
    main()
