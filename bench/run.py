"""grasseff benchmark: run one workload for a given time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; grasseff is imported from its src/. The run
is a sequence of rounds, each one fresh interpreter (bench/child.py) doing
set-up and the whole operation list once, so every round starts with cold
caches as a CLI call does. Rounds are started until S seconds of rounds
have been measured. The first round also checks every answer against
bench/oracles.py; later rounds must give byte-identical answers.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (medians over rounds, all times scaled to the reference speed of
bench/refspeed.py). With --trace 1 rounds alternate untraced and traced,
and the object holds the per-layer metrics and the tracing overhead.
Each run also writes its full record, raw and scaled times per round, to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n operations beyond it."""
    return 100.0 * (n - 10) / n


def run_round(workload: str, seed: int, traced: bool, check: bool, spans: str, timeout: float):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--check", str(int(check))]
    if spans:
        cmd += ["--spans", spans]
    # a fixed hash seed makes every round of a run the same computation
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("round of %s failed with exit code %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "grasseff", "cli.py")):
        raise SystemExit("no grasseff sources under %s" % os.path.join(ROOT, "src"))
    # compile grasseff once so that no round's set-up pays for bytecode compilation
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import grasseff.cli"], cwd=ROOT, check=True, timeout=60)

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    rounds = []
    measured = 0.0
    while measured < args.seconds or (args.trace and len(rounds) < 2):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        spans = os.path.join(OUT, tag + ".spans.json") if traced and len(rounds) == 1 else ""
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        begin = time.monotonic()
        result = run_round(args.workload, args.seed, traced, not rounds, spans, remaining)
        measured += time.monotonic() - begin - result["check_s"]
        result["traced"] = traced
        rounds.append(result)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    first = rounds[0]
    correct = first["problem_count"] == 0 and all(r["digest"] == first["digest"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    n_ops = first["attempted"]
    tail = tail_percentile(n_ops)

    def median(key, group):
        return statistics.median(r[key] for r in group)

    # every round runs the same operations in the same order, so each
    # operation's latency is its median over rounds: a stall that hits one
    # operation in one round does not reach the percentiles
    op_ms = sorted(statistics.median(ms) for ms in zip(*(r["latencies_ms"] for r in plain)))
    summary = {
        "setup_s": median("setup_s", plain),
        "setup_raw_s": median("setup_raw_s", plain),
        "work_s": median("work_s", plain),
        "work_raw_s": median("work_raw_s", plain),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": op_ms[-11],
        "peak_rss_mb": median("peak_rss_mb", plain),
    }
    units = {"setup_s": "s", "work_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            unit = "count" if name.endswith("_calls") else "ms"
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        traced_work = median("work_s", traced)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_work - summary["work_s"]) / summary["work_s"], "unit": "%"}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_round": n_ops, "tail_percentile": tail,
        "rounds": [{k: v for k, v in r.items() if k != "latencies_ms"} for r in rounds],
        "summary": summary, "metrics": metrics, "correct": correct,
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for r in rounds:
        for problem in r["problems"]:
            print("PROBLEM: %s" % problem)
        for i, error in r["errors"]:
            print("FAILED op %d: %s" % (i, error))
    print("%s seed %d: %d rounds, %d ops each, tail p%.2f, raw work %.3fs, raw setup %.3fs"
          % (args.workload, args.seed, len(rounds), n_ops, tail, summary["work_raw_s"],
             summary["setup_raw_s"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
