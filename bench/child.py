"""One round of one workload, in a fresh single-threaded interpreter.

Run by run.py; prints one JSON object on stdout:

    python3 bench/child.py --workload NAME --seed N --trace 0|1 --check 0|1 [--spans PATH]

Set-up is timed from before `import grasseff.cli` (which loads every module)
to the end of building the workload's inputs and grasseff objects. Then the
timed operation list runs once, in refspeed.CHUNKS chunks, each scaled by
the reference loop timed around it. With --check 1 every
answer is then checked against oracles.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_ops(workload, tracer, keep: bool):
    """Run every operation once, timing each; return (plain answers, digest,
    raw latencies, scale factors, errors).

    Each answer is normalized and folded into the digest as soon as its
    operation ends, outside the timing. Only with keep are the plain answers
    kept, for checking, so other rounds do not grow the heap that the
    garbage collector scans while grasseff runs.
    """
    clock = refspeed.clock
    digest = hashlib.sha256()
    plain, latencies, factors, errors = [], [], [], []
    # Chunks end after fixed operations, not at moments that depend on time:
    # the reference loop allocates objects, and so moves the garbage
    # collector's next collection. Where it runs must be the same in every
    # round, so that collections interrupt the same operations.
    chunk = -(-len(workload.ops) // refspeed.CHUNKS)
    chunk_first = 0
    ref_before = refspeed.reference_time()
    last = len(workload.ops) - 1
    for i, (spec, op) in enumerate(zip(workload.inputs, workload.ops)):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            answer = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            answer = exc
        end = clock()
        latencies.append(end - start)
        if isinstance(answer, Exception):
            errors.append((i, "%s: %s" % (type(answer).__name__, answer)))
            item = ("failed",)
        else:
            item = workload.normalize(spec, answer)
        answer = None
        digest.update(repr(item).encode())
        if keep:
            plain.append(item)
        if (i + 1) % chunk == 0 or i == last:
            ref_after = refspeed.reference_time()
            factors.extend([refspeed.scale_factor(ref_before, ref_after)] * (i + 1 - chunk_first))
            chunk_first = i + 1
            ref_before = ref_after
    return plain, digest.hexdigest(), latencies, factors, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    ref0 = refspeed.reference_time()
    t0 = refspeed.clock()
    import grasseff.cli  # noqa: F401
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_raw = refspeed.clock() - t0
    setup_factor = refspeed.scale_factor(ref0, refspeed.reference_time())

    plain, digest, latencies, factors, errors = run_ops(workload, tracer, bool(args.check))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    problems = []
    if args.check:
        failed = {i for i, _ in errors}
        kept = [i for i in range(len(plain)) if i not in failed]
        problems = workload.check([workload.inputs[i] for i in kept], [plain[i] for i in kept])
    out = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * setup_factor,
        "work_raw_s": sum(latencies),
        "work_s": sum(t * f for t, f in zip(latencies, factors)),
        "latencies_ms": [t * f * 1000 for t, f in zip(latencies, factors)],
        "peak_rss_mb": rss_mb,
        "attempted": len(latencies),
        "failed": len(errors),
        "errors": errors[:10],
        "problems": problems[:20],
        "problem_count": len(problems),
        "digest": digest,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(factors, setup_factor)
        if args.spans:
            tracer.dump(args.spans)
    out["check_s"] = time.perf_counter() - t_check
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
