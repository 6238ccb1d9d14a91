"""The repository's benchmark: one script, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric (plus the tracing overhead) and
writes the spans to ``.perfbench_out/``.  The last line of standard
output is the result object; the lines before it give the provenance
and a readable table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(w, measured) -> dict:
    import numpy as np
    from workloads import peak_rss_mb

    # Each pass's figure, averaged over the run's passes: the host's
    # speed shifts for seconds at a time, and a mean moves with the
    # share of the run spent slow where a median over the whole run
    # jumps from one speed to the other.
    per_pass = measured.pass_ops()
    return {
        "setup_s": float(np.median(w.setup_s)),
        "makespan_s": float(np.mean(measured.pass_s)),
        "op_p50_ms": float(np.mean([np.median(ops) for ops in per_pass])) * 1e3,
        # p95: 14 samples beyond it in serve's one pass (8 req/s x 35 s
        # = 280 requests).
        "op_p95_ms": float(np.mean([np.percentile(ops, 95) for ops in per_pass])) * 1e3,
        "peak_rss_mb": peak_rss_mb(w.hosts_system),
    }


def run(args, spec: dict, workdir: str) -> tuple:
    import numpy as np
    import workloads
    from tracing import Tracer

    tally = workloads.Tally()
    w = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir, tally)
    provenance = {
        "workload": args.workload,
        "why": {x["name"]: x["why"] for x in spec["workloads"]}[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": workloads.nproc(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "inputs": w.inputs,
        "flags": [],
    }
    try:
        w.prepare()
        if not args.trace:
            workloads.reset_peak_rss()
            w.setup_s = w.setup()
            measured = w.measure(args.seconds, None)
            values = end_to_end(w, measured)
        else:
            setup_tracer, tracer = Tracer(), Tracer()
            w.setup_s = w.setup(setup_tracer)
            untraced = w.measure(args.seconds / 2, None)
            measured = w.measure(args.seconds / 2, tracer)
            values = workloads.layer_metrics(tracer, measured, setup_tracer)
            base = float(np.median(untraced.op_s))
            values["trace.overhead_pct"] = 100.0 * (float(np.median(measured.op_s)) - base) / base
            for name in ("serve.fresh_p50_ms", "serve.repeat_p50_ms"):
                values[name] = untraced.extra.get(name, 0.0)
            os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
            tracer.write(os.path.join(
                ROOT, ".perfbench_out", f"trace-{args.workload}-seed{args.seed}.json"), provenance)
    finally:
        if hasattr(w, "stop"):
            w.stop()
    provenance["samples"] = {"setup_reps": len(w.setup_s), "passes": len(measured.pass_s),
                             "ops": len(measured.op_s)}
    if measured.late_s:
        late_p95 = workloads.p95_ms(measured.late_s)
        provenance["serve_gen_late_ms"] = {"p95": late_p95, "max": max(measured.late_s) * 1e3}
        # Behind schedule: the p95 request left more than a tenth of
        # the inter-arrival gap after it was due.
        if late_p95 > 100.0 / workloads.SERVE_RATE:
            provenance["flags"].append("serve_generator_behind_schedule")
    return values, tally, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use a tiny one)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {x["name"] for x in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    workdir = os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        values, tally, provenance = run(args, spec, workdir)
    except Exception:  # the run is void: report why, print no result
        traceback.print_exc()
        return 1
    finally:
        from multiprocessing import resource_tracker
        from repro.parallel.pool import close_all_pools

        close_all_pools()
        # Shared-memory pools start a tracker process; stop and reap it.
        stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop_tracker is not None:
            stop_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:  # another run still has its directory there
            pass

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A layer the workload does not reach reads 0 (traced runs only:
    # every end-to-end metric must have been measured).
    default = 0.0 if args.trace else None
    metrics = {m["name"]: {"value": values.pop(m["name"], default), "unit": m["unit"]}
               for m in declared}
    missing = sorted(name for name, metric in metrics.items() if metric["value"] is None)
    if missing:
        print(f"error: metrics not measured {missing}", file=sys.stderr)
        return 1
    if values:
        print(f"error: undeclared metrics {sorted(values)}", file=sys.stderr)
        return 1
    for message in tally.wrong:
        print(f"WRONG ANSWER: {message}", file=sys.stderr)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  {'ops attempted / failed':<28} {tally.attempted:>7} / {tally.failed}")
    correct = not tally.wrong
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
