#!/usr/bin/env python3
"""perfbench: the pgpub benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --manifest     # prints BENCHMARK.json

Run from the root of a source checkout. Each run builds the driver
(perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build),
runs one workload in one process, reduces its raw samples to metrics and
prints them. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The full record of the
run (identity, every metric, checks) is written under the build
directory in results/.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing into the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

RUN_SECONDS = 25

WORKLOADS = [
    ("sal700k_tds_cold",
     "the paper's Section VII publish: 700k-row SAL, TDS, k=10, p=0.3, "
     "one-shot RobustPublisher, 2 workers; TDS and its QI index are ~90%"),
    ("sal20k_incognito_cold",
     "one-shot Incognito publish of 20k SAL rows at k=10 with fresh seeds; "
     "the lattice fold does the work and TDS none"),
    ("serve_closed_loop",
     "ServerCore, 3 SAL tenants, 4 closed-loop clients, 3:1 TDS:Incognito; "
     "engine caches hit and miss side by side"),
    ("breach_matrix",
     "4 publishers x 3 adversaries x 4 datasets, one full matrix pass per "
     "operation; the only workload that runs the attack layer"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("throughput_ops_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("datagen.generate_ms", "ms", "lower"),
    ("validate.self_ms", "ms", "lower"),
    ("perturb.self_ms", "ms", "lower"),
    ("perturb.rows_per_ms", "rows/ms", "higher"),
    ("columnar.qi_index_build_ms", "ms", "lower"),
    ("columnar.distinct_tuple_ratio", "ratio", "lower"),
    ("tds.self_ms", "ms", "lower"),
    ("tds.specializations", "count", "lower"),
    ("incognito.self_ms", "ms", "lower"),
    ("incognito.nodes_examined", "count", "lower"),
    ("incognito.children_pruned", "count", "higher"),
    ("incognito.prune_ratio", "ratio", "higher"),
    ("qi_groups.self_ms", "ms", "lower"),
    ("qi_groups.groups", "count", "higher"),
    ("sample.self_ms", "ms", "lower"),
    ("sample.rows_out", "count", "higher"),
    ("assemble.self_ms", "ms", "lower"),
    ("verify.self_ms", "ms", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.queue_wait_ms_p50", "ms", "lower"),
    ("engine.publish_ms_p50", "ms", "lower"),
    ("engine.recoding_hit_rate", "ratio", "higher"),
    ("engine.retention_hit_rate", "ratio", "higher"),
    ("engine.evictions", "count", "lower"),
    ("server.queue_wait_ms_p50", "ms", "lower"),
    ("server.overhead_ms_p50", "ms", "lower"),
    ("server.rejected_full", "count", "lower"),
    ("server.rejected_quota", "count", "lower"),
    ("server.rejected_deadline", "count", "lower"),
    ("server.rejected_other", "count", "lower"),
    ("attack.publish_ms", "ms", "lower"),
    ("attack.cell_ms_p50", "ms", "lower"),
    ("attack.trials", "count", "higher"),
    ("attack.trials_per_s", "1/s", "higher"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Span name -> per-layer self-time metric. Any other non-root span name
# in a trace is a driver bug.
SPAN_METRICS = {
    "validate": "validate.self_ms",
    "perturb": "perturb.self_ms",
    "columnar.qi_index_build": "columnar.qi_index_build_ms",
    "tds": "tds.self_ms",
    "incognito": "incognito.self_ms",
    "qi_groups": "qi_groups.self_ms",
    "sample": "sample.self_ms",
    "assemble": "assemble.self_ms",
    "verify": "verify.self_ms",
}
# Spans of the breach matrix and of served requests; reduced separately.
OTHER_SPANS = {"op", "request", "attack.publish", "attack.cells", "attack.cell"}

# Driver samples reduced by their median, and what they become.
SAMPLE_MEDIANS = {
    "columnar.distinct_tuple_ratio": "columnar.distinct_tuple_ratio",
    "engine.publish_ms": "engine.publish_ms_p50",
    "server.queue_wait_ms": "server.queue_wait_ms_p50",
    "server.overhead_ms": "server.overhead_ms_p50",
    "attack.cell_ms": "attack.cell_ms_p50",
    "attack.trials_per_s": "attack.trials_per_s",
}


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def end_to_end_metrics(raw):
    """End-to-end metrics of an untraced run."""
    latency = raw["latency_ms"]
    ok_ops = raw["attempted"] - raw["failed"]
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "latency_ms_p50": stats.median(latency),
        "throughput_ops_per_s": ok_ops / raw["wall_s"],
        "cpu_s_per_op": raw["cpu_s"] / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def reported_metrics(raw):
    """End-to-end figures reported on every run but not gated: the error
    rate (0 at HEAD, so it cannot carry a relative bound) and the latency
    tail, which exists only when enough operations ran."""
    latency = raw["latency_ms"]
    out = {
        "latency_samples": len(latency),
        "error_rate": stats.error_rate(raw["attempted"], raw["failed"]),
    }
    tail = stats.tail(latency)
    if tail is not None:
        out["latency_tail_percentile"], out["latency_ms_tail"] = tail
    return out


def per_layer_metrics(raw):
    """Per-layer metrics of a traced run. Layers the workload does not
    exercise read 0. Returns (metrics, attribution check or None)."""
    traced = raw["traced"]
    spans = traced["spans"]
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics["datagen.generate_ms"] = stats.median(raw["datagen_ms"])

    roots = [i for i, s in enumerate(spans) if s[0] == "op"]
    n_ops = len(roots)
    own = stats.self_times(spans)
    attribution = None
    if n_ops:
        for (name, _, start, end), self_ns in zip(spans, own):
            if name in SPAN_METRICS:
                metrics[SPAN_METRICS[name]] += self_ns / 1e6 / n_ops
            elif name not in OTHER_SPANS:
                raise ValueError("unknown span name %r" % name)
            if name == "op":
                metrics["trace.op_ms"] += (end - start) / 1e6 / n_ops
                metrics["trace.unattributed_ms"] += self_ns / 1e6 / n_ops
            if name == "attack.publish":
                metrics["attack.publish_ms"] += (end - start) / 1e6 / n_ops
        if not stats.siblings_overlap(spans):
            attributed = sum(metrics[m] for m in SPAN_METRICS.values())
            total = attributed + metrics["trace.unattributed_ms"]
            attribution = {
                "layer_self_ms": attributed,
                "unattributed_ms": metrics["trace.unattributed_ms"],
                "traced_op_ms": metrics["trace.op_ms"],
                "ok": abs(total - metrics["trace.op_ms"])
                <= 1e-6 * max(1.0, metrics["trace.op_ms"]),
            }

    for sample, metric in SAMPLE_MEDIANS.items():
        if traced["samples"].get(sample):
            metrics[metric] = stats.median(traced["samples"][sample])
    per_op = traced["per_op"]
    for name in ("qi_groups.groups", "sample.rows_out", "attack.trials"):
        if name in per_op:
            metrics[name] = per_op[name] / n_ops
    if metrics["perturb.self_ms"] > 0:
        metrics["perturb.rows_per_ms"] = (
            per_op["perturb.rows"] / n_ops / metrics["perturb.self_ms"])
    for name, value in traced["values"].items():
        if name not in metrics:
            raise ValueError("unknown layer value %r" % name)
        metrics[name] = value
    examined = metrics["incognito.nodes_examined"]
    pruned = metrics["incognito.children_pruned"]
    if examined + pruned > 0:
        metrics["incognito.prune_ratio"] = pruned / (examined + pruned)
    wait_ns = stats.histogram_quantile(
        traced["histograms"].get("parallel.queue_wait_ns", []), 0.5)
    if wait_ns is not None:
        metrics["parallel.queue_wait_ms_p50"] = wait_ns / 1e6
    metrics["trace.overhead_pct"] = 100.0 * (
        stats.median(traced["latency_ms"]) / stats.median(raw["latency_ms"])
        - 1.0)
    return metrics, attribution


def source_identity(root):
    """git revision when the checkout is a repository, and a digest of
    the sources either way."""
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return revision, digest.hexdigest()


def build(root, build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
         "-j", "4"],
        stdout=log, stderr=log, check=True, timeout=840)
    return build_dir / "perfbench_driver"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--manifest", action="store_true")
    parser.add_argument("--workload", choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no pgpub sources under %s/src" % root,
              file=sys.stderr)
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        driver = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    # The workload fixes its worker count and engine itself; no PGPUB_*
    # variable (threads, Phase-2 engine, failpoints, logging) reaches it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGPUB_")}
    ignored_env = {k: v for k, v in os.environ.items()
                   if k.startswith("PGPUB_")}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [str(driver), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", repr(args.seconds), "--trace",
             str(args.trace)],
            cwd=root, env=env, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 2
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 2
    raw = json.loads(proc.stdout)

    correct = bool(raw["correct"]) and raw["failed"] == 0
    checks = raw["checks"]
    extra = reported_metrics(raw)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup_ops": raw["warmup_ops"],
        "setup_reps": len(raw["setup_s"]),
        "reported": extra,
        "facts": raw["facts"],
    }
    revision, source_sha256 = source_identity(root)
    record["identity"] = dict(raw["identity"], git_revision=revision,
                              source_sha256=source_sha256,
                              ignored_env=ignored_env)
    if args.trace:
        layer, attribution = per_layer_metrics(raw)
        record["per_layer"] = layer
        if attribution is not None:
            record["attribution"] = attribution
            if not attribution["ok"]:
                checks.append({"name": "self_times_add_up", "ok": False,
                               "detail": json.dumps(attribution)})
                correct = False
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        e2e = end_to_end_metrics(raw)
        record["end_to_end"] = e2e
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u, _, _ in END_TO_END}
    record["checks"] = checks
    record["correct"] = correct
    record["driver_wall_s"] = time.monotonic() - started

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / ("%s.seed%d.trace%d.json"
                          % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print("workload %s  seed %d  trace %d  (%s)" % (
        args.workload, args.seed, args.trace, out_path))
    for name, value in sorted(record.get("end_to_end", {}).items()):
        print("  %-30s %14.4f" % (name, value))
    n = extra["latency_samples"]
    if "latency_ms_tail" in extra:
        print("  %-30s %14.4f  (p%g of %d samples)" % (
            "latency_ms_tail", extra["latency_ms_tail"],
            extra["latency_tail_percentile"], n))
    else:
        print("  %-30s %14s  (%d samples: none with 10 beyond)" % (
            "latency_ms_tail", "-", n))
    print("  %-30s %14.4f  (%d of %d failed)" % (
        "error_rate", extra["error_rate"], raw["failed"], raw["attempted"]))
    if args.trace:
        for name, value in sorted(record["per_layer"].items()):
            print("  %-30s %14.4f" % (name, value))
    for check in checks:
        if not check["ok"]:
            print("  CHECK FAILED %s: %s" % (check["name"], check["detail"]))

    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
