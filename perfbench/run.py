"""naveval benchmark: seeded inputs, three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload score-corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; --workload all runs every workload in
turn. With --trace 0 it prints every end-to-end metric named in
BENCHMARK.json, speed-adjusted (see end_to_end); with --trace 1 it runs a
separate traced pass and prints every per-layer metric instead. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it give each metric under the name perfbench/README.md uses for
the workload, with its sample count and raw value, the environment and the
generator's calibration figures. The exit code is 0 when a result was printed
and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Inputs, Phase, Program, percentile, run_child

SETUP_REPEATS = 7
START_REPEATS = 5
# The reference loop's median time on the 2-vCPU x86-64 virtual machine where
# the bounds in BENCHMARK.json were set, in its faster state. Times are
# reported as they would read on a machine where the reference takes this
# long; see end_to_end.
REFERENCE_NOMINAL_MS = 1.2
# Environment variables that set BLAS and OpenMP thread counts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Per-workload names of the end-to-end metrics, used in the printed lines.
ALIASES = {
    "score-corpus": {"throughput_per_s": "records_per_s", "p50_ms": "call_p50_ms", "tail_ms": "call_p75_ms"},
    "cli-short": {"throughput_per_s": "cmds_per_s", "p50_ms": "cmd_p50_ms", "tail_ms": "cmd_p90_ms"},
    "align-train": {"throughput_per_s": "docs_per_s", "p50_ms": "doc_p50_ms", "tail_ms": "doc_p99_ms"},
}


def commit_of(root: Path) -> str | None:
    """HEAD's commit hash when the checkout is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_hash(src: Path) -> str:
    """sha256 over the program's source files, so a result names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "blas_threads_in_process_children": 1,
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit_of(root),
        "src_sha256": tree_hash(root / "src"),
    }


def end_to_end(w, phase: Phase, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict, dict]:
    """Speed-adjusted metric values, the raw ones, and their sample counts.

    The CPU speed of a shared machine drifts by up to 1.4x over minutes, which
    moves every wall time of a run alike. Each run samples a fixed reference
    loop between its operations. Times are multiplied, and rates divided, by
    REFERENCE_NOMINAL_MS / (the run's median reference time). A change to the
    program moves the adjusted values by the same share as the raw ones, since
    the reference never runs program code.
    """
    lat = phase.latencies_s
    raw = {
        "setup_s": setup_s,
        "throughput_per_s": phase.attempted / sum(lat),
        "p50_ms": statistics.median(lat) * 1000,
        "tail_ms": percentile(lat, w.tail_pct) * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    scale = REFERENCE_NOMINAL_MS / statistics.median(w.reference_ms)
    values = {
        "setup_s": raw["setup_s"] * scale,
        "throughput_per_s": raw["throughput_per_s"] / scale,
        "p50_ms": raw["p50_ms"] * scale,
        "tail_ms": raw["tail_ms"] * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "setup_s": SETUP_REPEATS,
        "throughput_per_s": phase.attempted,
        "p50_ms": len(lat),
        "tail_ms": len(lat),
        "peak_rss_mb": 1,
    }
    return values, raw, counts


def per_layer(program: Program, inputs: Inputs, phases: list[Phase], tracer: Tracer) -> dict:
    """Layer probes, run after the workload's own untraced and traced phases."""
    start_s = program.median_fresh_s("pass", START_REPEATS)
    imports = []
    for _ in range(START_REPEATS):
        _, rc, out, err = program.python(
            ["-c", "import sys, time\nt = time.perf_counter()\nimport naveval.cli\n"
             "print(time.perf_counter() - t, int('numpy' in sys.modules))"]
        )
        if rc != 0:
            raise RuntimeError(f"import naveval.cli failed: {err.decode(errors='replace')[-500:]}")
        seconds, numpy_loaded = out.split()
        imports.append(float(seconds))
    cands, refs, _ = inputs.shard(0)
    cli = inputs.cli()
    spec = {
        "root": str(inputs.root),
        "pool": inputs.pool(),
        "candidates": cands,
        "references": refs,
        "synonyms": inputs.synonyms,
        "score_out": str(inputs.dir / "probe-score.json"),
        "kb": cli["kb"],
        "queries": cli["queries"],
        "table_rows": cli["table_rows"],
        "metric_names": cli["metric_names"],
    }
    with tracer.span("probe.layers"):
        out = run_child(Program(inputs.root, blas_threads="1"), "layers", spec, inputs.dir)
        tracer.adopt(out["spans"])
    untraced, traced = phases
    return {
        "cli.python_start_ms": start_s * 1000,
        "cli.import_ms": statistics.median(imports) * 1000,
        "cli.numpy_loaded": int(numpy_loaded),
        **out["metrics"],
        "trace.overhead_ms": (statistics.median(traced.latencies_s) - statistics.median(untraced.latencies_s)) * 1000,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process; one summary line at the end,
    with each metric named <workload>.<metric>."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    if not (root / "src" / "naveval" / "cli.py").is_file():
        print("perfbench: run from the root of a naveval checkout (src/naveval is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    results = root / "perfbench" / ".work" / "results"
    workdir = root / "perfbench" / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        program = Program(root)
        inputs = Inputs(root, args.seed, workdir)
        w = WORKLOADS[args.workload](program, inputs)
        started = time.perf_counter()
        calibration = w.prepare()
        if not args.trace:
            setup_code = w.setup_code.format(synonyms=inputs.synonyms)
            program.median_fresh_s(setup_code, 1)  # the first start may compile bytecode
            setup_s = program.median_fresh_s(setup_code, SETUP_REPEATS)
        tracer = Tracer() if args.trace else None
        seconds = args.seconds / 2 if args.trace else args.seconds
        phases = w.measure(seconds, tracer)
        if args.trace:
            values = per_layer(program, inputs, phases, tracer)
            raw, counts = {}, {}
        else:
            peak = _children_maxrss_mb()
            values, raw, counts = end_to_end(w, phases[0], setup_s, peak)
        elapsed = time.perf_counter() - started
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    # Outputs of the traced phase are checked too, and count.
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [x for p in phases for x in p.problems]
    env = environment(root, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "calibration": calibration,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        "metrics": values,
        "raw_metrics": raw,
        "reference_ms_median": statistics.median(w.reference_ms) if w.reference_ms else None,
        "samples": counts,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "latencies_ms": [round(x * 1000, 4) for x in phases[0].latencies_s],
        "items": phases[0].items,
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results / f"{tag}-spans.jsonl")

    print(f"perfbench {tag}: {w.item}, closed loop, 1 client")
    print("env " + json.dumps(env, sort_keys=True))
    print("calibration " + json.dumps(calibration, sort_keys=True))
    alias = ALIASES[args.workload]
    for m in wanted:
        name = m["name"]
        shown = f"{alias[name]} ({name})" if name in alias else name
        n = f"  n={counts[name]}" if name in counts else ""
        measured = f"  (raw {raw[name]:.6g})" if name in raw and raw[name] != values[name] else ""
        print(f"  {shown:<48} {values[name]:>14.6g} {m['unit']}{n}{measured}")
    print(f"  {'error_rate':<48} {failed / attempted:>14.6g} ({failed} of {attempted} {w.item})")
    for problem in problems[:10]:
        print(f"  wrong: {problem}")
    if args.trace:
        print(f"  spans written to {results / (tag + '-spans.jsonl')}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _children_maxrss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
