"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload graph_analytics --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in its own process (``workload.py``) against the code in
``src/``.  This process regenerates the same seeded inputs, checks every
logged answer and write count against the independent oracle
(``oracle.py``), prints one summary line per workload process and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced then traced, and reports the per-layer metrics of
the traced run plus ``overhead.<metric>``, traced minus untraced, for every
end-to-end metric.  Any failed or wrong operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402

#: Wall-clock cap for one invocation, kept under the 180 s each run may take.
TIME_LIMIT = 170
BOOT_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

SERVICE_UNITS = {"service.cache_hit_ratio": "ratio", "service.view_hit_ratio": "ratio"}
HTTP_UNITS = {"http.server_ms": "ms/op", "http.overhead_ms": "ms/op"}


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark exceeded its time limit")
        return remaining


def spawn(arguments, env, deadline):
    """Run ``workload.py`` in its own session; returns its JSON record."""
    command = [sys.executable, os.path.join(HERE, "workload.py"), *arguments]
    command += ["--spawned-at", repr(time.time())]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True, text=True
    )
    try:
        out, _ = process.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise TimeoutError(f"workload process exceeded the time limit: {arguments}")
    if process.returncode != 0:
        raise RuntimeError(f"workload process failed with code {process.returncode}: {arguments}")
    return json.loads(out.strip().splitlines()[-1])


def read_log(path):
    with open(path) as handle:
        for line in handle:
            yield json.loads(line)


def verify(workload, seed, sizes, log):
    """Check the logged operations against the oracle: ``(attempted, errors, wrong)``."""
    graphs = {
        "reads": lambda: inputs.reads_graph(seed, sizes).edges,
        "mixed": lambda: inputs.mixed_graph(seed, sizes).edges,
    }
    expected = {}
    loaded = None
    if workload == "graph_analytics":
        analytics = inputs.analytics_inputs(seed, sizes)
        for name, relations in analytics.items():
            model = oracle.ANALYTICS[name](relations)
            expected[name] = {p: oracle.digest(rows) for p, rows in model.items()}
        loaded = sum(len(rows) for rows in analytics["reachability"].values())
    attempted = errors = wrong = 0
    states = {}
    for entry in log:
        op = entry["op"]
        if op == "reset":
            states[entry["state"]] = oracle.EdgeState(graphs[entry["graph"]]())
            continue
        state = states.get(entry.get("state", "main"))
        attempted += 1
        if entry.get("error"):
            errors += 1
        elif op == "program":
            wrong += entry["digests"] != expected[entry["program"]]
        elif op == "load":
            wrong += entry["count"] != loaded
        elif op == "read":
            wrong += entry["digest"] != state.answers_digest(entry["template"], entry["constant"])
        else:
            wrong += entry["count"] != state.apply(entry["kind"], entry["edges"])
    return attempted, errors, wrong


def end_to_end(record):
    """The end-to-end metrics of one workload record, in reference-host time.

    The workload processes have already divided each latency sample,
    ``boot_s`` too, by the host factor of its moment; the rate is multiplied
    by the run's mean host factor (see ``hostspeed.py``).
    """
    boot = record.get("boot_s", [])
    setup = statistics.median(boot) if boot else 0.0
    if record["setup_s"]:
        setup += statistics.median(record["setup_s"])
    reads, writes = record["reads_ms"], record["writes_ms"]
    return {
        "setup_s": setup,
        "cold_s": statistics.median(record["cold_s"]),
        "warm_s": statistics.median(record["warm_s"]),
        "read_p50_ms": statistics.median(reads),
        "read_p95_ms": percentile(reads, 95),
        "write_p50_ms": statistics.median(writes),
        "write_p90_ms": percentile(writes, 90),
        "ops_per_s": record["ops"] / record["loop_s"] * record["host_factor"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def measure(args, env, deadline, work_dir, trace):
    """One workload process (plus boot probes); returns ``(record, e2e, checks)``."""
    arguments = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
        "--work-dir", os.path.join(work_dir, f"trace{trace}"),
    ]
    os.makedirs(os.path.join(work_dir, f"trace{trace}"))
    log = os.path.join(work_dir, f"trace{trace}", "log.jsonl")
    record = spawn(arguments, env, deadline)
    if "boot_s" in record:
        record["boot_s"] = [record["boot_s"]] + [
            spawn(arguments + ["--boot-only"], env, deadline)["boot_s"]
            for _ in range(BOOT_PROBES)
        ]
    checks = verify(args.workload, args.seed, inputs.SIZES[args.scale], read_log(log))
    metrics = end_to_end(record)
    attempted, errors, wrong = checks
    reads, writes = record["reads_ms"], record["writes_ms"]
    print(
        f"{args.workload} seed={args.seed} trace={trace}: "
        + " ".join(f"{name}={value:.6g}{END_TO_END[name]}" for name, value in metrics.items())
        + f" | samples: reads={len(reads)} ({len(reads) - round(0.95 * len(reads))} beyond p95)"
        f" writes={len(writes)} ({len(writes) - round(0.9 * len(writes))} beyond p90)"
        f" cold={len(record['cold_s'])} warm={len(record['warm_s'])}"
        f" setup={len(record['setup_s'])} ops={record['ops']}"
        f" | host_factor={record['host_factor']:.4g} ({record['host_samples']} samples)"
        f" | failed_frac={(errors + wrong) / attempted:.6g}ratio"
        f" ({errors} errors, {wrong} wrong of {attempted})",
        flush=True,
    )
    return record, metrics, checks


def run_once(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Fixed string hashing: set iteration order, and with it the engines'
    # work order, is then the same in every run of one seed.
    env["PYTHONHASHSEED"] = "0"
    deadline = Deadline(TIME_LIMIT)
    work_dir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        record, metrics, checks = measure(args, env, deadline, work_dir, 0)
        attempted, errors, wrong = checks
        if args.trace:
            traced, traced_metrics, traced_checks = measure(args, env, deadline, work_dir, 1)
            attempted += traced_checks[0]
            errors += traced_checks[1]
            wrong += traced_checks[2]
            layers = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["layers"].items()}
            for name, value in traced.get("service", {"cache_hit_ratio": 0.0, "view_hit_ratio": 0.0}).items():
                layers[f"service.{name}"] = {"value": value, "unit": SERVICE_UNITS[f"service.{name}"]}
            for name, value in record.get("http", {"server_ms": 0.0, "overhead_ms": 0.0}).items():
                layers[f"http.{name}"] = {"value": value, "unit": HTTP_UNITS[f"http.{name}"]}
            layers["host.factor"] = {"value": traced["host_factor"], "unit": "ratio"}
            for name, unit in END_TO_END.items():
                layers[f"overhead.{name}"] = {"value": traced_metrics[name] - metrics[name], "unit": unit}
            output = layers
        else:
            output = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": output,
    }
    return result


def smoke():
    """Every workload, both trace modes, tiny inputs: names, units, oracle."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if wanted[0] != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {wanted[0]} != emitted {END_TO_END}")
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace, scale="smoke")
            result = run_once(args)
            emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if emitted != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(wanted[trace]))
                units = sorted(n for n in set(emitted) & set(wanted[trace]) if emitted[n] != wanted[trace][n])
                problems.append(f"{workload} trace={trace}: missing {missing}, extra {extra}, unit mismatch {units}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("graph_analytics", "selection_reads", "mixed_rw_http"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, assert")
    args = parser.parse_args(argv)
    args.scale = "full"
    if not os.path.isdir(os.path.join(ROOT, "src", "repro", "datalog")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro', 'datalog')} is missing",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result = run_once(args)
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
