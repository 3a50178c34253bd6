"""One workload in its own process; prints one JSON record as its last line.

Started by ``run.py`` (never run by hand) as::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --scale full|smoke --spawned-at EPOCH --work-dir DIR

The record holds raw samples (setup, cold, warm, read and write latencies),
peak RSS and, when traced, per-layer metrics.  The operation log for the
oracle (answer digests, write counts) goes to ``log.jsonl`` in the work
directory, one line per operation written outside the timed intervals, so
neither the log nor the oracle, which runs in the parent, adds to this
process's memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection

import inputs
from hostspeed import REFERENCE_S, HostSpeed, Samples
from oracle import digest

#: Cold, warm and write probes run in rounds spread evenly over the timed
#: loop (and outside its measured time), so they see the same host as the
#: loop does instead of one moment before or after it.
PROBE_ROUNDS = 24
#: Write probes per round on ``selection_reads`` (see ``inputs.probe_writes``).
WRITES_PER_ROUND = 8
#: Bulk-load write probes after each cold+warm cycle of ``graph_analytics``.
LOADS_PER_CYCLE = 15
PROBE_TEMPLATES = ("reach_src", "reach_dst")
#: Host-speed samples right after interpreter start, for ``boot_s``.
BOOT_SAMPLES = 3

perf = time.perf_counter


class Run:
    """Samples and the oracle log of one workload process."""

    def __init__(self, args, tracer, host):
        self.args = args
        self.sizes = inputs.SIZES[args.scale]
        self.tracer = tracer
        self.host = host
        self.setup = Samples()
        self.cold = Samples()
        self.warm = Samples()
        self.reads = Samples()
        self.writes = Samples()
        self.log = open(os.path.join(args.work_dir, "log.jsonl"), "w")
        self.ops = 0
        self.answers = 0
        self.loop_s = 0.0
        self.extra = {}
        self.rounds = 0

    def note(self, entry):
        """Append one operation to the oracle log."""
        self.log.write(json.dumps(entry) + "\n")

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def phase(self, name):
        if self.tracer:
            self.tracer.phase = name

    def keep_going(self, started, excluded):
        """Loop until ``--seconds`` of measured time and enough tail samples."""
        elapsed = perf() - started - excluded
        enough = len(self.reads) >= self.sizes["min_reads"] and (
            self.args.workload != "mixed_rw_http"
            or len(self.writes) >= self.sizes["min_writes"]
        )
        return elapsed < self.args.seconds or (not enough and elapsed < 2 * self.args.seconds)

    def probe_due(self, started, excluded):
        """Whether the next of ``PROBE_ROUNDS`` evenly spaced probe rounds is due."""
        elapsed = perf() - started - excluded
        if self.rounds < PROBE_ROUNDS and elapsed >= (self.rounds + 0.5) * self.args.seconds / PROBE_ROUNDS:
            self.rounds += 1
            return True
        return False

    def record(self):
        return {
            "setup_s": self.host.normalize(self.setup),
            "cold_s": self.host.normalize(self.cold),
            "warm_s": self.host.normalize(self.warm),
            "reads_ms": self.host.normalize(self.reads),
            "writes_ms": self.host.normalize(self.writes),
            "ops": self.ops,
            "answers": self.answers,
            "loop_s": self.loop_s,
            "host_factor": self.host.factor(),
            "host_samples": len(self.host.samples),
            **self.extra,
        }


def _read_entry(template, constant, rows):
    return {"op": "read", "template": template, "constant": constant, "digest": digest(rows)}


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# graph_analytics
# ---------------------------------------------------------------------------


def graph_analytics(run):
    from repro.datalog import parser
    from repro.datalog.database import Database
    from repro.datalog.session import QuerySession

    relations = inputs.analytics_inputs(run.args.seed, run.sizes)
    reference = {}
    gc.collect()
    gc.freeze()

    def evaluate(name, session, derived, cold):
        """One program: (cold) parse + load + session, then evaluate and read back."""
        started = perf()
        if cold:
            program = parser.parse_program(inputs.ANALYTICS[name][0])
            with run.span("database.load"):
                database = Database(layout="columnar")
                database.add_relations(relations[name])
            session = QuerySession(program, database)
            result = session.evaluate()
        else:
            result = session.evaluate(fresh=True)
        with run.span("columnar.decode"):
            model = {predicate: result.idb_facts.relation(predicate) for predicate in derived}
        return session, model, perf() - started

    def check(name, model):
        if name not in reference:
            reference[name] = (model, {p: digest(rows) for p, rows in model.items()})
        expected, digests = reference[name]
        if model != expected:
            digests = {p: digest(rows) for p, rows in model.items()}
        run.note({"op": "program", "program": name, "digests": digests})
        run.answers += sum(len(rows) for rows in model.values())

    def load_probes(count):
        """Write probes: bulk loads of the reachability input (the analytics
        user's write) into fresh columnar databases."""
        for _ in range(count):
            began = perf()
            database = Database(layout="columnar")
            loaded = database.add_relations(relations["reachability"])
            run.writes.append((perf() - began) * 1000.0)
            run.note({"op": "load", "count": loaded})
            database = None

    run.phase("loop")
    started = perf()
    excluded = 0.0
    while True:
        pause = perf()
        gc.collect()
        excluded += perf() - pause
        sessions = {}
        cold_total = 0.0
        for name, (_, derived) in inputs.ANALYTICS.items():
            session, model, elapsed = evaluate(name, None, derived, cold=True)
            sessions[name] = session
            cold_total += elapsed
            pause = perf()
            check(name, model)
            run.host.tick()
            excluded += perf() - pause
        run.cold.append(cold_total)
        run.ops += len(sessions)
        for _ in range(run.sizes["warm_per_cold"]):
            pause = perf()
            gc.collect()
            excluded += perf() - pause
            warm_total = 0.0
            for name, (_, derived) in inputs.ANALYTICS.items():
                _, model, elapsed = evaluate(name, sessions[name], derived, cold=False)
                warm_total += elapsed
                run.reads.append(elapsed * 1000.0)
                pause = perf()
                check(name, model)
                run.host.tick()
                excluded += perf() - pause
            run.warm.append(warm_total)
            run.ops += len(sessions)
        pause = perf()
        run.phase(None)
        gc.collect()
        load_probes(LOADS_PER_CYCLE)
        run.phase("loop")
        excluded += perf() - pause
        if not run.keep_going(started, excluded):
            break
    run.loop_s = perf() - started - excluded
    run.phase(None)


# ---------------------------------------------------------------------------
# selection_reads
# ---------------------------------------------------------------------------


def selection_reads(run):
    from repro.datalog.database import Database
    from repro.datalog.service import DatalogService
    from repro.datalog.transforms import MagicSets

    graph = inputs.reads_graph(run.args.seed, run.sizes)
    edges, nodes = graph.edges, graph.nodes
    probes = {"reach_src": graph.label[0], "reach_dst": graph.label[nodes - 1]}
    writes = inputs.probe_writes(run.args.seed, nodes, edges, PROBE_ROUNDS * WRITES_PER_ROUND)
    gc.collect()
    gc.freeze()

    def read(service, template, constant, **options):
        parameter = inputs.TEMPLATES[template][1]
        return service.execute(template, {parameter: constant}, **options)

    def probe_reads(service, state, **options):
        answers = [read(service, t, probes[t], **options) for t in PROBE_TEMPLATES]
        for template, rows in zip(PROBE_TEMPLATES, answers):
            run.note({**_read_entry(template, probes[template], rows), "state": state})

    def cold_probe(state):
        """Fresh database and service, then the first read of each template."""
        gc.collect()
        run.note({"op": "reset", "graph": "reads", "state": state})
        started = perf()
        database = Database()
        database.add_relations({"edge": edges})
        service = DatalogService(database)
        for name, (text, _) in inputs.TEMPLATES.items():
            service.register_program(name, text, transforms=(MagicSets(),))
            service.prepare(name)
        run.setup.append(perf() - started)
        probe_reads(service, state)
        run.cold.append(perf() - started)
        return service

    def probe_round(service, round_writes):
        """A cold probe, a warm probe on the loop's service, and write probes
        on the cold probe's own service (the copy-and-swap write path with
        no views and no WAL), so the loop's cache is left alone."""
        fresh = cold_probe("probe")
        started = perf()
        probe_reads(service, "main", fresh=True)
        run.warm.append(perf() - started)
        for kind, batch in round_writes:
            began = perf()
            count = getattr(fresh, kind)([("edge", edge) for edge in batch])
            run.writes.append((perf() - began) * 1000.0)
            run.note({"op": "write", "kind": kind, "edges": batch, "count": count, "state": "probe"})

    service = cold_probe("main")
    before = service.statistics()
    stream = inputs.read_stream(run.args.seed, graph)
    run.phase("loop")
    started = perf()
    excluded = 0.0
    while run.keep_going(started, excluded):
        if run.probe_due(started, excluded):
            pause = perf()
            run.phase(None)
            first = (run.rounds - 1) * WRITES_PER_ROUND
            probe_round(service, writes[first:first + WRITES_PER_ROUND])
            run.phase("loop")
            excluded += perf() - pause
            continue
        template, constant = next(stream)
        began = perf()
        try:
            rows = read(service, template, constant)
            entry = None
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none ends the run
            entry = {"op": "read", "template": template, "constant": constant, "error": _error(exc)}
        run.reads.append((perf() - began) * 1000.0)
        pause = perf()
        if entry is None:
            entry = _read_entry(template, constant, rows)
            run.answers += len(rows)
        run.note(entry)
        run.host.tick()
        excluded += perf() - pause
        run.ops += 1
    run.loop_s = perf() - started - excluded
    run.phase(None)
    after = service.statistics()
    run.extra["service"] = _service_ratios(before, after, len(run.reads))


def _service_ratios(before, after, reads):
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    views = after["view_hits"] - before["view_hits"]
    return {
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "view_hit_ratio": views / reads if reads else 0.0,
    }


# ---------------------------------------------------------------------------
# mixed_rw_http
# ---------------------------------------------------------------------------


class Server:
    """A ``repro serve`` process started through ``serve.py`` on a fresh data dir."""

    def __init__(self, run, name):
        self.dir = os.path.join(run.args.work_dir, name)
        os.makedirs(self.dir)
        self.spans = os.path.join(self.dir, "spans.json") if run.args.trace else None
        command = [sys.executable, os.path.join(os.path.dirname(__file__), "serve.py")]
        if self.spans:
            command += ["--spans", self.spans]
        command += [
            "--", "serve", os.path.join(self.dir, "data"),
            "--fsync", "batch", "--workers", "2", "--snapshot-every", "200",
        ]
        self.out = os.path.join(self.dir, "server.out")
        with open(self.out, "w") as out, open(os.path.join(self.dir, "server.err"), "w") as err:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, stdin=subprocess.DEVNULL
            )
        deadline = time.time() + 120
        while True:
            with open(self.out) as out:
                line = out.readline()
            if line.startswith("READY"):
                _, host, port = line.split()
                break
            if self.process.poll() is not None or time.time() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.dir}")
            time.sleep(0.005)
        self.connection = HTTPConnection(host, int(port), timeout=120)

    def request(self, method, path, payload=None):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data

    def call(self, path, payload):
        status, data = self.request("POST", path, payload)
        if status != 200:
            raise RuntimeError(f"{path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, graceful=True):
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _histogram_totals(text):
    """Summed server request seconds and count of the data endpoints."""
    total, count = 0.0, 0
    for line in text.splitlines():
        for endpoint in ("execute", "add_facts", "remove_facts"):
            label = f'{{endpoint="{endpoint}"}}'
            if line.startswith("repro_http_request_seconds_sum" + label):
                total += float(line.split()[-1])
            elif line.startswith("repro_http_request_seconds_count" + label):
                count += int(line.split()[-1])
    return total, count


def mixed_rw_http(run):
    # This process is only the client; the system under test is the server.
    # Its own garbage collections would otherwise land inside timed requests.
    gc.disable()
    sizes = run.sizes
    graph = inputs.mixed_graph(run.args.seed, sizes)
    hubs = graph.label[: sizes["hubs"]]
    facts = [["edge", list(edge)] for edge in sorted(graph.edges)]
    source = inputs.TEMPLATES["reach_src"][0]
    probes = (graph.label[len(hubs)], graph.label[graph.nodes // 2])

    def probe_reads(server, state, fresh=False):
        payload = {"name": "reach", "params": {}}
        if fresh:
            payload["fresh"] = True
        for constant in probes:
            payload["params"]["src"] = constant
            rows = [tuple(row) for row in server.call("/execute", payload)["answers"]]
            run.note({**_read_entry("reach_src", constant, rows), "state": state})

    def cold_probe(state):
        """A fresh server through load, registration and views, then two reads."""
        run.note({"op": "reset", "graph": "mixed", "state": state})
        started = perf()
        server = Server(run, f"server-{len(run.cold)}")
        try:
            server.call("/register", {"name": "reach", "source": source, "transforms": ["magic"]})
            server.call("/add_facts", {"facts": facts})
            for hub in hubs:
                server.call("/materialize", {"name": "reach", "params": {"src": hub}})
            run.setup.append(perf() - started)
            probe_reads(server, state)
            run.cold.append(perf() - started)
        except BaseException:
            server.stop(graceful=False)
            raise
        return server

    def server_totals():
        return _histogram_totals(server.request("GET", "/metrics")[1].decode())

    server = cold_probe("main")
    pauses = []
    # Server time of the warm probes' requests, which are not loop operations.
    probe_seconds = probe_requests = 0
    try:
        seconds_before, count_before = server_totals()
        statistics_before = json.loads(server.request("GET", "/statistics")[1])
        stream = inputs.MixedStream(run.args.seed, graph, len(hubs))
        window_start = time.time()
        started = perf()
        excluded = 0.0
        while run.keep_going(started, excluded):
            if run.probe_due(started, excluded):
                pause, paused_at = perf(), time.time()
                cold_probe("probe").stop(graceful=False)
                seconds, count = server_totals()
                began = perf()
                probe_reads(server, "main", fresh=True)
                run.warm.append(perf() - began)
                seconds_after, count_after = server_totals()
                probe_seconds += seconds_after - seconds
                probe_requests += count_after - count
                pauses.append((paused_at, time.time()))
                excluded += perf() - pause
                continue
            op = next(stream)
            if op[0] == "read":
                constant = op[1]
                payload = {"name": "reach", "params": {"src": constant}}
                began = perf()
                status, data = server.request("POST", "/execute", payload)
                run.reads.append((perf() - began) * 1000.0)
                pause = perf()
                if status == 200:
                    rows = [tuple(row) for row in json.loads(data)["answers"]]
                    run.note(_read_entry("reach_src", constant, rows))
                    run.answers += len(rows)
                else:
                    run.note({"op": "read", "template": "reach_src", "constant": constant,
                              "error": f"HTTP {status}"})
                run.host.tick()
                excluded += perf() - pause
            else:
                kind, batch = op
                payload = {"facts": [["edge", list(edge)] for edge in batch]}
                began = perf()
                status, data = server.request("POST", f"/{kind}", payload)
                run.writes.append((perf() - began) * 1000.0)
                pause = perf()
                entry = {"op": "write", "kind": kind, "edges": batch}
                if status == 200:
                    entry["count"] = json.loads(data)["added" if kind == "add_facts" else "removed"]
                else:
                    entry["error"] = f"HTTP {status}"
                run.note(entry)
                run.host.tick()
                excluded += perf() - pause
            run.ops += 1
        run.loop_s = perf() - started - excluded
        window = (window_start, time.time())
        seconds_after, count_after = server_totals()
        statistics_after = json.loads(server.request("GET", "/statistics")[1])

        run.extra["peak_rss_mb"] = server.peak_rss_mb()
        run.extra["service"] = _service_ratios(statistics_before, statistics_after, len(run.reads))
        requests = count_after - count_before - probe_requests
        if requests != run.ops:
            raise RuntimeError(f"server counted {requests} loop requests for {run.ops} operations")
        server_ms = (seconds_after - seconds_before - probe_seconds) * 1000.0 / requests if requests else 0.0
        client_ms = (sum(run.reads) + sum(run.writes)) / run.ops if run.ops else 0.0
        run.extra["http"] = {"server_ms": server_ms, "overhead_ms": client_ms - server_ms}
        server.stop()
        if server.spans:
            import tracing

            offset, spans = tracing.load(server.spans)

            def in_loop(span):
                at = span[tracing.START] + offset
                return window[0] <= at <= window[1] and not any(a <= at <= b for a, b in pauses)

            run.extra["layers"] = tracing.summarize(
                spans, in_loop, run.ops, len(run.writes), run.answers
            )
    finally:
        server.stop(graceful=False)


WORKLOADS = {
    "graph_analytics": graph_analytics,
    "selection_reads": selection_reads,
    "mixed_rw_http": mixed_rw_http,
}

#: Modules each in-process workload imports before its first timed step.
IMPORTS = {
    "graph_analytics": ("repro.datalog.parser", "repro.datalog.database", "repro.datalog.session"),
    "selection_reads": ("repro.datalog.database", "repro.datalog.service", "repro.datalog.transforms"),
    "mixed_rw_http": (),
}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SIZES), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--boot-only", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for this process and the server it starts: with one
    # closed-loop client nothing runs in parallel, and on a small shared
    # host cross-CPU wake-ups otherwise add a drifting 50% to round trips.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    boot_s = time.time() - args.spawned_at
    # Interpreter start is divided by the host factor of the moments just after it.
    host = HostSpeed()
    boot_s /= sum(host.sample() for _ in range(BOOT_SAMPLES)) / BOOT_SAMPLES / REFERENCE_S
    if args.boot_only:
        print(json.dumps({"boot_s": boot_s}))
        return 0

    tracer = None
    if args.trace and args.workload != "mixed_rw_http":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = Run(args, tracer, host)
    WORKLOADS[args.workload](run)
    run.log.close()
    if args.workload != "mixed_rw_http":
        # Taken before the record is built, so its serialisation never counts.
        run.extra["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.extra["boot_s"] = boot_s
    record = run.record()
    if tracer is not None:
        import tracing

        record["layers"] = tracing.summarize(
            tracer.spans,
            lambda span: span[tracing.PHASE] == "loop",
            run.ops,
            0,
            run.answers,
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
