"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload map-fresh --seed 1 --seconds 10 \\
        --trace 0

The serving process(es) run ``python -m repro.server`` /
``python -m repro.cluster`` through ``perfbench/launch.py``.  One
generator process drives them with two closed-loop client connections,
one thread each.  Every response is checked.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  The server is set up
SETUPS times and ``setup_s`` is the median; the last set-up serves the
measured phase.  ``--trace 1`` splits the measured time in two halves,
untraced and then with span tracing installed, and reports the
per-layer metrics of the traced half plus the tracing overhead between
the two.
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
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
WORKDIR = os.path.join(HERE, ".run")

#: set-ups per --trace 0 run; setup_s is their median
SETUPS = 3
#: untimed requests per connection before the measured phase
WARMUP = 60
#: server worker pool: nproc on the reference box
WORKERS = 2
#: hard cap on one invocation, well inside the 180 s a run may take
DEADLINE_S = 170
#: a generator using this share of a core or more may be the bottleneck
GEN_CPU_LIMIT = 0.85

WORKLOADS = {
    # name: (serving shape, database factory, requests per connection).
    # A read list longer than the run is replayed from the start; the
    # replay distance (both connections' lists) is far beyond the
    # 256-entry result cache and the 64-entry plan cache, so a replayed
    # request still misses both.
    "map-fresh": ("server", "perfbench.factories:map_database", 1000),
    "map-hot": ("server", "perfbench.factories:map_database", 200_000),
    "disk-window": ("server", "perfbench.factories:disk_database", 5000),
    "cluster-churn": ("cluster", None, 5000),
}


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer: those count)."""


# -- serving processes --------------------------------------------------------


class Deployment:
    """The serving process(es) of one set-up, and how to reach them."""

    def __init__(self, workload: str, seed: int, tag: str,
                 trace: bool = False):
        self.procs: list[subprocess.Popen] = []
        self.trace_files: list[str] = []
        self.dir = os.path.join(WORKDIR, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.trace = trace
        # A fixed hash seed gives every run the same dict and set layout.
        self.env = dict(os.environ, PERFBENCH_SEED=str(seed),
                        PERFBENCH_WORKDIR=self.dir,
                        PYTHONHASHSEED="0")
        self.shard_ports: list[int] = []
        shape, factory, _n = WORKLOADS[workload]
        started = time.perf_counter()
        try:
            if shape == "server":
                self.port = self._spawn_server(factory)
            else:
                self.port = self._spawn_cluster(seed)
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _launch(self, args: list[str]) -> subprocess.Popen:
        argv = [sys.executable, LAUNCH]
        if self.trace:
            path = os.path.join(self.dir, f"spans-{len(self.procs)}.json")
            self.trace_files.append(path)
            argv += ["--trace-out", path]
        log = open(os.path.join(self.dir, f"proc-{len(self.procs)}.log"),
                   "wb")
        try:
            proc = subprocess.Popen(argv + args, stdout=subprocess.PIPE,
                                    stderr=log, env=self.env, text=True,
                                    cwd=ROOT)
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    @staticmethod
    def _read_port(proc: subprocess.Popen, marker: str) -> int:
        assert proc.stdout is not None
        for line in proc.stdout:
            if marker in line:
                if marker == "PORT ":
                    return int(line.split()[1])
                return int(line.split(marker)[1].split()[0].rsplit(":")[1])
        raise BenchError(f"serving process exited with {proc.wait()} "
                         f"before it listened")

    def _spawn_server(self, factory: str) -> int:
        proc = self._launch(["server", "--port", "0",
                             "--workers", str(WORKERS),
                             "--database", factory])
        return self._read_port(proc, "listening on ")

    def _spawn_cluster(self, seed: int) -> int:
        from perfbench.factories import CLUSTER_SHARDS, MAP_SCALE
        common = ["--scale", str(MAP_SCALE), "--seed", str(seed),
                  "--nshards", str(CLUSTER_SHARDS), "--workers", str(WORKERS)]
        shards = [self._launch(["cluster", "shard", "--shard-id", str(sid),
                                "--data-dir",
                                os.path.join(self.dir, f"shard{sid}")]
                               + common)
                  for sid in range(CLUSTER_SHARDS)]
        self.shard_ports = [self._read_port(p, "PORT ") for p in shards]
        backends = []
        for sid, port in enumerate(self.shard_ports):
            backends += ["--backend",
                         f"shard{sid}:127.0.0.1:{port}:{sid}:primary"]
        router = self._launch(["cluster", "router"] + common + backends)
        return self._read_port(router, "PORT ")

    def _wait_ready(self) -> None:
        from repro.server.client import Client
        with Client("127.0.0.1", self.port, timeout=60) as client:
            if not client.ping():
                raise BenchError("server did not answer PING")

    def settle(self) -> None:
        """Write the set-up's files (index, heaps, WAL) through to disk.

        The kernel would otherwise write them back some 30 s after the
        set-up, in the middle of the measured phase.
        """
        for parent, _dirs, files in os.walk(self.dir):
            for name in files:
                fd = os.open(os.path.join(parent, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def peak_rss_mb(self) -> float:
        total = 0
        for proc in self.procs:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        return total / 1024.0

    def shard_stats(self) -> list[dict]:
        from repro.server.client import Client
        out = []
        for port in self.shard_ports:
            with Client("127.0.0.1", port, timeout=30) as client:
                out.append(client.stats())
        return out

    def stop(self) -> None:
        """SIGINT (tracing writes its spans on the way out), then kill."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


# -- the closed-loop generator ------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (non-empty)."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


class Phase:
    """One measured phase: warm-up, STATS, timed loop, STATS."""

    def __init__(self, scripts, deployment: Deployment, seconds: float,
                 shard_stats: bool = False):
        self.scripts = scripts
        self.deployment = deployment
        self.seconds = seconds
        self.shard_stats = shard_stats
        self.latencies = [[] for _ in scripts]
        self.ends = [[] for _ in scripts]     #: completion times
        self.attempted = [0 for _ in scripts]
        self.failed = [0 for _ in scripts]
        self.errors: list[str] = []
        self.stats: list[dict] = []
        self.t0 = self.t1 = 0.0
        self.cpu = 0.0
        self._barrier = threading.Barrier(len(scripts))

    def _snapshot(self, client) -> dict:
        stats = dict(client.stats())
        if self.shard_stats:
            for shard in self.deployment.shard_stats():
                for key, value in shard.items():
                    if key.startswith(("rtree.", "psql.", "storage.")):
                        stats[key] = stats.get(key, 0) + value
        return stats

    def _fail(self, idx: int, why: str) -> None:
        self.failed[idx] += 1
        if len(self.errors) < 10:
            self.errors.append(f"{self.scripts[idx].label}: {why}")

    def _conn(self, idx: int) -> None:
        script = self.scripts[idx]
        lead = idx == 0
        try:
            client = script.connect("127.0.0.1", self.deployment.port)
        except Exception as exc:  # noqa: BLE001 - reported, phase aborts
            self._fail(idx, f"connect: {exc}")
            self._barrier.abort()
            return
        try:
            script.begin(client)
            self._barrier.wait()
            if lead:
                self.stats.append(self._snapshot(client))
            self._barrier.wait()
            for i in range(WARMUP):
                self.attempted[idx] += 1
                why = script.send(client, i)
                if why:
                    self._fail(idx, why)
            self._barrier.wait()
            if lead:
                self.stats.append(self._snapshot(client))
                self.cpu = time.process_time()
                self.t0 = time.perf_counter()
            self._barrier.wait()
            deadline = self.t0 + self.seconds
            lat = self.latencies[idx]
            ends = self.ends[idx]
            i = WARMUP
            clock = time.perf_counter
            while True:
                start = clock()
                if start >= deadline:
                    break
                why = script.send(client, i)
                end = clock()
                lat.append(end - start)
                ends.append(end)
                self.attempted[idx] += 1
                if why:
                    self._fail(idx, why)
                i += 1
            self._barrier.wait()
            if lead:
                self.t1 = time.perf_counter()
                self.cpu = time.process_time() - self.cpu
                self.stats.append(self._snapshot(client))
                final = getattr(script, "final_check", None)
                if final is not None:
                    self.attempted[idx] += 1
                    why = final(client)
                    if why:
                        self._fail(idx, f"final check: {why}")
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # noqa: BLE001 - a dead connection fails
            self.attempted[idx] += 1
            self._fail(idx, f"{type(exc).__name__}: {exc}")
            self._barrier.abort()
        finally:
            try:
                client.close()
            except OSError:
                pass

    def run(self) -> "Phase":
        threads = [threading.Thread(target=self._conn, args=(i,),
                                    name=f"conn{i}", daemon=True)
                   for i in range(len(self.scripts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if len(self.stats) < 3:
            raise BenchError("phase did not complete: "
                             + "; ".join(self.errors))
        self.wall = self.t1 - self.t0
        return self

    def median_read_rate(self) -> float:
        """Reads completed per second: the median over 1 s windows.

        A stall of a second or two on the shared host moves the median
        far less than it moves the mean rate over the whole phase.
        """
        nwin = max(1, int(self.seconds))
        windows: list[list[float]] = [[] for _ in range(nwin)]
        for script, ends in zip(self.scripts, self.ends):
            if script.kind != "read":
                continue
            for end in ends:
                slot = int((end - self.t0) * nwin / self.seconds)
                if slot < nwin:
                    windows[slot].append(end)
        # completions per second between a window's first and last one
        rates = [(len(w) - 1) / (max(w) - min(w))
                 for w in windows if len(w) > 1 and max(w) > min(w)]
        if not rates:
            raise BenchError("too few reads completed to measure a rate")
        return statistics.median(rates)

    @property
    def requests(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    def mean_latency_ms(self) -> float:
        every = [x for lat in self.latencies for x in lat]
        return 1e3 * statistics.fmean(every)


# -- metrics ------------------------------------------------------------------

#: the metrics of the final JSON line.  The p99 latencies are printed
#: on the report lines only: on the 2-core reference box their spread
#: over ten seeded runs reached 0.2-0.6 of the median, above the largest
#: bound a metric may have (see perfbench/README.md).
E2E_UNITS = {"setup_s": "s", "read_qps": "req/s", "text_p50_ms": "ms",
             "conn2_p50_ms": "ms", "peak_rss_mb": "MB"}


def e2e_metrics(phase: Phase, setups: list[float],
                rss_mb: float) -> tuple[dict, list[str]]:
    """End-to-end metrics plus report lines under the README's names."""
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": rss_mb}
    reads = 0
    lines = [f"setup_s = {values['setup_s']:.4f} s "
             f"(median of {len(setups)} set-ups: "
             + ", ".join(f"{s:.3f}" for s in setups) + ")"]
    for script, lat in zip(phase.scripts, phase.latencies):
        if not lat:
            raise BenchError(f"no measured {script.label} requests")
        p50 = 1e3 * percentile(lat, 50)
        p99 = 1e3 * percentile(lat, 99)
        values[f"{script.role}_p50_ms"] = p50
        lines.append(f"{script.label}_p50_ms = {p50:.4f} ms, "
                     f"{script.label}_p99_ms = {p99:.4f} ms "
                     f"(n={len(lat)}, reported as {script.role}_*)")
        if script.kind == "read":
            reads += len(lat)
    values["read_qps"] = phase.median_read_rate()
    lines.append(f"read_qps = {values['read_qps']:.2f} req/s (median "
                 f"over {int(phase.seconds)} one-second windows; "
                 f"{reads} reads in {phase.wall:.3f} s)")
    lines.append(f"peak_rss_mb = {rss_mb:.2f} MB (VmHWM, summed over "
                 f"the serving processes)")
    return values, lines


def generator_lines(phase: Phase) -> list[str]:
    cores = phase.cpu / phase.wall
    lines = [f"generator: {len(phase.scripts)} connections, "
             f"{phase.cpu:.2f} s CPU in {phase.wall:.2f} s "
             f"({cores:.2f} cores)"]
    if cores >= GEN_CPU_LIMIT:
        lines.append("WARNING: the generator, not the server, may be the "
                     "bottleneck of this run")
    for script in phase.scripts:
        if script.wraps:
            lines.append(f"{script.label} connection replayed its "
                         f"{len(script.requests)}-request list "
                         f"{script.wraps} time(s)")
    return lines


def warmup_count_lines(phase: Phase) -> list[str]:
    """Exact node counts over the fixed warm-up requests."""
    before, after = phase.stats[0], phase.stats[1]
    out = []
    for visited, queries in (
            ("rtree.search.nodes_visited", "rtree.search.queries"),
            ("storage.disk_rtree.nodes_read", "storage.disk_rtree.queries")):
        n = int(after.get(visited, 0)) - int(before.get(visited, 0))
        q = int(after.get(queries, 0)) - int(before.get(queries, 0))
        if q:
            out.append(f"{visited} over the fixed warm-up requests: {n} "
                       f"in {q} searches")
    return out


# -- running a workload -------------------------------------------------------


def _scripts(workload: str, seed: int):
    from perfbench.workloads import SCRIPTS
    return SCRIPTS[workload](seed, WORKLOADS[workload][2])


def _phase(workload: str, seed: int, seconds: float, tag: str,
           trace: bool = False, setups: int = 1):
    """Set up *setups* times, measure on the last; returns phase facts."""
    times = []
    for n in range(setups - 1):
        deployment = Deployment(workload, seed, f"{tag}-setup{n}")
        times.append(deployment.setup_s)
        deployment.stop()
        shutil.rmtree(deployment.dir, ignore_errors=True)
    scripts = _scripts(workload, seed)
    deployment = Deployment(workload, seed, tag, trace=trace)
    times.append(deployment.setup_s)
    try:
        deployment.settle()
        phase = Phase(scripts, deployment, seconds,
                      shard_stats=trace and bool(deployment.shard_ports))
        phase.run()
        rss = deployment.peak_rss_mb()
    finally:
        deployment.stop()
    return phase, times, rss, deployment


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        phase, setups, rss, deployment = _phase(workload, seed, seconds,
                                                "e2e", setups=SETUPS)
        shutil.rmtree(deployment.dir, ignore_errors=True)
        values, lines = e2e_metrics(phase, setups, rss)
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]}
                   for k in E2E_UNITS}
        lines += generator_lines(phase) + warmup_count_lines(phase)
        phases = [phase]
    else:
        from perfbench.reduce import LAYER_METRICS, SpanSet, layer_metrics
        half = seconds / 2
        plain, _s, _r, deployment = _phase(workload, seed, half, "plain")
        shutil.rmtree(deployment.dir, ignore_errors=True)
        traced, _s, _r, deployment = _phase(workload, seed, half,
                                            "traced", trace=True)
        spans = SpanSet(deployment.trace_files, traced.t0, traced.t1)
        shutil.rmtree(deployment.dir, ignore_errors=True)
        values = layer_metrics(spans, traced.stats[1], traced.stats[2],
                               traced.requests, traced.mean_latency_ms())
        values["trace.overhead_pct"] = 100.0 * (
            traced.mean_latency_ms() / plain.mean_latency_ms() - 1.0)
        values["gen.cpu_cores"] = traced.cpu / traced.wall
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_rest in LAYER_METRICS}
        lines = [f"{name} = {values[name]:.6g} {unit}   [{source}; moves "
                 f"{moves}; little effect on {spared}]"
                 for name, unit, source, moves, spared in LAYER_METRICS]
        lines.append(f"tracing overhead: mean latency "
                     f"{plain.mean_latency_ms():.4f} ms untraced, "
                     f"{traced.mean_latency_ms():.4f} ms traced")
        lines.append(f"per request (n={traced.requests}): span calls and "
                     f"self ms")
        for name, (calls, _dur, own) in sorted(spans.totals.items()):
            lines.append(f"  {name:24s} {calls / traced.requests:10.3f} "
                         f"{1e3 * own / traced.requests:10.4f}")
        if spans.missing:
            lines.append("not traced (callable not found): "
                         + ", ".join(sorted(spans.missing)))
        lines += generator_lines(traced) + warmup_count_lines(traced)
        phases = [plain, traced]
    attempted = sum(sum(p.attempted) for p in phases)
    failed = sum(sum(p.failed) for p in phases)
    for phase in phases:
        lines += [f"FAILED {e}" for e in phase.errors]
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    def on_alarm(_signum, _frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
