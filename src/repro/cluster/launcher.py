"""Cluster launchers: wire shards, replicas and a router together.

Two flavours:

- :class:`LocalCluster` runs every node in-process on background
  threads (each node owns its event loop, exactly like the embedded
  single server).  This is what the equivalence tests, the replica
  tests and the smoke check use — fast to start, fully deterministic,
  no subprocess management.
- :class:`ProcessCluster` runs every node as a real subprocess of
  ``python -m repro.cluster``.  This is what the crash matrix and the
  scaling benchmark use: a subprocess can be SIGKILLed mid-commit and
  restarted on the same port and data directory, and separate processes
  actually scale across cores.

Both build identical node state from a shared
:class:`~repro.cluster.dataset.ClusterDataset` and
:class:`~repro.cluster.partition.ShardMap`, so a query answered by
either cluster matches the single-server oracle built from the same
dataset.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Optional

from repro.relational.persistent import PersistentRelation
from repro.server.server import ServerConfig
from repro.cluster.client import ClusterClient
from repro.cluster.dataset import ClusterDataset, build_database
from repro.cluster.partition import ShardMap
from repro.cluster.replica import LogShipper
from repro.cluster.router import BackendSpec, Router, RouterConfig
from repro.cluster.shardserver import ShardServer

__all__ = ["LocalCluster", "ProcessCluster"]


class LocalCluster:
    """An in-process cluster: N shard servers (+ replicas) + a router.

    Args:
        dataset: the shared cluster dataset.
        nshards: primary shard count.
        replicas_per_shard: log-shipped read replicas per primary
            (requires *data_root* — replication feeds on WAL files).
        data_root: directory for shard heap/WAL files; ``None`` keeps
            primaries purely in memory (no replicas possible).
        router_config: router knobs; ``None`` uses defaults (ephemeral
            port, deterministic health refresh on every read).
        shard_workers / shard_cache_size: per-shard server knobs.
        replica_poll_interval: replica resync timer; 0 (default) means
            replication only advances when ``REPLAY`` is sent — which is
            how tests stage lag deterministically.
        clock: injectable clock handed to every replica's shipper.
    """

    def __init__(self, dataset: ClusterDataset, nshards: int,
                 replicas_per_shard: int = 0,
                 data_root: Optional[str] = None,
                 router_config: Optional[RouterConfig] = None,
                 shard_workers: int = 2, shard_cache_size: int = 64,
                 replica_poll_interval: float = 0.0,
                 order: int = 5, clock=time.monotonic):
        if replicas_per_shard and data_root is None:
            raise ValueError("replicas need data_root (they tail the "
                             "primaries' WAL files)")
        self.dataset = dataset
        self.shardmap = ShardMap(dataset.universe, nshards, order=order)
        self.shards: list[ShardServer] = []
        self.replicas: list[list[ShardServer]] = []
        self.shippers: list[list[LogShipper]] = []
        specs: list[BackendSpec] = []
        for sid in range(nshards):
            data_dir = None
            if data_root is not None:
                data_dir = os.path.join(data_root, f"shard{sid}")
                os.makedirs(data_dir, exist_ok=True)
            db = build_database(dataset, self.shardmap, sid,
                                data_dir=data_dir)
            server = ShardServer(
                ServerConfig(port=0, workers=shard_workers,
                             cache_size=shard_cache_size),
                db=db, role="primary", shard_id=sid)
            host, port = server.start_background()
            self.shards.append(server)
            specs.append(BackendSpec(f"shard{sid}", host, port, sid,
                                     "primary"))
            shard_replicas: list[ShardServer] = []
            shard_shippers: list[LogShipper] = []
            for rid in range(replicas_per_shard):
                replica_dir = os.path.join(
                    data_root, f"shard{sid}-replica{rid}")
                shipper = LogShipper(dataset, data_dir, replica_dir,
                                     clock=clock)
                replica = ShardServer(
                    ServerConfig(port=0, workers=shard_workers,
                                 cache_size=shard_cache_size),
                    role="replica", shard_id=sid, shipper=shipper,
                    poll_interval=replica_poll_interval)
                rhost, rport = replica.start_background()
                shard_replicas.append(replica)
                shard_shippers.append(shipper)
                specs.append(BackendSpec(f"shard{sid}-replica{rid}",
                                         rhost, rport, sid, "replica"))
            self.replicas.append(shard_replicas)
            self.shippers.append(shard_shippers)
        self.backends = specs
        self.router = Router(router_config or RouterConfig(),
                             dataset, self.shardmap, specs)
        self.router_host, self.router_port = self.router.start_background()

    def client(self, timeout: Optional[float] = 30.0) -> ClusterClient:
        """A fresh blocking client connected to the router."""
        return ClusterClient(self.router_host, self.router_port,
                             timeout=timeout)

    def replica_client(self, shard_id: int, replica: int = 0,
                       timeout: Optional[float] = 30.0) -> ClusterClient:
        """A client pointed directly at one replica (for REPLAY etc.)."""
        server = self.replicas[shard_id][replica]
        return ClusterClient(server.config.host, server.port,
                             timeout=timeout)

    def stop(self) -> None:
        """Stop every node, then close the primaries' heap files and WALs
        (opened by :func:`~repro.cluster.dataset.build_database` when the
        cluster has a *data_root*)."""
        self.router.stop_background()
        for shard_replicas in self.replicas:
            for replica in shard_replicas:
                replica.stop_background()
        for shard in self.shards:
            shard.stop_background()
            for relation in shard.service.db.relations():
                if isinstance(relation, PersistentRelation):
                    relation.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class _Proc:
    """One managed cluster subprocess and how to respawn it."""

    def __init__(self, argv: list[str], env: Optional[dict] = None):
        self.argv = argv
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def spawn(self, port: Optional[int] = None,
              env: Optional[dict] = None,
              timeout: float = 60.0) -> int:
        """Start (or restart) the process; returns its bound port.

        A restart pins ``--port`` to the original one so routers keep
        their backend addresses across crashes.
        """
        argv = list(self.argv)
        if port is not None:
            argv += ["--port", str(port)]
        full_env = dict(os.environ)
        if self.env:
            full_env.update(self.env)
        if env:
            full_env.update(env)
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=full_env, text=True)
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if line.startswith("PORT "):
                self.port = int(line.split()[1])
                return self.port
            if not line or time.monotonic() > deadline:
                rc = self.proc.poll()
                raise RuntimeError(
                    f"cluster process failed to hand back a port "
                    f"(exit={rc}, argv={argv})")

    def kill(self) -> None:
        """SIGKILL — the crash matrix's hammer; no cleanup runs."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def terminate(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait()


class ProcessCluster:
    """A cluster of real subprocesses (see module docstring).

    Every node is ``python -m repro.cluster`` building the demo dataset
    at *scale*; shard state lives under *data_root*, so a killed shard
    restarted on the same directory recovers through WAL replay.

    Args:
        nshards / replicas_per_shard / data_root: topology.
        scale, seed: demo dataset parameters (must match across nodes).
        replica_poll_interval: replica resync timer (subprocess replicas
            normally poll; tests can still REPLAY directly).
        shard_env: extra environment for shard processes — e.g.
            ``{"REPRO_FAILPOINTS": "cluster.shard.commit=crash:hard"}``
            arms the crash matrix's failpoints inside the child.
        replica_env: likewise for replica processes.
    """

    def __init__(self, nshards: int, data_root: str,
                 replicas_per_shard: int = 0, scale: int = 1,
                 seed: int = 7, replica_poll_interval: float = 0.2,
                 router_cache_size: int = 256,
                 replica_lag_threshold: float = 0.0,
                 shard_env: Optional[dict] = None,
                 replica_env: Optional[dict] = None):
        self.nshards = nshards
        self.data_root = data_root
        base = [sys.executable, "-m", "repro.cluster"]
        common = ["--scale", str(scale), "--seed", str(seed),
                  "--nshards", str(nshards)]
        self._shards: list[_Proc] = []
        self._replicas: list[list[_Proc]] = []
        specs: list[str] = []
        for sid in range(nshards):
            data_dir = os.path.join(data_root, f"shard{sid}")
            os.makedirs(data_dir, exist_ok=True)
            proc = _Proc(base + ["shard", "--shard-id", str(sid),
                                 "--data-dir", data_dir] + common,
                         env=shard_env)
            port = proc.spawn()
            self._shards.append(proc)
            specs.append(f"shard{sid}:127.0.0.1:{port}:{sid}:primary")
            replicas: list[_Proc] = []
            for rid in range(replicas_per_shard):
                replica_dir = os.path.join(data_root,
                                           f"shard{sid}-replica{rid}")
                rproc = _Proc(
                    base + ["replica", "--shard-id", str(sid),
                            "--primary-data-dir", data_dir,
                            "--replica-dir", replica_dir,
                            "--poll-interval",
                            str(replica_poll_interval)] + common,
                    env=replica_env)
                rport = rproc.spawn()
                replicas.append(rproc)
                specs.append(f"shard{sid}-replica{rid}:127.0.0.1:"
                             f"{rport}:{sid}:replica")
            self._replicas.append(replicas)
        router_argv = base + ["router"] + common + [
            "--cache-size", str(router_cache_size),
            "--lag-threshold", str(replica_lag_threshold)]
        for spec in specs:
            router_argv += ["--backend", spec]
        self._router = _Proc(router_argv)
        self.router_port = self._router.spawn()
        self.router_host = "127.0.0.1"

    def client(self, timeout: Optional[float] = 30.0) -> ClusterClient:
        return ClusterClient(self.router_host, self.router_port,
                             timeout=timeout)

    def replica_client(self, shard_id: int, replica: int = 0,
                       timeout: Optional[float] = 30.0) -> ClusterClient:
        return ClusterClient("127.0.0.1",
                             self._replicas[shard_id][replica].port,
                             timeout=timeout)

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one primary (mid-commit, if a failpoint armed it)."""
        self._shards[shard_id].kill()

    def wait_shard_exit(self, shard_id: int, timeout: float = 30.0) -> int:
        """Wait for a (crashing) shard process to exit; its return code."""
        proc = self._shards[shard_id].proc
        assert proc is not None
        return proc.wait(timeout=timeout)

    def restart_shard(self, shard_id: int,
                      env: Optional[dict] = None) -> None:
        """Bring a killed shard back on the same port and data dir.

        Reopening the heap files replays their WALs — recovery is the
        ordinary single-node path, the cluster just points the old
        address at the recovered data.
        """
        proc = self._shards[shard_id]
        proc.spawn(port=proc.port, env=env or {"REPRO_FAILPOINTS": ""})

    def kill_replica(self, shard_id: int, replica: int = 0) -> None:
        self._replicas[shard_id][replica].kill()

    def wait_replica_exit(self, shard_id: int, replica: int = 0,
                          timeout: float = 30.0) -> int:
        proc = self._replicas[shard_id][replica].proc
        assert proc is not None
        return proc.wait(timeout=timeout)

    def restart_replica(self, shard_id: int, replica: int = 0,
                        env: Optional[dict] = None) -> None:
        proc = self._replicas[shard_id][replica]
        proc.spawn(port=proc.port, env=env or {"REPRO_FAILPOINTS": ""})

    def stop(self) -> None:
        self._router.terminate()
        for replicas in self._replicas:
            for proc in replicas:
                proc.terminate()
        for proc in self._shards:
            proc.terminate()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
