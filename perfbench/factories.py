"""Seeded datasets and the zero-argument database factories.

Servers name their database with ``--database MODULE:CALLABLE``; the
factories below read the benchmark seed (and, for the disk workload,
the run directory for the index file) from the environment the
runner launches them with, so the server process and the runner's
in-process oracle build their data from the same seed.
"""

from __future__ import annotations

import os
import random

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.server.demo import demo_database

SEED_ENV = "PERFBENCH_SEED"
WORKDIR_ENV = "PERFBENCH_WORKDIR"

#: demo-map scale for map-fresh, map-hot and cluster-churn: 1,440
#: cities, 12 states, 100 lakes, 259 highways
MAP_SCALE = 20
#: primary shards behind the cluster-churn router
CLUSTER_SHARDS = 2

#: disk-window point set: clustered points over UNIVERSE
DISK_POINTS = 200_000
DISK_CLUSTERS = 40
DISK_SIGMA = 40.0
DISK_K_RANGE = 100          #: the small-int column ``k`` is in [0, 100)
UNIVERSE = Rect(0.0, 0.0, 1000.0, 1000.0)
DISK_RELATION = "pts"
DISK_PICTURE = "pts-map"


def env_seed() -> int:
    return int(os.environ.get(SEED_ENV, "1"))


def map_database() -> Database:
    """The demo US map at MAP_SCALE with in-memory NN-packed indexes."""
    return demo_database(scale=MAP_SCALE, seed=env_seed())


def disk_points(seed: int) -> list[tuple[int, int, float, float]]:
    """``(id, k, x, y)`` rows: Gaussian clusters clamped to UNIVERSE."""
    rng = random.Random(seed * 7919 + 17)
    centers = [(rng.uniform(UNIVERSE.x1, UNIVERSE.x2),
                rng.uniform(UNIVERSE.y1, UNIVERSE.y2))
               for _ in range(DISK_CLUSTERS)]
    rows = []
    for i in range(DISK_POINTS):
        cx, cy = centers[rng.randrange(DISK_CLUSTERS)]
        x = min(UNIVERSE.x2, max(UNIVERSE.x1, rng.gauss(cx, DISK_SIGMA)))
        y = min(UNIVERSE.y2, max(UNIVERSE.y1, rng.gauss(cy, DISK_SIGMA)))
        rows.append((i, rng.randrange(DISK_K_RANGE), x, y))
    return rows


def disk_database() -> Database:
    """DISK_POINTS clustered points behind a Hilbert-bulk-loaded disk index.

    The index file (4 KiB pages, full fanout, the default 64-frame
    buffer pool) goes to a fresh file under ``$PERFBENCH_WORKDIR``.
    """
    workdir = os.environ[WORKDIR_ENV]
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{DISK_RELATION}-{os.getpid()}.rtree")
    if os.path.exists(path):
        os.remove(path)
    db = Database()
    rel = db.create_relation(DISK_RELATION, [
        Column("id", "int"), Column("k", "int"), Column("loc", "point")])
    for pid, k, x, y in disk_points(env_seed()):
        rel.insert({"id": pid, "k": k, "loc": Point(x, y)})
    picture = db.create_picture(DISK_PICTURE, UNIVERSE)
    picture.register_disk(rel, "loc", path, method="hilbert")
    return db
