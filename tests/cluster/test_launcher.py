"""LocalCluster lifecycle: stop() releases every file the nodes opened."""

import os

import pytest

from repro.cluster.demo import demo_dataset
from repro.cluster.launcher import LocalCluster

FD_DIR = "/proc/self/fd"


def open_paths_under(root: str) -> list[str]:
    """Paths under *root* this process holds open file descriptors on."""
    paths = []
    for fd in os.listdir(FD_DIR):
        try:
            target = os.readlink(os.path.join(FD_DIR, fd))
        except OSError:
            continue           # closed between listdir and readlink
        if target.startswith(root + os.sep):
            paths.append(target)
    return sorted(paths)


@pytest.mark.skipif(not os.path.isdir(FD_DIR),
                    reason="open descriptors are listed via /proc/self/fd")
def test_stop_closes_primary_heaps_and_wals(tmp_path):
    root = os.path.realpath(tmp_path)
    local = LocalCluster(demo_dataset(), nshards=2, replicas_per_shard=1,
                         data_root=root)
    try:
        client = local.client()
        try:
            client.query("select city from cities").raise_for_status()
        finally:
            client.close()
        # While serving, the primaries hold their heap files and WALs.
        assert any(p.endswith(".heap") for p in open_paths_under(root))
    finally:
        local.stop()
    assert open_paths_under(root) == []
