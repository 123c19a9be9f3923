"""E15: the batched attribute plane and the version-vector cache.

Replica selection needs every replica's version vector.  Before the
attribute plane, each replica cost one RPC for the directory's aux record
plus one RPC per interesting child; now ``getattrs_batch`` returns the
directory's aux record AND all stored children's in a single reply, and
the logical layer's :class:`~repro.logical.VersionVectorCache` remembers
it per (replica, directory):

* cold path: at most ONE batched RPC per remote replica;
* warm path: ZERO RPCs — selection is answered from the cache;
* local updates write through, notifications invalidate remotely.

The same cache entry holds the replica's decoded name view (for as long as
the batch) and the handles resolved through it (for as long as the
directory handle), so a warm operation from a diskless client sends only
what the protocol needs; ``WARM_OP_BUDGETS`` gates those counts exactly.

``attr_cache_snapshot()`` produces the BENCH_attr_cache.json payload
(measured RPC counts plus the net.* counters) that report_all.py writes.
"""

from repro.sim import DaemonConfig, FicusSystem
from repro.telemetry import Telemetry

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

HOSTS = ["a", "b", "c"]
NUM_FILES = 8


def build_world(telemetry: Telemetry | None = None) -> FicusSystem:
    """Three replicas of one volume, NUM_FILES converged files."""
    system = FicusSystem(HOSTS, daemon_config=QUIET, telemetry=telemetry)
    fs = system.host("a").fs()
    for i in range(NUM_FILES):
        fs.write_file(f"/f{i}", b"payload-%d" % i)
    system.reconcile_everything()
    return system


def _selection_rpcs(system: FicusSystem, host: str) -> int:
    """RPCs spent by one full directory-replica selection on ``host``."""
    logical = system.host(host).logical
    before = system.network.stats.rpcs_sent
    logical.select_dir_replica(logical.root_volume, logical.root().fh)
    return system.network.stats.rpcs_sent - before


#: RPCs one facade call may send from a diskless client over three
#: replicas, everything warm: a read is ``session_open`` + ``read`` +
#: ``session_close``; a stat (inside the NFS attribute TTL) and a listdir
#: send nothing; a missing name costs the one directory re-read that
#: verifies it.  ``after_write.*`` is the first such call in a directory
#: after the client's own ``write_file`` there dropped its batches: three
#: batched fetches and one directory read on top.  A namespace op on a warm
#: directory is the update replica's directory read plus one ``insert`` or
#: ``remove_entry`` (the insert's reply is the entry: nothing is read back);
#: ``write_file`` of a new name adds the three batch refetches its
#: notification forces and a write session behind one ``lookup_fh``.
WARM_OP_BUDGETS = {
    "read_file": 3,
    "stat": 0,
    "listdir": 0,
    "exists_missing": 1,
    "after_write.read_file": 7,
    "after_write.stat": 4,
    "after_write.listdir": 4,
    "after_write.exists_missing": 4,
    "mkdir": 2,
    "unlink": 2,
    "rename": 4,
    "link": 2,
    "write_file_new": 12,
}


def warm_op_rpcs() -> dict[str, int]:
    """RPCs per facade call, diskless client ``cl`` over replicas a, b, c."""
    system = FicusSystem(HOSTS + ["cl"], root_volume_hosts=HOSTS, daemon_config=QUIET)
    fs = system.host("a").fs()
    fs.mkdir("/d")
    for i in range(NUM_FILES):
        fs.write_file(f"/d/f{i}", b"payload-%d" % i)
    system.reconcile_everything()
    client = system.host("cl").fs()
    ops = {
        "read_file": lambda: client.read_file("/d/f1"),
        "stat": lambda: client.stat("/d/f1"),
        "listdir": lambda: client.listdir("/d"),
        "exists_missing": lambda: client.exists("/d/nope"),
    }
    for op in ops.values():
        op()  # resolve and fetch everything once
    out = {}
    for prefix, own_write_first in (("", False), ("after_write.", True)):
        for name, op in ops.items():
            if own_write_first:
                client.write_file("/d/f2", b"rewritten")
            before = system.network.stats.rpcs_sent
            op()
            out[prefix + name] = system.network.stats.rpcs_sent - before
    namespace_ops = {
        "mkdir": lambda: client.mkdir("/d/sub"),
        "unlink": lambda: client.unlink("/d/f3"),
        "rename": lambda: client.rename("/d/f4", "/d/g4"),
        "link": lambda: client.link("/d/f5", "/d/l5"),
        "write_file_new": lambda: client.write_file("/d/new", b"x"),
    }
    for name, op in namespace_ops.items():
        client.listdir("/d")  # the previous op's notification dropped the batches
        before = system.network.stats.rpcs_sent
        op()
        out[name] = system.network.stats.rpcs_sent - before
    return out


def check_bounds(snapshot: dict) -> list[str]:
    """The CI gate: returns a list of violated bounds (empty = pass)."""
    violations = []
    if snapshot["cold"]["rpcs_per_remote_replica"] > 1:
        violations.append(
            f"cold selection: {snapshot['cold']['rpcs']} RPCs (bound: 1 per remote replica)"
        )
    if snapshot["warm"]["rpcs"] != 0:
        violations.append(f"warm selection: {snapshot['warm']['rpcs']} RPCs (bound: 0)")
    for name, budget in WARM_OP_BUDGETS.items():
        if snapshot["warm_op_rpcs"][name] != budget:
            violations.append(
                f"warm {name}: {snapshot['warm_op_rpcs'][name]} RPCs (budget: exactly {budget})"
            )
    return violations


def attr_cache_snapshot() -> dict:
    """The BENCH_attr_cache.json payload."""
    system = build_world(telemetry=Telemetry())
    logical = system.host("a").logical
    root_fh = logical.root().fh
    remote_replicas = len(HOSTS) - 1

    # fully cold: no resolutions, no batches (first touch after restart)
    logical.attr_cache.clear()
    fully_cold_rpcs = _selection_rpcs(system, "a")
    # attribute-cold: resolutions cached, every batch invalidated — the
    # state the cache's own invalidation path (notification, TTL) creates
    logical.attr_cache.invalidate_dir(logical.root_volume, root_fh)
    cold_rpcs = _selection_rpcs(system, "a")
    warm_rpcs = _selection_rpcs(system, "a")

    # what the un-batched protocol would have cost for the same selection:
    # per remote replica, one aux fetch for the directory plus one per child
    unbatched_rpcs = remote_replicas * (1 + NUM_FILES)

    return {
        "workload": f"{len(HOSTS)} replicas, {NUM_FILES} converged files, "
        "one directory-replica selection on host a",
        "cold": {
            "rpcs": cold_rpcs,
            "rpcs_per_remote_replica": cold_rpcs / remote_replicas,
            "bound": "<= 1 batched RPC per remote replica",
        },
        "warm": {"rpcs": warm_rpcs, "bound": "0 RPCs"},
        "warm_op_rpcs": warm_op_rpcs(),
        "fully_cold_rpcs": fully_cold_rpcs,  # + one handle resolution each
        "unbatched_equivalent_rpcs": unbatched_rpcs,
        "cache": logical.attr_cache.stats.as_dict(),
        "net": {
            name: value
            for name, value in sorted(system.telemetry.metrics.snapshot().items())
            if name.startswith("net.")
        },
    }


class TestShape:
    def test_cold_selection_is_one_batched_rpc_per_remote_replica(self):
        system = build_world()
        logical = system.host("a").logical
        _selection_rpcs(system, "a")  # resolve replicas once
        logical.attr_cache.invalidate_dir(logical.root_volume, logical.root().fh)
        assert _selection_rpcs(system, "a") <= len(HOSTS) - 1

    def test_warm_selection_is_free(self):
        system = build_world()
        _selection_rpcs(system, "a")  # warm it
        assert _selection_rpcs(system, "a") == 0

    def test_remote_update_invalidates_then_one_refetch(self):
        """b's update lands on one replica; the notification makes an
        observer host refetch exactly that replica's batch — the others
        stay warm."""
        system = build_world()
        _selection_rpcs(system, "c")  # warm the observer
        system.host("b").fs().write_file("/f0", b"new version")  # notifies c
        rpcs = _selection_rpcs(system, "c")
        assert 1 <= rpcs <= len(HOSTS) - 1

    def test_warm_ops_send_exactly_their_budget(self):
        assert warm_op_rpcs() == WARM_OP_BUDGETS


def test_bench_warm_selection(benchmark):
    system = build_world()
    logical = system.host("a").logical
    fh = logical.root().fh
    logical.select_dir_replica(logical.root_volume, fh)  # warm
    benchmark(lambda: logical.select_dir_replica(logical.root_volume, fh))


def test_bench_cold_selection(benchmark):
    system = build_world()
    logical = system.host("a").logical
    fh = logical.root().fh

    def run():
        logical.attr_cache.clear()
        logical.select_dir_replica(logical.root_volume, fh)

    benchmark(run)
