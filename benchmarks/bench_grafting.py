"""E9 (Section 4): volume autografting and pruning.

"Ficus volume replicas are dynamically located and grafted (mounted) as
needed, without global searching or broadcasting...  A graft is
implicitly maintained as long as a file within the grafted volume replica
is being used.  A graft that is no longer needed is quietly pruned."

A graft is the root of a volume replica that a host's fabric keeps:
fetched by the first access that needs the replica, dropped by
``Fabric.prune`` when idle.  The shape tests show grafting is lazy (only
volumes actually touched get grafted), demand-driven after pruning, and
requires no global tables — locating a volume costs reading one graft
point, not a broadcast.
"""


from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
NUM_VOLUMES = 8


def build_forest(num_volumes: int = NUM_VOLUMES):
    """A root volume with ``num_volumes`` grafted project volumes, none of
    them grafted on the hub when it returns."""
    system = FicusSystem(["hub", "spoke1", "spoke2"], daemon_config=QUIET)
    hub = system.host("hub")
    for i in range(num_volumes):
        volume, locations = system.create_volume(["spoke1", "spoke2"])
        hub.logical.create_graft_point(hub.root(), f"vol{i}", volume, locations)
        hub.root().lookup(f"vol{i}").create("data").write(0, f"volume {i}".encode())
    ungraft_all(hub)
    return system, hub


def ungraft_all(hub) -> None:
    """Prune every graft and drop the directories the attribute cache
    holds, so the next access resolves from the volume roots."""
    hub.fabric.prune(idle_timeout=0.0)
    hub.logical.attr_cache.clear()


def grafted_volumes(hub) -> set:
    """The volumes other than the root volume that the hub holds grafts of."""
    return {volrep.volume for _, volrep in hub.fabric._roots} - {hub.logical.root_volume}


class TestShape:
    def test_grafting_is_lazy(self):
        """Touching 2 of 8 volumes grafts exactly 2."""
        system, hub = build_forest()
        assert not grafted_volumes(hub)
        hub.fs().read_file("/vol0/data")
        hub.fs().read_file("/vol5/data")
        assert len(grafted_volumes(hub)) == 2

    def test_no_global_search_on_graft(self):
        """Locating a volume reads its graft point — RPC traffic must not
        scale with the number of volumes in the system (no broadcast)."""
        costs = {}
        for volumes in [2, NUM_VOLUMES]:
            system, hub = build_forest(volumes)
            before = system.network.stats.rpcs_sent
            hub.fs().read_file("/vol0/data")
            costs[volumes] = system.network.stats.rpcs_sent - before
        assert costs[NUM_VOLUMES] <= costs[2] + 1  # independent of volume count

    def test_pruned_grafts_regraft_on_demand(self):
        system, hub = build_forest()
        fs = hub.fs()
        fs.read_file("/vol1/data")
        system.clock.advance(10_000.0)
        assert hub.fabric.prune(idle_timeout=1800.0) >= 1
        hub.logical.attr_cache.clear()
        assert fs.read_file("/vol1/data") == b"volume 1"
        assert len(grafted_volumes(hub)) == 1

    def test_graft_survives_replica_failure(self):
        system, hub = build_forest()
        fs = hub.fs()
        fs.read_file("/vol2/data")
        system.network.set_host_up("spoke1", False)
        # the data was written at the first replica and has not propagated
        # yet; the other replica still gives a working directory
        hub.fs().listdir("/vol2")

    def test_report(self, capsys):
        system, hub = build_forest()
        performed, pruned = hub.fabric.grafts_performed, hub.fabric.grafts_pruned
        fs = hub.fs()
        for i in range(NUM_VOLUMES):
            fs.read_file(f"/vol{i}/data")
        with capsys.disabled():
            print(
                f"\n[E9] grafts performed={hub.fabric.grafts_performed - performed} "
                f"kept={len(hub.fabric._roots)} "
                f"volumes={len(grafted_volumes(hub))} of {NUM_VOLUMES} "
                f"(building the forest performed {performed}, pruned {pruned})"
            )


def test_bench_first_access_grafts(benchmark):
    system, hub = build_forest(2)
    fs = hub.fs()

    def run():
        ungraft_all(hub)
        return fs.read_file("/vol0/data")

    benchmark(run)


def test_bench_warm_access_through_graft(benchmark):
    system, hub = build_forest(2)
    fs = hub.fs()
    fs.read_file("/vol0/data")  # graft once
    benchmark(fs.read_file, "/vol0/data")
