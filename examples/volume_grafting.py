#!/usr/bin/env python3
"""Volumes, graft points, and autografting (paper Section 4).

Builds a namespace spanning three volumes:

    /                  root volume        (replicated on all hosts)
    /projects          graft point -> projects volume (on lab1, lab2)
    /projects/archive  graft point -> archive volume  (on vault only)

and demonstrates: transparent grafting during pathname translation,
reaching whichever replica is reachable, and quiet pruning of idle
grafts.  A graft is the root of a volume replica that a host's fabric
keeps: fetched when an access first needs it, dropped when idle.

Run:  python examples/volume_grafting.py
"""

from repro.sim import FicusSystem


def grafts(host) -> dict[str, list[str]]:
    """Volume -> the hosts whose replica of it ``host`` keeps a graft of."""
    out: dict[str, list[str]] = {}
    for at, volrep in sorted(host.fabric._roots, key=lambda key: (str(key[1]), key[0])):
        out.setdefault(str(volrep.volume), []).append(at)
    return out


def main() -> None:
    system = FicusSystem(["lab1", "lab2", "vault"])
    lab1 = system.host("lab1")
    fs = lab1.fs()

    print("== build the volume DAG ==")
    projects_vol, projects_locs = system.create_volume(["lab1", "lab2"])
    archive_vol, archive_locs = system.create_volume(["vault"])
    lab1.logical.create_graft_point(lab1.root(), "projects", projects_vol, projects_locs)
    projects_dir = lab1.root().lookup("projects")
    lab1.logical.create_graft_point(projects_dir, "archive", archive_vol, archive_locs)
    print(f"projects volume {projects_vol} on lab1+lab2")
    print(f"archive  volume {archive_vol} on vault")

    print("\n== pathname translation crosses graft points transparently ==")
    fs.makedirs("/projects/ficus")
    fs.write_file("/projects/ficus/README", b"a replicated file system")
    fs.write_file("/projects/archive/1989.tar", b"old bits")
    print("tree from lab1:", fs.walk_tree())
    print("volume replicas lab1 holds grafts of:", grafts(lab1))

    print("\n== the graft point itself replicates like any directory ==")
    system.run_for(120.0)
    system.reconcile_everything()
    lab2_fs = system.host("lab2").fs()
    print("lab2 reads:", lab2_fs.read_file("/projects/ficus/README"))

    print("\n== a graft reaches whichever replica is reachable ==")
    system.partition([{"lab1", "vault"}, {"lab2"}])
    print("with lab2 cut off, lab1 reads:", fs.read_file("/projects/ficus/README"))
    system.partition([{"lab2", "vault"}, {"lab1"}])
    print("with lab1 cut off, lab2 reads:", lab2_fs.read_file("/projects/ficus/README"))
    system.heal()

    print("\n== idle grafts are quietly pruned, then regrafted on demand ==")
    before = len(lab1.fabric._roots)
    system.clock.advance(7200.0)  # two idle hours
    pruned = lab1.graft_prune_daemon.tick()
    print(f"pruned {pruned} of {before} grafts after idling")
    print("reading through the pruned graft regrafts automatically:")
    # a warm read goes through the directories the attribute cache holds;
    # drop them so this one resolves from the volume roots
    lab1.logical.attr_cache.clear()
    print("  ", fs.read_file("/projects/ficus/README"))
    print("volume replicas lab1 holds grafts of:", grafts(lab1))
    print("grafts performed in total:", lab1.fabric.grafts_performed)


if __name__ == "__main__":
    main()
