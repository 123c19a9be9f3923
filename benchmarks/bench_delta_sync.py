"""E16: the incremental sync plane — subtree pruning and block deltas.

Two claims, both about making sync cost O(what changed):

* **Subtree pruning.**  Each directory's recon digest is computed from its
  entries and the records of its stored children; ``sync_probe`` exposes
  the Merkle-style subtree digest plus per-child hints in one RPC.  A no-change
  reconciliation round against a converged peer is a constant number of
  RPCs — one volume-root fetch, at most one replica-name lookup, and one
  probe — regardless of how many directories the volume holds.

* **Block deltas.**  ``pull_file`` is one ``read_blocks`` call: it sends
  the digests of the blocks it stores and gets back only the blocks that
  differ, with the version they were read at; a one-block change to a
  large file re-propagates about one block of bytes instead of the whole
  file.

* **Directory batching.**  The propagation daemon services a (source,
  directory) group of notes with one resolve of the remote directory and
  one attribute batch, and decides per child from that batch; only the
  files that really changed pay for a transfer.  A tick over a diverged
  directory costs a constant plus one RPC per changed file, whatever the
  directory holds.

``delta_sync_snapshot()`` produces the BENCH_delta_sync.json payload that
report_all.py writes.  Run directly (``python benchmarks/bench_delta_sync.py
--fast``) it sizes the workload down and exits non-zero if any bound is
violated — the CI gate.
"""

import json
import sys

from repro.physical.wire import DELTA_BLOCK_SIZE
from repro.recon import PullOutcome, pull_file
from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

# the acceptance bounds: a no-change round is at most NO_CHANGE_RPC_BOUND
# RPCs per peer; a one-block change copies at most DELTA_BLOCK_BOUND blocks
NO_CHANGE_RPC_BOUND = 1
DELTA_BLOCK_BOUND = 2
# a propagation tick over one diverged directory: a ``lookup_fh`` from the
# source's kept volume root + batch, then one ``read_blocks`` per changed
# file — per source
DIR_TICK_CHANGED_FILES = 4
DIR_TICK_RPC_BOUND = 2 + 1 * DIR_TICK_CHANGED_FILES


def build_volume(dirs: int, files_per_dir: int = 2) -> FicusSystem:
    """A converged two-replica volume with ``dirs`` populated directories."""
    system = FicusSystem(["a", "b"], daemon_config=QUIET)
    fs = system.host("a").fs()
    for d in range(dirs):
        fs.mkdir(f"/d{d}")
        for f in range(files_per_dir):
            fs.write_file(f"/d{d}/f{f}", bytes(40 * (f + 1)))
    system.reconcile_everything()
    system.reconcile_everything()
    return system


def _volrep(system: FicusSystem, host: str):
    return next(loc.volrep for loc in system.root_locations if loc.host == host)


def measure_no_change_round(dirs: int) -> dict:
    """RPC cost of reconciling an already-converged volume.  (Un-pruned,
    the walk is one ``lookup_fh`` of the directory's handle + one
    ``getattrs_batch`` per directory by construction: 2 RPCs x
    ``directories``.)"""
    system = build_volume(dirs)

    before = system.network.stats.rpcs_sent
    results = system.host("b").recon_daemon.tick()
    pruned_rpcs = system.network.stats.rpcs_sent - before
    peers = max(1, len(results))

    result = results[0]
    return {
        "directories": dirs + 1,  # + the root
        "rpcs_per_peer": pruned_rpcs / peers,
        "bound": f"<= {NO_CHANGE_RPC_BOUND} RPCs per peer",
        "subtrees_pruned": result.subtrees_pruned,
        "probe_rpcs": result.probe_rpcs,
        "directories_reconciled": result.directories_reconciled,
    }


def measure_delta_propagation(blocks: int) -> dict:
    """Bytes copied to re-propagate a large file after a one-block edit."""
    size = blocks * DELTA_BLOCK_SIZE
    system = build_volume(dirs=1)
    contents = bytes((i * 13) % 256 for i in range(size))
    system.host("a").root().create("big").write(0, contents)
    system.reconcile_everything()

    mutated = bytearray(contents)
    mutated[size // 2] ^= 0xFF
    big = system.host("a").root().lookup("big")
    big.write(0, bytes(mutated))

    store_b = system.host("b").physical.store_for(_volrep(system, "b"))
    root_fh = store_b.root_handle()
    remote = system.host("b").fabric.volume_root("a", _volrep(system, "a"))
    result = pull_file(store_b, root_fh, big.fh, remote)
    assert result.outcome is PullOutcome.PULLED
    assert store_b.stored_file(root_fh, big.fh).read_all() == bytes(mutated)

    return {
        "file_bytes": size,
        "changed_bytes": 1,
        "bytes_copied": result.bytes_copied,
        "bytes_saved": result.bytes_saved,
        "blocks_copied": result.bytes_copied / DELTA_BLOCK_SIZE,
        "bound": f"<= {DELTA_BLOCK_BOUND} blocks",
        "whole_file_equivalent_bytes": size,
        "reduction_factor": size / max(1, result.bytes_copied),
    }


def measure_directory_tick(files: int, changed: int = DIR_TICK_CHANGED_FILES) -> int:
    """RPCs one receiver's propagation tick sends for one diverged
    directory of ``files`` files, ``changed`` of them overwritten at the
    single source."""
    system = FicusSystem(["a", "b"], daemon_config=QUIET)
    fs = system.host("a").fs()
    fs.mkdir("/d")
    for f in range(files):
        fs.write_file(f"/d/f{f}", bytes([f]) * 64)
    system.reconcile_everything()
    receiver = system.host("b")
    receiver.propagation_daemon.tick()  # drain the population's notes
    for f in range(changed):
        fs.write_file(f"/d/f{f}", bytes([f + 1]) * 64)
    before = system.network.stats.rpcs_sent
    assert receiver.propagation_daemon.tick() == changed
    assert receiver.physical.new_version_cache_size == 0
    return system.network.stats.rpcs_sent - before


def delta_sync_snapshot(fast: bool = False) -> dict:
    """The BENCH_delta_sync.json payload."""
    dirs = 12 if fast else 50
    blocks = 16 if fast else 64
    return {
        "block_size": DELTA_BLOCK_SIZE,
        "no_change_round": measure_no_change_round(dirs),
        "delta_propagation": measure_delta_propagation(blocks),
        "directory_tick": {
            "files": 64,
            "changed_files": DIR_TICK_CHANGED_FILES,
            "rpcs_per_source": measure_directory_tick(64),
            "rpcs_per_source_16_files": measure_directory_tick(16),
            "bound": f"<= {DIR_TICK_RPC_BOUND} RPCs per source, equal for both sizes",
        },
    }


def check_bounds(snapshot: dict) -> list[str]:
    """The CI gate: returns a list of violated bounds (empty = pass)."""
    violations = []
    round_ = snapshot["no_change_round"]
    if round_["rpcs_per_peer"] > NO_CHANGE_RPC_BOUND:
        violations.append(
            f"no-change recon round cost {round_['rpcs_per_peer']} RPCs per peer "
            f"(bound: {NO_CHANGE_RPC_BOUND})"
        )
    if round_["directories_reconciled"] != 0:
        violations.append(
            f"no-change recon round read {round_['directories_reconciled']} directories"
        )
    delta = snapshot["delta_propagation"]
    if delta["bytes_copied"] > DELTA_BLOCK_BOUND * DELTA_BLOCK_SIZE:
        violations.append(
            f"one-block change copied {delta['bytes_copied']} bytes "
            f"(bound: {DELTA_BLOCK_BOUND} blocks = {DELTA_BLOCK_BOUND * DELTA_BLOCK_SIZE})"
        )
    tick = snapshot["directory_tick"]
    if tick["rpcs_per_source"] > DIR_TICK_RPC_BOUND:
        violations.append(
            f"propagation tick over a {tick['files']}-file directory with "
            f"{tick['changed_files']} changed files cost {tick['rpcs_per_source']} RPCs "
            f"(bound: {DIR_TICK_RPC_BOUND})"
        )
    if tick["rpcs_per_source"] != tick["rpcs_per_source_16_files"]:
        violations.append(
            f"propagation tick cost depends on directory size: {tick['rpcs_per_source']} RPCs "
            f"at {tick['files']} files, {tick['rpcs_per_source_16_files']} at 16"
        )
    return violations


class TestShape:
    def test_no_change_round_is_constant_rpcs(self):
        stats = measure_no_change_round(dirs=12)
        assert stats["rpcs_per_peer"] <= NO_CHANGE_RPC_BOUND
        assert stats["directories_reconciled"] == 0
        assert stats["subtrees_pruned"] >= 1

    def test_one_block_change_copies_at_most_two_blocks(self):
        stats = measure_delta_propagation(blocks=16)
        assert stats["bytes_copied"] <= DELTA_BLOCK_BOUND * DELTA_BLOCK_SIZE
        assert stats["bytes_saved"] >= (16 - DELTA_BLOCK_BOUND) * DELTA_BLOCK_SIZE

    def test_fast_snapshot_passes_its_own_gate(self):
        assert check_bounds(delta_sync_snapshot(fast=True)) == []


def test_bench_no_change_round(benchmark):
    system = build_volume(dirs=12)
    system.host("b").recon_daemon.tick()  # converge any stragglers
    benchmark(lambda: system.host("b").recon_daemon.tick())


def main(argv: list[str]) -> int:
    fast = "--fast" in argv
    snapshot = delta_sync_snapshot(fast=fast)
    print(json.dumps(snapshot, indent=2, default=str))
    violations = check_bounds(snapshot)
    for violation in violations:
        print(f"BOUND VIOLATED: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
