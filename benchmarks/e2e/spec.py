"""Names, units and directions of everything the benchmark reports.

One table, read by the runner (to label values), by ``test_e2e.py`` (to
assert nothing is missing) and mirrored by ``BENCHMARK.json`` at the repo
root (the test checks the two agree).  Names are final: later PRs are
judged against them.
"""

from __future__ import annotations

#: ``--seconds S`` runs every workload at ``scale = S / REFERENCE_SECONDS``;
#: the op counts in ``workloads.py`` are the scale-1 sizes, chosen so that
#: the measured phase of each workload stays under this many CPU-seconds
#: at the commit that introduced the benchmark
REFERENCE_SECONDS = 30.0

#: the repo's packages, outermost first; one traced span per call into each
LAYERS = (
    "core",
    "logical",
    "nfs_client",
    "net",
    "nfs_server",
    "physical",
    "ufs",
    "storage",
    "sim",
    "recon",
    "telemetry",
)

#: workload name -> why it exists (one line; README.md has the long form)
WORKLOADS = {
    "solo_zipf": (
        "1 host, Zipf reads over a tree that fits every cache: the pure local hot path, "
        "control for nfs/net/recon changes"
    ),
    "solo_cold": (
        "1 host, uniform access over 8 KiB files 4x the buffer cache: the same layers with "
        "caches missing, ufs/storage dominate"
    ),
    "remote_zipf": (
        "solo_zipf's exact trace from a diskless client over 3 remote replicas: "
        "the difference is the NFS hop and attr cache"
    ),
    "replicated_churn": (
        "3 replicas, overwrite/create/unlink/rename with daemons firing inside the loop: "
        "the update path beside reads"
    ),
    "partition_heal": (
        "4 replicas, partition/heal cycles with disjoint writers and a resolver-merged log: "
        "reconciliation in the foreground"
    ),
}

#: (name, unit, better, bound) — defined and non-zero on every workload,
#: so the pipeline can gate each of them on each workload.  A bound is
#: about three times the widest ten-seed quartile spread measured on any
#: workload (README.md has the table), capped at the pipeline's 0.25: the
#: timings reach the cap because of partition_heal and replicated_churn,
#: whose few hundred ops per run vary ~10 % from seed to seed.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("write_p50_us", "us", "lower", 0.25),
    ("disk_ios_per_op", "1/op", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better) — end-to-end metrics that are undefined or zero on
#: at least one workload (no RPCs on one host, no namespace updates in a
#: read-mostly trace, a p99 with < 1000 samples), plus the raw wall-clock
#: twins of the normalised CPU-clock numbers and the machine speed that
#: was divided out of them (1 = the reference machine).  They ride the
#: informational block; 0 means "not defined on this workload".
WORKLOAD_SPECIFIC = (
    ("read_p99_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("lookup_p50_us", "us", "lower"),
    ("nsop_p50_us", "us", "lower"),
    ("nsop_p99_us", "us", "lower"),
    ("converge_s", "s", "lower"),
    ("rpcs_per_op", "1/op", "lower"),
    ("wire_bytes_per_op", "B/op", "lower"),
    ("ops_per_s_wall", "1/s", "higher"),
    ("setup_s_wall", "s", "lower"),
    ("machine_speed", "ratio", "higher"),
)

#: exact counters read from the program's public state after the untraced pass
COUNTER_DERIVED = (
    ("logical.attr_cache_hit_rate", "ratio", "higher"),
    ("logical.attr_cache_invalidations_per_op", "1/op", "lower"),
    ("net.rpcs", "count", "lower"),
    ("net.rpcs_failed", "count", "lower"),
    ("net.bytes_sent", "B", "lower"),
    ("net.bytes_received", "B", "lower"),
    ("net.datagrams_sent", "count", "lower"),
    ("net.datagrams_lost", "count", "lower"),
    ("physical.notes_pending_end", "count", "lower"),
    ("ufs.buffer_cache_hit_rate", "ratio", "higher"),
    ("ufs.name_cache_hit_rate", "ratio", "higher"),
    ("storage.reads_per_op", "1/op", "lower"),
    ("storage.writes_per_op", "1/op", "lower"),
    ("storage.stored_bytes_per_user_byte", "ratio", "lower"),
    ("sim.daemon_cpu_share", "ratio", "lower"),
    ("sim.propagation_ticks", "count", "lower"),
    ("sim.recon_ticks", "count", "lower"),
    ("recon.pulls_attempted", "count", "lower"),
    ("recon.pulls_succeeded", "count", "lower"),
    ("recon.pull_useful_ratio", "ratio", "higher"),
    ("recon.bytes_copied", "B", "lower"),
    ("recon.bytes_saved", "B", "higher"),
    ("recon.files_pulled", "count", "lower"),
    ("recon.subtrees_pruned", "count", "higher"),
    ("recon.probe_rpcs", "count", "lower"),
    ("recon.conflicts_auto_resolved", "count", "higher"),
    ("recon.file_conflicts", "count", "lower"),
    ("recon.rounds_to_converge", "count", "lower"),
)

#: derived from the traced pass's spans
TRACE_DERIVED = tuple(
    metric
    for layer in LAYERS
    for metric in (
        (f"{layer}.self_us_per_op", "us/op", "lower"),
        (f"{layer}.self_share", "ratio", "lower"),
        (f"{layer}.calls_per_op", "1/op", "lower"),
    )
) + (("trace.overhead_ratio", "ratio", "lower"),)

PER_LAYER = TRACE_DERIVED + COUNTER_DERIVED + WORKLOAD_SPECIFIC

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: the subset whose value is a pure function of (commit, workload, seed,
#: scale): two runs must agree to the digit
EXACT = frozenset(
    {"disk_ios_per_op", "rpcs_per_op", "wire_bytes_per_op"}
    | {name for name, *_ in COUNTER_DERIVED if name != "sim.daemon_cpu_share"}
    | {f"{layer}.calls_per_op" for layer in LAYERS}
)
