"""Outside-in tracing: spans around every call into a layer's public surface.

Nothing under ``src/`` knows it is being measured.  ``Tracer.install``
replaces the public entry points of each layer (the repo's packages) with
timing wrappers *before the cluster is built*, and ``uninstall`` puts the
originals back.  Each wrapper records one span — (layer, op, start, end,
parent id, request id) — and a layer's **self time** is its span's
duration minus its children's, so the self times of all layers add up to
the time of the root spans exactly.

Aggregates (self time and call count per op class and layer) are kept for
every request; full span trees are kept only for every
``sample_every``-th request (starting with the first) and written as a
Chrome-trace JSON.

The span clock is the thread CPU clock, like the rest of the benchmark:
on a shared VM a preempted span would otherwise be charged the time the
process did not run.  Its cost (two clock reads and a list push/pop per
span) lands in the *parent's* self time; ``trace.overhead_ratio`` says
how much that distorts the picture.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

from repro.core.filesystem import FicusFile, FicusFileSystem
from repro.logical import FicusLogicalLayer, LogicalDirVnode, LogicalFileVnode
from repro.net import Network
from repro.nfs.client import NfsClientLayer, NfsClientVnode
from repro.physical import (
    FicusPhysicalLayer,
    PhysicalDirVnode,
    PhysicalFileVnode,
    PhysicalRootVnode,
)
from repro.sim import EventLoop, GraftPruneDaemon, PropagationDaemon, ReconciliationDaemon
from repro.storage import BlockDevice
from repro.telemetry import HealthPlane
from repro.telemetry.provenance import ProvenanceLedger
from repro.vnode.interface import Vnode
from repro.vnode.ufs_layer import UfsVnode

from .spec import LAYERS

_INDEX = {layer: index for index, layer in enumerate(LAYERS)}
_NLAYERS = len(LAYERS)

#: the vnode interface: every public operation the abstract Vnode declares
_VNODE_OPS = frozenset(
    name
    for name, attr in vars(Vnode).items()
    if isinstance(attr, types.FunctionType) and not name.startswith("_")
)


def _public(cls: type) -> list[str]:
    return [
        name
        for name, attr in vars(cls).items()
        if isinstance(attr, types.FunctionType) and not name.startswith("_")
    ]


def _vnode_ops(cls: type) -> list[str]:
    return [name for name in _public(cls) if name in _VNODE_OPS]


#: layer -> [(class, method names)] — the layer's public surface
_METHOD_TARGETS = {
    "core": [(FicusFileSystem, _public(FicusFileSystem)), (FicusFile, _public(FicusFile))],
    "logical": [
        (LogicalDirVnode, _vnode_ops(LogicalDirVnode)),
        (LogicalFileVnode, _vnode_ops(LogicalFileVnode)),
        (FicusLogicalLayer, ["open_file", "close_file", "notify_update", "_on_datagram"]),
    ],
    "nfs_client": [(NfsClientVnode, _vnode_ops(NfsClientVnode)), (NfsClientLayer, ["call"])],
    "net": [(Network, ["rpc", "multicast"])],
    "physical": [
        (PhysicalRootVnode, _vnode_ops(PhysicalRootVnode)),
        (PhysicalDirVnode, _vnode_ops(PhysicalDirVnode)),
        (PhysicalFileVnode, _vnode_ops(PhysicalFileVnode)),
        (FicusPhysicalLayer, ["_on_datagram"]),
    ],
    "ufs": [(UfsVnode, _vnode_ops(UfsVnode))],
    "storage": [(BlockDevice, ["read_block", "write_block"])],
    "sim": [
        (EventLoop, ["run_for"]),
        (PropagationDaemon, ["tick"]),
        (ReconciliationDaemon, ["tick"]),
        (GraftPruneDaemon, ["tick"]),
    ],
    "telemetry": [
        (HealthPlane, ["record_op", "recon_tick", "recon_result", "suspect"]),
        (ProvenanceLedger, ["record"]),
    ],
}

#: reconciliation's entry points are module-level functions that callers
#: import by name, so they are patched in every module holding a reference
_RECON_FUNCTIONS = ("reconcile_subtree", "reconcile_directory", "pull_file", "push_notify_pull")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, sample_every: int = 100):
        self.clock = time.thread_time_ns
        self.sample_every = sample_every
        #: wrappers pass calls straight through until the engine turns this on
        self.active = False
        self.sampling = False
        self.request = -1
        self._first_request: int | None = None
        #: per open span: nanoseconds spent in its children so far
        self._child_ns: list[int] = []
        #: per open span of a sampled request: its span id
        self._open_ids: list[int] = []
        #: op class -> self ns per layer followed by calls per layer
        self.by_class: dict[str, list[int]] = {}
        self._totals: list[int] = []
        #: total duration of the spans that had no parent
        self.root_ns = 0
        #: (layer index, op, start ns, end ns, parent span id, request id)
        self.spans: list[tuple | None] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- engine interface ---------------------------------------------------

    def begin(self, request: int, op_class: str) -> None:
        """Everything traced from now on belongs to ``request``/``op_class``."""
        if self._first_request is None:
            self._first_request = request
        self.request = request
        self.sampling = (request - self._first_request) % self.sample_every == 0
        totals = self.by_class.get(op_class)
        if totals is None:
            totals = self.by_class[op_class] = [0] * (2 * _NLAYERS)
        self._totals = totals

    def self_ns(self, layer: str) -> int:
        return sum(row[_INDEX[layer]] for row in self.by_class.values())

    def calls(self, layer: str) -> int:
        return sum(row[_NLAYERS + _INDEX[layer]] for row in self.by_class.values())

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer: str, op: str, fn):
        tracer = self
        index = _INDEX[layer]
        calls_index = _NLAYERS + index
        clock = self.clock
        child_ns = self._child_ns
        open_ids = self._open_ids
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sampled = tracer.sampling
            if sampled:
                span_id = len(spans)
                spans.append(None)
                parent = open_ids[-1] if open_ids else -1
                open_ids.append(span_id)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                totals = tracer._totals
                totals[index] += duration - child_ns.pop()
                totals[calls_index] += 1
                if child_ns:
                    child_ns[-1] += duration
                else:
                    tracer.root_ns += duration
                if sampled:
                    open_ids.pop()
                    spans[span_id] = (index, op, start, end, parent, tracer.request)

        return traced

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer's public surface.  Call before building the
        cluster: bound methods captured during construction (datagram
        handlers, scheduled daemon ticks) must already be the wrappers."""
        for layer, targets in _METHOD_TARGETS.items():
            for cls, names in targets:
                for name in names:
                    op = f"{cls.__name__}.{name}"
                    self._patch(cls, name, self.wrap(layer, op, vars(cls)[name]))

        # nfs_server: whatever handler an NfsServer registers is the
        # server side of the hop
        register_rpc = Network.register_rpc
        tracer = self

        @functools.wraps(register_rpc)
        def traced_register_rpc(network, addr, service, handler):
            register_rpc(network, addr, service, tracer.wrap("nfs_server", service, handler))

        self._patch(Network, "register_rpc", traced_register_rpc)

        for name in _RECON_FUNCTIONS:
            original = getattr(sys.modules["repro.recon"], name)
            wrapped = self.wrap("recon", name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro.") and vars(module).get(name) is original:
                    self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output -------------------------------------------------------------

    def layer_table(self, ops_by_class: dict[str, int], user_ops: int, machine_speed: float) -> dict:
        """The layer x op-class table: self microseconds and calls per op.

        A row for a user op class is divided by the number of ops of that
        class; the ``think`` and ``converge`` rows (daemon work between
        and after ops) by the number of all user ops.  Times are rescaled
        by ``machine_speed`` like the per-layer metrics.
        """
        table = {}
        for op_class, row in self.by_class.items():
            per = ops_by_class.get(op_class) or user_ops
            table[op_class] = {
                layer: {
                    "self_us_per_op": row[_INDEX[layer]] * machine_speed / per / 1000,
                    "calls_per_op": row[_NLAYERS + _INDEX[layer]] / per,
                }
                for layer in LAYERS
                if row[_NLAYERS + _INDEX[layer]]
            }
        return table

    def write_chrome_trace(self, path: str) -> None:
        """Sampled span trees in Chrome's trace-event format.

        Timestamps are CPU-clock microseconds; spans nest by containment
        on one track, so the flame view is the layer stack of each op.
        """
        events = [
            {
                "name": op,
                "cat": LAYERS[layer],
                "ph": "X",
                "ts": start / 1000,
                "dur": (end - start) / 1000,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent, "request": request},
            }
            for span_id, (layer, op, start, end, parent, request) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fp)
