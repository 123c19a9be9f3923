"""Tests for the trace format and replay harness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.sim import DaemonConfig, FicusSystem
from repro.workload import (
    TraceOp,
    decode_schedule,
    decode_trace,
    encode_schedule,
    encode_trace,
    replay_trace,
    synthesize_trace,
)

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


class TestTraceFormat:
    def test_round_trip_all_op_kinds(self):
        ops = [
            TraceOp(at=0.5, op="mkdir", host="a", path="/d"),
            TraceOp(at=1.0, op="write", host="a", path="/d/f", data=b"\x00binary\xff"),
            TraceOp(at=2.0, op="read", host="b", path="/d/f"),
            TraceOp(at=3.0, op="rename", host="a", path="/d/f", path2="/d/g"),
            TraceOp(at=4.0, op="symlink", host="a", path="/lnk", path2="/d/g"),
            TraceOp(at=5.0, op="partition", groups=(frozenset({"a"}), frozenset({"b"}))),
            TraceOp(at=6.0, op="heal"),
            TraceOp(at=7.0, op="unlink", host="b", path="/lnk"),
        ]
        assert decode_trace(encode_trace(ops)) == ops

    def test_unknown_op_rejected(self):
        with pytest.raises(InvalidArgument):
            decode_trace("t=1.0 op=frobnicate")

    def test_out_of_order_rejected(self):
        text = encode_trace(
            [TraceOp(at=5.0, op="heal"), TraceOp(at=1.0, op="heal")]
        )
        with pytest.raises(InvalidArgument):
            decode_trace(text)

    def test_a_schedule_states_its_format_version(self):
        steps = [TraceOp(op="tick", host="a"), TraceOp(op="advance", seconds=2.5)]
        text = encode_schedule(steps)
        assert text.splitlines()[0] == "schedule=2"
        assert decode_schedule(text) == steps
        body = encode_trace(steps)
        for unversioned in (body, "", "schedule=1\n" + body, "schedule=3\n" + body):
            with pytest.raises(InvalidArgument):
                decode_schedule(unversioned)

    def test_blank_lines_skipped(self):
        text = "\n" + TraceOp(at=1.0, op="heal").encode() + "\n\n"
        assert len(decode_trace(text)) == 1

    @given(st.binary(max_size=200), st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20
    ))
    def test_payloads_round_trip(self, data, name):
        op = TraceOp(at=1.0, op="write", host="h", path="/" + name, data=data)
        assert TraceOp.decode(op.encode()) == op


class TestReplay:
    def test_simple_replay(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        ops = [
            TraceOp(at=1.0, op="mkdir", host="a", path="/docs"),
            TraceOp(at=2.0, op="write", host="a", path="/docs/f", data=b"traced"),
            TraceOp(at=3.0, op="read", host="b", path="/docs/f"),
        ]
        result = replay_trace(system, ops)
        assert result.applied == 3 and result.failed == 0
        assert result.reads == 1 and result.read_bytes == 6
        assert system.clock.now() >= 3.0

    def test_partition_events_drive_network(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        ops = [
            TraceOp(at=1.0, op="write", host="a", path="/f", data=b"x"),
            TraceOp(at=2.0, op="partition", groups=(frozenset({"a"}), frozenset({"b"}))),
            TraceOp(at=3.0, op="read", host="b", path="/f"),  # fails: b has no copy
            TraceOp(at=4.0, op="heal"),
            TraceOp(at=5.0, op="read", host="b", path="/f"),  # works again
        ]
        result = replay_trace(system, ops)
        assert result.failed == 1
        # during the partition b sees only its own (empty, unreconciled)
        # replica: the name is simply not there
        assert "FileNotFound" in result.failures[0][1]
        assert result.reads == 1

    def test_strict_mode_raises(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        ops = [TraceOp(at=1.0, op="read", host="a", path="/missing")]
        with pytest.raises(Exception):
            replay_trace(system, ops, strict=True)

    def test_replay_runs_daemons_between_ops(self):
        config = DaemonConfig(propagation_period=2.0, recon_period=None, graft_prune_period=None)
        system = FicusSystem(["a", "b"], daemon_config=config)
        ops = [
            TraceOp(at=1.0, op="write", host="a", path="/f", data=b"x"),
            TraceOp(at=10.0, op="partition", groups=(frozenset({"a"}), frozenset({"b"}))),
            # daemons ran during the 9 virtual seconds: b has its own copy
            TraceOp(at=11.0, op="read", host="b", path="/f"),
        ]
        result = replay_trace(system, ops)
        assert result.failed == 0

    def test_synthesized_trace_replays_clean(self):
        system = FicusSystem(["a", "b", "c"])
        ops = synthesize_trace(["a", "b", "c"], duration=300.0, seed=3)
        assert len(ops) > 50
        result = replay_trace(system, ops)
        # reads may fail during partitions; writes at reachable replicas
        # always succeed (one-copy availability)
        assert result.applied > result.failed
        system.heal()
        system.reconcile_everything()
        trees = [sorted(system.host(n).fs().walk_tree()) for n in ["a", "b", "c"]]
        assert trees[0] == trees[1] == trees[2]

    def test_synthesized_trace_deterministic(self):
        t1 = synthesize_trace(["a", "b"], duration=100.0, seed=9)
        t2 = synthesize_trace(["a", "b"], duration=100.0, seed=9)
        assert encode_trace(t1) == encode_trace(t2)
