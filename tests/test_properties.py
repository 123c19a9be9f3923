"""Property-based tests on whole-subsystem invariants.

* The UFS behaves like a simple in-memory model under arbitrary operation
  sequences, and fsck stays clean throughout.
* Directory reconciliation converges: any divergent histories of entry
  inserts/removes merge to identical directories, regardless of the order
  reconciliation happens to run in.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import FicusError
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.ufs import ROOT_INO, Ufs, fsck

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

names = st.sampled_from([f"n{i}" for i in range(8)])
payloads = st.binary(max_size=2048)


class UfsModel(RuleBasedStateMachine):
    """UFS against a dict model: files are name -> bytes in one directory
    tree of depth <= 2; fsck must stay clean after every rule."""

    def __init__(self):
        super().__init__()
        self.fs = Ufs.mkfs(BlockDevice(2048), num_inodes=128)
        self.model: dict[str, bytes] = {}
        self.dirs: set[str] = set()

    def _parent_ino(self, path: str) -> int:
        if "/" in path:
            return self.fs.path_lookup("/" + path.split("/")[0])
        return ROOT_INO

    @rule(name=names, data=payloads)
    def create_or_overwrite(self, name, data):
        if name in self.dirs:
            return
        if name not in self.model:
            try:
                self.fs.create(ROOT_INO, name)
            except FicusError:
                return
        ino = self.fs.path_lookup("/" + name)
        self.fs.truncate_file(ino, 0)
        self.fs.write_file(ino, 0, data)
        self.model[name] = data

    @rule(name=names)
    def remove(self, name):
        if name in self.model:
            self.fs.unlink(ROOT_INO, name)
            del self.model[name]

    @rule(name=names)
    def make_directory(self, name):
        if name in self.model or name in self.dirs:
            return
        try:
            self.fs.mkdir(ROOT_INO, name)
        except FicusError:
            return
        self.dirs.add(name)

    @rule(name=names)
    def remove_directory(self, name):
        if name not in self.dirs:
            return
        children = [p for p in self.model if p.startswith(name + "/")]
        if children:
            return
        self.fs.rmdir(ROOT_INO, name)
        self.dirs.discard(name)

    @rule(dirname=names, fname=names, data=payloads)
    def create_nested(self, dirname, fname, data):
        if dirname not in self.dirs:
            return
        path = f"{dirname}/{fname}"
        dir_ino = self.fs.path_lookup("/" + dirname)
        if path not in self.model:
            try:
                self.fs.create(dir_ino, fname)
            except FicusError:
                return
        ino = self.fs.path_lookup("/" + path)
        self.fs.truncate_file(ino, 0)
        self.fs.write_file(ino, 0, data)
        self.model[path] = data

    @rule(src=names, dst=names)
    def rename_top_level(self, src, dst):
        if src not in self.model or src == dst:
            return
        if dst in self.dirs:
            return
        self.fs.rename(ROOT_INO, src, ROOT_INO, dst)
        self.model[dst] = self.model.pop(src)

    @rule()
    def remount(self):
        self.fs = self.fs.remount()

    @invariant()
    def contents_match_model(self):
        for path, expected in self.model.items():
            ino = self.fs.path_lookup("/" + path)
            assert self.fs.read_file(ino) == expected

    @invariant()
    def fsck_clean(self):
        report = fsck(self.fs)
        assert report.clean, report.problems


TestUfsModel = UfsModel.TestCase
TestUfsModel.settings = settings(
    max_examples=15,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


op_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # which host acts
        st.sampled_from(["create", "remove", "mkdir"]),
        names,
    ),
    min_size=1,
    max_size=12,
)


class TestReconConvergence:
    @given(op_lists)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_divergent_histories_converge(self, ops):
        """Partition two replicas, apply an arbitrary op sequence to each
        side, heal, reconcile: the directory trees must be identical."""
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.partition([{"a"}, {"b"}])
        hosts = ["a", "b"]
        for host_index, op, name in ops:
            fs = system.host(hosts[host_index]).fs()
            try:
                if op == "create":
                    fs.write_file("/" + name, f"{host_index}:{name}".encode())
                elif op == "remove":
                    fs.unlink("/" + name)
                elif op == "mkdir":
                    fs.mkdir("/" + name)
            except FicusError:
                pass
        system.heal()
        system.reconcile_everything(rounds=4)
        tree_a = sorted(system.host("a").fs().walk_tree())
        tree_b = sorted(system.host("b").fs().walk_tree())
        assert tree_a == tree_b

    @given(op_lists)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_recon_direction_order_irrelevant(self, ops):
        """Convergence must not depend on who reconciles first."""
        results = []
        for order in [("a", "b"), ("b", "a")]:
            system = FicusSystem(["a", "b"], daemon_config=QUIET)
            system.partition([{"a"}, {"b"}])
            hosts = ["a", "b"]
            for host_index, op, name in ops:
                fs = system.host(hosts[host_index]).fs()
                try:
                    if op == "create":
                        fs.write_file("/" + name, b"x")
                    elif op == "remove":
                        fs.unlink("/" + name)
                    elif op == "mkdir":
                        fs.mkdir("/" + name)
                except FicusError:
                    pass
            system.heal()
            for _ in range(3):
                for who in order:
                    system.host(who).recon_daemon.tick()
            results.append(sorted(system.host("a").fs().walk_tree()))
        assert results[0] == results[1]
