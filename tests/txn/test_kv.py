"""Unit and property tests for the KV shard."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.rdma import Fabric, Node
from repro.rdma.node import InboundWrite
from repro.sim import Simulator
from repro.txn import CommitRecord, KvError, KvStore, populate_smallbank, shard_of_factory
from repro.txn.kv import ITEM_SLOT_BYTES
from repro.txn.smallbank import INITIAL_BALANCE, checking, savings


@pytest.fixture
def store():
    sim = Simulator()
    node = Node(sim, "p", Fabric(sim))
    return KvStore(node, capacity_items=256)


class TestInsertLookup:
    def test_insert_then_read(self, store):
        ref = store.insert("k", 42)
        assert store.read(ref) == (42, 1)
        assert store.lookup("k") == ref

    def test_missing_key(self, store):
        assert store.lookup("nope") is None

    def test_duplicate_insert_rejected(self, store):
        store.insert("k", 1)
        with pytest.raises(KvError):
            store.insert("k", 2)

    def test_capacity_enforced(self):
        sim = Simulator()
        node = Node(sim, "p", Fabric(sim))
        small = KvStore(node, capacity_items=2)
        small.insert(1, "a")
        small.insert(2, "b")
        with pytest.raises(KvError):
            small.insert(3, "c")

    def test_item_slots_disjoint(self, store):
        refs = [store.insert(i, i) for i in range(10)]
        addrs = [r.base_addr for r in refs]
        assert len(set(addrs)) == 10
        assert all(b - a >= ITEM_SLOT_BYTES for a, b in zip(addrs, addrs[1:]))

    def test_field_addresses_are_contiguous(self, store):
        ref = store.insert("k", 0)
        assert ref.version_addr == ref.value_addr + 8
        assert ref.lock_addr == ref.value_addr + 16


class TestLocking:
    def test_lock_unlock(self, store):
        ref = store.insert("k", 0)
        assert store.try_lock(ref, 7)
        assert store.lock_owner(ref) == 7
        assert store.unlock(ref, 7)
        assert store.lock_owner(ref) == 0

    def test_conflicting_lock_fails(self, store):
        ref = store.insert("k", 0)
        assert store.try_lock(ref, 7)
        assert not store.try_lock(ref, 8)

    def test_reentrant_lock(self, store):
        ref = store.insert("k", 0)
        assert store.try_lock(ref, 7)
        assert store.try_lock(ref, 7)

    def test_unlock_wrong_owner_refused(self, store):
        ref = store.insert("k", 0)
        store.try_lock(ref, 7)
        assert not store.unlock(ref, 8)
        assert store.lock_owner(ref) == 7

    def test_txn_id_zero_rejected(self, store):
        ref = store.insert("k", 0)
        with pytest.raises(KvError):
            store.try_lock(ref, 0)


class TestCommitPaths:
    def test_local_commit(self, store):
        ref = store.insert("k", 10)
        store.try_lock(ref, 7)
        store.apply_commit(ref, 99, 2)
        assert store.read(ref) == (99, 2)
        assert store.lock_owner(ref) == 0

    def test_one_sided_commit_via_rdma_write(self):
        """The full remote path: RDMA write of a CommitRecord updates
        value, version, and lock without participant CPU."""
        from repro.rdma import Transport, post_write
        from repro.txn import CommitRecord

        sim = Simulator()
        fabric = Fabric(sim)
        participant = Node(sim, "p", fabric)
        coordinator = Node(sim, "c", fabric)
        store = KvStore(participant, capacity_items=16)
        ref = store.insert("k", 10)
        store.try_lock(ref, 5)
        qp_c = coordinator.create_qp(Transport.RC)
        qp_p = participant.create_qp(Transport.RC)
        qp_c.connect(qp_p)
        scratch = coordinator.register_memory(4096)
        post_write(
            qp_c,
            local_addr=scratch.range.base,
            remote_addr=ref.value_addr,
            size=40,
            payload=CommitRecord(value=77, version=2),
            signaled=False,
        )
        sim.run()
        assert store.read(ref) == (77, 2)
        assert store.lock_owner(ref) == 0
        assert store.remote_commits == 1

    def test_one_sided_version_read(self):
        from repro.rdma import Transport, post_read

        sim = Simulator()
        fabric = Fabric(sim)
        participant = Node(sim, "p", fabric)
        coordinator = Node(sim, "c", fabric)
        store = KvStore(participant, capacity_items=16)
        ref = store.insert("k", 10)
        qp_c = coordinator.create_qp(Transport.RC)
        qp_p = participant.create_qp(Transport.RC)
        qp_c.connect(qp_p)
        scratch = coordinator.register_memory(4096)
        wr = post_read(qp_c, scratch.range.base, ref.version_addr, 8)
        sim.run()
        assert wr.completion.value.payload == 1


class TestKvProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "lock", "unlock", "commit"]),
                st.integers(min_value=0, max_value=15),  # key
                st.integers(min_value=1, max_value=4),  # txn id
            ),
            max_size=120,
        )
    )
    @settings(max_examples=50)
    def test_lock_state_machine(self, ops):
        """Locks behave as exclusive, owner-released mutexes."""
        sim = Simulator()
        node = Node(sim, "p", Fabric(sim))
        store = KvStore(node, capacity_items=64)
        owners: dict[int, int] = {}
        versions: dict[int, int] = {}
        for op, key, txn in ops:
            ref = store.lookup(key)
            if op == "insert":
                if ref is None:
                    store.insert(key, 0)
                    owners[key] = 0
                    versions[key] = 1
                continue
            if ref is None:
                continue
            if op == "lock":
                expected = owners[key] in (0, txn)
                assert store.try_lock(ref, txn) is expected
                if expected:
                    owners[key] = txn
            elif op == "unlock":
                expected = owners[key] == txn
                assert store.unlock(ref, txn) is expected
                if expected:
                    owners[key] = 0
            else:  # commit
                versions[key] += 1
                store.apply_commit(ref, txn, versions[key])
                owners[key] = 0
            assert store.lock_owner(ref) == owners[key]
            assert store.version(ref) == versions[key]


N_SHARDS = 3
N_ACCOUNTS = 12
#: Loaded keys, keys outside the tables, and keys only ``insert`` adds.
KEYS = st.sampled_from(
    [(table, a) for table in "cs" for a in range(-1, N_ACCOUNTS + 1)] + [("x", 1), "nope", 5]
)
#: None routes a key to its home shard; an index sends it elsewhere.
SHARDS = st.sampled_from([None, None, *range(N_SHARDS)])
TXNS = st.integers(1, 3)
VALUES = st.integers(0, 99)


def make_shards(capacity):
    stores = []
    for shard in range(N_SHARDS):
        sim = Simulator()
        stores.append(KvStore(Node(sim, f"p{shard}", Fabric(sim)), capacity_items=capacity))
    return stores


class LazyShardMatchesEagerTwin(RuleBasedStateMachine):
    """SmallBank shards loaded lazily (``populate_smallbank``) and their
    twins loaded by per-key ``insert``, driven by the same operations:
    every result and every cell of every looked-up item must agree, and
    an item the lazy world never looked up must hold no cell."""

    def __init__(self):
        super().__init__()
        self.shard_of = shard_of_factory(N_SHARDS)
        loaded = [key for a in range(N_ACCOUNTS) for key in (checking(a), savings(a))]
        #: (shard, key) of every item either twin holds.
        self.items = [(self.shard_of(key), key) for key in loaded]
        # Two slots beyond the fullest shard: inserts can fill a shard.
        capacity = 2 + max(sum(s == shard for s, _ in self.items) for shard in range(N_SHARDS))
        self.lazy, self.eager = [make_shards(capacity) for _ in range(2)]
        populate_smallbank(SimpleNamespace(
            participants=[SimpleNamespace(store=s) for s in self.lazy], shard_of=self.shard_of,
        ), N_ACCOUNTS)
        for key in loaded:
            self.eager[self.shard_of(key)].insert(key, INITIAL_BALANCE)
        #: Items the lazy twin has built.
        self.touched = set()

    def refs(self, shard, key):
        """Look ``key`` up on both twins; the refs must agree."""
        if shard is None:
            shard = self.shard_of(key)
        got, want = self.lazy[shard].lookup(key), self.eager[shard].lookup(key)
        assert got == want
        if got is not None:
            self.touched.add((shard, key))
        return self.lazy[shard], self.eager[shard], got

    @rule(shard=SHARDS, key=KEYS)
    def lookup(self, shard, key):
        self.refs(shard, key)

    @rule(shard=SHARDS, key=KEYS, txn=TXNS)
    def try_lock(self, shard, key, txn):
        lazy, eager, ref = self.refs(shard, key)
        if ref is not None:
            assert lazy.try_lock(ref, txn) == eager.try_lock(ref, txn)

    @rule(shard=SHARDS, key=KEYS, txn=TXNS)
    def unlock(self, shard, key, txn):
        lazy, eager, ref = self.refs(shard, key)
        if ref is not None:
            assert lazy.unlock(ref, txn) == eager.unlock(ref, txn)

    @rule(shard=SHARDS, key=KEYS, value=VALUES, version=st.integers(1, 9))
    def apply_commit(self, shard, key, value, version):
        lazy, eager, ref = self.refs(shard, key)
        if ref is not None:
            lazy.apply_commit(ref, value, version)
            eager.apply_commit(ref, value, version)

    @rule(shard=SHARDS, key=KEYS, value=VALUES, version=st.integers(1, 9))
    def remote_commit(self, shard, key, value, version):
        """A one-sided CommitRecord write, as the NIC delivers it."""
        lazy, eager, ref = self.refs(shard, key)
        if ref is not None:
            for store in (lazy, eager):
                store.node.deliver_write(InboundWrite(
                    ref.value_addr, 40, CommitRecord(value, version), None, 0, 0))
            assert lazy.remote_commits == eager.remote_commits

    @rule(shard=SHARDS, key=KEYS, value=VALUES)
    def insert(self, shard, key, value):
        if shard is None:
            shard = self.shard_of(key)
        outcomes = []
        for store in (self.lazy[shard], self.eager[shard]):
            try:
                outcomes.append(store.insert(key, value))
            except KvError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        if not isinstance(outcomes[0], str):
            self.items.append((shard, key))
            self.touched.add((shard, key))

    @invariant()
    def same_observable_state(self):
        for lazy, eager in zip(self.lazy, self.eager):
            assert len(lazy) == len(eager)
        for shard, key in self.items:
            lazy, eager = self.lazy[shard], self.eager[shard]
            ref = eager.lookup(key)  # the eager twin is fully built
            addrs = (ref.value_addr, ref.version_addr, ref.lock_addr)
            got = [lazy.node.object_memory.get(addr, "absent") for addr in addrs]
            if (shard, key) in self.touched:
                assert got == [eager.node.object_memory[addr] for addr in addrs]
                assert lazy.read(ref) == eager.read(ref)
                assert lazy.lock_owner(ref) == eager.lock_owner(ref)
            else:
                assert got == ["absent"] * 3


TestLazyShardMatchesEagerTwin = LazyShardMatchesEagerTwin.TestCase
# Short runs, many of them: the examples count comes from the profile.
TestLazyShardMatchesEagerTwin.settings = settings(stateful_step_count=25)
