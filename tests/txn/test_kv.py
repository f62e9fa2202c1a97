"""Unit and property tests for the KV shard."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdma import Fabric, Node
from repro.sim import Simulator
from repro.txn import KvError, KvStore
from repro.txn.kv import ITEM_SLOT_BYTES


@pytest.fixture
def store():
    sim = Simulator()
    node = Node(sim, "p", Fabric(sim))
    return KvStore(node, capacity_items=256, n_buckets=16)


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
