"""The SmallBank world build is a shortcut, not a different world.

``populate_smallbank`` looks a shard up once per account and
``KvStore.insert`` writes an item's cells without going through
``Node.store``; both must leave exactly what per-key inserts and per-cell
stores through the public API leave — same values, same addresses, same
dict insertion orders (iteration order is program output: DESIGN.md §7).
"""

import gc

import pytest

from repro.rdma import Fabric, Node
from repro.sim import Simulator
from repro.txn import ItemRef, KvError, KvStore, populate_smallbank
from repro.txn.smallbank import INITIAL_BALANCE, checking, savings

from .test_transactions import small_cluster

N_ACCOUNTS = 200


def populate_per_key(cluster, n_accounts):
    """The reference: one ``shard_of`` and one attribute walk per key."""
    for account in range(n_accounts):
        for key in (checking(account), savings(account)):
            shard = cluster.shard_of(key)
            cluster.participants[shard].store.insert(key, INITIAL_BALANCE)


class TestPopulateIdentity:
    @pytest.fixture(scope="class")
    def worlds(self):
        built, reference = small_cluster(), small_cluster()
        populate_smallbank(built, N_ACCOUNTS)
        populate_per_key(reference, N_ACCOUNTS)
        return built, reference

    def test_every_shard_is_loaded(self, worlds):
        built, _ = worlds
        sizes = [len(p.store) for p in built.participants]
        assert sum(sizes) == 2 * N_ACCOUNTS
        assert all(sizes)

    def test_key_order_and_addresses(self, worlds):
        built, reference = worlds
        for got, want in zip(built.participants, reference.participants):
            keys = list(got.store.keys())
            assert keys == list(want.store.keys())
            assert [got.store.lookup(k) for k in keys] == [
                want.store.lookup(k) for k in keys
            ]

    def test_object_memory_cells_and_order(self, worlds):
        built, reference = worlds
        for got, want in zip(built.participants, reference.participants):
            assert list(got.node.object_memory.items()) == list(
                want.node.object_memory.items()
            )

    def test_index_holds_untracked_addresses(self, worlds):
        # The index keeps one int per item; ``lookup`` builds the ItemRef,
        # so a loaded shard holds no per-item object for the cyclic GC.
        built, _ = worlds
        for participant in built.participants:
            store = participant.store
            for bucket in store._buckets:
                assert all(type(base) is int for base in bucket.values())
                assert not any(gc.is_tracked(base) for base in bucket.values())
            for key in list(store.keys())[::17]:
                base = store._bucket(key)[key]
                assert store.lookup(key) == ItemRef(key, base)

    def test_cells_through_the_public_accessors(self, worlds):
        built, _ = worlds
        for participant in built.participants:
            store, node = participant.store, participant.node
            for key in store.keys():
                ref = store.lookup(key)
                assert store.read(ref) == (INITIAL_BALANCE, 1)
                assert store.lock_owner(ref) == 0
                assert node.load(ref.value_addr) == INITIAL_BALANCE
                assert node.load(ref.version_addr) == 1
                assert node.load(ref.lock_addr) == 0


class TestInsertCells:
    @pytest.fixture
    def store(self):
        sim = Simulator()
        return KvStore(Node(sim, "p", Fabric(sim)), capacity_items=2, n_buckets=4)

    def test_insert_equals_three_stores(self, store):
        ref = store.insert("k", "v")
        twin = Node(store.node.sim, "q", Fabric(store.node.sim))
        twin.store(ref.value_addr, "v")
        twin.store(ref.version_addr, 1)
        twin.store(ref.lock_addr, 0)
        assert list(store.node.object_memory.items()) == list(
            twin.object_memory.items()
        )

    def test_rejected_inserts_leave_no_trace(self, store):
        store.insert("a", 1)
        with pytest.raises(KvError, match="duplicate key"):
            store.insert("a", 2)
        store.insert("b", 3)
        cells = dict(store.node.object_memory)
        with pytest.raises(KvError, match="shard full"):
            store.insert("c", 4)
        assert len(store) == 2
        assert store.lookup("c") is None
        assert store.read(store.lookup("a")) == (1, 1)
        assert store.node.object_memory == cells


class TestItemRef:
    def test_addresses(self):
        ref = ItemRef(("c", 7), 4096)
        assert (ref.key, ref.base_addr) == (("c", 7), 4096)
        assert (ref.value_addr, ref.version_addr, ref.lock_addr) == (4096, 4104, 4112)

    def test_equality_and_hash_follow_key_and_address(self):
        ref = ItemRef(("c", 7), 4096)
        assert ref == ItemRef(("c", 7), 4096)
        assert hash(ref) == hash(ItemRef(("c", 7), 4096))
        assert ref != ItemRef(("s", 7), 4096)
        assert ref != ItemRef(("c", 7), 4160)
        assert {ref: "x"}[ItemRef(("c", 7), 4096)] == "x"

    def test_immutable(self):
        ref = ItemRef("k", 64)
        with pytest.raises(AttributeError):
            ref.base_addr = 128
