"""A lazily loaded world is the per-key world, built on demand.

``populate_smallbank`` and ``populate_object_store`` reserve each shard's
items (``KvStore.reserve``): an item gets its index entry and its three
cells on its first lookup.  Through every observable — the lookup
address, the accessors, the cells a one-sided verb reads — that world must
equal one made by per-key ``insert`` in key order, and an item nobody
looked up must cost nothing.
"""

import gc

import pytest

from repro.bench import experiments
from repro.rdma import Fabric, Node
from repro.sim import Simulator
from repro.txn import (
    ItemRef,
    KvError,
    KvStore,
    build_txn_cluster,
    populate_object_store,
    populate_smallbank,
)
from repro.txn.smallbank import INITIAL_BALANCE, checking, savings

from .test_transactions import small_cluster

N_ACCOUNTS = 200
N_KEYS = 300


def insert_per_key(cluster, keys, initial):
    """The reference: one ``shard_of`` and one ``insert`` per key."""
    for key in keys:
        cluster.participants[cluster.shard_of(key)].store.insert(key, initial(key))


def cells(node, ref):
    return [node.object_memory.get(addr, "absent")
            for addr in (ref.value_addr, ref.version_addr, ref.lock_addr)]


class TestPopulateIdentity:
    """SmallBank: both tables of ``N_ACCOUNTS`` accounts."""

    populate = staticmethod(populate_smallbank)
    n_anchors = N_ACCOUNTS

    @staticmethod
    def keys_of(n_accounts):
        return [key for a in range(n_accounts) for key in (checking(a), savings(a))]

    @staticmethod
    def initial(key):
        return INITIAL_BALANCE

    @pytest.fixture
    def worlds(self):
        """(lazy cluster, per-key reference cluster, every loaded key)."""
        lazy, reference = small_cluster(), small_cluster()
        self.populate(lazy, self.n_anchors)
        keys = self.keys_of(self.n_anchors)
        insert_per_key(reference, keys, self.initial)
        return lazy, reference, keys

    def test_every_shard_is_loaded(self, worlds):
        # ``len`` counts reserved items, built or not.
        lazy, reference, keys = worlds
        sizes = [len(p.store) for p in lazy.participants]
        assert sizes == [len(p.store) for p in reference.participants]
        assert sum(sizes) == len(keys)
        assert all(sizes)

    def test_untouched_items_hold_no_cell(self, worlds):
        lazy, reference, keys = worlds
        for key in keys:
            shard = lazy.shard_of(key)
            want = reference.participants[shard].store.lookup(key)
            assert cells(lazy.participants[shard].node, want) == ["absent"] * 3

    def test_key_order_and_addresses(self, worlds):
        # A shard's slots follow key order, as per-key inserts lay them out.
        lazy, reference, keys = worlds
        for shard, (got, want) in enumerate(zip(lazy.participants, reference.participants)):
            mine = [key for key in keys if lazy.shard_of(key) == shard]
            refs = [got.store.lookup(key) for key in mine]
            assert refs == [want.store.lookup(key) for key in mine]
            base = got.store.region.range.base
            assert [ref.base_addr for ref in refs] == [base + 64 * i for i in range(len(mine))]

    def test_cells_through_the_public_accessors(self, worlds):
        lazy, reference, keys = worlds
        for key in keys:
            shard = lazy.shard_of(key)
            got_store = lazy.participants[shard].store
            want_store = reference.participants[shard].store
            got, want = got_store.lookup(key), want_store.lookup(key)
            assert got == want
            assert got_store.read(got) == want_store.read(want) == (self.initial(key), 1)
            assert got_store.version(got) == want_store.version(want) == 1
            assert got_store.lock_owner(got) == want_store.lock_owner(want) == 0
            # What a one-sided read of the item returns.
            assert cells(got_store.node, got) == cells(want_store.node, want)
            assert got_store.lookup(key) == got  # built once

    def test_object_memory_cells_and_order(self, worlds):
        # Touched in key order, a lazy world's cells are the eager world's,
        # in the same order.
        lazy, reference, keys = worlds
        for key in keys:
            lazy.participants[lazy.shard_of(key)].store.lookup(key)
        for got, want in zip(lazy.participants, reference.participants):
            assert list(got.node.object_memory.items()) == list(
                want.node.object_memory.items()
            )

    def test_a_lookup_builds_only_its_item(self, worlds):
        lazy, reference, keys = worlds
        touched, untouched = keys[0], keys[-1]
        home = lazy.participants[lazy.shard_of(touched)]
        ref = home.store.lookup(touched)
        assert cells(home.node, ref) == [self.initial(touched), 1, 0]
        shard = lazy.shard_of(untouched)
        want = reference.participants[shard].store.lookup(untouched)
        assert cells(lazy.participants[shard].node, want) == ["absent"] * 3

    def test_another_shards_key_looks_up_none(self, worlds):
        lazy, reference, keys = worlds
        for key in keys[::7]:
            home = lazy.shard_of(key)
            for shard, participant in enumerate(lazy.participants):
                if shard != home:
                    assert participant.store.lookup(key) is None
                    assert reference.participants[shard].store.lookup(key) is None

    def test_keys_outside_the_tables_look_up_none(self, worlds):
        lazy, reference, _ = worlds
        n = self.n_anchors
        foreign = [-1, n, "nope", ("x", 3), ("c", -1), ("s", n), ("c", "3"), ("c", 3, 0), (3,)]
        for key in foreign:
            for got, want in zip(lazy.participants, reference.participants):
                assert got.store.lookup(key) is want.store.lookup(key) is None

    def test_insert_of_a_reserved_key_is_a_duplicate(self, worlds):
        lazy, reference, keys = worlds
        for key in keys[:2]:
            lazy.participants[lazy.shard_of(key)].store.lookup(key)
        for key in keys[:4]:  # two built, two still reserved
            shard = lazy.shard_of(key)
            store = lazy.participants[shard].store
            size, memory = len(store), dict(store.node.object_memory)
            with pytest.raises(KvError, match="duplicate key"):
                store.insert(key, 0)
            with pytest.raises(KvError, match="duplicate key"):
                reference.participants[shard].store.insert(key, 0)
            assert len(store) == size
            assert store.node.object_memory == memory

    def test_a_fresh_insert_takes_the_next_slot(self, worlds):
        lazy, reference, _ = worlds
        for got, want in zip(lazy.participants, reference.participants):
            assert got.store.insert(("new", 1), "x") == want.store.insert(("new", 1), "x")
            assert len(got.store) == len(want.store)

    def test_index_holds_untracked_addresses(self, worlds):
        # The index keeps one int per built item; ``lookup`` builds the
        # ItemRef, so a shard holds no per-item object for the cyclic GC.
        lazy, _, keys = worlds
        for key in keys[::5]:
            lazy.participants[lazy.shard_of(key)].store.lookup(key)
        for participant in lazy.participants:
            index = participant.store._index
            assert index
            assert all(type(base) is int and not gc.is_tracked(base) for base in index.values())
            for key, base in index.items():
                assert participant.store.lookup(key) == ItemRef(key, base)


class TestObjectStorePopulateIdentity(TestPopulateIdentity):
    """The object store: ``N_KEYS`` integer keys."""

    populate = staticmethod(populate_object_store)
    n_anchors = N_KEYS

    @staticmethod
    def keys_of(n_keys):
        return list(range(n_keys))

    @staticmethod
    def initial(key):
        return ("v", key, 0)


class TestReserve:
    @pytest.fixture
    def store(self):
        sim = Simulator()
        return KvStore(Node(sim, "p", Fabric(sim)), capacity_items=4)

    def test_over_capacity_names_both_sizes_and_changes_nothing(self, store):
        with pytest.raises(KvError, match="needs 5 slots; the shard has 4"):
            store.reserve(5, lambda key: 0, lambda key: "v")
        assert len(store) == 0
        assert store.lookup("k") is None
        assert store.node.object_memory == {}
        store.insert("k", 1)  # the shard still works
        assert store.read(store.lookup("k")) == (1, 1)

    def test_needs_an_empty_shard(self, store):
        store.insert("k", 1)
        with pytest.raises(KvError, match="empty shard"):
            store.reserve(2, lambda key: None, lambda key: None)
        assert len(store) == 1

    def test_full_after_reserved_slots(self, store):
        store.reserve(3, lambda key: {"a": 0, "b": 1, "c": 2}.get(key), lambda key: key * 2)
        assert store.insert("d", 0).base_addr == store.region.range.base + 3 * 64
        with pytest.raises(KvError, match="shard full"):
            store.insert("e", 0)
        assert store.read(store.lookup("b")) == ("bb", 1)


class TestFullScaleSmallBankLoads:
    def test_fig16b_full_world_fits_its_shards(self, monkeypatch):
        """``fig16b --full`` loads 3 x 100k accounts; the crc32 split puts
        more than the default 65,536 items on every shard."""
        configs = []

        class Captured(Exception):
            pass

        def capture(config):
            configs.append(config)
            raise Captured

        monkeypatch.setattr(experiments, "run_smallbank", capture)
        with pytest.raises(Captured):
            experiments.fig16b(quick=False)
        config = configs[0]
        cluster = build_txn_cluster(config.cluster)
        populate_smallbank(cluster, config.n_accounts)
        sizes = [len(p.store) for p in cluster.participants]
        assert sum(sizes) == 2 * config.n_accounts == 600_000
        assert min(sizes) > 1 << 16


class TestInsertCells:
    @pytest.fixture
    def store(self):
        sim = Simulator()
        return KvStore(Node(sim, "p", Fabric(sim)), capacity_items=2)

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
