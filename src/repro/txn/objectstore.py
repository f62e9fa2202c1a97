"""The object-store transactional benchmark (paper Figure 16(a)).

Random integer keys; each transaction reads ``r`` items and writes ``w``
items, denoted (r, w) as in the paper — (4, 0) is the read-only
configuration of Figure 16(a.1), (3, 1)/(2, 2) the read-write mixes of
16(a.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import NS_PER_S
from .cluster import TxnCluster, TxnClusterConfig, build_txn_cluster

__all__ = ["ObjectStoreConfig", "TxnRunResult", "run_object_store"]

#: Integer keys loaded across the shards.
N_KEYS = 60_000


@dataclass
class ObjectStoreConfig:
    """One object-store run."""

    cluster: TxnClusterConfig = field(default_factory=TxnClusterConfig)
    reads: int = 3
    writes: int = 1
    warmup_ns: int = 500_000
    measure_ns: int = 2_000_000

    def __post_init__(self):
        if self.reads < 0 or self.writes < 0 or self.reads + self.writes == 0:
            raise ValueError("transaction must touch at least one key")


@dataclass
class TxnRunResult:
    """Committed throughput plus abort accounting."""

    mtps: float  # committed transactions per second, in millions
    committed: int
    aborted: int
    window_ns: int

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


def populate_object_store(cluster: TxnCluster, n_keys: int) -> None:
    """Load ``n_keys`` integer keys across the shards."""
    for key in range(n_keys):
        shard = cluster.shard_of(key)
        cluster.participants[shard].store.insert(key, ("v", key, 0))


def run_object_store(config: ObjectStoreConfig) -> TxnRunResult:
    """Run the (r, w) workload and measure committed throughput."""
    cluster = build_txn_cluster(config.cluster)
    populate_object_store(cluster, N_KEYS)
    sim = cluster.sim
    window = {"start": None, "commits": 0, "aborts": 0}

    def coordinator_loop(sim, index, coordinator):
        rng = cluster.rng.stream(f"coord.{index}")
        n = config.reads + config.writes
        while True:
            keys = rng.sample(range(N_KEYS), n)
            read_set = tuple(keys[: config.reads])
            write_set = {key: ("v", key, rng.randrange(1 << 30)) for key in keys[config.reads:]}
            committed = yield from coordinator.run(read_set, write_set)
            if window["start"] is not None:
                if committed:
                    window["commits"] += 1
                else:
                    window["aborts"] += 1

    for index, coordinator in enumerate(cluster.coordinators):
        sim.process(coordinator_loop(sim, index, coordinator), name=f"objstore.{index}")

    sim.run(until=config.warmup_ns)
    window["start"] = sim.now
    sim.run(until=config.warmup_ns + config.measure_ns)
    elapsed = sim.now - window["start"]
    return TxnRunResult(
        mtps=window["commits"] * NS_PER_S / elapsed / 1e6,
        committed=window["commits"],
        aborted=window["aborts"],
        window_ns=elapsed,
    )
