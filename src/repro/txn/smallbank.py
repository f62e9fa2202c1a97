"""The SmallBank OLTP benchmark (paper Figure 16(b)).

Simple bank-account transactions over two tables (checking, savings),
write-intensive with 85% update transactions.  As in the paper, accounts
are loaded per server and a hotspot is configured: 4% of the accounts are
accessed by 60% of transactions.

Transaction mix (the standard SmallBank blend, 85% updates):

=================  =====  ========================================
Balance            15%    read c(a), s(a)
DepositChecking    15%    c(a) += v
TransactSavings    15%    s(a) += v
Amalgamate         15%    move s(a1)+c(a1) into c(a2)
WriteCheck         25%    read s(a); c(a) -= v
SendPayment        15%    c(a1) -= v; c(a2) += v
=================  =====  ========================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..sim import NS_PER_S
from .cluster import N_PARTICIPANTS, TxnCluster, TxnClusterConfig, build_txn_cluster, reserve_tables
from .objectstore import TxnRunResult

__all__ = ["SmallBankConfig", "run_smallbank", "TXN_MIX"]

#: (name, cumulative probability) — WriteCheck gets the extra weight.
TXN_MIX = (
    ("balance", 0.15),
    ("deposit_checking", 0.30),
    ("transact_savings", 0.45),
    ("amalgamate", 0.60),
    ("write_check", 0.85),
    ("send_payment", 1.00),
)

INITIAL_BALANCE = 10_000

#: The paper's hotspot: 4% of the accounts take 60% of the picks.
HOT_ACCOUNT_FRACTION = 0.04
HOT_TXN_FRACTION = 0.60


@dataclass
class SmallBankConfig:
    """One SmallBank run.

    ``accounts_per_server`` defaults to 20k; ``fig16b`` loads 10k (quick)
    or 100k (full), the paper 1M: the hotspot skew, not the table size,
    drives contention (DESIGN.md).  ``cluster.items_per_shard`` must hold
    two items per account of the fullest shard (the crc32 split is uneven).
    """

    cluster: TxnClusterConfig = field(default_factory=TxnClusterConfig)
    accounts_per_server: int = 20_000
    warmup_ns: int = 500_000
    measure_ns: int = 2_000_000

    @property
    def n_accounts(self) -> int:
        return self.accounts_per_server * N_PARTICIPANTS


#: Slot of each table's item within its account's pair.
TABLE_SLOT = {"c": 0, "s": 1}


def checking(account: int) -> tuple:
    return ("c", account)


def savings(account: int) -> tuple:
    return ("s", account)


def populate_smallbank(cluster: TxnCluster, n_accounts: int) -> None:
    """Load both tables for every account: an account's two items
    co-locate, checking then savings (``TABLE_SLOT``)."""
    reserve_tables(cluster, n_accounts, 2, _account_item, lambda key: INITIAL_BALANCE)


def _account_item(key):
    if isinstance(key, tuple) and len(key) == 2 and key[0] in TABLE_SLOT and isinstance(key[1], int):
        return key[1], TABLE_SLOT[key[0]]
    return None


def pick_account(rng: random.Random, config: SmallBankConfig) -> int:
    """Hotspot: ``HOT_TXN_FRACTION`` of picks land on the hot set."""
    n = config.n_accounts
    hot = max(1, int(n * HOT_ACCOUNT_FRACTION))
    if rng.random() < HOT_TXN_FRACTION:
        return rng.randrange(hot)
    return hot + rng.randrange(n - hot)


def pick_txn(rng: random.Random) -> str:
    roll = rng.random()
    for name, cumulative in TXN_MIX:
        if roll <= cumulative:
            return name
    return TXN_MIX[-1][0]


def build_txn(name: str, rng: random.Random, config: SmallBankConfig):
    """(read_set, write_set_keys, compute) for one transaction."""
    a = pick_account(rng, config)
    v = rng.randrange(1, 100)
    if name == "balance":
        return (checking(a), savings(a)), {}, None
    if name == "deposit_checking":
        key = checking(a)
        return (), {key: None}, lambda values: {key: values[key] + v}
    if name == "transact_savings":
        key = savings(a)
        return (), {key: None}, lambda values: {key: values[key] + v}
    if name == "amalgamate":
        b = pick_account(rng, config)
        while b == a:
            b = pick_account(rng, config)
        ka_s, ka_c, kb_c = savings(a), checking(a), checking(b)

        def compute(values):
            moved = values[ka_s] + values[ka_c]
            return {ka_s: 0, ka_c: 0, kb_c: values[kb_c] + moved}

        return (), {ka_s: None, ka_c: None, kb_c: None}, compute
    if name == "write_check":
        ks, kc = savings(a), checking(a)
        return (ks,), {kc: None}, lambda values: {kc: values[kc] - v}
    # send_payment
    b = pick_account(rng, config)
    while b == a:
        b = pick_account(rng, config)
    ka, kb = checking(a), checking(b)
    return (), {ka: None, kb: None}, lambda values: {ka: values[ka] - v, kb: values[kb] + v}


def run_smallbank(config: SmallBankConfig) -> TxnRunResult:
    """Run the SmallBank mix and measure committed throughput."""
    cluster = build_txn_cluster(config.cluster)
    populate_smallbank(cluster, config.n_accounts)
    sim = cluster.sim
    window = {"start": None, "commits": 0, "aborts": 0}

    def coordinator_loop(sim, index, coordinator):
        rng = cluster.rng.stream(f"smallbank.{index}")
        while True:
            name = pick_txn(rng)
            read_set, write_keys, compute = build_txn(name, rng, config)
            committed = yield from coordinator.run(read_set, write_keys, compute=compute)
            if window["start"] is not None:
                if committed:
                    window["commits"] += 1
                else:
                    window["aborts"] += 1

    for index, coordinator in enumerate(cluster.coordinators):
        sim.process(coordinator_loop(sim, index, coordinator), name=f"smallbank.{index}")

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
