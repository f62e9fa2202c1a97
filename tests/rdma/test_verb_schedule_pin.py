"""The verb layer's schedule, pinned branch by branch.

Each scenario drives a scripted two-node world through one family of
verb branches and records, in delivery order, every send completion as
``(sim.now, wr_id, opcode, status, byte_len, payload)``, every receive
completion, and the per-QP, per-NIC and fabric counters at the end.
The values were captured before the verb flows were rewritten, so a
change that moves, merges or reorders one hop of any branch — the
doorbell, a pipeline grant or hold, a wire flight, an RNR backoff, a
retransmit timeout, the ACK — fails here naming the scenario.

Every scenario also runs with an observer installed: the observed run
must produce the same log, and its artifact is pinned by digest.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.obs import Observer
from repro.rdma import (
    Fabric,
    Node,
    Transport,
    WireParams,
    post_cas,
    post_fetch_add,
    post_read,
    post_recv,
    post_send,
    post_write,
)
from repro.sim import Simulator


#: RPC-shaped payloads: the obs hooks correlate by ``req_id``, and an
#: ``rpc_type`` marks a request.
REQUEST = SimpleNamespace(req_id=1, rpc_type="echo")
RESPONSE = SimpleNamespace(req_id=1)


class World:
    """Two nodes ``a`` and ``b`` plus a completion log."""

    def __init__(self, wire=None, seed=1):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, wire or WireParams(), seed=seed)
        self.a = Node(self.sim, "a", self.fabric)
        self.b = Node(self.sim, "b", self.fabric)
        self.src = self.a.register_memory(1 << 16)
        self.dst = self.b.register_memory(1 << 16)
        self.qps = []
        self.log = []

    def pair(self, transport=Transport.RC):
        qp_a = self.a.create_qp(transport)
        qp_b = self.b.create_qp(transport)
        if transport is not Transport.UD:
            qp_a.connect(qp_b)
        self.qps += [qp_a, qp_b]
        return qp_a, qp_b

    def script_drops(self, reliable=(), unreliable=()):
        """The next loss decisions, per kind; deliver once one runs out."""
        script = {True: iter(reliable), False: iter(unreliable)}
        self.fabric.drops_packet = lambda rel: next(script[rel], False)

    def track(self, wr):
        def done(event):
            c = event.value
            self.log.append((self.sim.now, c.wr_id, c.opcode.value, c.status,
                             c.byte_len, c.payload))
        wr.completion.add_callback(done)
        return wr

    def hog(self, nic, holds, gap):
        """A process contending for ``nic``'s pipeline with Event waiters,
        through both ``Resource.use`` and the explicit request form."""
        sim, pipeline, log = self.sim, nic.pipeline, self.log

        def body():
            for index, hold in enumerate(holds):
                if index % 2:
                    yield pipeline.request()
                    yield sim.timeout(hold)
                    pipeline.release()
                else:
                    yield from pipeline.use(hold)
                log.append((sim.now, "hog", nic.name, hold))
                yield sim.timeout(gap)

        self.sim.process(body(), name=f"hog.{nic.name}")

    def outcome(self):
        recvs = []
        counters = []
        for qp in self.qps:
            recvs += [(c.timestamp_ns, c.wr_id, c.opcode.value, c.status,
                       c.byte_len, c.imm_data, c.payload)
                      for c in qp.recv_cq.poll(max_entries=64)]
            counters.append((
                qp.sends_posted, qp.recvs_consumed, qp.rnr_drops,
                qp.retransmits, qp.rnr_retries, qp.retry_exhausted,
                qp.state.value, qp.send_cq.pushed, qp.recv_cq.pushed,
            ))
        nics = [(vars(node.nic.stats), node.nic.pipeline.total_busy_ns)
                for node in (self.a, self.b)]
        return {
            "log": self.log,
            "recvs": recvs,
            "qps": counters,
            "nics": nics,
            "fabric": (self.fabric.packets_lost, self.fabric.rc_packets_lost),
            "now": self.sim.now,
        }


def rc_verbs(w):
    """Every RC verb at once, contending with two pipeline hogs."""
    qp, peer = w.pair()
    qp2, peer2 = w.pair()
    src, dst = w.src.range.base, w.dst.range.base
    post_recv(peer, dst + 4096, 256, wr_id=901)
    post_recv(peer, dst + 6144, 256, wr_id=903)
    post_recv(peer2, dst + 8192, 256, wr_id=902)
    w.b.store(dst + 512, 40)
    w.b.store(dst + 520, 7)
    w.b.store(dst + 1024, "remote")
    w.track(post_write(qp, src, dst, 32, payload=REQUEST, wr_id=1))
    w.track(post_write(qp, src + 64, dst + 64, 32, payload="quiet",
                       signaled=False, wr_id=2))
    w.track(post_write(qp, src + 128, dst + 128, 64, payload="imm",
                       imm_data=77, wr_id=3))
    w.track(post_write(qp2, src + 192, dst + 192, 64, payload="imm-rnr",
                       imm_data=78, wr_id=4))
    w.track(post_write(qp2, src + 256, dst + 256, 16, payload="imm2",
                       imm_data=79, wr_id=5))
    w.track(post_send(qp, 48, payload=RESPONSE, local_addr=src + 320, wr_id=6))
    w.track(post_read(qp2, src + 1024, dst + 1024, 200, wr_id=7))
    w.track(post_read(qp, src + 2048, dst + 1024, 256, wr_id=8,
                      scatter=[(src + 2048, 128), (src + 4096, 128)]))
    w.track(post_cas(qp, src + 8, dst + 512, 40, 41, wr_id=9))
    w.track(post_cas(qp2, src + 16, dst + 512, 40, 99, wr_id=10))
    w.track(post_fetch_add(qp, src + 24, dst + 520, 5, wr_id=11))
    w.track(post_write(qp2, src, dst + 2048, 4000, payload="bulk", wr_id=12))
    w.hog(w.a.nic, holds=(120, 90, 40, 200), gap=30)
    w.hog(w.b.nic, holds=(60, 300, 10), gap=400)
    w.sim.run()


def rnr(w):
    """RC sends into empty receive queues: retry that succeeds, retry
    that runs out (QP -> ERROR), and the rnr_retry == 0 silent drop."""
    sim = w.sim
    late, late_peer = w.pair()
    never, _never_peer = w.pair()
    silent, _silent_peer = w.pair()
    late.rnr_retry = 3
    never.rnr_retry = 2
    src = w.src.range.base
    w.track(post_send(late, 32, payload="late", local_addr=src, wr_id=21))
    w.track(post_send(never, 32, payload="never", local_addr=src, wr_id=22))
    w.track(post_send(silent, 32, payload="silent", local_addr=src, wr_id=23))

    def repost():
        yield sim.timeout(late.rnr_timeout_ns + 5_000)
        post_recv(late_peer, w.dst.range.base, 256, wr_id=924)

    sim.process(repost(), name="late-recv")
    sim.run()


def unreliable_loss(w):
    """UC writes and UD sends on a lossy fabric (the real loss stream)."""
    uc, uc_peer = w.pair(Transport.UC)
    ud, ud_peer = w.pair(Transport.UD)
    src, dst = w.src.range.base, w.dst.range.base
    arrived = []
    w.b.watch_writes(w.dst.range, lambda event: arrived.append(event.payload))
    for i in range(6):
        post_recv(ud_peer, dst + 16384 + 64 * i, 64, wr_id=930 + i)
    for i in range(6):
        w.track(post_write(uc, src, dst + 64 * i, 32, payload=f"uc{i}",
                           wr_id=31 + i))
        w.track(post_send(ud, 32, payload=f"ud{i}",
                          dest=ud_peer.address_handle(), wr_id=41 + i))
    w.sim.run()
    w.log.append(("arrived", arrived))


def rc_retransmit(w):
    """Scripted RC losses: retransmits that succeed (a write beside a
    lossless one, then a send), then retry exhaustion at retry_cnt 2
    and at retry_cnt 0."""
    sim = w.sim
    src, dst = w.src.range.base, w.dst.range.base
    qp, peer = w.pair()
    other, _ = w.pair()
    w.script_drops(reliable=[True, False, True, False])
    w.track(post_write(qp, src, dst, 32, payload="x", wr_id=51))
    w.track(post_write(other, src, dst + 64, 32, payload="y", wr_id=52))
    sim.run()
    post_recv(peer, dst + 4096, 256, wr_id=953)
    w.script_drops(reliable=[True, True, False])
    w.track(post_send(qp, 40, payload="z", local_addr=src, wr_id=53))
    sim.run()
    doomed, _ = w.pair()
    doomed.retry_cnt = 2
    w.script_drops(reliable=[True] * 5)
    w.track(post_write(doomed, src, dst + 128, 32, payload="lost", wr_id=54))
    sim.run()
    hopeless, _ = w.pair()
    hopeless.retry_cnt = 0
    w.script_drops(reliable=[True])
    w.track(post_write(hopeless, src, dst + 192, 32, payload="lost", wr_id=55))
    sim.run()
    w.log.append(("landed", [w.b.load(dst + off) for off in (0, 64, 128, 192)]))


SCENARIOS = {  # name: (scenario, wire parameters, fabric seed)
    "rc_verbs": (rc_verbs, None, 1),
    "rnr": (rnr, None, 1),
    "unreliable_loss": (unreliable_loss, WireParams(loss_rate=0.5), 2),
    "rc_retransmit": (rc_retransmit, None, 1),
}

EXPECTED = {'rc_retransmit': {'fabric': (0, 0),
                   'log': [(3463, 52, 'write', 'success', 32, None),
                           (34852, 51, 'write', 'success', 32, None),
                           (69047, 53, 'send', 'success', 40, None),
                           (101954, 54, 'write', 'retry-exceeded', 32, None),
                           (102763, 55, 'write', 'retry-exceeded', 32, None),
                           ('landed', ['x', 'y', None, None])],
                   'nics': [({'conn_hits': 7,
                              'conn_misses': 4,
                              'rx_ops': 0,
                              'tx_ops': 11,
                              'wqe_hits': 7,
                              'wqe_misses': 4},
                             3182),
                            ({'conn_hits': 0,
                              'conn_misses': 0,
                              'rx_ops': 3,
                              'tx_ops': 0,
                              'wqe_hits': 0,
                              'wqe_misses': 0},
                             435)],
                   'now': 102763,
                   'qps': [(2, 0, 0, 4, 0, 0, 'RTS', 2, 0),
                           (0, 1, 0, 0, 0, 0, 'RTS', 0, 1),
                           (1, 0, 0, 0, 0, 0, 'RTS', 1, 0),
                           (0, 0, 0, 0, 0, 0, 'RTS', 0, 0),
                           (1, 0, 0, 2, 0, 1, 'ERROR', 1, 0),
                           (0, 0, 0, 0, 0, 0, 'RTS', 0, 0),
                           (1, 0, 0, 0, 0, 1, 'ERROR', 1, 0),
                           (0, 0, 0, 0, 0, 0, 'RTS', 0, 0)],
                   'recvs': [(68147, 953, 'recv', 'success', 40, None, 'z')]},
 'rc_verbs': {'fabric': (0, 0),
              'log': [(60, 'hog', 'b.nic', 60),
                      (120, 'hog', 'a.nic', 120),
                      (760, 'hog', 'b.nic', 300),
                      (1170, 'hog', 'b.nic', 10),
                      (2675, 'hog', 'a.nic', 90),
                      (2745, 'hog', 'a.nic', 40),
                      (2774, 1, 'write', 'success', 32, None),
                      (2919, 2, 'write', 'success', 32, None),
                      (2975, 'hog', 'a.nic', 200),
                      (3064, 3, 'write_imm', 'success', 64, None),
                      (3591, 4, 'write_imm', 'success', 64, None),
                      (3736, 5, 'write_imm', 'success', 16, None),
                      (3881, 6, 'send', 'success', 48, None),
                      (4439, 7, 'read', 'success', 200, 'remote'),
                      (4890, 12, 'write', 'success', 4000, None),
                      (4944, 8, 'read', 'success', 256, 'remote'),
                      (5089, 9, 'atomic', 'success', 8, 40),
                      (5114, 10, 'atomic', 'success', 8, 41),
                      (5139, 11, 'atomic', 'success', 8, 7)],
              'nics': [({'conn_hits': 10,
                         'conn_misses': 2,
                         'rx_ops': 5,
                         'tx_ops': 12,
                         'wqe_hits': 10,
                         'wqe_misses': 2},
                        4120),
                       ({'conn_hits': 0,
                         'conn_misses': 0,
                         'rx_ops': 12,
                         'tx_ops': 0,
                         'wqe_hits': 0,
                         'wqe_misses': 0},
                        1934)],
              'now': 5139,
              'qps': [(7, 0, 0, 0, 0, 0, 'RTS', 6, 0),
                      (0, 2, 0, 0, 0, 0, 'RTS', 0, 2),
                      (5, 0, 0, 0, 0, 0, 'RTS', 5, 0),
                      (0, 1, 1, 0, 0, 0, 'RTS', 0, 1)],
              'recvs': [(2164, 901, 'recv', 'success', 64, 77, 'imm'),
                        (2981, 903, 'recv', 'success', 48, None, RESPONSE),
                        (2691, 902, 'recv', 'success', 64, 78, 'imm-rnr')]},
 'rnr': {'fabric': (0, 0),
         'log': [(4052, 23, 'send', 'success', 32, None),
                 (26443, 22, 'send', 'rnr-retry-exceeded', 32, None),
                 (26754, 21, 'send', 'success', 32, None)],
         'nics': [({'conn_hits': 0,
                    'conn_misses': 3,
                    'rx_ops': 0,
                    'tx_ops': 3,
                    'wqe_hits': 0,
                    'wqe_misses': 3},
                   2127),
                  ({'conn_hits': 0,
                    'conn_misses': 0,
                    'rx_ops': 3,
                    'tx_ops': 0,
                    'wqe_hits': 0,
                    'wqe_misses': 0},
                   195)],
         'now': 26754,
         'qps': [(1, 0, 0, 0, 2, 0, 'RTS', 1, 0),
                 (0, 1, 0, 0, 0, 0, 'RTS', 0, 1),
                 (1, 0, 0, 0, 2, 1, 'ERROR', 1, 0),
                 (0, 0, 0, 0, 0, 0, 'RTS', 0, 0),
                 (1, 0, 0, 0, 0, 0, 'RTS', 1, 0),
                 (0, 0, 1, 0, 0, 0, 'RTS', 0, 0)],
         'recvs': [(25854, 924, 'recv', 'success', 32, None, 'late')]},
 'unreliable_loss': {'fabric': (5, 0),
                     'log': [(1005, 33, 'write', 'success', 32, None),
                             (1054, 43, 'send', 'success', 32, None),
                             (1201, 35, 'write', 'success', 32, None),
                             (1250, 45, 'send', 'success', 32, None),
                             (1348, 46, 'send', 'success', 32, None),
                             (1854, 31, 'write', 'success', 32, None),
                             (1999, 41, 'send', 'success', 32, None),
                             (2144, 32, 'write', 'success', 32, None),
                             (2289, 42, 'send', 'success', 32, None),
                             (2434, 34, 'write', 'success', 32, None),
                             (2579, 44, 'send', 'success', 32, None),
                             (2724, 36, 'write', 'success', 32, None),
                             ('arrived',
                              ['uc0', 'ud0', 'uc1', 'ud1', 'uc3', 'ud3', 'uc5'])],
                     'nics': [({'conn_hits': 5,
                                'conn_misses': 1,
                                'rx_ops': 0,
                                'tx_ops': 12,
                                'wqe_hits': 5,
                                'wqe_misses': 1},
                               1248),
                              ({'conn_hits': 0,
                                'conn_misses': 0,
                                'rx_ops': 7,
                                'tx_ops': 0,
                                'wqe_hits': 0,
                                'wqe_misses': 0},
                               1015)],
                     'now': 2724,
                     'qps': [(6, 0, 0, 0, 0, 0, 'RTS', 6, 0),
                             (0, 0, 0, 0, 0, 0, 'RTS', 0, 0),
                             (6, 0, 0, 0, 0, 0, 'RTS', 6, 0),
                             (0, 3, 0, 0, 0, 0, 'RTS', 0, 3)],
                     'recvs': [(1999, 930, 'recv', 'success', 32, None, 'ud0'),
                               (2289, 931, 'recv', 'success', 32, None, 'ud1'),
                               (2579, 932, 'recv', 'success', 32, None, 'ud3')]}}

EXPECTED_OBS_DIGEST = {'rc_retransmit': 'c32947b8acf0a889',
 'rc_verbs': '2ede4b3887f9a2a5',
 'rnr': '7135022f6f06938f',
 'unreliable_loss': '1ed7be634dc954e5'}


def _run(name, observed):
    scenario, wire, seed = SCENARIOS[name]
    world = World(wire, seed)
    obs = Observer().install(world.fabric) if observed else None
    try:
        scenario(world)
    finally:
        if obs is not None:
            obs.uninstall()
    outcome = world.outcome()
    digest = None
    if obs is not None:
        artifact = json.dumps(obs.finish(), sort_keys=True)
        digest = hashlib.sha256(artifact.encode()).hexdigest()[:16]
    return outcome, digest


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_verb_schedule_is_pinned(name):
    outcome, _ = _run(name, observed=False)
    assert outcome == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observed_verb_schedule_is_pinned(name):
    outcome, digest = _run(name, observed=True)
    assert outcome == EXPECTED[name]
    assert digest == EXPECTED_OBS_DIGEST[name]
