"""RC reliability semantics: retransmit on loss, RNR backoff, QP -> ERROR
on exhaustion (the hardware's IBV_WC_RETRY_EXC_ERR / RNR_RETRY_EXC_ERR).

The drop-pattern tests script ``fabric.drops_packet`` directly so each
path is hit by construction rather than by seed luck; the statistical
test exercises the real ``fabric.rc_loss`` RNG substream.
"""

from repro.rdma import (
    Fabric,
    Node,
    QpState,
    Transport,
    WireParams,
    post_recv,
    post_send,
    post_write,
)
from repro.sim import Simulator


def _rc_world(params=None, seed=1):
    sim = Simulator()
    fabric = Fabric(sim, params or WireParams(), seed=seed)
    a, b = Node(sim, "a", fabric), Node(sim, "b", fabric)
    qp_a, qp_b = a.create_qp(Transport.RC), b.create_qp(Transport.RC)
    qp_a.connect(qp_b)
    return sim, fabric, a, b, qp_a, qp_b


def _script_drops(fabric, pattern):
    """Make the next drop decisions follow ``pattern`` (then deliver)."""
    decisions = iter(pattern)
    fabric.drops_packet = lambda reliable: next(decisions, False)


class TestRcRetransmit:
    def test_drop_is_retransmitted_and_delivered(self):
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        _script_drops(fabric, [True, True, False])  # drop, drop, deliver
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_write(qp_a, src.range.base, dst.range.base, 32, payload="x")
        sim.run()
        assert wr.completion.value.status == "success"
        assert b.load(dst.range.base) == "x"
        assert qp_a.retransmits == 2
        assert qp_a.state is QpState.RTS

    def test_retransmit_pays_the_ack_timeout(self):
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        _script_drops(fabric, [True, False])
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_write(qp_a, src.range.base, dst.range.base, 32)
        sim.run()
        assert wr.completion.value.timestamp_ns >= qp_a.timeout_ns

    def test_exhaustion_errors_the_qp(self):
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        qp_a.retry_cnt = 2
        _script_drops(fabric, [True] * 10)  # never delivers
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_write(qp_a, src.range.base, dst.range.base, 32, payload="x")
        sim.run()
        assert wr.completion.value.status == "retry-exceeded"
        assert qp_a.state is QpState.ERROR
        assert qp_a.retry_exhausted == 1
        assert qp_a.retransmits == 2
        assert b.load(dst.range.base) is None  # payload never landed

    def test_lossy_fabric_still_delivers_everything(self):
        """Statistical path: the real ``fabric.rc_loss`` stream decides."""
        sim, fabric, a, b, qp_a, qp_b = _rc_world(
            WireParams(rc_loss_rate=0.3), seed=7
        )
        src = a.register_memory(4096)
        dst = b.register_memory(1 << 16)
        arrived = []
        b.watch_writes(dst.range, arrived.append)
        for i in range(50):
            post_write(qp_a, src.range.base, dst.range.base + 64 * i, 32,
                       payload=i, signaled=False)
        sim.run()
        assert len(arrived) == 50           # RC never loses, only retries
        assert qp_a.retransmits > 0         # and the loss rate actually bit
        assert qp_a.state is QpState.RTS
        # The loss stream's draws, in order, decide exactly this schedule:
        # a change to who draws first (the verb or the retransmit loop)
        # or how often moves these pinned figures.
        assert qp_a.retransmits == 26
        assert fabric.rc_packets_lost == 26
        assert [event.payload for event in arrived] == [
            0, 1, 2, 4, 5, 6, 8, 9, 10, 14, 17, 20, 21, 23, 24, 25, 26, 28, 29,
            31, 32, 33, 34, 36, 39, 40, 41, 42, 44, 46, 48, 49,
            3, 12, 15, 16, 22, 27, 30, 37, 38, 43, 45, 47,
            7, 11, 18, 19, 13, 35,
        ]
        assert sim.now == 52616

    def test_zero_loss_rate_draws_nothing(self):
        """Healthy fast path: no RNG draw, no retransmit bookkeeping."""
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        rng_state = fabric._rc_loss_rng.getstate()
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        post_write(qp_a, src.range.base, dst.range.base, 32)
        sim.run()
        assert qp_a.retransmits == 0
        assert fabric._rc_loss_rng.getstate() == rng_state


class TestRnrRetry:
    def test_rnr_retry_waits_for_late_recv(self):
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        qp_a.rnr_retry = 3
        src = a.register_memory(4096)
        dst = b.register_memory(4096)
        wr = post_send(qp_a, 32, payload="late", local_addr=src.range.base)

        def repost():
            # Recv shows up one RNR backoff after the send arrives.
            yield sim.timeout(qp_a.rnr_timeout_ns + 5_000)
            post_recv(qp_b, dst.range.base, 256)

        sim.process(repost(), name="late-recv")
        sim.run()
        assert wr.completion.value.status == "success"
        assert qp_a.rnr_retries >= 1
        assert qp_a.state is QpState.RTS

    def test_rnr_exhaustion_errors_the_qp(self):
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        qp_a.rnr_retry = 2
        src = a.register_memory(4096)
        wr = post_send(qp_a, 32, local_addr=src.range.base)  # no recv ever
        sim.run()
        assert wr.completion.value.status == "rnr-retry-exceeded"
        assert qp_a.state is QpState.ERROR
        assert qp_a.rnr_retries == 2
        assert qp_a.retry_exhausted == 1

    def test_default_rnr_zero_keeps_silent_drop(self):
        """The historical semantics: rnr_retry == 0 drops at the responder
        (counted), completes the send, and never errors the QP."""
        sim, fabric, a, b, qp_a, qp_b = _rc_world()
        assert qp_a.rnr_retry == 0
        src = a.register_memory(4096)
        wr = post_send(qp_a, 32, local_addr=src.range.base)
        sim.run()
        assert wr.completion.value.status == "success"
        assert qp_b.rnr_drops == 1
        assert qp_a.state is QpState.RTS
