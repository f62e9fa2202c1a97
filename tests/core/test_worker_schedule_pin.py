"""The server workers' and the deferred client CPU charge's schedule,
pinned branch by branch.

Each scenario drives a small scripted world and records, in delivery
order, every response a client consumes as ``(sim.now, client_id,
req_id, "ok" | "failed")``, then the server (or baseline) stats, the
client counters and every machine's ``cpu.total_busy_ns``.  Request ids
restart at 1 per scenario, so the values do not depend on test order.

The scenarios cover every branch of a ScaleRPC worker (normal execute,
duplicate re-respond, first sighting of a long RPC and its legacy
completion, ``NO_RESPONSE``, and a stale-epoch drop across a context
switch), the static-mapping worker on RawWrite and FaSST (including the
drop of a request from an unbound client), and the deferred CPU charge on
a client machine with fewer cores than clients, where the cores' FIFO
mixes ``async_call``'s grant events with charges, the in-flight window
fills, and a straggler stalls a posting loop.  The values were captured
before the workers and the charge were rewritten, so a change that
moves, merges or reorders one of their hops fails here naming the
scenario.

Every scenario also runs with an observer installed: the observed run
must produce the same outcome, and its artifact is pinned by digest.
Both runs also pin their number of hops: continuation steps plus
deliveries of events that have a waiter.
"""

import hashlib
import itertools
import json

import pytest

from repro.baselines import BaselineConfig, FasstServer, RawWriteServer
from repro.core import ScaleRpcConfig, ScaleRpcServer
from repro.core import message as message_module
from repro.core.interface import NO_RESPONSE
from repro.core.message import RpcRequest
from repro.obs import Observer
from repro.rdma import Fabric, Node
from repro.sim import Continuation, Event, Simulator

US = 1_000


class World:
    """One server node, client machines, and a response log."""

    def __init__(self, n_machines, cores):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim)
        self.node = Node(self.sim, "server", self.fabric)
        self.machines = [Node(self.sim, f"m{i}", self.fabric, cores=cores)
                         for i in range(n_machines)]
        self.server = None
        self.clients = []
        self.log = []

    def connect(self, n_clients):
        for i in range(n_clients):
            client = self.server.connect(self.machines[i % len(self.machines)])
            self._track(client)
            self.clients.append(client)

    def _track(self, client):
        """Log every response the client consumes, duplicates included."""
        sim, log = self.sim, self.log
        complete = client._complete

        def logged_complete(response):
            log.append((sim.now, client.client_id, response.req_id,
                        "failed" if response.failed else "ok"))
            complete(response)

        client._complete = logged_complete
        handle_failed = getattr(client, "_handle_failed", None)
        if handle_failed is not None:
            def logged_failed(response):
                log.append((sim.now, client.client_id, response.req_id, "failed"))
                handle_failed(response)

            client._handle_failed = logged_failed

    def closed_loop(self, client, calls, batch):
        """Post ``calls`` (``(rpc_type, payload)``) in batches, waiting for
        each batch's responses before the next."""
        def loop():
            for start in range(0, len(calls), batch):
                handles = []
                for rpc_type, payload in calls[start:start + batch]:
                    handle = yield from client.async_call(rpc_type, payload=payload)
                    handles.append(handle)
                yield from client.flush()
                yield from client.poll_completions(handles)

        self.sim.process(loop(), name=f"drv{client.client_id}")

    def at(self, when_ns, action):
        """Run ``action()`` at simulated ``when_ns``."""
        def script():
            yield self.sim.timeout(when_ns)
            action()

        self.sim.process(script(), name="script")

    def outcome(self):
        return {
            "log": self.log,
            "stats": sorted(vars(self.server.stats).items()),
            "clients": [(c.client_id, c.completed, c.timeouts, c.reconnects,
                         c.outstanding, getattr(c, "failed_retries", None))
                        for c in self.clients],
            "cpu": [(m.name, m.cpu.total_busy_ns, m.cpu.in_use)
                    for m in self.machines],
            "now": self.sim.now,
        }


def _once_silent():
    """Echo, except that the first sighting of a ``("silent", n)`` payload
    is answered with silence."""
    silenced = set()

    def handler(request):
        payload = request.payload
        if isinstance(payload, tuple) and payload[0] == "silent" and payload not in silenced:
            silenced.add(payload)
            return NO_RESPONSE
        return payload

    return handler


def scalerpc_branches(w, rpc_timeout_ns=0):
    """Normal, long-RPC fail + legacy completion, NO_RESPONSE, duplicates
    of re-fetched requests, and stale-epoch drops when a backlog outlives
    the slice drain."""
    config = ScaleRpcConfig(
        rpc_timeout_ns=rpc_timeout_ns,
        group_size=4,
        time_slice_ns=20 * US,
        block_size=256,
        blocks_per_client=8,
        n_server_threads=2,
        rebalance_every_slices=1000,
        long_rpc_threshold_ns=30 * US,
    )
    costs = {"slow": 100 * US, "sluggish": 25 * US, "lagging": 35 * US}
    w.server = ScaleRpcServer(
        w.node, _once_silent(), config=config,
        handler_cost_fn=lambda req: costs.get(req.rpc_type, 0),
    )
    w.connect(8)
    w.server.start()
    for index, client in enumerate(w.clients):
        calls = []
        for n in range(12):
            if index == 0 and n % 4 == 1:
                calls.append(("slow", (index, n)))
            elif index == 1 and n % 5 == 2:
                calls.append(("echo", ("silent", n)))
            elif index in (2, 3, 6):
                calls.append(("sluggish", (index, n)))
            elif index == 5 and n % 3 == 0:
                calls.append(("lagging", (index, n)))
            else:
                calls.append(("echo", (index, n)))
        w.closed_loop(client, calls, batch=4)
    w.sim.run(until=3_000 * US)


def _baseline(server_cls):
    def scenario(w):
        """Closed loops plus requests from a client id the server never
        bound, which its worker drops."""
        config = BaselineConfig(n_server_threads=3)
        costs = {"work": 3 * US}
        w.server = server_cls(
            w.node, lambda req: req.payload, config=config,
            handler_cost_fn=lambda req: costs.get(req.rpc_type, 0),
        )
        w.connect(6)
        w.server.start()
        for index, client in enumerate(w.clients):
            calls = [("work" if (index + n) % 3 == 0 else "echo", (index, n))
                     for n in range(15)]
            w.closed_loop(client, calls, batch=3)
        for when in (0, 2 * US, 9 * US, 40 * US):
            w.at(when, lambda: w.server.dispatch(
                RpcRequest(9_999, "echo", payload="stray"), None))
        w.sim.run(until=2_000 * US)
    return scenario


def cpu_charge_contention(w):
    """Six UD-polling clients on one two-core machine (plus one more on a
    second): poll charges queue behind each other and behind posts, the
    deferred window fills, and a straggler stalls one posting loop."""
    w.server = FasstServer(w.node, lambda req: req.payload,
                           config=BaselineConfig(n_server_threads=2))
    w.connect(7)
    w.server.start()
    for index, client in enumerate(w.clients):
        w.closed_loop(client, [("echo", (index, n)) for n in range(40)],
                      batch=20 if index % 2 else 8)

    def straggle():
        client = w.clients[3]
        client._straggle_until_ns = max(client._straggle_until_ns, w.sim.now + 300 * US)

    w.at(10 * US, straggle)
    w.at(31 * US, lambda: w.log.append(
        ("window", w.sim.now, [c._deferred_inflight for c in w.clients],
         w.machines[0].cpu.queue_length)))
    w.sim.run(until=4_000 * US)


SCENARIOS = {
    # name: (scenario, client machines, cores per client machine)
    "scalerpc_branches": (scalerpc_branches, 2, 24),
    "rawwrite_unbound": (_baseline(RawWriteServer), 2, 24),
    "fasst_unbound": (_baseline(FasstServer), 2, 24),
    "cpu_charge_contention": (cpu_charge_contention, 2, 2),
}


def _count_hops(monkeypatch):
    """Count the deliveries that can change anything: every continuation
    step and every event with a waiter.  (A callback-free event, such as
    a finished process's completion nobody holds, is not a hop.)"""
    hops = [0]
    event_deliver, step_deliver = Event._deliver, Continuation._deliver

    def counted_event(event):
        if event.callbacks:
            hops[0] += 1
        event_deliver(event)

    def counted_step(continuation):
        hops[0] += 1
        step_deliver(continuation)

    monkeypatch.setattr(Event, "_deliver", counted_event)
    monkeypatch.setattr(Continuation, "_deliver", counted_step)
    return hops


def _run(name, observed, monkeypatch):
    monkeypatch.setattr(message_module, "_request_ids", itertools.count(1))
    hops = _count_hops(monkeypatch)
    scenario, n_machines, cores = SCENARIOS[name]
    world = World(n_machines, cores)
    obs = Observer().install(world.fabric) if observed else None
    try:
        scenario(world)
    finally:
        if obs is not None:
            obs.uninstall()
    outcome = world.outcome()
    outcome["hops"] = hops[0]
    digest = None
    if obs is not None:
        artifact = json.dumps(obs.finish(), sort_keys=True)
        digest = hashlib.sha256(artifact.encode()).hexdigest()[:16]
    return outcome, digest


EXPECTED = {'cpu_charge_contention': {'clients': [(1, 40, 0, 0, 0, None), (2, 40, 0, 0, 0, None),
                                       (3, 40, 0, 0, 0, None), (4, 40, 0, 0, 0, None),
                                       (5, 40, 0, 0, 0, None), (6, 40, 0, 0, 0, None),
                                       (7, 40, 0, 0, 0, None)],
                           'cpu': [('m0', 640000, 0), ('m1', 486500, 0)],
                           'log': [(3845, 1, 1, 'ok'), (3855, 2, 2, 'ok'),
                                   (3990, 3, 3, 'ok'), (4535, 4, 4, 'ok'),
                                   (4585, 5, 5, 'ok'), (4680, 6, 6, 'ok'),
                                   (5345, 7, 7, 'ok'), (5345, 2, 9, 'ok'),
                                   (5655, 1, 8, 'ok'), (5995, 4, 11, 'ok'),
                                   (6045, 3, 10, 'ok'), (6385, 6, 13, 'ok'),
                                   (6725, 5, 12, 'ok'), (6845, 2, 15, 'ok'),
                                   (7405, 7, 14, 'ok'), (7455, 4, 17, 'ok'),
                                   (7550, 1, 16, 'ok'), (8135, 6, 19, 'ok'),
                                   (8185, 3, 18, 'ok'), (8280, 2, 21, 'ok'),
                                   (8865, 5, 20, 'ok'), (8915, 4, 23, 'ok'),
                                   (9010, 7, 22, 'ok'), (9595, 6, 25, 'ok'),
                                   (9645, 1, 24, 'ok'), (9740, 2, 27, 'ok'),
                                   (10325, 3, 26, 'ok'), (10375, 4, 29, 'ok'),
                                   (11005, 5, 28, 'ok'), (11055, 6, 31, 'ok'),
                                   (11150, 7, 30, 'ok'), (11445, 2, 33, 'ok'),
                                   (11785, 1, 32, 'ok'), (12125, 4, 35, 'ok'),
                                   (12465, 3, 34, 'ok'), (12515, 6, 37, 'ok'),
                                   (12610, 5, 36, 'ok'), (13195, 2, 39, 'ok'),
                                   (13245, 7, 38, 'ok'), (13440, 4, 41, 'ok'),
                                   (13925, 6, 43, 'ok'), (13975, 1, 40, 'ok'),
                                   (14315, 2, 45, 'ok'), (14365, 3, 42, 'ok'),
                                   (14705, 4, 47, 'ok'), (14755, 5, 44, 'ok'),
                                   (14850, 6, 49, 'ok'), (14900, 7, 46, 'ok'),
                                   (15195, 2, 51, 'ok'), (15245, 1, 48, 'ok'),
                                   (15585, 4, 53, 'ok'), (15635, 3, 50, 'ok'),
                                   (15975, 6, 55, 'ok'), (16025, 5, 52, 'ok'),
                                   (16120, 2, 57, 'ok'), (16270, 7, 54, 'ok'),
                                   (16465, 4, 59, 'ok'), (16515, 1, 56, 'ok'),
                                   (16855, 6, 61, 'ok'), (16905, 3, 58, 'ok'),
                                   (17100, 5, 60, 'ok'), (17295, 2, 63, 'ok'),
                                   (17345, 7, 62, 'ok'), (17440, 4, 64, 'ok'),
                                   (17735, 6, 65, 'ok'), (18075, 2, 66, 'ok'),
                                   (18270, 4, 67, 'ok'), (18465, 6, 68, 'ok'),
                                   (18610, 2, 69, 'ok'), (18755, 4, 70, 'ok'),
                                   (18900, 6, 71, 'ok'), (19045, 2, 72, 'ok'),
                                   (19190, 4, 73, 'ok'), (19335, 6, 74, 'ok'),
                                   (19480, 2, 75, 'ok'), (19625, 6, 77, 'ok'),
                                   (19770, 2, 78, 'ok'), (19915, 6, 79, 'ok'),
                                   (20060, 2, 80, 'ok'), (20252, 6, 81, 'ok'),
                                   (20606, 2, 82, 'ok'), (20960, 6, 83, 'ok'),
                                   (21314, 2, 84, 'ok'), (21668, 6, 85, 'ok'),
                                   (22022, 2, 86, 'ok'), (22376, 6, 87, 'ok'),
                                   ('window', 31000, [5, 16, 6, 0, 7, 20, 8], 28),
                                   (116290, 1, 88, 'ok'), (116744, 3, 89, 'ok'),
                                   (123744, 5, 90, 'ok'), (124744, 7, 91, 'ok'),
                                   (131845, 1, 94, 'ok'), (132435, 3, 95, 'ok'),
                                   (132935, 5, 96, 'ok'), (133098, 7, 97, 'ok'),
                                   (133452, 1, 98, 'ok'), (133935, 3, 99, 'ok'),
                                   (134345, 5, 100, 'ok'), (134514, 7, 101, 'ok'),
                                   (134935, 1, 102, 'ok'), (135435, 3, 103, 'ok'),
                                   (135580, 5, 104, 'ok'), (135935, 7, 105, 'ok'),
                                   (136435, 1, 106, 'ok'), (136638, 3, 107, 'ok'),
                                   (136992, 5, 108, 'ok'), (137435, 7, 109, 'ok'),
                                   (137935, 1, 110, 'ok'), (138080, 3, 111, 'ok'),
                                   (138435, 5, 112, 'ok'), (138762, 7, 113, 'ok'),
                                   (139116, 1, 114, 'ok'), (139470, 3, 115, 'ok'),
                                   (139824, 5, 116, 'ok'), (140178, 7, 117, 'ok'),
                                   (140532, 1, 118, 'ok'), (140886, 3, 119, 'ok'),
                                   (141240, 5, 120, 'ok'), (141594, 7, 121, 'ok'),
                                   (166935, 2, 92, 'ok'), (167098, 6, 93, 'ok'),
                                   (167452, 2, 126, 'ok'), (167935, 6, 127, 'ok'),
                                   (168345, 2, 128, 'ok'), (168514, 6, 129, 'ok'),
                                   (168935, 2, 130, 'ok'), (169435, 6, 131, 'ok'),
                                   (169580, 2, 132, 'ok'), (169935, 6, 133, 'ok'),
                                   (170435, 2, 134, 'ok'), (170638, 6, 135, 'ok'),
                                   (170992, 2, 136, 'ok'), (171435, 6, 137, 'ok'),
                                   (171935, 2, 138, 'ok'), (172080, 6, 139, 'ok'),
                                   (172435, 2, 140, 'ok'), (172973, 6, 141, 'ok'),
                                   (173118, 2, 142, 'ok'), (173470, 6, 143, 'ok'),
                                   (173935, 2, 144, 'ok'), (174290, 6, 145, 'ok'),
                                   (174532, 2, 146, 'ok'), (174935, 6, 147, 'ok'),
                                   (175453, 2, 148, 'ok'), (175598, 6, 149, 'ok'),
                                   (175948, 2, 150, 'ok'), (176302, 6, 151, 'ok'),
                                   (176656, 2, 152, 'ok'), (177010, 6, 153, 'ok'),
                                   (177364, 2, 154, 'ok'), (177718, 6, 155, 'ok'),
                                   (178072, 2, 156, 'ok'), (178426, 6, 157, 'ok'),
                                   (178780, 2, 158, 'ok'), (179134, 6, 159, 'ok'),
                                   (179488, 2, 160, 'ok'), (179842, 6, 161, 'ok'),
                                   (180196, 2, 162, 'ok'), (180550, 6, 163, 'ok'),
                                   (244290, 1, 122, 'ok'), (244744, 3, 123, 'ok'),
                                   (251744, 5, 124, 'ok'), (252744, 7, 125, 'ok'),
                                   (259845, 1, 164, 'ok'), (260435, 3, 165, 'ok'),
                                   (260935, 5, 166, 'ok'), (261098, 7, 167, 'ok'),
                                   (261452, 1, 168, 'ok'), (261935, 3, 169, 'ok'),
                                   (262345, 5, 170, 'ok'), (262514, 7, 171, 'ok'),
                                   (262935, 1, 172, 'ok'), (263435, 3, 173, 'ok'),
                                   (263580, 5, 174, 'ok'), (263935, 7, 175, 'ok'),
                                   (264435, 1, 176, 'ok'), (264638, 3, 177, 'ok'),
                                   (264992, 5, 178, 'ok'), (265435, 7, 179, 'ok'),
                                   (265935, 1, 180, 'ok'), (266080, 3, 181, 'ok'),
                                   (266435, 5, 182, 'ok'), (266762, 7, 183, 'ok'),
                                   (267116, 1, 184, 'ok'), (267470, 3, 185, 'ok'),
                                   (267824, 5, 186, 'ok'), (268178, 7, 187, 'ok'),
                                   (268532, 1, 188, 'ok'), (268886, 3, 189, 'ok'),
                                   (269240, 5, 190, 'ok'), (269594, 7, 191, 'ok'),
                                   (326795, 4, 76, 'ok'), (327290, 4, 196, 'ok'),
                                   (327790, 4, 197, 'ok'), (328290, 4, 198, 'ok'),
                                   (328790, 4, 199, 'ok'), (329244, 4, 200, 'ok'),
                                   (372290, 1, 192, 'ok'), (372744, 3, 193, 'ok'),
                                   (379744, 5, 194, 'ok'), (380744, 7, 195, 'ok'),
                                   (387845, 1, 202, 'ok'), (388435, 3, 203, 'ok'),
                                   (388935, 5, 204, 'ok'), (389098, 7, 205, 'ok'),
                                   (389452, 1, 206, 'ok'), (389935, 3, 207, 'ok'),
                                   (390345, 5, 208, 'ok'), (390514, 7, 209, 'ok'),
                                   (390935, 1, 210, 'ok'), (391435, 3, 211, 'ok'),
                                   (391580, 5, 212, 'ok'), (391935, 7, 213, 'ok'),
                                   (392435, 1, 214, 'ok'), (392638, 3, 215, 'ok'),
                                   (392992, 5, 216, 'ok'), (393435, 7, 217, 'ok'),
                                   (393935, 1, 218, 'ok'), (394080, 3, 219, 'ok'),
                                   (394435, 5, 220, 'ok'), (394762, 7, 221, 'ok'),
                                   (395116, 1, 222, 'ok'), (395470, 3, 223, 'ok'),
                                   (395824, 5, 224, 'ok'), (396178, 7, 225, 'ok'),
                                   (396532, 1, 226, 'ok'), (396886, 3, 227, 'ok'),
                                   (397240, 5, 228, 'ok'), (397594, 7, 229, 'ok'),
                                   (404795, 4, 201, 'ok'), (405295, 4, 234, 'ok'),
                                   (405795, 4, 235, 'ok'), (406295, 4, 236, 'ok'),
                                   (406795, 4, 237, 'ok'), (407295, 4, 238, 'ok'),
                                   (407795, 4, 239, 'ok'), (408295, 4, 240, 'ok'),
                                   (408795, 4, 241, 'ok'), (409295, 4, 242, 'ok'),
                                   (409795, 4, 243, 'ok'), (410295, 4, 244, 'ok'),
                                   (410795, 4, 245, 'ok'), (411295, 4, 246, 'ok'),
                                   (411795, 4, 247, 'ok'), (412290, 4, 248, 'ok'),
                                   (412790, 4, 249, 'ok'), (413290, 4, 250, 'ok'),
                                   (413790, 4, 251, 'ok'), (414244, 4, 252, 'ok'),
                                   (500290, 1, 230, 'ok'), (500744, 3, 231, 'ok'),
                                   (507744, 5, 232, 'ok'), (508744, 7, 233, 'ok'),
                                   (515845, 1, 253, 'ok'), (516435, 3, 254, 'ok'),
                                   (516935, 5, 255, 'ok'), (517098, 7, 256, 'ok'),
                                   (517452, 1, 257, 'ok'), (517935, 3, 258, 'ok'),
                                   (518345, 5, 259, 'ok'), (518514, 7, 260, 'ok'),
                                   (518935, 1, 261, 'ok'), (519435, 3, 262, 'ok'),
                                   (519580, 5, 263, 'ok'), (519935, 7, 264, 'ok'),
                                   (520435, 1, 265, 'ok'), (520638, 3, 266, 'ok'),
                                   (520992, 5, 267, 'ok'), (521435, 7, 268, 'ok'),
                                   (521935, 1, 269, 'ok'), (522080, 3, 270, 'ok'),
                                   (522435, 5, 271, 'ok'), (522762, 7, 272, 'ok'),
                                   (523116, 1, 273, 'ok'), (523470, 3, 274, 'ok'),
                                   (523824, 5, 275, 'ok'), (524178, 7, 276, 'ok'),
                                   (524532, 1, 277, 'ok'), (524886, 3, 278, 'ok'),
                                   (525240, 5, 279, 'ok'), (525594, 7, 280, 'ok')],
                           'now': 4000000,
                           'stats': [('completed', 280), ('dropped', 0)]},
 'fasst_unbound': {'clients': [(1, 15, 0, 0, 0, None), (2, 15, 0, 0, 0, None),
                               (3, 15, 0, 0, 0, None), (4, 15, 0, 0, 0, None),
                               (5, 15, 0, 0, 0, None), (6, 15, 0, 0, 0, None)],
                   'cpu': [('m0', 59104, 0), ('m1', 59508, 0)],
                   'log': [(4385, 2, 2, 'ok'), (4435, 3, 3, 'ok'), (5355, 5, 5, 'ok'),
                           (5405, 6, 6, 'ok'), (5505, 5, 12, 'ok'), (5550, 2, 9, 'ok'),
                           (6244, 1, 1, 'ok'), (7404, 3, 10, 'ok'), (8229, 2, 15, 'ok'),
                           (9598, 4, 4, 'ok'), (9952, 1, 8, 'ok'), (10306, 4, 11, 'ok'),
                           (10660, 1, 14, 'ok'), (10758, 6, 13, 'ok'),
                           (11019, 4, 17, 'ok'), (11112, 3, 16, 'ok'),
                           (11519, 6, 19, 'ok'), (11583, 5, 18, 'ok'),
                           (12019, 2, 21, 'ok'), (12364, 2, 22, 'ok'),
                           (14889, 3, 27, 'ok'), (15519, 6, 30, 'ok'),
                           (15859, 2, 24, 'ok'), (15999, 5, 31, 'ok'),
                           (16353, 5, 36, 'ok'), (16904, 1, 25, 'ok'),
                           (18262, 3, 32, 'ok'), (19707, 5, 39, 'ok'),
                           (20061, 2, 40, 'ok'), (20258, 4, 26, 'ok'),
                           (20415, 2, 41, 'ok'), (20612, 1, 28, 'ok'),
                           (20966, 4, 29, 'ok'), (21320, 1, 33, 'ok'),
                           (21616, 6, 35, 'ok'), (21761, 4, 34, 'ok'),
                           (21970, 3, 37, 'ok'), (22324, 6, 38, 'ok'),
                           (23769, 2, 42, 'ok'), (24160, 5, 43, 'ok'),
                           (24696, 5, 44, 'ok'), (25486, 3, 49, 'ok'),
                           (25971, 6, 52, 'ok'), (27614, 1, 46, 'ok'),
                           (27831, 5, 45, 'ok'), (28185, 2, 58, 'ok'),
                           (28539, 2, 59, 'ok'), (29149, 3, 53, 'ok'),
                           (30968, 4, 47, 'ok'), (31322, 1, 48, 'ok'),
                           (31676, 4, 50, 'ok'), (31893, 2, 60, 'ok'),
                           (32030, 1, 51, 'ok'), (32247, 5, 61, 'ok'),
                           (32384, 4, 54, 'ok'), (32529, 6, 55, 'ok'),
                           (32601, 5, 62, 'ok'), (32857, 3, 56, 'ok'),
                           (33229, 6, 57, 'ok'), (36227, 5, 63, 'ok'),
                           (36567, 3, 69, 'ok'), (36617, 2, 64, 'ok'),
                           (36957, 2, 67, 'ok'), (37102, 6, 73, 'ok'),
                           (38318, 1, 65, 'ok'), (40017, 2, 71, 'ok'),
                           (40067, 3, 74, 'ok'), (40371, 5, 79, 'ok'),
                           (40725, 5, 80, 'ok'), (41672, 4, 66, 'ok'),
                           (42026, 1, 68, 'ok'), (42380, 4, 70, 'ok'),
                           (42734, 1, 72, 'ok'), (43088, 4, 75, 'ok'),
                           (43389, 6, 76, 'ok'), (43743, 3, 77, 'ok'),
                           (44079, 5, 81, 'ok'), (44129, 6, 78, 'ok'),
                           (47168, 3, 88, 'ok'), (47564, 6, 90, 'ok'),
                           (48978, 1, 83, 'ok'), (50831, 3, 91, 'ok'),
                           (52332, 4, 84, 'ok'), (52686, 1, 85, 'ok'),
                           (53040, 4, 86, 'ok'), (53394, 1, 87, 'ok'),
                           (53748, 4, 89, 'ok'), (54185, 6, 92, 'ok'),
                           (54539, 3, 93, 'ok'), (54893, 6, 94, 'ok')],
                   'now': 2000000,
                   'stats': [('completed', 90), ('dropped', 4)]},
 'rawwrite_unbound': {'clients': [(1, 15, 0, 0, 0, None), (2, 15, 0, 0, 0, None),
                                  (3, 15, 0, 0, 0, None), (4, 15, 0, 0, 0, None),
                                  (5, 15, 0, 0, 0, None), (6, 15, 0, 0, 0, None)],
                      'cpu': [('m0', 12050, 0), ('m1', 11690, 0)],
                      'log': [(4665, 2, 2, 'ok'), (5375, 3, 3, 'ok'),
                              (8115, 5, 5, 'ok'), (8825, 6, 6, 'ok'),
                              (8970, 2, 9, 'ok'), (9585, 1, 1, 'ok'),
                              (9730, 5, 12, 'ok'), (9875, 3, 10, 'ok'),
                              (10618, 4, 4, 'ok'), (10668, 1, 8, 'ok'),
                              (10763, 2, 15, 'ok'), (10908, 4, 11, 'ok'),
                              (11020, 1, 14, 'ok'), (11374, 4, 17, 'ok'),
                              (12958, 6, 13, 'ok'), (13312, 3, 16, 'ok'),
                              (13945, 6, 19, 'ok'), (14007, 5, 18, 'ok'),
                              (14480, 2, 22, 'ok'), (14675, 2, 23, 'ok'),
                              (16256, 3, 31, 'ok'), (17176, 1, 24, 'ok'),
                              (17321, 1, 26, 'ok'), (17745, 2, 25, 'ok'),
                              (18099, 5, 35, 'ok'), (18453, 5, 37, 'ok'),
                              (19610, 3, 32, 'ok'), (19964, 3, 33, 'ok'),
                              (20435, 6, 34, 'ok'), (20672, 4, 27, 'ok'),
                              (21026, 1, 28, 'ok'), (21380, 4, 29, 'ok'),
                              (21734, 4, 30, 'ok'), (21807, 5, 39, 'ok'),
                              (22161, 2, 40, 'ok'), (22654, 2, 41, 'ok'),
                              (23716, 6, 36, 'ok'), (24026, 6, 38, 'ok'),
                              (24732, 3, 43, 'ok'), (25869, 2, 42, 'ok'),
                              (26223, 5, 50, 'ok'), (26716, 5, 52, 'ok'),
                              (26970, 1, 46, 'ok'), (27324, 1, 47, 'ok'),
                              (27678, 1, 48, 'ok'), (27823, 3, 44, 'ok'),
                              (28088, 3, 45, 'ok'), (28559, 6, 55, 'ok'),
                              (29931, 5, 54, 'ok'), (30423, 2, 58, 'ok'),
                              (30908, 2, 59, 'ok'), (31103, 4, 49, 'ok'),
                              (31386, 4, 51, 'ok'), (31740, 4, 53, 'ok'),
                              (31885, 6, 56, 'ok'), (32150, 6, 57, 'ok'),
                              (32621, 3, 64, 'ok'), (33993, 2, 60, 'ok'),
                              (34485, 5, 67, 'ok'), (34970, 5, 68, 'ok'),
                              (35165, 1, 61, 'ok'), (35448, 1, 62, 'ok'),
                              (35802, 1, 63, 'ok'), (35947, 3, 65, 'ok'),
                              (36212, 3, 66, 'ok'), (36683, 6, 73, 'ok'),
                              (38055, 5, 69, 'ok'), (38547, 2, 76, 'ok'),
                              (39032, 2, 77, 'ok'), (39227, 4, 70, 'ok'),
                              (39510, 4, 71, 'ok'), (39864, 4, 72, 'ok'),
                              (40009, 6, 74, 'ok'), (40274, 6, 75, 'ok'),
                              (40745, 3, 82, 'ok'), (42117, 2, 78, 'ok'),
                              (42609, 5, 85, 'ok'), (43094, 5, 86, 'ok'),
                              (43289, 1, 79, 'ok'), (43572, 1, 80, 'ok'),
                              (43926, 1, 81, 'ok'), (44071, 3, 83, 'ok'),
                              (44336, 3, 84, 'ok'), (44690, 6, 92, 'ok'),
                              (46179, 5, 87, 'ok'), (47280, 4, 88, 'ok'),
                              (47634, 4, 90, 'ok'), (47988, 4, 91, 'ok'),
                              (48133, 6, 93, 'ok'), (48398, 6, 94, 'ok')],
                      'now': 2000000,
                      'stats': [('completed', 90), ('dropped', 4)]},
 'scalerpc_branches': {'clients': [(1, 12, 0, 0, 0, 1), (2, 12, 0, 0, 0, 0),
                                   (3, 12, 0, 0, 0, 0), (4, 12, 0, 0, 0, 0),
                                   (5, 12, 0, 0, 0, 0), (6, 12, 0, 0, 0, 1),
                                   (7, 12, 0, 0, 0, 0), (8, 12, 0, 0, 0, 0)],
                       'cpu': [('m0', 17595, 0), ('m1', 15899, 0)],
                       'log': [(8643, 1, 1, 'ok'), (8788, 1, 9, 'failed'),
                               (9753, 1, 17, 'ok'), (9803, 2, 2, 'ok'),
                               (9898, 1, 25, 'ok'), (9948, 2, 10, 'ok'),
                               (10458, 2, 26, 'ok'), (33502, 3, 3, 'ok'),
                               (34323, 4, 4, 'ok'), (58856, 3, 11, 'ok'),
                               (59677, 4, 12, 'ok'), (84210, 3, 19, 'ok'),
                               (84564, 5, 5, 'ok'), (84918, 5, 13, 'ok'),
                               (85031, 4, 20, 'ok'), (85272, 5, 21, 'ok'),
                               (85385, 6, 6, 'failed'), (85626, 5, 29, 'ok'),
                               (85739, 6, 14, 'ok'), (86093, 6, 22, 'ok'),
                               (86711, 8, 8, 'ok'), (87065, 8, 16, 'ok'),
                               (87419, 8, 24, 'ok'), (87773, 8, 32, 'ok'),
                               (110980, 7, 7, 'ok'), (121707, 6, 30, 'ok'),
                               (125459, 4, 20, 'ok'), (136334, 7, 15, 'ok'),
                               (136688, 3, 19, 'ok'), (150813, 4, 28, 'ok'),
                               (151167, 4, 20, 'ok'), (151521, 4, 28, 'ok'),
                               (151875, 2, 18, 'ok'), (162042, 3, 27, 'ok'),
                               (162396, 3, 19, 'ok'), (162750, 3, 27, 'ok'),
                               (167259, 5, 33, 'ok'), (167523, 8, 37, 'ok'),
                               (167613, 5, 34, 'ok'), (167908, 8, 38, 'ok'),
                               (167967, 5, 35, 'ok'), (168231, 8, 39, 'ok'),
                               (168321, 5, 36, 'ok'), (168585, 8, 40, 'ok'),
                               (168675, 7, 15, 'ok'), (171319, 8, 55, 'ok'),
                               (171673, 8, 57, 'ok'), (172027, 8, 59, 'ok'),
                               (172381, 8, 60, 'ok'), (194029, 7, 23, 'ok'),
                               (219383, 7, 31, 'ok'), (219737, 5, 53, 'ok'),
                               (220091, 5, 54, 'ok'), (220445, 5, 56, 'ok'),
                               (220799, 5, 58, 'ok'), (225282, 2, 45, 'ok'),
                               (225613, 2, 46, 'ok'), (225967, 2, 47, 'ok'),
                               (250259, 3, 49, 'ok'), (251585, 4, 41, 'ok'),
                               (263364, 1, 9, 'ok'), (275613, 3, 50, 'ok'),
                               (276939, 4, 42, 'ok'), (298714, 6, 6, 'ok'),
                               (298859, 6, 6, 'ok'), (300967, 3, 51, 'ok'),
                               (302293, 4, 43, 'ok'), (302647, 6, 6, 'ok'),
                               (303001, 6, 69, 'ok'), (303355, 6, 70, 'ok'),
                               (303973, 6, 72, 'ok'), (326321, 7, 61, 'ok'),
                               (338969, 6, 71, 'ok'), (349259, 4, 43, 'ok'),
                               (351675, 7, 62, 'ok'), (352029, 1, 65, 'ok'),
                               (352647, 1, 67, 'ok'), (353001, 1, 68, 'ok'),
                               (353355, 3, 51, 'ok'), (374613, 4, 44, 'ok'),
                               (374967, 2, 48, 'ok'), (378709, 3, 52, 'ok'),
                               (383259, 7, 62, 'ok'), (383309, 6, 73, 'ok'),
                               (383877, 6, 75, 'ok'), (384231, 6, 76, 'ok'),
                               (408613, 7, 63, 'ok'), (433967, 7, 64, 'ok'),
                               (438529, 2, 79, 'ok'), (438813, 2, 81, 'ok'),
                               (439167, 2, 83, 'ok'), (439521, 2, 84, 'ok'),
                               (452643, 1, 66, 'ok'), (463459, 3, 85, 'ok'),
                               (464875, 4, 77, 'ok'), (487873, 6, 74, 'ok'),
                               (488813, 3, 86, 'ok'), (490229, 4, 78, 'ok'),
                               (514167, 3, 87, 'ok'), (515583, 4, 80, 'ok'),
                               (515817, 6, 74, 'ok'), (539521, 7, 89, 'ok'),
                               (562459, 4, 80, 'ok'), (564875, 7, 90, 'ok'),
                               (565229, 1, 93, 'ok'), (565847, 1, 95, 'ok'),
                               (566201, 1, 96, 'ok'), (566555, 3, 87, 'ok'),
                               (587693, 4, 82, 'ok'), (591789, 3, 88, 'ok'),
                               (596259, 7, 90, 'ok'), (621613, 7, 91, 'ok'),
                               (646967, 7, 92, 'ok'), (665723, 1, 94, 'ok'),
                               (665813, 1, 94, 'ok'), (673459, 7, 92, 'ok')],
                       'now': 3000000,
                       'stats': [('adoptions', 0), ('completed', 96),
                                 ('context_switches', 118), ('duplicate_requests', 18),
                                 ('explicit_notices', 443), ('failed_long_rpcs', 2),
                                 ('lease_evictions', 0), ('legacy_completed', 7),
                                 ('readmissions', 0), ('reconnects', 0),
                                 ('stale_drops', 19), ('suppressed_responses', 2),
                                 ('warmup_fetches', 44), ('warmup_requests', 124)]}}

EXPECTED_OBS_DIGEST = {'cpu_charge_contention': 'e80bb4a77bc3ae90',
 'fasst_unbound': '534b3200ec6515b4',
 'rawwrite_unbound': '84332717d1b2a716',
 'scalerpc_branches': 'ccc5beadf69d8a9c'}


#: Hops per scenario, observed or not: an added or dropped hop that
#: happens to leave every outcome above alone still fails here.
EXPECTED_HOPS = {'cpu_charge_contention': 6898,
                 'fasst_unbound': 2280,
                 'rawwrite_unbound': 2271,
                 'scalerpc_branches': 9091}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_worker_schedule_is_pinned(name, monkeypatch):
    outcome, _ = _run(name, observed=False, monkeypatch=monkeypatch)
    assert outcome.pop("hops") == EXPECTED_HOPS[name]
    assert outcome == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observed_worker_schedule_is_pinned(name, monkeypatch):
    outcome, digest = _run(name, observed=True, monkeypatch=monkeypatch)
    assert outcome.pop("hops") == EXPECTED_HOPS[name]
    assert outcome == EXPECTED[name]
    assert digest == EXPECTED_OBS_DIGEST[name]
