"""Tests for flowlint's interprocedural layer (the "deeplint" passes).

Three modules under test: the module-resolution call graph
(``flowlint.callgraph``), the bottom-up summaries that ride on it
(``flowlint.summaries``), and the resource-typestate engine
(``flowlint.typestate``).  The typestate fixtures are written as tiny
on-disk trees shaped like the real repository (``<tmp>/src/repro/<scope>/``)
because the protocols are path-scoped: each new rule gets a seeded
positive *and* the nearby safe shape it must not flag (finally-release,
release-via-helper, container ownership transfer, constructor wrap).
"""

import ast
import json
import pathlib
import textwrap

from repro.analysis.flowlint import lint_paths, main
from repro.analysis.flowlint.callgraph import build_callgraph, module_name
from repro.analysis.flowlint.ratchet import (
    check_baseline,
    count_suppressions,
    write_baseline,
)
from repro.analysis.flowlint.summaries import (
    compute_summaries,
    external_may_raise,
    report_transitive,
)
from repro.analysis.flowlint.typestate import check_typestate


# -- helpers ----------------------------------------------------------------

def graph_of(*files):
    """Build a call graph from (path, source) pairs."""
    return build_callgraph([
        (path, ast.parse(textwrap.dedent(source), filename=path))
        for path, source in files
    ])


def typestate_findings(tmp_path, source, scope="rdma", name="x.py"):
    """Lint one fixture file placed in a repo-shaped tree and return
    only the typestate rules (leaks and protocol violations)."""
    target = tmp_path / "src" / "repro" / scope / name
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    found = lint_paths([str(tmp_path / "src")])
    return [f for f in found
            if f.rule in ("resource-leak", "resource-typestate")]


# -- call graph -------------------------------------------------------------

def test_module_name_strips_src_prefix():
    assert module_name("src/repro/rdma/qp.py") == "repro.rdma.qp"
    assert module_name("tests/analysis/test_x.py") == "tests.analysis.test_x"


def test_callgraph_resolves_self_calls_and_constructors():
    graph = graph_of(("src/repro/core/a.py", """
        class Pool:
            def grab(self):
                return self._refill()

            def _refill(self):
                return []

        def make():
            return Pool()
    """))
    grab = graph.functions["repro.core.a.Pool.grab"]
    targets = {s.target for s in grab.sites}
    assert "repro.core.a.Pool._refill" in targets
    make = graph.functions["repro.core.a.make"]
    assert any(s.constructs == "repro.core.a.Pool" for s in make.sites)


def test_callgraph_resolves_across_modules_via_imports():
    graph = graph_of(
        ("src/repro/core/u.py", """
            def helper():
                return 1
        """),
        ("src/repro/core/v.py", """
            from .u import helper

            def caller():
                return helper()
        """),
    )
    caller = graph.functions["repro.core.v.caller"]
    assert caller.sites[0].target == "repro.core.u.helper"


def test_callgraph_unique_method_name_fallback_requires_uniqueness():
    graph = graph_of(("src/repro/core/w.py", """
        class A:
            def frobnicate(self):
                return 0

            def close(self):
                return 0

        class B:
            def close(self):
                return 0

        def f(x):
            x.frobnicate()
            x.close()
    """))
    f = graph.functions["repro.core.w.f"]
    by_name = {}
    for site in f.sites:
        call = site.call
        name = call.func.attr if isinstance(call.func, ast.Attribute) else None
        by_name[name] = site
    # `frobnicate` exists on exactly one class: resolvable.  `close`
    # is ambiguous: must stay external rather than guess.
    assert by_name["frobnicate"].target == "repro.core.w.A.frobnicate"
    assert by_name["close"].target is None


def test_sccs_emit_callees_before_callers():
    graph = graph_of(("src/repro/core/r.py", """
        def leaf():
            return 1

        def ping(n):
            return pong(n - 1) if n else leaf()

        def pong(n):
            return ping(n - 1) if n else 0

        def top(n):
            return ping(n)
    """))
    sccs = graph.sccs()
    flat = [q for scc in sccs for q in scc]
    assert flat.index("repro.core.r.leaf") < flat.index("repro.core.r.ping")
    assert flat.index("repro.core.r.ping") < flat.index("repro.core.r.top")
    recursive = [set(scc) for scc in sccs if len(scc) > 1]
    assert {"repro.core.r.ping", "repro.core.r.pong"} in recursive


def test_callgraph_json_artifact_shape():
    graph = graph_of(("src/repro/core/j.py", """
        def a():
            return b()

        def b():
            return 0
    """))
    payload = graph.to_json()
    assert ["repro.core.j.a", "repro.core.j.b"] == sorted(
        f["qname"] for f in payload["functions"]
    )
    assert ["repro.core.j.a", "repro.core.j.b"] in payload["edges"]
    assert payload["recursive_sccs"] == []


# -- summaries --------------------------------------------------------------

def test_transitive_nondeterminism_reported_with_witness_chain():
    graph = graph_of(("src/repro/core/t.py", """
        import time

        def leaf_clock():
            return time.time()

        def middle():
            return leaf_clock()

        def top():
            return middle()
    """))
    summaries = compute_summaries(graph, {})
    assert summaries["repro.core.t.top"].nondet_chain
    found = report_transitive(graph, summaries)
    nondet = [f for f in found if f.rule == "nondet-transitive"]
    assert nondet, "caller of a wall-clock leaf must be reported"
    assert "time.time" in nondet[0].message


def test_transitive_blocking_upgrades_async_callers():
    graph = graph_of(("src/repro/net/b.py", """
        import time

        def sync_helper():
            time.sleep(0.1)

        async def handler():
            sync_helper()
    """))
    summaries = compute_summaries(graph, {})
    found = report_transitive(graph, summaries)
    assert any(f.rule == "async-blocking" for f in found)


def test_may_raise_respects_catch_all_and_no_raise_builtins():
    graph = graph_of(("src/repro/core/m.py", """
        def guarded(x):
            try:
                risky(x)
            except Exception:
                return None

        def total(xs):
            return len(xs)

        def raising(x):
            return risky(x)
    """))
    summaries = compute_summaries(graph, {})
    assert not summaries["repro.core.m.guarded"].may_raise
    assert not summaries["repro.core.m.total"].may_raise
    assert summaries["repro.core.m.raising"].may_raise


def test_external_may_raise_normalizes_receiver_spellings():
    assert not external_may_raise("self._ids.discard")
    assert not external_may_raise("len")
    assert external_may_raise("machine.create_qp")
    # pop is total only with an explicit default
    popcall = ast.parse("d.pop(k, None)", mode="eval").body
    barepop = ast.parse("d.pop(k)", mode="eval").body
    assert not external_may_raise("d.pop", popcall)
    assert external_may_raise("d.pop", barepop)


# -- typestate: seeded positives -------------------------------------------

def test_leak_when_exception_unwinds_past_held_qp(tmp_path):
    found = typestate_findings(tmp_path, """
        def build(node, peer):
            qp = node.create_qp("rc")
            peer.handshake()
            qp.close()
    """)
    assert [f.rule for f in found] == ["resource-leak"]
    assert "[qp]" in found[0].message


def test_leak_on_early_return_path(tmp_path):
    found = typestate_findings(tmp_path, """
        def build(node, flag):
            qp = node.create_qp("rc")
            if flag:
                return None
            qp.close()
            return qp
    """)
    assert any(f.rule == "resource-leak" and "returns" in f.message
               for f in found)


def test_double_release_through_same_chain(tmp_path):
    found = typestate_findings(tmp_path, """
        def teardown(node):
            qp = node.create_qp("rc")
            qp.close()
            qp.close()
    """)
    assert any(f.rule == "resource-typestate"
               and "double-release" in f.message for f in found)


def test_use_after_close(tmp_path):
    found = typestate_findings(tmp_path, """
        def poke(node):
            qp = node.create_qp("rc")
            qp.close()
            qp.post_send(1)
    """)
    assert any(f.rule == "resource-typestate"
               and "use-after-close" in f.message for f in found)


def test_netconn_arm_style_leak(tmp_path):
    found = typestate_findings(tmp_path, """
        async def run(make, payload):
            client = make()
            await client.connect()
            await client.send(payload)
            await client.close()
    """, scope="net")
    assert [f.rule for f in found] == ["resource-leak"]
    assert "[netconn]" in found[0].message


# -- typestate: false-positive guards --------------------------------------

def test_no_finding_when_finally_releases(tmp_path):
    found = typestate_findings(tmp_path, """
        def build(node, peer):
            qp = node.create_qp("rc")
            try:
                peer.handshake()
            finally:
                qp.close()
    """)
    assert found == []


def test_no_finding_when_except_releases_and_reraises(tmp_path):
    found = typestate_findings(tmp_path, """
        def build(node, peer):
            qp = node.create_qp("rc")
            try:
                peer.handshake()
            except Exception:
                qp.close()
                raise
            return qp
    """)
    assert found == []


def test_no_finding_when_ownership_escapes_to_helper(tmp_path):
    found = typestate_findings(tmp_path, """
        def build(node, registry, peer):
            qp = node.create_qp("rc")
            registry.adopt(qp)
            peer.handshake()
    """)
    assert found == []


def test_container_transfer_with_cleanup_on_raise(tmp_path):
    # The fixed ExtentAllocator.allocate shape: extents accumulate in a
    # local list, a partial failure frees them, success returns them.
    found = typestate_findings(tmp_path, """
        def allocate(servers, n):
            extents = []
            try:
                for server in servers:
                    addr = server.allocate_extent()
                    extents.append(addr)
            except MemoryError:
                free(extents)
                raise
            return extents
    """, scope="dfs")
    assert found == []


def test_container_transfer_without_cleanup_still_leaks(tmp_path):
    # ...and without the except handler the mid-loop raise is a leak.
    found = typestate_findings(tmp_path, """
        def allocate(servers, n):
            extents = []
            for server in servers:
                addr = server.allocate_extent()
                extents.append(addr)
            return extents
    """, scope="dfs")
    assert any(f.rule == "resource-leak" and "[extent]" in f.message
               for f in found)


def test_constructor_wrap_keeps_tracking_without_false_escape(tmp_path):
    found = typestate_findings(tmp_path, """
        class Wrapper:
            def __init__(self, qp):
                self.qp = qp

        def build(node):
            qp = node.create_qp("rc")
            return Wrapper(qp)
    """)
    assert found == []


def test_methods_never_track_their_own_object(tmp_path):
    # `await self.connect()` inside reconnect() is lifecycle delegation,
    # not a fresh netconn resource (the StreamClientTransport shape).
    found = typestate_findings(tmp_path, """
        class Conn:
            async def connect(self):
                pass

            async def close(self):
                pass

            async def reconnect(self):
                await self.close()
                await self.connect()
    """, scope="net")
    assert found == []


def test_suppression_pragma_silences_typestate(tmp_path):
    found = typestate_findings(tmp_path, """
        def build(node, peer):
            qp = node.create_qp("rc")  # flowlint: ignore[resource-leak]
            peer.handshake()
            qp.close()
    """)
    assert found == []


# -- ratchet ----------------------------------------------------------------

def test_ratchet_counts_and_baseline_comparison(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text(textwrap.dedent("""
        import time
        t = time.time()  # flowlint: ignore[wall-clock] — justified
        u = time.time()  # flowlint: ignore[wall-clock, yield-race]
    """), encoding="utf-8")
    counts = count_suppressions([str(tree)])
    assert counts == {"wall-clock": 2, "yield-race": 1}

    baseline = tmp_path / "baseline.json"
    write_baseline(counts, str(baseline))
    assert check_baseline(counts, str(baseline)) == []
    grown = dict(counts, **{"wall-clock": 3})
    problems = check_baseline(grown, str(baseline))
    assert len(problems) == 1 and "wall-clock" in problems[0]
    # a missing baseline is itself a failure (never silently green)
    assert check_baseline(counts, str(tmp_path / "nope.json"))


def test_committed_baseline_matches_the_tree_exactly():
    # CI fails only on growth; this pins shrinkage too, so a removed
    # pragma is locked in by re-baselining in the same change.
    root = pathlib.Path(__file__).resolve().parents[2]
    counts = count_suppressions([
        str(root / tree) for tree in ("src", "tests", "benchmarks", "examples")
    ])
    baseline = json.loads(
        (root / "tests" / "analysis" / "lint_baseline.json").read_text()
    )
    assert counts == baseline["suppressions"]


def test_cli_writes_callgraph_artifact_and_timings(tmp_path, capsys):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "ok.py").write_text(
        "def a():\n    return b()\n\n\ndef b():\n    return 0\n",
        encoding="utf-8",
    )
    out = tmp_path / "cg.json"
    report = tmp_path / "report.json"
    code = main([
        str(tmp_path / "src"),
        "--callgraph-out", str(out),
        "--json", str(report),
    ])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert any(f["qname"].endswith("ok.a") for f in payload["functions"])
    report_payload = json.loads(report.read_text(encoding="utf-8"))
    assert "callgraph" in report_payload["timings_s"]
    assert "resource-typestate" in report_payload["timings_s"]
    capsys.readouterr()


def test_cli_update_baseline_roundtrip(tmp_path, capsys):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text(
        "import time\nt = time.time()  # flowlint: ignore[wall-clock]\n",
        encoding="utf-8",
    )
    baseline = tmp_path / "baseline.json"
    assert main([str(tree), "--update-baseline", str(baseline)]) == 0
    assert main([str(tree), "--baseline", str(baseline)]) == 0
    # one more pragma -> ratchet failure
    (tree / "b.py").write_text(
        "import time\nu = time.time()  # flowlint: ignore[wall-clock]\n",
        encoding="utf-8",
    )
    assert main([str(tree), "--baseline", str(baseline)]) == 1
    capsys.readouterr()


# -- typestate: replica protocols (view-subscription, replica-log) ----------

def test_view_subscription_leak_when_never_unsubscribed(tmp_path):
    found = typestate_findings(tmp_path, """
        def watch(service, handler):
            sub = service.subscribe(handler)
            handler.prime()
    """, scope="replica")
    assert [f.rule for f in found] == ["resource-leak"]
    assert "[view-subscription]" in found[0].message


def test_view_subscription_finally_release_is_safe(tmp_path):
    found = typestate_findings(tmp_path, """
        def watch(service, handler):
            sub = service.subscribe(handler)
            try:
                handler.prime()
            finally:
                sub.unsubscribe()
    """, scope="replica")
    assert found == []


def test_replica_log_leak_when_ship_raise_skips_resolution(tmp_path):
    # The bug shape the protocol exists for: an exception out of the
    # ship leaves the append neither acked nor aborted.
    found = typestate_findings(tmp_path, """
        def commit(log, entry, peers):
            pending = log.append(entry)
            peers.ship(entry)
            pending.ack()
    """, scope="replica")
    assert [f.rule for f in found] == ["resource-leak"]
    assert "[replica-log]" in found[0].message


def test_replica_log_abort_on_raise_is_safe(tmp_path):
    # The _primary_op shape: abort on the exception path, ack otherwise.
    found = typestate_findings(tmp_path, """
        def commit(log, entry, peers):
            pending = log.append(entry)
            try:
                peers.ship(entry)
            except Exception:
                pending.abort()
                raise
            pending.ack()
    """, scope="replica")
    assert found == []


def test_replica_log_abort_counts_as_release(tmp_path):
    found = typestate_findings(tmp_path, """
        def withdraw(log, entry):
            pending = log.append(entry)
            pending.abort()
    """, scope="replica")
    assert found == []


def test_replica_log_protocol_ignores_plain_list_appends(tmp_path):
    # `append` only acquires when the call result is bound: ordinary
    # list bookkeeping must never participate in the protocol.
    found = typestate_findings(tmp_path, """
        def bookkeeping(items, entry):
            items.append(entry)
            items.append(entry)
    """, scope="replica")
    assert found == []
