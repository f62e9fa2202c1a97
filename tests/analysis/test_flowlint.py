"""Pass-by-pass tests for the CFG/dataflow lint (repro.analysis.flowlint).

Each pass gets a fixture suite: a seeded bug it must catch and the
nearby race-free / conforming shapes it must *not* flag (the
false-positive guards mirror real code in ``src/``, e.g. the
plain-overwrite-after-await shape of ``StreamServerTransport.start``).
"""

import json
import textwrap

from repro.analysis.flowlint import ALL_RULES, lint_paths, lint_source, main
from repro.analysis.flowlint import cfg as C
from repro.analysis.flowlint.determinism import DETERMINISM_RULES

SRC = "src/repro/example.py"


def findings(source, path=SRC):
    """Flow-rule findings only (the determinism rules have their own
    suite, test_detlint.py)."""
    return [f for f in lint_source(textwrap.dedent(source), path)
            if f.rule not in DETERMINISM_RULES]


def rules_of(source, path=SRC):
    return [f.rule for f in findings(source, path)]


# -- the engine -------------------------------------------------------------

def _first_cfg(source):
    tree = compile(textwrap.dedent(source), "<fixture>", "exec",
                   flags=__import__("ast").PyCF_ONLY_AST)
    func = tree.body[-1]
    if hasattr(func, "body") and func.__class__.__name__ == "ClassDef":
        func = func.body[0]

    def resolver(node):
        import ast

        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                return f"self.{node.attr}"
        return None

    return C.build_cfg(func, C.collect_aliases(tree), resolver)


def test_cfg_orders_read_before_await_before_write():
    graph = _first_cfg(
        """
        class K:
            async def bump(self):
                n = self.count
                await self.flush()
                self.count = n + 1
        """
    )
    kinds = [op.kind for block in graph.blocks for op in block.ops]
    assert kinds.index(C.AWAIT) > kinds.index(C.READ)
    assert kinds.index(C.WRITE, kinds.index(C.AWAIT)) > kinds.index(C.AWAIT)


def test_cfg_branches_produce_multiple_blocks():
    graph = _first_cfg(
        """
        class K:
            async def pick(self, flag):
                if flag:
                    self.a = 1
                else:
                    self.b = 2
        """
    )
    assert len(graph.blocks) >= 4  # entry, then, else, join
    assert len(graph.blocks[0].succs) == 2


def test_dataflow_fixpoint_terminates_on_loops():
    graph = _first_cfg(
        """
        class K:
            async def pump(self):
                while self.running:
                    await self.flush()
        """
    )
    states = C.dataflow(graph, lambda block, state: state, lambda xs: 0, 0)
    assert graph.entry in states


# -- yield-race -------------------------------------------------------------

def test_rmw_spanning_await_flagged():
    assert rules_of(
        """
        class Counter:
            async def bump(self):
                n = self.count
                await self.flush()
                self.count = n + 1
        """
    ) == ["yield-race"]


def test_check_then_act_mutation_spanning_await_flagged():
    assert rules_of(
        """
        class Registry:
            async def drop(self, key):
                if key in self._pending:
                    await self.notify()
                    self._pending.pop(key)
        """
    ) == ["yield-race"]


def test_rmw_through_loop_back_edge_flagged():
    assert rules_of(
        """
        class Pump:
            async def run(self):
                while True:
                    n = self.count
                    await self.flush()
                    self.count = n + 1
        """
    ) == ["yield-race"]


def test_race_on_exception_path_flagged():
    # The stale read only reaches the write via the raise -> handler edge.
    assert rules_of(
        """
        class Risky:
            async def go(self):
                try:
                    n = self.count
                    await self.flush()
                except ValueError:
                    self.count = 0 if n else 1
        """
    ) == ["yield-race"]


def test_mutate_before_await_is_clean():
    assert rules_of(
        """
        class Registry:
            async def drop(self, key):
                if key in self._pending:
                    self._pending.pop(key)
                    await self.notify()
        """
    ) == []


def test_reread_after_await_is_clean():
    assert rules_of(
        """
        class Counter:
            async def bump(self):
                await self.flush()
                n = self.count
                self.count = n + 1
        """
    ) == []


def test_plain_overwrite_after_await_is_clean():
    # StreamServerTransport.start's shape: the value written does not
    # derive from a pre-await read of the same name.
    assert rules_of(
        """
        class Server:
            async def start(self):
                self.server = await begin(self.endpoint)
                host, port = self.server.names()
                self.endpoint = make(host, port)
        """
    ) == []


def test_unrelated_write_after_await_is_clean():
    assert rules_of(
        """
        class Counter:
            async def mark(self):
                n = self.count
                await self.flush()
                self.ready = True
        """
    ) == []


def test_generator_yield_race_gated_behind_flag():
    # Sim-generator yields are the model checker's territory, not an
    # interleaving point for this pass.
    source = """
        QUEUE = []

        def worker():
            n = len(QUEUE)
            yield
            QUEUE.append(n)
        """
    assert rules_of(source) == []


# -- async-blocking ---------------------------------------------------------

def test_time_sleep_in_async_def_flagged():
    assert rules_of(
        """
        import time

        async def pause():
            time.sleep(1)
        """
    ) == ["async-blocking"]


def test_subprocess_in_async_def_flagged():
    assert rules_of(
        """
        import subprocess

        async def shell():
            subprocess.run(["true"])
        """
    ) == ["async-blocking"]


def test_asyncio_sleep_is_clean():
    assert rules_of(
        """
        import asyncio

        async def pause():
            await asyncio.sleep(1)
        """
    ) == []


def test_blocking_call_in_sync_def_is_clean():
    assert rules_of("import time\n\ndef pause():\n    time.sleep(1)\n") == []


def test_nested_sync_helper_is_not_the_async_scope():
    assert rules_of(
        """
        import time

        async def outer():
            def helper():
                time.sleep(1)
            return helper
        """
    ) == []


# -- task-orphan ------------------------------------------------------------

def test_discarded_task_result_flagged():
    assert rules_of(
        """
        import asyncio

        async def go():
            asyncio.create_task(work())
        """
    ) == ["task-orphan"]


def test_unused_local_task_flagged():
    assert rules_of(
        """
        import asyncio

        async def go():
            t = asyncio.create_task(work())
            log("started")
        """
    ) == ["task-orphan"]


def test_attribute_task_without_done_callback_flagged():
    assert rules_of(
        """
        import asyncio

        class Client:
            async def connect(self):
                self._recv_task = asyncio.ensure_future(self.loop())
        """
    ) == ["task-orphan"]


def test_awaited_task_is_clean():
    assert rules_of(
        """
        import asyncio

        async def go():
            t = asyncio.create_task(work())
            await t
        """
    ) == []


def test_gathered_task_is_clean():
    assert rules_of(
        """
        import asyncio

        async def go():
            t = asyncio.create_task(work())
            await asyncio.gather(t)
        """
    ) == []


def test_cancelled_task_is_clean():
    assert rules_of(
        """
        import asyncio

        async def go():
            t = asyncio.create_task(work())
            t.cancel()
        """
    ) == []


def test_attribute_task_with_done_callback_is_clean():
    assert rules_of(
        """
        import asyncio

        class Client:
            async def connect(self):
                self._recv_task = asyncio.ensure_future(self.loop())
                self._recv_task.add_done_callback(self._on_done)
        """
    ) == []


# -- await-no-timeout -------------------------------------------------------

def test_bare_readexactly_flagged():
    assert rules_of(
        """
        async def read(reader):
            return await reader.readexactly(4)
        """
    ) == ["await-no-timeout"]


def test_bare_recv_and_open_connection_flagged():
    assert rules_of(
        """
        import asyncio

        async def dial(transport, host, port):
            await asyncio.open_connection(host, port)
            return await transport.recv()
        """
    ) == ["await-no-timeout", "await-no-timeout"]


def test_wait_for_wrapped_read_is_clean():
    assert rules_of(
        """
        import asyncio

        async def read(reader):
            return await asyncio.wait_for(reader.readexactly(4), timeout=1.0)
        """
    ) == []


def test_non_network_await_is_clean():
    assert rules_of(
        """
        async def take(queue):
            return await queue.get()
        """
    ) == []


# -- stage-name / stage-parity ----------------------------------------------

def test_unknown_stage_literal_flagged():
    assert rules_of(
        """
        def emit(obs, key, now):
            obs.rpc_stage(key, "dispatchx", now)
        """
    ) == ["stage-name"]


def test_ifexp_stage_branches_both_checked():
    assert rules_of(
        """
        def emit(obs, key, now, fast):
            obs.rpc_stage(key, "exec" if fast else "bogus", now)
        """
    ) == ["stage-name"]


def test_canonical_stages_are_clean():
    assert rules_of(
        """
        def emit(obs, key, now):
            obs.rpc_stage(key, "post", now)
            obs.rpc_stage(key, "complete", now)
        """
    ) == []


def _write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def test_stage_parity_flags_net_only_stage(tmp_path):
    _write(tmp_path / "sim" / "driver.py", """
        def emit(obs, key, now):
            obs.rpc_stage(key, "post", now)
            obs.rpc_stage(key, "complete", now)
        """)
    _write(tmp_path / "net" / "driver.py", """
        def emit(obs, key, now):
            obs.rpc_stage(key, "post", now)
            obs.rpc_stage(key, "dispatch", now)
        """)
    out = lint_paths([str(tmp_path)])
    assert [f.rule for f in out] == ["stage-parity"]
    assert out[0].path.endswith("net/driver.py")
    assert "'dispatch'" in out[0].message


def test_stage_parity_clean_when_net_vocab_is_subset(tmp_path):
    _write(tmp_path / "sim" / "driver.py", """
        def emit(obs, key, now):
            obs.rpc_stage(key, "post", now)
            obs.rpc_stage(key, "dispatch", now)
            obs.rpc_stage(key, "complete", now)
        """)
    _write(tmp_path / "net" / "driver.py", """
        def emit(obs, key, now):
            obs.rpc_stage(key, "post", now)
            obs.rpc_stage(key, "complete", now)
        """)
    assert lint_paths([str(tmp_path)]) == []


def test_stage_parity_skipped_without_both_sides(tmp_path):
    _write(tmp_path / "net" / "driver.py", """
        def emit(obs, key, now):
            obs.rpc_stage(key, "dispatch", now)
        """)
    assert lint_paths([str(tmp_path)]) == []


# -- proto-transition -------------------------------------------------------

def test_illegal_literal_transition_flagged():
    assert rules_of(
        """
        from repro.core.protocol import ClientState, ProtocolEvent, client_transition

        def bad():
            client_transition(ClientState.PROCESS, ProtocolEvent.ANNOUNCE)
        """
    ) == ["proto-transition"]


def test_legal_literal_transition_is_clean():
    assert rules_of(
        """
        from repro.core.protocol import ClientState, ProtocolEvent, client_transition

        def good():
            client_transition(ClientState.IDLE, ProtocolEvent.ACTIVATE)
        """
    ) == []


def test_dynamic_transition_arguments_are_clean():
    # Non-literal pairs are the runtime ProtocolError's job.
    assert rules_of(
        """
        from repro.core.protocol import client_transition

        def forward(state, event):
            return client_transition(state, event)
        """
    ) == []


def test_direct_state_store_flagged():
    assert rules_of(
        """
        from repro.core.protocol import ClientState

        class Client:
            def rebind(self):
                self.state = ClientState.PROCESS
        """
    ) == ["proto-transition"]


def test_idle_store_in_init_is_clean():
    assert rules_of(
        """
        from repro.core.protocol import ClientState

        class Client:
            def __init__(self):
                self.state = ClientState.IDLE

            def reset_epoch(self):
                self.state = ClientState.IDLE
        """
    ) == []


def test_protocol_module_itself_is_exempt():
    assert rules_of(
        """
        class Machine:
            def force(self):
                self.state = ClientState.PROCESS
        """,
        path="src/repro/core/protocol.py",
    ) == []


# -- suppressions -----------------------------------------------------------

def test_flowlint_rule_suppressed_with_detlint_spelling():
    # The retired `detlint:` spelling is inert: the finding stays visible.
    assert rules_of(
        """
        class Counter:
            async def bump(self):
                n = self.count
                await self.flush()
                self.count = n + 1  # detlint: ignore[yield-race]
        """
    ) == ["yield-race"]


def test_bare_flowlint_ignore_covers_flow_rules():
    assert rules_of(
        """
        import time

        async def pause():
            time.sleep(1)  # flowlint: ignore
        """
    ) == []


def test_skip_file_pragma_covers_flow_rules():
    assert rules_of(
        """
        # flowlint: skip-file
        import time

        async def pause():
            time.sleep(1)
        """
    ) == []


# -- the determinism pass on the shared parse ------------------------------

def test_detlint_rules_ride_the_same_parse():
    out = lint_source(textwrap.dedent(
        """
        import asyncio

        async def go(items=[]):
            asyncio.create_task(work())
        """
    ), SRC)
    assert sorted(f.rule for f in out) == ["mutable-default", "task-orphan"]


def test_no_detlint_flag_runs_only_flow_rules():
    # Filtering by rule is how a caller narrows to the flow catalog.
    assert rules_of("def f(items=[]):\n    pass\n") == []


# -- CLI / JSON -------------------------------------------------------------

def test_main_writes_json_report_and_fails(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import asyncio\n\n\nasync def go():\n    asyncio.create_task(w())\n"
    )
    report = tmp_path / "report.json"
    assert main([str(bad), "--json", str(report)]) == 1
    assert "task-orphan" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["tool"] == "flowlint"
    assert payload["total"] == 1
    assert payload["counts"] == {"task-orphan": 1}
    assert payload["findings"][0]["rule"] == "task-orphan"
    assert payload["findings"][0]["path"] == str(bad)


def test_main_clean_exit(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main([str(good)]) == 0


def test_list_rules_covers_both_catalogs(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule in out
    assert "yield-race" in out and "rng-call" in out


def test_rule_catalog_is_pinned():
    assert sorted(DETERMINISM_RULES) == [
        "float-time-eq", "mutable-default", "rng-call", "set-iter",
        "wall-clock",
    ]
    assert sorted(ALL_RULES) == sorted([
        *DETERMINISM_RULES,
        "async-blocking", "await-no-timeout", "nondet-transitive",
        "proto-transition", "resource-leak", "resource-typestate",
        "stage-name", "stage-parity", "task-orphan", "yield-race",
    ])


def test_syntax_error_is_reported_not_raised():
    assert rules_of("def broken(:\n") == ["syntax-error"]


# -- self-run ---------------------------------------------------------------

def test_repository_is_flowlint_clean():
    """Everything this tree ships — src, tests, benchmarks, examples —
    must pass flowlint, determinism rules included."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    out = lint_paths([
        str(root / "src"), str(root / "tests"),
        str(root / "benchmarks"), str(root / "examples"),
    ])
    assert out == [], "\n".join(f.render() for f in out)
