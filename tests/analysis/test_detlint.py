"""Rule-by-rule tests for flowlint's determinism pass
(repro.analysis.flowlint.determinism)."""

import textwrap

from repro.analysis.flowlint import lint_paths, lint_source, main
from repro.analysis.flowlint.determinism import DETERMINISM_RULES

SRC = "src/repro/example.py"


def findings(source, path=SRC):
    return lint_source(textwrap.dedent(source), path)


def rules_of(source, path=SRC):
    return [f.rule for f in findings(source, path)]


# -- rng-call ---------------------------------------------------------------

def test_module_level_random_call_flagged():
    assert rules_of("import random\nx = random.random()\n") == ["rng-call"]


def test_private_random_instance_flagged():
    assert rules_of(
        """
        from random import Random
        rng = Random(42)
        """
    ) == ["rng-call"]


def test_rng_allowed_inside_registry_module():
    source = "import random\nrng = random.Random(1)\n"
    assert rules_of(source, path="src/repro/sim/rng.py") == []


def test_registry_streams_are_clean():
    assert rules_of(
        """
        from repro.sim.rng import RngRegistry
        rng = RngRegistry(1).stream("x")
        value = rng.random()
        """
    ) == []


def test_dunder_import_evasion_flagged():
    assert rules_of('rng = __import__("random").Random(1)\n') == ["rng-call"]
    assert rules_of("mod = __import__(name)\n") == ["rng-call"]
    assert rules_of('mod = __import__("json")\n') == []


# -- wall-clock -------------------------------------------------------------

def test_wall_clock_read_flagged_in_src():
    assert rules_of("import time\nt = time.time()\n") == ["wall-clock"]


def test_wall_clock_alias_resolved():
    assert rules_of(
        """
        from time import perf_counter as clock
        t = clock()
        """
    ) == ["wall-clock"]


def test_wall_clock_exempt_in_tests_and_benchmarks():
    source = "import time\nt = time.time()\n"
    assert rules_of(source, path="tests/test_x.py") == []
    assert rules_of(source, path="benchmarks/run.py") == []


# -- set-iter ---------------------------------------------------------------

def test_for_over_set_literal_flagged():
    assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["set-iter"]


def test_for_over_inferred_set_name_flagged():
    assert rules_of(
        """
        def f():
            pending = set()
            for item in pending:
                pass
        """
    ) == ["set-iter"]


def test_for_over_self_set_attribute_flagged():
    assert rules_of(
        """
        class C:
            def __init__(self):
                self.members = set()

            def run(self):
                for m in self.members:
                    pass
        """
    ) == ["set-iter"]


def test_sorted_set_is_clean():
    assert rules_of("for x in sorted({1, 2, 3}):\n    pass\n") == []


def test_list_materializing_set_flagged():
    assert rules_of(
        """
        def f():
            s = {1, 2}
            return list(s)
        """
    ) == ["set-iter"]


def test_dict_iteration_is_clean():
    assert rules_of("for k in {1: 'a', 2: 'b'}:\n    pass\n") == []


# -- mutable-default --------------------------------------------------------

def test_mutable_default_flagged():
    assert rules_of("def f(items=[]):\n    pass\n") == ["mutable-default"]
    assert rules_of("def g(cache=dict()):\n    pass\n") == ["mutable-default"]


def test_none_default_is_clean():
    assert rules_of("def f(items=None):\n    pass\n") == []


# -- float-time-eq ----------------------------------------------------------

def test_float_equality_against_timestamp_flagged():
    assert rules_of("ok = start_ns == 1.5\n") == ["float-time-eq"]
    assert rules_of("ok = sim.now == total / 2\n") == ["float-time-eq"]


def test_integer_timestamp_compare_is_clean():
    assert rules_of("ok = start_ns == 1500\n") == []


# -- suppressions -----------------------------------------------------------

def test_rule_specific_suppression():
    assert rules_of(
        "import random\n"
        "x = random.random()  # flowlint: ignore[rng-call]\n"
    ) == []


def test_suppression_of_other_rule_does_not_apply():
    assert rules_of(
        "import random\n"
        "x = random.random()  # flowlint: ignore[set-iter]\n"
    ) == ["rng-call"]


def test_bare_suppression_covers_all_rules():
    assert rules_of(
        "import random\n"
        "x = random.random()  # flowlint: ignore\n"
    ) == []


def test_skip_file_pragma():
    assert rules_of(
        "# flowlint: skip-file\nimport random\nx = random.random()\n"
    ) == []


def test_skip_file_inside_a_string_is_not_a_pragma():
    assert rules_of(
        'DOC = "# flowlint: skip-file"\nimport random\nx = random.random()\n'
    ) == ["rng-call"]


def test_ignore_inside_a_string_is_not_a_pragma():
    assert rules_of(
        "import random\n"
        'x = (random.random(), "# flowlint: ignore[rng-call]")\n'
    ) == ["rng-call"]


# -- drivers ----------------------------------------------------------------

def test_syntax_error_is_reported_not_raised():
    out = findings("def broken(:\n")
    assert [f.rule for f in out] == ["syntax-error"]


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import random\nx = random.random()\n")
    (pkg / "good.py").write_text("x = 1\n")
    out = lint_paths([str(tmp_path / "src")])
    assert [f.rule for f in out] == ["rng-call"]
    assert out[0].path.endswith("bad.py")


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    pass\n")
    assert main([str(bad)]) == 1
    assert "mutable-default" in capsys.readouterr().out
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main([str(good)]) == 0


def test_list_rules_mentions_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in DETERMINISM_RULES:
        assert rule in out

