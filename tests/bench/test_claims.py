"""The claims table and the CLI's check of it, on stub figures (no simulation)."""

import json

import pytest

from repro.bench import claims
from repro.bench.__main__ import main
from repro.bench.claims import CLAIMS, Claim
from repro.bench.experiments import ALL_FIGURES
from repro.bench.report import FigureResult


def rises(r):
    return r["s"][-1] > r["s"][0]


def test_every_figure_has_a_row_and_every_row_a_figure():
    assert {claim.figure for claim in CLAIMS} == set(ALL_FIGURES)


def test_rows_are_distinct():
    keys = [(claim.figure, claim.text) for claim in CLAIMS]
    assert len(keys) == len(set(keys))


def test_a_row_that_cannot_be_evaluated_is_broken():
    result = FigureResult("Stub", "stub", "x", (1, 2), {"s": [0.0, 0.0]})
    assert not Claim("stub", "missing series", lambda r: r["nope"][0] > 0).check(result)
    assert not Claim("stub", "zero divisor", lambda r: r["s"][1] / r["s"][0] > 1).check(result)


@pytest.fixture
def stubs(monkeypatch):
    """Two registered stub figures whose series ``s`` rises; returns the
    names of the figures run, in order."""
    ran = []
    for name in ("stub_a", "stub_b"):
        def figure(quick=True, name=name):
            ran.append(name)
            return FigureResult(name, "stub", "x", (1, 2), {"s": [1.0, 2.0]})

        monkeypatch.setitem(ALL_FIGURES, name, figure)
    return ran


def test_a_broken_row_exits_1_and_the_next_figure_still_runs(stubs, monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", [
        Claim("stub_a", "stub_a rises", rises),
        Claim("stub_a", "stub_a falls", lambda r: not rises(r)),
        Claim("stub_b", "stub_b rises", rises),
    ])
    assert main(["--figure", "stub_a", "--figure", "stub_b"]) == 1
    out, err = capsys.readouterr()
    assert "ok [stub_a] stub_a rises" in out
    assert "BROKEN [stub_a] stub_a falls" in out
    assert "ok [stub_b] stub_b rises" in out
    assert err.strip() == "BROKEN [stub_a] stub_a falls"
    assert stubs == ["stub_a", "stub_b"]


def test_all_rows_true_exits_0_and_the_json_keeps_its_shape(stubs, monkeypatch, tmp_path):
    monkeypatch.setattr(claims, "CLAIMS", [
        Claim(name, "rises", rises) for name in ("stub_a", "stub_b")
    ])
    path = tmp_path / "figures.json"
    assert main(["--figure", "stub_a", "--figure", "stub_b", "--json", str(path)]) == 0
    written = json.loads(path.read_text())
    assert list(written) == ["stub_a", "stub_b"]
    assert written["stub_a"] == ALL_FIGURES["stub_a"]().as_dict()
