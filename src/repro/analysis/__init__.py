"""Static analysis and runtime invariant checking for the simulation stack.

Two guardrails keep the reproduction trustworthy as the codebase grows:

- :mod:`repro.analysis.flowlint` — the one lint, on a one-parse-per-file
  engine: the determinism rules (no ad-hoc RNGs, no wall-clock reads, no
  iteration over unordered sets on scheduling paths, ...), asyncio
  yield-point races, blocking calls in ``async def``, orphaned tasks,
  unbounded network awaits, the cross-backend stage-vocabulary /
  protocol-table conformance contracts, and the interprocedural
  nondeterminism / resource-typestate checks.  Run it as
  ``python -m repro.analysis.flowlint src tests``.
- :mod:`repro.analysis.sanitize` — *SimSanitizer*, an opt-in runtime
  invariant layer (``REPRO_SANITIZE=1``) that instruments the simulation
  kernel and the resource models and reports violations (event-time
  monotonicity, QP state machine, CQ accounting, message-pool overwrite
  hazards, end-of-run conservation) as one :class:`SanitizerReport`.
"""

# Lazy re-exports (PEP 562): running the lint does not pull in the
# sanitizer and, through it, the simulation stack.
_EXPORTS = {
    "SanitizerFinding": ("sanitize", "SanitizerFinding"),
    "SanitizerReport": ("sanitize", "SanitizerReport"),
    "SimSanitizer": ("sanitize", "SimSanitizer"),
    "enabled_from_env": ("sanitize", "enabled_from_env"),
    "sanitized_run": ("sanitize", "sanitized_run"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(f".{module_name}", __name__), attr)
