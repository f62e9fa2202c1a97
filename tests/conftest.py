"""Repository-wide pytest configuration."""

import pytest
from hypothesis import HealthCheck, settings

from repro.analysis import SimSanitizer, enabled_from_env

# Property tests drive whole simulations; wall-clock deadlines would flake
# on slow machines without telling us anything about correctness.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The same, searched twenty times harder: CI's codec/framing fuzz step
# selects it with --hypothesis-profile=fuzz.
settings.register_profile(
    "fuzz", parent=settings.get_profile("repro"), max_examples=2000
)


@pytest.fixture(autouse=True)
def sim_sanitizer(request):
    """Run every test under SimSanitizer when REPRO_SANITIZE=1.

    The sanitizer instruments the sim kernel and the resource models for
    the duration of one test and fails it if any invariant was violated.
    Tests that deliberately provoke violations opt out with
    ``@pytest.mark.no_sanitize``.
    """
    if not enabled_from_env() or request.node.get_closest_marker("no_sanitize"):
        yield None
        return
    sanitizer = SimSanitizer()
    sanitizer.install()
    try:
        yield sanitizer
    finally:
        report = sanitizer.uninstall()
    assert report.ok, report.render()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_sanitize: skip SimSanitizer instrumentation for this test"
    )
    # "repro" is the default, not an override: a profile named on the
    # command line is loaded by hypothesis' own plugin, whichever of the
    # two hooks runs first.
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("repro")
