"""Chaos-suite fixtures: a daemon factory with an injected fault plan.

Reuses the serving fixtures (toy registry, input rows) and adds
``chaos_server`` — the pytest face of ``repro serve --chaos SPEC``:
give it a spec string, get back a running :class:`BackgroundServer`
with the parsed :class:`~repro.chaos.ChaosPlan` wired into its compute,
registry-load and connection paths.
"""

import pytest

from repro.chaos import parse_chaos_spec
from repro.errors import ExecutionError
from repro.serving import BackgroundServer, ServingConfig

from tests.serving.conftest import (  # noqa: F401  (re-exported fixtures)
    entry,
    registry,
    rows,
    scripted_entry,
    slow_entry,
)


def chaos_config(**kwargs):
    defaults = dict(port=0, models=("toy",), max_batch=8)
    defaults.update(kwargs)
    return ServingConfig(**defaults)


@pytest.fixture
def chaos_server(registry):  # noqa: F811  (pytest fixture injection)
    """Factory: ``launch(spec, config=..., registry_=...)`` starts a
    BackgroundServer under the parsed chaos plan; everything launched
    is stopped at teardown even if the test failed midway."""
    servers = []

    def launch(spec, config=None, registry_=None):
        plan = parse_chaos_spec(spec)
        server = BackgroundServer(
            registry_ if registry_ is not None else registry,
            config if config is not None else chaos_config(),
            chaos=plan,
        )
        servers.append(server)
        return server.start(), plan

    yield launch
    # A second stop of a cleanly stopped server is a no-op, so any error
    # here is real (a daemon that died, or a loop wedged past its
    # shutdown bound): stop everything, then surface the first one.
    errors = []
    for server in servers:
        try:
            server.stop()
        except ExecutionError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]
