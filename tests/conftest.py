import pytest
from hypothesis import HealthCheck, settings

import wordgraph.explore

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def gate_opened(monkeypatch):
    """The temporal graphs of the oracle searches that pass the twin gate
    and build a quotient, in call order."""
    opened = []

    class Recorded(wordgraph.explore._TwinQuotient):
        def __init__(self, tg, first):
            super().__init__(tg, first)
            opened.append(tg)

    monkeypatch.setattr(wordgraph.explore, "_TwinQuotient", Recorded)
    return opened
