import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from conformalts import pipelines

# numpy-heavy examples can blow hypothesis' default per-example deadline on
# slow machines; correctness here never depends on wall time
settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def window_widths(monkeypatch):
    """Every SlidingScoreWindow the runners build, in order, as the list of
    its widths: when built, then after each push."""
    log = []

    class RecordingWindow(pipelines.SlidingScoreWindow):
        def __init__(self, scores):
            super().__init__(scores)
            self.widths = [self.values().shape[1]]
            log.append(self.widths)

        def push(self, scores):
            super().push(scores)
            self.widths.append(self.values().shape[1])

    monkeypatch.setattr(pipelines, "SlidingScoreWindow", RecordingWindow)
    return log
