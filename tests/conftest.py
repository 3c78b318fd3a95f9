import contextlib
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# One profile for every run: the same examples on every machine, and no
# per-example deadline on shared or slow runners.
settings.register_profile("pcqa", derandomize=True, deadline=None)
settings.load_profile("pcqa")


@pytest.fixture
def criterion(capsys):
    """Context manager printing one visible PASS/FAIL line per criterion."""

    @contextlib.contextmanager
    def runner(number, label):
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            word = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
            with capsys.disabled():
                print(f"[criterion {number:>2}] {word}  {label}", flush=True)
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"[criterion {number:>2}] PASS  {label} ({elapsed:.1f}s)", flush=True)

    return runner
