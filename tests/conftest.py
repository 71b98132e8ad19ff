import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

# Make the sibling oracle module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


@contextmanager
def int_digit_limit(limit: int):
    """Run a block under Python's int<->str digit limit ``limit`` (0: none),
    then restore the limit it found."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def default_int_digit_limit():
    """Run the test under Python's default int<->str digit limit, 4300."""
    with int_digit_limit(4300):
        yield
