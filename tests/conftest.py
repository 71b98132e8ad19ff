import sys
from pathlib import Path

import pytest

# Make the sibling oracle module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def default_int_digit_limit():
    """Run the test under Python's default int<->str digit limit, 4300."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
