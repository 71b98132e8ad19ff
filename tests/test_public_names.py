"""No public name may exist that nothing in the package uses.

Counted on the source's NAME tokens, so a name that occurs only in a
string (``__all__`` itself) or a comment does not count as a use.
"""

import tokenize
from collections import Counter
from pathlib import Path

import ulplab


def test_every_public_name_is_defined_and_used():
    counts = Counter()
    for path in Path(ulplab.__file__).parent.glob("*.py"):
        with path.open("rb") as f:
            counts.update(
                tok.string
                for tok in tokenize.tokenize(f.readline)
                if tok.type == tokenize.NAME
            )
    # one occurrence is the definition; a used name has at least two
    assert [name for name in ulplab.__all__ if counts[name] < 2] == []
