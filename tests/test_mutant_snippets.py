"""Every snippet that ``tests/mutants.py`` replaces occurs exactly once in its
module, so each mutant still names one place in the code.  This runs no
mutant; ``python tests/mutants.py`` does."""

from pathlib import Path

import pytest
from mutants import EQUIVALENT, MUTANTS

import moe_lens

PACKAGE = Path(moe_lens.__file__).parent


@pytest.mark.parametrize("mutant", MUTANTS + EQUIVALENT, ids=lambda m: m.name)
def test_mutant_snippet_occurs_once(mutant):
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert sources[mutant.module].count(mutant.snippet) == 1
    assert sum(text.count(mutant.snippet) for text in sources.values()) == 1
