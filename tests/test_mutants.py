"""The committed mutant list still applies to the code as it is.

`tools/mutants.py` runs the whole suite once per mutant, so it runs as its
own CI job; this only checks, in milliseconds, that the list loads and
that every anchor occurs exactly once in its file.  A refactor that moves
an anchor fails here and updates the list with the code.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutants
_spec.loader.exec_module(mutants)


def test_every_anchor_matches_once():
    listed = mutants.load()
    assert listed
    assert mutants.anchor_problems(ROOT, listed) == []
