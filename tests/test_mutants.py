"""The mutant gate's table (``tools/mutants.py``), checked without running a mutant.

Each entry's snippet must occur exactly once in ``src/citeforge``, so
in one module, the mutated module must compile, and every test it
names must still exist: its file, and in it its class and test
function, as ``ast`` finds them.  So a refactor that moves a snippet,
or a rename or merge that drops a mutant's killer, fails here at once.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_gate():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


GATE = load_gate()


def test_entry_names_are_unique():
    names = [mutant.name for mutant in GATE.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", GATE.MUTANTS, ids=lambda mutant: mutant.name)
def test_entry_applies_once_and_compiles(mutant):
    assert mutant.tests
    assert GATE.problems(mutant) == []


def defines(body, names) -> bool:
    """Whether ``body`` defines the classes and function ``names`` name, nested in that order."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == names[0]:
            return len(names) == 1 or defines(node.body, names[1:])
    return False


@pytest.mark.parametrize(
    "node", sorted({node for mutant in GATE.MUTANTS for node in mutant.tests})
)
def test_named_test_exists(node):
    path, *names = node.split("::")
    assert names and (ROOT / path).is_file()
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert defines(tree.body, names)
