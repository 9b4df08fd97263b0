"""Every public name has a caller outside its own unit tests."""

import ast
from pathlib import Path

import gramspec

ROOT = Path(__file__).resolve().parent.parent

# Public names that no scanned file references, and why each stays.
ALLOWED = {
    "warm_up": "perfbench/run.py calls it inside a `python -c` string",
    "generate_stationary_lower_triangle":
        "the symmetric ensemble, checked and kept by ROADMAP old item 8",
    "symmetric_from_lower":
        "the symmetric ensemble, checked and kept by ROADMAP old item 8",
    "__version__": "the package version",
}


def _referenced_names() -> set[str]:
    # Names, attributes and imports in the package's modules (its
    # __init__, which only re-exports, aside), the acceptance criteria and
    # the benchmark: the callers that count.  A unit test of a function
    # itself does not.
    files = [p for p in (ROOT / "src" / "gramspec").glob("*.py")
             if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py",
              *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_caller():
    seen = _referenced_names()
    assert sorted(set(gramspec.__all__) - seen - set(ALLOWED)) == []
    # an allowed name that gains a caller, or leaves __all__, leaves the list
    assert sorted(set(ALLOWED) & seen) == []
    assert sorted(set(ALLOWED) - set(gramspec.__all__)) == []
