"""The library holds what the program runs: every module-level function and
class in ``src/segan`` is referenced in ``src/`` outside its own definition.
Oracles that only the tests call live in ``references.py``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "segan"

# Reached only from the benchmark harness.
ALLOWED = {
    "read_sgt",  # perfbench/tracing.py:238 wraps it
    "write_sgt",  # perfbench/tracing.py:239 wraps it
    "materialize",  # perfbench/test_perfbench.py:161 imports it
}


def test_every_definition_is_referenced_in_src():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined[own] = path.name
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name != own:
                    used.add(name)
    unused = sorted(f"{defined[n]}:{n}" for n in set(defined) - used - ALLOWED)
    assert unused == []
