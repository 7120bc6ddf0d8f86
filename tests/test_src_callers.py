"""The library holds what the program runs: every module-level function and
class in ``src/segan`` is referenced in ``src/`` outside its own definition,
every defaulted parameter of a module-level function is passed by some
call in ``src/`` or ``perfbench/``, and every parameter of a function or
lambda in ``src/`` is read in its body. Oracles that only the tests call live in
``references.py``. The program starts on numpy alone: importing the CLI
loads no scipy module, so a function that needs scipy imports it itself.
Text files are serialized by ``sgt`` alone: every other module writes its CSV tables
and JSON records through ``sgt.write_csv`` and ``sgt.write_json``. Every file is
written through ``sgt.atomic_open``: nothing else in ``src/`` opens a file for
writing or calls ``write_bytes`` or ``write_text``. Payload bytes are read
only through a file's map: nothing in ``src/`` calls ``readinto``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "segan"

# Reached only from the benchmark harness.
ALLOWED = {
    "read_sgt",  # perfbench/tracing.py:238 wraps it
    "write_sgt",  # perfbench/tracing.py:239 wraps it
    "materialize",  # perfbench/test_perfbench.py:161 imports it
}

# Defaulted parameters that only the tests pass. test_trainer.py's
# test_tgstn_logs_every_step_and_is_deterministic,
# test_tgstn_feature_anchor_dominates_when_weighted_up and
# test_pretrain_phi_returns_frozen_segmenter shorten phi pretraining to keep
# Tier-1 short.
TEST_ONLY = {("pretrain_phi", "maxiter")}


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


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # a default no caller overrides is a constant spelled as a knob
    params, defaulted = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                a = top.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                params[top.name] = positional
                defaulted[top.name] = (
                    positional[len(positional) - len(a.defaults):]
                    + [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                )
    passed = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in params:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed.update((name, p) for p in defaulted[name])  # splats pass anything
                continue
            passed.update((name, p) for p in params[name][:len(node.args)])
            passed.update((name, k.arg) for k in node.keywords)
    unpassed = sorted(f"{fn}({p})" for fn, ps in defaulted.items() for p in ps
                      if (fn, p) not in passed | TEST_ONLY)
    assert unpassed == []


def test_every_parameter_is_read_in_its_body():
    # a parameter nothing reads is an argument every caller passes for nothing
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p.arg})"
                       for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                       if p is not None and p.arg not in read]
    assert unread == []


def test_the_cli_imports_no_scipy():
    code = ("import sys, segan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_only_sgt_serializes_files():
    # one writer per format: the dialect of a CSV table or a JSON record is
    # decided in one place
    writers = {"json.dump", "json.dumps", "csv.writer", "csv.DictWriter", "atomic_open",
               "sgt.atomic_open"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sgt.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f"{getattr(f.value, 'id', '?')}.{f.attr}" if isinstance(f, ast.Attribute)
                        else getattr(f, "id", None))
                if name in writers:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call may write: its mode, the argument after the
    file (builtin, ``io`` and ``os``) or the first one (a path's method), is
    anything but a string literal without w, a, x and +."""
    if any(k.arg is None for k in call.keywords):
        return True
    f = call.func
    pos = 1 if isinstance(f, ast.Name) or getattr(f.value, "id", None) in ("io", "os") else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[pos] if len(call.args) > pos else None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_atomic_open_writes_files():
    # a file written in place can change under a reader that maps it, which
    # then ends with SIGBUS; atomic_open renames a finished file over it
    writes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(node) for top in tree.body
                  if path.name == "sgt.py" and getattr(top, "name", None) == "atomic_open"
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("write_bytes", "write_text") or (
                    name in ("open", "fdopen") and _opens_for_writing(node)):
                writes.append(f"{path.name}:{node.lineno}: {name}")
    assert writes == []


def test_no_payload_is_read_into_a_buffer():
    # a load checks each payload through the map it hands the payload out
    # from; a copy through a buffer would check bytes the caller never sees
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "readinto"]
    assert calls == []
