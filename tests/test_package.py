"""The package's public name list, and the one way its modules write files."""

import ast
import re
from pathlib import Path

import opflow


def test_all_is_sorted_unique_and_resolves():
    names = opflow.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(opflow, name)] == []


def test_internal_helpers_stay_in_their_modules():
    from opflow import construct, features, graph, nn, oracle

    internal = {
        nn: ("adamw_init", "bce_loss", "gumbel_sigmoid"),
        construct: ("build_labels", "generated_workflow_id"),
        features: ("compose_operation_text",),
        graph: ("normalize_instruction",),
        oracle: ("tokenize",),
    }
    for module, names in internal.items():
        for name in names:
            assert hasattr(module, name) and not hasattr(opflow, name), name
            assert name not in opflow.__all__, name


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call passes a mode that writes or appends: a
    literal one with ``w``, ``a``, ``x`` or ``+``, or one not known until run."""
    modes = [arg for arg in call.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    writing = re.compile(r"[rwxabt+]*[wax+][rwxabt+]*")  # a mode string with w, a, x or +
    return any(not isinstance(m, ast.Constant) or writing.fullmatch(m.value) for m in modes)


def test_every_file_write_goes_through_the_atomic_writer():
    # errors._write_atomic stages, syncs and renames; any other write in
    # place would leave a truncated file behind a failed or killed run.
    offenders = []
    for module in sorted(Path(opflow.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(), str(module))
        allowed = set()
        if module.name == "errors.py":
            writer = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_write_atomic")
            allowed = {id(node) for node in ast.walk(writer)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes") or (name == "open" and _opens_for_writing(node)):
                offenders.append(f"{module.name}:{node.lineno} {name}")
    assert offenders == []
