"""The package's public name list, and the one way its modules write files."""

import ast
import os
import re
import stat
from pathlib import Path

import opflow
from opflow import errors


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


# Calls that write or move a file, by the module they are called on; any
# ``tofile``, ``write_text`` or ``write_bytes`` writes whatever it is called on.
_NUMPY_WRITES = {"save", "savez", "savez_compressed", "savetxt"}
_MODULE_WRITES = {"np": _NUMPY_WRITES, "numpy": _NUMPY_WRITES, "os": {"replace", "rename", "open"}}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = _callee(call)
    owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
    if owner in _MODULE_WRITES:
        return name in _MODULE_WRITES[owner]
    return name in ("write_text", "write_bytes", "tofile") or (name == "open" and _opens_for_writing(call))


def test_every_file_write_goes_through_the_atomic_writer():
    # errors._write_atomic stages, syncs and renames; any other write or
    # rename in place would leave a truncated file behind a failed or killed
    # run, or a rename a crash could lose.
    offenders = []
    for module in sorted(Path(opflow.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(), str(module))
        allowed = set()
        if module.name == "errors.py":
            writer = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_write_atomic")
            allowed = {id(node) for node in ast.walk(writer)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and _writes(node):
                offenders.append(f"{module.name}:{node.lineno} {ast.unparse(node.func)}")
    assert offenders == []


def test_the_writer_catches_every_kind_of_write():
    calls = {
        "kv.states.tofile(path)": True, "np.save(path, a)": True, "numpy.savez(path, a=a)": True,
        "np.savetxt(path, a)": True, "os.replace(a, b)": True, "os.rename(a, b)": True,
        "os.open(path, os.O_WRONLY)": True, "path.write_text(s)": True, "open(path, 'ab')": True,
        "open(path)": False, "np.load(path)": False, "text.replace('a', 'b')": False,
        "replace(report, verified=None)": False, "os.fsync(fd)": False,
    }
    assert {call: _writes(ast.parse(call, mode="eval").body) for call in calls} == calls


def test_the_writer_syncs_each_directory_after_its_replace(tmp_path, monkeypatch):
    # A rename is durable only once its directory is synced.  (That a synced
    # rename survives a power cut cannot be shown in a test.)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("replace", Path(dst)))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    (tmp_path / "sub").mkdir()
    targets = [tmp_path / "a.csv", tmp_path / "sub" / "b.csv", tmp_path / "c.csv"]
    errors._write_atomic({target: lambda fh: fh.write(b"new\n") for target in targets})
    assert [kind for kind, _ in events] == ["fsync"] * 3 + ["replace"] * 3 + ["fsync"] * 2
    assert [target for _, target in events[3:6]] == targets
    synced = [st for _, st in events[6:]]
    assert all(stat.S_ISDIR(st.st_mode) for st in synced)
    assert [os.path.samestat(st, os.stat(d)) for st, d in zip(synced, (tmp_path, tmp_path / "sub"))] == [True, True]
    assert [target.read_bytes() for target in targets] == [b"new\n"] * 3


def test_each_command_replaces_its_files_in_one_call():
    # A command's files are replaced all or none only when one atomic write
    # stages every one of them.
    writers = {"_write_atomic", "_write_csvs", "save_store", "save_checkpoint"}
    tree = ast.parse(Path(opflow.__file__).with_name("cli.py").read_text())
    handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(handlers) >= 8
    calls = {
        f.name: sum(isinstance(node, ast.Call) and _callee(node) in writers for node in ast.walk(f)) for f in handlers
    }
    assert {name: n for name, n in calls.items() if n > 1} == {}
