import ast
import os
from pathlib import Path

import pytest

from vissm import files

SRC = Path(__file__).resolve().parents[1] / "src" / "vissm"


def _writes(tree):
    """Line numbers of ``open`` calls in a mode other than read, and of ``np.save*``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            reads = mode is None or (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt"))
            if not reads:
                yield node.lineno
        elif (isinstance(func, ast.Attribute) and func.attr.startswith("save")
              and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            yield node.lineno


def test_only_files_module_writes_files():
    probe = "open(p, 'w')\nopen(p, mode='ab')\nopen(p)\nopen(p, 'rb')\nnp.savez(p)\n"
    assert list(_writes(ast.parse(probe))) == [1, 2, 5]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "files.py":
            lines = list(_writes(ast.parse(path.read_text())))
            if lines:
                found[path.name] = lines
    assert found == {}


def test_failed_write_keeps_previous_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    files.write_json(target, {"run": 1})
    before = target.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        files.write_json(target, {"run": 2})
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_write_creates_missing_directories(tmp_path):
    target = tmp_path / "a" / "b" / "rows.csv"
    files.write_csv(target, ["x", "y"], [(1, 2)])
    assert target.read_bytes() == b"x,y\n1,2\n"
