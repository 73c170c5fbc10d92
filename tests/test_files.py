import ast
import json
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


def test_only_files_module_parses_json():
    readers = {"load", "loads"}

    def parses(tree):
        return sorted(node.lineno for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in readers
                      and isinstance(node.value, ast.Name) and node.value.id == "json"
                      or isinstance(node, ast.ImportFrom) and node.module == "json"
                      and readers & {alias.name for alias in node.names})

    probe = "json.load(fh)\njson.dumps(x)\nf = json.loads\nfrom json import dumps, loads\n"
    assert parses(ast.parse(probe)) == [1, 3, 4]
    found = {path.name: parses(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "files.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# -- json_object -------------------------------------------------------------------------


KINDS = {"name": str, "image": {"h": int, "size": {"w": int}}}


def test_json_object_accepts_nested_kinds():
    text = '{"name": "a", "image": {"h": 8, "size": {"w": 9}}}'
    assert files.json_object(text, KINDS, KINDS, "doc") == {
        "name": "a", "image": {"h": 8, "size": {"w": 9}}}


@pytest.mark.parametrize("image, message", [
    ({"size": {"w": 9}}, "doc key 'image.h' is missing"),
    ({"h": 8, "size": {}}, "doc key 'image.size.w' is missing"),
    ({"h": 8, "d": 1, "size": {"w": 9}}, "unknown doc key 'image.d'"),
    ({"h": 8, "size": {"w": 9, "x": 0}}, "unknown doc key 'image.size.x'"),
    ({"h": 8.0, "size": {"w": 9}}, "doc key 'image.h' must be int, got 8.0"),
    ({"h": 8, "size": {"w": True}}, "doc key 'image.size.w' must be int, got True"),
    ([8, 9], r"doc key 'image' must be an object, got \[8, 9\]"),
    ({"h": 8, "size": [9]}, r"doc key 'image.size' must be an object, got \[9\]"),
])
def test_json_object_names_nested_keys_by_dotted_path(image, message):
    text = json.dumps({"name": "a", "image": image})
    with pytest.raises(ValueError, match=f"^{message}$"):
        files.json_object(text, KINDS, KINDS, "doc")


def test_json_object_requires_only_the_named_top_level_keys():
    assert files.json_object('{"image": {"h": 1, "size": {"w": 2}}}', KINDS, (), "doc")
    with pytest.raises(ValueError, match="doc key 'name' is missing"):
        files.json_object("{}", KINDS, ("name",), "doc")
    with pytest.raises(ValueError, match="doc must be a JSON object"):
        files.json_object("[]", KINDS, (), "doc")
