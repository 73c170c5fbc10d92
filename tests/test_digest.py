import os
import subprocess
import sys

import digest
import numpy as np
import pytest


def test_digest_case_repeats():
    for case, cfg in (("vssd.cross", digest.B.config_from_preset("desk-vssd")),
                      ("mambavision-wide.cross",
                       digest.B.config_from_preset("desk-mambavision", embed_dim=32))):
        first = digest.case_lines(case)
        assert first == digest.case_lines(case)
        assert first[0].startswith(f"{case} logits ")
        assert len(first) == 1 + len(digest.B.param_specs(cfg))
    first = digest.case_lines("chunked")
    assert first == digest.case_lines("chunked")
    assert first[0].startswith("chunked y.1.chunk1 ")
    assert len(first) == len(digest.CHUNKED_SHAPES) * (1 + 3 + 7)  # y, x, a, d, the 7 weights
    first = digest.case_lines("data")
    assert first == digest.case_lines("data")
    assert first[0].startswith("data train.images ")
    assert len(first) == 2 * (2 + len(digest.D.GENERATORS) + 1)  # images, labels per split
    first = digest.case_lines("rng")
    assert first == digest.case_lines("rng")
    assert first[0].startswith("rng next_u64.1234567 ")
    assert len(first) == len(digest.PUBLISHED_SEEDS) + 7 + 2  # the draws, shuffle, hashes


def test_gaps_report_only_the_arrays_that_moved(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    digest.case_lines("lti", dump=str(a))
    digest.case_lines("lti", dump=str(b))
    kernel = np.load(b / "lti.dense.kernel.npy")
    scale = np.max(np.abs(kernel))
    kernel[3] += 0.5e-12 * scale
    np.save(b / "lti.dense.kernel.npy", kernel)
    (b / "lti.diag.kernel.npy").unlink()

    assert digest.main(["--gaps", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["lti dense.kernel 5.00e-13",
                     f"lti diag.kernel only in {a}",
                     "moved 1 of 10 arrays; worst gap: dense 5.00e-13"]


def test_help_lines_cover_every_command_and_repeat():
    first = digest.case_lines("help")
    assert first == digest.case_lines("help")
    assert [line.split()[1] for line in first] == ["vissm", *digest.cli.COMMANDS]


def test_pipeline_runs_every_command():
    """So every run record writer stays under the bit-identity check."""
    assert {argv[0] for _, argv in digest.PIPELINE} == set(digest.cli.COMMANDS)


def test_lines_count_every_module_and_sum_them(tmp_path, capsys):
    assert digest.main(["--lines"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    package = os.path.dirname(digest.B.__file__)
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert [name for name, _ in lines[:-1]] == modules and len(modules) == 11
    assert lines[-1] == ["total", str(sum(int(n) for _, n in lines[:-1]))]
    source = tmp_path / "m.py"
    source.write_text('"""Doc."""\n\n# note\nx = (1,\n     2)  # tail\n\n\n'
                      'def f():\n    """Doc,\n    more."""\n    return """text"""\n')
    assert digest.code_lines(source) == 4  # x = (1, / 2) / def f(): / return


def moved_lines(golden: list, lines: list) -> list:
    """``<case> <name>`` of every line that differs, in the golden file's order
    and then the new lines'."""
    def by_name(rows):
        return dict(row.rsplit(" ", 1) for row in rows)

    old, new = by_name(golden), by_name(lines)
    return [f"{name} {'gone' if name not in new else 'moved'}"
            for name in old if old[name] != new.get(name)] + \
        [f"{name} new" for name in new if name not in old]


def test_digest_matches_the_golden_file():
    """The library's bits as tests/digest.golden records them; a change that
    moves them on purpose rewrites the file with --write-golden."""
    header, golden = digest.read_golden()
    differs = [f"{key}: golden {header.get(key)}, here {value}"
               for key, value in digest.fingerprint().items() if header.get(key) != value]
    if differs:
        pytest.skip("digest.golden was written in another environment: " + "; ".join(differs))
    src = os.path.dirname(os.path.dirname(digest.B.__file__))
    run = subprocess.run([sys.executable, digest.__file__], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    moved = moved_lines(golden, run.stdout.splitlines())
    assert not moved, (f"{len(moved)} digest lines differ from {digest.GOLDEN}:\n"
                       + "\n".join(moved) + "\nif the bits moved on purpose, rewrite it with "
                       "python tests/digest.py --write-golden")


def test_moved_lines_name_each_line_that_differs():
    golden = ["a x 1", "a y 2", "b z 3"]
    assert moved_lines(golden, golden) == []
    assert moved_lines(golden, ["a x 1", "a y 9", "c w 4"]) == [
        "a y moved", "b z gone", "c w new"]
