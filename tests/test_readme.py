"""The README stays in step with the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_table_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "zonalprop").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def _number(text):
    """An integer as the README writes it, digit groups split by spaces or not."""
    return int(text.replace(" ", ""))


def test_block_numbers_match_the_kernels():
    # a retune of EPOCH_BLOCK must not leave the README's block size and
    # one-day block counts behind
    from zonalprop import _kernels
    text = " ".join((ROOT / "README.md").read_text().split())
    size = r"(\d[\d ]*\d|\d)"
    assert {_number(n) for n in re.findall(r"round\(n / " + size + r"\)", text)} == {
        _kernels.EPOCH_BLOCK}
    assert _number(re.search(size + r" is `_kernels\.EPOCH_BLOCK`", text)[1]) == (
        _kernels.EPOCH_BLOCK)
    assert _number(re.search(r"about " + size + r" epochs per block", text)[1]) == (
        _kernels.EPOCH_BLOCK)
    # block_edges bounds its blocks by 1.5 EPOCH_BLOCK (tests/test_array_path.py)
    assert _number(re.search(r"no block exceeds " + size + " epochs", text)[1]) == (
        3 * _kernels.EPOCH_BLOCK // 2)
    counts = re.search(r"one day at 5 s \(17 281 epochs\) runs in (\d+) blocks, "
                       r"one day at 1 s \(86 401 epochs\) in (\d+);", text)
    assert counts, "the README's one-day block counts moved"
    assert [int(counts[1]), int(counts[2])] == [len(_kernels.block_edges(n)) - 1
                                                 for n in (17281, 86401)]


def test_pass_counts_match_the_benchmark():
    # the paper's claim as README states it, against what the benchmark counts
    # at the LEO mean state README names
    from test_benchmark import leo_mean_state, pass_counts
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.search(r"costs (\d+) trig and (\d+) sqrt calls?, against (\d+) trig and "
                       r"(\d+) sqrt for the classical Delaunay-series pass", text)
    assert quoted, "the README's pass counts moved"
    assert tuple(int(n) for n in quoted.groups()) == pass_counts(leo_mean_state())


def test_api_count_matches_all():
    import zonalprop
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.search(r"\((\d+) names in `__all__`\)", text)
    assert quoted, "the README's API count moved"
    assert int(quoted[1]) == len(zonalprop.__all__)


def test_call_count_matches_the_budget():
    # the single-state request's Python-level calls, as README states them
    from test_float_path import CALL_BUDGET
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.search(r"One such request makes (\d+) Python-level calls", text)
    assert quoted, "the README's call count moved"
    assert int(quoted[1]) == CALL_BUDGET


def test_cited_names_exist():
    # a name README cites as `module.name` (or `zonalprop.module.name`) for a
    # package module must still be there: a move that leaves README behind
    # fails here.  File names such as `benchmark.txt` are not citations
    import importlib
    modules = {p.stem for p in (ROOT / "src" / "zonalprop").glob("*.py")} - {"__init__"}
    files = {"csv", "ini", "json", "md", "py", "txt"}
    text = (ROOT / "README.md").read_text()
    cited = set(re.findall(r"`(?:zonalprop\.)?(\w+)\.([\w.]+)`", text))
    cited = [(module, path) for module, path in sorted(cited)
             if module in modules and path not in files]
    assert cited, "README cites no package name"

    def resolves(module, path):
        obj = importlib.import_module(f"zonalprop.{module}")
        for attr in path.split("."):
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    assert [f"{module}.{path}" for module, path in cited if not resolves(module, path)] == []
