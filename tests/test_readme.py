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
    quoted = re.search(r"costs (\d+) trig and (\d+) sqrt calls, against (\d+) trig and "
                       r"(\d+) sqrt for the classical Delaunay-series pass", text)
    assert quoted, "the README's pass counts moved"
    assert tuple(int(n) for n in quoted.groups()) == pass_counts(leo_mean_state())
