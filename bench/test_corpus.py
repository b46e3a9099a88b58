"""Checks on the benchmark's corpus generator and its plans."""

import pytest

from corpus import WORKLOADS, generate
from treemine.errors import LexError, ParseError
from treemine.parser import parse_file

ALL_FILTERS = {"code_lines": {"max_lines": 60}, "abstract_method": {},
               "override_method": {}, "constructor": {}}


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    first = generate(workload, 5, tmp_path / "a")
    second = generate(workload, 5, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.files == second.files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_bytes(workload, tmp_path):
    generate(workload, 5, tmp_path / "a")
    generate(workload, 6, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a != b
    assert len(a) == len(b)  # the seed changes content, not the layout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planned_outcomes_hold(workload, tmp_path):
    plan = generate(workload, 0, tmp_path)
    assert any(not f.good for f in plan.files)
    for file in plan.files:
        text = (tmp_path / file.relpath).read_text(encoding="utf-8")
        if file.good:
            parse_file(text, file.relpath)
        else:
            with pytest.raises((LexError, ParseError)):
                parse_file(text, file.relpath)
    # raises if any unit would trip two filters
    plan.expected_stats("method", ALL_FILTERS)


def test_a_quarter_of_long_methods_is_long(tmp_path):
    plan = generate("long_methods", 0, tmp_path)
    regular = [u for f in plan.files if f.good for u in f.units
               if u.marker is None]
    long = [u.statements for u in regular if u.statements >= 40]
    assert len(long) * 4 == len(regular)
    assert max(long) <= 210
