"""Byte-exact regression anchors for all output formats.

The expected files were reviewed by hand (labels, masking, types, ordering)
and frozen; any byte drift in serialization, mining, sampling, or traversal
order fails here.
"""

import io

import pytest

from treemine import run, validate_config

from conftest import GOLDEN_DIR

FORMATS = ("code2seq", "code2seq_typed", "jsonl_trees")

# Each expected directory and the configuration that writes it: the three
# formats by method with method-name labels, and whole-file JSONL trees with
# no label, whose large trees pin the JSONL writer.
GOLDEN_CONFIGS = {
    **{fmt: {"granularity": "method",
             "label_extractor": {"name": "method_name"},
             "miner": {"max_contexts": 40},
             "storage": {"format": fmt}} for fmt in FORMATS},
    "jsonl_trees_file": {"granularity": "file",
                         "storage": {"format": "jsonl_trees"}},
}


def golden_config(fmt, out_dir, parallelism=1):
    return validate_config({
        "input_dir": str(GOLDEN_DIR / "input"),
        "output_dir": str(out_dir),
        "dataset_name": "golden",
        **GOLDEN_CONFIGS[fmt],
        "parallelism": parallelism,
    })


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("fmt", GOLDEN_CONFIGS)
def test_output_matches_golden(fmt, workers, tmp_path):
    out_dir = tmp_path / "out"
    run(golden_config(fmt, out_dir, workers), summary_sink=io.StringIO())
    expected_dir = GOLDEN_DIR / "expected" / fmt
    expected = sorted(p.name for p in expected_dir.iterdir())
    produced = sorted(p.name for p in out_dir.iterdir())
    assert produced == expected
    for name in expected:
        assert (out_dir / name).read_bytes() == \
            (expected_dir / name).read_bytes(), name


def test_golden_corpus_has_all_three_splits():
    names = {p.name for p in (GOLDEN_DIR / "input").iterdir()}
    assert names == {"train", "val", "test"}
