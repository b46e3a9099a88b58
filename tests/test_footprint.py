"""What a run loads: OpenSSL's libcrypto only for a run that draws a sample.

`hashlib` maps libcrypto, a few MB of a run's peak RSS, as it is imported.
Only a bag of more than max_contexts path-contexts needs SHA-256, so a
`jsonl_trees` run and a dry run must not import it. Each run happens in a
fresh `python -S` process, so no test or plugin can have loaded it first.
"""

import subprocess
import sys
from pathlib import Path

from conftest import GOLDEN_DIR, write_config

SRC = Path(__file__).resolve().parent.parent / "src"

_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from treemine.cli import main
code = main(sys.argv[2:])
print(code, "_hashlib" in sys.modules)
"""


def loads_openssl(tmp_path, storage_format, max_contexts, *extra):
    """Whether a CLI run of the golden configuration imported `_hashlib`."""
    config = write_config(tmp_path, {
        "input_dir": str(GOLDEN_DIR / "input"),
        "output_dir": str(tmp_path / "out"),
        "dataset_name": "golden",
        "granularity": "method",
        "label_extractor": {"name": "method_name"},
        "miner": {"max_contexts": max_contexts},
        "storage": {"format": storage_format},
    })
    done = subprocess.run(
        [sys.executable, "-S", "-c", _RUN, str(SRC), "--config", str(config),
         *extra], capture_output=True, text=True, check=True)
    code, loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    return loaded == "True"


def test_jsonl_trees_run_does_not_load_openssl(tmp_path):
    assert not loads_openssl(tmp_path, "jsonl_trees", 40)
    assert (tmp_path / "out" / "golden.train.jsonl").is_file()


def test_dry_run_does_not_load_openssl(tmp_path):
    assert not loads_openssl(tmp_path, "code2seq", 1, "--dry-run")
    assert not (tmp_path / "out").exists()


def test_a_run_that_draws_loads_openssl(tmp_path):
    # one context per method leaves a bag to draw from in every method
    assert loads_openssl(tmp_path, "code2seq", 1)
