"""Command-line entry point."""

import argparse
import os
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .pipeline import discover_projects, discover_splits, run, to_stderr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="treemine",
        description="Mine ML-ready path-context and tree datasets "
                    "from a Java-like source subset.")
    parser.add_argument("--config", required=True, type=Path,
                        help="path to the JSON configuration file")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the configuration and print the "
                             "discovery plan without writing anything")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="override the configured parallelism, which "
                             "is validated but starts no worker")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, parallelism=args.parallelism)
        if args.dry_run:
            _print_plan(config)
            return EXIT_OK
        run(config)
        return EXIT_OK
    except ConfigError as exc:
        to_stderr(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        to_stderr(f"i/o error: {exc}\n")
        return EXIT_IO


def _print_plan(config) -> None:
    splits = discover_splits(config.input_dir)
    print("dry run: configuration valid")
    print(f"format {config.storage_format}, granularity {config.granularity}, "
          f"extractor {config.extractor_name}, "
          f"parallelism {config.parallelism}")
    for split_name, split_root in splits:
        projects = discover_projects(split_root, config.source_extensions)
        total = sum(len(files) for _, files in projects)
        out_path = config.storage_spec().output_path(split_name)
        print(f"split {split_name}: {len(projects)} project(s), "
              f"{total} file(s) -> {out_path}")
        for label, files in projects:
            # a name's undecodable bytes are surrogate escapes, which a strict
            # UTF-8 stdout refuses: they are printed as backslash escapes
            label = label.encode("utf-8", "backslashreplace").decode("utf-8")
            print(f"  project {label}: {len(files)} file(s)")
    # a stdout that cannot take the plan fails the dry run here, not at exit
    print(end="", flush=True)


def console_entry() -> None:
    try:
        raise SystemExit(main())
    finally:
        # The interpreter flushes stdout and stderr as it exits, and a flush
        # that fails there makes the exit code 120. A broken stream keeps in
        # its buffer what it could not take, which main has reported or
        # dropped already: that goes to the null device instead.
        for stream in (sys.stdout, sys.stderr):
            if stream is None:  # its descriptor was closed at start
                continue
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    console_entry()
