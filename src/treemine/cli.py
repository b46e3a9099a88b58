"""Command-line entry point."""

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .pipeline import discover_projects, discover_splits, run

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

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        config = load_config(args.config, parallelism=args.parallelism)
        if args.dry_run:
            _print_plan(config)
            return EXIT_OK
        run(config)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
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


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
