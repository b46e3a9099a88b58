"""End-to-end and per-layer benchmark for treemine.

One workload; the last line printed is one JSON object with the metrics:

    python3 bench/run.py --workload long_methods --seed 3 --seconds 30 --trace 0

Every workload, untraced and then traced, with a readable report; exits
non-zero if any correctness check fails:

    python3 bench/run.py

End-to-end numbers time the `treemine` CLI as a subprocess over a corpus
generated from the seed (see corpus.py). Per-layer numbers come from a
separate traced, in-process replay (see replay.py); the program itself
carries no timers. Work files go to `.bench_work/` at the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
MIN_REPS = 3  # timed CLI runs per invocation, however short --seconds is
UNTRACED_REPS = 3  # untraced CLI runs in a traced invocation


def _nproc() -> int:
    # threads, so a large machine must not get a huge pool
    return max(1, min(len(os.sched_getaffinity(0)), 8))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "long_methods": {
        "granularity": "method",
        "filters": [{"name": "abstract_method"}, {"name": "constructor"}],
        "label_extractor": {"name": "method_name"},
        "storage": {"format": "code2seq"},
        "parallelism": 1,
    },
    "jsonl_files": {
        "granularity": "file",
        "filters": [],
        "label_extractor": {"name": "none"},
        "storage": {"format": "jsonl_trees"},
        "parallelism": 1,
    },
    "typed_projects_par": {
        "granularity": "method",
        "filters": [{"name": "code_lines", "parameters": {"max_lines": 60}},
                    {"name": "abstract_method"},
                    {"name": "override_method"},
                    {"name": "constructor"}],
        "label_extractor": {"name": "method_name"},
        "storage": {"format": "code2seq_typed"},
        "parallelism": None,  # the CPUs this process may use
    },
}

END_TO_END = (("source_kb_per_s", "KB/s"), ("samples_per_s", "samples/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER_UNITS = {
    "lexer.busy_s": "s", "lexer.tokens": "count",
    "parser.busy_s": "s", "parser.cst_nodes": "count",
    "parser.failures": "count",
    "ast_builder.busy_s": "s", "ast_builder.nodes": "count",
    "type_resolver.busy_s": "s", "type_resolver.resolved_share": "ratio",
    "granularity.busy_s": "s", "granularity.units": "count",
    "filters.busy_s": "s", "filters.kept_share": "ratio",
    "labels.busy_s": "s", "labels.nodes": "count",
    "paths.enumerate_busy_s": "s", "paths.sample_busy_s": "s",
    "paths.leaf_pairs": "count", "paths.contexts_mined": "count",
    "paths.contexts_kept": "count", "paths.kept_share": "ratio",
    "storage.format_busy_s": "s", "storage.write_busy_s": "s",
    "storage.bytes_out": "bytes",
    "pipeline.file_s_p50": "s", "pipeline.file_s_tail": "s",
    "pipeline.file_samples": "count", "pipeline.parallel_utilisation": "ratio",
    "pipeline.escaped_errors": "count",
    "trace.overhead_share": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here at all."""


# -- running the CLI -------------------------------------------------------------

class CliRun(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    code: int


# Linux charges a child's ru_maxrss with the peak RSS of the process it was
# forked from, so the CLI is started from this small launcher rather than
# from the benchmark process, which is often larger than the CLI itself.
_LAUNCHER = """
import json, os, subprocess, sys, time
with open(sys.argv[1], "wb") as err:
    start = time.perf_counter()
    child = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL,
                             stderr=err)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
child.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, child.returncode]))
"""


def run_cli(config_path: Path, *extra: str, log: Path) -> CliRun:
    """Run the treemine CLI from this checkout's sources and measure it.

    Wall time, CPU time and peak RSS cover the CLI process alone; the last
    two come from wait4.
    """
    argv = [sys.executable, "-c",
            "import sys; from treemine.cli import main; sys.exit(main())",
            "--config", str(config_path), *extra]
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(log), *argv],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return CliRun(*json.loads(launched.stdout))


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every dataset file in out_dir (stats.json is checked apart)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "stats.json"}


class Workload:
    """One workload's corpus, plan, configuration and checks."""

    def __init__(self, name: str, seed: int):
        import corpus

        self.dir = WORK / f"{name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.plan = corpus.generate(name, seed, self.dir / "corpus")
        raw = dict(WORKLOADS[name])
        self.parallelism = raw["parallelism"] or _nproc()
        raw.update(input_dir=str(self.dir / "corpus"),
                   output_dir=str(self.dir / "out"),
                   dataset_name=name, parallelism=self.parallelism)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(raw, indent=2),
                                    encoding="utf-8")
        filters = {f["name"]: f.get("parameters", {}) for f in raw["filters"]}
        self.expected = self.plan.expected_stats(raw["granularity"], filters)
        self.pinned = None
        if seed == DEFAULT_SEED:
            pins = json.loads((BENCH_DIR / "pinned.json").read_text("utf-8"))
            self.pinned = pins[name]

    @property
    def out_dir(self) -> Path:
        return self.dir / "out"

    @property
    def n_files(self) -> int:
        return len(self.plan.files)

    def run(self, *extra: str) -> CliRun:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return run_cli(self.config_path, *extra, log=self.dir / "cli.log")

    def check(self, result: CliRun, reference: dict | None) -> list[str]:
        """Problems with the run that just finished; empty when correct."""
        if result.code != 0:
            log = (self.dir / "cli.log").read_text("utf-8", "replace")
            return [f"exit code {result.code}: {log[-400:]}"]
        try:
            stats = json.loads((self.out_dir / "stats.json").read_text("utf-8"))
        except (OSError, ValueError) as exc:
            return [f"unreadable stats.json: {exc}"]
        problems = []
        for key, want in self.expected.items():
            if stats.get(key) != want:
                problems.append(f"stats {key}: got {stats.get(key)}, "
                                f"planned {want}")
        got = digests(self.out_dir)
        lines = sum(len((self.out_dir / n).read_bytes().splitlines())
                    for n in got)
        if lines != self.expected["samples_written"]:
            problems.append(f"{lines} dataset lines, planned "
                            f"{self.expected['samples_written']}")
        for label, want in (("pinned", self.pinned),
                            ("reference", reference)):
            if want is not None and got != want:
                problems.append(f"dataset bytes differ from the {label} "
                                f"digests")
        return problems

    def reference_run(self) -> tuple[CliRun, dict, list[str]]:
        """One untimed run, at the configured parallelism, whose bytes every
        other run (timed ones at parallelism 1) must repeat."""
        result = self.run()
        problems = self.check(result, None)
        ref = digests(self.out_dir) if result.code == 0 else {}
        return result, ref, problems


# -- the two kinds of invocation -----------------------------------------------------

def measure_end_to_end(w: Workload, seconds: float) -> dict:
    """Time the CLI over and over for `seconds`, with a dry run after each.

    Timed runs use parallelism 1 (the CLI's --parallelism override). With
    threads under one interpreter lock on a shared 2-vCPU host, the wall time
    of a parallel run follows how soon the host schedules the second vCPU
    for each lock handoff: over ten seeds the throughput of parallelism-2
    runs spread by 0.36 of its median, against about 0.1 at parallelism 1.
    The parallel run remains as the reference every timed run must repeat,
    and its utilisation is reported by the traced invocation.

    Throughput is total work over total wall time, and cpu_s the mean per
    run: this machine's speed drifts between regimes lasting several runs,
    and a mean over the whole window steadies the figures where a median
    would flip between regimes.
    """
    _, ref, problems = w.reference_run()
    runs, setup, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        result = w.run("--parallelism", "1")
        bad = w.check(result, ref)
        if bad:
            failed += w.n_files
            problems.extend(bad)
        runs.append(result)
        dry = w.run("--dry-run")
        if dry.code != 0:
            problems.append(f"dry run exited {dry.code}")
        setup.append(dry.wall)
    wall = sum(r.wall for r in runs)
    metrics = {
        "source_kb_per_s": len(runs) * w.plan.source_bytes / 1024.0 / wall,
        "samples_per_s": len(runs) * w.expected["samples_written"] / wall,
        "cpu_s": sum(r.cpu for r in runs) / len(runs),
        "peak_rss_mb": median(r.rss_mb for r in runs),
        "setup_s": median(setup),
    }
    notes = {"runs": len(runs), "files": w.n_files,
             "source_bytes": w.plan.source_bytes,
             "samples": w.expected["samples_written"],
             "reference_parallelism": w.parallelism}
    return _result(problems, w.n_files * len(runs), failed, metrics,
                   dict(END_TO_END), notes)


def measure_layers(w: Workload, seconds: float) -> dict:
    import replay
    from treemine.config import load_config, validate_config

    started = time.perf_counter()
    _, ref, problems = w.reference_run()
    attempted, failed = w.n_files, (w.n_files if problems else 0)

    def untraced(*extra):
        nonlocal attempted, failed
        result = w.run(*extra)
        bad = w.check(result, ref)
        attempted += w.n_files
        if bad:
            failed += w.n_files
            problems.extend(bad)
        return result

    runs = [untraced() for _ in range(UNTRACED_REPS)]
    p1_runs = runs if w.parallelism == 1 else [
        untraced("--parallelism", "1") for _ in range(UNTRACED_REPS)]
    p1_wall = median(r.wall for r in p1_runs)

    config = load_config(w.config_path)
    busy, replay_walls, file_walls = [], [], []
    deadline = started + seconds
    while not replay_walls or time.perf_counter() < deadline:
        tracer = replay.Tracer()
        out = w.dir / "replay"
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        counts = replay.replay(config, out, tracer)
        replay_walls.append(time.perf_counter() - start)
        attempted += w.n_files
        if digests(out) != ref:
            print("trace stale: the replay's dataset bytes differ from the "
                  "CLI's, so no per-layer numbers are published",
                  file=sys.stderr)
            return _result(problems + ["trace stale"], attempted,
                           failed + w.n_files, {}, {}, {})
        busy.append(tracer.busy())
        file_walls.extend(tracer.file_seconds())
    tracer.dump(w.dir / "trace.tsv")
    # the probe always uses the typed_projects_par configuration
    probe_config = validate_config(dict(
        WORKLOADS["typed_projects_par"], input_dir=str(w.dir),
        output_dir=str(w.dir / "probe_out"), parallelism=1))
    escaped = replay.probe(probe_config, w.dir / "probe")

    def layer(name):
        return median(b.get(name, 0.0) for b in busy)

    # every file of every replay is one request; the tail is the highest
    # percentile with ten requests beyond it (the maximum if there are fewer)
    files = sorted(file_walls)
    tail_index = len(files) - 11 if len(files) > 10 else len(files) - 1
    wall, cpu = sum(r.wall for r in runs), sum(r.cpu for r in runs)
    c = counts
    metrics = {
        "lexer.busy_s": layer("lexer.tokenize"),
        "lexer.tokens": c.tokens,
        "parser.busy_s": layer("parser.parse_file") - layer("lexer.tokenize"),
        "parser.cst_nodes": c.cst_nodes,
        "parser.failures": c.parse_failures,
        "ast_builder.busy_s": layer("ast_builder.build_ast"),
        "ast_builder.nodes": c.ast_nodes,
        "type_resolver.busy_s": layer("type_resolver.annotate_types"),
        "type_resolver.resolved_share": _share(c.typed_leaves, c.leaves),
        "granularity.busy_s": layer("granularity.split"),
        "granularity.units": c.units,
        "filters.busy_s": layer("filters.accept"),
        "filters.kept_share": _share(c.kept, c.units),
        "labels.busy_s": layer("labels.extract"),
        "labels.nodes": c.label_nodes,
        "paths.enumerate_busy_s": layer("paths.enumerate_paths"),
        "paths.sample_busy_s": layer("paths.sample_contexts"),
        "paths.leaf_pairs": c.leaf_pairs,
        "paths.contexts_mined": c.contexts_mined,
        "paths.contexts_kept": c.contexts_kept,
        "paths.kept_share": _share(c.contexts_kept, c.contexts_mined),
        "storage.format_busy_s": layer("storage.format_sample"),
        "storage.write_busy_s": layer("storage.write"),
        "storage.bytes_out": c.bytes_out,
        "pipeline.file_s_p50": median(files),
        "pipeline.file_s_tail": files[tail_index],
        "pipeline.file_samples": len(files),
        "pipeline.parallel_utilisation": cpu / (wall * w.parallelism),
        "pipeline.escaped_errors": len(escaped),
        "trace.overhead_share": median(replay_walls) / p1_wall - 1.0,
    }
    bases = {
        "type_resolver.resolved_share": f"of {c.leaves} leaves",
        "filters.kept_share": f"of {c.units} units",
        "paths.kept_share": f"of {c.contexts_mined} mined contexts",
        "pipeline.file_s_tail":
            f"p{100.0 * tail_index / max(1, len(files) - 1):.1f} "
            f"of {len(files)} file requests",
        "pipeline.file_s_p50": f"of {len(files)} file requests",
        "pipeline.parallel_utilisation":
            f"cpu {cpu:.3f} s / (wall {wall:.3f} s x parallelism "
            f"{w.parallelism}) over {len(runs)} untraced runs",
        "pipeline.escaped_errors":
            f"of {len(replay.adversarial_files())} probe files: "
            + (", ".join(escaped) or "none"),
        "trace.overhead_share":
            f"replay {median(replay_walls):.3f} s vs untraced CLI "
            f"{p1_wall:.3f} s at parallelism 1",
    }
    notes = {"replays": len(replay_walls), "untraced_runs": len(runs),
             "bases": bases}
    return _result(problems, attempted, failed, metrics, PER_LAYER_UNITS,
                   notes)


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _result(problems, attempted, failed, metrics, units, notes) -> dict:
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "problems": problems,
        "notes": notes,
    }


# -- entry points -------------------------------------------------------------------

def prepare() -> None:
    """Fail unless this checkout holds treemine's sources; import them."""
    if not (SRC / "treemine" / "cli.py").is_file():
        raise BenchError(f"no treemine sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import treemine

    if Path(treemine.__file__).resolve().parent != SRC / "treemine":
        raise BenchError(f"imported treemine from {treemine.__file__}")


def invoke(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = Workload(workload, seed)
    try:
        if trace:
            return measure_layers(w, seconds)
        return measure_end_to_end(w, seconds)
    finally:
        shutil.rmtree(w.dir / "corpus", ignore_errors=True)
        shutil.rmtree(w.dir / "replay", ignore_errors=True)
        shutil.rmtree(w.out_dir, ignore_errors=True)


def report(workload: str, result: dict) -> None:
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    notes = result["notes"]
    bases = notes.pop("bases", {})
    print(f"  {workload}: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    failed_share = result["failed"] / max(1, result["attempted"])
    print(f"  failed_share {failed_share:.4f} ratio "
          f"({result['failed']} of {result['attempted']} files)")
    for name, metric in result["metrics"].items():
        base = f"  [{bases[name]}]" if name in bases else ""
        print(f"  {workload:20s} {name:32s} {metric['value']:14.6f} "
              f"{metric['unit']}{base}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    try:
        prepare()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.workload is not None:
        result = invoke(args.workload, args.seed, args.seconds,
                        bool(args.trace))
        report(args.workload, result)
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    traces = (0, 1) if args.trace is None else (args.trace,)
    correct = True
    for trace in traces:
        print("per-layer (traced replay)" if trace
              else "end-to-end (untraced CLI)")
        for workload in WORKLOADS:
            result = invoke(workload, args.seed, args.seconds, bool(trace))
            report(workload, result)
            correct = correct and result["correct"]
    print("all checks passed" if correct else "CORRECTNESS CHECK FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
