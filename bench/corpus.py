"""Seeded synthetic corpora for the treemine benchmark, each with its plan.

`generate(workload, seed, root)` writes a corpus of Java-like files under
`root` and returns a `Plan`: every file, whether it is meant to parse, its
method-level units with the one filter each may trip, and the counts that
`stats.json` must then report. The same seed always gives the same bytes.

No planned unit can trip more than one filter (constructors, abstract
methods and @Override methods are short and carry no second marker), so the
planned counts hold whether a rejected unit counts against every filter that
rejects it or only against the first.
"""

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long_methods", "jsonl_files", "typed_projects_par")

_VERBS = ("compute", "update", "find", "load", "store", "merge", "check",
          "build", "parse", "render", "apply", "collect", "resolve", "scan",
          "count", "select", "reset", "emit", "index", "normalize")
_NOUNS = ("Total", "Value", "Cache", "Index", "Buffer", "Record", "Entry",
          "Limit", "Offset", "Score", "Weight", "Window", "Batch", "Token",
          "Node", "Path", "Range", "State", "Count", "Name")
_CLASS_STEMS = ("Order", "Account", "Ledger", "Parser", "Router", "Matrix",
                "Catalog", "Session", "Planner", "Sampler", "Tracker",
                "Registry", "Scheduler", "Encoder", "Resolver", "Monitor")
_CLASS_ROLES = ("Service", "Manager", "Builder", "Handler", "Store", "View")
_WORDS = ("alpha", "beta", "gamma", "delta", "ready", "empty", "retry",
          "value", "total", "limit", "cache", "token")
_FIELDS = (("int", "count"), ("String", "label"), ("List<String>", "items"),
           ("double", "ratio"))
# a method of about n statements gets n * ATOMS_PER_STATEMENT leaves,
# which fixes its mining cost far more tightly than a statement count would
ATOMS_PER_STATEMENT = 4.5
_ATOM = re.compile(r'"[^"]*"|[A-Za-z_$][A-Za-z0-9_$]*|[0-9]+(?:\.[0-9]+)?')
# keywords the default ignore list drops; every other word is a leaf
_DROPPED_WORDS = frozenset({"if", "else", "while", "for", "return", "new"})

_COMMENTS = ("keep the running total in range", "fast path for small inputs",
             "the caller owns the list", "values are never negative here",
             "retry once before giving up", "order matters for the output",
             "see the class comment for the invariant", "cheap check first")


@dataclass
class UnitPlan:
    """One method-level unit; `marker` is the only filter it can trip."""
    name: str
    marker: str | None  # "constructor", "abstract_method", "override_method"
    lines: int  # line count of the declaration, as `code_lines` sees it
    statements: int


@dataclass
class FilePlan:
    relpath: str  # relative to the corpus root
    good: bool
    units: list[UnitPlan] = field(default_factory=list)
    defect: str | None = None  # how a planned-bad file was broken


@dataclass
class Plan:
    workload: str
    seed: int
    files: list[FilePlan]
    source_bytes: int

    def unit_outcome(self, unit: UnitPlan, filters: dict) -> str | None:
        """The filter that rejects `unit` under `filters`, or None if kept.

        `filters` maps each configured filter name to its parameters.
        """
        tripped = [name for name in filters if _trips(unit, name,
                                                      filters[name])]
        if len(tripped) > 1:
            raise ValueError(f"unit {unit.name} trips {tripped}")
        return tripped[0] if tripped else None

    def expected_stats(self, granularity: str, filters: dict) -> dict:
        """The counts `stats.json` must report for this corpus."""
        good = [f for f in self.files if f.good]
        rejections: dict[str, int] = {}
        if granularity == "file":
            units_before = len(good)
        else:
            units_before = 0
            for plan in good:
                for unit in plan.units:
                    units_before += 1
                    outcome = self.unit_outcome(unit, filters)
                    if outcome is not None:
                        rejections[outcome] = rejections.get(outcome, 0) + 1
        kept = units_before - sum(rejections.values())
        return {
            "files_seen": len(self.files),
            "files_parsed": len(good),
            "parse_failures": len(self.files) - len(good),
            "trees_before_filters": units_before,
            "trees_after_filters": kept,
            "samples_written": kept,
            "filter_rejections": dict(sorted(rejections.items())),
        }


def _trips(unit: UnitPlan, name: str, params: dict) -> bool:
    if name == "code_lines":
        return unit.lines > params["max_lines"]
    return unit.marker == name


def generate(workload: str, seed: int, root: Path) -> Plan:
    """Write the corpus of `workload` for `seed` under `root`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    layout = {"long_methods": _long_methods_layout,
              "jsonl_files": _jsonl_files_layout,
              "typed_projects_par": _typed_projects_layout}[workload](rng)
    files = []
    total = 0
    for serial, (relpath, shape) in enumerate(layout):
        text, units = _ClassWriter(rng, serial, shape).render()
        plan = FilePlan(relpath, True, units)
        if shape["bad"]:
            text, plan.defect = _break(rng, text)
            plan.good = False
            plan.units = []
        data = text.encode("utf-8")
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        total += len(data)
        files.append(plan)
    return Plan(workload, seed, files, total)


# -- workload layouts ----------------------------------------------------------
# A layout is a list of (relpath, shape); a shape says which units a file
# holds. Every seed gets the same file count, the same multiset of method
# sizes and the same marker counts; the seed decides where each goes and
# what the code says. So the work in a corpus, and with it every timing,
# barely depends on the seed.

def _spread(rng, lo, hi, count):
    """`count` sizes evenly spaced over [lo, hi], in seeded order."""
    sizes = [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _layout(rng, paths, *, counts, bodies, n_bad, markers, comments,
            short_range):
    """Deal `bodies` over the good files, `counts[k]` to the k-th one.

    `markers` maps a marker to how many such units to scatter over the good
    files. Broken files hold short methods only, so which files break does
    not change how much work the good ones carry.
    """
    bad = set(rng.sample(range(len(paths)), n_bad))
    good = [i for i in range(len(paths)) if i not in bad]
    if len(counts) != len(good) or sum(counts) != len(bodies):
        raise ValueError("layout does not add up")
    # deal the largest bodies first, round robin over the files in seeded
    # order, so no file gathers several long methods (peak memory follows
    # the largest file's trees)
    order = list(range(len(good)))
    rng.shuffle(order)
    slots = [k for r in range(max(counts)) for k in order if r < counts[k]]
    dealt = [[] for _ in good]
    for size, k in zip(sorted(bodies, reverse=True), slots):
        dealt[k].append(size)
    shapes = {}
    for i in bad:
        shapes[i] = {"bodies": _spread(rng, *short_range, 3), "bad": True,
                     "constructor": 1}
    for i, sizes in zip(good, dealt):
        rng.shuffle(sizes)
        shapes[i] = {"bodies": sizes, "bad": False}
    for marker, count in markers.items():
        for _ in range(count):
            shape = shapes[rng.choice(good)]
            shape[marker] = shape.get(marker, 0) + 1
    for shape in shapes.values():
        shape.update(comments=comments, short_range=short_range)
    return [(path, shapes[i]) for i, path in enumerate(paths)]


def _long_methods_layout(rng):
    # a quarter of the methods have about 40-200 statements and reach the
    # miner uncapped; the rest are short
    paths = [f"proj{i % 3}/Unit{i:03d}.java" for i in range(9)]
    bodies = _spread(rng, 40, 190, 6) + _spread(rng, 3, 12, 18)
    return _layout(rng, paths, counts=[3] * 8, bodies=bodies, n_bad=1,
                   markers={"constructor": 4, "abstract_method": 4},
                   comments=False, short_range=(3, 12))


def _jsonl_files_layout(rng):
    # whole files of 20-40 short, commented methods: front end and storage
    paths = [f"app{i % 4}/File{i:03d}.java" for i in range(24)]
    counts = _spread(rng, 20, 40, 22)
    return _layout(rng, paths, counts=counts,
                   bodies=_spread(rng, 2, 8, sum(counts)), n_bad=2,
                   markers={"constructor": 22, "abstract_method": 11,
                            "override_method": 22},
                   comments=True, short_range=(2, 8))


def _typed_projects_layout(rng):
    # many projects of uneven size, from single files to large ones, over
    # three splits plus loose files; methods short to medium with a few too
    # long for code_lines; about 5% of the files do not parse
    paths = []
    for split, sizes in (("train", [1, 1, 1, 2, 2, 3, 4, 6, 10]),
                         ("val", [1, 2, 5]), ("test", [1, 3, 6])):
        rng.shuffle(sizes)
        paths.append(f"{split}/Loose{len(paths):04d}.java")
        for p, size in enumerate(sizes):
            for _ in range(size):
                paths.append(f"{split}/lib{p:02d}/src/C{len(paths):04d}.java")
    bodies = _spread(rng, 55, 70, 12) + _spread(rng, 3, 14, 132)
    return _layout(rng, paths, counts=[3] * 48, bodies=bodies, n_bad=3,
                   markers={"constructor": 24, "abstract_method": 16,
                            "override_method": 24},
                   comments=False, short_range=(3, 14))


# -- source generation ---------------------------------------------------------

class _ClassWriter:
    """Renders one class in the supported subset, counting lines per unit."""

    def __init__(self, rng: random.Random, serial: int, shape: dict):
        self.rng = rng
        self.shape = shape
        self.lines: list[str] = []
        self.name = (f"{rng.choice(_CLASS_STEMS)}{rng.choice(_CLASS_ROLES)}"
                     f"{serial}")
        self.method_names: list[str] = []
        self.atoms = 0  # leaves emitted so far, as the AST will hold them

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)
        if text.startswith(("//", "/*")):
            self.atoms += 1
        else:
            self.atoms += sum(1 for word in _ATOM.findall(text)
                              if word not in _DROPPED_WORDS)

    def comment(self, depth: int) -> None:
        if self.shape["comments"] and self.rng.random() < 0.35:
            if self.rng.random() < 0.5:
                self.emit(depth, "// " + self.rng.choice(_COMMENTS))
            else:
                self.emit(depth, "/* " + self.rng.choice(_COMMENTS) + " */")

    def render(self) -> tuple[str, list[UnitPlan]]:
        rng = self.rng
        if rng.random() < 0.5:
            self.emit(0, f"package bench.gen{rng.randint(0, 9)};")
            self.emit(0, "import java.util.List;")
            self.emit(0, "")
        base = f" extends Base{rng.randint(0, 5)}" if rng.random() < 0.4 else ""
        self.emit(0, f"public class {self.name}{base} {{")
        for kind, name in _FIELDS:
            init = {"int": " = 0", "String": ' = "none"',
                    "double": " = 1.5"}.get(kind, "")
            self.emit(1, f"private {kind} {name}{init};")
        kinds = [None] * len(self.shape["bodies"])
        for marker in ("constructor", "abstract_method", "override_method"):
            kinds += [marker] * self.shape.get(marker, 0)
        rng.shuffle(kinds)
        bodies = iter(self.shape["bodies"])
        lo, hi = self.shape["short_range"]
        units = []
        used = set()
        for marker in kinds:
            if marker is None:
                size = next(bodies)
            elif marker == "abstract_method":
                size = 0
            else:
                size = rng.randint(lo, hi)
            self.emit(0, "")
            if self.shape["comments"] and rng.random() < 0.6:
                self.emit(1, "/** " + rng.choice(_COMMENTS) + " */")
            if marker == "constructor":
                name = self.name
            else:
                name = _fresh(rng, used)
                self.method_names.append(name)
            first = len(self.lines) + 1
            statements = self.method(marker, name, size)
            units.append(UnitPlan(name, marker, len(self.lines) - first + 1,
                                  statements))
        self.emit(0, "}")
        return "\n".join(self.lines) + "\n", units

    def method(self, marker: str | None, name: str, size: int) -> int:
        rng = self.rng
        params = [(rng.choice(("int", "String", "double", "int[]")),
                   f"{rng.choice(_WORDS)}{i}") for i in range(rng.randint(0, 3))]
        plist = ", ".join(f"{t} {n}" for t, n in params)
        if marker == "abstract_method":
            ret = rng.choice(("int", "String", "void"))
            self.emit(1, f"public abstract {ret} {name}({plist});")
            return 0
        if marker == "override_method":
            self.emit(1, "@Override")
        if marker == "constructor":
            ret = None
            self.emit(1, f"public {name}({plist}) {{")
        else:
            ret = rng.choice(("int", "int", "String", "void", "boolean"))
            mods = rng.choice(("public", "private", "protected static",
                               "public final"))
            self.emit(1, f"{mods} {ret} {name}({plist}) {{")
        body = _Body(self, name, params)
        count = body.block(2, round(size * ATOMS_PER_STATEMENT))
        if ret is not None and ret != "void":
            self.emit(2, f"return {body.expr_of(ret)};")
            count += 1
        self.emit(1, "}")
        return count


def _fresh(rng, used):
    while True:
        name = rng.choice(_VERBS) + rng.choice(_NOUNS)
        if rng.random() < 0.3:
            name += rng.choice(_NOUNS)
        if name not in used:
            used.add(name)
            return name


class _Body:
    """Statements and expressions over the variables in scope."""

    def __init__(self, writer: _ClassWriter, name: str, params):
        self.w = writer
        self.rng = writer.rng
        self.name = name
        self.vars: dict[str, list[str]] = {"int": [], "String": [],
                                           "double": [], "boolean": [],
                                           "list": [], "int[]": []}
        for kind, pname in params:
            self.vars[kind].append(pname)
        self.serial = 0

    def var(self, kind: str) -> str | None:
        names = self.vars[kind]
        return self.rng.choice(names) if names else None

    def fresh(self, stem: str) -> str:
        self.serial += 1
        return f"{stem}{self.serial}"

    def int_atom(self) -> str:
        rng = self.rng
        roll = rng.random()
        name = self.var("int")
        if name and roll < 0.45:
            return name
        if roll < 0.55:
            return "this.count"
        if roll < 0.65 and self.vars["list"]:
            return f"{self.var('list')}.size()"
        if roll < 0.72 and self.vars["int[]"]:
            return f"{self.var('int[]')}[{self.var('int') or '0'}]"
        if roll < 0.78 and self.vars["String"]:
            return f"{self.var('String')}.length()"
        return str(rng.randint(0, 99))

    def int_expr(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            return self.int_atom()
        if roll < 0.6:
            op = rng.choice(("+", "-", "*", "%", "/"))
            return f"{self.int_atom()} {op} {self.int_atom()}"
        if roll < 0.75:
            return f"({self.int_atom()} + {self.int_atom()}) * {self.int_atom()}"
        if roll < 0.9:
            fn = rng.choice(self.w.method_names or [self.name])
            return f"{fn}({self.int_atom()})"
        return f"Math.max({self.int_atom()}, {self.int_atom()})"

    def str_expr(self) -> str:
        rng = self.rng
        roll = rng.random()
        name = self.var("String")
        if name and roll < 0.35:
            return name
        if name and roll < 0.55:
            return f"{name} + \"{rng.choice(_WORDS)}\""
        if roll < 0.7:
            return f"String.valueOf({self.int_atom()})"
        if roll < 0.8:
            return "this.label"
        return f"\"{rng.choice(_WORDS)} {rng.choice(_WORDS)}\""

    def cond(self) -> str:
        rng = self.rng
        roll = rng.random()
        flag = self.var("boolean")
        if flag and roll < 0.2:
            return f"!{flag}" if rng.random() < 0.5 else flag
        if roll < 0.6:
            op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            return f"{self.int_atom()} {op} {self.int_atom()}"
        if roll < 0.8:
            return (f"{self.int_atom()} > 0 && "
                    f"{self.int_atom()} != {self.int_atom()}")
        if self.vars["String"]:
            return f"{self.var('String')}.isEmpty()"
        return f"this.count == {rng.randint(0, 9)} || this.ratio > 0.5"

    def expr_of(self, kind: str) -> str:
        if kind == "String":
            return self.str_expr()
        if kind == "boolean":
            return self.cond()
        return self.int_expr()

    def block(self, depth: int, budget: int) -> int:
        """Emit statements at `depth` until about `budget` leaves are out.

        Returns the number of statements emitted.
        """
        end = self.w.atoms + budget
        count = 0
        while self.w.atoms < end:
            self.w.comment(depth)
            count += self.statement(depth, end - self.w.atoms)
        return count

    def statement(self, depth: int, budget: int) -> int:
        rng = self.rng
        emit = self.w.emit
        roll = rng.random()
        if budget >= 20 and depth < 5 and roll < 0.28:
            return 1 + self.compound(depth, rng.randint(4, min(budget - 8, 40)))
        roll = rng.random()
        if roll < 0.18:
            name = self.fresh("total")
            emit(depth, f"int {name} = {self.int_expr()};")
            self.vars["int"].append(name)
        elif roll < 0.28:
            name = self.fresh("text")
            emit(depth, f"String {name} = {self.str_expr()};")
            self.vars["String"].append(name)
        elif roll < 0.34:
            name = self.fresh("flag")
            emit(depth, f"boolean {name} = {self.cond()};")
            self.vars["boolean"].append(name)
        elif roll < 0.38:
            name = self.fresh("scale")
            emit(depth, f"double {name} = {self.int_atom()} * 1.5;")
        elif roll < 0.42:
            name = self.fresh("names")
            emit(depth, f"List<String> {name} = new ArrayList<String>();")
            self.vars["list"].append(name)
        elif roll < 0.62 and self.vars["int"]:
            emit(depth, f"{self.var('int')} = {self.int_expr()};")
        elif roll < 0.70 and self.vars["list"]:
            emit(depth, f"{self.var('list')}.add({self.str_expr()});")
        elif roll < 0.78:
            emit(depth, f"this.count = {self.int_expr()};")
        elif roll < 0.86:
            emit(depth, f"log({self.str_expr()}, {self.int_atom()});")
        elif roll < 0.92:
            emit(depth, f"this.items.add({self.str_expr()});")
        else:
            emit(depth, f"{self.name}({self.int_atom()});")
        return 1

    def compound(self, depth: int, budget: int) -> int:
        rng = self.rng
        emit = self.w.emit
        roll = rng.random()
        saved = {k: list(v) for k, v in self.vars.items()}
        if roll < 0.45:
            emit(depth, f"if ({self.cond()}) {{")
            if budget >= 8 and rng.random() < 0.5:
                first = budget // 2
                count = self.block(depth + 1, first)
                self.vars = {k: list(v) for k, v in saved.items()}
                emit(depth, "} else {")
                count += self.block(depth + 1, budget - first)
            else:
                count = self.block(depth + 1, budget)
        elif roll < 0.7:
            emit(depth, f"while ({self.cond()}) {{")
            count = self.block(depth + 1, budget)
        else:
            i = self.fresh("i")
            emit(depth, f"for (int {i} = 0; {i} < {self.int_atom()}; "
                        f"{i} = {i} + 1) {{")
            self.vars["int"].append(i)
            count = self.block(depth + 1, budget)
        emit(depth, "}")
        self.vars = saved
        return count


# -- planned-bad files -----------------------------------------------------------

def _break(rng: random.Random, text: str) -> tuple[str, str]:
    """Damage a file so that lexing or parsing it must fail."""
    lines = text.split("\n")
    body = [i for i, line in enumerate(lines)
            if line.startswith("        ") and line.endswith(";")]
    defect = rng.choice(("stray_char", "unterminated_string",
                         "missing_semicolon", "increment", "truncated"))
    if not body:
        defect = "truncated"
    if defect == "truncated":
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("public class"))
        cut = rng.randint(start + 1, len(lines) - 2)
        return "\n".join(lines[:cut]) + "\n", defect
    at = rng.choice(body)
    indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
    if defect == "stray_char":
        lines[at] = lines[at][:-1] + " # 1;"
    elif defect == "unterminated_string":
        lines[at] = indent + 'String broken = "unterminated;'
    elif defect == "missing_semicolon":
        lines[at] = lines[at][:-1]
    else:
        lines[at] = indent + "this.count++;"
    return "\n".join(lines), defect
