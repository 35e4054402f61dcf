"""The library holds only what the program uses.

Three scans over the program, ``src/mmwsync`` and ``bench/``; reads and calls
in ``tests/`` do not count:

* A public top-level function or class of ``src/mmwsync`` is referenced, by
  name or as an attribute, outside its own body, and not only from
  definitions that are themselves unreferenced.  Code only the tests call
  belongs in the tests (``tests/closed_forms.py``); code nothing calls is
  deleted.
* Every field and property of a public library dataclass is read as an
  attribute.  ``asdict(x)`` reads every field of x's dataclass when x was
  built in the same function by a call whose return annotation names it;
  ``asdict`` of a value received as a parameter echoes an input and reads
  nothing (the manifest's and the hash's copy of the scenario).
* Every defaulted parameter of a public function, public method or
  dataclass constructor is passed by some call.  Calls match on the
  callee's name; ``*args`` passes every positional parameter and
  ``**kwargs`` every name.  A definition the program handles as a value
  (outside annotations) rather than calls by name may be called with
  anything, so all its parameters count as passed: ``cli.parse_config``
  builds the YAML-parsed config sections that way, through the
  ``default_factory`` of ``Scenario``'s section fields, and ``Scenario`` is
  built from ``**kwargs``, so config fields are judged by reads alone.

Matching is by name alone, so a name used anywhere counts everywhere: the
scans miss some dead code, but never name live code.  ``EXEMPT`` holds the
names that stay for now, each with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "mmwsync").glob("*.py"))
PROGRAM = LIBRARY + sorted((ROOT / "bench").rglob("*.py"))

EXEMPT = {
    "channel.BeamSpaceChannel.isi_warning":
        "set from build_channel's cp_length, which bench/microbench.py passes",
    "optimizer.BoundParams(noise_var)":
        "criterion 5 in tests/test_acceptance.py reads bound.noise_var",
    "beamforming.composite_beam_gain":
        "the brute-force oracle of criterion 5 in tests/test_acceptance.py calls it",
    "cli.main(argv)":
        "tests/test_cli.py drives the command line through it; the console script passes none",
}


# ---------------------------------------------------------------------------
# definition-level scan
# ---------------------------------------------------------------------------


def _references(node: ast.AST, skip=()) -> set[str]:
    """Names and attribute names used under ``node``, leaving out the nodes in ``skip``."""
    skipped = {id(s) for s in skip}
    found: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_definitions() -> list[str]:
    """``module.name`` of each public definition no live code refers to.

    Live code is everything in ``bench/`` and everything in ``src/`` outside
    the public top-level definitions, plus the bodies of the definitions it
    reaches, to a fixed point.
    """
    definitions = {}  # (module, name) -> names its body refers to
    live_refs: set[str] = set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(), str(path))
        public = []
        if path in LIBRARY:
            public = [node for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")]
        for node in public:
            definitions[(path.stem, node.name)] = _references(node) - {node.name}
        live_refs |= _references(tree, skip=public)
    dead = dict(definitions)
    while True:
        reached = [key for key in dead if key[1] in live_refs]
        if not reached:
            break
        for key in reached:
            live_refs |= dead.pop(key)
    return [f"{module}.{name}" for module, name in sorted(dead)]


# ---------------------------------------------------------------------------
# member-level scan
# ---------------------------------------------------------------------------


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _annotations(tree: ast.AST) -> list[ast.AST]:
    """Every annotation node: they name types, they neither read nor pass anything."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


class _Usage:
    """What the program reads and passes."""

    def __init__(self, trees: list[ast.AST]):
        self.reads: set[str] = set()  # attribute names loaded
        self.calls = defaultdict(list)  # callee -> [(n positional, keywords, *args, **kwargs)]
        self.values: set[str] = set()  # names handled as values, not called
        self.built_for_asdict: set[str] = set()  # callees whose results go through asdict
        for tree in trees:
            skipped = {id(a) for a in _annotations(tree)}
            callees = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
            stack = [tree]
            while stack:
                node = stack.pop()
                if id(node) in skipped:
                    continue
                stack.extend(ast.iter_child_nodes(node))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    self.reads.add(node.attr)
                    if id(node) not in callees:
                        self.values.add(node.attr)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if id(node) not in callees:
                        self.values.add(node.id)
                elif isinstance(node, ast.Call) and _callee(node):
                    self.calls[_callee(node)].append((
                        sum(not isinstance(a, ast.Starred) for a in node.args),
                        {k.arg for k in node.keywords if k.arg},
                        any(isinstance(a, ast.Starred) for a in node.args),
                        any(k.arg is None for k in node.keywords),
                    ))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._asdict_targets(node)

    def _asdict_targets(self, fn: ast.AST) -> None:
        built = {}  # local name -> callee of the call that built it
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)):
                built[node.targets[0].id] = _callee(node.value)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and _callee(node) == "asdict" and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in built):
                self.built_for_asdict.add(built[node.args[0].id])

    def passes(self, callee: str, index: int | None, name: str) -> bool:
        """Whether some call of ``callee`` passes parameter ``name``, which
        sits at positional ``index`` (None: keyword-only)."""
        if callee in self.values:
            return True
        return any(dstar or name in keywords or (index is not None and (star or index < n_pos))
                   for n_pos, keywords, star, dstar in self.calls[callee])


def _type_name(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if _type_name(target) == "dataclass":
            return True
    return False


def _field_spec(stmt: ast.AnnAssign) -> tuple[bool, bool]:
    """(in the constructor, has a default) of one dataclass field."""
    value = stmt.value
    if isinstance(value, ast.Call) and _callee(value) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        init = not (isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False)
        return init, "default" in kw or "default_factory" in kw
    return True, value is not None


def _defaulted(args: ast.arguments, skip_first: bool) -> list[tuple[int | None, str]]:
    """(positional index, name) of every parameter with a default; the index
    of a keyword-only one is None."""
    positional = args.posonlyargs + args.args
    offset = 1 if skip_first else 0
    first = len(positional) - len(args.defaults)
    out = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _class_members(cls: ast.ClassDef, prefix: str, usage: _Usage, written: set) -> list[str]:
    found = []
    if _is_dataclass(cls):
        fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        if cls.name not in written:
            found += [f"{prefix}.{s.target.id}" for s in fields if s.target.id not in usage.reads]
        constructor = [(s.target.id, _field_spec(s)[1]) for s in fields if _field_spec(s)[0]]
        found += [f"{prefix}({name})" for i, (name, default) in enumerate(constructor)
                  if default and not usage.passes(cls.name, i, name)]
    for member in cls.body:
        if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
            continue
        if any(_type_name(d) == "property" for d in member.decorator_list):
            if member.name not in usage.reads:
                found.append(f"{prefix}.{member.name}")
        else:
            found += [f"{prefix}.{member.name}({p})" for i, p in _defaulted(member.args, True)
                      if not usage.passes(member.name, i, p)]
    return found


def unused_members(library: dict[str, str], program: list[str]) -> list[str]:
    """Unread dataclass fields and properties, and never-passed defaulted
    parameters, of the public definitions in ``library`` (module name ->
    source), judged against the ``program`` sources.

    Names read ``module.Class.field``, ``module.Class.property``,
    ``module.function(param)``, ``module.Class(param)`` for a constructor
    and ``module.Class.method(param)``.
    """
    usage = _Usage([ast.parse(src) for src in program])
    public = {module: [node for node in ast.parse(src).body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
              for module, src in library.items()}
    returns = {node.name: _type_name(node.returns)
               for nodes in public.values() for node in nodes if isinstance(node, ast.FunctionDef)}
    written = {returns.get(callee) for callee in usage.built_for_asdict}
    found = []
    for module, nodes in public.items():
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                found += _class_members(node, f"{module}.{node.name}", usage, written)
            else:
                found += [f"{module}.{node.name}({p})" for i, p in _defaulted(node.args, False)
                          if not usage.passes(node.name, i, p)]
    return found


def _program_members() -> list[str]:
    library = {path.stem: path.read_text() for path in LIBRARY}
    return unused_members(library, [path.read_text() for path in PROGRAM])


def test_every_public_definition_has_a_program_caller():
    offenders = [name for name in unreferenced_definitions() if name not in EXEMPT]
    assert not offenders, "no caller in src/ or bench/: " + ", ".join(offenders)


def test_every_field_property_and_defaulted_parameter_is_used():
    offenders = [name for name in _program_members() if name not in EXEMPT]
    assert not offenders, "not read or passed in src/ or bench/: " + ", ".join(offenders)


def test_every_exemption_is_still_needed():
    stale = set(EXEMPT) - set(unreferenced_definitions()) - set(_program_members())
    assert not stale, "exempted but used, or gone: " + ", ".join(sorted(stale))


TOY = '''
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Reading:
    value: float
    label: str
    scale: float = field(default=1.0, init=False)
    unit: str = "m"

    @property
    def doubled(self):
        return 2 * self.value

    @property
    def halved(self):
        return self.value / 2


@dataclass(frozen=True)
class Report:
    total: float
    count: int = 0


def summarize(reading, factor=1.0, offset=0.0, rounding=None, *, strict=False) -> Report:
    return Report(reading.value * factor * reading.scale + offset, count=1)


def convert(reading, target="m"):
    return reading.doubled


def main(options):
    reading = Reading(1.0, "x", **options)
    report = summarize(reading, 2.0, strict=True)
    return asdict(report), convert(*options), reading.unit
'''


def test_scan_names_exactly_the_unused_members_of_a_module():
    # label: a field nothing reads; halved: a property nothing reads; offset: a
    # default nothing passes; rounding: the same, exempted.  scale (not in the
    # constructor), unit (passed by **options), count (read by asdict of a
    # built Report), strict (passed by keyword) and target (*args) are used.
    found = unused_members({"toy": TOY}, [TOY])
    exempt = {"toy.summarize(rounding)"}
    assert sorted(set(found) - exempt) == ["toy.Reading.halved", "toy.Reading.label",
                                           "toy.summarize(offset)"]
    assert exempt <= set(found)
