"""The library holds only what the program uses.

Three scans over the program, ``src/mmwsync`` and ``bench/``; reads and calls
in ``tests/`` do not count:

* A public top-level function or class of ``src/mmwsync`` is referenced, by
  name or as an attribute, outside its own body, and not only from
  definitions that are themselves unreferenced.  A private top-level
  function, class or assigned name must be referenced so by ``src`` code
  alone: a seam kept only for the tests (or ``bench/``) fails.  Code only
  the tests call belongs in the tests (``tests/closed_forms.py``); code
  nothing calls is deleted.
* Every field and property of a public library dataclass is read as an
  attribute.  ``asdict`` reads nothing: it echoes every field, used or not
  (the manifest's and the hash's copy of the scenario).
* Every defaulted parameter of a public function, public method or
  dataclass constructor is passed by some call.  Calls match on the
  callee's name; ``*args`` passes every positional parameter and
  ``**kwargs`` every name.  A definition the program handles as a value
  (outside annotations) rather than calls by name may be called with
  anything, so all its parameters count as passed: ``config.parse_config``
  builds the YAML-parsed config sections that way, through the
  ``default_factory`` of ``Scenario``'s section fields, and ``Scenario`` is
  built from ``**kwargs``, so config fields are judged by reads alone.

Matching is by name alone, so a name used anywhere counts everywhere: the
scans miss some dead code, but never name live code.  ``EXEMPT`` holds the
names that stay for now, each with its reason.  ``BENCH_ONLY`` holds the
names that the first two scans find used in ``bench/`` and nowhere else in
the program, each with the bench code that uses it: the benchmark alone
keeps them, so a name added that only the benchmark calls fails the check.

Two more scans read ``tests/``: a patch, call or read of a private library
name checks how the program is built, not what it computes.
``PATCHED_PRIVATE`` lists each patch and ``READ_PRIVATE`` each other call or
read, with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "mmwsync").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
PROGRAM = LIBRARY + BENCH

EXEMPT = {
    "channel.BeamSpaceChannel.isi_warning":
        "set from build_channel's cp_length, which bench/microbench.py passes",
    "optimizer.BoundParams(noise_var)":
        "criterion 5 in tests/test_acceptance.py reads bound.noise_var",
    "beamforming.composite_beam_gain":
        "the brute-force oracle of criterion 5 in tests/test_acceptance.py calls it",
}

# the name -> "file: code" of the bench code that alone keeps it used
BENCH_ONLY = {
    "channel.RaisedCosinePulse": "bench/microbench.py: chan.RaisedCosinePulse(0.25)",
    "channel.RaisedCosinePulse(rolloff)": "bench/microbench.py: chan.RaisedCosinePulse(0.25)",
    "channel.build_channel": "bench/microbench.py: chan.build_channel(paths, geom_tx, geom_rx, TAPS, pulse, CP)",
    "channel.build_channel(pulse)": "bench/microbench.py: chan.build_channel(paths, geom_tx, geom_rx, TAPS, pulse, CP)",
    "channel.build_channel(cp_length)":
        "bench/microbench.py: chan.build_channel(paths, geom_tx, geom_rx, TAPS, pulse, CP)",
    "channel.propagate(rng)": "bench/microbench.py: chan.propagate(ch, x, tx, 0.0, 0.0, 0, N, rng)",
    "quantization.apply": "bench/microbench.py: quant.apply(adc, window, agc)",
    "quantization.xi_for_bits": "bench/run.py: self.pkg.quantization.xi_for_bits(int(bits))",
    "quantization._XI": "bench/run.py: self.pkg.quantization.xi_for_bits(int(bits))",  # through its body
    "quantization.AdcModel.clip_scale": "bench/microbench.py: inside = np.abs(u) <= adc.clip_scale",
    "waveform.SyncWaveform.samples_with_cp": "bench/microbench.py: wf.samples_with_cp",
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


def _defined_name(node: ast.AST) -> str | None:
    """The name a top-level statement defines and the scan judges: a function
    or class, or a private name bound by assignment; a dunder is neither."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        name = node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        name = targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else ""
        if not name.startswith("_"):
            return None  # a public constant is not judged
    else:
        return None
    return None if name.startswith("__") else name


def unreferenced_definitions(library: dict[str, str], bench: list[str]) -> list[str]:
    """``module.name`` of each definition of ``library`` (module name ->
    source) no live code refers to.

    Live code is the library outside its judged top-level definitions, plus
    the bodies of the definitions it reaches, to a fixed point.  A public
    definition is also reached from the ``bench`` sources; a private one only
    from the library.
    """
    definitions = {}  # (module, name) -> names its body refers to
    live_refs: set[str] = set()
    for module, source in library.items():
        tree = ast.parse(source)
        judged = [node for node in tree.body if _defined_name(node)]
        for node in judged:
            definitions[(module, _defined_name(node))] = _references(node) - {_defined_name(node)}
        live_refs |= _references(tree, skip=judged)
    bench_refs = set().union(*(_references(ast.parse(source)) for source in bench))
    dead = dict(definitions)
    while True:
        reached = [key for key in dead
                   if key[1] in live_refs or (not key[1].startswith("_") and key[1] in bench_refs)]
        if not reached:
            break
        for key in reached:
            live_refs |= dead.pop(key)
    return [f"{module}.{name}" for module, name in sorted(dead)]


def _program_definitions(bench: list[Path] = BENCH) -> list[str]:
    library = {path.stem: path.read_text() for path in LIBRARY}
    return unreferenced_definitions(library, [path.read_text() for path in bench])


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


def _class_members(cls: ast.ClassDef, prefix: str, usage: _Usage) -> list[str]:
    found = []
    if _is_dataclass(cls):
        fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
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
    found = []
    for module, nodes in public.items():
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                found += _class_members(node, f"{module}.{node.name}", usage)
            else:
                found += [f"{module}.{node.name}({p})" for i, p in _defaulted(node.args, False)
                          if not usage.passes(node.name, i, p)]
    return found


def _program_members(program: list[Path] = PROGRAM) -> list[str]:
    library = {path.stem: path.read_text() for path in LIBRARY}
    return unused_members(library, [path.read_text() for path in program])


def test_every_public_definition_has_a_program_caller():
    offenders = [name for name in _program_definitions() if name not in EXEMPT]
    assert not offenders, "no caller in src/ (or, if public, bench/): " + ", ".join(offenders)


def test_every_field_property_and_defaulted_parameter_is_used():
    offenders = [name for name in _program_members() if name not in EXEMPT]
    assert not offenders, "not read or passed in src/ or bench/: " + ", ".join(offenders)


def test_every_exemption_is_still_needed():
    stale = set(EXEMPT) - set(_program_definitions()) - set(_program_members())
    assert not stale, "exempted but used, or gone: " + ", ".join(sorted(stale))


def test_what_only_bench_keeps_used_is_listed_with_its_bench_code():
    found = ((set(_program_definitions(bench=[])) - set(_program_definitions()))
             | (set(_program_members(program=LIBRARY)) - set(_program_members())))
    assert sorted(found) == sorted(BENCH_ONLY)
    for name, use in BENCH_ONLY.items():
        path, code = use.split(": ", 1)
        assert code in (ROOT / path).read_text(), name


# (the function that patches, the private name) -> what the patch sees that no public name shows
PATCHED_PRIVATE = {
    ("test_nonfinite_noise_sample_is_rejected", "_unit_noise"): "a noise window, to plant a NaN or inf in",
    ("noise_draws_per_trial", "_trials"): "where each trial's draws begin",
    ("noise_draws_per_trial", "_unit_noise"): "each noise window a trial draws",
}


def _mmwsync_modules(tree: ast.AST) -> set[str]:
    """The names that ``from mmwsync import ...`` binds in ``tree``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "mmwsync" for alias in node.names}


def private_patches(source: str) -> list[tuple[str, str]]:
    """(innermost function, name) of each ``setattr(m, "_name", ...)`` on a module m from ``mmwsync``."""
    tree = ast.parse(source)
    modules = _mmwsync_modules(tree)
    patches = {}
    for func in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one's claim
        for call in ast.walk(func) if isinstance(func, ast.FunctionDef) else ():
            if (isinstance(call, ast.Call) and _callee(call) == "setattr" and len(call.args) > 1
                    and isinstance(call.args[0], ast.Name) and call.args[0].id in modules
                    and isinstance(call.args[1], ast.Constant) and str(call.args[1].value).startswith("_")):
                patches[id(call)] = (func.name, call.args[1].value)
    return list(patches.values())


def test_tests_patch_only_the_listed_private_names():
    found = [patch for path in sorted(ROOT.glob("tests/*.py")) for patch in private_patches(path.read_text())]
    assert sorted(found) == sorted(PATCHED_PRIVATE)


# (the function that calls or reads, the private name) -> what it checks that no public name shows.  A
# function that patches a name may read it too (to wrap the original); its PATCHED_PRIVATE entry covers that.
READ_PRIVATE = {
    ("test_unit_noise_byte_identical_to_complex_division", "_unit_noise"): "its draws against a complex division",
    ("test_rejected_naming_a_key_or_finite_aggregates", "_EXPERIMENTS"): "the modes each experiment runs in",
    ("test_next_fast_len_matches_scipy", "_next_fast_len"): "the FFT length rule against scipy's",
    ("solve_xi", "_validate_bits"): "the library's bits rule, so the oracle takes the same inputs",
    ("solve_clip_scale", "_validate_bits"): "the library's bits rule, so the oracle takes the same inputs",
}


def private_reads(source: str) -> list[tuple[str, str]]:
    """(innermost function, name) of each read or call of ``m._name`` on a module m from ``mmwsync``,
    and of each ``from mmwsync.m import _name``; outside any function the function is ``<module>``."""
    tree = ast.parse(source)
    modules = _mmwsync_modules(tree)
    reads = {}
    for scope in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one's claim
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        name = scope.name if isinstance(scope, ast.FunctionDef) else "<module>"
        for node in ast.walk(scope):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                    and node.attr.startswith("_") and not node.attr.startswith("__")):
                reads[id(node)] = (name, node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mmwsync."):
                reads.update({(id(node), a.name): (name, a.name) for a in node.names if a.name.startswith("_")})
    return list(reads.values())


def test_tests_read_only_the_listed_private_names():
    found = {read for path in sorted(ROOT.glob("tests/*.py")) for read in private_reads(path.read_text())}
    assert sorted(found - set(PATCHED_PRIVATE)) == sorted(READ_PRIVATE)


TOY_TEST = """
from mmwsync import detector, montecarlo as mc
from mmwsync.quantization import _validate_bits


def test_outer(monkeypatch):
    original = mc._front_end
    monkeypatch.setattr(mc, "_front_end", original)

    def inner():
        return detector._next_fast_len(3), mc.__file__, mc.run_sqnr_experiment

    return inner


EXPERIMENTS = mc._EXPERIMENTS
"""


def test_scans_name_exactly_the_private_patches_and_reads_of_a_test_module():
    # the patch's read of the original it wraps is a read too; a dunder and a public name are neither
    assert private_patches(TOY_TEST) == [("test_outer", "_front_end")]
    assert sorted(private_reads(TOY_TEST)) == [("<module>", "_EXPERIMENTS"), ("<module>", "_validate_bits"),
                                               ("inner", "_next_fast_len"), ("test_outer", "_front_end")]


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
    # label, count and total: fields nothing reads (asdict of a Report reads
    # none); halved: a property nothing reads; offset: a default nothing
    # passes; rounding: the same, exempted.  scale (not in the constructor),
    # unit (passed by **options), strict (passed by keyword) and target
    # (*args) are used.
    found = unused_members({"toy": TOY}, [TOY])
    exempt = {"toy.summarize(rounding)"}
    assert sorted(set(found) - exempt) == ["toy.Reading.halved", "toy.Reading.label", "toy.Report.count",
                                           "toy.Report.total", "toy.summarize(offset)"]
    assert exempt <= set(found)


TOY_LIBRARY = '''
_SCALE = 2.0
_UNUSED: float = 3.0
__all__ = ["api"]


def _helper(x):
    return x * _SCALE


def _seam(x):
    return _inner(x)


def _inner(x):
    return x


def _recursive(n):
    return _recursive(n - 1) if n else 0


def _bench_only():
    return 0


def api(x):
    return _helper(x)


def orphan():
    return orphan


def __getattr__(name):
    raise AttributeError(name)
'''

TOY_BENCH = """
import toy

toy.api(1)
toy._bench_only()
"""


def test_scan_names_exactly_the_unreferenced_definitions_of_a_module():
    # api is public and bench calls it, so _helper and then _SCALE are
    # reached through its body.  _bench_only is private, so bench's call
    # does not count; _inner is reached only from the dead _seam, and
    # _recursive and orphan only from themselves.  Dunders are not judged.
    found = unreferenced_definitions({"toy": TOY_LIBRARY}, [TOY_BENCH])
    assert found == ["toy._UNUSED", "toy._bench_only", "toy._inner", "toy._recursive", "toy._seam",
                     "toy.orphan"]
