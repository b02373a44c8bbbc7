"""Every public function and class of a qkeylab module has a caller in the
library or the benchmark, unless it is named below as a test oracle or a
model entry point. Names that only tests call belong in the tests.

The same holds one level down: every public method of a public class is
called and every public property read in the library or the benchmark, and
every defaulted parameter of a public function, method or class is set by
some call there, unless it is named below. A member or an option that only
tests use is surface without a use."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import qkeylab

ROOT = Path(__file__).resolve().parents[1]

KEPT_WITHOUT_CALLER = {
    # Slow, obvious twins that tests compare the fast paths against.
    "bit_at",  # broadcast: one bit of the stream, the bits_range oracle
    "frobenius_trace",  # ecurve: a_p from a point count, the parity oracle
    "teleport_branches",  # teleport: all four outcomes of teleport_state
    "step",  # qwalk: one validated walk step, the oracle for the walk loop
    "phase",  # qstate: the PHASE gate of the chained rung circuit, the clock-sync ladder's oracle
    "measurement_probabilities",  # qstate: one state's Born weights, that oracle's readout
    # Entry points of the paper's models that no scenario runs yet.
    "crack_classic_dh",  # keyexchange: the eavesdropper who breaks classical DH
    "pq_candidate_keys",  # keyexchange: the eavesdropper's candidates in pq_dh
    "walk_agreement",  # qwalk: the walk-based key agreement
}

KEPT_UNUSED_MEMBERS = {
    # The eavesdropper's view of a transcript, which the security tests assert on.
    "Transcript.eve_view",
}

KEPT_UNSET_DEFAULTS = {
    "main.argv",  # cli: the console entry point passes nothing and reads sys.argv
}


def library_trees():
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        yield ast.parse(path.read_text(), str(path))


def referenced_names():
    """Every identifier that code under src/ or perfbench/ reads or imports."""
    names = set()
    for tree in library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def caller_names():
    """Every identifier that code under src/ or perfbench/ calls, imports or
    reads off a qkeylab module. Unlike `referenced_names`, a field or local
    variable of the same name does not count."""
    modules = {info.name for info in pkgutil.iter_modules(qkeylab.__path__)}
    names = set()
    for tree in library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                names.add(_callee(node))
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                names.add(node.attr)
    return names


def public_api():
    for info in pkgutil.iter_modules(qkeylab.__path__):
        module_name = info.name
        module = importlib.import_module(f"qkeylab.{module_name}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            ):
                yield f"{module_name}.{name}", name, obj


def public_members():
    """("Class.name", name, is_property) for each public method and property
    of a public class."""
    for _, class_name, cls in public_api():
        if not inspect.isclass(cls):
            continue
        for name, value in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(value, property):
                yield f"{class_name}.{name}", name, True
            elif inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod)):
                yield f"{class_name}.{name}", name, False


def unused_members():
    """"Class.name" for every public method that no code under src/ or
    perfbench/ calls as `x.name(...)` and every public property that none
    reads as `x.name`."""
    called, read = set(), set()
    for tree in library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {
        qualified
        for qualified, name, is_property in public_members()
        if name not in (read if is_property else called)
    }


def _callee(call: ast.Call) -> str | None:
    """The called name, or None for a callable looked up at run time."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted(fn, skip_first: bool, factory_fields=()):
    """(position, name) of each defaulted parameter; position is None for a
    keyword-only one."""
    params = list(inspect.signature(fn).parameters.values())[skip_first:]
    return [
        (None if p.kind is p.KEYWORD_ONLY else i, p.name)
        for i, p in enumerate(params)
        if p.default is not p.empty and p.name not in factory_fields
    ]


def public_defaults():
    """(callee name, defaulted parameters) of every public function, public
    method and class __init__. Dataclass fields with a default_factory are
    accumulators, not options, and are left out."""
    for _, name, obj in public_api():
        if not inspect.isclass(obj):
            yield name, _defaulted(obj, False)
            continue
        if "__init__" in vars(obj):
            factories = (
                {f.name for f in dataclasses.fields(obj) if f.default_factory is not dataclasses.MISSING}
                if dataclasses.is_dataclass(obj)
                else set()
            )
            yield name, _defaulted(obj.__init__, True, factories)
        for method_name, method in vars(obj).items():
            if not method_name.startswith("_") and inspect.isfunction(method):
                yield method_name, _defaulted(method, True)


def _sets(call: ast.Call, position: int | None, param: str) -> bool:
    return (
        any(kw.arg in (param, None) for kw in call.keywords)
        or any(isinstance(arg, ast.Starred) for arg in call.args)
        or (position is not None and position < len(call.args))
    )


def unset_defaults():
    """"callee.param" for every defaulted parameter that no call under src/
    or perfbench/ sets.

    A call sets a parameter when it names it as a keyword, reaches its
    position with positional arguments, or passes *args or **kwargs to a
    callable of that name. A keyword passed to a callable looked up at run
    time, such as `table[key](size, marked=...)`, counts for every callee."""
    calls = [node for tree in library_trees() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    looked_up = {kw.arg for call in calls if _callee(call) is None for kw in call.keywords}
    unset = set()
    for name, params in public_defaults():
        named = [call for call in calls if _callee(call) == name]
        for position, param in params:
            if param not in looked_up and not any(_sets(c, position, param) for c in named):
                unset.add(f"{name}.{param}")
    return unset


def test_every_public_name_has_a_caller_or_is_kept_on_purpose():
    used = referenced_names() | KEPT_WITHOUT_CALLER
    unused = [qualified for qualified, name, _ in public_api() if name not in used]
    assert unused == []


def test_kept_names_exist():
    public = {name for _, name, _ in public_api()}
    assert KEPT_WITHOUT_CALLER <= public
    # A kept name that has gained a caller no longer needs the exemption.
    assert KEPT_WITHOUT_CALLER & caller_names() == set()


def test_every_public_member_is_used_or_kept_on_purpose():
    unused = unused_members()
    assert sorted(unused - KEPT_UNUSED_MEMBERS) == []
    # Every kept entry still exists and still has no caller.
    assert sorted(KEPT_UNUSED_MEMBERS - unused) == []


def test_every_default_is_set_by_a_caller_or_kept_on_purpose():
    unset = unset_defaults()
    assert sorted(unset - KEPT_UNSET_DEFAULTS) == []
    # Every kept entry still exists and still has no caller that sets it.
    assert sorted(KEPT_UNSET_DEFAULTS - unset) == []
