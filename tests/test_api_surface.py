"""Every public function and class of a qkeylab module has a caller in the
library or the benchmark, unless it is named below as a test oracle or a
model entry point. Names that only tests call belong in the tests."""
import ast
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
    "int_to_bits",  # teleport: inverse of the bit order teleport_index uses
    "step",  # qwalk: one validated walk step, the oracle for the walk loop
    # Entry points of the paper's models that no scenario runs yet.
    "crack_classic_dh",  # keyexchange: the eavesdropper who breaks classical DH
    "pq_candidate_keys",  # keyexchange: the eavesdropper's candidates in pq_dh
    "search",  # qwalk: one measured run of the marked-vertex search
    "walk_agreement",  # qwalk: the walk-based key agreement
}


def referenced_names():
    """Every identifier that code under src/ or perfbench/ reads or imports."""
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
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
                yield f"{module_name}.{name}", name


def test_every_public_name_has_a_caller_or_is_kept_on_purpose():
    used = referenced_names() | KEPT_WITHOUT_CALLER
    unused = [qualified for qualified, name in public_api() if name not in used]
    assert unused == []


def test_kept_names_exist():
    public = {name for _, name in public_api()}
    assert KEPT_WITHOUT_CALLER <= public
