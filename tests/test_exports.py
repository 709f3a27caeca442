"""Every public function and method is called by the system, not only by its unit tests."""

import inspect
import re
from pathlib import Path

import cramsim
from cramsim import _ckernel

ROOT = Path(__file__).resolve().parent.parent

# The code that counts as "the system": the package itself, the benchmark,
# and the acceptance criteria. Unit tests do not count.
CALLER_FILES = sorted(
    [p for p in (ROOT / "src" / "cramsim").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def _system_source() -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in CALLER_FILES)


def test_every_exported_function_has_a_caller():
    source = _system_source()
    functions = [n for n in cramsim.__all__ if not isinstance(getattr(cramsim, n), type)]
    uncalled = [n for n in functions if not re.search(rf"(?<!def )\b{n}\(", source)]
    assert not uncalled, f"exported but never called: {uncalled}"


def test_every_public_method_of_an_exported_class_has_a_caller():
    """Each public method, classmethod, staticmethod and property that an exported
    class defines is read as ``.name`` somewhere in the system."""
    source = _system_source()
    exported = [getattr(cramsim, n) for n in cramsim.__all__]
    classes = [c for c in exported if isinstance(c, type)]
    methods = [
        (cls.__name__, name) for cls in classes for name, attr in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod, property)))
    ]
    assert methods
    uncalled = [f"{c}.{n}" for c, n in methods if not re.search(rf"\.{n}\b", source)]
    assert not uncalled, f"public but never called: {uncalled}"


def test_every_compiled_entry_point_is_bound():
    """The library exports exactly the functions that the loader binds."""
    source = _ckernel._SOURCE.read_text(encoding="utf-8")
    defined = set(re.findall(r"^(?!static\b)[A-Za-z_][\w *]*\b(cramsim_\w+)\(", source, re.M))
    bound = set(re.findall(r"\blib\.(cramsim_\w+)", inspect.getsource(_ckernel._load)))
    assert defined and defined == bound
