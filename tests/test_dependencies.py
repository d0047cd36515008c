"""The runtime stays numpy-only: every import in the package, at module
level or inside a function, names the standard library, numpy or the
package itself. And every memo it keeps is bounded: each
`functools.lru_cache` has a finite maxsize, and `functools.cache` holds
only functions that take no arguments. Every dataclass that holds an
array compares by identity (`eq=False`): a generated `__eq__` would ask
numpy for the truth value of an array. The numpy floor in
`pyproject.toml` is one whose `loadtxt` the BVH parser can rely on."""

import ast
import re
import sys
from pathlib import Path

import pytest

SOURCES = Path(__file__).parent.parent / "src" / "dqmotion"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dqmotion"}


def imported_modules(tree: ast.AST):
    """(line, top-level module) of every absolute import in `tree`;
    relative imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SOURCES.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SOURCES)))
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"{path.relative_to(SOURCES)}:{line} imports {module}"
               for line, module in imported_modules(tree) if module not in ALLOWED]
    assert not foreign


def test_the_check_sees_a_foreign_import():
    tree = ast.parse("import numpy.linalg\nfrom . import bvh\n\ndef f():\n    import scipy.linalg\n")
    assert [module for _, module in imported_modules(tree) if module not in ALLOWED] == ["scipy"]


def unbounded_memos(tree: ast.AST):
    """(line, name) of every use of `functools.lru_cache` or
    `functools.cache` in `tree` that may grow without bound: an
    `lru_cache` not called with a maxsize other than None, and a `cache`
    other than a decorator of a function with no parameters."""
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names}

    def memo(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.attr if node.value.id in modules else None
        else:
            name = names.get(node.id) if isinstance(node, ast.Name) else None
        return name if name in ("lru_cache", "cache") else None

    bounded = set()  # ids of the references used in a bounded way
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if sizes and not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                bounded.add(id(node.func))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                bounded.update(id(d) for d in node.decorator_list if memo(d) == "cache")
    for node in ast.walk(tree):
        if memo(node) and id(node) not in bounded:
            yield node.lineno, memo(node)


@pytest.mark.parametrize("path", sorted(SOURCES.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SOURCES)))
def test_memos_are_bounded(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.relative_to(SOURCES)}:{line} {name}" for line, name in unbounded_memos(tree)] == []


def test_the_check_sees_an_unbounded_memo():
    source = """
import functools
import functools as ft
from functools import cache, lru_cache as lru

@functools.lru_cache(maxsize=16)
def bounded(key): ...

@functools.cache
def built_once(): ...

@functools.lru_cache(maxsize=None)
def keyword_none(key): ...

@ft.lru_cache(None)
def positional_none(key): ...

@lru
def bare(key): ...

@cache
def with_argument(key): ...

class Holder:
    @functools.cache
    def method(self): ...

memo = functools.cache(len)
"""
    got = sorted(unbounded_memos(ast.parse(source)))
    assert got == [(12, "lru_cache"), (15, "lru_cache"), (18, "lru_cache"), (21, "cache"),
                   (25, "cache"), (28, "cache")]


def is_array(annotation: ast.AST) -> bool:
    """`np.ndarray`, alone or in a `|` union; not inside a subscript such
    as `Callable[[np.ndarray], bool]`, which holds no array."""
    if isinstance(annotation, ast.BinOp):
        return is_array(annotation.left) or is_array(annotation.right)
    return isinstance(annotation, ast.Attribute) and annotation.attr == "ndarray"


def array_dataclasses_with_eq(tree: ast.AST):
    """(line, name) of every `@dataclass` class in `tree` with a field
    annotated `np.ndarray` that does not pass `eq=False`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            name = call.func if call else decorator
            if getattr(name, "id", getattr(name, "attr", None)) != "dataclass":
                continue
            eq_off = call is not None and any(
                k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in call.keywords)
            holds_array = any(isinstance(field, ast.AnnAssign) and is_array(field.annotation)
                              for field in node.body)
            if holds_array and not eq_off:
                yield node.lineno, node.name


@pytest.mark.parametrize("path", sorted(SOURCES.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SOURCES)))
def test_array_dataclasses_compare_by_identity(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.relative_to(SOURCES)}:{line} {name}"
            for line, name in array_dataclasses_with_eq(tree)] == []


def test_the_check_sees_an_array_dataclass_with_eq():
    source = """
import numpy as np
from dataclasses import dataclass

@dataclass(frozen=True, eq=False)
class Identity:
    values: np.ndarray

@dataclass
class Bare:
    values: np.ndarray

@dataclass(frozen=True)
class Frozen:
    stats: np.ndarray | None = None

@dataclass(eq=True)
class Explicit:
    values: np.ndarray

@dataclass
class NoArray:
    value: float
    kink: Callable[[np.ndarray], bool]

class Plain:
    values: np.ndarray

@dataclasses.dataclass(frozen=True)
class Qualified:
    values: np.ndarray
"""
    got = sorted(array_dataclasses_with_eq(ast.parse(source)))
    assert got == [(10, "Bare"), (14, "Frozen"), (18, "Explicit"), (30, "Qualified")]


#: The first numpy whose `loadtxt` is the compiled reader that `bvh.parse`
#: reads motion rows with: `comments=None` turns comments off, and with
#: no `quotechar` a quote is part of a value.
LOADTXT_NUMPY = (1, 23)


def numpy_floor(pyproject: str) -> tuple:
    """The version of the `numpy>=` requirement in `pyproject` text, as
    integers; () when there is none."""
    match = re.search(r'"numpy\s*>=\s*([0-9]+(?:\.[0-9]+)*)', pyproject)
    return tuple(map(int, match.group(1).split("."))) if match else ()


def test_numpy_floor_has_the_compiled_loadtxt():
    floor = numpy_floor((SOURCES.parent.parent / "pyproject.toml").read_text())
    assert floor >= LOADTXT_NUMPY, floor


def test_the_check_sees_a_lower_floor():
    assert numpy_floor('dependencies = ["numpy>=1.22.4"]') == (1, 22, 4) < LOADTXT_NUMPY
    assert numpy_floor('dependencies = ["numpy"]') == () < LOADTXT_NUMPY
    assert numpy_floor('dependencies = ["numpy >= 2.0"]') == (2, 0) >= LOADTXT_NUMPY
