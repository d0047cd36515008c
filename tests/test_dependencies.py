"""The runtime stays numpy-only: every import in the package, at module
level or inside a function, names the standard library, numpy or the
package itself. And every memo it keeps is bounded: each
`functools.lru_cache` has a finite maxsize, and `functools.cache` holds
only functions that take no arguments. Every dataclass that holds an
array compares by identity (`eq=False`): a generated `__eq__` would ask
numpy for the truth value of an array. The numpy floor in
`pyproject.toml` is one whose `loadtxt` the BVH parser can rely on. And
the Hamilton product has one table of terms, `quat._HAMILTON`: every
other index or sign table of its terms is derived from it, none written
by hand. It has one kernel too: only the table builders read
`_HAMILTON`, and only `quat._products` accumulates terms. One function,
`quat._unit_norms`, reads the norm floor, and no inner product is an
`einsum`, whose sum order depends on the operands' layout. The loss terms
derive a clip's rows once: in `losses`, only the builders of the clip's
memo (the functions decorated with `_kept`) normalize blocks or take
them relative to their parents. Gathers call the `take` method, never
the function `np.take`. And only `kinematics` loops over a skeleton's
depth levels, apart from two named walks that sweep no rows forward. A
pose's raw rotations are read only there, where they are normalized and
checked once, and by the round trip's report."""

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


#: Tables of small integers in the package that hold no Hamilton terms,
#: by module and name.
NOT_HAMILTON = {
    ("quat.py", "_CYCLIC"): "the cyclic Euler axis orders",
    ("encoding.py", "_SHEPPERD_ROWS"): "where Shepperd's candidates sit in the decode's table",
}


def small_int(node: ast.AST) -> bool:
    """An integer literal from -15 to 15, signed or not: a component index
    of a dual quaternion or of its negated copy, or a sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int and abs(node.value) <= 15


def hand_written_tables(tree: ast.AST, module: str):
    """(line, name) of every list, tuple or set display of three or more
    small integer literals in `tree` (`module`'s source): an index or sign
    table of Hamilton terms written by hand. `name` is the module-level
    name it is assigned to, if any. `quat._HAMILTON`, the one table, and
    the tables of NOT_HAMILTON are skipped."""
    allowed = {name for where, name in NOT_HAMILTON if where == module}
    if module == "quat.py":
        allowed.add("_HAMILTON")
    owners = {}
    for statement in getattr(tree, "body", []):
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            for node in ast.walk(statement):
                owners[id(node)] = names[0] if names else None
    for node in ast.walk(tree):
        if (isinstance(node, (ast.List, ast.Tuple, ast.Set)) and len(node.elts) >= 3
                and all(small_int(element) for element in node.elts)
                and owners.get(id(node)) not in allowed):
            yield node.lineno, owners.get(id(node))


@pytest.mark.parametrize("path", sorted(SOURCES.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SOURCES)))
def test_hamilton_terms_come_from_one_table(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    module = str(path.relative_to(SOURCES))
    assert [f"{module}:{line} {name}" for line, name in hand_written_tables(tree, module)] == []


def test_the_check_sees_a_hand_written_table():
    source = """
_HAMILTON = ((+1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3))
_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
_TERMS = np.array([0, 1, 2, 3, 1, 0, 3, 2])
_PAIR = (0, 4)
_SIGNS = [1.0, -1.0, -1.0, -1.0]
_SHAPE = (0, 1000, 3000)

def product(a, b):
    return a[[1, 0, 3]] * b[..., (3, 2, 1)] * [+1, -1, +1]
"""
    got = sorted(hand_written_tables(ast.parse(source), "quat.py"))
    assert got == [(4, "_TERMS"), (10, None), (10, None), (10, None)]
    elsewhere = sorted(hand_written_tables(ast.parse(source), "dualquat.py"))
    assert [line for line, _ in elsewhere] == [2, 2, 2, 2, 3, 3, 3, 4, 10, 10, 10]


#: The one function that accumulates Hamilton terms, and the one that
#: reads the one table of terms: the kernel's table builder.
ACCUMULATORS = {("quat.py", "_products")}
TABLE_READERS = {("quat.py", "_product_terms")}


def readers(tree: ast.AST, module: str, name: str) -> set:
    """(module, function) of every read of `name` in `tree`, bare or as an
    attribute (`quat._HAMILTON`); a read outside any function is
    (module, None). A nested function's read counts for the outermost."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and function is None:
            function = getattr(node, "name", "<lambda>")
        read = ((isinstance(node, ast.Name) and node.id == name
                 or isinstance(node, ast.Attribute) and node.attr == name)
                and isinstance(node.ctx, ast.Load))
        if read:
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def package_readers(name: str) -> set:
    return set().union(*(readers(ast.parse(path.read_text()), str(path.relative_to(SOURCES)), name)
                         for path in sorted(SOURCES.rglob("*.py"))))


def test_one_function_accumulates_hamilton_terms():
    assert package_readers("_ACCUMULATE") == ACCUMULATORS


def test_only_the_table_builders_read_the_terms():
    assert package_readers("_HAMILTON") == TABLE_READERS


def test_the_check_sees_another_reader():
    source = """
_HAMILTON = ((+1, 0, 0),)
_ACCUMULATE = (np.add, np.subtract)
FIRST = _HAMILTON[0]

def _products(a, b):
    return _ACCUMULATE[0](a, b)

def _hamilton_row(k, a, b):
    def term(n):
        return quat._HAMILTON[k][n]
    return [term(n) for n in range(4)]

def mul(a, b):
    _ACCUMULATE = None
    return _products(a, b)
"""
    tree = ast.parse(source)
    assert readers(tree, "quat.py", "_ACCUMULATE") == {("quat.py", "_products")}
    assert readers(tree, "quat.py", "_HAMILTON") == {("quat.py", None), ("quat.py", "_hamilton_row")}


def test_one_function_checks_the_norm_floor():
    assert package_readers("_NORM_FLOOR") == {("quat.py", "_unit_norms")}


def test_the_package_has_no_einsum():
    """Every inner product is `quat._row_dot`, in index order; einsum's sum
    order depends on its operands' layout."""
    assert package_readers("einsum") == set()


def test_the_check_sees_a_floor_read_and_an_einsum():
    source = """
from numpy import einsum

def _unit_norms(rows):
    return rows <= _NORM_FLOOR

def magnitude(r):
    if quat.norm(r) <= quat._NORM_FLOOR:
        raise DegenerateNormError(f"norm <= {quat._NORM_FLOOR:g}")
    return np.einsum("...i,...i->...", r, r) + einsum("i,i", r, r)
"""
    tree = ast.parse(source)
    # a second reader, in `quat` or elsewhere, and a reader named `_unit_norms` outside `quat`
    assert readers(tree, "quat.py", "_NORM_FLOOR") == {("quat.py", "_unit_norms"), ("quat.py", "magnitude")}
    assert readers(tree, "dualquat.py", "_NORM_FLOOR") == {("dualquat.py", "_unit_norms"),
                                                          ("dualquat.py", "magnitude")}
    assert readers(tree, "quat.py", "einsum") == {("quat.py", "magnitude")}


#: Where the package reads a pose's raw rotations, outside `kinematics`,
#: which normalizes and checks them once (`LocalPose._rotation_rows`): the
#: round trip's report, which compares them with the decoded ones.
RAW_ROTATION_READERS = {("cli.py", "cmd_roundtrip")}


def raw_rotation_reads(tree: ast.AST, module: str) -> set:
    """(module, function) of every read of `joint_rotations` in `tree`
    outside `kinematics` and RAW_ROTATION_READERS."""
    if module == "kinematics.py":
        return set()
    return readers(tree, module, "joint_rotations") - RAW_ROTATION_READERS


def test_only_kinematics_reads_the_raw_rotations():
    assert set().union(*(raw_rotation_reads(ast.parse(path.read_text()), str(path.relative_to(SOURCES)))
                         for path in sorted(SOURCES.rglob("*.py")))) == set()


def test_the_check_sees_a_raw_rotation_read():
    source = """
def cmd_roundtrip(args):
    return poses.joint_rotations

def _sign_corrected(pose, indices):
    return quat.normalize(pose.joint_rotations[:, indices])

def decode(clip):
    return LocalPose(skeleton, root, joint_rotations=rotations)
"""
    tree = ast.parse(source)
    # the keyword argument reads nothing; the round trip may read them only in `cli`
    assert raw_rotation_reads(tree, "cli.py") == {("cli.py", "_sign_corrected")}
    assert raw_rotation_reads(tree, "encoding.py") == {("encoding.py", "cmd_roundtrip"),
                                                        ("encoding.py", "_sign_corrected")}
    assert raw_rotation_reads(tree, "kinematics.py") == set()


#: The derivations in `losses` that only the memo's builders may run.
ROW_DERIVATIONS = ("_unit_norms", "_normalize_rows", "relative")
LOSSES = SOURCES / "losses.py"


def memo_builders(tree: ast.AST, module: str) -> set:
    """(module, function) of every module-level function decorated with
    `_kept`, the helper that keeps what it builds in a clip's memo."""
    return {(module, node.name) for node in getattr(tree, "body", [])
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "_kept" for d in node.decorator_list)}


def stray_derivations(tree: ast.AST, module: str) -> set:
    """(name, module, function) of every read of a ROW_DERIVATIONS name
    outside the memo's builders."""
    builders = memo_builders(tree, module)
    return {(name,) + reader for name in ROW_DERIVATIONS
            for reader in readers(tree, module, name) - builders}


def test_only_the_memo_builders_derive_rows():
    tree = ast.parse(LOSSES.read_text())
    assert stray_derivations(tree, "losses.py") == set()
    # and each derivation is still run, by a builder
    assert all(readers(tree, "losses.py", name) for name in ROW_DERIVATIONS)


def test_the_check_sees_a_second_reader():
    source = """
@_kept
def _unit_rows(clip):
    return dualquat._normalize_rows(clip.rows, out)

@_kept
def _bone_rows(clip):
    return relative(clip.parents, _unit_rows(clip).rows)

@functools.cache
def _cached(clip):
    return clip.rows / quat._unit_norms(clip.rows)

def _offset(pred, truth, skeleton):
    local = relative(pred.parents, _unit_rows(pred).rows)
    return local
"""
    tree = ast.parse(source)
    assert memo_builders(tree, "losses.py") == {("losses.py", "_unit_rows"), ("losses.py", "_bone_rows")}
    assert stray_derivations(tree, "losses.py") == {
        ("_unit_norms", "losses.py", "_cached"), ("relative", "losses.py", "_offset")}


def take_function_calls(tree: ast.AST) -> list:
    """Line of every call of the function `np.take` (or `numpy.take`) in
    `tree`; its dispatch costs about three times the `take` method's on
    the small gathers of the hierarchy sweeps."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


@pytest.mark.parametrize("path", sorted(SOURCES.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SOURCES)))
def test_gathers_call_the_take_method(path):
    assert take_function_calls(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_check_sees_a_take_function_call():
    source = """
rows = np.take(values, index, axis=1)
more = numpy.take(values, [0])
fine = values.take(index, axis=1) + np.take_along_axis(values, index, axis=1)
"""
    assert take_function_calls(ast.parse(source)) == [2, 3]


#: The one module that sweeps a skeleton's depth levels (`compose` and the
#: additive pass of `LocalPose._sweep`), and the two loops elsewhere
#: that walk them without sweeping rows forward: `Skeleton` builds each
#: encoded level's child ranks once, and the quaternion kinds'
#: current-space rotational gradient walks the levels in reverse.
LEVEL_SWEEPER = "kinematics.py"
LEVEL_WALKERS = {("bvh.py", "_encoded_child_ranks"), ("losses.py", "_rotational")}


def level_loops(tree: ast.AST, module: str) -> set:
    """(module, function) of every `for` loop or comprehension in `tree`
    whose iterable reads `levels` or `encoded_levels`, bare or as an
    attribute; a loop outside any function is (module, None), and a
    nested function's loop counts for the outermost, as in `readers`."""
    found = set()

    def reads_levels(node):
        return any(isinstance(n, ast.Name) and n.id in ("levels", "encoded_levels")
                   or isinstance(n, ast.Attribute) and n.attr in ("levels", "encoded_levels")
                   for n in ast.walk(node))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and function is None:
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and reads_levels(node.iter):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_kinematics_sweeps_the_levels():
    found = set().union(*(level_loops(ast.parse(path.read_text()), str(path.relative_to(SOURCES)))
                          for path in sorted(SOURCES.rglob("*.py"))))
    assert {loop for loop in found if loop[0] != LEVEL_SWEEPER} == LEVEL_WALKERS
    assert {function for module, function in found if module == LEVEL_SWEEPER} == {"compose", "_sweep"}


def test_the_check_sees_a_level_loop():
    source = """
for rows, parents in skeleton.levels:
    pass

def sweep(skeleton, out):
    def step(levels):
        for level, parent_rows in reversed(list(levels)):
            out[:, level] += out[:, parent_rows]
    return step

def by_index(skeleton):
    return [skeleton.encoded_levels[depth] for depth in range(len(skeleton.encoded_levels))]

def fine(skeleton, rows):
    for group in skeleton.groups:
        rows = rows + len(skeleton.levels)
    return compose(skeleton.levels, rows)
"""
    assert level_loops(ast.parse(source), "losses.py") == {
        ("losses.py", None), ("losses.py", "sweep"), ("losses.py", "by_index")}
