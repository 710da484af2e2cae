"""Static checks on the package layout.

The benchmark tracer in ``perfbench/tracing.py`` wraps every name in its
``ENTRY_POINTS`` table, and the workloads in ``perfbench/workloads.py``
call ``omcp`` functions by module attribute; a rename in ``omcp`` that
drops one of those names fails here.  Library code must not rely on
``assert``, which ``python -O`` strips, and only ``guards`` may read the
environment: its ``OMCP_GUARD_OVERRIDE`` is the package's one setting
outside the call arguments.  Only ``realize`` and ``plcp`` read a matrix
through ``linalg``: every other module reaches a matrix through an oracle.
Every name a library module imports is referenced in it.  A signed set
is its two masks; only ``signs`` reads the derived ``.signs`` tuple.  An
outmap is its two masks ``(plus, zero)``; outside ``cube`` no library
module subscripts, iterates or ``in``-tests what ``.outmap(``,
``orient_vertex_total``, ``orient_vertex_partial`` or ``plcp_orientation``
return, whether directly or through a name bound to it.  Outside
``signs``, which holds the complementary vertex map, no library module
computes a ground index from a vertex bit (``n * (... & 1)``) or a
partner column (``% (2 * n)``), nor builds a B(v) mask from pair bits:
none shifts by a t-column index (``1 << i + n``), and outside ``signs``
and ``cube``, the home of vertex bits, none shifts by the vertex bit of a
dimension (``1 << n - 1 - i``).  Cube vertex order is read at the cube's
boundary only: outside ``signs``, ``vertex_mask`` is called only by the
vertex entry in ``om`` and ``on_vertex`` only by the outmap in
``reduction``, and ``_mirror`` not at all, so the oracle layer, ``realize``
included, works in dimension order.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import omcp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(omcp.__file__).resolve().parent


def _entry_points() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_traced_entry_points_resolve():
    missing = []
    for layer, attrs in _entry_points().items():
        module = importlib.import_module(f"omcp.{layer}")
        for attr in attrs:
            owner, key = module, attr
            if "." in attr:
                cls_name, key = attr.split(".")
                owner = vars(module).get(cls_name)
            raw = vars(owner).get(key) if owner is not None else None
            if not callable(getattr(raw, "__func__", raw)):
                missing.append(f"{layer}.{attr}")
    assert missing == []


def test_benchmark_workload_names_resolve():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "omcp"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {"plcp_ppu", "basic_solution", "is_lcp_solution"} <= {attr for _, attr in used}
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in used
        if not hasattr(importlib.import_module(f"omcp.{modules[module]}"), attr)
    )
    assert missing == []


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_guards_reads_the_environment():
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ("environ", "getenv") for alias in node.names)
        )
    }
    assert readers == {"guards.py"}


def _imports_linalg(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "linalg" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")[-1]
        return module == "linalg" or any(alias.name == "linalg" for alias in node.names)
    return False


def test_only_realize_and_plcp_import_linalg():
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_linalg(node)
    }
    assert importers == {"realize.py", "plcp.py"}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_package_imports_are_used():
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_only_signs_reads_the_sign_tuple():
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "signs"
    }
    assert sorted(readers - {"signs.py"}) == []


OUTMAP_CALLS = {"outmap", "orient_vertex_total", "orient_vertex_partial", "plcp_orientation"}
ITERATING_CALLS = {"all", "any", "enumerate", "iter", "list", "map", "reversed", "set", "sorted",
                   "sum", "tuple", "zip"}


def _callee(node) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _outmap_reads(tree: ast.Module) -> list[int]:
    """Lines that subscript, iterate or in-test an outmap, per function."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        bound = {
            node.targets[0].id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and _callee(node.value) in OUTMAP_CALLS
        }

        def is_outmap(node) -> bool:
            return _callee(node) in OUTMAP_CALLS or (
                isinstance(node, ast.Name) and node.id in bound
            )

        for node in ast.walk(func):
            if isinstance(node, ast.Subscript):
                read = [node.value]
            elif isinstance(node, (ast.For, ast.comprehension)):
                read = [node.iter]
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                read = node.comparators
            elif _callee(node) in ITERATING_CALLS:
                read = node.args
            else:
                read = []
            found += [r.lineno for r in read if is_outmap(r)]
    return sorted(set(found))


def test_only_cube_reads_into_an_outmap():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cube.py"
        for line in _outmap_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _is_bit(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
    )


def _is_double(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(isinstance(x, ast.Constant) and x.value == 2 for x in (node.left, node.right))
    )


def _vertex_column_arithmetic(tree: ast.Module) -> list[int]:
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and (
            isinstance(node.op, ast.Mult) and (_is_bit(node.left) or _is_bit(node.right))
            or isinstance(node.op, ast.Mod) and _is_double(node.right)
        )
    )


def test_only_signs_maps_vertices_to_columns():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "signs.py"
        for line in _vertex_column_arithmetic(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _is_pair_count(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "n") or (
        isinstance(node, ast.Attribute) and node.attr in ("n", "n_pairs")
    )


def _pair_bit_shifts(tree: ast.Module) -> tuple[list[int], list[int]]:
    """Lines of ``x << i + n`` (a t-column index) and of ``x << n - 1 - i``
    (the vertex bit of dimension i)."""
    partner, vertex = [], []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)):
            continue
        by = node.right
        if not isinstance(by, ast.BinOp):
            continue
        if isinstance(by.op, ast.Add) and (_is_pair_count(by.left) or _is_pair_count(by.right)):
            partner.append(node.lineno)
        inner = by.left
        if (
            isinstance(by.op, ast.Sub)
            and isinstance(inner, ast.BinOp)
            and isinstance(inner.op, ast.Sub)
            and isinstance(inner.right, ast.Constant)
            and inner.right.value == 1
        ):
            vertex.append(node.lineno)
    return partner, vertex


def test_only_signs_builds_vertex_masks_from_pair_bits():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "signs.py":
            continue
        partner, vertex = _pair_bit_shifts(ast.parse(path.read_text(encoding="utf-8")))
        found += [f"{path.name}:{line}" for line in partner]
        if path.name != "cube.py":
            found += [f"{path.name}:{line}" for line in vertex]
    assert found == []


def test_pair_bit_shifts_are_recognized():
    partner, vertex = _pair_bit_shifts(ast.parse(
        "a = 1 << i + n\nb = 1 << self.n + i\nc = 1 << n - 1 - i\nd = x << (k - 1 - j)\n"
        "e = 1 << i\nf = 1 << diff.bit_length() - 1\n"
    ))
    assert (partner, vertex) == ([1, 2], [3, 4])


VERTEX_ORDER_CALLS = {"vertex_mask", "on_vertex", "_mirror"}


def _vertex_order_calls(tree: ast.Module) -> set[str]:
    return {name for node in ast.walk(tree) if (name := _callee(node)) in VERTEX_ORDER_CALLS}


def test_only_the_cube_boundary_reads_vertex_order():
    callers = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "signs.py"
        and (calls := _vertex_order_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert callers == {"om.py": {"vertex_mask"}, "reduction.py": {"on_vertex"}}


def test_vertex_order_calls_are_recognized():
    assert _vertex_order_calls(ast.parse(
        "ground.vertex_mask(v)\nself._mirror(x)\nf(on_vertex)\ng.on_vertex\nvertex_mask(v)\n"
        "g.vertex_columns(t)\n"
    )) == {"vertex_mask", "_mirror"}
