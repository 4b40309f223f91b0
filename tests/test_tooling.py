import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mbfcount"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check must raise instead
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "counting.py" in paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_file_formats_have_one_owner():
    # the three text formats are written and read only through
    # layers.write_records and layers.read_records
    owners = [path.name for path in sorted(SRC.glob("*.py")) if "mbf-" in path.read_text()]
    assert owners == ["layers.py"], f"the header literal appears in {owners}"


# -- the benchmark's use of the package ---------------------------------------
# perfbench/ is read as source only: a change to the package that removes a
# name or a parameter the benchmark uses fails here, not in the benchmark run

PERFBENCH = SRC.parents[1] / "perfbench"
BENCH_MODULES = ("counting", "orbits", "layers")


def _bench_trees():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert PERFBENCH / "rep.py" in paths
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def test_benchmark_calls_match_package_signatures():
    checked = set()
    for name, tree in _bench_trees().items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in BENCH_MODULES
            ):
                continue
            where = f"{name}:{node.lineno} {node.func.value.id}.{node.func.attr}"
            module = importlib.import_module(f"mbfcount.{node.func.value.id}")
            assert hasattr(module, node.func.attr), f"{where} does not exist"
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue
            sig = inspect.signature(getattr(module, node.func.attr))
            try:
                sig.bind_partial(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as e:
                raise AssertionError(f"{where}: {e}") from None
            checked.update(f"{node.func.attr}({k.arg}=)" for k in node.keywords)
    assert "lambda_plus4_direct(strategy=)" in checked


def test_full_table_counts_are_the_matrix_the_benchmark_reads():
    # perfbench/spans.py reports counting.build_full_table(n).counts.nbytes
    from mbfcount import counting, layers

    counts = counting.build_full_table(2).counts
    d = len(layers.generate_layer(2))
    assert counts.shape == (d, d) and counts.dtype.name == "uint16"


def _loop_bindings(tree) -> dict[str, list[ast.expr]]:
    """Each for-loop variable over a literal tuple, bound to its items."""
    return {
        node.target.id: node.iter.elts
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and isinstance(node.iter, (ast.Tuple, ast.List))
    }


def test_benchmark_traced_names_exist():
    tree = _bench_trees()["spans.py"]
    install = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "install"
    )
    loops = _loop_bindings(install)

    def values(arg):
        return loops.get(arg.id, [arg]) if isinstance(arg, ast.Name) else [arg]

    wrapped = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
            for mod in values(node.args[0]):
                for attr in values(node.args[1]):
                    wrapped.add((mod.id, attr.value))
    assert ("counting", "upward_counts") in wrapped
    assert ("counting", "build_full_table") in wrapped
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sorted(wrapped)
        if not hasattr(importlib.import_module(f"mbfcount.{mod}"), attr)
    ]
    assert not missing, f"perfbench/spans.py wraps names the package lacks: {missing}"
