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


def test_one_global_statement_in_the_package():
    # a module global that a call rebinds is hidden state; run_tasks sets the
    # callable that forked workers inherit, and restores the prior one on return
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _statements_where(path, lambda node: isinstance(node, ast.Global))
    ]
    assert found == ["parallel.run_tasks"], found


def test_core_has_no_wrappers_of_mbf_operations():
    # each scalar operation has one spelling, Mbf's operator or method; a
    # function that only returns x <= y or x.dual() is a second one
    tree = ast.parse((SRC / "core.py").read_text())
    found = [
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and _only_wraps_its_parameters(stmt)
    ]
    assert not found, f"core.py repeats Mbf operations as functions: {found}"


def _only_wraps_its_parameters(fn: ast.FunctionDef) -> bool:
    # the body, after any docstring, is one return of an operator on the
    # parameters or of a method call on the first parameter
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    params = [arg.arg for arg in fn.args.args]
    value = body[0].value
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        return isinstance(value.func.value, ast.Name) and value.func.value.id == params[0]
    if isinstance(value, ast.BinOp):
        operands = [value.left, value.right]
    elif isinstance(value, ast.Compare):
        operands = [value.left, *value.comparators]
    else:
        return False
    return all(isinstance(node, ast.Name) and node.id in params for node in operands)


def test_one_relabeling_walk():
    # every orbit job steps through the n! relabelings by iterating orbits._walk
    name = "adjacent_swap_sequence"
    found = [
        f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
        if any(
            name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            for node in ast.walk(stmt)
        )
    ]
    assert found == ["orbits.py:adjacent_swap_sequence", "orbits.py:_walk"], found
    # the one other relabeling, a digit-to-position map over
    # itertools.permutations, is selfcheck's reference for the walk
    perms = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _statements_where(path, _names_permutations)
    ]
    assert perms == ["selfcheck.py:_images"], perms
    maps = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _statements_where(path, _maps_digits_to_positions)
    ]
    assert maps == ["selfcheck.py:_relabel"], maps


def _names_permutations(node) -> bool:
    # itertools.permutations, or from itertools import permutations
    if isinstance(node, ast.ImportFrom):
        return node.module == "itertools" and any(a.name == "permutations" for a in node.names)
    return getattr(node, "attr", None) == "permutations"


def _is_one_shifted(node) -> bool:
    # 1 << e
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
    )


def _maps_digits_to_positions(node) -> bool:
    # a loop that reads digit d of a position p, (p >> d) & 1, and sets
    # digit e of another position, 1 << e with e other than p
    if not isinstance(node, (ast.For, ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return False
    inner = list(ast.walk(node))
    read = {
        n.left.left.id
        for n in inner
        if isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.BitAnd)
        and isinstance(n.right, ast.Constant)
        and n.right.value == 1
        and isinstance(n.left, ast.BinOp)
        and isinstance(n.left.op, ast.RShift)
        and isinstance(n.left.left, ast.Name)
    }
    return bool(read) and any(
        _is_one_shifted(n) and getattr(n.right, "id", None) not in read for n in inner
    )


def _statements_where(path, found) -> list[str]:
    """The top-level statements of path (by name, else line) holding a
    node for which found holds."""
    return [
        f"{getattr(stmt, 'name', stmt.lineno)}"
        for stmt in ast.parse(path.read_text(), str(path)).body
        if any(found(node) for node in ast.walk(stmt))
    ]


def _is_subset_test(node) -> bool:
    # (x & y) == z, one half of an interval test
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], ast.Eq)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.BitAnd)
    )


def test_one_driver_for_the_stabilizer_orbit_routes():
    # plus3 and plus4c walk Stab(h)-orbits only in the driver's task
    # closure, and only _dual_intervals builds the [dual(h), h] mask
    path = SRC / "counting.py"
    name = "stabilizer_orbits"
    walks = _statements_where(
        path, lambda node: name in (getattr(node, "id", None), getattr(node, "attr", None))
    )
    assert walks == ["_run_class_tasks"], walks
    masks = _statements_where(
        path,
        lambda node: isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and _is_subset_test(node.left)
        and _is_subset_test(node.right),
    )
    assert masks == ["_dual_intervals"], masks
    # plus3 is one kernel with no options, summed over the weight-heavy
    # classes with the closed term always added
    from mbfcount import counting, parallel

    assert list(inspect.signature(counting.lambda_plus3).parameters) == ["layer", "classes", "workers"]
    assert "refined" not in inspect.signature(counting._run_class_tasks).parameters
    # tasks are closures and kernels take their tables as arguments: no
    # module state carries them to the workers
    assert not hasattr(parallel, "state")
    assert "shared" not in inspect.signature(parallel.run_tasks).parameters
    submitters = _statements_where(path, lambda node: getattr(node, "attr", None) == "run_tasks")
    assert submitters == ["_run_class_tasks", "lambda_plus4_direct"], submitters


def test_selfcheck_has_one_loop_over_n():
    # each suite is a check of one n with its largest n in SUITES; only
    # run_selfcheck reads the run's max n and loops over n
    from mbfcount import selfcheck

    found = _statements_where(
        SRC / "selfcheck.py",
        lambda node: "max_n" in (getattr(node, "id", None), getattr(node, "arg", None)),
    )
    assert found == ["run_selfcheck"], found
    assert len(selfcheck.SUITES) == 15
    for name, cap, check in selfcheck.SUITES:
        assert isinstance(cap, int), name
        assert list(inspect.signature(check).parameters) == ["n"], name


def test_upward_counts_start_no_process(monkeypatch, classes):
    # upward counts run in the calling process: a forked split lost to one
    # process on every input the n = 6 cap lets through
    from mbfcount import counting, intervals, layers, parallel

    tree = ast.parse((SRC / "intervals.py").read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        if name.split(".")[-1] in ("parallel", "run_tasks")
    ]
    assert not imported, imported
    assert list(inspect.signature(intervals.upward_counts).parameters) == ["n", "xs"]

    def refuse(*args, **kwargs):
        raise AssertionError("upward counts started a worker pool")

    layer, cl = layers.generate_layer(4), classes(4)
    monkeypatch.setattr(parallel, "run_tasks", refuse)
    assert counting.lambda_plus2(layer, cl, 2).value == counting.LAMBDA_KNOWN[6]


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
