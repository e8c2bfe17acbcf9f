"""Rules on the library's source text."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regma"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking; verification has to be ordinary code
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_stdlib_only():
    # the core has no dependencies: every absolute import in src/regma is
    # of a standard-library module (relative imports are the package's own)
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert {"fractions", "dataclasses"} <= found
    assert sorted(found - sys.stdlib_module_names) == []


def _perfbench_constant(filename, name):
    """The literal value of a module-level assignment in perfbench/."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in perfbench/{filename}")


# Arguments the tracer reads by name, not by position: rows_max reads the
# length of lp_max's ub, and the subset count reads odd_determinant_check's
# h. Under another name rows_max silently reads 0.
ARGUMENTS_READ_BY_NAME = {
    "optimize.lp_max": {"ub"},
    "exact.odd_determinant_check": {"h"},
}


def _top_level_def(name):
    """The ast.FunctionDef of "<module>.<function>" in src/regma, or None."""
    module, function = name.split(".")
    path = SRC / f"{module}.py"
    if not path.exists():
        return None
    return next((node for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef) and node.name == function), None)


def test_benchmark_layers_exist():
    # the traced benchmark wraps these functions by name, so removing or
    # renaming one breaks it; each must stay a top-level def of its module
    # and keep the parameter names the tracer reads
    layers = set(_perfbench_constant("tracer.py", "LAYERS"))
    for names in _perfbench_constant("run.py", "EXERCISED").values():
        layers.update(names)
    assert len(layers) > 10
    defs = {name: _top_level_def(name) for name in sorted(layers)}
    assert [name for name, fn in defs.items() if fn is None] == []
    tracer = ast.parse((SRC.parent.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tracer)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    renamed = []
    for name, arguments in ARGUMENTS_READ_BY_NAME.items():
        assert arguments <= literals, f"the tracer no longer reads {name}'s {arguments}"
        fn = defs[name]
        if not arguments & {a.arg for a in fn.args.posonlyargs + fn.args.args
                            + fn.args.kwonlyargs}:
            renamed.append(name)
    assert renamed == []


def test_private_functions_have_callers():
    # a private helper whose last caller went is dead code; a use inside its
    # own body (recursion) does not count
    own: dict[str, set[str]] = {}
    used_by: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.relative_to(SRC)}:{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef) and node.name[:1] == "_" \
                    and node.name[:2] != "__":
                own.setdefault(node.name, set()).add(where)
            for sub in ast.walk(node):
                # ast.Name carries an id, ast.Attribute an attr
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name is not None:
                    used_by.setdefault(name, set()).add(where)
    assert len(own) > 10
    unused = sorted(name for name, defs in own.items()
                    if not used_by.get(name, set()) - defs)
    assert unused == []


def _public_definitions(tree):
    """(name, node) for each public function, class or constant that a
    module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name[:1] != "_")


def _names_read(node):
    """Every name a node reads, attribute names and imported names included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        # ast.Name carries an id, ast.Attribute an attr
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)
        if name is not None:
            names.add(name)
    return names


# The search code of the solvers. A certificate checker that reached any of
# it would vouch for a solver's result with that solver's own search, so a
# fault in the search would pass its own check. scale_to_ints is shared on
# purpose: it only rewrites the certificate's numbers over one denominator.
SOLVER_SEARCH = {"lp_max", "solve_maxmin", "min_cycles_per_edge", "min_weight_cycle",
                 "_lex_dijkstra", "_gray_min_dual_vector"}


def _reachable(roots):
    """The functions reachable from roots in src/regma, by name: a function
    reaches every function (methods and nested ones too) whose name its body
    reads."""
    reads: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                reads.setdefault(node.name, set()).update(_names_read(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reads and name not in reached:
            reached.add(name)
            todo.extend(reads[name])
    return reached


def test_checkers_share_no_search_code_with_solvers():
    reached = _reachable(["verify_systole", "verify_cogirth"])
    assert {"verify_maxmin", "min_cycle_value", "_min_dual_vector",
            "scale_to_ints"} <= reached
    assert sorted(reached & SOLVER_SEARCH) == []


# The solve loop runs on integers: the LP returns numerators over its
# divisor and the oracles take and return integers on that scale. Weights
# are scaled where Fractions enter (min_weight_cycle, c_of_rep), and the
# result's Fractions are built after the last round (solve_maxmin).
INTEGER_LOOP = ("optimize.lp_max", "optimize._eliminate", "graph._lex_dijkstra",
                "graph.min_cycles_per_edge", "optimize._gray_min_dual_vector")


def test_solve_loop_reads_no_fractions():
    found = {name: sorted(_names_read(_top_level_def(name))
                          & {"Fraction", "scale_to_ints", "check_weights"})
             for name in INTEGER_LOOP}
    assert found == {name: [] for name in INTEGER_LOOP}


# Public names that state a result of the paper and have no command yet:
# the library keeps them for users, so they need no reader in src/ or
# perfbench/. An entry that gains such a reader leaves this list.
PAPER_API = {
    "ksum_rep": "k-sums of weighted representations, the Seymour decomposition "
                "carried over to torus representations",
    "odd_transform": "the moves of odd equivalence between torus representations",
    "bound_small_cycle": "the reciprocal systole bound from a short cycle",
    "bound_large_girth": "the reciprocal systole bounds from ball removal at large girth",
    "bound_decomposable": "the reciprocal cogirth bound for decomposable regular matroids",
    "embedding_systole_bound": "the systole bound 2/(b - 1 + chi) of a graph on a surface",
}


def test_public_names_have_users():
    # the public counterpart of the rule above: a public name needs a reader
    # elsewhere in the library or in the benchmark, or an entry in PAPER_API.
    # A re-export in regma/__init__ is not a reader, and neither is a use
    # inside the name's own definition.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    read_by = [(node, _names_read(node)) for path, tree in trees.items()
               if path.name != "__init__.py" for node in tree.body]
    benchmark = set().union(*(
        _names_read(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((SRC.parent.parent / "perfbench").glob("*.py"))))
    defined = [(name, node) for tree in trees.values()
               for name, node in _public_definitions(tree)]
    assert len(defined) > 50
    read = {name for name, node in defined
            if name in benchmark
            or any(name in names for other, names in read_by if other is not node)}
    assert sorted({name for name, _ in defined} - read - PAPER_API.keys()) == []
    # the list cannot go stale: each entry is defined and has no reader yet
    assert sorted(PAPER_API.keys() - {name for name, _ in defined}) == []
    assert sorted(PAPER_API.keys() & read) == []


def _attributes_read(node):
    """Every attribute name a node reads: how a method is reached, as
    obj.method, self.method or Class.method."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_public_methods_have_users():
    # the rule above for the public methods of src/regma's classes: each
    # needs a reader in the library outside its own body, or in the
    # benchmark. A method only the tests read is test code
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    units = [unit for tree in trees for node in tree.body
             for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]
    read_by = [(unit, _attributes_read(unit)) for unit in units]
    benchmark = set().union(*(
        _attributes_read(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((SRC.parent.parent / "perfbench").glob("*.py"))))
    methods = [(f"{cls.name}.{node.name}", node) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name[:1] != "_"]
    assert len(methods) > 20
    unread = [name for name, node in methods if node.name not in benchmark
              and not any(node.name in names for unit, names in read_by if unit is not node)]
    assert sorted(unread) == []
