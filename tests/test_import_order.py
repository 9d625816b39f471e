"""The package's modules import one another in one acyclic order, counting
every relative import: at the top, under ``if TYPE_CHECKING:`` and inside
functions alike.  Only the fork split's module imports ``pickle`` and makes,
waits for and kills children, and only trajectory io and verify split their
work with it."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "fjlab")


def import_graph(package=PACKAGE):
    """Each module's name mapped to the package modules it imports."""
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")}
    graph = {}
    for module in modules:
        with open(os.path.join(package, f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        graph[module] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module:
                graph[module].add(node.module.split(".")[0])
            else:  # from . import io: a module, or a name of __init__
                graph[module].update(a.name if a.name in modules else "__init__" for a in node.names)
    return graph


def find_cycle(graph):
    """One cycle of ``graph`` as a list with its first module repeated last,
    or None when the graph has none."""
    done, path = set(), []

    def visit(module):
        path.append(module)
        for dep in sorted(graph[module]):
            if dep in path:
                return path[path.index(dep) :] + [dep]
            if dep not in done:
                cycle = visit(dep)
                if cycle:
                    return cycle
        done.add(path.pop())
        return None

    for module in sorted(graph):
        if module not in done:
            cycle = visit(module)
            if cycle:
                return cycle
    return None


def test_find_cycle_names_one_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_the_package_imports_form_one_order():
    graph = import_graph()
    assert {"cli", "config", "scenarios", "verify"} <= set(graph)
    assert find_cycle(graph) is None


def importers(name, package=PACKAGE):
    """The package's module files that import the top-level module ``name``,
    anywhere in the file."""
    found = set()
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(package, file), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == name for n in names):
                found.add(file)
    return found


def test_only_the_fork_module_imports_pickle():
    # the split's transport stays in one module: callers pass a producer to
    # _fork._forked and iterate the objects it passes back
    assert importers("pickle") == {"_fork.py"}


def callers(names, package=PACKAGE):
    """The package's module files that call one of ``names``, each a plain
    name (``_forked``) or a module's attribute (``os.fork``)."""
    found = set()
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(package, file), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = f"{func.value.id}.{func.attr}"
            else:
                continue
            if name in names:
                found.add(file)
    return found


def test_only_the_fork_module_makes_and_ends_children():
    assert callers({"os.fork", "os.waitpid", "os.kill"}) == {"_fork.py"}


def test_only_trajectory_io_and_verify_split_with_a_child():
    assert callers({"_forked", "_fork._forked"}) == {"io.py", "verify.py"}
