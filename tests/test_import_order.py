"""The package's modules import one another in one acyclic order, counting
every relative import: at the top, under ``if TYPE_CHECKING:`` and inside
functions alike."""

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
