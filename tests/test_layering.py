"""The package layer order of ``repro`` is a checked fact.

Every ``repro.*`` import in ``src/repro`` — module-level or inside a
function, outside ``if TYPE_CHECKING:`` blocks — must point at the same
package or at one on a lower layer.  ``mpi`` and ``perfmodel`` share a
layer and may not import each other.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LAYER = {
    "util": 0, "cluster": 1, "mpi": 2, "perfmodel": 2, "core": 3, "obs": 4,
    "apps": 5, "campaign": 6, "serve": 7, "top": 8,
}


def _layer(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYER else "top"


def _imports(tree: ast.Module, package: list[str]):
    """(line, module) of every import outside ``TYPE_CHECKING`` blocks."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + [node.module] if node.module else base)
            if module == "repro":   # ``from .. import obs`` names packages
                yield from ((node.lineno, f"repro.{alias.name}")
                            for alias in node.names)
            else:
                yield node.lineno, module
        stack.extend(ast.iter_child_nodes(node))


def test_every_import_points_down_the_layer_stack():
    wrong = []
    for path in sorted(SRC.rglob("*.py")):
        package = list(path.relative_to(SRC.parent).parts[:-1])
        source = _layer(".".join(package))
        for line, target in sorted(_imports(ast.parse(path.read_text()),
                                            package)):
            dest = _layer(target)
            if (target.split(".")[0] == "repro" and dest != source
                    and LAYER[dest] >= LAYER[source]):
                wrong.append(f"{path.relative_to(SRC)}:{line}: "
                             f"{source} imports {target}")
    assert not wrong, "imports against the layer order:\n" + "\n".join(wrong)
