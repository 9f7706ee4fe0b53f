"""Source hygiene of the package, read with ast: no import that a module
does not use, and no private name that nothing in the package refers to.
Either is left behind when the code that used it goes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "terradapt"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def loaded_names(tree) -> set:
    """Every name the module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = MODULES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    assert sorted(imported - loaded_names(tree)) == []


def test_every_private_name_is_referenced():
    """Private module-level names and private methods, each read somewhere
    in the package: by a name, an attribute or an import."""
    defined, used = set(), set()
    for module, tree in MODULES.items():
        used |= loaded_names(tree)
        used |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names}
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
                if isinstance(node, ast.ClassDef):
                    names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
            defined |= {(module, name) for name in names if is_private(name)}
    assert sorted(f"{module}: {name}" for module, name in defined if name not in used) == []


# what forks, pins, kills and reaps processes, opens their pipes, and sets
# numpy's BLAS threads
PROCESS_CONTROL = {"fork", "sched_setaffinity", "waitpid", "kill", "Pipe",
                   "scipy_openblas_set_num_threads64_"}


def test_only_workers_controls_processes():
    """workers.py is the one module that forks, pins, kills and reaps
    processes, opens their pipes and sets BLAS's thread count, so that its pool alone decides
    that no child outlives a command."""
    named = {module: PROCESS_CONTROL & (loaded_names(tree) | {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names}) for module, tree in MODULES.items()}
    assert named.pop("workers.py") == PROCESS_CONTROL
    assert {module: names for module, names in named.items() if names} == {}
