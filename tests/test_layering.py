"""Mechanism modules import only the layers below them. Comparisons,
baselines and reports live in `osp.checks`, which may import them all."""

import ast
from pathlib import Path

import osp

# module -> the package modules it may import
LAYERS = {
    "gridseq": set(),
    "mixflow": set(),
    "skiparse": {"gridseq"},
    "anyres": {"gridseq", "skiparse"},
    "attention": {"anyres", "gridseq", "skiparse"},
    "ssp": {"gridseq", "skiparse"},
    "hif8": {"gridseq"},
}


def _package_imports(module: str) -> set[str]:
    tree = ast.parse((Path(osp.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .x import a` names x; `from . import x` names x as an alias
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_mechanism_modules_import_only_the_layers_below():
    assert {m: _package_imports(m) for m in LAYERS} == LAYERS
