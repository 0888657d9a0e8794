"""The count of settable values in the library, read from its source.

A settable value is a parameter with a default or a dataclass field that
is not a `ClassVar`. A change that needs a new one raises `MOST_SETTINGS`
and says why in CHANGES.md, so every new setting shows up in review.
"""

import ast
from pathlib import Path

import hybridlab

MOST_SETTINGS = 187


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def count_settings(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(
                isinstance(st, ast.AnnAssign) and "ClassVar" not in ast.unparse(st.annotation)
                for st in node.body
            )
    return n


def test_count_settings_reads_defaults_and_dataclass_fields():
    src = '''
from dataclasses import dataclass
from typing import ClassVar

def f(a, b=1, *, c=2, d): ...

@dataclass(frozen=True)
class C:
    x: int
    y: int = 0
    z: ClassVar[int] = 3

class Plain:
    w: int = 0
'''
    assert count_settings(ast.parse(src)) == 4


def test_the_library_adds_no_setting_unseen():
    root = Path(hybridlab.__file__).parent
    total = sum(count_settings(ast.parse(p.read_text())) for p in sorted(root.rglob("*.py")))
    assert total <= MOST_SETTINGS, f"{total} settable values, more than {MOST_SETTINGS}"
