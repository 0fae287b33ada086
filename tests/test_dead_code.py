"""Every module-level function and class of the package has a user.

A name counts as used when it appears in some source file under src/,
tests/ or benchmarks/ outside its own definition: a call, an import, a
re-export or a mention in another docstring all count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltalogic"
SEARCHED = ("src", "tests", "benchmarks")


def test_no_module_level_definition_is_unused():
    sources = {path: path.read_text(encoding="utf-8")
               for folder in SEARCHED for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = "\n".join(lines[node.lineno - 1:node.end_lineno])
            uses = sum(len(word.findall(text)) for text in sources.values())
            if uses == len(word.findall(own)):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"unused definitions: {unused}"
