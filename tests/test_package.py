"""Every public function and class in `src/yoeo` is there for the program:
each one is read somewhere besides its own definition and the tests."""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def public_definitions(source: str) -> list[str]:
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_no_public_name_is_read_only_by_tests():
    modules = {
        path.name: path.read_text() for path in sorted((REPO / "src/yoeo").glob("*.py"))
    }
    readers = [
        (REPO / "README.md").read_text(),
        *(path.read_text() for path in sorted((REPO / "perfbench").glob("*.py"))),
    ]
    unread = []
    for module, source in modules.items():
        for name in public_definitions(source):
            word = re.compile(rf"\b{name}\b")
            # The definition is one match in its own module.
            uses = sum(len(word.findall(text)) for text in [*modules.values(), *readers])
            if uses < 2:
                unread.append(f"{module}:{name}")
    assert not unread, unread
