"""Every public function and class in `src/yoeo` is there for the program:
each one is read somewhere besides its own definition and the tests."""

import ast
import re
import subprocess
import sys
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


FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # On a failure, hypothesis's pytest plugin imports libcst, which warns
    # that mypy_extensions.TypedDict is deprecated. Under this project's
    # warnings-as-errors setting that warning must not abort the session.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
