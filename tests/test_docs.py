"""The prose documents cite only code and tests that exist.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md name modules and
objects as backticked ``repro.<dotted>`` spans and cite tests as
``tests/<file>.py[::name]``.  A rename or deletion that misses a
document leaves a reference to nothing; this test lists every such
reference.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
DOCS += sorted((ROOT / "docs").glob("*.md"))

FENCE = re.compile(r"```.*?```", re.S)
SPAN = re.compile(r"`([^`\n]+)`")
# A trailing "/" marks a schema id (``repro.ledger/1``), not a Python name.
DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+(?![\w/])")
TEST_REF = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")


def _resolves(dotted):
    """Import the longest module prefix of ``dotted``, then getattr the
    rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _test_exists(filename, names):
    path = ROOT / "tests" / filename
    if not path.is_file():
        return False
    scope = ast.parse(path.read_text()).body
    for name in names:
        found = [
            node
            for node in scope
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def test_doc_references_resolve():
    broken = []
    for doc in DOCS:
        text = doc.read_text()
        for span in SPAN.findall(FENCE.sub("", text)):
            for dotted in DOTTED.findall(span):
                if not _resolves(dotted):
                    broken.append(f"{doc.name}: `{dotted}`")
        for filename, chain in TEST_REF.findall(text):
            names = [n for n in chain.split("::") if n]
            if not _test_exists(filename, names):
                broken.append(f"{doc.name}: tests/{filename}{chain}")
    assert not broken, "dangling references:\n" + "\n".join(broken)
