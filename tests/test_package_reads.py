"""Every name the package exports is read by code outside the tests.

A read is a load of the name, as an ast.Name or as the attribute of an
ast.Attribute, in src/, perfbench/ or tools/, outside the name's own
definition; and a function that the benchmark's tracer looks up by name
(perfbench/spans.py's TRACED_FUNCTIONS) is read.  The package's
__init__.py only re-exports, and test directories are the tests' side,
so neither counts.  Parsed with the standard library's ast, so a
docstring or comment that mentions a name does not read it, and no
linter is needed."""

import ast
from pathlib import Path

import ofdmsar

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for part in ("src", "perfbench", "tools")
           for path in sorted((ROOT / part).rglob("*.py"))
           if path.name != "__init__.py"
           and "tests" not in path.relative_to(ROOT).parts]

# exported names that no run reads, each with the reason it stays
UNREAD = {
    "channel_mse_analytic": "folds into the exact NMSE form (ROADMAP 1, 7)",
    "pedestal_level": "folds into the exact NMSE form (ROADMAP 1, 7)",
    "nr_config": "the README's NR default parameter set",
}


def loaded_names(source: str) -> set[str]:
    """The names a module loads, outside the definitions of those names."""
    reads = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return reads


def traced_names() -> set[str]:
    """The function names in the literal TRACED_FUNCTIONS table."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table, = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets]
              == ["TRACED_FUNCTIONS"]]
    return {name for names in ast.literal_eval(table).values()
            for name in names}


def unread_exports() -> set[str]:
    reads = traced_names()
    for path in SOURCES:
        reads |= loaded_names(path.read_text())
    return {name for name in ofdmsar.__all__ if name not in reads}


def test_every_export_is_read_outside_the_tests():
    assert unread_exports() == set(UNREAD)


def test_the_scan_counts_loads_only():
    source = ('"""spa_spectrum is named in a docstring."""\n'
              "import numpy as np\n"
              "from ofdmsar import focus_image, rcmc\n"
              "def rcmc_twice(x):\n"
              "    return rcmc_twice(x)\n"
              "def run(cfg):\n"
              "    image = focus_image(cfg)\n"
              "    return np.abs(image).islr\n")
    reads = loaded_names(source)
    assert {"focus_image", "np", "abs", "islr", "image", "cfg",
            "x"} <= reads
    assert not reads & {"spa_spectrum", "rcmc", "rcmc_twice", "run"}
