"""Every top-level definition in src/bethelab is reachable from a program.

A program is the command line (`cli.main` and the `COMMANDS` table), a demo,
or the benchmark (`perfbench/*.py`); the package's `__init__.py` counts too.
The check collects every top-level function, class and assigned name of the
package's modules, then takes the closure of the words reachable from those
programs: a definition is reached when its name occurs as a word in a program
or in the source of a reached definition.  A definition left over is code that
only tests read; move it to tests/ or delete it.

The check is name-based.  A name counts as used wherever it occurs as a word,
in a docstring or a comment as much as in code, and a word reaches every
definition of that name in any module.  Class members and parameters are not
covered.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bethelab"
CLI_ENTRIES = {"main", "COMMANDS"}


def _words(text):
    return set(re.findall(r"\w+", text))


def _targets(node):
    """Names bound by a top-level assignment (tuple targets unpacked)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _definitions():
    """{(module, name): words of its source}, decorators included."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = _targets(node)
            else:
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            words = _words("\n".join(lines[start - 1:node.end_lineno]))
            for name in names:
                defs.setdefault((path.stem, name), set()).update(words)
    return defs


def _program_words(defs):
    paths = [PACKAGE / "__init__.py", *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    words = set().union(*(_words(p.read_text()) for p in paths))
    return words.union(*(w for (module, name), w in defs.items()
                         if module == "cli" and name in CLI_ENTRIES))


def test_every_definition_is_reachable_from_a_program():
    defs = _definitions()
    seen, frontier = set(), _program_words(defs)
    while frontier:
        seen |= frontier
        reached = [w for (_, name), w in defs.items() if name in frontier]
        frontier = set().union(*reached) - seen
    unused = sorted(f"{module}.{name}" for module, name in defs if name not in seen)
    assert not unused, f"{len(unused)} definitions only tests read: {', '.join(unused)}"
