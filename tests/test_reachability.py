"""Every top-level definition in src/bethelab is reachable from a program.

A program is the command line (`cli.main` and the `COMMANDS` table), a demo,
or the benchmark (`perfbench/*.py`); the package's `__init__.py` counts too.
The check collects every top-level function, class and assigned name of the
package's modules, then takes the closure of the names reachable from those
programs: a definition is reached when its name occurs in the code of a
program or of a reached definition.  A definition left over is code that
only tests read; move it to tests/ or delete it.

Code means NAME tokens (tokenize): a word in a docstring, a comment or a
string does not count, in programs and in definitions alike.  An f-string is
one STRING token before Python 3.12, so the names of its replacement fields
are read from its syntax tree.  The check is name-based: a name reaches every
definition of that name in any module.  Class members and parameters are not
covered.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bethelab"
PROGRAMS = [PACKAGE / "__init__.py", *sorted((ROOT / "demos").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py"))]
CLI_ENTRIES = {"main", "COMMANDS"}


def _names(source):
    """The identifiers in the code of `source`."""
    names = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            names.add(tok.string)
        elif tok.type == tokenize.STRING and "f" in re.match(r"\w*", tok.string)[0].lower():
            for node in ast.walk(ast.parse(tok.string, mode="eval")):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _targets(node):
    """Names bound by a top-level assignment (tuple targets unpacked)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _definitions(package):
    """{(module, name): names in its code}, decorators included."""
    defs = {}
    for path in sorted(package.glob("*.py")):
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
            used = _names("\n".join(lines[start - 1:node.end_lineno]))
            for name in names:
                defs.setdefault((path.stem, name), set()).update(used)
    return defs


def _unreached(package, programs):
    """The definitions of `package` that no program reaches, as module.name."""
    defs = _definitions(package)
    frontier = set().union(*(_names(p.read_text()) for p in programs))
    frontier = frontier.union(*(used for (module, name), used in defs.items()
                                if module == "cli" and name in CLI_ENTRIES))
    seen = set()
    while frontier:
        seen |= frontier
        reached = [used for (_, name), used in defs.items() if name in frontier]
        frontier = set().union(*reached) - seen
    return sorted(f"{module}.{name}" for module, name in defs if name not in seen)


def test_every_definition_is_reachable_from_a_program():
    unused = _unreached(PACKAGE, PROGRAMS)
    assert not unused, f"{len(unused)} definitions only tests read: {', '.join(unused)}"


def test_a_name_in_a_docstring_comment_or_string_reaches_nothing(tmp_path):
    """Negative control: `helper` is named by the program only in its
    docstring, a comment and a string, and by the reached `used` only in its
    docstring; `formatted` is reached through an f-string's replacement field."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        'def used():\n    """Unlike helper, this one is called."""\n'
        '    return f"{formatted()}"\n\n\n'
        'def formatted():\n    return 1\n\n\n'
        'def helper():\n    return 2\n')
    program = tmp_path / "prog.py"
    program.write_text('"""Calls used, not helper."""\nfrom pkg.mod import used\n\n'
                       'used()  # helper is not called\nprint("helper")\n')
    assert _unreached(package, [program]) == ["mod.helper"]
