"""The public surface: every exported name has a caller, and every parameter
of an exported function is set by some program call.

A name in `stochorder.__all__` must be read somewhere in `src/stochorder`
outside its own definition, or in `tools/`. The paper's identities that no
command reads are stated in the tests that check them, from the program's
own pieces, so `KEEP`, the exports kept for an identity alone, names none.
The references are read from the syntax tree, so a name in a string, a
comment or an `__all__` list does not count.

A parameter that no program call sets is a setting only a default ever
takes: for each exported function that `src/stochorder` (outside the
function itself) or `tools/` calls by name, each parameter must be passed,
by position or keyword, in some such call; `KEEP_PARAMETERS` may name one
with the reason it stays, and names none.
"""

import ast
import inspect
import math
from pathlib import Path

import stochorder

ROOT = Path(__file__).resolve().parents[1]

# exported, called by no program code, kept for the identity it states: none
KEEP: dict[str, str] = {}

# parameters of called exports that only tests set, and why each stays: none,
# as a test reaches every branch through the values the program passes
KEEP_PARAMETERS: dict[tuple[str, str], str] = {}


def _reads(path: Path) -> dict[str, set[frozenset[str]]]:
    """Each name read in the file (a loaded bare name or an attribute), with
    the names of the definitions enclosing each read."""
    out: dict[str, set[frozenset[str]]] = {}

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.id, set()).add(inside)
        elif isinstance(node, ast.Attribute):
            out.setdefault(node.attr, set()).add(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return out


def _called() -> set[str]:
    """The names read in src/stochorder outside their own definition, and
    every name read in tools/."""
    names = set()
    for path in sorted((ROOT / "src" / "stochorder").glob("*.py")):
        names |= {n for n, where in _reads(path).items() if any(n not in w for w in where)}
    for path in sorted((ROOT / "tools").glob("*.py")):
        names |= set(_reads(path))
    return names


def test_every_export_has_a_caller_or_states_an_identity():
    called = _called()
    uncalled = [n for n in stochorder.__all__ if n not in called]
    assert sorted(set(uncalled) - set(KEEP)) == []
    # the keep list holds exported names that are still uncalled, no more
    assert sorted(set(KEEP) - set(uncalled)) == []


def _passed() -> dict[str, tuple[float, set[str]]]:
    """For each name called in src/stochorder outside its own definition, or
    in tools/: the most positional arguments any call passes and every
    keyword any call names (a starred argument counts as all of them)."""
    out: dict[str, tuple[float, set[str]]] = {}

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is not None and name not in inside:
                most, keywords = out.get(name, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                most = max(most, math.inf if starred else len(node.args))
                for kw in node.keywords:
                    keywords.add("**" if kw.arg is None else kw.arg)
                out[name] = most, keywords
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    paths = [*sorted((ROOT / "src" / "stochorder").glob("*.py")),
             *sorted((ROOT / "tools").glob("*.py"))]
    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return out


def test_every_parameter_of_a_called_export_is_set_by_a_program_call():
    passed = _passed()
    unset = []
    for name in stochorder.__all__:
        fn = getattr(stochorder, name)
        if not inspect.isfunction(fn) or name in KEEP or name not in passed:
            continue
        most, keywords = passed[name]
        for i, prm in enumerate(inspect.signature(fn).parameters.values()):
            if prm.kind in (prm.VAR_POSITIONAL, prm.VAR_KEYWORD):
                continue
            by_position = prm.kind != prm.KEYWORD_ONLY and i < most
            by_keyword = prm.kind != prm.POSITIONAL_ONLY and (
                prm.name in keywords or "**" in keywords)
            if not (by_position or by_keyword):
                unset.append((name, prm.name))
    assert sorted(set(unset) - set(KEEP_PARAMETERS)) == []
    # the keep list holds parameters that are still unset, no more
    assert sorted(set(KEEP_PARAMETERS) - set(unset)) == []
