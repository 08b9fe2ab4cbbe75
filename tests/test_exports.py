"""The public surface: every exported name has a caller, or states an identity.

A name in `stochorder.__all__` must be read somewhere in `src/stochorder`
outside its own definition, or in `tools/`. The few that no program code
calls stay public because each states one of the identities the paper rests
on; `KEEP` names them with that identity. The references are read from the
syntax tree, so a name in a string, a comment or an `__all__` list does not
count.
"""

import ast
from pathlib import Path

import stochorder

ROOT = Path(__file__).resolve().parents[1]

# exported, called by no program code, kept for the identity it states
KEEP = {
    "tail_mean_profile": "d/dnu log P(X >= x) = E[K | X >= x] - E[K] and "
                         "d/dnu log hazard(x) = K(x) - E[K | X >= x]",
    "compound_score_all": "the compound centring: d/dnu log f_nu(k) = K_nu(k) - E[K_nu]",
    "is_tp2": "a TP2 posterior P(N = n | X = k) is stochastically increasing in k",
    "betabin_hyp_condition": "W(r+n-1) <= s(B-n+1) gives BetaBin(n,r,s) <=lr Hyp(B,W,n)",
    "betabin_hyp_delta": "the closed-form step of log(w^Hyp / w^BetaBin)",
    "total_variation": "TV(P, Q) = sup_A |P(A) - Q(A)| = half the L1 distance",
}


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
