"""Cross-command implications: each command referees the others.

The paper ties a family's kernel to the pairwise kernel of two of its laws:
log(f_nu2 / f_nu1)(x) is the integral of K_nu(x) over [nu1, nu2], so a shape
in x that holds at every scanned nu carries to the endpoint pair, and the
tail tests' d/dnu log S_nu(x) = E[K | X >= x] - E[K] carries st and hr. So:

(a) a `check` whose kernel holds for order o in direction d implies that
    `pairwise` on its two endpoint laws, the lower one first for "up",
    holds for o;
(b) a named path that holds one of its two parameters still moves only
    the other, so it is that family's scan: the path's status for each
    order equals the family `check`'s kernel status in the path's direction
    ("up" for lr, st and hr, "down" for lc);
(c) `pairwise` on (P, Q) and on (Q, P) cannot both hold lr, st or hr for
    two laws whose survivals differ: swapping P and Q swaps which direction
    can hold (Shaked & Shanthikumar, Stochastic Orders, 2007, ch. 1).
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stochorder.cli import main
from stochorder.pairwise import law_distribution, law_from_spec


def run(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--no-timing"])
    return code, json.loads(out.getvalue())


def _spec(name: str, **params: float) -> str:
    return name + ":" + ",".join(f"{k}={v!r}" for k, v in params.items())


# Table-1 family with a pairwise view: (fixed parameters, scanned range, the
# pairwise law spec at the fixed parameters and a scanned value)
FAMILIES = {
    "poisson": (st.just({}), (0.2, 30.0), lambda fixed, nu: _spec("poisson", **{"lambda": nu})),
    "binomial-in-p": (st.fixed_dictionaries({"n": st.integers(1, 60)}), (0.02, 0.98),
                      lambda fixed, nu: _spec("binomial", n=fixed["n"], p=nu)),
    "geometric": (st.just({}), (0.02, 0.95),
                  lambda fixed, nu: _spec("geometric", p=1.0 - nu)),
    "negbinomial-in-q": (st.fixed_dictionaries({"r": st.floats(0.2, 40.0)}), (0.02, 0.95),
                         lambda fixed, nu: _spec("negbinomial", r=fixed["r"], p=1.0 - nu)),
    "betabinomial-in-r": (st.fixed_dictionaries({"n": st.integers(1, 40),
                                                 "s": st.floats(0.2, 10.0)}), (0.2, 10.0),
                          lambda fixed, nu: _spec("betabinomial", n=fixed["n"], r=nu,
                                                  s=fixed["s"])),
    "betabinomial-in-s": (st.fixed_dictionaries({"n": st.integers(1, 40),
                                                 "r": st.floats(0.2, 10.0)}), (0.2, 10.0),
                          lambda fixed, nu: _spec("betabinomial", n=fixed["n"], r=fixed["r"],
                                                  s=nu)),
    "cmp-in-dispersion": (st.fixed_dictionaries({"lam": st.floats(0.05, 0.95)}), (0.3, 3.0),
                          lambda fixed, nu: _spec("cmp", mu=fixed["lam"], nu=nu)),
}


@st.composite
def checks(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params, (lo, hi), _ = FAMILIES[family]
    fixed = draw(params)
    nu1, nu2 = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
    return family, fixed, nu1, nu2


# the negative binomial in q whose endpoint laws underflow inside each other's
# support: its lc down check holds, and the pairwise oracle read the zeros as
# a support-containment failure (x = 307)
@example(("negbinomial-in-q", {"r": 11.70792767863261}, 0.07618713478295203,
          0.8771277581511692))
@given(checks())
@settings(max_examples=20, deadline=None)
def test_a_check_that_holds_carries_to_pairwise_on_its_endpoint_laws(case):
    family, fixed, nu1, nu2 = case
    spec = _spec(family, **fixed) if fixed else family
    _, report = run("check", "--family", spec, f"--nu1={nu1!r}", f"--nu2={nu2!r}")
    law = FAMILIES[family][2]
    for v in report["verdicts"]:
        if v["method"] != "kernel-criterion" or v["status"] != "holds":
            continue
        low, high = law(fixed, nu1), law(fixed, nu2)
        p, q = (low, high) if v["direction"] == "up" else (high, low)
        _, pair = run("pairwise", "--p", p, "--q", q, "--orders", v["order"])
        [w] = pair["verdicts"]
        assert w["status"] == "holds", (v["order"], v["direction"], p, q, w)


# named path with one parameter held: the path spec from n (read by the
# betabinomial only), the held value and the two ends of the moved one, the
# family that scans the moved one at the held value, and their ranges
HELD_PATHS = {
    "negbinomial": (lambda n, r, q1, q2: _spec("negbinomial", r1=r, r2=r, q1=q1, q2=q2),
                    lambda n, r: _spec("negbinomial-in-q", r=r), (0.3, 20.0), (0.05, 0.9)),
    "betabinomial": (lambda n, s, r1, r2: _spec("betabinomial", n=n, r1=r1, r2=r2, s1=s, s2=s),
                     lambda n, s: _spec("betabinomial-in-r", n=n, s=s), (0.2, 10.0), (0.2, 10.0)),
    "gamma": (lambda n, rho, r1, r2: _spec("gamma", r1=r1, r2=r2, rho1=rho, rho2=rho),
              lambda n, rho: _spec("gamma-in-shape", rho=rho), (0.5, 4.0), (0.5, 5.0)),
}


@st.composite
def held_paths(draw):
    name = draw(st.sampled_from(sorted(HELD_PATHS)))
    path, family, held_range, moved_range = HELD_PATHS[name]
    n = draw(st.integers(1, 40))
    held = draw(st.floats(*held_range))
    lo, hi = sorted(draw(st.lists(st.floats(*moved_range), min_size=2, max_size=2, unique=True)))
    return path(n, held, lo, hi), family(n, held), lo, hi


@given(held_paths())
@settings(max_examples=20, deadline=None)
def test_a_path_with_one_parameter_held_is_its_family_scan(case):
    path, family, lo, hi = case
    _, check = run("check", "--family", family, f"--nu1={lo!r}", f"--nu2={hi!r}")
    kernel = {(v["order"], v["direction"]): v["status"] for v in check["verdicts"]
              if v["method"] == "kernel-criterion"}
    for order in ("lr", "lc", "st", "hr"):
        _, report = run("path", "--name", path, "--order", order)
        [v] = report["verdicts"]
        assert v["status"] == kernel[order, v["direction"]], (order, path, family, v)


PAIRWISE = st.sampled_from([
    lambda d: _spec("poisson", **{"lambda": d(st.floats(0.2, 30.0))}),
    lambda d: _spec("binomial", n=d(st.integers(1, 40)), p=d(st.floats(0.05, 0.95))),
    lambda d: _spec("geometric", p=d(st.floats(0.05, 0.95))),
    lambda d: _spec("negbinomial", r=d(st.floats(0.3, 20.0)), p=d(st.floats(0.1, 0.95))),
    lambda d: _spec("betabinomial", n=d(st.integers(1, 40)), r=d(st.floats(0.2, 10.0)),
                    s=d(st.floats(0.2, 10.0))),
    lambda d: _spec("cmp", mu=d(st.floats(0.2, 8.0)), nu=d(st.floats(0.3, 3.0))),
])


@st.composite
def law_specs(draw):
    return draw(PAIRWISE)(draw)


def _survival_gap(p: str, q: str) -> float:
    """The largest gap between the two laws' survivals."""
    laws = [law_distribution(law_from_spec(s)) for s in (p, q)]
    size = int(max(d.support.upper for d in laws)) + 1
    survivals = []
    for d in laws:
        masses = np.zeros(size)
        masses[int(d.support.lower) : int(d.support.upper) + 1] = d.masses
        survivals.append(np.cumsum(masses[::-1])[::-1])
    return float(np.abs(survivals[0] - survivals[1]).max())


@given(law_specs(), law_specs())
@settings(max_examples=20, deadline=None)
def test_swapping_the_laws_swaps_which_direction_can_hold(p, q):
    assume(_survival_gap(p, q) > 1e-6)
    orders = "lr,st,hr"
    _, up = run("pairwise", "--p", p, "--q", q, "--orders", orders)
    _, down = run("pairwise", "--p", q, "--q", p, "--orders", orders)
    for u, d in zip(up["verdicts"], down["verdicts"]):
        assert u["order"] == d["order"]
        assert not (u["status"] == "holds" and d["status"] == "holds"), (u["order"], p, q)
