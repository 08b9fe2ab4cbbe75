"""Stochastic-order toolkit for one-parameter families.

The package decides the likelihood-ratio, log-concavity, usual, and
hazard-rate orders three ways that deliberately share no code path:

* kernel criteria (`criteria`): shape tests on K_nu(x) = d/dnu log w_nu(x)
  and on the conditional tail means of the score;
* a brute-force oracle (`oracle`): direct comparisons of two mass vectors,
  with no kernel or family information;
* closed forms (`pairwise`): exact threshold inequalities for cross-family
  pairs, parameter paths, and pseudo-sample interpolations.

`catalog` carries the law table, the families and grid policy, `compound` the
random-sum layer (the counting kernel's lr direction and the summand's PF2
certificate), and `cli` a deterministic JSON/CSV front end with golden-file
table checks.
The package exports the `__all__` of each module but `cli`, which importing
the package does not load.
"""

from . import catalog, compound, criteria, oracle, pairwise, verdicts
from .catalog import *  # noqa: F403
from .compound import *  # noqa: F403
from .criteria import *  # noqa: F403
from .oracle import *  # noqa: F403
from .pairwise import *  # noqa: F403
from .verdicts import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *catalog.__all__, *compound.__all__, *criteria.__all__, *oracle.__all__, *pairwise.__all__,
    *verdicts.__all__,
]
