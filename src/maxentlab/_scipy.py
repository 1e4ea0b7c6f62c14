"""The package's scipy functions, with scipy imported on first use.

A fresh ``import scipy.optimize`` costs about 0.5 s (``scipy.special``
included) and ``import scipy.special`` alone about 0.25 s, on top of
numpy (a 2-vCPU Intel Xeon, Python 3.11), while a command at a small
alphabet computes for 5-50 ms.  The package calls two scipy functions, and
most commands call neither:

- ``linprog`` (``scipy.optimize``) runs the feasibility LP, which a
  projection calls only on boundary targets, and on infeasible ones that
  the dual floor does not refute (``project``, ``fit``, and ``diagnose``
  on files);
- ``gammaln`` (``scipy.special``) takes the log-factorials of exact
  ``sanov``, of ``entropy-approx``, and of a Monte Carlo ``sanov``'s
  ``--nested`` and ``--curve``.

``diagnose --random`` (whose energy-matching roots come from the
package's own Brent search, ``identities.brentq``), a plain Monte Carlo
``sanov``, interior solves and every ``--help`` call neither.  So the
package's modules bind these forwarders in place of scipy's functions.
Each one imports its scipy module inside the call and returns scipy's
result unchanged; after the first call the import is a ``sys.modules``
lookup.
"""

from __future__ import annotations


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def gammaln(x):
    """``scipy.special.gammaln``."""
    from scipy.special import gammaln

    return gammaln(x)
