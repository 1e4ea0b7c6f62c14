"""The package's scipy functions, with scipy imported on first use.

A fresh ``import scipy.optimize`` costs about 0.5 s (``scipy.special``
included) and ``import scipy.special`` alone about 0.25 s, against about
0.1 s for numpy (a 2-vCPU Intel Xeon, Python 3.11), while a command at a
small alphabet computes for 5-50 ms.
Most commands need neither module: a ``fit`` on full-support data, every
``--help``, and ``entropy-approx`` (``scipy.special`` only).  So the
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


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def gammaln(x):
    """``scipy.special.gammaln``."""
    from scipy.special import gammaln

    return gammaln(x)
