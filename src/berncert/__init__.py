"""Exact certificates of polynomial positivity in the simplicial Bernstein basis.

The package exports each library module's ``__all__``; ``cli`` is the program, not the library.
"""

import sys as _sys

from .polynomials import *
from .linalg import *
from .simplices import *
from .bernstein import *
from .subdivision import *
from .certify import *
from .serialize import *
from .counterexample import *

__version__ = "0.1.0"

__all__ = ["__version__"]
for _name in (
    "polynomials", "linalg", "simplices", "bernstein",
    "subdivision", "certify", "serialize", "counterexample",
):
    __all__ += _sys.modules[f"{__name__}.{_name}"].__all__
