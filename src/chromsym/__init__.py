"""Exact engine for chromatic symmetric functions of natural unit interval orders.

Three independently defined refinements of the chromatic quasisymmetric
function, a brute-force coloring oracle, a restricted modular law with
path-decomposition certificates, and sink/orientation identities, all over
exact rational functions in q.
"""

from .hessenberg import area, edges, enumerate_hess, hess, path, poset_less
from .qpoly import QPoly, QRat, q_fact, q_int
from .symfunc import SymFun, h_to_e, omega

__all__ = [
    "QPoly",
    "QRat",
    "SymFun",
    "area",
    "edges",
    "enumerate_hess",
    "h_to_e",
    "hess",
    "omega",
    "path",
    "poset_less",
    "q_fact",
    "q_int",
]

__version__ = "0.1.0"
