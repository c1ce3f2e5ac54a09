"""Exact symbolic calculus for graded polynomial charts: Koszul-signed
polynomial arithmetic, the jet-level exponential map between symmetric
tensors and differential operators, the induced flat structure on
form-valued fiber polynomials, and a generic homological perturbation
engine — all over exact rationals; a connection is read off its
Christoffel rows, and tensors and operators are their symbols.

Importing the package loads the chart, polynomial, geometry and operator
modules.  ``PbwContext`` and ``FedosovData`` load their modules (``pbw``;
``fedosov`` with ``pbw`` and ``perturbation``) on first access, so that
a process that never uses them never compiles them.
"""

from .chart import Chart, Truncation
from .poly import GradedPoly
from .geometry import Connection
from .enveloping import DiffOp, SymTensor

__all__ = [
    "Chart", "Truncation", "GradedPoly", "Connection", "DiffOp",
    "SymTensor", "PbwContext", "FedosovData",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name == "PbwContext":
        from .pbw import PbwContext as value
    elif name == "FedosovData":
        from .fedosov import FedosovData as value
    else:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    globals()[name] = value
    return value
