"""Coverage-risk estimation over operational state frequencies.

A model can only have learned behaviors for states it has seen enough of.
This package measures the probability mass sitting on rarely-seen states
(the blind-spot mass), weights it by per-state risk, derives the accuracy
ceiling it implies, and checks the estimators against simulated ground
truth.
"""

from .abstraction import *
from .counts import *
from .errors import *
from .estimators import *
from .ingest import *
from .report import *
from .simulator import *

__version__ = report.TOOL_VERSION

__all__ = [
    "__version__",
    *errors.__all__,
    *counts.__all__,
    *estimators.__all__,
    *abstraction.__all__,
    *ingest.__all__,
    *report.__all__,
    *simulator.__all__,
]
