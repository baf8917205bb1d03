"""Executable traced symmetric monoidal categories and the monads that
lift their traces.

The package ships four concrete models (exact rational matrices, the
integer poset, finite pointed/bounded posets, finite sets with partial
functions), law suites for every axiom family involved, monad/bimonad/Hopf
bundles with fusion operators, the algebra machinery over them, and a CLI
(``tracedcat``) that replays the stock scenarios with pinned expectations.
"""

from .core import (BoundaryError, CapabilityError, EmptyHomError, Model,
                   ModelError, ModelMismatchError, Morphism, UsageError)
from .laws import CaseBudget, CheckReport, Failure

__all__ = [
    "BoundaryError", "CapabilityError", "CaseBudget", "CheckReport",
    "EmptyHomError", "Failure", "Model", "ModelError", "ModelMismatchError",
    "Morphism", "UsageError",
]
