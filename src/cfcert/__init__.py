"""cfcert: certified robustness of counterfactual explanations under
bounded model-parameter shifts.

Builds interval abstractions of logistic-regression and ReLU-network
classifiers, certifies whether counterfactual explanations survive every
parameter shift of bounded norm (via an embedded MILP engine), and generates
counterfactuals that carry that certificate.
"""

from .intervals import IntervalModel, ShiftSet, abstract, interval_forward
from .models import (
    Layer,
    LogisticModel,
    ReluNetwork,
    classify,
    flatten,
    forward,
    load_model,
    p_distance,
    save_model,
    unflatten,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LogisticModel",
    "ReluNetwork",
    "Layer",
    "forward",
    "classify",
    "p_distance",
    "flatten",
    "unflatten",
    "save_model",
    "load_model",
    "ShiftSet",
    "IntervalModel",
    "abstract",
    "interval_forward",
]
