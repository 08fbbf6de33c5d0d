"""Reverse-mode autodiff substrate (PyTorch stand-in for baselines)."""

from repro.autodiff.tensor import Tensor, concatenate
from repro.autodiff.module import Module, Parameter, Linear
from repro.autodiff.optim import Optimizer, Adam
from repro.autodiff import functional

__all__ = [
    "Tensor",
    "concatenate",
    "Module",
    "Parameter",
    "Linear",
    "Optimizer",
    "Adam",
    "functional",
]
