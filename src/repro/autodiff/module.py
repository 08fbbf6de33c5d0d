"""Module/parameter containers mirroring the familiar torch.nn shape."""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.utils.random import check_random_state


class Parameter(Tensor):
    """A tensor registered as trainable."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: tracks parameters recursively through attributes."""

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in vars(self).values():
            for param in _collect(value):
                if id(param) not in seen:
                    seen.add(id(param))
                    params.append(param)
        return params

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _collect(value):
    if isinstance(value, Parameter):
        yield value
    elif isinstance(value, Module):
        yield from value.parameters()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _collect(item)


class Linear(Module):
    """Dense affine layer ``y = x W + b`` with Glorot initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed=None):
        rng = check_random_state(seed)
        scale = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(
            rng.uniform(-scale, scale, size=(in_features, out_features))
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
