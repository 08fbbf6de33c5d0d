"""Common result type returned by every aligner in the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AlignmentResult:
    """Outcome of an alignment run.

    Attributes
    ----------
    plan:
        ``n × m`` soft correspondence matrix (a transport plan for the
        OT methods, a similarity matrix for embedding methods —
        evaluation only uses relative row order).
    runtime:
        Wall-clock seconds spent in ``fit``.
    method:
        Name of the producing aligner.
    extras:
        Method-specific diagnostics (e.g. learned β weights, histories).
    """

    plan: np.ndarray
    runtime: float = 0.0
    method: str = ""
    extras: dict = field(default_factory=dict)

    def decode(self, decoder: str | None = None):
        """Decode the plan through the engine's decoder registry.

        Returns a :class:`~repro.engine.decode.DecodedMatching` —
        matching plus per-match confidence, shed scores and decode
        timing — for any registered decoder name (default
        ``row-argmax``; ``hungarian`` is the exact Eq. (2) matching).
        """
        # lazy import: repro.engine depends on this result type
        from repro.engine.decode import DEFAULT_DECODER, decode_plan

        return decode_plan(self, decoder if decoder is not None else DEFAULT_DECODER)
