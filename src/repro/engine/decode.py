"""Stage 3 of the alignment engine: **decode** — the decoder table.

The transport plan a solver backend returns is a *posterior* over node
correspondences, not a matching; turning it into one is a stage of its
own, sitting between solve and evaluate:

    plan → solve → **decode** → evaluate

A decoder consumes a plan (dense ``n × m`` array or scipy CSR — the
sparse path never densifies) and returns a :class:`DecodedMatching`:
the discrete matching, a per-match confidence, decode wall-clock, and
per-node shed scores on plans that move less than their full marginal
mass (the partial backends' dummy/shed mass is a *decoder* concern —
any decoder must behave sensibly on a non-square, mass-deficient
plan).

The four decoders, each with a one-line ``description``:

* ``row-argmax`` — per-row argmax, the pre-refactor evaluate
  behaviour.  Its candidate ranking **is** the posterior's own
  ranking (``posterior_ranked=True``), so the metric adapter routes
  it through the exact mid-rank computation the evaluate stage always
  used: bitwise-identical to the pre-decode-stage pipeline, and
  pinned by ``repro lint``.
* ``mutual-argmax`` — keep a match only when row- and column-argmax
  agree; the precision-oriented decoder (a strict subset of
  row-argmax matches, never more hits but a cleaner matched set).
* ``hungarian`` — exact maximum-weight one-to-one assignment
  (Eq. 2).  Non-square / mass-shedding plans are augmented with a
  private shed edge per source row: priced at the row's mass deficit
  once its shed fraction crosses :data:`UNMATCHABLE_THRESHOLD`, at
  zero below it — so which rows go unmatched is decided by shed
  mass, never by truncation, while a merely under-converged (but
  balanced) plan decodes as the classical assignment.
* ``mea`` — maximum-expected-accuracy decoding in the spirit of the
  nanopore-RNN ``mea_algorithm``: candidate cells scored by the
  product of both directed match posteriors compete, in decreasing
  expected accuracy, against per-source-row *unmatch* hypotheses
  scored by the row's shed fraction (live only past
  :data:`UNMATCHABLE_THRESHOLD`); the frontier sweep accepts every
  non-conflicting hypothesis.  Sequence alignment's monotone-path
  constraint has no analogue on unordered graphs, so the DP's
  transition structure degenerates to the one-to-one constraint.

Unknown decoder names fail with a :class:`ConfigError` naming the
valid choices (never a bare ``KeyError``), mirroring the solver
backend table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.optimize loads on first use: DESIGN.md, "Import cost"
import scipy.sparse as sp

from repro.exceptions import ConfigError
from repro.utils.validation import check_plan

DEFAULT_DECODER = "row-argmax"

#: Shed fraction above which a node is treated as unmatchable by the
#: one-to-one decoders (``hungarian`` shed-column pricing, ``mea``
#: unmatch hypotheses).  Matches the default decision threshold of
#: :func:`repro.eval.metrics.unmatchable_detection`: a node that kept
#: less than half the best-served marginal mass has, more likely than
#: not, no counterpart.  Below the threshold shed pricing is zero —
#: marginal-mass jitter on under-converged (but balanced) plans must
#: not unmatch anything.
UNMATCHABLE_THRESHOLD = 0.5

def available_decoders() -> dict[str, str]:
    """``{name: one-line description}`` of every decoder."""
    return {name: cls.description for name, cls in sorted(_DECODERS.items())}


def _lookup(name: str) -> type:
    decoder_cls = _DECODERS.get(name)
    if decoder_cls is None:
        choices = ", ".join(sorted(_DECODERS))
        raise ConfigError(
            f"unknown decoder {name!r}; valid decoders: {choices}"
        )
    return decoder_cls


def get_decoder(name: str):
    """Instantiate the decoder named ``name``.

    Raises :class:`ConfigError` naming the valid choices on unknown
    names, so the CLI/runner/service surface the table verbatim.
    """
    return _lookup(name)()


def ensure_decoder(name: str) -> str:
    """Validate a decoder name without instantiating it."""
    _lookup(name)
    return name


@dataclass
class DecodedMatching:
    """The decode stage's result: a discrete matching plus diagnostics.

    Attributes
    ----------
    matching:
        ``(n,)`` int64 — matched target column per source row, ``-1``
        where the decoder left the node unmatched.
    confidence:
        ``(n,)`` float64 in [0, 1] — the matched cell's share of its
        row's transported mass (the conditional posterior
        ``π_ij / Σ_j π_ij``); 0 for unmatched rows.
    decoder:
        Registered name of the decoder that produced this.
    decode_seconds:
        Wall-clock of the decode call (plan extraction excluded).
    plan:
        The decoded plan (dense array or CSR) — kept so rank-based
        metrics (Hit@k beyond the matched cell, MRR) can consult the
        posterior's ordering without re-plumbing the result object.
    posterior_ranked:
        True when the decoder's candidate ranking is exactly the
        posterior's own (row-argmax): the metric adapter then uses the
        plan's mid-ranks verbatim — the pre-refactor evaluate path,
        bit for bit.
    source_unmatchable / target_unmatchable:
        Per-node shed fractions in [0, 1]: the share of the node's
        marginal mass the plan did *not* transport, measured against
        the best-served node on its side.  On balanced plans these are
        all ~0; on partial/dummy-reduced plans they are the decoder's
        unmatchable-detection scores.
    """

    matching: np.ndarray
    confidence: np.ndarray
    decoder: str
    decode_seconds: float
    plan: object = field(repr=False, default=None)
    posterior_ranked: bool = False
    source_unmatchable: np.ndarray | None = None
    target_unmatchable: np.ndarray | None = None

    @property
    def n_source(self) -> int:
        return int(self.matching.shape[0])

    @property
    def n_matched(self) -> int:
        return int(np.sum(self.matching >= 0))

    def matched_pairs(self) -> np.ndarray:
        """``(t, 2)`` array of the matched (source, target) pairs."""
        rows = np.nonzero(self.matching >= 0)[0]
        return np.stack([rows, self.matching[rows]], axis=1)


# ----------------------------------------------------------------------
# shared plan accessors (dense or CSR, never densifying)

def _marginal_masses(plan) -> tuple[np.ndarray, np.ndarray]:
    """Row and column mass vectors (sparse sums never densify)."""
    if sp.issparse(plan):
        rows = np.asarray(plan.sum(axis=1)).ravel()
        cols = np.asarray(plan.sum(axis=0)).ravel()
    else:
        rows = plan.sum(axis=1)
        cols = plan.sum(axis=0)
    return rows, cols


def shed_scores(plan) -> tuple[np.ndarray, np.ndarray]:
    """Per-node shed fractions in [0, 1] from marginal mass deficits.

    A balanced plan serves every row the same mass, so all scores are
    ~0.  A partial plan (dummy-sink or unbalanced solve) leaves the
    unmatchable nodes' rows under-served; measured against the
    best-served node on each side, the deficit fraction is a
    representation-agnostic unmatchable score — what the partial
    backends compute from their extended plans, recovered here from
    the plan alone so *every* decoder handles shed mass.
    """
    row_mass, col_mass = _marginal_masses(plan)
    row_ref = float(row_mass.max()) if row_mass.size else 0.0
    col_ref = float(col_mass.max()) if col_mass.size else 0.0
    source = 1.0 - row_mass / row_ref if row_ref > 0.0 else np.ones_like(row_mass)
    target = 1.0 - col_mass / col_ref if col_ref > 0.0 else np.ones_like(col_mass)
    return np.clip(source, 0.0, 1.0), np.clip(target, 0.0, 1.0)


def _shed_prices(plan) -> np.ndarray:
    """Per-source-row shed-edge prices for the one-to-one decoders.

    The raw mass deficit (``ref − mass``, row-mass units) for rows
    whose shed *fraction* reaches :data:`UNMATCHABLE_THRESHOLD`, zero
    for everyone else.  Deficits are whole-row quantities while plan
    cells carry only a slice of a row's mass, so an ungated deficit
    outbids every real cell and unmatches nearly all of an
    under-converged plan; the gate confines that dominance to rows the
    shed evidence actually condemns.  Row marginals are exact on a
    balanced solve (Sinkhorn ends on a row projection) and bimodal on
    a partial one, so the gate fires exactly when shedding is the
    solver's verdict rather than convergence jitter.

    Target columns get no shed edges at all — an unmatched column is
    simply left out of the (row-perfect) rectangular assignment.
    Column marginals of an under-converged plan are skewed
    *continuously* (a starved column is merely unpopular, and often
    holds its row's correct match), so pricing column sheds blocks
    real columns and guts the assignment; an unmatchable column
    already repels the assignment through its near-zero cells, and
    its shed *score* (not price) still reports it in
    :attr:`DecodedMatching.target_unmatchable`.
    """
    row_mass, _ = _marginal_masses(plan)
    frac_src, _ = shed_scores(plan)
    deficit_src = np.maximum(
        (float(row_mass.max()) if row_mass.size else 0.0) - row_mass, 0.0
    )
    return np.where(frac_src >= UNMATCHABLE_THRESHOLD, deficit_src, 0.0)


def _row_argmax(plan) -> np.ndarray:
    """Per-row argmax column; ``-1`` for rows with no stored entry."""
    if sp.issparse(plan):
        # lazy import: metrics imports this module for evaluate_decoded
        from repro.eval.metrics import sparse_topk

        cols, _ = sparse_topk(plan, 1)
        return cols[:, 0]
    return np.argmax(plan, axis=1).astype(np.int64)


def _matched_confidence(plan, matching: np.ndarray) -> np.ndarray:
    """Matched cell's share of its row mass (0 for unmatched rows)."""
    row_mass, _ = _marginal_masses(plan)
    n = matching.shape[0]
    confidence = np.zeros(n)
    rows = np.nonzero(matching >= 0)[0]
    if rows.size == 0:
        return confidence
    scores = _cell_scores(plan, rows, matching[rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(row_mass[rows] > 0.0, scores / row_mass[rows], 0.0)
    confidence[rows] = np.clip(share, 0.0, 1.0)
    return confidence


def _cell_scores(plan, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``plan[rows[i], cols[i]]`` per pair, dense or CSR (no densify)."""
    if not sp.issparse(plan):
        return plan[rows, cols]
    indptr, indices, data = plan.indptr, plan.indices, plan.data
    out = np.zeros(rows.shape[0])
    for i, (r, c) in enumerate(zip(rows, cols)):
        lo, hi = indptr[r], indptr[r + 1]
        pos = lo + np.searchsorted(indices[lo:hi], c)
        if pos < hi and indices[pos] == c:
            out[i] = data[pos]
    return out


# ----------------------------------------------------------------------
# decoders

class Decoder:
    """Base class: timing, shed scores and result assembly."""

    name = "abstract"
    posterior_ranked = False

    def decode(self, plan) -> DecodedMatching:
        plan = check_plan(plan)
        t0 = time.perf_counter()
        matching = self._decode(plan)
        decode_seconds = time.perf_counter() - t0
        source_shed, target_shed = shed_scores(plan)
        return DecodedMatching(
            matching=matching,
            confidence=_matched_confidence(plan, matching),
            decoder=self.name,
            decode_seconds=decode_seconds,
            plan=plan,
            posterior_ranked=self.posterior_ranked,
            source_unmatchable=source_shed,
            target_unmatchable=target_shed,
        )

    def _decode(self, plan) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class RowArgmaxDecoder(Decoder):
    """Top-1 retrieval per source row — the pre-refactor behaviour."""

    name = "row-argmax"
    description = (
        "per-row argmax (top-1 retrieval); candidate ranking is the "
        "posterior's own — bitwise-equal to the pre-decode evaluate path"
    )
    posterior_ranked = True

    def _decode(self, plan) -> np.ndarray:  #: pinned
        """Per-row argmax (bitwise contract of the evaluate refactor).

        Pinned (``repro lint``): together with ``posterior_ranked``
        this is what keeps the default decode→evaluate route
        bit-for-bit equal to the pre-decode-stage pipeline.
        """
        return _row_argmax(plan)


class MutualArgmaxDecoder(Decoder):
    """Match only where row- and column-argmax agree."""

    name = "mutual-argmax"
    description = (
        "row/column argmax agreement; precision-oriented subset of "
        "row-argmax (non-mutual rows stay unmatched)"
    )

    def _decode(self, plan) -> np.ndarray:  #: pinned
        row_best = _row_argmax(plan)
        if sp.issparse(plan):
            col_best = _row_argmax(sp.csr_array(plan.T))
        else:
            col_best = np.argmax(plan, axis=0).astype(np.int64)
        matching = row_best.copy()
        rows = np.arange(matching.shape[0])
        valid = matching >= 0
        mutual = np.zeros_like(valid)
        mutual[valid] = col_best[matching[valid]] == rows[valid]
        matching[~mutual] = -1
        return matching


class HungarianDecoder(Decoder):
    """Exact maximum-weight assignment with shed-mass padding (Eq. 2).

    The plan is embedded in an ``n × (m + n)`` rectangular assignment
    problem: every source row gets a private *shed column* (see
    :func:`_shed_prices`) and the assignment is perfect on the source
    side — every row takes either a real cell or its own shed edge,
    while target columns may simply stay unmatched.  A row whose shed
    fraction reaches :data:`UNMATCHABLE_THRESHOLD` prices its shed
    edge at the raw mass deficit (best-served mass minus own mass) —
    row-mass units, which outbid any single plan cell, so a
    decisively-shed row always comes out unmatched.  Every other shed
    edge is priced at zero: an under-converged but balanced plan
    decodes as the classical Hungarian matching, never unmatching a
    node a cell of positive mass could serve.  Which rows go
    unmatched is thus decided by shed mass, never by truncation.  CSR
    plans solve the same augmented problem sparsely via SciPy's
    bipartite matching — the private shed edges keep a row-perfect
    matching feasible on any sparsity pattern (min-weight on shifted
    costs: the matching size is fixed at ``n``, so minimising
    ``C − π`` maximises ``π``).
    """

    name = "hungarian"
    description = (
        "exact maximum-weight one-to-one assignment (Eq. 2) with "
        "per-row shed columns on partial/non-square plans"
    )

    def _decode(self, plan) -> np.ndarray:  #: pinned
        n, m = plan.shape
        shed_src = _shed_prices(plan)
        if sp.issparse(plan):
            return self._decode_sparse(plan, shed_src)
        rect = np.zeros((n, m + n))
        rect[:, :m] = plan
        rect[np.arange(n), m + np.arange(n)] = shed_src
        rows, cols = scipy.optimize.linear_sum_assignment(rect, maximize=True)
        matching = np.full(n, -1, dtype=np.int64)
        real = cols < m
        matching[rows[real]] = cols[real]
        return matching

    def _decode_sparse(self, plan, shed_src: np.ndarray) -> np.ndarray:
        from scipy.sparse.csgraph import min_weight_full_bipartite_matching

        n, m = plan.shape
        coo = plan.tocoo()
        # shift so all weights are positive: the matching is perfect
        # on the n source rows, so minimising C − s over its edges is
        # exactly maximising s
        shift = 1.0 + max(
            float(coo.data.max()) if coo.data.size else 0.0,
            float(shed_src.max()) if shed_src.size else 0.0,
        )
        rows = np.concatenate([coo.row, np.arange(n)])
        cols = np.concatenate([coo.col, m + np.arange(n)])
        weights = np.concatenate([shift - coo.data, shift - shed_src])
        rect = sp.csr_matrix((weights, (rows, cols)), shape=(n, m + n))
        row_ind, col_ind = min_weight_full_bipartite_matching(rect)
        matching = np.full(n, -1, dtype=np.int64)
        real = col_ind < m
        matching[row_ind[real]] = col_ind[real]
        return matching


class MEADecoder(Decoder):
    """Maximum-expected-accuracy frontier sweep over match hypotheses.

    Every plan cell is a *match hypothesis* scored by the product of
    the two directed posteriors ``(π_ij / M_r) · (π_ij / M_c)`` (with
    ``M_r`` / ``M_c`` the best-served row/column mass — a node's
    missing mass is exactly its probability of having no
    counterpart), and every decisively-shed source row contributes an
    *unmatch hypothesis* scored by its squared shed fraction.
    Hypotheses are processed in decreasing
    expected accuracy; each one that conflicts with no accepted
    hypothesis extends the frontier, exactly the forward-edge
    accumulation of the nanopore MEA dynamic program with the
    monotone-path transition replaced by the one-to-one constraint
    (unordered graphs have no event/reference axis).  Unlike
    ``hungarian`` this is a single greedy sweep (a ½-approximation of
    the assignment optimum) whose per-hypothesis scores are
    probabilities; a node shed past :data:`UNMATCHABLE_THRESHOLD`
    fields an unmatch hypothesis that can outbid its residual
    entries, while sub-threshold shed never unmatches anyone.
    """

    name = "mea"
    description = (
        "maximum-expected-accuracy frontier sweep: directed-posterior "
        "products vs per-node unmatch hypotheses, one-to-one"
    )

    def _decode(self, plan) -> np.ndarray:  #: pinned
        n, m = plan.shape
        row_mass, col_mass = _marginal_masses(plan)
        row_ref = float(row_mass.max()) if row_mass.size else 0.0
        col_ref = float(col_mass.max()) if col_mass.size else 0.0
        matching = np.full(n, -1, dtype=np.int64)
        if row_ref <= 0.0 or col_ref <= 0.0:
            return matching
        if sp.issparse(plan):
            coo = plan.tocoo()
            cell_rows, cell_cols, scores = coo.row, coo.col, coo.data
        else:
            cell_rows, cell_cols = np.nonzero(plan > 0.0)
            scores = plan[cell_rows, cell_cols]
        accuracy = (scores / row_ref) * (scores / col_ref)
        shed_src, _ = shed_scores(plan)
        # source-row unmatch hypotheses are live only past the
        # unmatchable threshold — sub-threshold shed is marginal
        # jitter, and a squared fraction of it must not outbid genuine
        # match cells on an under-converged plan.  Columns field no
        # unmatch hypotheses at all (same rationale as the hungarian
        # shed prices): a column nobody wants is already repelled by
        # its near-zero cells, and goes unmatched implicitly.
        unmatch_src = np.where(
            shed_src >= UNMATCHABLE_THRESHOLD, shed_src**2, 0.0
        )
        # hypothesis list: match cells, then per-row unmatch
        # hypotheses (col index -1 marks "no counterpart")
        hyp_rows = np.concatenate([cell_rows, np.arange(n)])
        hyp_cols = np.concatenate(
            [cell_cols, np.full(n, -1, dtype=np.int64)]
        )
        hyp_score = np.concatenate([accuracy, unmatch_src])
        # decreasing score; ties resolved by (row, col) for determinism
        order = np.lexsort((hyp_cols, hyp_rows, -hyp_score))
        row_free = np.ones(n, dtype=bool)
        col_free = np.ones(m, dtype=bool)
        for idx in order:
            r, c = int(hyp_rows[idx]), int(hyp_cols[idx])
            if r >= 0 and not row_free[r]:
                continue
            if c >= 0 and not col_free[c]:
                continue
            if r >= 0:
                row_free[r] = False
            if c >= 0:
                col_free[c] = False
            if r >= 0 and c >= 0:
                matching[r] = c
        return matching


# ----------------------------------------------------------------------

def decode_plan(result, decoder=DEFAULT_DECODER) -> DecodedMatching:
    """Decode any result shape's plan with a named (or given) decoder.

    ``result`` may be an :class:`~repro.core.result.AlignmentResult`,
    a :class:`~repro.scale.aligner.PartitionedAlignment`, or a raw
    dense/CSR plan; ``decoder`` a decoder name or a :class:`Decoder`
    instance.
    """
    # lazy import: evaluate.py imports this module
    from repro.engine.evaluate import extract_plan

    if isinstance(decoder, Decoder):
        return decoder.decode(extract_plan(result))
    return get_decoder(decoder).decode(extract_plan(result))


#: ``{name: decoder class}``: the four decoders
_DECODERS = {
    cls.name: cls
    for cls in (RowArgmaxDecoder, MutualArgmaxDecoder, HungarianDecoder, MEADecoder)
}
