"""RankSVM: the ordinal-regression model of the paper (Eq. 3).

The model learns a linear scoring function ``r(x) = w·x`` such that within
every stencil instance, faster executions score **higher**.  Training
consumes a :class:`~repro.ranking.partial.RankingGroups` dataset (features,
runtimes, instance ids); the per-instance partial rankings generate the
preference-pair constraints, weighted ``C/m′`` exactly as in the paper.

Conventions:

* ``decision_function`` returns scores, **higher = predicted faster**;
* ``rank`` returns candidate indices best-first;
* ``kendall_per_group`` reproduces the paper's §VI-B evaluation — the τ
  between predicted and true orderings, one value per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.features.encoder import FactoredRows
from repro.learn.solvers import SolverResult, solve_lbfgs, solve_sgd
from repro.ranking.kendall import kendall_tau
from repro.ranking.partial import RankingGroups

__all__ = ["RankSVM", "RankSVMConfig"]


@dataclass(frozen=True)
class RankSVMConfig:
    """Hyper-parameters; the paper uses a linear kernel with ``C = 0.01``.

    ``pair_weighting`` selects how the slack term scales with the number of
    preference pairs ``m``:

    * ``"sum"`` (default) — ``C · Σ ξ``.  This matches the *practical*
      strength of SVM-Rank's default ``c = 0.01``: Joachims' 1-slack
      structural formulation lets the margin violation scale with the
      number of swapped pairs, so the effective per-pair pressure does not
      vanish as the training set grows.
    * ``"mean"`` — ``(C / m) · Σ ξ``, the literal Eq. 3 of the paper.  With
      ``C = 0.01`` and tens of thousands of pairs the regularizer dominates
      and the model stays heavily underfit; kept for the faithfulness
      ablation (``benchmarks/bench_ablation_c.py``).
    """

    C: float = 0.01
    margin: float = 1.0
    solver: str = "lbfgs"
    pair_weighting: str = "sum"
    max_iter: int = 150
    tol: float = 1e-9
    #: cap on preference pairs per instance (None = all pairs)
    max_pairs_per_group: int | None = 3000
    #: relative runtime difference below which executions count as tied
    tie_tol: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ValueError(f"C must be > 0, got {self.C}")
        if self.solver not in ("lbfgs", "sgd"):
            raise ValueError(f"unknown solver {self.solver!r}; expected lbfgs/sgd")
        if self.pair_weighting not in ("sum", "mean"):
            raise ValueError(
                f"unknown pair_weighting {self.pair_weighting!r}; expected sum/mean"
            )


@dataclass
class RankSVM:
    """Linear ordinal-regression SVM over partial rankings."""

    config: RankSVMConfig = field(default_factory=RankSVMConfig)
    w_: np.ndarray | None = field(default=None, repr=False)
    solver_result_: SolverResult | None = field(default=None, repr=False)
    num_pairs_: int = 0

    # -- training ------------------------------------------------------------

    def fit(
        self, data: RankingGroups, warm_start: "np.ndarray | None" = None
    ) -> "RankSVM":
        """Train on a grouped dataset; returns self.

        ``warm_start`` optionally seeds the solver with a previous weight
        vector (e.g. the currently serving model's ``w_``) instead of zeros.
        The objective is convex, so the solution is the same up to solver
        tolerance — warm starts buy convergence speed when the data shifts
        incrementally, which is exactly the continual-retraining case.

        >>> import numpy as np
        >>> from repro.ranking.partial import RankingGroups
        >>> X = np.array([[0.0], [1.0], [0.0], [1.0]])
        >>> times = np.array([2.0, 1.0, 4.0, 3.0])  # feature 1 → faster
        >>> groups = np.array([0, 0, 1, 1])
        >>> model = RankSVM().fit(RankingGroups(X, times, groups))
        >>> bool(model.w_[0] > 0)
        True
        """
        cfg = self.config
        better, worse = data.all_pairs(
            tie_tol=cfg.tie_tol,
            max_pairs_per_group=cfg.max_pairs_per_group,
            rng=cfg.seed,
        )
        self.num_pairs_ = int(better.size)
        if warm_start is not None:
            warm_start = np.asarray(warm_start, dtype=float)
            if warm_start.shape != (data.X.shape[1],):
                raise ValueError(
                    f"warm_start has shape {warm_start.shape}, "
                    f"expected ({data.X.shape[1]},)"
                )
        # solvers implement (C/m)·Σξ; "sum" weighting passes C·m to cancel m
        c_eff = cfg.C * better.size if cfg.pair_weighting == "sum" else cfg.C
        if cfg.solver == "lbfgs":
            result = solve_lbfgs(
                data.X,
                better,
                worse,
                C=c_eff,
                margin=cfg.margin,
                max_iter=cfg.max_iter,
                tol=cfg.tol,
                w0=warm_start,
            )
        else:
            result = solve_sgd(
                data.X,
                better,
                worse,
                C=c_eff,
                margin=cfg.margin,
                rng=cfg.seed,
                w0=warm_start,
            )
        self.w_ = result.w
        self.solver_result_ = result
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.w_ is not None

    def _require_fit(self) -> np.ndarray:
        if self.w_ is None:
            raise RuntimeError("RankSVM is not fitted; call fit() first")
        return self.w_

    # -- inference -------------------------------------------------------------

    def decision_function(self, X: "np.ndarray | FactoredRows") -> np.ndarray:
        """Scores for candidate feature rows (higher = predicted faster).

        ``X`` is an encoded matrix (training, evaluation) or the
        :class:`~repro.features.encoder.FactoredRows` of one instance's
        candidates (every inference path), scored without building the
        matrix.  Both forms reduce each row with ``einsum``, so a row's
        score depends only on its values: equal rows tie exactly, and a
        row scores the same bytes whatever matrix it sits in (BLAS
        ``X @ w`` varies in the last ulp with row position and alignment).
        """
        w = self._require_fit()
        if isinstance(X, FactoredRows):
            if X.num_features != w.size:
                raise ValueError(
                    f"feature dimension mismatch: model has {w.size}, "
                    f"X has {X.num_features}"
                )
            return X.dot(w)
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        if X.shape[1] != w.size:
            raise ValueError(
                f"feature dimension mismatch: model has {w.size}, X has {X.shape[1]}"
            )
        return np.einsum("nf,f->n", X, w)

    def rank(self, X: np.ndarray) -> np.ndarray:
        """Candidate indices sorted best-first (stable under score ties)."""
        return np.argsort(-self.decision_function(X), kind="stable")

    def predict_best(self, X: np.ndarray) -> int:
        """Index of the top-ranked candidate."""
        return int(self.rank(X)[0])

    # -- evaluation ---------------------------------------------------------------

    def kendall_per_group(
        self, data: RankingGroups, variant: str = "gamma"
    ) -> dict[object, float]:
        """Per-instance Kendall τ between predicted and true orderings.

        Scores predict "faster", so τ is computed between the *negated*
        score and the runtime: +1 means the model orders the group exactly
        as the machine does.
        """
        scores = self.decision_function(data.X)
        out: dict[object, float] = {}
        for gid, rows in data.iter_groups():
            if rows.size < 2:
                continue
            out[gid] = kendall_tau(-scores[rows], data.times[rows], variant=variant)
        return out

    def mean_kendall(self, data: RankingGroups, variant: str = "gamma") -> float:
        """Mean per-group τ (the headline number of Fig. 6/7)."""
        taus = list(self.kendall_per_group(data, variant).values())
        return float(np.mean(taus)) if taus else 0.0
