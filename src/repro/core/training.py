"""Joint end-to-end training of GMMs and the AR model (Section 4.3).

Per mini-batch of raw tuples:

1. every GMM-reduced column's raw values go through that column's
   :class:`~repro.mixtures.sgd_gmm.SGDGaussianMixture` twice —
   (a) as NLL loss terms (Equation 4), and
   (b) through the non-differentiable argmax assignment (Equation 5)
   to produce the reduced tokens;
2. the reduced tuple (GMM tokens + exact tokens) feeds the AR model,
   whose cross-entropy (Equation 3) is added;
3. one backward pass over the summed loss (Equation 6) updates all
   parameters with Adam. Assignments drift as the GMMs train — that is
   the intended end-to-end behaviour, and why the paper prefers argmax
   (stable inputs, fast convergence) over sampled assignment.

``joint=False`` reproduces the "Separate Training" strawman: the GMMs are
fully trained first, frozen, and the AR model then trains on static
tokens.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.ar.made import MADE
from repro.ar.train import draw_wildcard_mask, initialize_output_bias, step_timing_summary
from repro.core.config import IAMConfig
from repro.errors import CompileError
from repro.mixtures.sgd_gmm import SGDGaussianMixture
from repro.nn.optim import Adam, clip_grad_norm
from repro.runtime.train import TrainStepExecutor
from repro.utils.rng import ensure_rng

# Fixed chunk size for the one-shot unigram pass in train(): bincounts
# are integer sums, so any fixed chunking is bitwise-identical to the
# full-table pass while bounding peak memory to chunk x n_columns.
_BIAS_INIT_CHUNK = 65_536


class JointTrainer:
    """Runs the Equation-6 loss over shared mini-batches.

    Parameters
    ----------
    model:
        The AR model over the reduced token domains.
    gmm_modules:
        ``{column_index: SGDGaussianMixture}`` for GMM-reduced columns.
    raw_columns:
        ``{column_index: raw values (N,)}`` for the GMM columns.
    static_tokens:
        (N, n_columns) token matrix; GMM columns are recomputed per batch,
        other columns are read from here.
    """

    def __init__(
        self,
        model: MADE,
        gmm_modules: dict[int, SGDGaussianMixture],
        raw_columns: dict[int, np.ndarray],
        static_tokens: np.ndarray,
        config: IAMConfig,
    ):
        self.model = model
        self.gmm_modules = gmm_modules
        self.raw_columns = raw_columns
        self.static_tokens = np.asarray(static_tokens, dtype=np.int64)
        self.config = config
        self._rng = ensure_rng(config.seed)
        self.ar_optimizer = Adam(model.parameters(), lr=config.learning_rate)
        gmm_params = [p for m in gmm_modules.values() for p in m.parameters()]
        self.gmm_optimizer = Adam(gmm_params, lr=config.gmm_learning_rate) if gmm_params else None
        self.epoch_losses: list[float] = []
        self.step_seconds: list[float] = []
        self.epoch_seconds: list[float] = []
        self._executor: TrainStepExecutor | None = None
        if config.train_backend == "compiled":
            try:
                self._executor = TrainStepExecutor(
                    model=model, gmm_modules=gmm_modules, raw_columns=raw_columns
                )
            except CompileError:
                self._executor = None  # unsupported structure: stay eager

    # ------------------------------------------------------------------
    def _assign_tokens(self, rows: np.ndarray) -> np.ndarray:
        """Reduced-token batch: argmax (or sampled) GMM ids + static ids."""
        tokens = self.static_tokens[rows].copy()
        for column, module in self.gmm_modules.items():
            values = self.raw_columns[column][rows]
            if self.config.assignment == "sampled":
                frozen = module.freeze()
                tokens[:, column] = frozen.assign_sampled(values, rng=self._rng)
            else:
                tokens[:, column] = module.assign_numpy(values)
        return tokens

    def _batch_loss(self, rows: np.ndarray, train_gmms: bool, train_ar: bool):
        loss = None
        if train_gmms:
            for column, module in self.gmm_modules.items():
                term = module.nll(self.raw_columns[column][rows])
                loss = term if loss is None else loss + term
        if train_ar:
            tokens = self._assign_tokens(rows)
            mask = draw_wildcard_mask(
                self._rng, len(rows), self.model.n_columns, self.config.wildcard_probability
            )
            ar_loss = -self.model.log_likelihood(tokens, wildcard_mask=mask).mean()
            loss = ar_loss if loss is None else loss + ar_loss
        return loss

    def _eager_step(self, rows: np.ndarray, train_gmms: bool, train_ar: bool) -> float | None:
        """One recorded-graph step: loss, backward, clip, optimizer(s)."""
        loss = self._batch_loss(rows, train_gmms, train_ar)
        if loss is None:
            return None
        if train_ar:
            self.ar_optimizer.zero_grad()
        if train_gmms and self.gmm_optimizer is not None:
            self.gmm_optimizer.zero_grad()
        loss.backward()
        self._apply_updates(train_gmms, train_ar)
        return loss.item()

    def _compiled_step(self, rows: np.ndarray, train_gmms: bool, train_ar: bool) -> float | None:
        """One cached-tape step through :class:`TrainStepExecutor`.

        Token assignment and the wildcard mask are drawn *before* the
        executor runs, in the same order as the eager path, so both
        backends consume identical RNG streams.
        """
        tokens = mask = None
        if train_ar:
            tokens = self._assign_tokens(rows)
            mask = draw_wildcard_mask(
                self._rng, len(rows), self.model.n_columns, self.config.wildcard_probability
            )
        loss = self._executor.loss_and_grads(
            rows=rows,
            tokens=tokens,
            wildcard_mask=mask,
            train_gmms=train_gmms,
            train_ar=train_ar,
        )
        if loss is None:
            return None
        self._apply_updates(train_gmms, train_ar)
        return loss

    def _apply_updates(self, train_gmms: bool, train_ar: bool) -> None:
        if train_ar:
            clip_grad_norm(self.ar_optimizer.parameters, self.config.grad_clip)
            self.ar_optimizer.step()
        if train_gmms and self.gmm_optimizer is not None:
            clip_grad_norm(self.gmm_optimizer.parameters, self.config.grad_clip)
            self.gmm_optimizer.step()

    def _run_epochs(
        self,
        epochs: int,
        train_gmms: bool,
        train_ar: bool,
        on_epoch_end: Callable[[int, float], None] | None,
        epoch_offset: int = 0,
    ) -> None:
        n = len(self.static_tokens)
        for epoch in range(epochs):
            order = self._rng.permutation(n)
            total, seen = 0.0, 0
            epoch_began = time.perf_counter()
            for start in range(0, n, self.config.batch_size):
                rows = order[start : start + self.config.batch_size]
                began = time.perf_counter()
                if self._executor is not None:
                    loss_value = self._compiled_step(rows, train_gmms, train_ar)
                else:
                    loss_value = self._eager_step(rows, train_gmms, train_ar)
                if loss_value is None:
                    continue
                self.step_seconds.append(time.perf_counter() - began)
                # Weight by row count: the final partial batch must not
                # count as much as a full one in the epoch mean.
                total += loss_value * len(rows)
                seen += len(rows)
            self.epoch_seconds.append(time.perf_counter() - epoch_began)
            if seen == 0:
                # No step produced a loss (e.g. train_gmms=False on a
                # GMM-only regime): recording a 0.0 "epoch loss" would
                # poison the curve, so skip the append and the callback.
                continue
            epoch_loss = total / seen
            self.epoch_losses.append(epoch_loss)
            if on_epoch_end is not None:
                on_epoch_end(epoch_offset + epoch, epoch_loss)

    def _initialize_bias(self) -> None:
        """Unigram bias init from the initial assignments.

        Argmax assignment is pure (no RNG), so the full-table token pass
        runs in fixed-size chunks: the per-column bincounts are integer
        sums, bitwise-identical to a one-shot pass, without materialising
        an (N, n_columns) matrix. Sampled assignment draws one uniform
        block per column per call, so chunking would reorder the RNG
        stream — it keeps the one-shot pass.
        """
        n = len(self.static_tokens)
        if self.config.assignment == "sampled":
            initialize_output_bias(self.model, self._assign_tokens(np.arange(n)))
            return
        counts = [
            np.zeros(v, dtype=np.int64) for v in self.model.vocab_sizes
        ]
        for start in range(0, n, _BIAS_INIT_CHUNK):
            chunk = self._assign_tokens(np.arange(start, min(start + _BIAS_INIT_CHUNK, n)))
            for k, column_counts in enumerate(counts):
                column_counts += np.bincount(chunk[:, k], minlength=len(column_counts))
        initialize_output_bias(self.model, counts=counts)

    # ------------------------------------------------------------------
    def train(self, on_epoch_end: Callable[[int, float], None] | None = None) -> list[float]:
        """Run the configured training regime; returns per-epoch losses."""
        # Unigram bias init from the initial assignments (see
        # repro.ar.train.initialize_output_bias); assignments drift a
        # little during joint training but the marginals stay close.
        self._initialize_bias()
        if self.config.joint_training or not self.gmm_modules:
            # Joint epochs train everything; the final epoch freezes the
            # GMMs so the AR model converges on *stable* assignments —
            # during joint training the argmax assignments drift with the
            # GMM parameters, leaving the AR marginals slightly stale.
            joint_epochs = max(self.config.epochs - 1, 1)
            self._run_epochs(joint_epochs, True, True, on_epoch_end)
            if self.config.epochs > 1 and self.gmm_modules:
                self._run_epochs(
                    1, False, True, on_epoch_end, epoch_offset=joint_epochs
                )
        else:
            # Separate-training ablation: GMMs alone, then the AR model.
            self._run_epochs(self.config.epochs, True, False, None)
            self._run_epochs(
                self.config.epochs, False, True, on_epoch_end, epoch_offset=self.config.epochs
            )
        return self.epoch_losses

    # ------------------------------------------------------------------
    def timing_summary(self) -> dict:
        """See :func:`repro.ar.train.step_timing_summary`."""
        return step_timing_summary(self.step_seconds, self.epoch_seconds)
