"""Training loop for the AR model (cross-entropy, Equation 3).

Implements the paper's training recipe for the AR part of IAM and for
the Naru/Neurocard baseline:

- Adam on mini-batches of tokenised tuples;
- *wildcard skipping*: per sample, a uniformly-drawn subset of columns is
  replaced by the wildcard token at the input (targets unchanged), which
  teaches the model conditionals marginalised over unqueried columns;
- per-epoch callbacks so experiments can trace error-vs-epoch (Figure 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.autodiff import ops
from repro.ar.made import MADE
from repro.errors import CompileError, ConfigError
from repro.nn.optim import Adam, clip_grad_norm
from repro.runtime.train import TrainStepExecutor
from repro.utils.rng import ensure_rng


@dataclass
class TrainConfig:
    """Hyper-parameters of the AR training loop."""

    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 5e-3
    grad_clip: float = 5.0
    wildcard_probability: float = 0.5  # chance a sample gets any wildcards
    seed: int | None = 0
    backend: str = "compiled"  # cached-tape executor; 'eager' is the oracle

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.wildcard_probability <= 1.0:
            raise ConfigError("wildcard_probability must be in [0, 1]")
        if self.backend not in ("compiled", "eager"):
            raise ConfigError(f"unknown backend {self.backend!r}")


def initialize_output_bias(
    model: MADE,
    tokens: np.ndarray | None = None,
    *,
    counts: list[np.ndarray] | None = None,
) -> None:
    """Set the output bias to per-column log marginal frequencies.

    The classic unigram-bias initialisation: rare tokens start with their
    observed log-probability instead of log(1/vocab), which otherwise
    takes hundreds of Adam steps to push down — exactly the regime IAM's
    K-token columns are in (a tail component may hold a handful of rows).
    Unseen tokens get a pseudo-count of 1/2.

    Callers pass either the (N, n_columns) token matrix or precomputed
    per-column integer ``counts`` (one array of length ``vocab_sizes[k]``
    per column). The counts form lets large tables accumulate bincounts
    chunk by chunk — integer sums, so the result is bitwise-identical to
    the one-shot pass — without materialising the full token matrix.
    """
    if model.output_layer.bias is None:  # pragma: no cover - bias always on
        return
    if counts is None:
        tokens = np.asarray(tokens, dtype=np.int64)
        counts = [
            np.bincount(tokens[:, k], minlength=model.vocab_sizes[k])
            for k in range(len(model.vocab_sizes))
        ]
    bias = model.output_layer.bias.data
    for k, s in enumerate(model._output_slices):
        smoothed = counts[k] + 0.5
        logp = np.log(smoothed / smoothed.sum())
        bias[s] = logp - logp.mean()


def draw_wildcard_mask(
    rng: np.random.Generator,
    batch_rows: int,
    n_columns: int,
    probability: float,
) -> np.ndarray:
    """Wildcard-skipping input mask (Naru-style).

    Each sample is selected with ``probability``; a selected sample masks
    a uniform-count (0..n-1), uniformly-chosen subset of columns.
    """
    use = rng.random(batch_rows) < probability
    counts = rng.integers(0, n_columns, size=batch_rows)
    scores = rng.random((batch_rows, n_columns))
    thresholds = np.sort(scores, axis=1)[np.arange(batch_rows), counts - 1]
    mask = scores <= thresholds[:, None]
    mask[counts == 0] = False
    mask[~use] = False
    return mask


def step_timing_summary(step_seconds: list[float], epoch_seconds: list[float]) -> dict:
    """Wall-clock accounting of a training run (bench reports read this).

    Shared by :class:`ARTrainer` and
    :class:`~repro.core.training.JointTrainer`, which record per-step
    and per-epoch seconds the same way.
    """
    steps = len(step_seconds)
    busy = sum(step_seconds)
    return {
        "n_steps": steps,
        "steps_per_sec": steps / busy if busy > 0 else 0.0,
        "p50_step_ms": float(np.median(step_seconds)) * 1e3 if steps else 0.0,
        "epoch_seconds": list(epoch_seconds),
    }


class ARTrainer:
    """Trains a :class:`MADE` on a token matrix."""

    def __init__(self, model: MADE, config: TrainConfig | None = None):
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self._rng = ensure_rng(self.config.seed)
        self.epoch_losses: list[float] = []
        self.step_seconds: list[float] = []
        self.epoch_seconds: list[float] = []
        self._executor: TrainStepExecutor | None = None
        if self.config.backend == "compiled":
            try:
                self._executor = TrainStepExecutor(model=model)
            except CompileError:
                self._executor = None  # unsupported structure: stay eager

    # ------------------------------------------------------------------
    def _batch_loss(self, batch: np.ndarray, wildcard: bool = True):
        mask = (
            draw_wildcard_mask(
                self._rng, len(batch), self.model.n_columns, self.config.wildcard_probability
            )
            if wildcard
            else None
        )
        log_like = self.model.log_likelihood(batch, wildcard_mask=mask)
        return -log_like.mean()

    # ------------------------------------------------------------------
    def _step(self, tokens: np.ndarray, rows: np.ndarray) -> float:
        """One mini-batch step on whichever backend is active.

        Both backends draw the wildcard mask at the same point in the
        RNG stream, which keeps compiled runs bitwise-equal to eager.
        """
        if self._executor is not None:
            mask = draw_wildcard_mask(
                self._rng, len(rows), self.model.n_columns, self.config.wildcard_probability
            )
            loss_value = self._executor.loss_and_grads(
                tokens=tokens[rows], wildcard_mask=mask, train_ar=True
            )
        else:
            loss = self._batch_loss(tokens[rows])
            self.optimizer.zero_grad()
            loss.backward()
            loss_value = loss.item()
        clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        self.optimizer.step()
        return loss_value

    def train(
        self,
        tokens: np.ndarray,
        on_epoch_end: Callable[[int, float], None] | None = None,
    ) -> list[float]:
        """Run the configured number of epochs; returns per-epoch losses."""
        tokens = np.asarray(tokens, dtype=np.int64)
        initialize_output_bias(self.model, tokens)
        n = len(tokens)
        for epoch in range(self.config.epochs):
            order = self._rng.permutation(n)
            total, seen = 0.0, 0
            epoch_began = time.perf_counter()
            for start in range(0, n, self.config.batch_size):
                rows = order[start : start + self.config.batch_size]
                began = time.perf_counter()
                loss_value = self._step(tokens, rows)
                self.step_seconds.append(time.perf_counter() - began)
                # Weight by row count so the final partial batch does
                # not skew the epoch mean.
                total += loss_value * len(rows)
                seen += len(rows)
            self.epoch_seconds.append(time.perf_counter() - epoch_began)
            if seen == 0:
                # No batch ran (empty token matrix): appending a 0.0
                # "epoch loss" would poison the curve, so skip it and
                # the callback entirely.
                continue
            epoch_loss = total / seen
            self.epoch_losses.append(epoch_loss)
            if on_epoch_end is not None:
                on_epoch_end(epoch, epoch_loss)
        return self.epoch_losses

    def timing_summary(self) -> dict:
        """See :func:`step_timing_summary`."""
        return step_timing_summary(self.step_seconds, self.epoch_seconds)

    # ------------------------------------------------------------------
    def evaluate_nll(self, tokens: np.ndarray, batch_size: int = 4096) -> float:
        """Mean negative log-likelihood (nats/tuple) without wildcards."""
        from repro.autodiff.tensor import no_grad

        tokens = np.asarray(tokens, dtype=np.int64)
        total, count = 0.0, 0
        with no_grad():
            for start in range(0, len(tokens), batch_size):
                batch = tokens[start : start + batch_size]
                ll = self.model.log_likelihood(batch)
                total += float(-ll.numpy().sum())
                count += len(batch)
        return total / max(count, 1)
