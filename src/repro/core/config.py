"""Configuration for the IAM model, including all ablation switches."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass
class IAMConfig:
    """Hyper-parameters of IAM.

    Model-structure knobs
    ---------------------
    n_components:
        GMM components per reduced column; ``None`` lets the VBGMM choose
        (paper Section 4.2). Paper default: 30.
    gmm_domain_threshold:
        A continuous column is GMM-reduced when its domain size exceeds
        this (paper: 1000).
    reducer_kind:
        'gmm' (the paper) or one of the Section 6.6 alternatives
        ('hist' | 'spline' | 'umm') for the Tables 9–11 comparison.
    arch / hidden_sizes / embed_dim:
        The AR network ('resmade' per the paper, or 'made').
    order:
        'natural' (paper default), 'random', or 'mindomain'.

    Training knobs
    --------------
    epochs / batch_size / learning_rate / grad_clip / wildcard_probability:
        Shared mini-batch loop settings (Equation 6 joint loss).
    joint_training:
        True = the paper's end-to-end joint loop; False = the "Separate
        Training" strawman of Section 4.3 (GMMs first, then the AR model).
    train_backend:
        'compiled' (default) runs mini-batches through the cached-tape
        executor in ``repro.runtime.train``; 'eager' records the autodiff
        graph every step. Both are bitwise-identical under a fixed seed —
        eager is the correctness oracle (see docs/training_runtime.md).
    n_workers:
        Must be 0: training is one sequential in-process SGD loop, the
        paper's joint Equation-6 recipe, so there are no worker
        processes to configure. The field is kept only so callers that
        pass ``n_workers=0`` keep working; any other value raises
        :class:`~repro.errors.ConfigError`.

    Inference knobs
    ---------------
    n_progressive_samples:
        Progressive-sampling budget per query.
    interval_kind / samples_per_component:
        The ``P_GMM(R)`` estimator ('montecarlo' with S=10K is the paper).
    bias_correction:
        False reproduces the *biased* vanilla sampler that Section 5.2
        corrects (ablation).
    assignment:
        'argmax' (Equation 5) or 'sampled' (the rejected alternative).
    inference_precision:
        'float64' (default) runs the bitwise-exact compiled plan;
        'float32' compiles the serving tier — half the plan/scratch
        bytes, gated by the q-error tolerance contract of
        ``repro.bench inference_precision`` instead of bitwise equality
        (docs/runtime.md "Precision tiers").
    """

    # model structure
    n_components: int | None = 30
    gmm_domain_threshold: int = 1000
    reducer_kind: str = "gmm"
    arch: str = "resmade"
    hidden_sizes: tuple[int, ...] = (128, 128, 128)
    embed_dim: int = 16
    order: str = "natural"

    # training
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 5e-3
    gmm_learning_rate: float = 2e-2
    grad_clip: float = 5.0
    wildcard_probability: float = 0.5
    joint_training: bool = True
    train_backend: str = "compiled"
    n_workers: int = 0

    # inference
    n_progressive_samples: int = 512
    interval_kind: str = "montecarlo"
    samples_per_component: int = 10_000
    bias_correction: bool = True
    assignment: str = "argmax"
    stratified_sampling: bool = False  # systematic draws on the first column
    inference_precision: str = "float64"

    seed: int = 0

    def __post_init__(self) -> None:
        if self.reducer_kind not in ("gmm", "loggmm", "hist", "spline", "umm"):
            raise ConfigError(f"unknown reducer_kind {self.reducer_kind!r}")
        if self.arch not in ("resmade", "made"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.order not in ("natural", "random", "mindomain"):
            raise ConfigError(f"unknown order {self.order!r}")
        if self.assignment not in ("argmax", "sampled"):
            raise ConfigError(f"unknown assignment {self.assignment!r}")
        if self.interval_kind not in ("montecarlo", "exact", "empirical"):
            raise ConfigError(f"unknown interval_kind {self.interval_kind!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.n_progressive_samples < 1:
            raise ConfigError("epochs, batch_size, n_progressive_samples must be >= 1")
        if not 0.0 <= self.wildcard_probability <= 1.0:
            raise ConfigError("wildcard_probability must be in [0, 1]")
        if self.train_backend not in ("compiled", "eager"):
            raise ConfigError(f"unknown train_backend {self.train_backend!r}")
        if self.n_workers != 0:
            raise ConfigError(
                f"n_workers must be 0 (training is sequential), got {self.n_workers}"
            )
        if self.inference_precision not in ("float64", "float32"):
            raise ConfigError(
                f"unknown inference_precision {self.inference_precision!r} "
                "(expected 'float64' or 'float32')"
            )
        self.hidden_sizes = tuple(self.hidden_sizes)
