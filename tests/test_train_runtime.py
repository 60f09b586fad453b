"""Compiled training runtime (repro.runtime.train).

Eager autodiff is the verification oracle: for every supported
configuration, a seeded compiled run must reproduce the eager per-epoch
losses and final parameters **bitwise** — not approximately. The rest of
the file pins the executor's operational contracts: tapes are cached per
batch shape and recompiled only on shape change, steady-state steps
allocate nothing (the arena counter), pooled gradient buffers keep their
identity, and unsupported model structures fall back to eager.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.training as training_module
from repro.ar import ARTrainer, TrainConfig, build_made
from repro.ar.train import initialize_output_bias
from repro.core.config import IAMConfig
from repro.core.model import IAM
from repro.core.training import JointTrainer
from repro.errors import CompileError, ConfigError
from repro.mixtures.base import GaussianMixture1D
from repro.mixtures.sgd_gmm import SGDGaussianMixture
from repro.runtime.train import Arena, TrainStepExecutor
from tests.conftest import FAST_IAM


def correlated_tokens(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, n)
    b = (a + rng.integers(0, 2, n)) % 4
    c = rng.integers(0, 3, n)
    return np.column_stack([a, b, c])


def train_ar_pair(arch: str, epochs: int = 3):
    """Train the same seeded MADE twice, once per backend."""
    tokens = correlated_tokens()
    results = {}
    for backend in ("eager", "compiled"):
        model = build_made([4, 4, 3], arch=arch, hidden_sizes=(24, 24), seed=0)
        trainer = ARTrainer(
            model,
            TrainConfig(epochs=epochs, learning_rate=1e-2, seed=0, backend=backend),
        )
        losses = trainer.train(tokens)
        state = {k: v.copy() for k, v in model.state_dict().items()}
        results[backend] = (losses, state, trainer)
    return results


def fit_iam_pair(table, **overrides):
    """Fit the same seeded IAM twice, once per train_backend."""
    results = {}
    for backend in ("eager", "compiled"):
        config = IAMConfig(
            **{**FAST_IAM, "epochs": 2, "train_backend": backend, **overrides}
        )
        model = IAM(config).fit(table)
        state = {k: v.copy() for k, v in model.model.state_dict().items()}
        for column, module in model.trainer.gmm_modules.items():
            for name, array in module.state_dict().items():
                state[f"gmm{column}.{name}"] = array.copy()
        results[backend] = (list(model.epoch_losses), state, model.trainer)
    return results


def assert_bitwise(results):
    eager_losses, eager_state, _ = results["eager"]
    comp_losses, comp_state, comp_trainer = results["compiled"]
    assert comp_trainer._executor is not None, "compiled backend did not engage"
    assert comp_trainer._executor.compile_count >= 1
    assert comp_losses == eager_losses  # float-exact, not approx
    assert set(comp_state) == set(eager_state)
    for key in eager_state:
        assert np.array_equal(eager_state[key], comp_state[key]), key


# ---------------------------------------------------------------------------
# Bitwise equivalence against the eager oracle
# ---------------------------------------------------------------------------


class TestARTrainerBitwise:
    @pytest.mark.parametrize("arch", ["resmade", "made"])
    def test_compiled_matches_eager(self, arch):
        # 3000 rows / batch 512 leaves a 440-row tail batch, so both the
        # full-batch and the partial-batch tapes are exercised.
        assert_bitwise(train_ar_pair(arch))

    def test_backend_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(backend="jit")


class TestJointTrainerBitwise:
    def test_joint_training(self, twi_small):
        assert_bitwise(fit_iam_pair(twi_small))

    def test_separate_training_ablation(self, twi_small):
        assert_bitwise(fit_iam_pair(twi_small, joint_training=False))

    def test_sampled_assignment(self, twi_small):
        assert_bitwise(fit_iam_pair(twi_small, assignment="sampled"))

    def test_backend_validation(self):
        with pytest.raises(ConfigError):
            IAMConfig(train_backend="jit")


# ---------------------------------------------------------------------------
# Tape cache, arena, and fallback contracts
# ---------------------------------------------------------------------------


def make_executor(hidden=(16, 16)):
    model = build_made([4, 4, 3], arch="resmade", hidden_sizes=hidden, seed=0)
    return model, TrainStepExecutor(model=model)


class TestTapeCache:
    def test_recompiles_only_on_batch_shape_change(self):
        _, ex = make_executor()
        tokens = correlated_tokens(96)
        mask = np.zeros((96, 3), dtype=bool)

        ex.loss_and_grads(tokens=tokens[:64], wildcard_mask=mask[:64], train_ar=True)
        assert ex.compile_count == 1
        ex.loss_and_grads(tokens=tokens[:64], wildcard_mask=mask[:64], train_ar=True)
        assert ex.compile_count == 1  # same shape: cache hit
        ex.loss_and_grads(tokens=tokens[:32], wildcard_mask=mask[:32], train_ar=True)
        assert ex.compile_count == 2  # new shape: one new tape
        ex.loss_and_grads(tokens=tokens[:64], wildcard_mask=mask[:64], train_ar=True)
        assert ex.compile_count == 2  # first tape is still cached

    def test_no_active_term_returns_none(self):
        _, ex = make_executor()
        assert ex.loss_and_grads(tokens=correlated_tokens(8)) is None
        assert ex.compile_count == 0


class TestArena:
    def test_steady_state_allocates_nothing(self):
        _, ex = make_executor()
        tokens = correlated_tokens(256)
        mask = np.zeros((64, 3), dtype=bool)
        for start in range(0, 64, 64):
            ex.loss_and_grads(
                tokens=tokens[start : start + 64], wildcard_mask=mask, train_ar=True
            )
        allocations = ex.arena.allocations
        requests = ex.arena.requests
        assert allocations > 0
        for start in range(64, 256, 64):
            ex.loss_and_grads(
                tokens=tokens[start : start + 64], wildcard_mask=mask, train_ar=True
            )
        assert ex.arena.allocations == allocations  # every buffer reused
        assert ex.arena.requests == requests  # post-compile steps skip the arena

    def test_arena_buffers_keyed_by_tag_shape_dtype(self):
        arena = Arena()
        a = arena.get("x", (4, 4))
        b = arena.get("x", (4, 4))
        c = arena.get("x", (4, 3))
        d = arena.get("y", (4, 4))
        assert a is b and a is not c and a is not d
        assert arena.requests == 4 and arena.allocations == 3
        assert len(arena) == 3
        assert arena.nbytes == (16 + 12 + 16) * 8

    def test_grad_buffers_keep_identity_across_steps(self):
        model, ex = make_executor()
        tokens = correlated_tokens(64)
        mask = np.zeros((64, 3), dtype=bool)
        ex.loss_and_grads(tokens=tokens, wildcard_mask=mask, train_ar=True)
        ids = [id(p.grad) for p in model.parameters()]
        assert all(p.grad is not None for p in model.parameters())
        ex.loss_and_grads(tokens=tokens, wildcard_mask=mask, train_ar=True)
        assert [id(p.grad) for p in model.parameters()] == ids


class TestFallback:
    def test_non_made_model_rejected(self):
        with pytest.raises(CompileError):
            TrainStepExecutor(model=object())

    def test_trainer_falls_back_to_eager_on_unsupported_structure(self):
        model = build_made([4, 4, 3], arch="resmade", hidden_sizes=(16, 16), seed=0)
        model.output_layer.bias = None  # compiled tapes require biases
        trainer = ARTrainer(model, TrainConfig(epochs=1, seed=0))
        assert trainer._executor is None  # CompileError swallowed: eager path

    def test_eager_backend_never_builds_executor(self):
        model = build_made([4, 4, 3], arch="resmade", hidden_sizes=(16, 16), seed=0)
        trainer = ARTrainer(model, TrainConfig(epochs=1, seed=0, backend="eager"))
        assert trainer._executor is None


# ---------------------------------------------------------------------------
# Trainer loop contracts: chunked bias init, empty epochs, timing summary
# ---------------------------------------------------------------------------

N_ROWS = 256
BATCH = 64
EPOCHS = 2
VOCAB = [4, 6, 4, 5]


def _raw_columns(n=N_ROWS):
    rng = np.random.default_rng(11)
    return {
        0: rng.normal(0.0, 3.0, n),
        2: rng.gamma(2.0, 1.5, n),
    }


def _static_tokens(n=N_ROWS):
    rng = np.random.default_rng(12)
    tokens = np.zeros((n, 4), dtype=np.int64)
    tokens[:, 1] = rng.integers(0, VOCAB[1], n)
    tokens[:, 3] = rng.integers(0, VOCAB[3], n)
    return tokens


def _gmm(values, k=4):
    init = GaussianMixture1D(
        np.full(k, 1.0 / k),
        np.linspace(float(values.min()), float(values.max()), k),
        np.full(k, float(values.var()) / k + 1e-3),
    )
    return SGDGaussianMixture(init, loc=float(values.mean()), scale=float(values.std()))


def _trainer(n_workers, **overrides):
    raw = _raw_columns()
    model = build_made(VOCAB, arch="resmade", hidden_sizes=(16, 16), embed_dim=4, seed=5)
    gmms = {column: _gmm(values) for column, values in raw.items()}
    config = IAMConfig(
        epochs=EPOCHS,
        batch_size=BATCH,
        hidden_sizes=(16, 16),
        embed_dim=4,
        seed=9,
        n_workers=n_workers,
        **overrides,
    )
    return JointTrainer(model, gmms, raw, _static_tokens(), config)


def test_n_workers_must_be_zero():
    assert IAMConfig(n_workers=0).n_workers == 0
    for n_workers in (1, 2, -1):
        with pytest.raises(ConfigError):
            IAMConfig(n_workers=n_workers)


def test_trainer_timing_summary():
    rng = np.random.default_rng(3)
    tokens = np.column_stack(
        [rng.integers(0, 7, 200), rng.integers(0, 5, 200), rng.integers(0, 9, 200)]
    )
    model = build_made([7, 5, 9], arch="resmade", hidden_sizes=(16, 16), embed_dim=4, seed=2)
    trainer = ARTrainer(model, TrainConfig(epochs=2, batch_size=64, seed=4))
    trainer.train(tokens)
    timing = trainer.timing_summary()
    assert set(timing) == {"n_steps", "steps_per_sec", "p50_step_ms", "epoch_seconds"}
    assert timing["n_steps"] == len(trainer.step_seconds)
    assert timing["steps_per_sec"] > 0
    assert len(timing["epoch_seconds"]) == 2

    joint = _trainer(0)
    joint.train()
    assert set(joint.timing_summary()) == set(timing)
    assert joint.timing_summary()["n_steps"] == len(joint.step_seconds)


def test_chunked_bias_init_bitwise_matches_one_shot(monkeypatch):
    one_shot = _trainer(0)
    initialize_output_bias(
        one_shot.model, one_shot._assign_tokens(np.arange(N_ROWS))
    )
    expected = one_shot.model.output_layer.bias.data.copy()

    monkeypatch.setattr(training_module, "_BIAS_INIT_CHUNK", 37)
    chunked = _trainer(0)
    chunked._initialize_bias()
    assert np.array_equal(chunked.model.output_layer.bias.data, expected)


def test_initialize_output_bias_counts_matches_tokens():
    model_a = build_made(VOCAB, arch="resmade", hidden_sizes=(16, 16), embed_dim=4, seed=5)
    model_b = build_made(VOCAB, arch="resmade", hidden_sizes=(16, 16), embed_dim=4, seed=5)
    rng = np.random.default_rng(8)
    tokens = np.column_stack([rng.integers(0, v, 100) for v in VOCAB])
    initialize_output_bias(model_a, tokens)
    counts = [
        np.bincount(tokens[:, k], minlength=v) for k, v in enumerate(VOCAB)
    ]
    initialize_output_bias(model_b, counts=counts)
    assert np.array_equal(
        model_a.output_layer.bias.data, model_b.output_layer.bias.data
    )


def test_empty_epoch_appends_no_loss_joint():
    trainer = _trainer(0, train_backend="eager")
    trainer.gmm_modules = {}
    calls = []
    # train_gmms=True with no GMM modules: every batch yields no loss.
    trainer._run_epochs(2, True, False, lambda e, l: calls.append((e, l)))
    assert trainer.epoch_losses == []
    assert calls == []
    assert len(trainer.epoch_seconds) == 2  # wall clock still recorded


def test_empty_epoch_appends_no_loss_ar():
    model = build_made([7, 5], arch="resmade", hidden_sizes=(16, 16), embed_dim=4, seed=2)
    trainer = ARTrainer(model, TrainConfig(epochs=2, batch_size=16, seed=4))
    losses = trainer.train(np.zeros((0, 2), dtype=np.int64))
    assert losses == []
    assert trainer.epoch_losses == []
    assert len(trainer.epoch_seconds) == 2
