"""Save / load a fitted IAM model.

The archive (``.npz`` + embedded JSON) stores the config, the AR state
dict, and each reducer's parameters. Monte-Carlo interval samples are
regenerated at load time from the stored GMM parameters (they are derived
state). The training table itself is NOT stored — ``load_iam`` takes the
table (or a schema-compatible one) to rebind inference.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile

import numpy as np

from repro.ar.made import build_made
from repro.ar.progressive import ProgressiveSampler
from repro.core.config import IAMConfig
from repro.core.inference import IAMInference
from repro.core.model import IAM
from repro.data.table import Table
from repro.errors import ConfigError, NotFittedError
from repro.mixtures.base import GaussianMixture1D
from repro.mixtures.interval import make_interval_estimator
from repro.reducers import (
    EquiDepthReducer,
    GMMReducer,
    IdentityReducer,
    SplineReducer,
    UniformMixtureReducer,
)
from repro.utils.rng import ensure_rng


def _reducer_payload(reducer) -> dict:
    if isinstance(reducer, GMMReducer):
        if reducer.mixture is None:
            raise NotFittedError("cannot save an unfinalised GMMReducer")
        return {"kind": "gmm", "mixture": reducer.mixture.to_dict()}
    if isinstance(reducer, IdentityReducer):
        return {"kind": "identity", "distinct": reducer.codec.distinct_values.tolist()}
    if isinstance(reducer, EquiDepthReducer):
        return {"kind": "hist", "edges": reducer.edges.tolist()}
    if isinstance(reducer, SplineReducer):
        return {"kind": "spline", "knots": reducer.knots.tolist()}
    if isinstance(reducer, UniformMixtureReducer):
        return {
            "kind": "umm",
            "lows": reducer.lows.tolist(),
            "highs": reducer.highs.tolist(),
            "weights": reducer.weights.tolist(),
        }
    raise ConfigError(f"unsupported reducer type {type(reducer).__name__}")


def _reducer_from_payload(payload: dict, config: IAMConfig, seed):
    kind = payload["kind"]
    if kind == "gmm":
        reducer = GMMReducer(
            interval_kind=config.interval_kind,
            samples_per_component=config.samples_per_component,
            seed=seed,
        )
        reducer.mixture = GaussianMixture1D.from_dict(payload["mixture"])
        reducer.n_tokens = reducer.mixture.n_components
        interval_kind = config.interval_kind
        if interval_kind == "empirical":
            # Empirical fractions need the training values, which the
            # archive does not carry; fall back to the exact CDF.
            interval_kind = "exact"
        reducer._interval = make_interval_estimator(
            interval_kind,
            reducer.mixture,
            samples_per_component=config.samples_per_component,
            seed=seed,
        )
        return reducer
    if kind == "identity":
        reducer = IdentityReducer()
        reducer.fit(np.asarray(payload["distinct"]))
        return reducer
    if kind == "hist":
        reducer = EquiDepthReducer()
        reducer.edges = np.asarray(payload["edges"])
        reducer.n_tokens = len(reducer.edges) - 1
        return reducer
    if kind == "spline":
        reducer = SplineReducer()
        reducer.knots = np.asarray(payload["knots"])
        reducer.n_tokens = len(reducer.knots) - 1
        return reducer
    if kind == "umm":
        reducer = UniformMixtureReducer()
        reducer.lows = np.asarray(payload["lows"])
        reducer.highs = np.asarray(payload["highs"])
        reducer.weights = np.asarray(payload["weights"])
        reducer.n_tokens = len(reducer.weights)
        return reducer
    raise ConfigError(f"unknown reducer payload kind {kind!r}")


def save_iam(model: IAM, path: str | os.PathLike) -> None:
    """Persist a fitted IAM to ``path`` (npz archive)."""
    if model.model is None:
        raise NotFittedError("cannot save an unfitted IAM")
    meta = {
        "config": model.config.__dict__.copy(),
        "reducers": [_reducer_payload(r) for r in model.reducers],
        "vocab_sizes": model.model.vocab_sizes,
    }
    meta["config"]["hidden_sizes"] = list(meta["config"]["hidden_sizes"])
    # state_arrays(): live views, copied by np.savez while writing.
    arrays = {f"ar.{k}": v for k, v in model.model.state_arrays().items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_iam(path: str | os.PathLike, table: Table) -> IAM:
    """Restore a saved IAM, rebinding inference to ``table``.

    A damaged archive (truncated, not an npz, missing or malformed
    metadata) and a config key :class:`IAMConfig` does not know both
    raise :class:`ConfigError`.
    """
    try:
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"].tobytes()).decode())
            ar_state = {
                name[len("ar.") :]: archive[name]
                for name in archive.files
                if name.startswith("ar.")
            }
        cfg_dict = meta["config"]
    except (zipfile.BadZipFile, EOFError, ValueError, KeyError) as exc:
        raise ConfigError(f"{os.fspath(path)!r} is not a readable IAM archive: {exc}") from exc
    unknown = sorted(set(cfg_dict) - {f.name for f in dataclasses.fields(IAMConfig)})
    if unknown:
        raise ConfigError(f"archive config has unknown IAMConfig keys {unknown}")
    cfg_dict["hidden_sizes"] = tuple(cfg_dict["hidden_sizes"])
    config = IAMConfig(**cfg_dict)

    model = IAM(config)
    model._table = table
    seed = ensure_rng(config.seed)
    model.reducers = [
        _reducer_from_payload(p, config, seed) for p in meta["reducers"]
    ]
    model.model = build_made(
        meta["vocab_sizes"],
        arch=config.arch,
        hidden_sizes=config.hidden_sizes,
        embed_dim=config.embed_dim,
        order=model._build_order(meta["vocab_sizes"]),
        seed=0,
    )
    model.model.load_state_dict(ar_state)
    sampler = ProgressiveSampler(
        model.model, n_samples=config.n_progressive_samples, seed=seed
    )
    model._inference = IAMInference(
        table, model.reducers, sampler, bias_correction=config.bias_correction
    )
    return model
