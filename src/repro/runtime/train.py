"""Compiled training steps: cached tapes, fused kernels, pooled buffers.

``repro.runtime.plan`` compiled the *inference* half of the split; this
module gives the Equation-6 training loop the same treatment. The eager
path re-records the autodiff graph every mini-batch — hundreds of Tensor
nodes, a topological sort, and a fresh allocation for every forward value
and gradient. The graph *structure* is fixed per (batch size, loss
config), so a :class:`TrainStepExecutor` captures it once as a pair of
straight-line numpy programs (forward + hand-derived backward) bound to
pooled buffers, and replays them every step:

- **Tape caching** — one :class:`CompiledMADELoss` /
  :class:`CompiledGMMLoss` per batch size, built lazily on the first
  batch of that size (the final partial batch of an epoch gets its own
  program) and reused for the rest of training.
- **Buffer arena** — every forward activation, gradient, and scratch
  array comes from an :class:`Arena` keyed by ``(tag, shape, dtype)``.
  Steady-state steps perform no large allocations; the arena's
  ``allocations`` counter is the test hook for that contract.
- **Fused kernels** — linear + bias + ReLU run in one buffer (the ReLU
  mask is recovered from the post-activation sign, so pre-activations
  are never stored); log-softmax / cross-entropy share one pass per
  column; the per-column GMM NLL loop becomes one stacked ``(C, B, K)``
  evaluation per component-count group.
- **In-place optimizer coupling** — parameter gradients are written into
  stable pooled buffers bound to ``param.grad``; ``nn.optim`` updates
  ``param.data`` in place, so the programs read parameters live through
  ``Parameter.data`` and nothing ever goes stale (``load_state_dict``
  swaps are picked up because only ``.data`` attribute reads are bound,
  never the arrays themselves).

Numerics contract
-----------------
The compiled programs replay the *same numpy operations in the same
order on identically-laid-out arrays* as the eager autodiff path, and
every hand-derived backward mirrors the corresponding closure in
``repro.autodiff`` op for op. Gradient accumulation orders that differ
are two-term float additions (commutative, hence exact). A seeded
compiled run therefore reproduces eager per-epoch losses and final
parameters **bitwise**; eager mode stays available as the correctness
oracle (``train_backend='eager'``), and ``repro.bench training`` gates
the equivalence the same way ``BENCH_inference.json`` gates inference.

Unsupported model structures raise :class:`~repro.errors.CompileError`
at executor construction; trainers catch it and fall back to eager.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CompileError

_LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "Arena",
    "CompiledGMMLoss",
    "CompiledMADELoss",
    "TrainStepExecutor",
]


class Arena:
    """A keyed pool of reusable numpy buffers.

    Buffers are requested at *compile* time with ``get(tag, shape)`` and
    live for the arena's lifetime, so a compiled step that only touches
    arena buffers allocates nothing. ``requests`` counts every ``get``;
    ``allocations`` counts the ones that actually created an array —
    once training reaches steady state the latter stops moving, which is
    exactly what the contract tests assert.
    """

    __slots__ = ("_buffers", "requests", "allocations")

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.requests = 0
        self.allocations = 0

    def get(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (tag, tuple(int(s) for s in shape), np.dtype(dtype).str)
        self.requests += 1
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(key[1], dtype=dtype)
            self._buffers[key] = buf
            self.allocations += 1
        return buf

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)


class _GradTable:
    """Stable parameter -> pooled gradient buffer mapping.

    One buffer per parameter, shared by every compiled program in the
    executor (programs for different batch sizes write the same buffers).
    ``bind`` points ``param.grad`` at the pooled buffer so
    ``clip_grad_norm`` and the in-place optimizers operate directly on
    what the compiled backward wrote.
    """

    def __init__(self, arena: Arena) -> None:
        self._arena = arena
        self._entries: list[tuple[object, np.ndarray]] = []
        self._by_id: dict[int, np.ndarray] = {}

    def buf(self, param) -> np.ndarray:
        found = self._by_id.get(id(param))
        if found is None:
            found = self._arena.get(f"grad{len(self._entries)}", param.data.shape)
            self._by_id[id(param)] = found
            self._entries.append((param, found))
        return found

    @staticmethod
    def bind(param_bufs: list[tuple[object, np.ndarray]]) -> None:
        for param, buf in param_bufs:
            param.grad = buf


def _guard_nonfinite_max(m: np.ndarray, fin: np.ndarray) -> None:
    """In-place replica of ``np.where(np.isfinite(m), m, 0.0)``."""
    np.isfinite(m, out=fin)
    np.logical_not(fin, out=fin)
    np.copyto(m, 0.0, where=fin)


def _supported_made(model) -> None:
    """Raise :class:`CompileError` unless ``model`` is a standard MADE."""
    from repro.ar.made import MADE

    if not isinstance(model, MADE):
        raise CompileError(
            f"compiled training supports MADE models, got {type(model).__name__}"
        )
    layers = [model.output_layer]
    if model.residual:
        layers.append(model.input_layer)
        for block in model.blocks:
            layers.extend([block.linear1, block.linear2])
    else:
        layers.extend(model.hidden_layers)
    for layer in layers:
        if layer.bias is None:
            raise CompileError("compiled training requires bias-enabled layers")


class CompiledMADELoss:
    """Fused forward/backward of the summed ``log_likelihood(tokens, mask)``.

    One instance per (model, batch size). ``run`` loads the batch,
    executes the forward program, and immediately runs the hand-derived
    backward, writing parameter gradients into the pooled buffers. The
    return value is the RAW log-likelihood sum; the executor applies the
    ``-(sum * (1.0 / batch))`` scaling so the per-batch loss stays
    bitwise equal to the eager ``loss.item()``.
    """

    def __init__(self, model, batch: int, arena: Arena, grads: _GradTable):
        _supported_made(model)
        self.model = model
        self.batch = int(batch)
        self.arena = arena
        a = arena.get
        B = self.batch
        C = model.n_columns
        E = sum(model.embed_widths)
        V = sum(model.vocab_sizes)

        # Input slots and embedding layout.
        self._in_tok = a("ar.tok", (B, C), np.int64)
        self._wild_row = model.wildcard_ids[None, :].copy()
        self._x = a("ar.x", (B, E))
        self._embed_slices = []
        start = 0
        for width in model.embed_widths:
            self._embed_slices.append(slice(start, start + width))
            start += width

        # Trunk buffers.
        if model.residual:
            W = model.input_layer.out_features
            self._mw_in = a("ar.mwin", model.input_layer.weight.data.shape)
            self._h = a("ar.h", (B, W))
            self._f = a("ar.f", (B, W))
            self._a2 = a("ar.a2", (B, W))
            self._r0 = [a(f"ar.r0{i}", (B, W)) for i in range(len(model.blocks))]
            self._r1 = [a(f"ar.r1{i}", (B, W)) for i in range(len(model.blocks))]
            self._mw1 = [
                a(f"ar.mw1{i}", blk.linear1.weight.data.shape)
                for i, blk in enumerate(model.blocks)
            ]
            self._mw2 = [
                a(f"ar.mw2{i}", blk.linear2.weight.data.shape)
                for i, blk in enumerate(model.blocks)
            ]
            self._gh = a("ar.gh", (B, W))
            self._gt = a("ar.gt", (B, W))
            self._gt2 = a("ar.gt2", (B, W))
            self._relu_mask = a(f"ar.relu{W}", (B, W), bool)
            self._gx = a("ar.gx", (B, E))
            last_width = W
        else:
            widths = [E] + [layer.out_features for layer in model.hidden_layers]
            self._mw = [
                a(f"ar.mw{i}", layer.weight.data.shape)
                for i, layer in enumerate(model.hidden_layers)
            ]
            self._hs = [a(f"ar.h{i}", (B, w)) for i, w in enumerate(widths[1:])]
            # Per-layer gradient buffers, sized by each layer's *input*.
            self._ghs = [a(f"ar.gh{i}", (B, w)) for i, w in enumerate(widths[:-1])]
            self._relu_masks = [a(f"ar.relu{w}", (B, w), bool) for w in widths[1:]]
            last_width = widths[-1]

        # Output head and per-column cross-entropy buffers.
        self._mw_out = a("ar.mwout", model.output_layer.weight.data.shape)
        self._out = a("ar.out", (B, V))
        self._out_views = [self._out[:, s] for s in model._output_slices]
        self._gf = a("ar.gf", (B, last_width))
        self._lp = [a(f"ar.lp{k}", (B, v)) for k, v in enumerate(model.vocab_sizes)]
        self._glp = [a(f"ar.glp{k}", (B, v)) for k, v in enumerate(model.vocab_sizes)]
        self._row_off = []
        for k, v in enumerate(model.vocab_sizes):
            off = a(f"ar.ro{k}", (B,), np.int64)
            np.multiply(np.arange(B, dtype=np.int64), v, out=off)
            self._row_off.append(off)
        self._fidx = a("ar.fidx", (B,), np.int64)
        self._m = a("ar.colm", (B, 1))
        self._fin = a("ar.colfin", (B, 1), bool)
        self._lse = a("ar.collse", (B, 1))
        self._rs = a("ar.colrs", (B, 1))
        self._picked = a("ar.picked", (B,))
        self._tot = a("ar.tot", (B,))
        self._gfill = a("ar.gfill", (B, 1))

        self.param_bufs = [(p, grads.buf(p)) for p in model.parameters()]
        self._grad_of = {id(p): buf for p, buf in self.param_bufs}

    # ------------------------------------------------------------------
    def run(self, tokens: np.ndarray, wildcard_mask: np.ndarray | None):
        """Forward + backward for one batch; returns the raw LL sum."""
        tokens = np.asarray(tokens, dtype=np.int64)
        model = self.model
        self._gfill.fill(-(1.0 / self.batch))

        # Wildcard-applied input ids (targets stay unmasked).
        np.copyto(self._in_tok, tokens)
        if wildcard_mask is not None:
            np.copyto(self._in_tok, self._wild_row, where=wildcard_mask)

        # Embedding gather straight into the concatenated input buffer.
        for k, emb in enumerate(model.embeddings):
            np.take(
                emb.weight.data, self._in_tok[:, k], axis=0,
                out=self._x[:, self._embed_slices[k]],
            )

        f = self._forward_trunk()
        np.matmul(f, self._fold(model.output_layer, self._mw_out), out=self._out)
        self._out += model.output_layer.bias.data

        loss = self._forward_loss(tokens)
        self._backward(tokens, f)
        return loss

    @staticmethod
    def _fold(layer, buf: np.ndarray) -> np.ndarray:
        """``weight * mask`` into a pooled buffer (refreshed every step)."""
        np.multiply(layer.weight.data, layer.mask, out=buf)
        return buf

    def _forward_trunk(self) -> np.ndarray:
        model = self.model
        if not model.residual:
            act = self._x
            for i, layer in enumerate(model.hidden_layers):
                h = self._hs[i]
                np.matmul(act, self._fold(layer, self._mw[i]), out=h)
                h += layer.bias.data
                np.maximum(h, 0.0, out=h)
                act = h
            return act
        h = self._h
        np.matmul(self._x, self._fold(model.input_layer, self._mw_in), out=h)
        h += model.input_layer.bias.data
        for i, block in enumerate(model.blocks):
            r0, r1 = self._r0[i], self._r1[i]
            np.maximum(h, 0.0, out=r0)
            np.matmul(r0, self._fold(block.linear1, self._mw1[i]), out=r1)
            r1 += block.linear1.bias.data
            np.maximum(r1, 0.0, out=r1)
            np.matmul(r1, self._fold(block.linear2, self._mw2[i]), out=self._a2)
            self._a2 += block.linear2.bias.data
            h += self._a2
        np.maximum(h, 0.0, out=self._f)
        return self._f

    def _forward_loss(self, tokens: np.ndarray):
        """Per-column fused log-softmax / gather; leaves softmax in _lp."""
        for k in range(self.model.n_columns):
            block = self._out_views[k]
            lp, scratch = self._lp[k], self._glp[k]
            np.max(block, axis=-1, keepdims=True, out=self._m)
            _guard_nonfinite_max(self._m, self._fin)
            np.subtract(block, self._m, out=lp)
            np.exp(lp, out=scratch)
            np.sum(scratch, axis=-1, keepdims=True, out=self._lse)
            np.log(self._lse, out=self._lse)
            np.subtract(lp, self._lse, out=lp)
            np.add(self._row_off[k], tokens[:, k], out=self._fidx)
            dest = self._tot if k == 0 else self._picked
            np.take(lp.reshape(-1), self._fidx, out=dest)
            if k > 0:
                self._tot += self._picked
            np.exp(lp, out=lp)  # softmax, kept for backward
        return self._tot.sum()

    def _backward(self, tokens: np.ndarray, f: np.ndarray) -> None:
        model = self.model
        # d loss / d logits, column by column, written into disjoint
        # slices of the (reused) output buffer.
        for k in range(model.n_columns):
            soft, glp = self._lp[k], self._glp[k]
            glp.fill(0.0)
            np.put_along_axis(glp, tokens[:, k : k + 1], self._gfill, axis=-1)
            np.sum(glp, axis=-1, keepdims=True, out=self._rs)
            np.multiply(soft, self._rs, out=soft)
            np.subtract(glp, soft, out=glp)
            np.copyto(self._out_views[k], glp)

        out_layer = model.output_layer
        np.sum(self._out, axis=0, out=self._grad_of[id(out_layer.bias)])
        wbuf = self._grad_of[id(out_layer.weight)]
        np.matmul(f.T, self._out, out=wbuf)
        np.multiply(wbuf, out_layer.mask, out=wbuf)
        np.matmul(self._out, self._mw_out.T, out=self._gf)

        gx = self._backward_trunk()

        for k, emb in enumerate(model.embeddings):
            ebuf = self._grad_of[id(emb.weight)]
            ebuf.fill(0.0)
            np.add.at(ebuf, self._in_tok[:, k], gx[:, self._embed_slices[k]])

    def _linear_grads(self, layer, act: np.ndarray, g: np.ndarray) -> None:
        np.sum(g, axis=0, out=self._grad_of[id(layer.bias)])
        wbuf = self._grad_of[id(layer.weight)]
        np.matmul(act.T, g, out=wbuf)
        np.multiply(wbuf, layer.mask, out=wbuf)

    def _backward_trunk(self) -> np.ndarray:
        model = self.model
        if not model.residual:
            g = self._gf
            for i in reversed(range(len(model.hidden_layers))):
                layer = model.hidden_layers[i]
                mask = self._relu_masks[i]
                np.greater(self._hs[i], 0.0, out=mask)
                np.multiply(g, mask, out=g)
                act = self._hs[i - 1] if i > 0 else self._x
                self._linear_grads(layer, act, g)
                np.matmul(g, self._mw[i].T, out=self._ghs[i])
                g = self._ghs[i]
            return g

        gh, relu = self._gh, self._relu_mask
        np.greater(self._f, 0.0, out=relu)
        np.multiply(self._gf, relu, out=gh)
        for i in reversed(range(len(model.blocks))):
            block = model.blocks[i]
            r0, r1 = self._r0[i], self._r1[i]
            self._linear_grads(block.linear2, r1, gh)
            np.matmul(gh, self._mw2[i].T, out=self._gt)
            np.greater(r1, 0.0, out=relu)
            np.multiply(self._gt, relu, out=self._gt)
            self._linear_grads(block.linear1, r0, self._gt)
            np.matmul(self._gt, self._mw1[i].T, out=self._gt2)
            np.greater(r0, 0.0, out=relu)
            np.multiply(self._gt2, relu, out=self._gt2)
            gh += self._gt2
        self._linear_grads(model.input_layer, self._x, gh)
        np.matmul(gh, self._mw_in.T, out=self._gx)
        return self._gx


class CompiledGMMLoss:
    """Stacked Equation-4 NLL over every GMM column, forward + backward.

    Columns sharing a component count K are evaluated as one ``(C, B, K)``
    computation (elementwise ops and the K-axis reductions vectorize
    exactly); batch-axis reductions run per column on contiguous slices so
    they are bitwise-identical to the eager per-column path. Parameters
    are re-stacked from the live modules each step (they change under the
    optimizer), which costs O(C·K) — negligible next to the (C,B,K) math.
    """

    def __init__(self, modules: dict, batch: int, arena: Arena, grads: _GradTable):
        self.batch = int(batch)
        B = self.batch
        groups: dict[int, list[tuple[int, object]]] = {}
        for column, module in modules.items():
            groups.setdefault(int(module.n_components), []).append((column, module))
        self._groups = []
        for gi, (K, entries) in enumerate(groups.items()):
            C = len(entries)
            a = arena.get
            t = f"gmm{gi}"
            bufs = {
                "Z": a(f"{t}.z", (C, B, 1)),
                "LG": a(f"{t}.lg", (C, 1, K)),
                "MU": a(f"{t}.mu", (C, 1, K)),
                "LS": a(f"{t}.ls", (C, 1, K)),
                "LW": a(f"{t}.lw", (C, 1, K)),
                "SOFTW": a(f"{t}.softw", (C, 1, K)),
                "NLS": a(f"{t}.nls", (C, 1, K)),
                "T1": a(f"{t}.t1", (C, 1, K)),
                "INV": a(f"{t}.inv", (C, 1, K)),
                "MW": a(f"{t}.mw", (C, 1, 1)),
                "FIN1": a(f"{t}.fin1", (C, 1, 1), bool),
                "LSE": a(f"{t}.lse", (C, 1, 1)),
                "D": a(f"{t}.d", (C, B, K)),
                "D2": a(f"{t}.d2", (C, B, K)),
                "Q": a(f"{t}.q", (C, B, K)),
                "M2": a(f"{t}.m2", (C, B, 1)),
                "FIN2": a(f"{t}.fin2", (C, B, 1), bool),
                "SH": a(f"{t}.sh", (C, B, K)),
                "TOT": a(f"{t}.tot", (C, B, 1)),
                "TOTG": a(f"{t}.totg", (C, B, 1)),
                "POS": a(f"{t}.pos", (C, B, 1), bool),
                "LP": a(f"{t}.lp", (C, B, 1)),
                "GT1": a(f"{t}.gt1", (C, 1, K)),
                "GS": a(f"{t}.gs", (C, 1, 1)),
                "GA": a(f"{t}.ga", (C, 1, K)),
                "GIV": a(f"{t}.giv", (C, 1, K)),
                "G1K": a(f"{t}.g1k", (C, 1, K)),
            }
            self._groups.append((entries, bufs))
        self.param_bufs = [
            (p, grads.buf(p)) for m in modules.values() for p in m.parameters()
        ]

    # ------------------------------------------------------------------
    def run(self, raw_columns: dict, rows: np.ndarray) -> dict:
        """Forward + backward; returns ``{column: raw log-prob sum}``.

        The executor applies the ``-(sum * (1.0 / batch))`` NLL scaling.
        """
        terms: dict[int, object] = {}
        for entries, bufs in self._groups:
            self._load(entries, bufs, raw_columns, rows)
            self._forward(entries, bufs, terms)
            self._backward(entries, bufs)
        return terms

    def _load(self, entries, bufs, raw_columns, rows) -> None:
        for i, (column, module) in enumerate(entries):
            np.copyto(bufs["LG"][i, 0], module.logits.data)
            np.copyto(bufs["MU"][i, 0], module.means.data)
            np.copyto(bufs["LS"][i, 0], module.log_stds.data)
            values = np.asarray(raw_columns[column][rows], dtype=np.float64)
            z = bufs["Z"][i, :, 0]
            np.subtract(values, module.loc, out=z)
            np.divide(z, module.scale, out=z)

    def _forward(self, entries, bufs, terms) -> None:
        LG, LW, SOFTW = bufs["LG"], bufs["LW"], bufs["SOFTW"]
        with np.errstate(divide="ignore", invalid="ignore"):
            # log_w = log_softmax(logits); softmax kept for backward.
            np.max(LG, axis=-1, keepdims=True, out=bufs["MW"])
            _guard_nonfinite_max(bufs["MW"], bufs["FIN1"])
            np.subtract(LG, bufs["MW"], out=LW)
            np.exp(LW, out=SOFTW)
            np.sum(SOFTW, axis=-1, keepdims=True, out=bufs["LSE"])
            np.log(bufs["LSE"], out=bufs["LSE"])
            np.subtract(LW, bufs["LSE"], out=LW)
            np.exp(LW, out=SOFTW)
            # component log-joint: log_w - log_std - (quad + log 2π)/2
            np.multiply(bufs["LS"], -1.0, out=bufs["NLS"])
            np.add(LW, bufs["NLS"], out=bufs["T1"])
            np.multiply(bufs["LS"], -2.0, out=bufs["INV"])
            np.exp(bufs["INV"], out=bufs["INV"])
            np.subtract(bufs["Z"], bufs["MU"], out=bufs["D"])
            np.power(bufs["D"], 2, out=bufs["D2"])
            np.multiply(bufs["D2"], bufs["INV"], out=bufs["Q"])
            np.add(bufs["Q"], _LOG_2PI, out=bufs["Q"])
            np.multiply(bufs["Q"], 0.5, out=bufs["Q"])
            np.subtract(bufs["T1"], bufs["Q"], out=bufs["Q"])  # log-joint
            # logsumexp over components; softmax kept for backward.
            np.max(bufs["Q"], axis=-1, keepdims=True, out=bufs["M2"])
            _guard_nonfinite_max(bufs["M2"], bufs["FIN2"])
            np.subtract(bufs["Q"], bufs["M2"], out=bufs["SH"])
            np.exp(bufs["SH"], out=bufs["SH"])
            np.sum(bufs["SH"], axis=-1, keepdims=True, out=bufs["TOT"])
            np.log(bufs["TOT"], out=bufs["LP"])
            np.add(bufs["LP"], bufs["M2"], out=bufs["LP"])
            np.greater(bufs["TOT"], 0.0, out=bufs["POS"])
            np.copyto(bufs["TOTG"], bufs["TOT"])
            np.logical_not(bufs["POS"], out=bufs["POS"])
            np.copyto(bufs["TOTG"], 1.0, where=bufs["POS"])
            np.divide(bufs["SH"], bufs["TOTG"], out=bufs["SH"])
            np.copyto(bufs["SH"], 0.0, where=bufs["POS"])
        for i, (column, _module) in enumerate(entries):
            terms[column] = bufs["LP"][i].sum()

    def _backward(self, entries, bufs) -> None:
        G = bufs["SH"]  # softmax → gradient of the log-joint, in place
        np.multiply(G, -(1.0 / self.batch), out=G)
        GT1 = bufs["GT1"]
        for i in range(len(entries)):
            np.sum(G[i], axis=0, keepdims=True, out=GT1[i])
        # logits: log_softmax backward on the stacked (C,1,K) grads.
        np.sum(GT1, axis=-1, keepdims=True, out=bufs["GS"])
        np.multiply(bufs["SOFTW"], bufs["GS"], out=bufs["G1K"])
        np.subtract(GT1, bufs["G1K"], out=bufs["G1K"])
        # log_stds, contribution A: through the -log_std term.
        np.multiply(GT1, -1.0, out=bufs["GA"])
        # quad path: d(loss)/d(quad) = -0.5 · d(loss)/d(log-joint).
        np.multiply(G, -0.5, out=G)
        np.multiply(G, bufs["D2"], out=bufs["D2"])
        GIV = bufs["GIV"]
        for i in range(len(entries)):
            np.sum(bufs["D2"][i], axis=0, keepdims=True, out=GIV[i])
        np.multiply(G, bufs["INV"], out=G)
        np.multiply(G, 2.0, out=G)
        np.multiply(G, bufs["D"], out=G)  # d(loss)/d(z - mean)
        # log_stds, contribution B: through inv_var = exp(-2·log_std).
        np.multiply(GIV, bufs["INV"], out=GIV)
        np.multiply(GIV, -2.0, out=GIV)
        for i, (_column, module) in enumerate(entries):
            np.copyto(module.logits.grad, bufs["G1K"][i, 0])
            np.sum(G[i], axis=0, keepdims=True, out=bufs["G1K"][i])
            np.negative(bufs["G1K"][i, 0], out=module.means.grad)
            np.add(bufs["GA"][i, 0], GIV[i, 0], out=module.log_stds.grad)


class TrainStepExecutor:
    """Caches compiled loss programs per (batch size, loss config).

    The executor is the trainer-facing API: construct it once per
    training run with the live model / GMM modules, then call
    :meth:`loss_and_grads` per mini-batch. Programs compile lazily the
    first time a batch size appears (``compile_count`` exposes the tape
    cache's behaviour — e.g. exactly two compiles per loss config when
    the dataset size is not a multiple of the batch size) and are
    replayed thereafter; gradients land in pooled buffers bound to
    ``param.grad``, ready for ``clip_grad_norm`` + the in-place
    optimizer steps.
    """

    def __init__(self, *, model=None, gmm_modules=None, raw_columns=None, arena=None):
        self.arena = arena if arena is not None else Arena()
        self._grads = _GradTable(self.arena)
        self.model = model
        self.gmm_modules = dict(gmm_modules) if gmm_modules else {}
        self.raw_columns = raw_columns if raw_columns is not None else {}
        if model is not None:
            _supported_made(model)
        self._ar_cache: dict[int, CompiledMADELoss] = {}
        self._gmm_cache: dict[int, CompiledGMMLoss] = {}
        self.compile_count = 0

    # ------------------------------------------------------------------
    def _gmm_program(self, batch: int) -> CompiledGMMLoss:
        program = self._gmm_cache.get(batch)
        if program is None:
            program = CompiledGMMLoss(
                self.gmm_modules, batch, self.arena, self._grads
            )
            self._gmm_cache[batch] = program
            self.compile_count += 1
        return program

    def _ar_program(self, batch: int) -> CompiledMADELoss:
        program = self._ar_cache.get(batch)
        if program is None:
            program = CompiledMADELoss(
                self.model, batch, self.arena, self._grads
            )
            self._ar_cache[batch] = program
            self.compile_count += 1
        return program

    def loss_and_grads(
        self,
        *,
        rows: np.ndarray | None = None,
        tokens: np.ndarray | None = None,
        wildcard_mask: np.ndarray | None = None,
        train_gmms: bool = False,
        train_ar: bool = False,
    ) -> float | None:
        """One compiled training step: loss value + gradients in ``.grad``.

        Term order matches the eager ``JointTrainer._batch_loss``: GMM
        NLL terms in module order, then the AR cross-entropy. Returns
        ``None`` when no loss term is active (mirroring eager).
        """
        loss = None
        if train_gmms and self.gmm_modules:
            program = self._gmm_program(len(rows))
            _GradTable.bind(program.param_bufs)
            sums = program.run(self.raw_columns, rows)
            for column in self.gmm_modules:
                term = -(sums[column] * (1.0 / len(rows)))
                loss = term if loss is None else loss + term
        if train_ar and self.model is not None:
            program = self._ar_program(len(tokens))
            _GradTable.bind(program.param_bufs)
            ar_loss = -(program.run(tokens, wildcard_mask) * (1.0 / len(tokens)))
            loss = ar_loss if loss is None else loss + ar_loss
        return None if loss is None else float(loss)
