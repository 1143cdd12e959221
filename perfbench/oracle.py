"""Textbook LSTM forward pass, written apart from the program under test.

It reads only the network's public weights (``embedding``, the per-gate
``w_*`` / ``u_*`` / ``b_*`` of every layer, ``head_weight`` /
``head_bias``, ``head_pool`` and ``per_timestep_head``) and follows the
paper's Eq. 1-5 step by step with plain batched numpy products. It shares
no code with the executor, its programs, or its per-row GEMV lifts, so
agreement with it is evidence that the exact path computes an LSTM, not
merely that it agrees with itself.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm_logits(network, tokens: np.ndarray) -> np.ndarray:
    """Logits of a ``(B, T)`` token batch.

    Returns ``(B, C)`` for pooled heads and ``(B, T, C)`` for per-timestep
    heads, matching ``LSTMExecutor.run_batch(...).logits``.
    """
    tokens = np.asarray(tokens)
    xs = network.embedding[tokens]  # (B, T, E)
    batch, steps = tokens.shape
    for layer in network.layers:
        w = layer.weights
        hidden = w.u_f.shape[0]
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        out = np.empty((batch, steps, hidden))
        for t in range(steps):
            x = xs[:, t, :]
            f = _sigmoid(x @ w.w_f.T + h @ w.u_f.T + w.b_f)
            i = _sigmoid(x @ w.w_i.T + h @ w.u_i.T + w.b_i)
            g = np.tanh(x @ w.w_c.T + h @ w.u_c.T + w.b_c)
            o = _sigmoid(x @ w.w_o.T + h @ w.u_o.T + w.b_o)
            c = f * c + i * g
            h = o * np.tanh(c)
            out[:, t, :] = h
        xs = out
    if network.per_timestep_head:
        top = xs
    else:
        top = xs[:, -network.head_pool:, :].mean(axis=1)
    return top @ network.head_weight.T + network.head_bias
