"""Naive reference implementations of the network layers (loops only, no
vectorization), the oracles the layer tests compare ``nn_core`` against."""

import numpy as np


def naive_conv1d_wide(x, filters, bias):
    m, d, w = filters.shape
    n = x.shape[1]
    out_len = n + w - 1
    padded = np.zeros((d, n + 2 * (w - 1)), dtype=x.dtype)
    padded[:, w - 1 : w - 1 + n] = x
    out = np.zeros((m, out_len), dtype=x.dtype)
    for f in range(m):
        for t in range(out_len):
            s = 0.0
            for r in range(d):
                for k in range(w):
                    s += filters[f, r, k] * padded[r, t + k]
            out[f, t] = s + bias[f]
    return out


def naive_dense(x, weight, bias, act):
    out = np.zeros(weight.shape[0], dtype=x.dtype)
    for i in range(weight.shape[0]):
        s = 0.0
        for j in range(weight.shape[1]):
            s += weight[i, j] * x[j]
        out[i] = s + bias[i]
    if act == "tanh":
        return np.tanh(out)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-out))
    return out


def naive_kmax(x):
    out = np.zeros(x.shape[0], dtype=x.dtype)
    for i in range(x.shape[0]):
        best = x[i, 0]
        for j in range(1, x.shape[1]):
            if x[i, j] > best:
                best = x[i, j]
        out[i] = best
    return out
