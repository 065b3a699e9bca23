"""Counter-based random numbers for reproducible, order-independent Monte Carlo.

Every draw is a pure function of (seed, path index, step index, driver
index): the splitmix64 output stream for the given seed, evaluated at the
counter position derived from the indices.  Serial and parallel simulation
therefore produce bit-identical streams.  Gaussians come from the inverse
normal CDF, which is deterministic across platforms.  ``normal_increments``
makes its draws one block of whole paths at a time; the block size, like the
window of paths asked for, changes no bit of any draw.  There is one sampling
mode: every path has a stream of its own, independent of every other path's.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BLOCK = 1 << 15  # draws per block: each of the three 256 KiB block buffers stays in L2


def _splitmix64(z, scratch):
    """splitmix64's output mix of the uint64 states z, in place; scratch is a
    uint64 buffer of z's shape."""
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, 31, out=scratch)
    z ^= scratch
    return z


def _unit(bits, out):
    """((bits >> 11) + 0.5) * 2**-53 into the float buffer out; shifts bits in place."""
    np.right_shift(bits, 11, out=bits)
    out[...] = bits
    out += 0.5
    out *= 2.0**-53
    return out


def normal_increments(seed, path_start, n_paths, n_steps, d):
    """Standard normal array of shape (n_paths, n_steps, d).

    Draw (p, k, i) sits at counter ((p * n_steps + k) * d + i), so every path
    has its own stream and any window of paths is that window of the full
    draw.  The draws are made one block of whole paths (about ``_BLOCK``
    draws) at a time, straight into the result.
    """
    from scipy.special import ndtri  # loaded on first use: verify and the tree never draw

    out = np.empty((n_paths, n_steps, d))
    per_path = n_steps * d
    if out.size == 0:
        return out
    rows = max(1, _BLOCK // per_path)
    # state of draw j on path p: seed + (p * per_path + j + 1) * golden mod 2**64
    stride = np.uint64(per_path * _GOLDEN % 2**64)
    offsets = np.arange(1, per_path + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    offsets += np.uint64(int(seed) % 2**64)
    z = np.empty((rows, per_path), dtype=np.uint64)
    scratch = np.empty_like(z)
    uniforms = np.empty(z.shape)
    flat = out.reshape(n_paths, per_path)
    for start in range(0, n_paths, rows):
        stop = min(start + rows, n_paths)
        n = stop - start
        paths = np.arange(path_start + start, path_start + stop, dtype=np.uint64)
        np.add(np.multiply(paths[:, None], stride), offsets, out=z[:n])
        _splitmix64(z[:n], scratch[:n])
        ndtri(_unit(z[:n], uniforms[:n]), out=flat[start:stop])
    return out
