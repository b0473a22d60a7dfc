"""The numpy reference backend: always available, defines the semantics.

Every kernel here is *fused* relative to the paths it replaced:

* chemistry rates collapse the generated kernel's ~700 tiny array ops
  per sweep (one per unrolled reaction term) into ~6 whole-batch ops —
  two gathers, two multiplies, one subtract, one GEMM against the net
  stoichiometry matrix;
* the Newton solve path trades the 2n-einsum triangular sweeps for one
  batched inversion per refactorization plus a single matmul per
  iteration;
* the popcount tallies run on the matrix engine: each field block of the
  packed words unpacks to 0/1 fp32 bit planes, and GEMMs cover every
  state pair at once (2-way ``P @ P.T``; 3-way the Hadamard pair plane
  against all pivot planes).  Every partial sum is an integer of at most
  2²⁴, so fp32 is exact under any BLAS blocking; blocks add up in int64;
* the pair forces sweep dense row blocks of the upper triangle and
  reduce them by row and column sums, instead of gathering an O(n²)
  pair-index list and scattering back with ``np.add.at``.

The bit-exact LU factor/solve reference lives in
:mod:`repro.linalg.batched`; this backend re-exports it so alternate
backends have a single semantic anchor.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from repro.backend.base import ArrayBackend, ChemRateTables, FusedRatesKernel

# -- popcount primitives (compiled backends and the tally parity tests) -----

#: Byte-popcount lookup, built once at import (never per engine instance).
POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
#: 16-bit popcount lookup for compiled backends (4 lookups per uint64).
POP16 = (POP8[np.arange(1 << 16) & 0xFF]
         + POP8[np.arange(1 << 16) >> 8]).astype(np.uint8)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0: the hardware popcount
    def popcount_words(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words)
else:  # pragma: no cover - exercised only on numpy 1.x
    def popcount_words(words: np.ndarray) -> np.ndarray:
        return POP8[words.view(np.uint8)].reshape(*words.shape, 8).sum(axis=-1)


#: Element budget of one field block's unpacked fp32 plane in the tallies.
_SWEEP_BUDGET = 1 << 24
#: fp32 holds every integer up to 2²⁴ exactly, so a field block of at most
#: this many fields keeps every GEMM partial sum exact.
_FP32_EXACT_FIELDS = 1 << 24
#: Element budget of one row block of the dense pair-force sweep.
_PAIR_BUDGET = 1 << 15


def field_block_words(rows: int) -> int:
    """Words per field block for an unpacked ``(rows, 64·words)`` plane.

    Bounded by :data:`_SWEEP_BUDGET` elements and by the fp32 exactness
    limit of 2²⁴ fields; never below one word.
    """
    return max(1, min(_FP32_EXACT_FIELDS // 64,
                      _SWEEP_BUDGET // (64 * max(1, rows))))


def unpack_planes(words: np.ndarray) -> np.ndarray:
    """``(..., W)`` uint64 bit planes → ``(..., 64·W)`` 0/1 float32."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1,
                         bitorder="little").astype(np.float32)


def short_range_pair_magnitude(r: np.ndarray, rs: float, *,
                               G: float = 1.0) -> np.ndarray:
    """erfc-filtered short-range force magnitude for unit masses."""
    return G * (
        erfc(r / (2 * rs)) / r**2
        + np.exp(-(r**2) / (4 * rs**2)) / (rs * np.sqrt(np.pi) * r)
    )


class _NumpyRates(FusedRatesKernel):
    def __init__(self, tables: ChemRateTables) -> None:
        super().__init__(tables)
        self._any_reverse = bool(tables.has_reverse.any())

    def wdot(self, kf: np.ndarray, kr: np.ndarray,
             C: np.ndarray) -> np.ndarray:
        t = self.tables
        # dummy-species column: padded gather indices hit a constant 1.0
        C1 = np.concatenate(
            [C, np.ones(C.shape[:-1] + (1,), dtype=C.dtype)], axis=-1)
        q = kf * C1[..., t.fwd_idx[:, 0]]
        for col in range(1, t.fwd_idx.shape[1]):
            q = q * C1[..., t.fwd_idx[:, col]]
        if self._any_reverse:
            qr = kr * C1[..., t.rev_idx[:, 0]]
            for col in range(1, t.rev_idx.shape[1]):
                qr = qr * C1[..., t.rev_idx[:, col]]
            q = q - qr
        return q @ t.net


class NumpyBackend(ArrayBackend):
    """Reference implementation on plain numpy (+ scipy.special)."""

    name = "numpy"

    # -- batched dense linalg ---------------------------------------------

    def lu_factor(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from repro.linalg.batched import batched_lu_factor

        return batched_lu_factor(mats)

    def lu_solve(self, lu: np.ndarray, piv: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
        from repro.linalg.batched import batched_lu_solve_factored

        return batched_lu_solve_factored(lu, piv, rhs)

    def inv(self, mats: np.ndarray) -> np.ndarray:
        return np.linalg.inv(mats)

    def inv_apply(self, inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return np.matmul(inv, rhs[..., None])[..., 0]

    # -- fused chemistry rates --------------------------------------------

    def rates_kernel(self, tables: ChemRateTables) -> FusedRatesKernel:
        return _NumpyRates(tables)

    # -- bit-plane popcount tallies ---------------------------------------

    def popcount_tallies_2way(self, words: np.ndarray) -> np.ndarray:
        n, S, W = words.shape
        counts = np.zeros((n * S, n * S), dtype=np.int64)
        step = field_block_words(n * S)
        for w0 in range(0, W, step):
            p = unpack_planes(words[..., w0:w0 + step]).reshape(n * S, -1)
            np.add(counts, p @ p.T, out=counts, casting="unsafe")
        return np.ascontiguousarray(
            counts.reshape(n, S, n, S).transpose(1, 3, 0, 2))

    def popcount_tallies_3way(self, words: np.ndarray) -> np.ndarray:
        n, S, W = words.shape
        # acc[s, t, (i, j), (u, k)]: pair plane (s, t) against pivot u
        acc = np.zeros((S, S, n * n, S * n), dtype=np.int64)
        step = field_block_words(n * max(n, S))
        for w0 in range(0, W, step):
            planes = unpack_planes(
                words[..., w0:w0 + step].transpose(1, 0, 2))  # (S, n, F)
            pivots = planes.reshape(S * n, -1).T              # (F, S·n)
            pair = np.empty((n, n, planes.shape[-1]), dtype=np.float32)
            for s in range(S):
                for t in range(S):
                    np.multiply(planes[s, :, None], planes[t, None], out=pair)
                    np.add(acc[s, t], pair.reshape(n * n, -1) @ pivots,
                           out=acc[s, t], casting="unsafe")
        return np.ascontiguousarray(
            acc.reshape(S, S, n, n, S, n).transpose(0, 1, 4, 2, 3, 5))

    # -- pairwise short-range forces --------------------------------------

    def pairwise_forces(self, x: np.ndarray, masses: np.ndarray, *,
                        G: float, rs: float | None = None,
                        cutoff: float | None = None,
                        box_size: float | None = None) -> np.ndarray:
        n = len(x)
        forces = np.zeros_like(x)
        if n < 2:
            return forces
        xt = np.ascontiguousarray(x.T)                        # (dim, n) SoA
        rows = max(1, min(n, _PAIR_BUDGET // n))
        upper = np.triu(np.ones((rows, rows), dtype=bool), k=1)
        cut2 = np.inf if cutoff is None else cutoff * cutoff
        for i0 in range(0, n - 1, rows):
            i1 = min(i0 + rows, n)
            d = xt[:, None, i0:] - xt[:, i0:i1, None]         # x[j] - x[i]
            if box_size is not None:
                shift = d / box_size
                np.rint(shift, out=shift)
                shift *= box_size
                d -= shift
            r2 = (d * d).sum(axis=0)                          # (R, n - i0)
            keep = r2 < cut2
            keep &= r2 > 0.0
            keep[:, :i1 - i0] &= upper[:i1 - i0, :i1 - i0]    # j > i only
            r = np.sqrt(r2[keep])
            block = np.zeros_like(r2)
            if rs is not None:
                block[keep] = short_range_pair_magnitude(r, rs, G=G) / r
            else:
                block[keep] = G / r**3
            block *= masses[i0:i1, None]
            block *= masses[None, i0:]
            f = block * d                                     # (dim, R, n - i0)
            forces[i0:i1] += f.sum(axis=2).T
            forces[i0:] -= f.sum(axis=1).T
        return forces
