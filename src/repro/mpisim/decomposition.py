"""Domain decompositions: slabs, pencils, blocks (GESTS §3.3, HACC, Pele).

The GESTS discussion is entirely about decomposition arithmetic: a *Slabs*
(1-D) decomposition of an N³ grid needs one fewer transpose per FFT
direction than *Pencils* (2-D) but is limited to N ranks, while pencils
admit N² ranks.  These helpers compute local shapes, rank limits and the
transpose communication pattern sizes consumed by the FFT and app layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DecompositionError(ValueError):
    pass


def balanced_counts(nitems: int, nranks: int) -> np.ndarray:
    """Items per rank under the balanced 1-D block partition.

    The first ``nitems % nranks`` ranks carry one extra item — the
    standard MPI block distribution, and the partition the elastic
    recovery layer rebuilds after a shrink.
    """
    if nranks < 1:
        raise DecompositionError("need at least one rank")
    if nitems < 0:
        raise DecompositionError("item count must be non-negative")
    base, extra = divmod(nitems, nranks)
    counts = np.full(nranks, base, dtype=np.int64)
    counts[:extra] += 1
    return counts


def block_owners(nitems: int, nranks: int) -> np.ndarray:
    """Owning rank of each item under :func:`balanced_counts`.

    Returns an ``(nitems,)`` int array; comparing the owner maps before
    and after a communicator shrink yields exactly the items that must
    migrate to survivors.
    """
    counts = balanced_counts(nitems, nranks)
    return np.repeat(np.arange(nranks, dtype=np.int64), counts)


@dataclass(frozen=True)
class SlabDecomposition:
    """1-D decomposition of an N³ grid over P ranks (complete planes)."""

    n: int
    nranks: int

    def __post_init__(self) -> None:
        if self.nranks > self.n:
            raise DecompositionError(
                f"slabs limited to N={self.n} ranks, requested {self.nranks}"
            )
        if self.n % self.nranks != 0:
            raise DecompositionError(
                f"N={self.n} must be divisible by P={self.nranks}"
            )

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return (self.n // self.nranks, self.n, self.n)

    @property
    def transposes_per_fft(self) -> int:
        """One global transpose per 3-D FFT direction pass."""
        return 1

    def transpose_bytes_per_pair(self, itemsize: int = 16) -> float:
        """Bytes each rank sends to each other rank in one transpose."""
        total_local = math.prod(self.local_shape) * itemsize
        return total_local / self.nranks


@dataclass(frozen=True)
class PencilDecomposition:
    """2-D decomposition over a ``prow x pcol`` process grid."""

    n: int
    prow: int
    pcol: int

    def __post_init__(self) -> None:
        if self.prow * self.pcol > self.n * self.n:
            raise DecompositionError(
                f"pencils limited to N^2={self.n * self.n} ranks, "
                f"requested {self.prow * self.pcol}"
            )
        if self.n % self.prow != 0 or self.n % self.pcol != 0:
            raise DecompositionError(
                f"N={self.n} must be divisible by prow={self.prow} and pcol={self.pcol}"
            )

    @property
    def nranks(self) -> int:
        return self.prow * self.pcol

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return (self.n // self.prow, self.n // self.pcol, self.n)

    @property
    def transposes_per_fft(self) -> int:
        """Two global transposes per 3-D FFT pass (one more than slabs)."""
        return 2

    def transpose_bytes_per_pair(self, itemsize: int = 16) -> float:
        """Bytes per pair in one row- or column-communicator transpose."""
        total_local = math.prod(self.local_shape) * itemsize
        # transposes run within rows (prow ranks) or columns (pcol ranks)
        group = max(self.prow, self.pcol)
        return total_local / group


def balanced_pencil_grid(n: int, nranks: int) -> tuple[int, int]:
    """Most-square ``(prow, pcol)`` factorization with both dividing *n*."""
    best: tuple[int, int] | None = None
    for prow in range(1, int(math.isqrt(nranks)) + 1):
        if nranks % prow:
            continue
        pcol = nranks // prow
        if n % prow == 0 and n % pcol == 0:
            best = (prow, pcol)
    if best is None:
        raise DecompositionError(f"no pencil grid for N={n}, P={nranks}")
    return best


@dataclass(frozen=True)
class BlockDecomposition:
    """3-D block decomposition (HACC, Pele/AMReX at the node level)."""

    nx: int
    ny: int
    nz: int
    px: int
    py: int
    pz: int

    def __post_init__(self) -> None:
        for n, p, axis in ((self.nx, self.px, "x"), (self.ny, self.py, "y"), (self.nz, self.pz, "z")):
            if n % p != 0:
                raise DecompositionError(f"{axis}: {n} not divisible by {p}")

    @property
    def nranks(self) -> int:
        return self.px * self.py * self.pz

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return (self.nx // self.px, self.ny // self.py, self.nz // self.pz)

    def ghost_bytes_per_exchange(self, ghost_width: int, itemsize: int = 8,
                                 ncomponents: int = 1) -> float:
        """Total bytes one rank exchanges with its 6 face neighbours."""
        lx, ly, lz = self.local_shape
        faces = 2 * (lx * ly + ly * lz + lx * lz)
        return faces * ghost_width * itemsize * ncomponents

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Process-grid position ``(ix, iy, iz)`` of *rank*."""
        if not 0 <= rank < self.nranks:
            raise DecompositionError(f"rank {rank} out of range")
        iz, rem = divmod(rank, self.px * self.py)
        iy, ix = divmod(rem, self.px)
        return ix, iy, iz

    def neighbors(self, rank: int) -> list[int]:
        """Face-neighbour ranks with periodic wrap."""
        ix, iy, iz = self.coords(rank)
        out = []
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            jx = (ix + dx) % self.px
            jy = (iy + dy) % self.py
            jz = (iz + dz) % self.pz
            out.append(jz * self.px * self.py + jy * self.px + jx)
        return out

    def boundary_class(self, rank: int) -> str:
        """Structural class of *rank* in the (non-periodic) process grid.

        Each axis contributes ``lo`` / ``mid`` / ``hi`` (collapsing to
        ``lo``/``hi`` when the axis has fewer than three ranks), so the
        grid has at most 27 classes — the corner/edge/face/interior
        taxonomy the representative-rank partitioner groups by.  Under
        periodic wrap all ranks are symmetric; this classification keeps
        the open-boundary distinctions, which is conservative (more
        exemplars than strictly needed, never fewer).
        """
        pos = self.coords(rank)
        parts = []
        for i, (c, p) in enumerate(zip(pos, (self.px, self.py, self.pz))):
            axis = "xyz"[i]
            if p == 1:
                parts.append(f"{axis}*")
            elif c == 0:
                parts.append(f"{axis}lo")
            elif c == p - 1:
                parts.append(f"{axis}hi")
            else:
                parts.append(f"{axis}mid")
        return "/".join(parts)

    def boundary_codes(self) -> np.ndarray:
        """Vectorized :meth:`boundary_class` over every rank, as codes.

        Each axis category (lo / mid / hi / degenerate ``*``) takes two
        bits, x highest, so rank ``r``'s class is
        ``BOUNDARY_CLASS_NAMES[boundary_codes()[r]]`` — a few array
        passes, which is what the partitioner runs at full machine scale.
        """
        ranks = np.arange(self.nranks, dtype=np.int64)
        iz, rem = np.divmod(ranks, self.px * self.py)
        iy, ix = np.divmod(rem, self.px)
        code = np.zeros(self.nranks, dtype=np.int64)
        for c, p in ((ix, self.px), (iy, self.py), (iz, self.pz)):
            if p == 1:
                cat = np.full(self.nranks, 3, dtype=np.int64)
            else:
                cat = np.where(c == 0, 0, np.where(c == p - 1, 2, 1))
            code = code * 4 + cat
        return code


#: :meth:`BlockDecomposition.boundary_class` names, by boundary code
BOUNDARY_CLASS_NAMES = tuple(
    "/".join(f"{axis}{('lo', 'mid', 'hi', '*')[(k >> shift) & 3]}"
             for axis, shift in (("x", 4), ("y", 2), ("z", 0)))
    for k in range(64))


def balanced_block_grid(nranks: int) -> tuple[int, int, int]:
    """Most-cubic ``(px, py, pz)`` factorization of an arbitrary *nranks*.

    Unlike :func:`balanced_pencil_grid` there is no divisibility
    constraint against a grid size — this factorization shapes the
    *process* grid only (halo-neighbour structure for the scaling
    engine), so any rank count works, falling back to elongated grids
    for awkward factors and ``(n, 1, 1)`` for primes.
    """
    if nranks < 1:
        raise DecompositionError("need at least one rank")
    best: tuple[int, int, int] | None = None
    best_score = float("inf")
    for px in range(1, int(round(nranks ** (1 / 3))) + 1):
        if nranks % px:
            continue
        rest = nranks // px
        for py in range(px, int(math.isqrt(rest)) + 1):
            if rest % py:
                continue
            pz = rest // py
            score = pz / px  # max/min extent; 1.0 is a perfect cube
            if score < best_score:
                best, best_score = (px, py, pz), score
    if best is None:
        best = (1, 1, nranks)
    return best
