"""The ``ArrayBackend`` contract: one interface, many array engines.

The paper's porting chapters keep arriving at the same destination —
CRK-HACC recast on single-source SYCL, Kokkos/YAKL abstracting the
E3SM/ExaStar kernels, OpenMP offload carrying GAMESS — one *kernel
source of truth* retargeted across vendors (performance portability).
The reproduction models that pattern in :mod:`repro.progmodel`; this
package makes the *real* compute follow it.  An :class:`ArrayBackend`
implements the repo's three proven hot-kernel families:

* **batched dense linalg** — the MAGMA-style LU factor/solve stacks
  under the batched BDF Newton iterations (§3.8 Pele), plus the fused
  factor-to-inverse/apply pair the Newton fast path uses (factor once,
  then every modified-Newton iteration is a single batched matmul);
* **fused chemistry rates** — mass-action production rates evaluated
  from precomputed stoichiometry tables (:class:`ChemRateTables`) in a
  handful of fused array sweeps, replacing the unrolled generated
  kernel's hundreds of tiny array ops (the launch-overhead pathology
  §3.8 describes, in numpy form);
* **bit-plane popcount tallies** — CoMet's count GEMMs (§3.6) over the
  packed per-state bit planes, integer exact;
* **pairwise short-range forces** — the HACC/ExaSky direct kernels
  (§3.4).

The numpy reference implementation is always available and defines the
semantics; every alternate backend is held to it by the parity suite in
``tests/test_backend.py`` (integer-exact for tallies, ≤1e-9 relative
for LU/forces).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np


class BackendUnavailable(RuntimeError):
    """Requested a backend whose runtime dependency is not importable."""


@dataclass(frozen=True)
class ChemRateTables:
    """Mechanism stoichiometry flattened into backend-agnostic arrays.

    The generated-code path (:mod:`repro.chem.codegen`) unrolls every
    reaction into its own source lines; these tables are the same
    information laid out for *data-driven* fused kernels:

    ``fwd_idx``/``rev_idx`` list each reaction's reactant/product species
    with multiplicity (a ν=2 species appears twice), padded with the
    out-of-range index ``n_species`` so a gathered dummy concentration of
    1.0 is a no-op.  ``net_*`` hold the net stoichiometric scatter both
    dense (``net``, for one GEMM) and as COO triplets (for compiled
    scatter loops).
    """

    n_species: int
    n_reactions: int
    A: np.ndarray          # (R,) forward Arrhenius prefactor
    b: np.ndarray          # (R,) forward temperature exponent
    Ea: np.ndarray         # (R,) forward activation energy
    rev_A: np.ndarray      # (R,) reverse prefactor (0 = irreversible)
    rev_b: np.ndarray
    rev_Ea: np.ndarray
    has_reverse: np.ndarray  # (R,) bool
    fwd_idx: np.ndarray    # (R, Lf) intp, padded with n_species
    rev_idx: np.ndarray    # (R, Lp) intp, padded with n_species
    net: np.ndarray        # (R, n) float net stoichiometry
    net_rows: np.ndarray   # (E,) intp reaction index of each COO entry
    net_cols: np.ndarray   # (E,) intp species index
    net_vals: np.ndarray   # (E,) float coefficient


class FusedRatesKernel(abc.ABC):
    """A compiled fused ω̇ evaluator for one mechanism on one backend.

    Split in two so the temperature-only Arrhenius work is paid once per
    integration (T is a parameter of the chemistry advance, not a state
    variable): :meth:`rate_constants` precomputes ``(kf, kr)`` for a
    temperature field, :meth:`wdot` evaluates production rates for a
    concentration field under those constants.
    """

    def __init__(self, tables: ChemRateTables) -> None:
        self.tables = tables

    def rate_constants(self, T) -> tuple[np.ndarray, np.ndarray]:
        """``(kf, kr)`` with shape ``np.shape(T) + (n_reactions,)``.

        Elementwise identical to the generated kernel's per-reaction
        ``A * T**b * exp(-Ea/(R*T))`` expressions, so fused and unrolled
        paths agree to the last bit on the rate constants.
        """
        from repro.chem.mechanism import R_UNIV

        t = self.tables
        T = np.asarray(T, dtype=float)[..., None]
        kf = t.A * T ** t.b * np.exp(-t.Ea / (R_UNIV * T))
        kr = np.where(
            t.has_reverse,
            t.rev_A * T ** t.rev_b * np.exp(-t.rev_Ea / (R_UNIV * T)),
            0.0,
        )
        return kf, np.broadcast_to(kr, kf.shape)

    @abc.abstractmethod
    def wdot(self, kf: np.ndarray, kr: np.ndarray,
             C: np.ndarray) -> np.ndarray:
        """Production rates for ``C`` (..., n_species) under ``(kf, kr)``.

        Leading axes of ``C`` beyond the ones ``kf`` carries must
        broadcast (the batched FD Jacobian stacks perturbed copies of the
        whole field in front).
        """


class ArrayBackend(abc.ABC):
    """One array engine implementing the repro's hot kernel families."""

    #: Registry name; also the tag recorded on observability spans.
    name: str = "?"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrayBackend {self.name}>"

    # -- batched dense linalg (§3.8 MAGMA motif) ---------------------------

    @abc.abstractmethod
    def lu_factor(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-pivoted LU of a (batch, n, n) stack → ``(lu, piv)``."""

    @abc.abstractmethod
    def lu_solve(self, lu: np.ndarray, piv: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
        """Solve with held factors; ``rhs`` (batch, n) or (batch, n, k)."""

    @abc.abstractmethod
    def inv(self, mats: np.ndarray) -> np.ndarray:
        """Explicit batched inverse (batch, n, n) → (batch, n, n).

        The Newton fast path trades one inversion per refactorization for
        matmul-only iterations — the fuse-the-solve move; modified Newton
        is self-correcting, so the residual envelope difference versus a
        triangular solve is absorbed by the iteration it feeds.
        """

    @abc.abstractmethod
    def inv_apply(self, inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``x[i] = inv[i] @ rhs[i]`` — one fused batched matmul."""

    # -- fused chemistry rates (§3.8 Pele) ---------------------------------

    @abc.abstractmethod
    def rates_kernel(self, tables: ChemRateTables) -> FusedRatesKernel:
        """Compile a fused ω̇ evaluator for one mechanism."""

    # -- bit-plane popcount tallies (§3.6 CoMet) ---------------------------

    @abc.abstractmethod
    def popcount_tallies_2way(self, words: np.ndarray) -> np.ndarray:
        """(n, S, W) packed planes → int64 (S, S, n, n) co-occurrence."""

    @abc.abstractmethod
    def popcount_tallies_3way(self, words: np.ndarray) -> np.ndarray:
        """(n, S, W) packed planes → int64 (S, S, S, n, n, n) tallies."""

    # -- pairwise short-range forces (§3.4 ExaSky) -------------------------

    @abc.abstractmethod
    def pairwise_forces(self, x: np.ndarray, masses: np.ndarray, *,
                        G: float, rs: float | None = None,
                        cutoff: float | None = None,
                        box_size: float | None = None) -> np.ndarray:
        """All i<j pair forces accumulated per particle.

        ``rs`` selects the erfc-filtered short-range kernel (with
        ``cutoff`` and minimum-image ``box_size``); ``rs=None`` is the
        open-boundary Newtonian direct sum.
        """
