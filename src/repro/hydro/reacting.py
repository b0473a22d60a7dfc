"""Operator-split reacting flow: PeleC's structure in one dimension.

PeleC advances the compressible Navier-Stokes equations with chemistry by
Strang-type operator splitting: a hydrodynamic advance (here the real HLL
Euler step) alternating with a stiff chemistry advance per cell (here the
real CVODE-like BDF integration of a mechanism).  This module couples the
two working substrates into an actual reacting-flow solver:

* species mass fractions advect conservatively with the flow;
* each cell's composition reacts at its local temperature;
* heat release feeds back into the energy field.

Tests verify elemental conservation through the split, positivity, and
ignition behaviour (hot region reacts, cold region does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.codegen import compile_batched_kernels
from repro.chem.mechanism import Mechanism, h2_o2_mechanism
from repro.hydro.euler1d import Euler1D
from repro.ode import BatchedBdfIntegrator
from repro.resilience.snapshot import Snapshot, require_kind


@dataclass
class ReactingFlow1D:
    """1-D reacting Euler flow with per-cell stiff chemistry.

    ``concentrations`` has shape (n_species, n_cells); temperature is the
    local specific internal energy scaled by ``temperature_scale`` — a
    caloric model adequate for exercising the coupling.

    By default the chemistry advance is *batched* (§3.8's CVODE+MAGMA
    motif): all burning cells integrate simultaneously through generated
    vectorized rates, analytic batched Jacobians, and batched LU Newton
    solves.  ``use_batched_chemistry=False`` runs the same integrator
    one cell at a time, the reference ablation of the batching lever.
    """

    hydro: Euler1D
    mechanism: Mechanism = field(default_factory=h2_o2_mechanism)
    concentrations: np.ndarray | None = None
    heat_release: float = 5.0e3  # energy per mole reacted into products
    temperature_scale: float = 300.0
    use_batched_chemistry: bool = True

    def __post_init__(self) -> None:
        n = len(self.hydro.rho)
        if self.concentrations is None:
            self.concentrations = np.zeros((self.mechanism.n_species, n))
        if self.concentrations.shape != (self.mechanism.n_species, n):
            raise ValueError(
                f"concentrations must be ({self.mechanism.n_species}, {n})"
            )

    # -- checkpoint/restart -----------------------------------------------------

    snapshot_kind = "hydro.reacting_flow1d"
    snapshot_version = 1

    def snapshot(self) -> Snapshot:
        """Full solver state: hydro conservatives + species field + knobs.

        The mechanism itself is configuration, not state — restore
        validates its shape rather than rebuilding it from bytes.
        """
        return Snapshot(self.snapshot_kind, self.snapshot_version, {
            "rho": self.hydro.rho,
            "mom": self.hydro.mom,
            "ener": self.hydro.ener,
            "dx": float(self.hydro.dx),
            "gamma": float(self.hydro.eos.gamma),
            "concentrations": self.concentrations,
            "heat_release": float(self.heat_release),
            "temperature_scale": float(self.temperature_scale),
            "use_batched_chemistry": bool(self.use_batched_chemistry),
            "n_species": int(self.mechanism.n_species),
        })

    def restore(self, snap: Snapshot) -> None:
        require_kind(snap, self)
        p = snap.payload
        if p["n_species"] != self.mechanism.n_species:
            raise ValueError(
                f"snapshot has {p['n_species']} species, mechanism has "
                f"{self.mechanism.n_species}"
            )
        self.hydro.rho = p["rho"].copy()
        self.hydro.mom = p["mom"].copy()
        self.hydro.ener = p["ener"].copy()
        self.hydro.dx = p["dx"]
        self.hydro.eos = type(self.hydro.eos)(gamma=p["gamma"])
        self.concentrations = p["concentrations"].copy()
        self.heat_release = p["heat_release"]
        self.temperature_scale = p["temperature_scale"]
        self.use_batched_chemistry = p["use_batched_chemistry"]

    # -- diagnostics ------------------------------------------------------------

    def temperature(self) -> np.ndarray:
        """Caloric temperature from specific internal energy."""
        rho, u, p = self.hydro.primitive()
        e_int = self.hydro.ener / rho - 0.5 * u * u
        return self.temperature_scale * np.maximum(e_int, 0.0)

    def total_species_moles(self) -> np.ndarray:
        """Per-species cell-integrated moles (the conservation invariant
        for advection; chemistry redistributes within columns)."""
        return self.concentrations.sum(axis=1) * self.hydro.dx

    def total_atoms(self) -> float:
        """A conserved 'atom count': H2/H2O/H/OH carry H atoms etc.

        For the bundled H2-O2 mechanism: H2=2H, H2O=2H+O, H=1H, OH=1H+1O,
        O2=2O, O=1O; total H and O are conserved by every reaction."""
        c = self.concentrations
        h_atoms = 2 * c[0] + 2 * c[2] + c[3] + c[5]
        o_atoms = 2 * c[1] + c[2] + c[4] + c[5]
        return float((h_atoms + o_atoms).sum() * self.hydro.dx)

    # -- the split ----------------------------------------------------------------

    def _advect_species(self, dt_taken: float) -> None:
        """Upwind advection of concentrations by the (new) velocity field.

        Conservative upwind with outflow BCs, matched to the hydro CFL.
        """
        u = self.hydro.mom / self.hydro.rho
        dx = self.hydro.dx
        c = self.concentrations
        # face velocities (simple average), upwind donor cells
        u_face = 0.5 * (np.concatenate([[u[0]], u]) +
                        np.concatenate([u, [u[-1]]]))  # (n+1,)
        c_ext = np.concatenate([c[:, :1], c, c[:, -1:]], axis=1)
        donor = np.where(u_face >= 0, c_ext[:, :-1], c_ext[:, 1:])
        flux = donor * u_face
        self.concentrations = c - (dt_taken / dx) * (flux[:, 1:] - flux[:, :-1])
        np.maximum(self.concentrations, 0.0, out=self.concentrations)

    def _react(self, dt: float, *, ignition_temperature: float = 800.0) -> None:
        """Stiff chemistry advance of every burning cell, with heat release.

        Batched, all burning cells advance in one integration — the
        paper's Pele recipe (§3.8): generated vectorized production rates
        + analytic batched Jacobians + batched LU with Jacobian reuse.
        The ablation runs the very same integration one cell at a time.
        """
        idx = self._burning_cells(ignition_temperature)
        if idx.size == 0:
            return
        T_cells = self.temperature()[idx]
        c0 = np.ascontiguousarray(self.concentrations[:, idx].T)  # (B, nspec)
        if self.use_batched_chemistry:
            y = self._integrate_cells(T_cells, c0, dt)
        else:
            y = np.concatenate([
                self._integrate_cells(T_cells[j:j + 1], c0[j:j + 1], dt)
                for j in range(idx.size)
            ])
        # heat release ∝ product formation (H2O is species 2)
        dq = self.heat_release * np.maximum(y[:, 2] - c0[:, 2], 0.0)
        self.hydro.ener[idx] += dq
        self.concentrations[:, idx] = np.maximum(y, 0.0).T

    def _burning_cells(self, ignition_temperature: float) -> np.ndarray:
        """Indices of cells with active chemistry (hot, non-empty)."""
        T = self.temperature()
        hot = ((T >= ignition_temperature)
               & (self.concentrations.sum(axis=0) >= 1e-12))
        return np.flatnonzero(hot)

    def _integrate_cells(self, T_cells: np.ndarray, c0: np.ndarray,
                         dt: float) -> np.ndarray:
        """Batched BDF advance of the cells ``c0`` (B, nspec) over *dt*."""
        kernels = compile_batched_kernels(self.mechanism)

        def rhs(t, conc):
            return kernels.rates(T_cells, np.maximum(conc, 0.0))

        def jac(t, conc):
            return kernels.jacobian(T_cells, np.maximum(conc, 0.0))

        integ = BatchedBdfIntegrator(rhs, jac=jac, rtol=1e-5, atol=1e-9,
                                     max_steps=20_000)
        return integ.integrate(c0, 0.0, dt).y

    def step(self, *, cfl: float = 0.5, chem_dt: float = 1e-5) -> float:
        """One split step: hydro + species advection, then chemistry."""
        dt = self.hydro.step(cfl)
        self._advect_species(dt)
        self._react(chem_dt)
        return dt


def ignition_demo(n: int = 64, *, steps: int = 5) -> ReactingFlow1D:
    """A hot pocket in premixed H2-O2: the standard ignition test setup."""
    hydro = Euler1D.sod(n)
    # overwrite with quiescent gas + a hot spot
    hydro.rho[:] = 1.0
    hydro.mom[:] = 0.0
    hydro.ener[:] = 2.0
    hot = slice(n // 2 - n // 8, n // 2 + n // 8)
    hydro.ener[hot] = 6.0
    flow = ReactingFlow1D(hydro=hydro)
    flow.concentrations[0, :] = 1.0  # H2
    flow.concentrations[1, :] = 0.5  # O2
    for _ in range(steps):
        flow.step()
    return flow
