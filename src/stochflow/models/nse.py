"""Pseudospectral 2D incompressible flow on the torus with periodic forcing
and low-mode additive noise, advanced through a stationary exponential noise
average.

Torus convention: domain [0, 2*pi]^2, integer wavenumbers, spectral
coefficients c = fft2(field) / N**2 so that c[0,0] is the spatial mean.  The
smallest nonzero |k|^2 is 1, which makes the kinetic norm dominated by the
gradient norm exactly, term by term.

The state advanced by the model is the full velocity u.  Each step subtracts
the realized noise average z(t_k), applies one semi-implicit step (implicit
stiff linear part, explicit advection, forcing and noise-average source), and
adds back z(t_{k+1}).  All per-step quantities are pure functions of the step
time and the noise handle, so running a span in aligned pieces reproduces the
direct run bit-for-bit.

Shape convention: a velocity field is a complex (2, n, n) array, and the
spectral operators (``leray_project``, ``bilinear_b``, the stepping and the
trace) also take a stack (..., 2, n, n) with leading row axes, so that one FFT
call serves every row.  Each row of a stack gets exactly the bits it would get
alone: elementwise operations and the transforms (two 1D passes, the bits of
``ifft2``/``fft2``) act row by row, and ``norm_h_sq``/``norm_v_sq`` reduce each
row's (2, n, n) block in one call over the last three axes, which adds a row's
terms in the order the sum over that row alone does.  The grid's factors are
stored complex, so that no product casts them.

Trace: ``evolve_trace`` returns one ``NSETrace`` per call, on the n_pts points
of the step grid of [s, t].  ``times``, ``z_abs_sum`` and ``z_v_norm`` have
shape (n_pts,); ``v_h_sq`` and ``v_v_sq`` have shape (n_pts,) for a field and
(rows, n_pts) for a stack, and row r holds the bits of row r's own trace.

Buffered step: ``_advance`` builds one ``SpectralWork`` per call, with the
operators' buffers, the views of them that the operators read (the physical
fields are the real parts of the transform buffer, transformed in place), and
the grid's factors copied out to the stack's shape; every step writes into
them.  The operators take their workspace as an optional argument, and
without one build it and run the same calls, so both return the same bits.
At a power-of-two n the forward passes scale by 1/n and the inverse passes
not at all, in place of the separate n**2 multiply and divide: a power-of-two
scale commutes with every rounding while no value overflows (the guard keeps
a stepped state far from that), so the bits are those of the explicit scale.
At any other n, 1/n rounds, and the explicit scale stays.  The step adds,
drops, reorders and re-associates no other operation; it uses only exact
identities: f - B for -B + f, rhs * h for h * rhs, a copied-out factor for
its broadcast, one call on stacked operands for two calls on their halves
(both derivatives of v, and the products u_x d/dx v and u_y d/dy v), and
one ``not (|u|^2 <= guard)`` test, which inf and NaN fail at the same step,
for the finiteness scan plus the bound.  B keeps its ``u * dealias`` mask,
although a stepped state is dealiased already: B is one operator for every
caller.

The noise bound ``estimate_beta`` is exact, with no iteration: the form's
matrix on a real basis of the truncated space, Householder tridiagonalisation
and Sturm bisection, from elementwise operations alone (no BLAS, no threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..dyadic import DyadicTime
from ..errors import ConfigError, DivergenceError, StateError
from ..flow_core import FlowModelBase
from ..keyed import chain, gauss_range
from ..wiener import OUConfig, ou_grid

TWO_PI_SQ = (2.0 * np.pi) ** 2
# Velocity scale of the advective stability bound: a step must not exceed
# 1 / (cutoff * CFL_VELOCITY_SCALE).
CFL_VELOCITY_SCALE = 2.0

_TAG_FIELD = 0x4649454C


class SpectralGrid:
    """Wavenumber bookkeeping for an N x N torus grid."""

    def __init__(self, n: int):
        if n < 8 or n % 2:
            raise ConfigError("grid size must be even and at least 8")
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers as floats
        self.ksq = k[:, None] ** 2 + k[None, :] ** 2
        self.kx, self.ky = k[:, None].astype(complex), k[None, :].astype(complex)
        self.ikx, self.iky = 1j * self.kx, 1j * self.ky
        self.kvec = np.stack(np.broadcast_arrays(self.kx, self.ky))
        self.inv_ksq = np.divide(1.0, self.ksq, np.zeros_like(self.ksq), where=self.ksq > 0) + 0j
        self.cutoff = n // 3
        self.dealias = ((abs(k[:, None]) <= self.cutoff) & (abs(k) <= self.cutoff)).astype(complex)
        self.neg = ((-np.arange(n) % n)[:, None] * n + -np.arange(n) % n).ravel()  # flat -k
        xs = 2.0 * np.pi * np.arange(n) / n
        self.x = xs[:, None]
        self.y = xs[None, :]


@lru_cache(maxsize=8)
def grid_for(n: int) -> SpectralGrid:
    return SpectralGrid(n)


# ifft2/fft2 as two 1D passes, bit for bit; never pass out= to a 2D transform (wrong in numpy 2.4).
# Each pass scales by 1/n.  At a power-of-two n, norm="forward" moves that scale from the inverse
# passes onto the forward ones and drops the n**2 multiply and divide, with no bit moved while no
# value overflows: bilinear_b keeps every bit for fields of modulus 2^-900 to 2^400 (tested), and
# above about 2^500 its products overflow and inf and NaN may take other bits.  At any other n the
# scale rounds, and the explicit multiply and divide stay.
def _fft_norm(n: int) -> str:
    return "backward" if n & (n - 1) else "forward"  # "forward" where 1/n is exact


def to_phys(spec: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """The physical field of ``spec``: the real part of ``work`` (complex,
    ``spec``'s shape, may be ``spec`` itself), which takes both passes."""
    n = spec.shape[-1]
    work = np.empty(spec.shape, dtype=complex) if work is None else work
    norm = _fft_norm(n)
    np.fft.ifft(spec, axis=-1, out=work, norm=norm)
    np.fft.ifft(work, axis=-2, out=work, norm=norm)
    phys = work.real
    return phys if norm == "forward" else np.multiply(phys, n * n, out=phys)


def to_spec(phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    n = phys.shape[-1]
    out = np.empty(phys.shape, dtype=complex) if out is None else out
    norm = _fft_norm(n)
    np.fft.fft(phys, axis=-1, out=out, norm=norm)
    np.fft.fft(out, axis=-2, out=out, norm=norm)
    return out if norm == "forward" else np.divide(out, n * n, out=out)


def _conj_take(flat: np.ndarray, neg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """conj(flat[..., neg]) in ``out``, both of shape (..., n * n)."""
    taken = flat.take(neg, axis=-1, out=out, mode="clip")  # in range; "raise" buffers out
    return np.conj(taken, out=taken)


def _conj_reflect(spec: np.ndarray) -> np.ndarray:
    """conj(c[-k]) at every wavevector k, for the last two axes."""
    n = spec.shape[-1]
    flat = spec.reshape(spec.shape[:-2] + (n * n,))
    out = np.empty(flat.shape, dtype=complex)
    return _conj_take(flat, grid_for(n).neg, out).reshape(spec.shape)


class SpectralWork:
    """The buffers of ``leray_project``, ``_finalize`` and ``bilinear_b`` for a
    stack of shape (..., 2, n, n), the views of them those operators read, and
    the grid's factors copied out to that shape: an operation whose operands
    share one shape skips numpy's broadcasting iterator, and each element
    keeps its bits."""

    def __init__(self, shape: tuple):
        n = shape[-1]
        g = grid_for(n)
        self.fields = np.empty((3,) + shape, dtype=complex)  # u, d/dx v, d/dy v; transformed
        self.u_spec, self.dv_spec = self.fields[0], self.fields[1:]
        phys = self.fields.real  # the three on the grid, and u_x d/dx v, u_y d/dy v in place
        self.u_xy = np.moveaxis(phys[0], -3, 0)[..., None, :, :]  # (2, ..., 1, n, n)
        self.dv, self.w, self.dvy = phys[1:], phys[1], phys[2]
        self.spec = np.empty(shape, dtype=complex)  # its transform, masked, reflected
        self.coef = np.empty(shape[:-3] + shape[-2:], dtype=complex)  # k.field / |k|^2
        self.coef_b = self.coef[..., None, :, :]
        self.out = np.empty(shape, dtype=complex)
        self.out_x, self.out_y = self.out[..., 0, :, :], self.out[..., 1, :, :]
        flat = shape[:-2] + (n * n,)  # _conj_take's operands
        self.out_flat, self.spec_flat = self.out.reshape(flat), self.spec.reshape(flat)
        self.neg = g.neg
        self.dealias, self.kvec = (np.broadcast_to(a, shape).copy() for a in (g.dealias, g.kvec))
        self.ik = np.stack([np.broadcast_to(a, shape) for a in (g.ikx, g.iky)])
        self.inv_ksq = np.broadcast_to(g.inv_ksq, self.coef.shape).copy()


def leray_project(field: np.ndarray, work: SpectralWork | None = None) -> np.ndarray:
    """Remove the component parallel to the wavevector (idempotent), in
    ``work.out``; ``field`` must not be ``work.out``."""
    work = SpectralWork(field.shape) if work is None else work
    out = np.multiply(work.kvec, field, out=work.out)
    coef = np.add(work.out_x, work.out_y, out=work.coef)
    np.multiply(coef, work.inv_ksq, out=coef)
    np.multiply(work.kvec, work.coef_b, out=out)
    np.subtract(field, out, out=out)
    out[..., 0, 0] = field[..., 0, 0]
    return out


def _finalize(field: np.ndarray, work: SpectralWork | None = None) -> np.ndarray:
    """Dealiased, projected, exactly conjugate symmetric (a real field), mean zero, in
    ``work.out``; ``field`` may be ``work.spec``, which takes the masked field."""
    work = SpectralWork(field.shape) if work is None else work
    masked = np.multiply(field, work.dealias, out=work.spec)
    out = leray_project(masked, work)
    _conj_take(work.out_flat, work.neg, work.spec_flat)  # into masked
    np.add(out, masked, out=out)
    np.multiply(out, 0.5, out=out)
    out[..., 0, 0] = 0.0
    return out


def bilinear_b(u: np.ndarray, v: np.ndarray, work: SpectralWork | None = None) -> np.ndarray:
    """Projected, dealiased advection term P[(u . grad) v] in spectral form,
    in ``work.out`` (a fresh ``SpectralWork`` for ``u``'s shape by default)."""
    if u.shape != v.shape:
        raise StateError("fields must share one resolution")
    work = SpectralWork(u.shape) if work is None else work
    um = np.multiply(u, work.dealias, out=work.u_spec)
    vm = um if v is u else np.multiply(v, work.dealias, out=work.spec)
    np.multiply(work.ik, vm, out=work.dv_spec)
    to_phys(work.fields, work=work.fields)
    np.multiply(work.u_xy, work.dv, out=work.dv)
    w = np.add(work.w, work.dvy, out=work.w)
    return _finalize(to_spec(w, out=work.spec), work)


def inner_h(u: np.ndarray, v: np.ndarray) -> float:
    return float(TWO_PI_SQ * np.sum(np.real(u * np.conj(v))))


def _summed(density: np.ndarray):
    """(2 pi)^2 times the sum over each (2, n, n) block: a float for a field, else per row."""
    total = TWO_PI_SQ * np.add.reduce(density, axis=(-3, -2, -1))  # np.sum's own call
    return float(total) if density.ndim == 3 else total


def norm_h_sq(u: np.ndarray, work: np.ndarray | None = None):
    """|u|^2 of a field (2, n, n) as a float, of a stack (..., 2, n, n) per row;
    ``work`` (complex, ``u``'s shape) takes u * conj(u)."""
    return _summed(np.multiply(u, np.conj(u, out=work), out=work).real)


def norm_v_sq(u: np.ndarray):
    """||u||^2 of a field (2, n, n) as a float, of a stack (..., 2, n, n) per row."""
    return _summed(grid_for(u.shape[-1]).ksq * np.real(u * np.conj(u)))


def divergence_residual(u: np.ndarray) -> float:
    g = grid_for(u.shape[-1])
    return float(np.max(np.abs(g.kx * u[0] + g.ky * u[1])))


def reality_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u - _conj_reflect(u))))


def check_field(u: np.ndarray, rel_tol: float = 1e-10):
    """Raise unless u is a valid divergence-free zero-mean real field."""
    if u.ndim != 3 or u.shape[0] != 2 or u.shape[-2] != u.shape[-1]:
        raise StateError(f"expected shape (2, n, n), got {u.shape}")
    if not np.all(np.isfinite(u.view(float))):
        raise StateError("field contains non-finite coefficients")
    scale = max(np.max(np.abs(u)), 1e-300)
    if reality_residual(u) > rel_tol * scale:
        raise StateError("field violates conjugate symmetry")
    if divergence_residual(u) > rel_tol * scale:
        raise StateError("field is not divergence free")
    if np.max(np.abs(u[:, 0, 0])) > rel_tol * scale:
        raise StateError("field has a nonzero mean mode")


# -- reference fields ---------------------------------------------------------

def taylor_green(n: int, amplitude: float = 1.0) -> np.ndarray:
    g = grid_for(n)
    u1 = np.sin(g.x) * np.cos(g.y) * np.ones((n, n))
    u2 = -np.cos(g.x) * np.sin(g.y) * np.ones((n, n))
    return _finalize(to_spec(amplitude * np.stack([u1, u2])))


def shear_mode(n: int, amplitude: float = 1.0, along_x: bool = True) -> np.ndarray:
    g = grid_for(n)
    z = np.zeros((n, n))
    if along_x:
        field = np.stack([amplitude * np.sin(g.y) * np.ones((n, n)), z])
    else:
        field = np.stack([z, amplitude * np.sin(g.x) * np.ones((n, n))])
    return _finalize(to_spec(field))


def random_divfree(n: int, seed: int) -> np.ndarray:
    """Deterministic random smooth divergence-free field: keyed Gaussian
    coefficients divided by 1 + |k|^2."""
    g = grid_for(n)
    raw = gauss_range(chain(_TAG_FIELD, seed), 4 * n * n).reshape(2, 2, n, n)
    coeff = (raw[0] + 1j * raw[1]) / (1.0 + g.ksq)
    return _finalize(coeff)


# -- configuration ------------------------------------------------------------

def default_noise_modes(n: int, amplitude: float = 0.05) -> tuple:
    return (shear_mode(n, amplitude, True), shear_mode(n, amplitude, False))


@dataclass(eq=False)
class NSEConfig:
    """Model settings.  The forcing at time t is cos(t) * ``forcing_field``;
    ``noise_modes`` defaults to ``default_noise_modes(resolution)``, and ``()``
    means no noise."""

    viscosity: float = 0.1
    resolution: int = 16
    level: int = 6
    forcing_field: np.ndarray | None = None
    noise_modes: tuple | None = None
    ou_rate: float = 1.0
    guard: float = 1e6

    def __post_init__(self):
        if self.viscosity <= 0:
            raise ConfigError("viscosity must be positive")
        g = grid_for(self.resolution)
        if self.forcing_field is None:
            self.forcing_field = taylor_green(self.resolution, 0.5)
        if self.noise_modes is None:
            self.noise_modes = default_noise_modes(self.resolution)
        check_field(self.forcing_field, 1e-8)
        for phi in self.noise_modes:
            check_field(phi, 1e-8)
            if phi.shape[-1] != self.resolution:
                raise ConfigError("noise modes must live on the model grid")
        h = 2.0**-self.level
        bound = 1.0 / (max(g.cutoff, 1) * CFL_VELOCITY_SCALE)
        if h > bound:
            raise ConfigError(
                f"step 2**-{self.level} exceeds the advective stability bound {bound:g}"
            )

    @property
    def step(self) -> float:
        return 2.0**-self.level


# -- the flow model -----------------------------------------------------------

class NSEModel(FlowModelBase):
    def __init__(self, cfg: NSEConfig):
        self.cfg = cfg
        self.grid = grid_for(cfg.resolution)
        self.grid_level = cfg.level
        n = cfg.resolution
        self.state_dim = 4 * n * n
        self.n_noise = len(cfg.noise_modes)
        self.phi = np.array(cfg.noise_modes, dtype=complex).reshape(-1, 2, n, n)
        self._phi_rows = self.phi.reshape(self.n_noise, 2 * n * n)  # tensordot's own operand
        self.ou_cfg = OUConfig(rate=cfg.ou_rate, level=cfg.level)
        h = cfg.step
        self.inv_denom = (1.0 / (1.0 + cfg.viscosity * h * self.grid.ksq)).astype(complex)
        self.source_coef = (cfg.ou_rate - cfg.viscosity * self.grid.ksq).astype(complex)

    # state packing: complex (2, n, n) <-> flat float vector
    def pack(self, field: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(field, dtype=complex).view(float).ravel().copy()

    def unpack(self, x: np.ndarray) -> np.ndarray:
        n = self.cfg.resolution
        return np.ascontiguousarray(x, dtype=float).view(complex).reshape(2, n, n).copy()

    @cached_property
    def beta_hat(self) -> float:
        """The noise bound summed over the modes."""
        return float(sum(estimate_beta(phi) for phi in self.phi))

    def z_values(self, omega, s: DyadicTime, t: DyadicTime) -> np.ndarray:
        """Noise-average scalars on the step grid of [s, t]; shape (n_pts, m)."""
        n_pts = (t.at_level(self.grid_level) - s.at_level(self.grid_level)) + 1
        if self.n_noise == 0:
            return np.zeros((n_pts, 0))
        cols = [ou_grid(omega, j, self.ou_cfg, s, t) for j in range(self.n_noise)]
        return np.stack(cols, axis=1)

    def _z_field(self, zrow: np.ndarray) -> np.ndarray:  # zeros when there is no mode
        return np.dot(zrow.reshape(1, -1), self._phi_rows).reshape(self.phi.shape[1:])

    @np.errstate(over="ignore", invalid="ignore")  # the guard judges inf and NaN itself
    def _advance(self, u: np.ndarray, zvals: np.ndarray, i0: int, record=None) -> np.ndarray:
        """Advance a (rows, 2, n, n) stack over the step grid of ``zvals``.

        Every step runs through one set of buffers, allocated here, so the
        state returned is no other call's buffer.  ``record(k, v, z_field)``
        sees each grid point, and ``v`` only until it returns."""
        h = self.cfg.step
        n_steps = zvals.shape[0] - 1
        work = SpectralWork(u.shape)
        state = np.empty(u.shape, dtype=complex)  # returned: it holds no other buffer
        v, squares, forcing = np.empty((3,) + u.shape, dtype=complex)
        forcing_field, inv_denom = (np.broadcast_to(a, u.shape).copy()
                                    for a in (self.cfg.forcing_field, self.inv_denom))
        source = np.empty(u.shape[-3:], dtype=complex)
        z_now = self._z_field(zvals[0])
        for k in range(n_steps):
            np.subtract(u, z_now, out=v)
            if record is not None:
                record(k, v, z_now)
            rhs = bilinear_b(u, u, work)
            np.multiply(float(np.cos((i0 + k) * h)), forcing_field, out=forcing)
            np.subtract(forcing, rhs, out=rhs)  # f - B: the bits of -B + f
            np.add(rhs, np.multiply(self.source_coef, z_now, out=source), out=rhs)
            np.multiply(rhs, h, out=rhs)
            np.add(v, rhs, out=v)
            np.multiply(v, inv_denom, out=v)
            z_now = self._z_field(zvals[k + 1])
            u = np.multiply(np.add(v, z_now, out=state), work.dealias, out=state)
            u[..., 0, 0] = 0.0
            u_sq = norm_h_sq(u, squares)
            if not (u_sq <= self.cfg.guard).all():  # inf and NaN fail too
                raise DivergenceError(f"flow blew past the guard at step {k}", step=k)
        if record is not None:
            record(n_steps, np.subtract(u, z_now, out=v), z_now)
        return u

    def evolve_field(self, omega, s: DyadicTime, t: DyadicTime, u: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(u.view(float))):
            raise StateError("initial field contains non-finite coefficients")
        if s == t:
            return u.copy()
        zvals = self.z_values(omega, s, t)
        return self._advance(u[None], zvals, s.at_level(self.grid_level))[0]

    def evolve_batch(self, omega, s, t, states):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if s == t:
            return states.copy()
        zvals = self.z_values(omega, s, t)
        n = self.cfg.resolution
        u = np.ascontiguousarray(states).view(complex).reshape(-1, 2, n, n)
        out = self._advance(u, zvals, s.at_level(self.grid_level))
        return out.view(float).reshape(states.shape)

    def evolve_trace(self, omega, s: DyadicTime, t: DyadicTime, u: np.ndarray):
        """Evolve while recording the per-step norm series of the energy
        balance.  Returns (u_t, NSETrace) for a field (2, n, n) and for a stack
        (rows, 2, n, n) alike; the module docstring gives the trace's shapes."""
        stack = u[None] if u.ndim == 3 else u
        zvals = self.z_values(omega, s, t)
        i0 = s.at_level(self.grid_level)
        n_pts = zvals.shape[0]
        v_h_sq, v_v_sq = np.empty((2, len(stack), n_pts))
        z_v_norm = np.empty(n_pts)

        def record(k, v_k, z_field):
            density = np.real(v_k * np.conj(v_k))  # one |v(k)|^2 for both norms
            v_h_sq[:, k] = _summed(density)
            v_v_sq[:, k] = _summed(self.grid.ksq * density)
            z_v_norm[k] = math.sqrt(norm_v_sq(z_field)) if self.n_noise else 0.0

        u_t = self._advance(stack, zvals, i0, record=record)
        if u.ndim == 3:
            u_t, v_h_sq, v_v_sq = u_t[0], v_h_sq[0], v_v_sq[0]
        return u_t, NSETrace(level=self.grid_level, times=(np.arange(n_pts) + i0) * self.cfg.step,
                             v_h_sq=v_h_sq, v_v_sq=v_v_sq,
                             z_abs_sum=np.sum(np.abs(zvals), axis=1), z_v_norm=z_v_norm)


# -- energy diagnostics --------------------------------------------------------

@dataclass
class NSETrace:
    level: int
    times: np.ndarray
    v_h_sq: np.ndarray
    v_v_sq: np.ndarray
    z_abs_sum: np.ndarray
    z_v_norm: np.ndarray

    SERIES = ("times", "v_h_sq", "v_v_sq", "z_abs_sum", "z_v_norm")

    def __post_init__(self):
        n = len(self.times)
        for name in self.SERIES[1:]:
            if np.shape(getattr(self, name))[-1] != n:
                raise ConfigError(f"trace series {name} has mismatched length")


@dataclass
class EnergyDiagnostics:
    """Discrete balance series for the transformed velocity, at the trace's
    points after the first (a row axis leads for a stack's trace).

    ``lhs`` is d|v|^2/dt + (nu/4)||v||^2 + (nu/4 - 2*beta*sum|z_j|)|v|^2 per
    step (the Poincare constant lambda1 is 1 on this torus); ``g_surrogate``
    is the forcing level max(lhs, 0)/2 that would saturate the balance, and
    ``slack`` is the dissipation surplus max(-lhs, 0).
    """

    lhs: np.ndarray
    g_surrogate: np.ndarray
    slack: np.ndarray


def _window_peak(times, v_v_sq, z_v_norm, t_end, window, peak=-math.inf) -> float:
    """max(peak, max of ||v|| + ||z||_V at or after t_end - window): the window rule."""
    mask = times >= t_end - window
    return float(np.max(np.sqrt(v_v_sq[mask]) + z_v_norm[mask], initial=peak))


def energy_diagnostics(cfg: NSEConfig, trace: NSETrace, beta_hat: float) -> EnergyDiagnostics:
    h = 2.0**-trace.level
    d = np.diff(trace.v_h_sq) / h
    v_h_sq, v_v_sq = trace.v_h_sq[..., 1:], trace.v_v_sq[..., 1:]
    lhs = d + 0.25 * cfg.viscosity * v_v_sq + (
        0.25 * cfg.viscosity - 2.0 * beta_hat * trace.z_abs_sum[1:]) * v_h_sq
    return EnergyDiagnostics(lhs=lhs, g_surrogate=np.maximum(lhs, 0.0) / 2.0,
                             slack=np.maximum(-lhs, 0.0))


_ABSORBING_SEED = 11  # keys the shape every initial field of the sweep shares


def absorbing_radius_experiment(
    model: NSEModel,
    omega,
    t: DyadicTime,
    magnitudes=(1.0, 10.0),
    lookbacks=(8, 16, 32),
    window: float = 1.0,
):
    """Evolve initial fields of different sizes from ever earlier starts and
    compare the trailing-window radius.  Returns per-lookback radii, relative
    gaps, and the first lookback at which the gap is within 5 percent.

    All lookbacks ride one stack run from the deepest start, which takes on
    each lookback's rows at its start and records only from the grid point
    before the window.  A row's radius is a running maximum over its pieces
    without their first points (the row's start, or a point counted already).
    Rows step exactly as alone and aligned pieces compose bit-for-bit, so every
    radius has the bits of its own run from ``t - lookback``."""
    base = random_divfree(model.cfg.resolution, _ABSORBING_SEED)
    base = base / math.sqrt(norm_h_sq(base))
    starts = np.stack([mag * base for mag in magnitudes])
    level, h = model.grid_level, model.cfg.step
    t_end = t.at_level(level) * h  # the last trace time, as the trace computes it
    deepest_first = sorted(set(lookbacks), reverse=True)
    begins = [t - int(lb) for lb in deepest_first]
    before = np.ceil((t_end - window) / h) - 1  # the grid point just before the window
    lead = DyadicTime(int(max(before, begins[0].at_level(level))), level)
    u = starts[:0]
    peaks = [-math.inf] * (len(starts) * len(begins))  # the running radius of each row
    for s, end in zip(begins, begins[1:] + [t]):
        u = np.concatenate([u, starts])
        quiet = min(max(s, lead), end)  # step without recording up to here
        flat = model.evolve_batch(omega, s, quiet, u.view(float).reshape(len(u), -1))
        u = flat.view(complex).reshape(u.shape)
        if quiet < end:
            u, trace = model.evolve_trace(omega, quiet, end, u)
            peaks[:len(u)] = [_window_peak(trace.times[1:], row[1:], trace.z_v_norm[1:], t_end,
                                           window, peak) for row, peak in zip(trace.v_v_sq, peaks)]
    radii = {}
    gaps = {}
    for lb in lookbacks:
        first = deepest_first.index(lb) * len(starts)
        rs = peaks[first:first + len(starts)]
        radii[lb] = rs
        gaps[lb] = (max(rs) - min(rs)) / max(max(rs), 1e-300)
    t_star = next((lb for lb in lookbacks if gaps[lb] <= 0.05), None)
    return {"radii": radii, "gaps": gaps, "t_star": t_star}


# -- noise intensity bound -----------------------------------------------------

_FORM_BLOCK = 8  # basis fields per bilinear_b call; small blocks keep transforms small


def _advection_form(phi: np.ndarray) -> np.ndarray:
    """The symmetric matrix of u -> <B(u, phi), u> on an orthonormal real basis
    of the truncated space: for each pair +-k with |k_x|, |k_y| <= cutoff and
    p = k_perp / |k|, the cosine field c(k) = c(-k) = p / s, and after all of
    them the sine fields c(k) = -c(-k) = -i p / s, with s = 2 pi sqrt(2).
    B(e_j, phi) is conjugate symmetric, so its coordinates are s p.Re w(k)
    on a cosine field and -s p.Im w(k) on a sine field."""
    n = phi.shape[-1]
    c = grid_for(n).cutoff
    k = np.array([(kx, ky) for kx in range(c + 1) for ky in range(-c, c + 1)
                  if kx > 0 or ky > 0]).T
    at, neg = k % n, -k % n  # grid indices of k and of -k
    p = np.stack([-k[1], k[0]]) / np.sqrt(k[0] * k[0] + k[1] * k[1])
    pairs, s = p.shape[1], 2.0 * math.pi * math.sqrt(2.0)
    m = np.empty((2 * pairs, 2 * pairs))
    work = None
    for j0 in range(0, 2 * pairs, _FORM_BLOCK):
        j = np.arange(j0, min(j0 + _FORM_BLOCK, 2 * pairs))
        q, rows = j % pairs, np.arange(j.size)[:, None]
        coef = (p[:, q] / s).T * np.where(j < pairs, 1.0, -1j)[:, None]
        e = np.zeros((j.size, 2, n, n), dtype=complex)
        e[rows, [0, 1], at[0, q, None], at[1, q, None]] = coef
        e[rows, [0, 1], neg[0, q, None], neg[1, q, None]] = np.conj(coef)
        if work is None or work.out.shape != e.shape:  # once, and for a shorter last block
            work = SpectralWork(e.shape)
        w = bilinear_b(e, np.broadcast_to(phi, e.shape), work)[:, :, at[0], at[1]]
        m[j, :pairs] = s * (p[0] * w.real[:, 0] + p[1] * w.real[:, 1])
        m[j, pairs:] = -s * (p[0] * w.imag[:, 0] + p[1] * w.imag[:, 1])
    return 0.5 * (m + m.T)


def _tridiagonal(a: np.ndarray):
    """Diagonal and off-diagonal of a tridiagonal matrix similar to the
    symmetric ``a``, by Householder reflections (Golub & Van Loan, Algorithm
    8.3.1), with elementwise products and ``np.add.reduce`` only."""
    a = np.array(a, dtype=float)
    off = np.zeros(max(len(a) - 1, 0))
    for k in range(len(a) - 2):
        x = a[k + 1:, k]
        off[k] = -math.copysign(math.sqrt(np.add.reduce(x * x)), x[0])
        v = x.copy()
        v[0] -= off[k]
        vv = np.add.reduce(v * v)
        if vv == 0.0:  # the column is reduced already
            continue
        rest = a[k + 1:, k + 1:]
        pv = np.add.reduce(rest * v, axis=1) * (2.0 / vv)
        w = pv - (np.add.reduce(pv * v) / vv) * v
        rest -= v[:, None] * w + w[:, None] * v
    off[-1:] = a[-1, -2:-1]  # empty for a 1 x 1 matrix
    return np.diagonal(a).copy(), off


def _top_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric tridiagonal (``diag``, ``off``):
    bisection on the Sturm count of eigenvalues below a shift (Golub & Van
    Loan, Section 8.4.1) from the Gershgorin interval, until the bracket
    cannot shrink; returns its upper end."""
    bound = np.abs(np.concatenate([[0.0], off, [0.0]]))
    radius = bound[:-1] + bound[1:]
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    terms = list(zip(diag.tolist(), [0.0] + (off * off).tolist()))
    pivmin = np.finfo(float).tiny * max(1.0, *(b for _, b in terms))  # keeps b / q finite
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        below, q = 0, 1.0
        for d, b in terms:
            q = d - mid - b / q
            q = q if abs(q) >= pivmin else -pivmin
            below += q < 0.0
        lo, hi = (lo, mid) if below == len(terms) else (mid, hi)
    return hi


def estimate_beta(phi: np.ndarray) -> float:
    """sup |<B(u, phi), u>| / |u|^2 over the truncated space, for one mode
    (2, n, n): the largest |eigenvalue| of ``_advection_form``, the larger
    top eigenvalue of its tridiagonal form and of the negated form."""
    diag, off = _tridiagonal(_advection_form(phi))
    return max(_top_eigenvalue(diag, off), _top_eigenvalue(-diag, off))
