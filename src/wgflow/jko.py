"""Minimizing-movement time stepping in quantile coordinates.

Each step minimizes ``(1/(2 tau n)) ||X - X_prev||^2 + E(X)`` over the cone
of nondecreasing grids, where E is the grid interaction energy with its cusp
replaced by the exact linear form it takes on the cone.  The inner problem is
smooth and strongly convex for every admissible step size, and is solved by
projected Newton (Bertsekas 1982): the face of the cone is read off the ties
of the pool-adjacent-violators projection of a gradient step, the Newton
system on that face is solved matrix-free by conjugate gradients, and a
trial that does not decrease the objective falls back to a projected-gradient
step with backtracking.  A step is returned at the iterate where its
prox-gradient residual was measured and met the tolerance.
"""

from __future__ import annotations

import math
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from .measures import (
    DomainError,
    Measure1D,
    QuantileGrid,
    _check_grids,
    _equal_runs,
    _row_w2sq,
    to_quantile_grid,
)
from .potential import (
    ConvexityCertificate,
    Potential,
    convexity_certificate,
    curvature_bound,
    interaction_energy,
    pair_energy,
    pair_energy_force,
    pair_hessian,
)

STEP_BOUND_FACTOR = 12.0
BACKTRACK_HALVINGS = 80
# Relative residual at which conjugate gradients stop on a Newton system.  A
# looser stop costs Newton iterations, a tighter one Hessian-vector passes: 10
# steps of |x|^1.5 at n=400 took 41 iterations and 41 passes at 1e-1, 27 and
# 45 at 1e-3, 25 and 60 at 1e-6.
CG_RTOL = 1e-3
# Inner tolerance per grid point; an unset ``inner_tol`` is n times this.
INNER_TOL_PER_POINT = 1e-10
# Largest number of grid values in one block of a pass over a trajectory's
# rows (``_row_blocks``), past the one row that joins it to the next block.
ROW_CHUNK = 1 << 12


class ConvergenceFailure(RuntimeError):
    """Inner solver ran out of iterations or of backtracking halvings.

    Carries the last accepted iterate, ``residuals``, the prox-gradient
    residual measured at the start of each inner iteration, and the last of
    them as ``residual`` (``inf`` when no iterate was accepted and ``last``
    is the previous state).
    """

    def __init__(
        self,
        message: str,
        last: QuantileGrid,
        residual: float,
        step_index: int | None = None,
        residuals: list[float] | tuple[float, ...] = (),
    ):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.step_index = step_index
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class JkoConfig:
    """Scheme parameters: step size, grid size, horizon, inner stopping rule.

    ``inner_tol`` bounds the proximal-gradient norm of the (n-scaled) inner
    objective and defaults to ``INNER_TOL_PER_POINT * n``.
    """

    tau: float
    n: int
    t_end: float
    inner_tol: float | None = None
    inner_max_iters: int = 500

    def __post_init__(self):
        if self.tau <= 0.0:
            raise DomainError(f"tau {self.tau} must be positive")
        if self.n < 1:
            raise DomainError(f"grid size {self.n} must be positive")
        if self.t_end < 0.0:
            raise DomainError(f"t_end {self.t_end} must be nonnegative")
        if self.inner_tol is None:
            object.__setattr__(self, "inner_tol", INNER_TOL_PER_POINT * self.n)
        if self.inner_tol <= 0.0:
            raise DomainError("inner_tol must be positive")
        if self.inner_max_iters < 1:
            raise DomainError("inner_max_iters must be at least 1")

    def validate_step_bound(self, cert: ConvexityCertificate):
        prod = STEP_BOUND_FACTOR * self.tau * cert.lambda_minus
        if prod > 1.0 + 1e-12:
            raise DomainError(
                f"step restriction 12*tau*lambda_minus <= 1 violated: "
                f"12 * {self.tau} * {cert.lambda_minus} = {prod}"
            )

    def step_count(self) -> int:
        k = round(self.t_end / self.tau)
        if abs(k * self.tau - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise DomainError(
                f"t_end {self.t_end} is not an integer multiple of tau {self.tau}"
            )
        return int(k)


class FlowTrajectory:
    """Time-indexed grid states with per-step diagnostics.

    Row k is the quantile grid at ``times[k]``.  ``rows(lo, hi)`` reads rows
    ``lo..hi-1`` as a C-contiguous ``(hi - lo, n)`` float64 array and
    ``state(k)`` one row as a ``QuantileGrid``; every pass over the states
    reads them a block of rows at a time (``row_blocks``).  ``energies[k]`` is
    the interaction energy of row k, ``step_squares[k]`` the squared step
    distance ``W2^2(row k, row k+1)``, ``step_costs[k]`` that over twice the
    step length ``times[k+1]-times[k]`` and ``speeds[k]`` its root over it.

    A trajectory holds its rows as a reader, ``rows``.
    ``FlowTrajectory(times, grids, energies, step_costs)`` reads them off one
    ``(K+1, n)`` array, which it freezes, and takes ``step_squares`` off them:
    one handed in as C-contiguous float64 is not copied, and ``rows`` returns
    views of it.  A trajectory that ``_trajectory`` makes reads them from its
    reader when they are read: from a temporary file (``_spill``) for
    ``run_flow`` and exact runs, or built off a particle history
    (``particles.quantile_trajectory``); ``grids``, all ``(K+1, n)`` rows, is
    then built each time it is read.
    """

    def __init__(self, times, grids, energies, step_costs):
        g = np.ascontiguousarray(grids, dtype=float)
        _check_grids(g)
        if g.shape[0] != np.size(times):
            raise DomainError("trajectory arrays have inconsistent lengths")
        read = lambda lo, hi: g[lo:hi]  # noqa: E731
        t, e, c = (np.array(a, dtype=float) for a in (times, energies, step_costs))
        self._hold(t, read, g.shape[1], e, c, _step_squares(read, *g.shape))
        g.flags.writeable = False

    def _hold(self, t, read, n: int, e, c, q):
        # the float64 arrays are the trajectory's own: frozen, not copied
        if not (t.size == e.size == c.size + 1):
            raise DomainError("trajectory arrays have inconsistent lengths")
        for arr in (t, e, c, q):
            arr.flags.writeable = False
        # past ``__setattr__``, which refuses every assignment
        vars(self).update(times=t, energies=e, step_costs=c, step_squares=q, grid_size=n, _read=read)

    def __setattr__(self, name, value):
        raise AttributeError(f"FlowTrajectory is read-only: cannot set {name}")

    @property
    def speeds(self) -> np.ndarray:
        """Per-step speed ``W2(row k, row k+1) / (times[k+1] - times[k])``."""
        v = np.sqrt(self.step_squares)
        return np.divide(v, np.diff(self.times), out=v)

    @property
    def grids(self) -> np.ndarray:
        """The read-only ``(K+1, n)`` array of all rows."""
        g = self.rows(0, self.times.size)
        g.flags.writeable = False
        return g

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo..hi-1``, for ``0 <= lo <= hi <= K+1``."""
        return self._read(lo, hi)

    def row_blocks(self):
        """``_row_blocks`` of this trajectory's rows."""
        return _row_blocks(self.rows, self.times.size, self.grid_size)

    def state(self, k: int) -> QuantileGrid:
        """Row ``k`` as a ``QuantileGrid``."""
        k = range(self.times.size)[k]
        return QuantileGrid(self.rows(k, k + 1)[0])


def _row_blocks(read, count: int, n: int):
    """``(states, steps, block)`` for each chunk ``states`` of the ``count``
    rows of length ``n``, chunks of at most ``ROW_CHUNK`` values or one row
    when a row alone is longer: ``block`` is ``read(lo, hi + 1)``, the
    chunk's rows and the next one if there is one, and its consecutive rows
    make the ``steps``.  This is the one place a pass over a trajectory's
    rows sets its block size; the kernels take each block whole."""
    step = max(1, ROW_CHUNK // n)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        block = read(lo, min(hi + 1, count))
        yield slice(lo, hi), slice(lo, lo + block.shape[0] - 1), block


def _step_squares(read, count: int, n: int, each=None) -> np.ndarray:
    """``W2^2(row k, row k+1)`` of the ``count`` rows of length ``n`` that ``read`` reads,
    in one pass of ``_row_blocks`` that first calls ``each(states, chunk)`` if given."""
    squares = np.empty(max(count - 1, 0))
    for states, steps, block in _row_blocks(read, count, n):
        if each is not None:
            each(states, block[: states.stop - states.start])
        squares[steps] = _row_w2sq(block[:-1], block[1:])
    return squares


def _spill(rows, n: int):
    """Write each C-contiguous float64 row of length ``n`` that ``rows``
    yields to an anonymous temporary file (``tempfile.TemporaryFile``, in
    ``TMPDIR``), and return ``read(lo, hi)``: rows ``lo..hi-1`` read back as
    a read-only C-contiguous ``(hi - lo, n)`` array.  The file is closed when
    ``read`` is collected, or before the error propagates if ``rows``
    raises.  It is read, not mapped: the pages of a mapped file count in
    the resident set once they are touched."""
    fh = tempfile.TemporaryFile()
    try:
        for row in rows:
            fh.write(row)
    except BaseException:
        fh.close()
        raise
    size = 8 * n

    def read(lo: int, hi: int) -> np.ndarray:
        fh.seek(lo * size)
        return np.frombuffer(fh.read((hi - lo) * size)).reshape(hi - lo, n)

    weakref.finalize(read, fh.close)
    return read


def _trajectory(W: Potential, times: np.ndarray, read, n: int) -> FlowTrajectory:
    """FlowTrajectory of the finished states ``read(lo, hi)`` reads, rows of
    length ``n``: their energies, each chunk checked as it is read, and step
    costs ``W2^2 / (2 span)``, 0 over a span of 0, in one ``_step_squares``."""
    times = np.array(times, dtype=float)
    m = np.full(n, 1.0 / n)
    energies = np.empty(times.size)

    def energy(states, chunk):
        _check_grids(chunk)
        energies[states] = pair_energy(W, chunk, m)

    squares = _step_squares(read, times.size, n, energy)
    spans = np.diff(times)
    costs = np.divide(squares, 2.0 * spans, out=np.zeros_like(squares), where=spans > 0.0)
    # a trajectory whose rows ``lo..hi-1`` are ``read(lo, hi)``
    traj = FlowTrajectory.__new__(FlowTrajectory)
    traj._hold(times, read, n, energies, costs, squares)
    return traj


def _pava(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators);
    an input that is already nondecreasing is returned as it is."""
    if (y[1:] >= y[:-1]).all():
        return y
    means: list[float] = []
    counts: list[int] = []
    for value in y:
        means.append(float(value))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2 = means.pop()
            c2 = counts.pop()
            c1 = counts[-1]
            means[-1] = (c1 * means[-1] + c2 * m2) / (c1 + c2)
            counts[-1] = c1 + c2
    return np.repeat(means, counts)


def isotonic_project(y) -> QuantileGrid:
    """Closest nondecreasing grid to ``y`` in the Euclidean norm; idempotent."""
    return QuantileGrid(_pava(np.asarray(y, dtype=float).reshape(-1)))


def _newton_point(W: Potential, x: np.ndarray, g: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray | None:
    """Projected Newton trial from ``x`` with gradient ``g``, on the face of
    the cone read off the projected-gradient point ``y``.

    The blocks are the runs of equal values in ``y``.  With ``xb``, ``gb`` the
    block means of ``x`` and ``g`` and ``mb`` the block masses, the reduced
    system ``(P^T H P) dz = -P^T g`` divided by the block sizes is
    ``dz / tau + pair_hessian(W, xb, mb, dz) = -gb``, self-adjoint in the
    ``mb``-weighted inner product.  Conjugate gradients in that inner product
    are conjugate gradients on ``P^T H P`` preconditioned by
    ``diag(block sizes) / tau``; they solve for ``e = -dz``.  Returns the
    projection of ``xb + dz``, expanded to the grid, or ``None``, no trial,
    once a curvature ``p . H p`` is not finite: a gap just above the
    smallest normal float can give a pair weight past the float range.
    """
    starts, sizes = _equal_runs(y)
    xb = np.add.reduceat(x, starts) / sizes
    gb = np.add.reduceat(g, starts) / sizes
    mb = sizes / x.size
    e = np.zeros_like(xb)
    r = gb.copy()
    p = gb.copy()
    rr = float(mb @ (r * r))
    stop = CG_RTOL**2 * rr
    for _ in range(xb.size):
        with np.errstate(over="ignore", invalid="ignore"):
            hp = p / tau + pair_hessian(W, xb, mb, p)
            php = float(mb @ (p * hp))
        if not math.isfinite(php):
            return None
        if not php > 0.0:
            break
        a = rr / php
        e += a * p
        r -= a * hp
        rr, rr_old = float(mb @ (r * r)), rr
        if rr <= stop:
            break
        p = r + (rr / rr_old) * p
    return _pava(np.repeat(xb - e, sizes))


class StepRecord:
    """What one implicit step hands to the next: the ``grid`` it returned,
    the potential ``W`` it stepped under, and the pair ``energy`` and cone
    ``force`` (``pair_energy_force(W, grid.values, m, cone=True)``) at that
    grid.  ``jko_step`` fills it on return and starts from it when it is
    handed the same ``W`` and, as ``prev``, the same grid object."""

    __slots__ = ("W", "grid", "energy", "force")

    def __init__(self):
        self.W = self.grid = self.energy = self.force = None


def jko_step(
    W: Potential,
    prev: QuantileGrid,
    cfg: JkoConfig,
    cert: ConvexityCertificate | None = None,
    record: StepRecord | None = None,
) -> QuantileGrid:
    """One implicit step from ``prev``.

    Minimizes the penalized energy over the monotone cone by projected
    Newton.  At each iterate ``x`` the projected-gradient point
    ``y = P(x - alpha0 g)`` is formed with the curvature-informed step
    ``alpha0``; ``x`` is returned once ``|y - x| / alpha0 <= inner_tol``, so
    the stopping rule holds at the returned grid itself.  Otherwise a Newton
    trial on the face of the cone that ``y``'s ties mark (``_newton_point``)
    is taken if it does not increase the objective, and a projected-gradient
    step with backtracking from ``alpha0`` if it does.  Every trial, Newton
    or backtracking, takes its objective and gradient from one pass over the
    pairs (``pair_energy_force``); an iteration with no Newton trial
    (``_newton_point`` gives ``None``) takes the projected-gradient step.
    Without curvature (no power terms, ``beta = 0``) ``y`` is the Newton
    point, so the step goes straight to the projected-gradient test.  The
    output never increases the objective relative to ``prev``; a step whose
    backtracking finds no sufficient decrease raises ``ConvergenceFailure``
    instead of being accepted.

    Given a ``record`` whose ``grid`` is ``prev`` and whose ``W`` is ``W``,
    the step starts from the record's energy and force instead of computing
    them again; any other record is ignored.  On return the record holds the
    returned grid with its energy and force, so the next step from that grid
    starts from them (``run_flow``).  The outputs are the same bit for bit
    with a record or without one.
    """
    if not W.jko_eligible:
        raise DomainError(
            "potential grows faster than quadratically; implicit stepping refused"
        )
    n = prev.n
    if cfg.n != n:
        raise DomainError(f"config grid size {cfg.n} does not match state size {n}")
    radius = max(1.0, 2.0 * float(np.max(np.abs(prev.values))) + 1.0)
    if cert is None:
        cert = convexity_certificate(W, radius=radius)
    cfg.validate_step_bound(cert)

    tau = cfg.tau
    x_prev = prev.values
    m = np.full(n, 1.0 / n)

    # objective scaled by n: G(x) = ||x - x_prev||^2 / (2 tau) + n E(x); the
    # cone gradient of n E is n * m * force = force.  A trial gives the pair
    # energy and force at x (``ef``, computed unless given), and G and its
    # gradient there.
    def trial(x, ef=None):
        d = x - x_prev
        e, f = pair_energy_force(W, x, m, cone=True) if ef is None else ef
        return (e, f), 0.5 * float(d @ d) / tau + n * e, d / tau + f

    alpha0 = 1.0 / (1.0 / tau + 2.0 * curvature_bound(W, radius))
    curved = W.beta != 0.0 or any(c != 0.0 for c, _ in W.terms)
    handed = record is not None and record.grid is prev and record.W is W
    x = x_prev.copy()
    ef, fx, g = trial(x, (record.energy, record.force) if handed else None)
    residuals: list[float] = []
    for _ in range(cfg.inner_max_iters):
        y = _pava(x - alpha0 * g)
        residuals.append(float(np.linalg.norm(y - x)) / alpha0)
        if residuals[-1] <= cfg.inner_tol:
            out = QuantileGrid(x)
            if record is not None:
                record.W, record.grid, (record.energy, record.force) = W, out, ef
            return out
        z = _newton_point(W, x, g, y, tau) if curved else None
        if z is not None:
            ez, fz, gz = trial(z)
            if fz <= fx + 1e-12 * (1.0 + abs(fx)):
                x, ef, fx, g = z, ez, fz, gz
                continue
        alpha = alpha0
        for halving in range(BACKTRACK_HALVINGS):
            if halving:
                alpha *= 0.5
                y = _pava(x - alpha * g)
            dy = y - x
            ey, fy, gy = trial(y)
            model = fx + float(g @ dy) + 0.5 * float(dy @ dy) / alpha
            if fy <= model + 1e-12 * (1.0 + abs(fx)):
                break
        else:
            raise ConvergenceFailure(
                f"backtracking found no sufficient decrease in {BACKTRACK_HALVINGS} "
                f"halvings; residual so far {residuals[-1]:.3e}",
                last=QuantileGrid(x),
                # inf while x is still prev: no iterate was accepted
                residual=residuals[-1] if len(residuals) > 1 else math.inf,
                residuals=residuals,
            )
        x, ef, fx, g = y, ey, fy, gy
    raise ConvergenceFailure(
        f"inner solver stopped after {cfg.inner_max_iters} iterations "
        f"with residual {residuals[-1]:.3e} > {cfg.inner_tol:.3e}",
        last=QuantileGrid(x),
        residual=residuals[-1],
        residuals=residuals,
    )


def run_flow(W: Potential, init: Measure1D, cfg: JkoConfig) -> FlowTrajectory:
    """Iterate the implicit step from ``init`` up to ``t_end``.

    Records the energy of every state and the squared step distances; a
    convergence failure is re-raised with the offending step index attached.
    One ``StepRecord`` goes through every step, so each step starts from the
    pair energy and force its predecessor computed at the grid it returned.
    Each state is spilled to a temporary file as it is made (``_spill``), so
    the run holds no array of all its states.
    The certificate is taken once at the default radius of 10 whatever the
    support: for a potential the scheme accepts it does not depend on the
    radius (see ``convexity_certificate``).
    """
    cert = convexity_certificate(W)
    cfg.validate_step_bound(cert)
    steps = cfg.step_count()

    def states():
        state = to_quantile_grid(init, cfg.n)
        yield state.values
        record = StepRecord()
        for k in range(steps):
            try:
                state = jko_step(W, state, cfg, cert, record)
            except ConvergenceFailure as failure:
                failure.step_index = k
                raise
            yield state.values

    return _trajectory(W, np.arange(steps + 1) * cfg.tau, _spill(states(), cfg.n), cfg.n)


def evi_residual(W: Potential, traj: FlowTrajectory, sigma: QuantileGrid) -> np.ndarray:
    """Per-step defect of the evolution variational inequality against ``sigma``.

    Entry k is ``[W2^2(X_{k+1}, sigma) - W2^2(X_k, sigma)] / (2 tau)
    + (eta/2) W2^2(X_{k+1}, sigma) - (E[sigma] - E[X_{k+1}])``; contract:
    nonpositive up to discretization slack of order tau.
    """
    if sigma.n != traj.grid_size:
        raise DomainError("reference grid size does not match the trajectory")
    e_sigma = interaction_energy(W, sigma)
    dists = np.empty(traj.times.size)
    for states, _, block in traj.row_blocks():
        dists[states] = _row_w2sq(block[: states.stop - states.start], sigma.values)
    taus = np.diff(traj.times)
    return (
        np.diff(dists) / (2.0 * taus)
        + 0.5 * W.eta * dists[1:]
        - (e_sigma - traj.energies[1:])
    )


def energy_identity_residual(W: Potential, traj: FlowTrajectory) -> float:
    """Defect of the discrete energy identity over the whole trajectory.

    ``|sum_k 2 step_costs[k] - (E[X_0] - E[X_K])|``, which vanishes as the
    step size shrinks at fixed horizon.
    """
    if traj.step_costs.size == 0:
        return 0.0
    drop = traj.energies[0] - traj.energies[-1]
    return float(abs(2.0 * np.sum(traj.step_costs) - drop))
