"""Particle (characteristics) discretization of the droplet phase.

A cloud of weighted particles samples the droplet number density in phase
space.  Each particle carries a position on the torus, an unbounded velocity,
a number weight (droplets represented per unit phase-space sampling) and a
droplet radius: 1 for the parents, r2 for the fragments they break into.
The radius sets the Stokes drag weight r, the relaxation time r^2 and the
liquid volume r^3.  Drag relaxation uses the exact exponential update, so
the stiff small-radius limit costs nothing in dt.  Parents break up at rate
1/tau in one call, `absorb_and_fragment`: their lost weight leaves the
cloud or becomes fragments, spawned by the parents in turns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .fluid import DragField
from .grid import TWO_PI, GridSpec, ScalarField, VectorField, wrap_to_torus
# cic_gather stays importable here: perfbench wraps kinetic.cic_gather
from .transfer import _CHUNK, cic_gather, cic_scatter  # noqa: F401

# the merge's neighbour query is (1 + eps)-approximate (Arya et al., J. ACM 1998);
# 3 is the knee of the merge time measured at eps = 1..4 on the bidisperse-merge
# benchmark, against the shift of the merged pairs and the energy they remove.
# It must stay finite: at eps = inf a point alone in its tree leaf gets the
# missing index N as its neighbour.
_NN_EPS = 3.0
# a fragmenting breakup takes each parent on every _SPAWN_PERIOD-th step
_SPAWN_PERIOD = 2


@dataclass
class ParticleCloud:
    """Weighted particles sampling the droplet phase, handled as a value: the
    functions that push, decay or merge a cloud share every array they leave
    unchanged with the cloud they return, so no code writes into one in place.
    Its constructor is the one check of the particle state: a non-finite x,
    xi, w or r, a negative w or a radius that is not positive raises FieldError.
    """

    x: np.ndarray        # (N, dim) positions in [0, 2π)
    xi: np.ndarray       # (N, dim) velocities
    w: np.ndarray        # (N,) nonnegative number weights
    r: np.ndarray        # (N,) positive droplet radii, 1 for parents

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=np.float64))
        self.w = np.asarray(self.w, dtype=np.float64).ravel()
        self.r = np.asarray(self.r, dtype=np.float64).ravel()
        n = self.x.shape[0]
        if self.xi.shape != self.x.shape or self.w.shape != (n,) or self.r.shape != (n,):
            raise FieldError("particle arrays have inconsistent shapes")
        if not (np.isfinite(self.x).all() and np.isfinite(self.xi).all()):
            raise FieldError("particle positions x or velocities ξ are non-finite")
        if n and not (self.w.min() >= 0 and self.w.max() < np.inf):  # NaN fails both
            raise FieldError("particle weights must be nonnegative and finite")
        if n and not (self.r.min() > 0 and self.r.max() < np.inf):
            raise FieldError("droplet radii must be positive and finite")

    @property
    def count(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @classmethod
    def empty(cls, dim: int) -> "ParticleCloud":
        z = np.zeros((0, dim))
        return cls(z, z.copy(), np.zeros(0), np.zeros(0))

    def select(self, mask: np.ndarray) -> "ParticleCloud":
        return ParticleCloud(self.x[mask], self.xi[mask], self.w[mask], self.r[mask])


def rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, (N, k) -> (N,)."""
    return np.einsum("ij,ij->i", a, b)


def velocity_cutoff(xi: np.ndarray, eps: float) -> np.ndarray:
    """Radial C^2 bump in velocity space, one value per row of the (N, dim) xi.

    Equals 1 for |xi| <= 1/eps, 0 for |xi| >= 2/eps, and decreases
    monotonically (quintic smoothstep) in between.
    """
    if not eps > 0:
        raise ValueError(f"cutoff eps must be positive, got {eps}")
    r = np.sqrt(rowwise_dot(xi, xi))
    t = np.clip(r * eps - 1.0, 0.0, 1.0)
    return 1.0 - t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def advance_particles(cloud: ParticleCloud, u_at_x: np.ndarray, dt: float) -> ParticleCloud:
    """Advance positions and velocities by one step of the drag dynamics.

    A droplet of radius r relaxes in the Stokes time r^2.  With the fluid
    velocity frozen at the particle position, the characteristics
    dx/dt = xi, dxi/dt = (u - xi)/r^2 integrate exactly:

        xi' = u + (xi - u) exp(-dt/r^2)
        x'  = x + dt u + r^2 (1 - exp(-dt/r^2)) (xi - u)

    Unconditionally stable as r -> 0 (xi' -> u, straight-line transport).
    Only the coordinates that left [0, 2π) are wrapped back (`wrap_to_torus`).
    u_at_x is the (N, dim) advecting velocity already gathered at cloud.x,
    as `deposit_moments` returns it, and it becomes x': the update runs over
    `transfer._CHUNK` rows at a time, writing each chunk's xi' rows into a
    new array and its x' rows into u_at_x in place, so that no other array
    the size of the cloud is made.  The returned cloud holds u_at_x as its
    x and shares w and r with the input; a non-finite x' or xi' raises
    FieldError, from that cloud.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if (u_at_x.shape != cloud.x.shape or u_at_x.dtype != np.float64
            or not u_at_x.flags.c_contiguous):  # the chunk rows must be views
        raise ValueError("u_at_x must be a C-contiguous float (N, dim) array like x")
    xi_new = np.empty_like(cloud.xi)
    for start in range(0, cloud.count, _CHUNK):
        sl = slice(start, start + _CHUNK)
        up = u_at_x[sl]  # the chunk's rows of u, then of x'
        tau_p = cloud.r[sl, None] ** 2
        decay = np.exp(-dt / tau_p)
        dxi = cloud.xi[sl] - up
        xi = np.multiply(dxi, decay, out=xi_new[sl])
        xi += up
        dxi *= tau_p * (1.0 - decay)
        up *= dt
        up += cloud.x[sl]
        up += dxi
        flat = up.reshape(-1)  # a view: the rows of one chunk are contiguous
        left = np.flatnonzero((flat < 0.0) | (flat >= TWO_PI))
        flat[left] = wrap_to_torus(flat[left])
    return ParticleCloud(u_at_x, xi_new, cloud.w, cloud.r)


def absorb_and_fragment(cloud: ParticleCloud, dt: float, tau: float, *,
                        radius: float | None = None,
                        step: int | None = None) -> ParticleCloud:
    """Break up the parent droplets, those of radius 1, at rate 1/tau.

    Without a fragment `radius` (absorbing), every parent keeps exp(-dt/tau)
    of its weight; the weight lost, cloud.w minus the returned w, is the
    caller's to absorb, and the returned cloud shares x, xi and r with the
    input.  With a `radius` (fragmenting), the parents take turns, so the
    `step` k is then required: only the parents of index i = k
    (mod _SPAWN_PERIOD = 2) break up, each keeping exp(-2 dt/tau) of its
    weight and spawning one fragment of that radius at its x and xi with the
    lost liquid volume, weight lost / radius^3.  The fragments follow the
    decayed particles, in parent order, in the one cloud returned.  The rate
    stays 1/tau, the liquid volume exact, and a step spawns half as many
    fragments for the merge to take back.  Fragments, and every particle when
    tau is inf, pass through untouched.
    """
    if not tau > 0:
        raise ValueError(f"breakup time must be positive, got {tau}")
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if radius is not None and step is None:
        raise ValueError("a fragmenting breakup needs the step, which picks the turn")
    decays = cloud.r == 1.0
    if radius is not None:
        decays &= np.arange(cloud.count) % _SPAWN_PERIOD == step % _SPAWN_PERIOD
        dt = _SPAWN_PERIOD * dt
    w_new = np.where(decays, cloud.w * np.exp(-dt / tau), cloud.w)
    if radius is None:
        return ParticleCloud(cloud.x, cloud.xi, w_new, cloud.r)
    lost = cloud.w - w_new
    spawn = lost > 0
    spawned = (cloud.x[spawn], cloud.xi[spawn], lost[spawn] / radius**3,
               np.full(spawn.sum(), radius))
    kept = (cloud.x, cloud.xi, w_new, cloud.r)
    return ParticleCloud(*map(np.concatenate, zip(kept, spawned)))


def deposit_moments(cloud: ParticleCloud, u: VectorField,
                    cutoff_eps: float | None = None) -> tuple[DragField, np.ndarray]:
    """Deposit the drag densities m0 and m1 of the cloud, weights w r, on
    u's grid, and gather u at the particles.

    Each particle weighs w times its radius r, the weight with which a
    droplet pulls on the gas under Stokes drag.  With a cutoff width
    `cutoff_eps`, the weight is first multiplied by the smooth velocity
    cutoff (1 inside |xi| <= 1/eps, 0 beyond 2/eps); a width <= 0 is
    rejected.  One scatter, one corner table per chunk, deposits m0 and
    the dim components of m1 and reads u at every particle, the (N, dim)
    array returned beside the drag: a run passes the advecting velocity,
    and the next push takes that array (`advance_particles`).
    """
    w = cloud.w
    if cutoff_eps is not None:
        w = w * velocity_cutoff(cloud.xi, cutoff_eps)
    w = w * cloud.r
    grid = u.grid
    dens, u_at_x = cic_scatter(grid, cloud.x, w, cloud.xi, gather=u)
    return DragField(ScalarField(grid, dens[0]), VectorField(grid, dens[1:])), u_at_x


def merge_particles(cloud: ParticleCloud, budget: int) -> tuple[ParticleCloud, float]:
    """Reduce the cloud to at most `budget` particles by pairwise merging.

    Near phase-space neighbours of one radius are combined into a
    single particle conserving sum(w) and sum(w xi) exactly: each pair's
    distance is at most 1 + _NN_EPS = 4 times the exact nearest-neighbour
    distance of one of its particles.  On spray clouds that bound is loose:
    the merged pairs' mean squared position shift, weighted by reduced
    mass, measured 1.07-1.20 times an exact query's.  Positions use the
    periodic weighted mean on the torus [0, 2π).  Returns the merged cloud
    and the relative change of sum(w |xi|^2), the one moment a merge does
    not preserve; a cloud within the budget is returned as it is.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if cloud.count <= budget:
        return cloud, 0.0

    def m2(c):  # einsum, not w @ v (see diagnostics._pair)
        return float(np.einsum("i,i->", c.w, rowwise_dot(c.xi, c.xi)))

    m2_before = m2(cloud)
    out = cloud
    while out.count > budget:
        radii, counts = np.unique(out.r, return_counts=True)
        top = np.lexsort((radii, counts))[-1]  # the most numerous radius; on a tie the larger
        if counts[top] < 2:  # no radius has a pair left to merge
            break
        out = _merge_pass(out, np.flatnonzero(out.r == radii[top]), out.count - budget)
    rel = abs(m2(out) - m2_before) / max(abs(m2_before), 1e-300)
    return out, rel


def _greedy_pairs(nn: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Sources of the edges i -> nn[i] that a greedy matching takes, in key order.

    Greedy visits the edges by increasing key (distinct ranks) and takes one
    whose ends are both free.  The same matching comes in rounds: every live
    edge whose key is the smallest live key at both of its ends is taken, and
    the edges with a taken end die (Preis, STACS 1999).  A spray cloud needs
    a few rounds; a chain of ever-longer edges needs one round per pair.
    """
    n = nn.size
    best = np.full(n, n)  # smallest live key at each node; n means none
    taken = np.zeros(n, dtype=bool)
    won = np.zeros(n, dtype=bool)
    live = np.arange(n)
    while live.size:
        ends, k = nn[live], key[live]
        best[live] = k  # each node is the source of one edge
        np.minimum.at(best, ends, k)
        win = live[(best[live] == k) & (best[ends] == k)]
        best[live] = best[ends] = n
        won[win] = taken[win] = taken[nn[win]] = True
        live = live[~(taken[live] | taken[nn[live]])]
    order = np.empty(n, dtype=np.int64)
    order[key] = np.arange(n)
    return order[won[order]]


def _nearest_edges(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's edge to another row of z, at most 1 + _NN_EPS = 4 times as
    far as the nearest, and its length.  The tree is queried in its own leaf
    order, so consecutive queries visit the same nodes; each query's result
    does not depend on that order.  Only a run that merges loads the tree's
    module."""
    from scipy.spatial import cKDTree

    tree = cKDTree(z)
    leaf = tree.indices
    dist, nn = np.empty((len(z), 2)), np.empty((len(z), 2), dtype=np.int64)
    dist[leaf], nn[leaf] = tree.query(z[leaf], k=2, eps=_NN_EPS)
    # a coincident point may come back before the query point itself
    return np.where(nn[:, 1] == np.arange(len(z)), nn[:, 0], nn[:, 1]), dist[:, 1]


def _merge_pass(cloud: ParticleCloud, group: np.ndarray, max_merges: int):
    """One greedy nearest-neighbour merge pass inside one group of equal radius.

    Each particle's edge to an approximate phase-space nearest neighbour,
    another particle at most 1 + _NN_EPS = 4 times as far as the nearest
    (`_nearest_edges`), is ranked by length; the greedy matching over these
    edges is taken in rounds by `_greedy_pairs`, and its `max_merges`
    shortest pairs are merged.  The group needs two particles and max_merges
    must be positive.
    """
    x = cloud.x[group]
    xi = cloud.xi[group]
    # balance the metric between position and velocity spread
    sx = max(x.std(), 1e-12)
    sv = max(xi.std(), 1e-12)
    nn, dist = _nearest_edges(np.concatenate([x / sx, xi / sv], axis=1))
    key = np.empty(group.size, dtype=np.int64)
    key[np.argsort(dist, kind="stable")] = np.arange(group.size)
    src = _greedy_pairs(nn, key)[:max_merges]
    a, b = group[src], group[nn[src]]
    wa, wb = cloud.w[a], cloud.w[b]
    wsum = wa + wb
    safe = np.where(wsum > 0, wsum, 1.0)
    frac_b = np.where(wsum > 0, wb / safe, 0.5)
    xi_m = np.where(
        (wsum > 0)[:, None],
        (wa[:, None] * cloud.xi[a] + wb[:, None] * cloud.xi[b]) / safe[:, None],
        0.5 * (cloud.xi[a] + cloud.xi[b]),
    )
    delta = np.remainder(cloud.x[b] - cloud.x[a] + 0.5 * TWO_PI, TWO_PI) - 0.5 * TWO_PI
    x_m = wrap_to_torus(cloud.x[a] + frac_b[:, None] * delta)
    keep = np.ones(cloud.count, dtype=bool)
    keep[a] = False
    keep[b] = False
    return ParticleCloud(
        np.concatenate([cloud.x[keep], x_m]),
        np.concatenate([cloud.xi[keep], xi_m]),
        np.concatenate([cloud.w[keep], wsum]),
        np.concatenate([cloud.r[keep], cloud.r[a]]),
    )


def _kronecker_points(count: int, dim: int, seed: int) -> np.ndarray:
    """Points i = 0..count-1 of the Kronecker (R_d) lattice, 2π ((s + i alpha)
    mod 1), with alpha_j = phi^-j, j = 1..dim, phi the positive root of
    x^(dim+1) = x + 1 and the shift s = default_rng(seed).random(dim) (Kuipers &
    Niederreiter 1974; Cranley & Patterson 1976).  They are formed in place: the
    index column is the one other count-sized array made."""
    phi = 2.0
    for _ in range(64):  # a contraction: phi = (1 + phi)^(1/(dim+1)) converges
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    x = np.arange(count)[:, None] * phi ** -np.arange(1.0, dim + 1)
    x += np.random.default_rng(seed).random(dim)
    np.mod(x, 1.0, out=x)
    x *= TWO_PI
    return x


def sample_gaussian_spray(grid: GridSpec, count: int, total_number: float,
                          mean_velocity, sigma: float, seed: int) -> ParticleCloud:
    """Sample a spray of unit-radius parents uniform in x with Gaussian velocities.

    Positions are a Kronecker lattice shifted by `seed` (`_kronecker_points`),
    a low-discrepancy set whose deposit is quieter than a random cloud's;
    velocities are Gaussian, drawn from seed + 1, then recentred and rescaled
    so the cloud's number, momentum and second moment match the analytic
    values exactly:

        sum w          = total_number
        sum w xi       = total_number * mean_velocity
        sum w |xi|^2   = total_number * (dim sigma^2 + |mean_velocity|^2)
    """
    if count < 2:
        raise ValueError("need at least 2 particles to match moments")
    dim = grid.dim
    mean_velocity = np.broadcast_to(np.asarray(mean_velocity, dtype=np.float64), (dim,))
    x = _kronecker_points(count, dim, seed)
    rng = np.random.default_rng(seed + 1)
    xi = rng.standard_normal((count, dim))
    xi -= xi.mean(axis=0)
    if sigma > 0:
        current = np.sum(xi**2) / count
        xi *= sigma * np.sqrt(dim / current)
    else:
        xi[:] = 0.0
    xi += mean_velocity
    w = np.full(count, total_number / count)
    return ParticleCloud(x, xi, w, np.ones(count))

