"""Particle (characteristics) discretization of the droplet phase.

A cloud of weighted particles samples the droplet number density in phase
space.  Each particle carries a position on the torus, an unbounded velocity,
a number weight (droplets represented per unit phase-space sampling) and a
droplet radius: 1 for the parents, r2 for the fragments they break into.
The radius sets the Stokes drag weight r, the relaxation time r^2 and the
liquid volume r^3.  Drag relaxation uses the exact exponential update, so
the stiff small-radius limit costs nothing in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .fluid import DragField
from .grid import GridSpec, ScalarField, VectorField
from .transfer import cic_gather, cic_scatter

# the merge's neighbour query is (1 + eps)-approximate (Arya et al., J. ACM 1998);
# 3 is the knee of the merge time measured at eps = 1..4 on the bidisperse-merge
# benchmark, against the shift of the merged pairs and the energy they remove.
# It must stay finite: at eps = inf a point alone in its tree leaf gets the
# missing index N as its neighbour.
_NN_EPS = 3.0


@dataclass
class ParticleCloud:
    """Weighted particles sampling the droplet phase, handled as a value: the
    functions that push, decay or merge a cloud share every array they leave
    unchanged with the cloud they return, so no code writes into one in place.
    """

    x: np.ndarray        # (N, dim) positions in [0, length)
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
            raise ValueError("particle arrays have inconsistent shapes")
        if n and self.w.min() < 0:
            raise ValueError("particle weights must be nonnegative")
        if n and not self.r.min() > 0:  # NaN fails too
            raise ValueError("droplet radii must be positive")

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

    @classmethod
    def concatenate(cls, clouds) -> "ParticleCloud":
        clouds = [c for c in clouds if c.count]
        if not clouds:
            raise ValueError("nothing to concatenate")
        return cls(
            np.concatenate([c.x for c in clouds]),
            np.concatenate([c.xi for c in clouds]),
            np.concatenate([c.w for c in clouds]),
            np.concatenate([c.r for c in clouds]),
        )

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


def interpolate_velocity(u: VectorField, x: np.ndarray) -> np.ndarray:
    """Evaluate u at particle positions with the shared multilinear kernel.

    A non-finite value raises FieldError.
    """
    vals = cic_gather(u, x)
    if not np.isfinite(vals).all():
        raise FieldError("interpolated velocity is non-finite")
    return vals


def advance_particles(cloud: ParticleCloud, u: VectorField, dt: float) -> ParticleCloud:
    """Advance positions and velocities by one step of the drag dynamics.

    A droplet of radius r relaxes in the Stokes time r^2.  With the fluid
    velocity frozen at the particle position, the characteristics
    dx/dt = xi, dxi/dt = (u - xi)/r^2 integrate exactly:

        xi' = u + (xi - u) exp(-dt/r^2)
        x'  = x + dt u + r^2 (1 - exp(-dt/r^2)) (xi - u)

    Unconditionally stable as r -> 0 (xi' -> u, straight-line transport).
    Only the coordinates that left [0, length) are wrapped back.  The
    returned cloud shares w and r with the input.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    up = interpolate_velocity(u, cloud.x)
    tau_p = cloud.r[:, None] ** 2
    decay = np.exp(-dt / tau_p)
    dxi = cloud.xi - up
    xi_new = dxi * decay
    xi_new += up
    dxi *= tau_p * (1.0 - decay)
    x_new = np.multiply(up, dt, out=up)  # up is not read again: x' reuses its buffer
    x_new += cloud.x
    x_new += dxi
    flat, length = x_new.reshape(-1), u.grid.length
    left = np.flatnonzero((flat < 0.0) | (flat >= length))
    wrapped = np.mod(flat[left], length)  # a tiny negative's remainder rounds up to length
    flat[left] = np.where(wrapped == length, 0.0, wrapped)
    return ParticleCloud(x_new, xi_new, cloud.w, cloud.r)


def absorb_and_fragment(cloud: ParticleCloud, dt: float, tau: float,
                        breaks: np.ndarray | None = None) -> tuple[ParticleCloud, np.ndarray]:
    """Break up parent droplets, those of radius 1, at rate 1/tau.

    The parents that the boolean mask `breaks` selects, every parent by
    default, decay by exp(-dt/tau); the other particles, fragments included,
    pass through untouched.  A caller that breaks up each parent on every
    k-th step only passes k dt and the parents whose turn it is.  Returns
    the decayed cloud, which shares x, xi and r with the input, and
    the weight each particle lost (zero for the untouched ones, and for
    every particle when tau is inf).  The caller decides where the lost
    weight goes.
    """
    if not tau > 0:
        raise ValueError(f"breakup time must be positive, got {tau}")
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    decays = cloud.r == 1.0
    if breaks is not None:
        decays &= breaks
    w_new = np.where(decays, cloud.w * np.exp(-dt / tau), cloud.w)
    return ParticleCloud(cloud.x, cloud.xi, w_new, cloud.r), cloud.w - w_new


def deposit_moments(cloud: ParticleCloud, grid: GridSpec,
                    cutoff_eps: float | None = None) -> DragField:
    """Deposit the drag densities m0 and m1 of the cloud, weights w r.

    Each particle weighs w times its radius r, the weight with which a
    droplet pulls on the gas under Stokes drag.  With a cutoff width
    `cutoff_eps`, the weight is first multiplied by the smooth velocity
    cutoff (1 inside |xi| <= 1/eps, 0 beyond 2/eps); a width <= 0 is
    rejected.  One scatter, one corner table per chunk, deposits every
    column.
    """
    w = cloud.w
    if cutoff_eps is not None:
        w = w * velocity_cutoff(cloud.xi, cutoff_eps)
    w = w * cloud.r

    def charges(sl):  # built chunk by chunk, not as an (N, m) array
        ws = w[sl]
        return [ws] + [ws * xi_j for xi_j in cloud.xi[sl].T]

    dens = cic_scatter(grid, cloud.x, charges)
    return DragField(ScalarField(grid, dens[..., 0]),
                     VectorField(grid, np.moveaxis(dens[..., 1:], -1, 0)))


def merge_particles(cloud: ParticleCloud, budget: int,
                    length: float) -> tuple[ParticleCloud, float]:
    """Reduce the cloud to at most `budget` particles by pairwise merging.

    Near phase-space neighbours of one radius are combined into a
    single particle conserving sum(w) and sum(w xi) exactly: each pair's
    distance is at most 1 + _NN_EPS = 4 times the exact nearest-neighbour
    distance of one of its particles.  On spray clouds that bound is loose:
    the merged pairs' mean squared position shift, weighted by reduced
    mass, measured 1.07-1.20 times an exact query's.  Positions use the
    periodic weighted mean on a torus of period `length`, which must be the
    grid's.  Returns the merged cloud and the relative change of
    sum(w |xi|^2), the one moment a merge does not preserve; a cloud within
    the budget is returned as it is.
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
        progress = False
        # the most numerous radius first; on a tie the larger one
        for radius in radii[np.lexsort((-radii, -counts))]:
            group = np.flatnonzero(out.r == radius)
            merged = _merge_pass(out, group, out.count - budget, length)
            if merged is not None:
                out = merged
                progress = True
                break
        if not progress:  # no radius has a pair left to merge
            break
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


def _merge_pass(cloud: ParticleCloud, group: np.ndarray, max_merges: int,
                length: float):
    """One greedy nearest-neighbour merge pass inside one group of equal radius.

    Each particle's edge to an approximate phase-space nearest neighbour,
    another particle at most 1 + _NN_EPS = 4 times as far as the nearest
    (`_nearest_edges`), is ranked by length; the greedy matching over these
    edges is taken in rounds by `_greedy_pairs`, and its `max_merges`
    shortest pairs are merged.
    """
    if group.size < 2 or max_merges < 1:
        return None
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
    delta = np.remainder(cloud.x[b] - cloud.x[a] + 0.5 * length, length) - 0.5 * length
    x_m = np.remainder(cloud.x[a] + frac_b[:, None] * delta, length)
    x_m[x_m == length] = 0.0  # the remainder of a tiny negative rounds up to length
    keep = np.ones(cloud.count, dtype=bool)
    keep[a] = False
    keep[b] = False
    return ParticleCloud(
        np.concatenate([cloud.x[keep], x_m]),
        np.concatenate([cloud.xi[keep], xi_m]),
        np.concatenate([cloud.w[keep], wsum]),
        np.concatenate([cloud.r[keep], cloud.r[a]]),
    )


def _scrambled_halton(count: int, dim: int, seed: int) -> np.ndarray:
    """The first `count` points of Owen's scrambled Halton sequence in [0, 1)^dim,
    dim <= 3 (Owen, arXiv:1706.02808), bit for bit those of
    scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed).random(count).

    Coordinate k takes the k-th prime base b.  One generator, seeded once,
    shuffles a permutation of the digits 0..b-1 for each of the digit
    positions a double resolves, ceil(54 / log2 b) - 1, base after base; the
    point i is the radical inverse of i in base b with each digit replaced by
    its position's permutation, summed digit by digit as scipy sums it.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, dim))
    for k, base in enumerate((2, 3, 5)[:dim]):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        v, q, b2r, top = np.zeros(count), np.arange(count), 1.0 / base, count - 1
        for perm in perms:
            # once the largest index, top, has run out of digits, every later
            # digit is 0 and adds the constant perm[0] b2r: no division, no gather
            q, digit = np.divmod(q, base) if top > 0 else (q, 0)
            v += perm[digit] * b2r
            top //= base
            b2r /= base
        out[:, k] = v
    return out


def sample_gaussian_spray(grid: GridSpec, count: int, total_number: float,
                          mean_velocity, sigma: float, seed: int) -> ParticleCloud:
    """Sample a spray of unit-radius parents uniform in x with Gaussian velocities.

    Positions are the first `count` points of the scrambled Halton sequence
    of `seed` (`_scrambled_halton`, the points scipy's qmc.Halton draws),
    scaled to the box; velocities are Gaussian, then recentred and rescaled
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
    x = _scrambled_halton(count, dim, seed) * grid.length
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

