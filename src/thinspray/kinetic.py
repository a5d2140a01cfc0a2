"""Particle (characteristics) discretization of the droplet phase.

A cloud of weighted particles samples the droplet number density in phase
space.  Each particle carries a position on the torus, an unbounded velocity
and a number weight (droplets represented per unit phase-space sampling).
The parents, of radius 1, come before the fragments they break into, of one
radius r2: the Stokes drag weight r, the relaxation time r^2 and the liquid
volume r^3 are one scalar per species.  Drag relaxation uses the exact
exponential update, so the stiff small-radius limit costs nothing in dt.
Parents break up at rate 1/tau in one call, `absorb_and_fragment`: their
lost weight leaves the cloud or becomes fragments, spawned in turns.
The sampler returns its rows in spatial blocks (`_block_order`), so the
particle-grid pass's bincounts and takes walk the grid nearly in order; each
row keeps its index parity, which the turns read, and the velocity drawn for
its lattice point.
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
# the sampler orders its rows by block of a _BLOCKS^dim partition of the torus;
# with 4, 16 or 32 blocks per axis the 200k-particle n=32 pass read within 1.5 ms of 8
_BLOCKS = 8


@dataclass
class ParticleCloud:
    """Weighted particles sampling the droplet phase, handled as a value: the
    functions that push, decay or merge a cloud share every array they leave
    unchanged with the cloud they return, so no code writes into one in place.
    Its constructor is the one check: a non-finite x, xi or w, a negative w,
    parents outside [0, N] or a radius outside (0, inf) raises FieldError.
    """

    x: np.ndarray        # (N, dim) positions in [0, 2π)
    xi: np.ndarray       # (N, dim) velocities
    w: np.ndarray        # (N,) nonnegative number weights
    parents: int         # rows [0, parents) are parents, of radius 1
    radius: float = 1.0  # the one droplet radius of the fragments after them

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=np.float64))
        self.w = np.asarray(self.w, dtype=np.float64).ravel()
        parents, self.parents = self.parents, int(self.parents)
        self.radius = float(self.radius)
        n = self.x.shape[0]
        if self.xi.shape != self.x.shape or self.w.shape != (n,):
            raise FieldError("particle arrays have inconsistent shapes")
        if not (self.parents == parents and 0 <= parents <= n):
            raise FieldError(f"a cloud of {n} particles cannot hold {parents} parents")
        if not (np.isfinite(self.x).all() and np.isfinite(self.xi).all()):
            raise FieldError("particle positions x or velocities ξ are non-finite")
        if n and not (self.w.min() >= 0 and self.w.max() < np.inf):  # NaN fails both
            raise FieldError("particle weights must be nonnegative and finite")
        if not 0 < self.radius < np.inf:
            raise FieldError(f"the fragment radius must be positive and finite: {self.radius}")

    @property
    def count(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def species(self) -> tuple[tuple[slice, float], tuple[slice, float]]:
        """The rows and the droplet radius of each species, parents first."""
        return (slice(0, self.parents), 1.0), (slice(self.parents, self.count), self.radius)

    @classmethod
    def empty(cls, dim: int, radius: float = 1.0) -> "ParticleCloud":
        z = np.zeros((0, dim))
        return cls(z, z.copy(), np.zeros(0), 0, radius)


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
    `transfer._CHUNK` rows of one species, of one r^2, at a time, writing
    each chunk's xi' rows into a new array and its x' rows into u_at_x in
    place, so that no other array the size of the cloud is made.  The
    returned cloud holds u_at_x as its x and shares w with the input; a
    non-finite x' or xi' raises FieldError, from that cloud.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if (u_at_x.shape != cloud.x.shape or u_at_x.dtype != np.float64
            or not u_at_x.flags.c_contiguous):  # the chunk rows must be views
        raise ValueError("u_at_x must be a C-contiguous float (N, dim) array like x")
    xi_new = np.empty_like(cloud.xi)
    for rows, r in cloud.species():
        tau = np.square(np.float64(r))
        decay = np.exp(-dt / tau)
        for start in range(rows.start, rows.stop, _CHUNK):
            sl = slice(start, min(start + _CHUNK, rows.stop))
            up = u_at_x[sl]  # the chunk's rows of u, then of x'
            dxi = cloud.xi[sl] - up
            xi = np.multiply(dxi, decay, out=xi_new[sl])
            xi += up
            dxi *= tau * (1.0 - decay)
            up *= dt
            up += cloud.x[sl]
            up += dxi
            flat = up.reshape(-1)  # a view: the rows of one chunk are contiguous
            left = np.flatnonzero((flat < 0.0) | (flat >= TWO_PI))
            flat[left] = wrap_to_torus(flat[left])
    return ParticleCloud(u_at_x, xi_new, cloud.w, cloud.parents, cloud.radius)


def absorb_and_fragment(cloud: ParticleCloud, dt: float, tau: float, *,
                        step: int | None = None) -> ParticleCloud:
    """Break up the parent droplets at rate 1/tau.

    Without a `step` (absorbing), every parent keeps exp(-dt/tau) of its
    weight; the weight lost, cloud.w minus the returned w, is the caller's to
    absorb, and the returned cloud shares x and xi with the input.  With the
    step k (fragmenting), the parents take turns: only the parents of index
    i = k (mod _SPAWN_PERIOD = 2) break up, each keeping exp(-2 dt/tau) of
    its weight and spawning one fragment of the cloud's radius at its x and
    xi with the lost liquid volume, weight lost / radius^3, after the
    cloud's fragments, in parent order, in the one cloud returned.  A merge
    moves no parent (`merge_particles`), so each parent breaks up on every
    second step, at rate 1/tau: after n turns it weighs w0 exp(-2n dt/tau).
    The liquid volume stays exact, and a step spawns half as many fragments
    for the merge to take back.  Fragments, and every particle when tau is
    inf, pass through untouched.
    """
    if not tau > 0:
        raise ValueError(f"breakup time must be positive, got {tau}")
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    period = 1 if step is None else _SPAWN_PERIOD  # a turn takes every period-th parent
    turn = slice((step or 0) % period, cloud.parents, period)
    dt = period * dt
    w_new = cloud.w.copy()
    w_new[turn] *= np.exp(-dt / tau)
    if step is None:
        return ParticleCloud(cloud.x, cloud.xi, w_new, cloud.parents, cloud.radius)
    lost = cloud.w[turn] - w_new[turn]
    spawn = lost > 0
    spawned = (cloud.x[turn][spawn], cloud.xi[turn][spawn], lost[spawn] / cloud.radius**3)
    kept = (cloud.x, cloud.xi, w_new)
    return ParticleCloud(*map(np.concatenate, zip(kept, spawned)), cloud.parents, cloud.radius)


def deposit_moments(cloud: ParticleCloud, u: VectorField,
                    cutoff_eps: float | None = None) -> tuple[DragField, np.ndarray]:
    """Deposit the drag densities m0 and m1 of the cloud, weights w r, on
    u's grid, and gather u at the particles.

    Each particle weighs w times its radius r, 1 for the parents, the
    weight with which a droplet pulls on the gas under Stokes drag.  With a
    cutoff width `cutoff_eps`, the weight is first multiplied by the smooth
    velocity cutoff (1 inside |xi| <= 1/eps, 0 beyond 2/eps); a width <= 0 is
    rejected.  One scatter, one corner table per chunk, deposits m0 and
    the dim components of m1 and reads u at every particle, the (N, dim)
    array returned beside the drag: a run passes the advecting velocity,
    and the next push takes that array (`advance_particles`).
    """
    w = cloud.w
    if cutoff_eps is not None:
        w = w * velocity_cutoff(cloud.xi, cutoff_eps)
    if cloud.parents < cloud.count:
        w = np.concatenate([w[:cloud.parents], w[cloud.parents:] * cloud.radius])
    grid = u.grid
    dens, u_at_x = cic_scatter(grid, cloud.x, w, cloud.xi, gather=u)
    return DragField(ScalarField(grid, dens[0]), VectorField(grid, dens[1:])), u_at_x


def merge_particles(cloud: ParticleCloud, budget: int) -> tuple[ParticleCloud, float]:
    """Reduce the cloud to at most `budget` particles by merging fragments.

    Only the fragments, rows [parents, N), merge: the parents, the sampled
    spray whose breakup rate the limit depends on, keep their rows.  Near
    phase-space neighbours are combined into a single particle conserving
    sum(w) and sum(w xi) exactly: each pair's distance is at most
    1 + _NN_EPS = 4 times the exact nearest-neighbour distance of one of
    them.  The pairs are the greedy matching of the fragments' edges to
    their neighbours in (length, source) order, the later edge of each
    mutual pair dropped before the ranking (`_greedy_pairs`).  On spray
    clouds the distance bound is loose: the merged pairs' mean squared
    position shift, weighted by reduced mass, measured 1.01-1.13 times an
    exact query's on the bidisperse-merge benchmark's merge inputs.
    Positions use the periodic weighted mean on the torus [0, 2π).  Returns
    the merged cloud and the relative change of the spray's kinetic energy,
    sum over the species s of r_s^3 sum(w |xi|^2) / 2, mass-weighted: the
    one moment a merge does not preserve.  Merging stops within the budget
    or with fewer than two fragments left; a run's budget holds one more
    than its parents (SimConfig.validate), so a run's merge ends within it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def m2(c):  # twice the energy; einsum, not w @ v (see diagnostics._pair)
        return sum(r**3 * float(np.einsum("i,i->", c.w[s], rowwise_dot(c.xi[s], c.xi[s])))
                   for s, r in c.species())

    m2_before = m2(cloud)
    out = cloud
    while out.count > budget and out.count - out.parents >= 2:
        out = _merge_pass(out, out.count - budget)
    rel = abs(m2(out) - m2_before) / max(abs(m2_before), 1e-300)
    return out, rel


def _greedy_pairs(nn: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Sources of the edges i -> nn[i] that a greedy matching takes, in the
    edges' (length, source) order; dist[i] is the length of i -> nn[i].

    Greedy visits the edges by increasing (length, source) and takes one
    whose ends are both free.  Of a mutual pair, i -> j and j -> i, it can
    take only the earlier edge, so the later one is dropped before the
    ranking; the ranks of the edges left are distinct.  The matching comes
    in rounds: every live edge whose rank is the smallest live rank at both
    of its ends is taken, and the edges with a taken end die (Preis, STACS
    1999).  A spray cloud needs a few rounds; a chain of ever-longer edges
    needs one round per pair.
    """
    n = nn.size
    i, back = np.arange(n), dist[nn]  # back[i]: the length of nn[i]'s own edge
    later = (nn[nn] == i) & ((back < dist) | ((back == dist) & (nn < i)))
    src = np.flatnonzero(~later)
    kept = dist[src]
    order = np.argsort(kept)
    ranked = kept[order]
    if (ranked[1:] == ranked[:-1]).any():  # a tie is broken by the source
        order = np.argsort(kept, kind="stable")
    src = src[order]  # the edges' sources by rank
    dst = nn[src]
    m = src.size
    best = np.full(n, m)  # smallest live rank at each node; m means none
    taken = np.zeros(n, dtype=bool)
    won = np.zeros(m, dtype=bool)
    live = np.arange(m)
    while live.size:
        s, d = src[live], dst[live]
        best[s] = live  # each node is the source of at most one edge
        np.minimum.at(best, d, live)
        win = live[(best[s] == live) & (best[d] == live)]
        best[s] = best[d] = m
        won[win] = taken[src[win]] = taken[dst[win]] = True
        live = live[~(taken[src[live]] | taken[dst[live]])]
    return src[won]


def _nearest_edges(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's edge to another row of z, at most 1 + _NN_EPS = 4 times as
    far as the nearest, and its length.  The tree splits each box at its
    widest side's midpoint, slid to the nearest point when one side would be
    empty, and keeps the boxes as split (scipy's balanced_tree=False,
    compact_nodes=False): the sliding midpoint of approximate nearest-neighbour
    search (Arya et al. 1998; Maneewongvatana & Mount 1999), which bounds
    every query's error as the median split does and builds in about half
    the time.  The tree is queried in its own leaf order, so consecutive
    queries visit the same nodes; each query's result does not depend on
    that order.  Only a run that merges loads the tree's module."""
    from scipy.spatial import cKDTree

    tree = cKDTree(z, balanced_tree=False, compact_nodes=False)
    leaf = tree.indices
    dist, nn = np.empty((len(z), 2)), np.empty((len(z), 2), dtype=np.int64)
    dist[leaf], nn[leaf] = tree.query(np.take(z, leaf, axis=0), k=2, eps=_NN_EPS)
    # a coincident point may come back before the query point itself
    return np.where(nn[:, 1] == np.arange(len(z)), nn[:, 0], nn[:, 1]), dist[:, 1]


def _merge_pass(cloud: ParticleCloud, max_merges: int):
    """One greedy nearest-neighbour merge pass over the fragments.

    Each fragment's edge to an approximate phase-space nearest neighbour,
    another fragment at most 1 + _NN_EPS = 4 times as far as the nearest
    (`_nearest_edges`), is ranked by (length, source), the later edge of
    each mutual pair dropped; the greedy matching over these edges is taken
    in rounds by `_greedy_pairs`, which is handed the raw lengths, and its
    `max_merges` shortest pairs are merged, their ends' rows gathered once
    each with np.take.  Each array of the returned cloud is written
    once: the parents, then the unmerged fragments, then the merged pairs.
    The cloud needs two fragments, max_merges > 0.
    """
    p = cloud.parents
    x, xi, w = cloud.x[p:], cloud.xi[p:], cloud.w[p:]
    size, dim = x.shape
    # balance the metric between position and velocity spread
    z = np.empty((size, 2 * dim))
    np.divide(x, max(x.std(), 1e-12), out=z[:, :dim])
    np.divide(xi, max(xi.std(), 1e-12), out=z[:, dim:])
    nn, dist = _nearest_edges(z)
    del z
    src = _greedy_pairs(nn, dist)[:max_merges]
    dst = nn[src]

    keep = np.ones(size, dtype=bool)
    keep[src] = False
    keep[dst] = False
    kept = cloud.count - 2 * src.size
    out = []
    for arr in (cloud.x, cloud.xi, cloud.w):
        out.append(np.empty((cloud.count - src.size,) + arr.shape[1:]))
        out[-1][:p] = arr[:p]  # the parents, one block
        np.compress(keep, arr[p:], axis=0, out=out[-1][p:kept])
    x_m, xi_m, wsum = (arr[kept:] for arr in out)  # the merged pairs

    # the ends' x, xi and w, each gathered once
    wa, wb = np.take(w, src), np.take(w, dst)
    np.add(wa, wb, out=wsum)
    zero = np.flatnonzero(wsum == 0)  # weights are nonnegative: both ends weigh 0
    safe = np.where(wsum > 0, wsum, 1.0) if zero.size else wsum
    xia, xib = np.take(xi, src, axis=0), np.take(xi, dst, axis=0)
    mid = 0.5 * (xia[zero] + xib[zero])  # such a pair merges at the unweighted mean
    np.multiply(xia, wa[:, None], out=xi_m)
    xib *= wb[:, None]
    xi_m += xib
    xi_m /= safe[:, None]
    xi_m[zero] = mid
    frac_b = wb / safe
    frac_b[zero] = 0.5
    # the shortest displacement from a to b on the torus
    xa, delta = np.take(x, src, axis=0), np.take(x, dst, axis=0)
    delta -= xa
    delta += 0.5 * TWO_PI
    np.remainder(delta, TWO_PI, out=delta)
    delta -= 0.5 * TWO_PI
    delta *= frac_b[:, None]
    delta += xa
    x_m[:] = wrap_to_torus(delta)
    return ParticleCloud(*out, p, cloud.radius)


def _kronecker_points(count: int, dim: int, seed: int) -> np.ndarray:
    """Points i = 0..count-1 of the Kronecker (R_d) lattice, 2π ((s + i alpha)
    mod 1), with alpha_j = phi^-j, j = 1..dim, phi the positive root of
    x^(dim+1) = x + 1 and the shift s = default_rng(seed).random(dim) (Kuipers &
    Niederreiter 1974; Cranley & Patterson 1976).  They are formed in place: the
    index column and one column's floor are the other count-sized arrays made."""
    phi = 2.0
    for _ in range(64):  # a contraction: phi = (1 + phi)^(1/(dim+1)) converges
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    x = np.arange(count)[:, None] * phi ** -np.arange(1.0, dim + 1)
    x += np.random.default_rng(seed).random(dim)
    for col in x.T:  # exact: every point is i alpha + s >= 0
        col -= np.floor(col)
    x *= TWO_PI
    return x


def _block_order(x: np.ndarray) -> np.ndarray:
    """The row order that sorts the points x in [0, 2π)^dim by block of a
    row-major _BLOCKS^dim partition of the torus, each index parity on its
    own: row r of x[order] is point order[r], and order[r] = r (mod 2).
    The uint16 key is built one column at a time, and both sorts are stable."""
    key = np.zeros(len(x), dtype=np.uint16)
    for col in x.T:
        block = np.multiply(col, _BLOCKS / TWO_PI)
        np.minimum(block, _BLOCKS - 1, out=block)  # x just below 2π may round up
        key *= _BLOCKS
        key += block.astype(np.uint16)
    order = np.empty(len(x), dtype=np.int64)
    for parity in range(_SPAWN_PERIOD):  # the breakup's turns read the index parity
        rows = np.argsort(key[parity::_SPAWN_PERIOD], kind="stable")
        order[parity::_SPAWN_PERIOD] = rows * _SPAWN_PERIOD + parity
    return order


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

    The rows come in spatial blocks (`_block_order`), not in lattice order,
    which is random in space: the particle-grid pass's bincounts and takes
    then walk the grid nearly in order.  The order is a permutation that
    keeps each row's index parity, which the breakup's turns read, and
    pairs each lattice point with the velocity drawn for it, so the cloud
    is the lattice-order one with its rows moved.
    """
    if count < 2:
        raise ValueError("need at least 2 particles to match moments")
    dim = grid.dim
    mean_velocity = np.broadcast_to(np.asarray(mean_velocity, dtype=np.float64), (dim,))
    x = _kronecker_points(count, dim, seed)
    order = _block_order(x)
    x = np.take(x, order, axis=0)
    rng = np.random.default_rng(seed + 1)
    xi = rng.standard_normal((count, dim))
    xi -= xi.mean(axis=0)
    if sigma > 0:
        current = np.sum(xi**2) / count
        xi *= sigma * np.sqrt(dim / current)
    else:
        xi[:] = 0.0
    xi += mean_velocity
    xi = np.take(xi, order, axis=0)
    w = np.full(count, total_number / count)
    return ParticleCloud(x, xi, w, count)

