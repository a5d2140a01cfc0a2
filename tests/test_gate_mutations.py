"""The summary's gates against physics mutations of the step.

Each mutation replaces one name that `scenarios` looks up (the fluid step,
the push, the breakup, the deposit or the density step) with a wrong
variant, and a short 2-D run (n=16, dt = 1e-3, t = 0.05, tau = 0.5, seed 3)
must then fail the gates listed for its scenario.  The *limit* and
*regularized* (eps = 0.5) runs start from 4000 parents, the *bidisperse*
run from 2000 parents with r2 = 0.2 and a budget of 4000.

One kind of miss is marked `xfail(strict=True)`, so that the change that
catches it has to flip it: a gas coupling off by 10% fails the momentum
gate but not the energy gate, whose rate (250 per dt t) is far looser than
any scenario needs.  The *regularized* mass budget books the source that
its velocity cutoff leaves out, so it is gated like the *limit* one and
fails on the same rows.

No budget sees these mutations, so no case here runs them; a reference
solution does:
* no convection (the gas advected by a zero field), in every scenario: the
  convection enters no budget; `test_shear_wave.py`'s exact wave sees it;
* the push leaves x as it is, in every scenario: positions enter no budget;
  the parents' displacement in `test_uniform_state.py` sees it;
* a *bidisperse* breakup rate 10% too high: it is a different tau, and the
  fragments still take exactly the liquid the parents lose;
  `test_golden.py::test_merging_keeps_every_parent_and_its_turns`, which
  asserts each parent's weight w0 exp(-2 dt n / tau), sees it.
"""

from dataclasses import replace

import numpy as np
import pytest

from thinspray import scenarios
from thinspray.fluid import DragField
from thinspray.grid import TWO_PI, ScalarField, VectorField, wrap_to_torus
from thinspray.scenarios import SimConfig, run_scenario

CONFIGS = {
    "limit": dict(scenario="limit", particle_count=4000),
    "regularized": dict(scenario="regularized", eps=0.5, particle_count=4000),
    "bidisperse": dict(scenario="bidisperse", particle_count=2000, r2=0.2,
                       particle_budget=4000),
}
_BASE = dict(dim=2, n=16, dt=1e-3, t_final=0.05, tau=0.5, seed=3)
# summary key -> gate name
GATES = {"divergence": "divergence", "energy": "energy", "momentum": "momentum",
         "mass_budget": "mass", "liquid_volume": "liquid", "lemma1": "lemma"}


def _fluid(**change):
    """ns_step with its coupling, viscosity or advecting velocity changed:
    each value of `change` maps the step's own value to the mutated one."""
    def mutate(mp):
        def step(state, u_adv, drag, dt, *, coupling, nu, _real=scenarios.ns_step):
            args = dict(u_adv=u_adv, coupling=coupling, nu=nu)
            args.update({key: f(args[key]) for key, f in change.items()})
            return _real(state, args["u_adv"], drag, dt,
                         coupling=args["coupling"], nu=args["nu"])
        mp.setattr(scenarios, "ns_step", step)
    return mutate


def _slow_push(mp):
    """The push with every relaxation time 1.2 r^2: its velocity update is the
    true push's over dt / 1.2, and its displacement 1.2 times that push's."""
    def push(cloud, u_at_x, dt, _real=scenarios.advance_particles):
        out = _real(cloud, u_at_x, dt / 1.2)
        shift = np.remainder(out.x - cloud.x + 0.5 * TWO_PI, TWO_PI) - 0.5 * TWO_PI
        return replace(out, x=wrap_to_torus(cloud.x + 1.2 * shift))
    mp.setattr(scenarios, "advance_particles", push)


def _heavy_deposit(mp):
    """The drag deposit, m0 and m1, 10% too large."""
    def deposit(cloud, u, eps=None, _real=scenarios.deposit_moments):
        drag, u_at_x = _real(cloud, u, eps)
        grid = u.grid
        return DragField(ScalarField(grid, 1.1 * drag.m0.values),
                         VectorField(grid, 1.1 * drag.m1.values)), u_at_x
    mp.setattr(scenarios, "deposit_moments", deposit)


def _rich_source(mp):
    """The density step's source of rho 1% too large."""
    def density(rho, u, source, dt, _real=scenarios.density_step):
        return _real(rho, u, ScalarField(rho.grid, 1.01 * source.values), dt)
    mp.setattr(scenarios, "density_step", density)


def _fast_breakup(mp):
    """The breakup at rate 1.1 / tau; the run's source of rho keeps 1 / tau."""
    def breakup(cloud, dt, tau, *, step=None, _real=scenarios.absorb_and_fragment):
        return _real(cloud, dt, tau / 1.1, step=step)
    mp.setattr(scenarios, "absorb_and_fragment", breakup)


def _heavy_fragments(mp):
    """Every spawned fragment 2% heavier than the liquid its parent lost."""
    def breakup(cloud, dt, tau, *, step=None, _real=scenarios.absorb_and_fragment):
        out = _real(cloud, dt, tau, step=step)
        w = out.w.copy()
        w[cloud.count:] *= 1.02  # the spawned rows come after the input's
        return replace(out, w=w)
    mp.setattr(scenarios, "absorb_and_fragment", breakup)


MUTATIONS = {
    "none": lambda mp: None,
    "coupling x 0.9": _fluid(coupling=lambda c: 0.9 * c),
    "coupling x 1.1": _fluid(coupling=lambda c: 1.1 * c),
    "coupling 1": _fluid(coupling=lambda c: 1.0),
    "nu x 1.05": _fluid(nu=lambda nu: 1.05 * nu),
    "relaxation time x 1.2": _slow_push,
    "deposit x 1.1": _heavy_deposit,
    "rho source x 1.01": _rich_source,
    "breakup rate x 1.1": _fast_breakup,
    "fragment weight + 2%": _heavy_fragments,
}


@pytest.fixture(scope="module")
def failed_gates():
    """failed_gates(mutation, scenario): the gates the run of `scenario` fails
    under `mutation`, each run made once for the module."""
    runs = {}

    def gates(mutation: str, scenario: str) -> frozenset:
        if (mutation, scenario) not in runs:
            with pytest.MonkeyPatch.context() as mp:
                MUTATIONS[mutation](mp)
                summary = run_scenario(SimConfig(**_BASE, **CONFIGS[scenario])).summary
            runs[mutation, scenario] = frozenset(
                name for key, name in GATES.items() if summary[key]["pass"] is False)
        return runs[mutation, scenario]
    return gates


def _cases(mutation, table, xfail=()):
    """One case per scenario of a table row, those in xfail marked with their
    reasons."""
    return [pytest.param(mutation, scenario, set(gates),
                         id=f"{mutation}-{scenario}-{'+'.join(sorted(gates))}",
                         marks=[pytest.mark.xfail(strict=True, reason=xfail[scenario])]
                         if scenario in xfail else [])
            for scenario, gates in table.items()]


EVERY = ("limit", "bidisperse", "regularized")
CAUGHT = [
    *_cases("coupling x 0.9", dict.fromkeys(EVERY, {"momentum"})),
    *_cases("coupling x 1.1", dict.fromkeys(EVERY, {"momentum"})),
    *_cases("coupling 1", dict.fromkeys(("limit", "regularized"), {"energy", "momentum"})),
    *_cases("nu x 1.05", dict.fromkeys(EVERY, {"energy"})),
    *_cases("relaxation time x 1.2", dict.fromkeys(EVERY, {"momentum"})),
    *_cases("deposit x 1.1", dict(limit={"momentum", "mass"}, bidisperse={"momentum"},
                                  regularized={"momentum", "mass"})),
    *_cases("rho source x 1.01", dict(limit={"mass"}, regularized={"mass"})),
    *_cases("breakup rate x 1.1", dict(limit={"momentum", "mass"},
                                       regularized={"momentum", "mass"})),
    *_cases("fragment weight + 2%", dict(bidisperse={"liquid"})),
    # the energy gate should see a coupling off by 10% too (ROADMAP item 4)
    *_cases("coupling x 0.9", dict.fromkeys(EVERY, {"energy"}),
            xfail=dict.fromkeys(EVERY, "item 4")),
    *_cases("coupling x 1.1", dict.fromkeys(EVERY, {"energy"}),
            xfail=dict.fromkeys(EVERY, "item 4")),
]


@pytest.mark.parametrize("scenario", EVERY)
def test_an_unmutated_run_passes_every_gate(failed_gates, scenario):
    assert failed_gates("none", scenario) == frozenset()


@pytest.mark.parametrize("mutation, scenario, gates", CAUGHT)
def test_the_listed_gates_fail(failed_gates, mutation, scenario, gates):
    assert gates <= failed_gates(mutation, scenario)
