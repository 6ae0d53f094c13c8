"""Tests for the selective (lazy) LMM solve and lazy action management.

The selective solver must be *observationally identical* to a from-scratch
progressive filling: after any sequence of mutations, solving lazily must
give every variable the same value a freshly-built copy of the system
would get.  These tests drive randomized systems through randomized
mutation sequences and compare against the reference at every step.
"""

import hashlib
import json
import math
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lmm_reference import solve_reference
from repro.surf import lmm
from repro.surf.cpu import CpuModel
from repro.surf.engine import SurfEngine
from repro.surf.lmm import MaxMinSystem
from repro.surf.network import NetworkModel


# ----------------------------------------------------------------------------------
# reference helper: rebuild the live system from scratch and full-solve it
# ----------------------------------------------------------------------------------

def reference_values(system, use_reference_solver=False):
    """Map variable id -> value a from-scratch full solve would assign.

    With ``use_reference_solver=True`` the rebuilt clone is solved with
    :func:`lmm_reference.solve_reference` — the preserved pre-incremental
    rescanning algorithm — instead of the incremental solver.
    """
    fresh = MaxMinSystem()
    cns_map = {}
    for cns in system.constraints:
        cns_map[cns.id] = fresh.new_constraint(cns.capacity, shared=cns.shared)
    var_map = {}
    for var in system.variables:
        var_map[var.id] = fresh.new_variable(weight=var.weight,
                                             bound=var.bound)
        for elem in var.elements:
            fresh.expand(cns_map[elem.constraint.id], var_map[var.id],
                         elem.usage)
    if use_reference_solver:
        solve_reference(fresh)
    else:
        fresh.solve()
    return {vid: clone.value for vid, clone in var_map.items()}


def assert_matches_reference(system, use_reference_solver=False):
    expected = reference_values(system,
                                use_reference_solver=use_reference_solver)
    for var in system.variables:
        if math.isinf(expected[var.id]):
            assert math.isinf(var.value), f"var {var.id}"
        else:
            assert var.value == pytest.approx(expected[var.id], rel=1e-9,
                                              abs=1e-9), f"var {var.id}"


# ----------------------------------------------------------------------------------
# selective solve == from-scratch solve on randomized mutation sequences
# ----------------------------------------------------------------------------------

@st.composite
def mutation_script(draw):
    """A random system plus a random sequence of mutations."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_constraints = draw(st.integers(min_value=1, max_value=6))
    num_variables = draw(st.integers(min_value=1, max_value=10))
    num_mutations = draw(st.integers(min_value=1, max_value=12))
    return seed, num_constraints, num_variables, num_mutations


@settings(max_examples=60, deadline=None)
@given(mutation_script())
def test_property_selective_solve_matches_full_solve(script):
    seed, num_constraints, num_variables, num_mutations = script
    rng = random.Random(seed)

    system = MaxMinSystem()
    constraints = [
        system.new_constraint(rng.uniform(1.0, 1000.0),
                              shared=rng.random() > 0.25)
        for _ in range(num_constraints)
    ]
    variables = []
    for _ in range(num_variables):
        bound = rng.uniform(0.5, 500.0) if rng.random() < 0.4 else None
        var = system.new_variable(weight=rng.uniform(0.1, 10.0), bound=bound)
        for cns in rng.sample(constraints,
                              rng.randint(1, len(constraints))):
            system.expand(cns, var, rng.uniform(0.5, 2.0))
        variables.append(var)

    system.solve()
    assert_matches_reference(system)

    for _ in range(num_mutations):
        live = [v for v in system.variables]
        op = rng.randrange(5)
        if op == 0 and live:
            system.update_variable_weight(
                rng.choice(live), rng.choice([0.0, rng.uniform(0.1, 10.0)]))
        elif op == 1 and live:
            system.update_variable_bound(
                rng.choice(live),
                rng.choice([None, rng.uniform(0.5, 500.0)]))
        elif op == 2:
            system.update_constraint_capacity(
                rng.choice(constraints), rng.uniform(1.0, 1000.0))
        elif op == 3 and live:
            system.remove_variable(rng.choice(live))
        else:
            bound = rng.uniform(0.5, 500.0) if rng.random() < 0.4 else None
            var = system.new_variable(weight=rng.uniform(0.1, 10.0),
                                      bound=bound)
            for cns in rng.sample(constraints,
                                  rng.randint(1, len(constraints))):
                system.expand(cns, var, rng.uniform(0.5, 2.0))
        system.solve()
        assert_matches_reference(system)
        assert system.check_feasible()


# ----------------------------------------------------------------------------------
# incremental solver == preserved reference solver (PR 5 rewrite)
# ----------------------------------------------------------------------------------

@st.composite
def mixed_system_script(draw):
    """A random mixed system (shared + fat-pipe + bounds + zero-weight +
    detached variables) plus a random mutation sequence."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_constraints = draw(st.integers(min_value=1, max_value=7))
    num_variables = draw(st.integers(min_value=1, max_value=14))
    num_mutations = draw(st.integers(min_value=0, max_value=10))
    return seed, num_constraints, num_variables, num_mutations


@settings(max_examples=80, derandomize=True, deadline=None)
@given(mixed_system_script())
def test_property_incremental_solver_matches_reference_solver(script):
    """The heap-driven filling is equivalent to the rescanning reference.

    Random systems mixing shared and fat-pipe constraints, rate bounds,
    zero-weight (suspended) and detached (constraint-free) variables are
    driven through random mutations; after every selective solve, the
    values must match a from-scratch clone solved with the *reference*
    algorithm (``lmm_reference``), not just the incremental one.
    """
    seed, num_constraints, num_variables, num_mutations = script
    rng = random.Random(seed)

    system = MaxMinSystem()
    constraints = [
        system.new_constraint(rng.uniform(1.0, 1000.0),
                              shared=rng.random() > 0.3)
        for _ in range(num_constraints)
    ]
    for _ in range(num_variables):
        weight = 0.0 if rng.random() < 0.15 else rng.uniform(0.1, 10.0)
        bound = rng.uniform(0.5, 500.0) if rng.random() < 0.4 else None
        var = system.new_variable(weight=weight, bound=bound)
        if rng.random() < 0.12:
            continue                      # detached: crosses no constraint
        for cns in rng.sample(constraints,
                              rng.randint(1, num_constraints)):
            system.expand(cns, var, rng.uniform(0.5, 2.0))

    system.solve()
    assert_matches_reference(system, use_reference_solver=True)
    assert system.check_feasible()

    for _ in range(num_mutations):
        live = [v for v in system.variables]
        op = rng.randrange(5)
        if op == 0 and live:
            system.update_variable_weight(
                rng.choice(live), rng.choice([0.0, rng.uniform(0.1, 10.0)]))
        elif op == 1 and live:
            system.update_variable_bound(
                rng.choice(live),
                rng.choice([None, rng.uniform(0.5, 500.0)]))
        elif op == 2:
            system.update_constraint_capacity(
                rng.choice(constraints), rng.uniform(1.0, 1000.0))
        elif op == 3 and live:
            system.remove_variable(rng.choice(live))
        else:
            bound = rng.uniform(0.5, 500.0) if rng.random() < 0.4 else None
            var = system.new_variable(weight=rng.uniform(0.1, 10.0),
                                      bound=bound)
            for cns in rng.sample(constraints,
                                  rng.randint(1, num_constraints)):
                system.expand(cns, var, rng.uniform(0.5, 2.0))
        system.solve()
        assert_matches_reference(system, use_reference_solver=True)
        assert system.check_feasible()


# ----------------------------------------------------------------------------------
# by-inspection components: the short-circuit == the general path, counters too
# ----------------------------------------------------------------------------------

COUNTERS = ("constraints_solved", "variables_solved", "elements_visited",
            "heap_pops")


def interpret(system, script, solve):
    """Apply a mutation script to ``system``, calling ``solve()`` at each
    ``("solve",)`` step.  Scripts name constraints and variables by their
    creation index."""
    constraints, variables = [], []
    for op, *args in script:
        if op == "cns":
            capacity, shared = args
            constraints.append(system.new_constraint(capacity, shared=shared))
        elif op == "var":
            weight, bound, crossings = args
            var = system.new_variable(weight=weight, bound=bound)
            for index, usage in crossings:
                system.expand(constraints[index], var, usage)
            variables.append(var)
        elif op == "remove":
            system.remove_variable(variables[args[0]])
        elif op == "weight":
            system.update_variable_weight(variables[args[0]], args[1])
        elif op == "bound":
            system.update_variable_bound(variables[args[0]], args[1])
        elif op == "capacity":
            system.update_constraint_capacity(constraints[args[0]], args[1])
        else:
            assert op == "solve"
            solve()


def play(script, short_circuit):
    """Interpret a mutation script; return what every solve reported.

    ``short_circuit=False`` passes ``_subsolver=system._solve_subsystem``:
    the same filling, but every seed walks ``_component`` — the path the
    reference oracle takes.  Per solve the trace holds the changed ids,
    ``solve_grouped``'s groups, the four work counters (``golden.json``
    pins them, so equality is the contract), every value, and how many
    seeds walked the graph.
    """
    system = MaxMinSystem()
    trace = []
    walks = [0]
    component = system._component

    def counting_component(*args):
        walks[0] += 1
        return component(*args)

    def solve():
        walks[0] = 0
        changed, groups = system.solve_grouped(
            _subsolver=None if short_circuit else system._solve_subsystem)
        assert_matches_reference(system, use_reference_solver=True)
        trace.append(([var.id for var in changed], groups,
                      [getattr(system, name) for name in COUNTERS],
                      {var.id: var.value for var in system.variables},
                      walks[0]))

    system._component = counting_component
    interpret(system, script, solve)
    return trace


def assert_short_circuit_is_invisible(script):
    """Both paths report the same thing; returns the graph walks of each."""
    fast = play(script, short_circuit=True)
    general = play(script, short_circuit=False)
    assert [step[:4] for step in fast] == [step[:4] for step in general]
    return [step[4] for step in fast], [step[4] for step in general]


class TestComponentShortCircuit:
    """The shapes ``_solve_into`` recognises by inspection, and their
    neighbours that must keep walking the graph."""

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("bound", [None, 30.0, 400.0])
    def test_single_variable_constraint(self, shared, bound):
        script = [("cns", 100.0, shared), ("var", 2.0, bound, [(0, 1.5)]),
                  ("solve",), ("capacity", 0, 60.0), ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        assert fast == [0, 0] and general == [1, 1]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("offset", [-1.5e-9, -4e-10, 0.0, 4e-10, 1.5e-9])
    def test_bound_inside_the_near_tie_band(self, shared, offset):
        # Constraint level 100 / (2 * 5) = 10; the bound level lands
        # within (or just outside) EPSILON of it on either side.
        script = [("cns", 100.0, shared),
                  ("var", 5.0, (10.0 + offset) * 5.0, [(0, 2.0)]),
                  ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        assert fast == [0] and general == [1]

    def test_constraint_emptied_by_remove_variable(self):
        script = [("cns", 100.0, True), ("cns", 50.0, False),
                  ("var", 1.0, None, [(0, 1.0)]),
                  ("var", 1.0, None, [(1, 1.0)]), ("solve",),
                  ("remove", 0), ("remove", 1), ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        # Two empty seeds in one solve: counted, nothing to walk.
        assert fast == [0, 0] and general == [2, 2]
        assert play(script, True)[-1][1] == [(0, 0, 0), (1, 0, 0)]

    def test_zero_weight_single_variable_resets_to_zero(self):
        script = [("cns", 100.0, True), ("var", 1.0, None, [(0, 1.0)]),
                  ("solve",), ("weight", 0, 0.0), ("solve",),
                  ("weight", 0, 3.0), ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        assert fast == [0, 0, 0]
        values = [step[3][0] for step in play(script, True)]
        assert values == [100.0, 0.0, 100.0]

    def test_variable_crossing_a_second_constraint_walks_the_graph(self):
        script = [("cns", 100.0, True), ("cns", 80.0, True),
                  ("var", 1.0, None, [(0, 1.0), (1, 1.0)]), ("solve",),
                  ("capacity", 0, 60.0), ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        # One element on the seed, but its variable reaches further.
        assert fast == general == [1, 1]

    def test_zero_weight_bridge_to_a_second_constraint_walks_too(self):
        script = [("cns", 100.0, True), ("cns", 80.0, True),
                  ("var", 0.0, None, [(0, 1.0), (1, 1.0)]),
                  ("var", 1.0, None, [(1, 1.0)]), ("solve",),
                  ("capacity", 0, 60.0), ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        assert fast[1] == general[1] == 1

    def test_two_dirty_single_variable_seeds_in_one_solve(self):
        script = [("cns", 100.0, True), ("cns", 80.0, False),
                  ("cns", 10.0, True),
                  ("var", 1.0, None, [(0, 1.0)]),
                  ("var", 2.0, 20.0, [(1, 1.0)]),
                  ("var", 1.0, None, [(2, 1.0)]),
                  ("var", 1.0, None, [(2, 1.0)]), ("solve",),
                  ("capacity", 1, 70.0), ("capacity", 0, 90.0),
                  ("capacity", 2, 12.0), ("solve",)]
        fast, general = assert_short_circuit_is_invisible(script)
        # The two 1×1 seeds are taken by inspection, the shared pair walks.
        assert fast == [1, 1] and general == [3, 3]
        changed, groups = play(script, True)[-1][:2]
        assert groups == [(0, 0, 1), (1, 1, 1), (2, 1, 3)]
        assert changed == [0, 2, 3]


@st.composite
def sparse_system_script(draw):
    """Mutation scripts over mostly-private constraints: the fleet shape.

    Most variables cross one constraint nobody else uses (a host running
    one exec, a private link carrying one flow), so most dirty seeds are
    empty or 1×1; some share a constraint or cross a second one, so both
    sides of the by-inspection test stay exercised.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    num_constraints = draw(st.integers(min_value=1, max_value=8))
    num_rounds = draw(st.integers(min_value=1, max_value=10))
    script = [("cns", rng.uniform(1.0, 1000.0), rng.random() > 0.3)
              for _ in range(num_constraints)]
    live, created = [], 0

    def new_variable():
        nonlocal created
        first = rng.randrange(num_constraints)
        crossings = [(first, rng.uniform(0.5, 2.0))]
        if num_constraints > 1 and rng.random() < 0.2:
            second = rng.choice([i for i in range(num_constraints)
                                 if i != first])
            crossings.append((second, rng.uniform(0.5, 2.0)))
        weight = 0.0 if rng.random() < 0.15 else rng.uniform(0.1, 10.0)
        bound = rng.uniform(0.5, 500.0) if rng.random() < 0.4 else None
        live.append(created)
        created += 1
        return ("var", weight, bound, crossings)

    for _ in range(rng.randint(0, num_constraints)):
        script.append(new_variable())
    script.append(("solve",))
    for _ in range(num_rounds):
        # Up to three mutations between two solves: several dirty seeds.
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(5)
            if op == 0 and live:
                script.append(("weight", rng.choice(live), rng.choice(
                    [0.0, rng.uniform(0.1, 10.0)])))
            elif op == 1 and live:
                script.append(("bound", rng.choice(live), rng.choice(
                    [None, rng.uniform(0.5, 500.0)])))
            elif op == 2:
                script.append(("capacity", rng.randrange(num_constraints),
                               rng.uniform(1.0, 1000.0)))
            elif op == 3 and live:
                script.append(("remove",
                               live.pop(rng.randrange(len(live)))))
            else:
                script.append(new_variable())
        script.append(("solve",))
    return script


@settings(max_examples=80, derandomize=True, deadline=None)
@given(sparse_system_script())
def test_property_component_short_circuit_is_invisible(script):
    """Values vs the reference oracle; changed, groups and the four work
    counters vs the same system with the short-circuit disabled."""
    fast, general = assert_short_circuit_is_invisible(script)
    assert sum(fast) <= sum(general)


@st.composite
def one_variable_system(draw):
    """One variable on one constraint, drawn where the closed form of
    ``_solve_into`` has its edges: shared and fat-pipe constraints, zero
    and tiny capacities, usage and weight at and around EPSILON, and
    bounds inside the near-tie band of the capacity level, 1e-12 to 1e-7
    away (relative) or a few EPSILON away (absolute), on either side."""
    eps = lmm.EPSILON
    shared = draw(st.booleans())
    capacity = draw(st.sampled_from([0.0, 1e-12, eps, 3e-9, math.inf])
                    | st.floats(0.0, 1e9))
    usage = draw(st.sampled_from([1e-12, eps, 1.0000001e-9, 2e-9])
                 | st.floats(1e-3, 4.0))
    weight = draw(st.sampled_from([0.0, eps, 1.0000001e-9, 2e-9])
                  | st.floats(1e-3, 8.0))
    level = capacity / (usage * weight) if weight > eps else math.inf
    kind = draw(st.sampled_from(["none", "any", "relative", "absolute"]))
    if kind == "none":
        bound = None
    elif kind == "any" or not 0.0 < level < math.inf:
        bound = draw(st.sampled_from([0.0, 1e-10]) | st.floats(0.0, 1e9))
    elif kind == "relative":
        offset = draw(st.sampled_from([-1, 1])) * 10.0 ** draw(
            st.floats(-12.0, -7.0))
        bound = max(0.0, level * (1.0 + offset) * weight)
    else:
        offset = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        bound = max(0.0, (level + offset * eps) * weight)
    return shared, capacity, usage, weight, bound


def solve_one_variable(shape, general):
    """Solve a one-variable system three times (as built, at half its
    capacity, with the bound dropped) and report each solve exactly.
    ``general`` sends every solve through ``_solve_subsystem``."""
    shared, capacity, usage, weight, bound = shape
    system = MaxMinSystem()
    cns = system.new_constraint(capacity, shared=shared)
    var = system.new_variable(weight=weight, bound=bound)
    system.expand(cns, var, usage)
    reports = []
    for step in range(3):
        if step == 1:
            system.update_constraint_capacity(cns, capacity / 2.0)
        elif step == 2:
            system.update_variable_bound(var, None)
        changed = system.solve(
            _subsolver=system._solve_subsystem if general else None)
        reports.append(([v.id for v in changed], var.value.hex(),
                        [getattr(system, name) for name in COUNTERS],
                        system._token, var._stamp))
    return reports


@settings(max_examples=400, derandomize=True, deadline=None)
@given(one_variable_system())
def test_property_one_variable_closed_form_matches_solve_single(shape):
    """The closed form against ``_solve_single``, which a twin system's
    general path reaches through ``_solve_subsystem``: the same double to
    the bit, the same changed ids, the four counters and the token."""
    assert solve_one_variable(shape, general=False) \
        == solve_one_variable(shape, general=True)


# ----------------------------------------------------------------------------------
# the general path pinned to the bit: values, reports, counters, seq and token
# ----------------------------------------------------------------------------------

#: Recorded before the filling loop was fused into one frame; a solver
#: change that moves any of it changes what the solver computes.
GENERAL_PATH_PINS = pathlib.Path(__file__).with_name(
    "lmm_general_path_pins.json")


def waxman_script(seed, num_nodes=14, num_flows=48):
    """Multi-hop flows arriving and leaving on a Waxman graph.

    Links join a node chain (so the graph is connected) plus the pairs the
    Waxman rule draws; one link in eight is a fat pipe.  A flow follows
    the fewest-hop route and carries a window bound half the time.  With
    arrivals, departures and the odd capacity change interleaved, many
    solves re-fill one component spanning most links — the shape of the
    ``wan_contended`` benchmark workload.
    """
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    span = max(math.dist(p, q) for p in points for q in points)
    script, links = [], {}
    neighbours = {node: [] for node in range(num_nodes)}
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            near = 0.5 * math.exp(-math.dist(points[i], points[j])
                                  / (0.25 * span))
            if j == i + 1 or rng.random() < near:
                links[i, j] = links[j, i] = len(script)
                neighbours[i].append(j)
                neighbours[j].append(i)
                script.append(("cns", rng.uniform(1e7, 1e8),
                               rng.random() > 0.125))
    num_links = len(script)

    def route(src, dst):
        parent = {src: None}
        queue = [src]
        for node in queue:
            for nxt in neighbours[node]:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        hops = []
        while parent[dst] is not None:
            hops.append((links[parent[dst], dst], 1.0))
            dst = parent[dst]
        return hops

    live = []
    for flow in range(num_flows):
        bound = rng.uniform(2e6, 4e7) if rng.random() < 0.5 else None
        script.append(("var", rng.choice((1.0, 1.0, 2.0)), bound,
                       route(*rng.sample(range(num_nodes), 2))))
        live.append(flow)
        if len(live) > 20 and rng.random() < 0.6:
            script.append(("remove", live.pop(rng.randrange(len(live)))))
        if rng.random() < 0.1:
            script.append(("capacity", rng.randrange(num_links),
                           rng.uniform(1e7, 1e8)))
        script.append(("solve",))
    while live:
        script.append(("remove", live.pop(rng.randrange(len(live)))))
        script.append(("solve",))
    return script


#: Offsets from a common level, all inside the 2 × EPSILON near-tie band.
NEAR_TIE_OFFSETS = (-1.6e-9, -7e-10, -3e-10, 0.0, 2e-10, 6e-10, 1.1e-9,
                    1.9e-9)


def near_tie_script(seed):
    """Distinct saturation levels less than ``2 × EPSILON`` apart, across
    constraints and bounds.

    A chain of constraints, each with a private variable, consecutive
    ones bridged by a variable crossing both; capacities are scaled so
    every constraint's first level is ``base + offset``, and freezing one
    keeps its neighbours' next levels inside the band.  Bounds, capacity
    changes and suspended bridges land in the band too.
    """
    rng = random.Random(seed)
    base = rng.choice((1.0, 7.0, 40.0))
    num = rng.randint(3, 6)
    shared = [rng.random() > 0.25 for _ in range(num)]
    scale = [(1 + (k > 0) + (k < num - 1)) if shared[k] else 1
             for k in range(num)]

    def level():
        return base + rng.choice(NEAR_TIE_OFFSETS)

    script = [("cns", scale[k] * level(), shared[k]) for k in range(num)]
    for k in range(num):
        bound = level() if rng.random() < 0.3 else None
        script.append(("var", 1.0, bound, [(k, 1.0)]))
    for k in range(num - 1):
        script.append(("var", 1.0, None, [(k, 1.0), (k + 1, 1.0)]))
    script.append(("solve",))
    for _ in range(6):
        k = rng.randrange(num)
        op = rng.randrange(3)
        if op == 0:
            script.append(("capacity", k, scale[k] * level()))
        elif op == 1:
            script.append(("bound", k, rng.choice((None, level()))))
        elif num > 1:
            script.append(("weight", num + rng.randrange(num - 1),
                           rng.choice((0.0, 1.0))))
        script.append(("solve",))
    return script


def mixed_script(seed):
    """Shared and fat-pipe constraints, bounds, zero-weight and detached
    variables, through every kind of mutation."""
    rng = random.Random(seed)
    num_constraints = rng.randint(2, 7)
    script = [("cns", rng.uniform(1.0, 1000.0), rng.random() > 0.3)
              for _ in range(num_constraints)]
    live, created = [], 0

    def new_variable():
        nonlocal created
        weight = 0.0 if rng.random() < 0.15 else rng.uniform(0.1, 10.0)
        bound = rng.uniform(0.5, 500.0) if rng.random() < 0.4 else None
        crossings = [] if rng.random() < 0.12 else [
            (index, rng.uniform(0.5, 2.0)) for index in rng.sample(
                range(num_constraints), rng.randint(1, num_constraints))]
        live.append(created)
        created += 1
        return ("var", weight, bound, crossings)

    script.extend(new_variable() for _ in range(rng.randint(4, 14)))
    script.append(("solve",))
    for _ in range(10):
        op = rng.randrange(5)
        if op == 0:
            script.append(("weight", rng.choice(live),
                           rng.choice((0.0, rng.uniform(0.1, 10.0)))))
        elif op == 1:
            script.append(("bound", rng.choice(live),
                           rng.choice((None, rng.uniform(0.5, 500.0)))))
        elif op == 2:
            script.append(("capacity", rng.randrange(num_constraints),
                           rng.uniform(1.0, 1000.0)))
        elif op == 3 and len(live) > 1:
            script.append(("remove", live.pop(rng.randrange(len(live)))))
        else:
            script.append(new_variable())
        script.append(("solve",))
    return script


def cancellation_script(dominant, minor):
    """The running denominator cancels when a dominant term leaves.

    Variable 0 crosses constraint 0 with usage ``dominant`` and freezes
    first through a tiny bound; ``fl(dominant + minor) - dominant`` is
    then 0.0 (a resync) or an approximate sum that exactification keeps
    or drops on the ``EPSILON`` threshold.  Variable 1 bridges to a
    second constraint so the component takes the general path.
    """
    return [("cns", 1e3, True), ("cns", 1e15, True),
            ("var", 1.0, 1e-12, [(0, dominant)]),
            ("var", 1.0, None, [(0, minor), (1, 1.0)]),
            ("var", 1.0, None, [(1, 1.0)]), ("solve",),
            ("capacity", 0, 2e3), ("solve",),
            ("bound", 0, 2e-12), ("solve",),
            ("capacity", 1, 40.0), ("solve",)]


#: Hand-built systems for the filling branches the generated scripts never
#: enter.  Usages of 3e-10 sum to a denominator below ``EPSILON``: the
#: solver counts such a variable as consuming nothing.
EDGE_SCRIPTS = {
    # One shared constraint.  Variable 0's bound freezes first; the running
    # denominator left behind (about 6e-10) puts the constraint's level
    # below variable 2's bound, so it is exactified at surfacing time and
    # found below EPSILON.  Variable 2 then freezes at its bound, the next
    # running denominator cancels to a resync, and variable 1 is left to
    # the unconstrained tail.  Without variable 2's bound, the surfacing
    # exactification leaves no candidate at all.
    "edge-single-surfaces-below-epsilon": [
        ("cns", 1.000001, True),
        ("var", 1.0, 1.0, [(0, 1.0)]),
        ("var", 1.0, None, [(0, 3e-10)]),
        ("var", 1.0, 5000.0, [(0, 3e-10)]), ("solve",),
        ("bound", 2, None), ("solve",),
        ("remove", 0), ("solve",)],
    # One shared constraint whose approximate level (9.0, after variable
    # 0's bound froze) lands inside the near-tie band above variable 1's
    # bound: it is exactified there and re-ranked with the bound, which
    # loses (0.5e-9 below) and then wins (1.5e-9 below).
    "edge-single-band-exactified": [
        ("cns", 10.0, True),
        ("var", 1.0, 1.0, [(0, 1.0)]),
        ("var", 1.0, 9.0 - 5e-10, [(0, 1.0)]), ("solve",),
        ("bound", 1, 9.0 - 1.5e-9), ("solve",)],
    # One fat pipe.  Variable 0's bound freezes it below its own fat-pipe
    # level, which then heads the level list stale; variable 2's bound
    # level times its weight rounds above the bound (2.9 / (2/3) * (2/3)
    # is 2.9000000000000004), so the freeze clamps it back.
    "edge-single-fat-skips-frozen": [
        ("cns", 10.0, False),
        ("var", 1.0, 1.0, [(0, 4.0)]),
        ("var", 1.0, None, [(0, 2.0)]),
        ("var", 2.0 / 3.0, 2.9, [(0, 1.0)]), ("solve",),
        ("capacity", 0, 20.0), ("solve",)],
    # Two constraints, so the heap-driven filling: variable 0's usages are
    # below EPSILON everywhere, so once variable 1's bound has frozen it
    # the heap runs dry and variable 0 goes to the unconstrained tail.
    "edge-filling-unconstrained-tail": [
        ("cns", 10.0, True), ("cns", 10.0, False),
        ("var", 1.0, None, [(0, 1e-12), (1, 1e-12)]),
        ("var", 1.0, 2.0, [(0, 1.0), (1, 1.0)]), ("solve",),
        ("remove", 1), ("solve",)],
}


GENERAL_PATH_CORPUS = {
    **EDGE_SCRIPTS,
    **{f"waxman-{seed}": waxman_script(seed) for seed in range(3)},
    **{f"near-tie-{seed}": near_tie_script(seed) for seed in range(12)},
    **{f"mixed-{seed}": mixed_script(seed) for seed in range(12)},
    **{f"cancel-{dominant:g}-{minor:g}": cancellation_script(dominant, minor)
       for dominant, minor in ((1e9, 1e-8), (1e9, 1e-9), (1e9, 3e-10),
                               (1.0, 1.2e-9), (1.0, 7e-10),
                               (1.0, 3e-10))},
}


def pin_trace(script):
    """What every solve of ``script`` reported, exactly: the changed ids,
    the groups, the four counters, ``_seq`` and ``_token``, and a digest
    of every variable's ``float.hex`` value."""
    system = MaxMinSystem()
    trace = []

    def solve():
        changed, groups = system.solve_grouped()
        values = " ".join(f"{var.id}:{var.value.hex()}"
                          for var in system.variables)
        trace.append({
            "changed": [var.id for var in changed],
            "groups": [list(group) for group in groups],
            "counters": [getattr(system, name) for name in COUNTERS]
                        + [system._seq, system._token],
            "values": hashlib.sha256(values.encode()).hexdigest()[:16],
        })

    interpret(system, script, solve)
    return trace


@pytest.mark.parametrize("name", sorted(GENERAL_PATH_CORPUS))
def test_general_path_is_pinned_to_the_bit(name):
    """Every solve of the corpus reports exactly what was recorded."""
    pinned = json.loads(GENERAL_PATH_PINS.read_text())[name]
    trace = pin_trace(GENERAL_PATH_CORPUS[name])
    assert len(trace) == len(pinned)
    for step, (got, want) in enumerate(zip(trace, pinned)):
        assert got == want, f"solve {step}"


def test_general_path_pins_cover_the_corpus():
    """The pins hold exactly the corpus, and the Waxman scripts re-fill
    components spanning most of their links (15 or more constraints)."""
    pins = json.loads(GENERAL_PATH_PINS.read_text())
    assert sorted(pins) == sorted(GENERAL_PATH_CORPUS)
    for name in ("waxman-0", "waxman-1", "waxman-2"):
        solved = [step["counters"][0] for step in pins[name]]
        assert max(b - a for a, b in zip(solved, solved[1:])) >= 15


def test_the_pinned_corpus_enters_every_line_of_the_filling():
    """No branch of either filling path runs unpinned.

    A ``sys.settrace`` hook, limited to the two filling frames of
    ``repro/surf/lmm.py`` and reading no clock, records the lines the
    corpus enters.  Every executable line of ``_solve_single`` and
    ``_progressive_filling`` (from ``co_lines()``, the ``def`` line
    aside) must be among them.
    """
    entered = {MaxMinSystem._solve_single.__code__: set(),
               MaxMinSystem._progressive_filling.__code__: set()}

    def trace_lines(frame, event, arg):
        if event == "line":
            entered[frame.f_code].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code in entered else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for name in sorted(GENERAL_PATH_CORPUS):
            pin_trace(GENERAL_PATH_CORPUS[name])
    finally:
        sys.settrace(previous)
    for code, lines in entered.items():
        executable = {line for _, _, line in code.co_lines()
                      if line is not None}
        missed = sorted(executable - lines - {code.co_firstlineno})
        assert not missed, f"{code.co_name} never enters lines {missed}"


class TestFillingLoopIsOneFrame:
    """A general-path sub-solve runs its rounds in one Python frame.

    Counted with ``sys.setprofile``, no clock: the frames entered from
    ``repro/surf/lmm.py`` during one solve must not grow with the number
    of filling rounds.  Comprehension frames are not counted (Python
    3.10/3.11 give them one, 3.12 inlines them).
    """

    COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

    def frames_of_one_solve(self, num_flows):
        # One shared link and a private access link per flow, most access
        # links below the fair share: one component, ~one round per flow.
        rng = random.Random(5)
        system = MaxMinSystem()
        backbone = system.new_constraint(1e9)
        for flow in range(num_flows):
            access = system.new_constraint(
                1e9 / num_flows * rng.uniform(0.2, 1.5))
            bound = 1e9 / num_flows * rng.uniform(0.2, 1.5) \
                if flow % 3 == 0 else None
            var = system.new_variable(weight=rng.uniform(0.5, 2.0),
                                      bound=bound)
            system.expand(backbone, var)
            system.expand(access, var, rng.uniform(0.5, 2.0))
        frames = {}

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_filename == lmm.__file__
                    and code.co_name not in self.COMPREHENSIONS):
                frames[code.co_name] = frames.get(code.co_name, 0) + 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            system.solve()
        finally:
            sys.setprofile(previous)
        return frames, system.heap_pops

    def test_frames_do_not_grow_with_rounds(self):
        small, small_pops = self.frames_of_one_solve(50)
        large, large_pops = self.frames_of_one_solve(200)
        assert large_pops > 3 * small_pops     # ~4x the rounds ...
        assert large == small                  # ... in the same frames
        assert small["_progressive_filling"] == 1


# ----------------------------------------------------------------------------------
# complexity counters: dense bottleneck stays near-linear (wall-clock-free)
# ----------------------------------------------------------------------------------

def dense_bottleneck_system(num_variables, seed=11):
    """One shared constraint crossed by N variables, most with a distinct
    bound below fair share — progressive filling freezes them one round at
    a time (the star/master-worker saturation shape)."""
    rng = random.Random(seed)
    system = MaxMinSystem()
    bottleneck = system.new_constraint(1e9)
    fair_share = 1e9 / num_variables
    for i in range(num_variables):
        bound = fair_share * rng.uniform(0.05, 0.95) if i % 8 else None
        var = system.new_variable(weight=rng.uniform(0.5, 2.0), bound=bound)
        system.expand(bottleneck, var, rng.uniform(0.5, 2.0))
    return system


class TestSolverComplexityCounters:
    def test_elements_visited_scales_linearly_on_dense_bottleneck(self):
        """4x the component size must cost ~4x the element visits.

        Counter-based (no wall clock), so it is CI-stable: the incremental
        solver's ``elements_visited`` grows linearly with a log-factor
        slack; a rescanning regression would grow it ~16x here.
        """
        small = dense_bottleneck_system(200)
        small.solve()
        large = dense_bottleneck_system(800)
        large.solve()
        assert large.elements_visited / small.elements_visited < 8.0
        assert large.heap_pops / small.heap_pops < 8.0

    def test_reference_solver_is_quadratic_on_dense_bottleneck(self):
        """The preserved reference shows the contrast on the same shape."""
        small = dense_bottleneck_system(200)
        solve_reference(small)
        large = dense_bottleneck_system(800)
        solve_reference(large)
        assert large.elements_visited / small.elements_visited > 10.0

    def test_dense_bottleneck_values_bitwise_equal_to_reference(self):
        """Same bottleneck selection => bit-identical frozen values."""
        incremental = dense_bottleneck_system(800)
        incremental.solve()
        reference = dense_bottleneck_system(800)
        solve_reference(reference)
        for a, b in zip(incremental.variables, reference.variables):
            assert a.value == b.value, f"var {a.id}"

    def test_cancelled_running_sum_does_not_drop_binding_constraint(self):
        """Catastrophic cancellation of the running denominator.

        ``fl(1e9 + 1e-8) == 1e9``: once the dominant variable freezes via
        its bound, the running sum cancels to exactly 0.0, but the exact
        denominator over the remaining element is 1e-8 — the constraint
        still binds the second variable, which must not be assigned inf.
        """
        system = MaxMinSystem()
        cns = system.new_constraint(1e3)
        a = system.new_variable(bound=1e-12)
        b = system.new_variable()
        system.expand(cns, a, usage=1e9)
        system.expand(cns, b, usage=1e-8)
        system.solve()
        assert system.check_feasible()
        expected = reference_values(system, use_reference_solver=True)
        assert a.value == expected[a.id]
        assert b.value == expected[b.id]
        assert not math.isinf(b.value)


# ----------------------------------------------------------------------------------
# clean systems skip the solve entirely
# ----------------------------------------------------------------------------------

class TestSolveSkipsWhenClean:
    def test_second_solve_is_skipped(self):
        system = MaxMinSystem()
        link = system.new_constraint(100.0)
        var = system.new_variable()
        system.expand(link, var)
        changed = system.solve()
        assert var in changed
        before = system.solve_skipped
        assert system.solve() == []
        assert system.solve_skipped == before + 1
        assert var.value == pytest.approx(100.0)

    def test_noop_updates_do_not_dirty(self):
        system = MaxMinSystem()
        link = system.new_constraint(100.0)
        var = system.new_variable(bound=50.0)
        system.expand(link, var)
        system.solve()
        system.update_variable_weight(var, 1.0)     # unchanged
        system.update_variable_bound(var, 50.0)     # unchanged
        system.update_constraint_capacity(link, 100.0)  # unchanged
        before = system.solve_skipped
        assert system.solve() == []
        assert system.solve_skipped == before + 1

    def test_disjoint_component_not_resolved(self):
        system = MaxMinSystem()
        link_a = system.new_constraint(100.0)
        link_b = system.new_constraint(80.0)
        var_a = system.new_variable()
        var_b = system.new_variable()
        system.expand(link_a, var_a)
        system.expand(link_b, var_b)
        system.solve()
        baseline = system.variables_solved
        # Touching link_a's component must not re-visit link_b's.
        system.update_constraint_capacity(link_a, 60.0)
        changed = system.solve()
        assert changed == [var_a]
        assert system.variables_solved == baseline + 1
        assert var_a.value == pytest.approx(60.0)
        assert var_b.value == pytest.approx(80.0)

    def test_zero_weight_variable_does_not_bridge_components(self):
        system = MaxMinSystem()
        link_a = system.new_constraint(100.0)
        link_b = system.new_constraint(80.0)
        bridge = system.new_variable(weight=0.0)
        system.expand(link_a, bridge)
        system.expand(link_b, bridge)
        var_b = system.new_variable()
        system.expand(link_b, var_b)
        system.solve()
        baseline = system.constraints_solved
        system.update_constraint_capacity(link_a, 60.0)
        system.solve()
        # Only link_a visited: the zero-weight bridge does not propagate.
        assert system.constraints_solved == baseline + 1
        assert var_b.value == pytest.approx(80.0)


# ----------------------------------------------------------------------------------
# O(1) element removal keeps the incidence structure consistent
# ----------------------------------------------------------------------------------

def test_swap_pop_removal_keeps_constraint_elements_consistent():
    system = MaxMinSystem()
    link = system.new_constraint(100.0)
    variables = [system.new_variable() for _ in range(6)]
    for var in variables:
        system.expand(link, var)
    # Remove from the middle, the front and the back.
    for victim in (variables[2], variables[0], variables[5]):
        system.remove_variable(victim)
        for pos, elem in enumerate(link.elements):
            assert elem._cpos == pos
            assert elem in elem.variable.elements
    system.solve()
    survivors = [variables[1], variables[3], variables[4]]
    for var in survivors:
        assert var.value == pytest.approx(100.0 / 3.0)


# ----------------------------------------------------------------------------------
# lazy action management: suspend to weight 0 and back mid-flight
# ----------------------------------------------------------------------------------

class TestWeightZeroRoundTrip:
    def test_cpu_action_suspend_resume_completion_date(self):
        """2 Gflop at 1 Gflop/s, frozen during [1, 3]: finishes at 4 s."""
        engine = SurfEngine()
        cpu = engine.cpu_model.add_cpu("h", speed=1e9)
        action = engine.cpu_model.execute(cpu, 2e9)

        result = engine.step(until=1.0)
        assert result.reached_bound and result.time == pytest.approx(1.0)
        action.suspend()
        assert action.remaining == pytest.approx(1e9)

        result = engine.step(until=3.0)
        assert result.reached_bound and result.time == pytest.approx(3.0)
        # No progress while suspended.
        assert action.remaining == pytest.approx(1e9)
        action.resume()

        result = engine.step()
        assert result.time == pytest.approx(4.0)
        assert action in result.completed

    def test_lmm_weight_zero_and_back_restores_share(self):
        system = MaxMinSystem()
        link = system.new_constraint(100.0)
        a = system.new_variable()
        b = system.new_variable()
        system.expand(link, a)
        system.expand(link, b)
        system.solve()
        assert a.value == pytest.approx(50.0)
        system.update_variable_weight(a, 0.0)
        changed = system.solve()
        assert set(changed) == {a, b}
        assert a.value == 0.0
        assert b.value == pytest.approx(100.0)
        system.update_variable_weight(a, 1.0)
        system.solve()
        assert a.value == pytest.approx(50.0)
        assert b.value == pytest.approx(50.0)


# ----------------------------------------------------------------------------------
# lazy progress extrapolation stays observable mid-flight
# ----------------------------------------------------------------------------------

def test_remaining_extrapolates_between_events():
    engine = SurfEngine()
    cpu = engine.cpu_model.add_cpu("h", speed=1e9)
    action = engine.cpu_model.execute(cpu, 4e9)
    engine.step(until=1.0)
    # No event fired for the action itself, yet its observable progress
    # must reflect the elapsed simulated time.
    assert action.remaining == pytest.approx(3e9)
    engine.step(until=2.0)
    assert action.remaining == pytest.approx(2e9)


def test_network_transfer_remaining_during_and_after_latency():
    model = NetworkModel()
    link = model.add_link("l", bandwidth=1e6, latency=0.5)
    action = model.communicate([link], size=1e6)
    model.share_resources(0.0)
    assert action.remaining == pytest.approx(1e6)  # latency: no bytes yet
    model.update_actions_state(0.5, 0.5)
    delta = model.share_resources(0.5)
    assert delta == pytest.approx(1.0)
    done = model.update_actions_state(1.5, 1.0)
    assert done == [action]


def test_cpu_model_has_no_sleep_pseudo_action():
    """Sleeps go through the engine timer queue, not the CPU model."""
    assert not hasattr(CpuModel, "sleep")


if __name__ == "__main__":
    # Re-record the general-path pins, one solve per line.  Only at a commit
    # whose solver output is trusted; run from the repository root with
    # ``PYTHONPATH=src python tests/test_lmm_lazy.py``.
    entries = []
    for name in sorted(GENERAL_PATH_CORPUS):
        steps = ",\n".join(f"  {json.dumps(step)}"
                           for step in pin_trace(GENERAL_PATH_CORPUS[name]))
        entries.append(f"{json.dumps(name)}: [\n{steps}\n]")
    GENERAL_PATH_PINS.write_text("{\n" + ",\n".join(entries) + "\n}\n")
