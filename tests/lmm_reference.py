"""Reference progressive filling: the executable specification of the LMM solver.

The pre-incremental algorithm rescans every constraint's elements at every
round — O(rounds × constraints × elements) — and is kept here verbatim as
the oracle the equivalence suites compare
:class:`repro.surf.lmm.MaxMinSystem` against.  It reaches a system through
the solver's ``_subsolver=`` hook, so the shipped solver carries no second
algorithm, and it bumps the same work counters (the complexity tests
contrast its quadratic ``elements_visited`` with the incremental one's).
"""

import functools
import math
from typing import Dict, List, Optional

from repro.surf.lmm import EPSILON, Constraint, MaxMinSystem, Variable


def solve_reference(system: MaxMinSystem) -> List[Variable]:
    """Force a from-scratch solve of ``system`` with the reference filling."""
    system._modified.update(c for c in system.constraints if c.elements)
    system._detached_dirty.update(v for v in system.variables
                                  if not v.elements)
    return system.solve(
        _subsolver=functools.partial(_solve_subsystem_reference, system))


def _solve_subsystem_reference(system: MaxMinSystem, cnss: List[Constraint],
                               variables: List[Variable],
                               changed: List[Variable]) -> None:
    """Reference progressive filling: per-round full rescans."""
    system.constraints_solved += len(cnss)
    system.variables_solved += len(variables)
    old_values = [var.value for var in variables]

    active: List[Variable] = []
    for var in variables:
        if var.weight <= EPSILON or not var.elements:
            if var.weight <= EPSILON:
                var.value = 0.0
            else:
                var.value = var.bound if var.bound is not None else math.inf
        else:
            var.value = 0.0
            active.append(var)

    remaining: Dict[int, float] = {c.id: c.capacity for c in cnss}
    unassigned = set(id(v) for v in active)

    # Guard: at most one round per variable (each round freezes >= 1 var).
    for _round in range(len(active) + 1):
        if not unassigned:
            break

        # 1. candidate level from each constraint
        best_level = math.inf
        best_constraint: Optional[Constraint] = None
        for cns in cnss:
            level = _constraint_level(system, cns, remaining[cns.id],
                                      unassigned)
            if level is not None and level < best_level - EPSILON:
                best_level = level
                best_constraint = cns

        # 2. candidate level from each still-unassigned bounded variable
        best_bound_var: Optional[Variable] = None
        for var in active:
            if id(var) not in unassigned or var.bound is None:
                continue
            level = var.bound / var.weight
            if level < best_level - EPSILON:
                best_level = level
                best_constraint = None
                best_bound_var = var

        if best_level is math.inf:
            # No constraint limits the remaining variables: they are only
            # limited by their bounds (handled above) or unbounded.
            for var in active:
                if id(var) in unassigned:
                    var.value = (var.bound if var.bound is not None
                                 else math.inf)
                    unassigned.discard(id(var))
            break

        if best_bound_var is not None:
            frozen = [best_bound_var]
        else:
            assert best_constraint is not None
            frozen = [v for v in best_constraint.variables
                      if id(v) in unassigned]

        for var in frozen:
            value = best_level * var.weight
            if var.bound is not None:
                value = min(value, var.bound)
            var.value = value
            unassigned.discard(id(var))
            system.elements_visited += len(var.elements)
            # subtract consumption from every shared constraint crossed
            for elem in var.elements:
                if elem.constraint.shared:
                    remaining[elem.constraint.id] = max(
                        0.0,
                        remaining[elem.constraint.id] - elem.usage * value,
                    )

    for var, old in zip(variables, old_values):
        if var.value != old:
            changed.append(var)


def _constraint_level(system: MaxMinSystem, cns: Constraint,
                      remaining: float, unassigned) -> Optional[float]:
    """Saturation level of ``cns`` for its still-unassigned variables.

    Returns ``None`` when no unassigned variable crosses the constraint.
    """
    system.elements_visited += len(cns.elements)
    if cns.shared:
        denom = 0.0
        found = False
        for elem in cns.elements:
            if id(elem.variable) in unassigned:
                denom += elem.usage * elem.variable.weight
                found = True
        if not found or denom <= EPSILON:
            return None
        return max(0.0, remaining) / denom
    # Fat-pipe: each variable is individually limited to capacity/usage,
    # i.e. level = capacity / (usage * weight); the constraint behaves as
    # a per-variable bound, so the level is the smallest of those.
    best = None
    for elem in cns.elements:
        if id(elem.variable) in unassigned and elem.usage > EPSILON:
            level = cns.capacity / (elem.usage * elem.variable.weight)
            if best is None or level < best:
                best = level
    return best
