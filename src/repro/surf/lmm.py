"""Linear MaxMin (LMM) solver — the resource-sharing core of SURF.

The paper states the unifying model:

    *Consider a set of resources R and a set of "tasks" T; each task is
    defined as the subset of R it uses.  SURF uses the unifying MaxMin
    Fairness model: allocate as much capacity to all tasks in a way that
    maximizes the minimum capacity allocation over all tasks.*

This module implements that model as a *linear max-min* system, following
the structure of SimGrid's ``lmm`` solver:

* a :class:`Constraint` represents one resource (a CPU, a network link) with
  a finite capacity;
* a :class:`Variable` represents one activity (a computation, a TCP flow)
  with a *sharing weight* (priority) and an optional *rate bound*;
* an *element* links a variable to a constraint with a usage coefficient
  (how much of the resource one unit of the variable's rate consumes).

Solving the system assigns to every variable ``i`` a rate ``x_i`` such that

* for every shared constraint ``c``:  ``sum_i usage(i, c) * x_i <= C_c``;
* for every non-shared ("fat-pipe") constraint ``c``:
  ``max_i usage(i, c) * x_i <= C_c``;
* for every bounded variable:  ``x_i <= bound_i``;
* the allocation is weighted-max-min fair: the rate vector
  ``(x_i / w_i)`` sorted increasingly is lexicographically maximal.

The solver uses the classic *progressive filling* (a.k.a. water-filling)
algorithm: repeatedly find the bottleneck — the constraint or bound that
limits the common normalised rate the most — freeze the variables it
saturates at that level, subtract their consumption from every other
constraint, and continue with the rest.

Selective ("lazy") updates
--------------------------

The engine re-solves the system after every simulated event, but a single
event (an action completing, a capacity trace firing, a priority change)
only perturbs the resources it touches.  The system therefore tracks the
set of *modified constraints*; :meth:`MaxMinSystem.solve`

* returns immediately when nothing was modified since the last solve;
* otherwise re-runs progressive filling only on the connected component(s)
  of the constraint/variable graph reachable from the modified constraints
  (zero-weight variables do not propagate contention, so they do not merge
  components);
* returns the list of variables whose value actually changed, so the
  models can recompute completion dates for those actions alone.

Variables of untouched components keep their previous values, which is
exactly what a full solve would assign them: in max-min progressive
filling, disjoint components never interact.

Incremental progressive filling
-------------------------------

Inside one (dirty) component, the naive filling rescans every element of
every constraint at every round — O(rounds × constraints × elements),
quadratic-plus on dense components (many flows sharing one bottleneck
link, the master/worker saturation shape).  :meth:`_solve_subsystem`
instead keeps running per-constraint aggregates and a candidate heap, for
a total of O(E log C) work per sub-solve:

* every shared constraint carries a running ``remaining`` capacity and a
  running ``sum(usage × weight)`` over its still-unassigned variables,
  both updated in O(crossed constraints) when a variable freezes;
* every fat-pipe constraint carries a lazy-deletion min-heap of its
  (static) per-element saturation levels;
* candidate saturation levels live in one version-stamped lazy-deletion
  heap (the same invalidation trick :class:`~repro.surf.model.FluidModel`
  uses for its completion-event heap): mutating a constraint bumps its
  version and pushes a fresh entry, stale entries are dropped when they
  surface;
* bounded variables sit in the same heap through static ``bound/weight``
  entries;
* membership of the shrinking "still unassigned" set is a per-variable
  round-stamp integer compare, not an ``id()``-hash set.

Tie-breaking is preserved exactly: heap entries order equal levels by
*scan rank* (constraints in creation order first, then bounds in variable
creation order) — the order the reference rescanning loop visits them —
and before a winner is crowned, every candidate within the reference
EPSILON slack of it is re-ranked with the reference acceptance rule on
exactly recomputed levels.  A shared constraint's running sum is used only
to *order* the heap; the level that actually freezes variables is always
recomputed with the reference summation (fresh pass over the unassigned
elements, in element order), so the assigned values are bit-identical to
the reference algorithm whenever the same bottleneck is selected — which
is always, except for adversarial systems holding *distinct* saturation
levels less than ``2 × EPSILON`` apart (continuous inputs never do).

The pre-existing rescanning algorithm is not shipped: it lives verbatim in
the test suite (``tests/lmm_reference.py``), the executable specification
the equivalence tests compare this solver against through the
``_subsolver=`` hook of :meth:`MaxMinSystem.solve`.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["MaxMinSystem", "Variable", "Constraint", "Element"]

#: Numerical tolerance used throughout the solver.
EPSILON = 1e-9

#: Candidate-heap entry kinds (index 4 of an entry tuple).
_SHARED, _FATPIPE, _BOUND = 0, 1, 2

#: Sort keys: creation id, and the scan rank of a candidate entry.
_BY_ID = attrgetter("id")
_BY_RANK = itemgetter(1)


class Element:
    """One (variable, constraint) incidence with its usage coefficient."""

    __slots__ = ("variable", "constraint", "usage", "_cpos")

    def __init__(self, variable: "Variable", constraint: "Constraint",
                 usage: float) -> None:
        self.variable = variable
        self.constraint = constraint
        self.usage = usage
        # Index of this element inside ``constraint.elements`` so removal is
        # a swap-pop instead of a linear scan.
        self._cpos = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Element(var={self.variable.id}, cns={self.constraint.id}, "
                f"usage={self.usage})")


class Variable:
    """An activity competing for resources.

    Parameters
    ----------
    weight:
        Sharing weight (SimGrid calls it the *priority*).  A weight of zero
        means the activity is suspended and receives no capacity at all.
        Larger weights receive proportionally larger shares.
    bound:
        Optional upper bound on the rate (e.g. the TCP window bound
        ``W / RTT`` applied by the network model).  ``None`` means unbounded.
    data:
        Opaque back-pointer for the caller (usually the owning Action).
    """

    __slots__ = ("id", "weight", "bound", "value", "elements", "data",
                 "_stamp")

    def __init__(self, vid: int, weight: float = 1.0,
                 bound: Optional[float] = None, data=None) -> None:
        if weight < 0:
            raise ValueError("variable weight must be >= 0")
        if bound is not None and bound < 0:
            raise ValueError("variable bound must be >= 0 or None")
        self.id = vid
        self.weight = float(weight)
        self.bound = None if bound is None else float(bound)
        self.value = 0.0
        self.elements: List[Element] = []
        self.data = data
        # Round stamp: equals the owning system's solve token while the
        # variable is still unassigned inside a sub-solve (cheaper than an
        # ``id()``-hash membership set on the hot path).
        self._stamp = 0

    # -- introspection helpers -------------------------------------------------
    @property
    def constraints(self) -> List["Constraint"]:
        """Constraints this variable crosses."""
        return [e.constraint for e in self.elements]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Variable(id={self.id}, weight={self.weight}, "
                f"bound={self.bound}, value={self.value:.6g})")


class Constraint:
    """A resource with finite capacity shared by several variables.

    Parameters
    ----------
    capacity:
        The resource capacity (flop/s for a CPU, byte/s for a link).
    shared:
        If ``True`` (default) the capacity is *shared*: the sum of the
        usages may not exceed the capacity (a regular link or CPU).  If
        ``False`` the resource is a *fat pipe*: each crossing variable may
        individually use up to the capacity (used to model backbone links
        or switches that are never the bottleneck).
    data:
        Opaque back-pointer (usually the owning Resource).
    """

    __slots__ = ("id", "capacity", "shared", "elements", "data",
                 "_rem", "_denom", "_live", "_ver", "_rank", "_fat")

    def __init__(self, cid: int, capacity: float, shared: bool = True,
                 data=None) -> None:
        if capacity < 0:
            raise ValueError("constraint capacity must be >= 0")
        self.id = cid
        self.capacity = float(capacity)
        self.shared = bool(shared)
        self.elements: List[Element] = []
        self.data = data
        # Working state of the incremental progressive filling, valid only
        # inside one sub-solve (see _solve_subsystem):
        self._rem = 0.0      # running remaining capacity (shared only)
        self._denom = 0.0    # running sum(usage * weight) over unassigned
        self._live = 0       # count of still-unassigned crossing variables
        self._ver = 0        # version stamp invalidating heap entries
        self._rank = 0       # scan rank (position in the component's order)
        self._fat: List[Tuple[float, int, "Variable"]] = []  # fat-pipe levels

    @property
    def variables(self) -> List[Variable]:
        """Variables crossing this constraint."""
        return [e.variable for e in self.elements]

    def usage_total(self) -> float:
        """Current total consumption given the solved variable values."""
        if self.shared:
            return sum(e.usage * e.variable.value for e in self.elements)
        if not self.elements:
            return 0.0
        return max(e.usage * e.variable.value for e in self.elements)

    # -- element bookkeeping (O(1) attach/detach) ------------------------------
    def _attach(self, elem: Element) -> None:
        elem._cpos = len(self.elements)
        self.elements.append(elem)

    def _detach(self, elem: Element) -> None:
        pos = elem._cpos
        last = self.elements[-1]
        self.elements[pos] = last
        last._cpos = pos
        self.elements.pop()
        elem._cpos = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Constraint(id={self.id}, capacity={self.capacity}, "
                f"shared={self.shared}, nvars={len(self.elements)})")


class MaxMinSystem:
    """A complete linear max-min system.

    Typical usage::

        system = MaxMinSystem()
        link = system.new_constraint(capacity=1e9)           # 1 Gb/s link
        flow1 = system.new_variable(weight=1.0)
        flow2 = system.new_variable(weight=1.0)
        system.expand(link, flow1, 1.0)
        system.expand(link, flow2, 1.0)
        system.solve()
        assert flow1.value == flow2.value == 0.5e9
    """

    def __init__(self) -> None:
        self._vars: Dict[int, Variable] = {}
        self.constraints: List[Constraint] = []
        self._next_var_id = 0
        self._next_cns_id = 0
        # Optional shared variable-id allocator (an ``itertools.count``):
        # the sharded kernel sets the same allocator on every shard's
        # system so variable creation order — and therefore every
        # id-based tie-break — is global, exactly like a single flat
        # system would number them.
        self._var_ids = None
        # Vestige, never read: perfbench's golden.json pins the snapshot
        # blob size; goes at the next benchmark re-gold.
        self.executor = None
        # Constraints whose incidence, capacity or crossing-variable
        # weights/bounds changed since the last solve.
        self._modified: Set[Constraint] = set()
        # Variables with no element whose value needs a (re)computation.
        self._detached_dirty: Set[Variable] = set()
        # Round stamp handed to the variables of the running sub-solve and
        # tie-break sequence for candidate-heap entries.
        self._token = 0
        self._seq = 0
        # Observability counters (read by benchmarks and tests).
        self.solve_calls = 0          # solve() invocations, incl. skipped
        self.solve_skipped = 0        # clean early-returns
        self.constraints_solved = 0   # constraints visited by sub-solves
        self.variables_solved = 0     # variables re-assigned by sub-solves
        self.elements_visited = 0     # (var, cns) incidences touched solving
        self.heap_pops = 0            # candidate-heap pops (incl. stale)

    @property
    def variables(self) -> List[Variable]:
        """Live variables, in creation order."""
        return list(self._vars.values())

    @property
    def _dirty(self) -> bool:
        """True when the next solve() has work to do (kept for introspection)."""
        return bool(self._modified or self._detached_dirty)

    # -- construction -----------------------------------------------------------
    def new_variable(self, weight: float = 1.0,
                     bound: Optional[float] = None, data=None) -> Variable:
        """Create and register a new variable."""
        if self._var_ids is not None:
            vid = next(self._var_ids)
        else:
            vid = self._next_var_id
        self._next_var_id = vid + 1
        var = Variable(vid, weight, bound, data)
        self._vars[vid] = var
        self._detached_dirty.add(var)
        return var

    def new_constraint(self, capacity: float, shared: bool = True,
                       data=None, cid: Optional[int] = None) -> Constraint:
        """Create and register a new constraint.

        ``cid`` optionally pins the constraint id.  Ids drive every
        tie-break in the solver, so callers that materialize resources in
        a non-deterministic or on-demand order (the lazy platform
        realization, the sharded kernel) pass the resource's declaration
        index here to keep solved values independent of creation order.
        """
        if cid is None:
            cid = self._next_cns_id
        if cid + 1 > self._next_cns_id:
            self._next_cns_id = cid + 1
        cns = Constraint(cid, capacity, shared, data)
        self.constraints.append(cns)
        return cns

    def expand(self, constraint: Constraint, variable: Variable,
               usage: float = 1.0) -> None:
        """Declare that ``variable`` consumes ``usage`` of ``constraint``.

        Calling :meth:`expand` twice for the same pair accumulates the usage
        (matching SimGrid's ``lmm_expand_add``), which is what a route that
        crosses the same physical link twice needs.
        """
        if usage < 0:
            raise ValueError("usage must be >= 0")
        if usage == 0:
            return
        self._detached_dirty.discard(variable)
        for elem in variable.elements:
            if elem.constraint is constraint:
                elem.usage += usage
                self._modified.add(constraint)
                return
        elem = Element(variable, constraint, usage)
        variable.elements.append(elem)
        constraint._attach(elem)
        self._modified.add(constraint)

    # -- mutation ----------------------------------------------------------------
    def remove_variable(self, variable: Variable) -> None:
        """Remove a variable (the activity completed or was cancelled)."""
        for elem in variable.elements:
            if elem._cpos >= 0:
                elem.constraint._detach(elem)
            self._modified.add(elem.constraint)
        variable.elements.clear()
        self._vars.pop(variable.id, None)
        self._detached_dirty.discard(variable)

    def update_variable_weight(self, variable: Variable, weight: float) -> None:
        """Change the sharing weight (0 suspends the activity)."""
        if weight < 0:
            raise ValueError("variable weight must be >= 0")
        weight = float(weight)
        if weight == variable.weight:
            return
        variable.weight = weight
        self._mark_variable(variable)

    def update_variable_bound(self, variable: Variable,
                              bound: Optional[float]) -> None:
        """Change the rate bound of a variable."""
        if bound is not None and bound < 0:
            raise ValueError("variable bound must be >= 0 or None")
        bound = None if bound is None else float(bound)
        if bound == variable.bound:
            return
        variable.bound = bound
        self._mark_variable(variable)

    def update_constraint_capacity(self, constraint: Constraint,
                                   capacity: float) -> None:
        """Change a resource capacity (availability trace event, failure)."""
        if capacity < 0:
            raise ValueError("constraint capacity must be >= 0")
        capacity = float(capacity)
        if capacity == constraint.capacity:
            return
        constraint.capacity = capacity
        self._modified.add(constraint)

    def _mark_variable(self, variable: Variable) -> None:
        elements = variable.elements
        if elements:
            modified = self._modified
            for elem in elements:
                modified.add(elem.constraint)
        elif variable.id in self._vars:
            self._detached_dirty.add(variable)

    # -- solving -----------------------------------------------------------------
    def solve(self, _subsolver=None) -> List[Variable]:
        """Assign a max-min fair value to every variable touched by changes.

        The algorithm is progressive filling on the *normalised* rates
        ``x_i / w_i``.  At every round the bottleneck — the unsaturated
        constraint or variable bound with the smallest saturation level —
        is taken from the candidate heap, the variables it saturates are
        frozen at that level and their consumption is subtracted from the
        running aggregates of every other constraint they cross.

        Only the connected components reachable from modified constraints
        are re-solved; a clean system returns immediately.  Returns the
        variables whose value changed (the callers use it to recompute
        action completion dates selectively).
        """
        changed: List[Variable] = []
        self._solve_into(changed, None, _subsolver)
        return changed

    def solve_grouped(self, _subsolver=None):
        """Like :meth:`solve`, but keeps the component structure visible.

        Returns ``(changed, groups)`` where ``groups`` is a list of
        ``(trigger_cid, start, end)`` triples: the changed variables of
        the component first triggered by modified constraint
        ``trigger_cid`` occupy ``changed[start:end]``.  Entries before
        ``groups[0][1]`` (or all of ``changed`` when ``groups`` is empty)
        are detached variables, ordered by id.

        The sharded kernel uses this to re-merge the per-shard solve
        results into the exact global order a single flat system would
        report: detached variables by id first, then components by
        trigger id — both orderings are global because ids are.
        """
        changed: List[Variable] = []
        groups: List[Tuple[int, int, int]] = []
        self._solve_into(changed, groups, _subsolver)
        return changed, groups

    def _solve_into(self, changed: List[Variable],
                    groups: Optional[List[Tuple[int, int, int]]],
                    _subsolver=None) -> None:
        subsolve = _subsolver if _subsolver is not None else \
            self._solve_subsystem
        self.solve_calls += 1
        if not self._modified and not self._detached_dirty:
            self.solve_skipped += 1
            return

        # Variables crossing no constraint are limited only by their bound.
        # Creation order keeps the changed-variables report — and therefore
        # the completion-event tie-breaking downstream — deterministic.
        if self._detached_dirty:
            for var in sorted(self._detached_dirty, key=_BY_ID):
                if var.elements:
                    continue  # got expanded meanwhile; handled below
                if var.weight <= EPSILON:
                    value = 0.0
                else:
                    value = var.bound if var.bound is not None else math.inf
                if value != var.value:
                    var.value = value
                    changed.append(var)
            self._detached_dirty.clear()

        if self._modified:
            # Several events can land between two solves (a burst of new
            # actions, a batch of completions).  Their constraints often
            # belong to *independent* components; solving each component
            # separately keeps progressive filling linear in the component
            # size instead of quadratic in the batch size.
            modified = self._modified
            if len(modified) == 1:
                seeds = list(modified)
            else:
                seeds = sorted(modified, key=_BY_ID)
            modified.clear()
            # Allocated by the first component that needs a graph walk.
            cns_seen: Optional[Set[Constraint]] = None
            var_seen: Optional[Set[Variable]] = None
            for seed in seeds:
                elements = seed.elements
                if _subsolver is None and (not elements or (
                        len(elements) == 1
                        and len(elements[0].variable.elements) == 1)):
                    # An empty constraint, or one whose only variable
                    # crosses nothing else, is its own component by
                    # inspection — no graph walk can reach or leave it.
                    # Counters, token and values move exactly as on the
                    # general path (the token is pickled state).
                    if groups is not None:
                        start = len(changed)
                    self.constraints_solved += 1
                    self._token += 1
                    if elements:
                        elem = elements[0]
                        var = elem.variable
                        self.variables_solved += 1
                        old = var.value
                        weight = var.weight
                        if weight > EPSILON:
                            # _solve_single in closed form: the constraint
                            # (scan rank 0) and the bound are the only two
                            # candidates, the counters move as it moves them.
                            usage = elem.usage
                            d = usage * weight
                            if seed.shared:
                                if d > EPSILON:
                                    capacity = seed.capacity
                                    level = (capacity if capacity > 0.0
                                             else 0.0) / d
                                else:
                                    level = None
                            elif usage > EPSILON:
                                level = seed.capacity / d
                            else:
                                level = None
                            bound = var.bound
                            if bound is None:
                                if level is None:
                                    value = math.inf
                                    self.elements_visited += 1
                                else:
                                    value = level * weight
                                    self.elements_visited += 3
                                    self.heap_pops += 1
                            else:
                                b_level = bound / weight
                                # The constraint wins a tie inside the
                                # near-tie band unless the bound sits a
                                # full EPSILON below it.
                                if level is not None and (
                                        level <= b_level
                                        or (level < b_level + 2.0 * EPSILON
                                            + 1e-9 * b_level
                                            and not b_level
                                            < level - EPSILON)):
                                    value = level * weight
                                    self.elements_visited += 3
                                else:
                                    value = b_level * weight
                                    self.elements_visited += 2
                                self.heap_pops += 1
                                if bound < value:
                                    value = bound
                            var._stamp = 0
                        else:
                            value = 0.0
                        var.value = value
                        if value != old:
                            changed.append(var)
                    if groups is not None:
                        groups.append((seed.id, start, len(changed)))
                    continue
                if cns_seen is None:
                    cns_seen = set()
                    var_seen = set()
                elif seed in cns_seen:
                    continue
                cnss, variables = self._component(seed, cns_seen, var_seen)
                # Creation order keeps the selective solve's tie-breaking
                # identical to a from-scratch solve of the same component.
                cnss.sort(key=_BY_ID)
                variables.sort(key=_BY_ID)
                start = len(changed)
                subsolve(cnss, variables, changed)
                if groups is not None:
                    groups.append((seed.id, start, len(changed)))

    def _component(self, seed: Constraint, cns_seen: Set[Constraint],
                   var_seen: Set[Variable]):
        """Constraints/variables of the component containing ``seed``.

        ``cns_seen``/``var_seen`` are shared across the components of one
        solve so overlapping traversals are not repeated.  Zero-weight
        variables belong to the component (their value must be reset to 0)
        but do not propagate it: they consume nothing, so the constraints
        on their far side are unaffected.  The caller sorts both lists, so
        the walk order (breadth-first over ``cnss`` itself) is free.
        """
        cns_seen.add(seed)
        cnss: List[Constraint] = [seed]
        variables: List[Variable] = []
        for cns in cnss:
            for elem in cns.elements:
                var = elem.variable
                if var in var_seen:
                    continue
                var_seen.add(var)
                variables.append(var)
                if var.weight > EPSILON:
                    for other in var.elements:
                        reached = other.constraint
                        if reached not in cns_seen:
                            cns_seen.add(reached)
                            cnss.append(reached)
        return cnss, variables

    # -- incremental progressive filling -----------------------------------------
    def _solve_subsystem(self, cnss: List[Constraint],
                         variables: List[Variable],
                         changed: List[Variable]) -> None:
        """Incremental progressive filling restricted to one component.

        See the module docstring ("Incremental progressive filling") for
        the data structures; the reference rescanning filling of the test
        suite is the specification this must stay observationally (and,
        for well-separated saturation levels, bit-) identical to.
        """
        self.constraints_solved += len(cnss)
        self.variables_solved += len(variables)
        old_values = [var.value for var in variables]

        self._token += 1
        token = self._token
        active: List[Variable] = []
        for var in variables:
            if var.weight <= EPSILON or not var.elements:
                # Suspended variables get no capacity.  Variables crossing
                # no constraint are only limited by their bound.
                if var.weight <= EPSILON:
                    var.value = 0.0
                else:
                    var.value = var.bound if var.bound is not None else math.inf
            else:
                var.value = 0.0
                var._stamp = token
                active.append(var)

        if active:
            if len(cnss) == 1:
                # The overwhelmingly common shape on large platforms (one
                # CPU, one access link): a dedicated path without the
                # candidate heap, bit-identical to the general algorithm.
                self._solve_single(cnss[0], active, token)
            else:
                self._progressive_filling(cnss, active, token)

        for var, old in zip(variables, old_values):
            if var.value != old:
                changed.append(var)

    def _solve_single(self, cns: Constraint, active: List[Variable],
                      token: int) -> None:
        """Water-filling specialised to a component with one constraint.

        Replicates :meth:`_progressive_filling` — surfacing order by
        ``(level, scan rank)``, lazy exactification of the running shared
        denominator, the near-tie adjudication band, the reference freeze
        rule — without the candidate heap: with a single constraint the
        only candidates are the constraint itself (rank 0) and the bound
        levels of the active variables (ranks 1..n, static), so a sorted
        list with a skip-frozen pointer replaces the heap.  Values are
        bit-identical to the general path: every level that freezes a
        variable is the same reference summation over the same elements
        in the same order.  Like the filling loop, it writes
        ``max(0.0, x)`` and ``min(value, bound)`` as compares (the same
        double for every input).  A one-variable component that
        ``_solve_into`` recognises by inspection never gets here: it is
        solved in closed form there, with the same values and counters.
        """
        elements = cns.elements
        self.elements_visited += len(elements)
        shared = cns.shared
        fat: List[Tuple[float, int, Variable]] = []
        denom = 0.0
        live = 0
        if shared:
            for elem in elements:
                var = elem.variable
                if var._stamp == token:
                    denom += elem.usage * var.weight
                    live += 1
            rem = cns.capacity
        else:
            capacity = cns.capacity
            for elem in elements:
                var = elem.variable
                if var._stamp == token:
                    live += 1
                    if elem.usage > EPSILON:
                        fat.append((capacity / (elem.usage * var.weight),
                                    len(fat), var))
            fat.sort()
            rem = 0.0
        exact = True
        fi = 0
        nfat = len(fat)

        # Bound candidates carry the same scan ranks the heap would use.
        bnds: List[Tuple[float, int, Variable]] = []
        for aidx, var in enumerate(active):
            if var.bound is not None:
                bnds.append((var.bound / var.weight, 1 + aidx, var))
        bnds.sort()
        nb = len(bnds)
        bi = 0

        unassigned = len(active)
        while unassigned:
            while bi < nb and bnds[bi][2]._stamp != token:
                bi += 1
            # The constraint's current candidate level (None: not a
            # candidate).  A shared level computed from the running
            # aggregates is approximate until exactified; fat-pipe levels
            # are static and always exact.
            if shared:
                if live <= 0:
                    clevel = None
                elif not exact and denom <= 0.5 * EPSILON:
                    # Resync after catastrophic cancellation, like the
                    # touched-constraint loop of the general path.
                    self.elements_visited += len(elements)
                    denom = 0.0
                    for elem in elements:
                        var = elem.variable
                        if var._stamp == token:
                            denom += elem.usage * var.weight
                    exact = True
                    clevel = ((rem if rem > 0.0 else 0.0) / denom
                              if denom > EPSILON else None)
                elif exact and denom <= EPSILON:
                    clevel = None
                else:
                    clevel = (rem if rem > 0.0 else 0.0) / denom
            else:
                while fi < nfat and fat[fi][2]._stamp != token:
                    fi += 1
                clevel = fat[fi][0] if fi < nfat else None

            if clevel is None and bi >= nb:
                # Nothing limits the remaining variables.
                for var in active:
                    if var._stamp == token:
                        var.value = (var.bound if var.bound is not None
                                     else math.inf)
                        var._stamp = 0
                break

            if bi < nb:
                b_lvl, b_rank, b_var = bnds[bi]
            else:
                b_lvl = None
            # Surfacing order: (level, rank) — the constraint (rank 0)
            # wins exact ties against any bound entry.
            winner_is_bound = True
            if clevel is not None and (b_lvl is None or clevel <= b_lvl):
                if shared and not exact:
                    # Exactify at surfacing time, like the general path.
                    self.heap_pops += 1
                    self.elements_visited += len(elements)
                    denom = 0.0
                    for elem in elements:
                        var = elem.variable
                        if var._stamp == token:
                            denom += elem.usage * var.weight
                    exact = True
                    if denom <= EPSILON:
                        continue
                    clevel = (rem if rem > 0.0 else 0.0) / denom
                    winner_is_bound = (b_lvl is not None and clevel > b_lvl)
                else:
                    winner_is_bound = False

            if winner_is_bound:
                w_lvl, w_rank = b_lvl, b_rank
            else:
                w_lvl, w_rank = clevel, 0
            # Near-tie adjudication band (see _progressive_filling).
            limit = w_lvl + 2.0 * EPSILON + 1e-9 * w_lvl
            extras: List[Tuple[float, int, Variable]] = []
            j = bi + 1 if winner_is_bound else bi
            while j < nb and bnds[j][0] < limit:
                if bnds[j][2]._stamp == token:
                    extras.append(bnds[j])
                j += 1
            cns_in_band = False
            if winner_is_bound and clevel is not None:
                if shared and not exact:
                    if clevel < limit:
                        self.heap_pops += 1
                        self.elements_visited += len(elements)
                        denom = 0.0
                        for elem in elements:
                            var = elem.variable
                            if var._stamp == token:
                                denom += elem.usage * var.weight
                        exact = True
                        if denom > EPSILON:
                            clevel = (rem if rem > 0.0 else 0.0) / denom
                            cns_in_band = clevel < limit
                elif clevel < limit:
                    cns_in_band = True
            sel_var: Optional[Variable] = None
            if winner_is_bound:
                sel_var = b_var
            if extras or (winner_is_bound and cns_in_band):
                cands: List[Tuple[float, int, Optional[Variable]]] = []
                if cns_in_band or not winner_is_bound:
                    cands.append((clevel, 0, None))
                if winner_is_bound:
                    cands.append((b_lvl, b_rank, b_var))
                cands.extend(extras)
                cands.sort(key=_BY_RANK)
                best = math.inf
                sel = cands[0]
                for cand in cands:
                    if cand[0] < best - EPSILON:
                        best = cand[0]
                        sel = cand
                w_lvl = sel[0]
                sel_var = sel[2]

            self.heap_pops += 1
            if sel_var is not None:
                # A bound freezes one variable; maintain the running
                # aggregates like the general path's freeze loop.
                value = w_lvl * sel_var.weight
                bound = sel_var.bound
                if bound is not None and bound < value:
                    value = bound
                sel_var.value = value
                sel_var._stamp = 0
                unassigned -= 1
                velems = sel_var.elements
                self.elements_visited += len(velems)
                if shared:
                    for elem in velems:
                        rem -= elem.usage * value
                        rem = rem if rem > 0.0 else 0.0
                        denom -= elem.usage * sel_var.weight
                    exact = False
                live -= 1
            else:
                # The constraint freezes every remaining variable, in
                # element order, at its (exact) level.
                self.elements_visited += 2 * len(elements)
                for elem in elements:
                    var = elem.variable
                    if var._stamp == token:
                        value = w_lvl * var.weight
                        bound = var.bound
                        if bound is not None and bound < value:
                            value = bound
                        var.value = value
                        var._stamp = 0
                        unassigned -= 1
                break

    def _progressive_filling(self, cnss: List[Constraint],
                             active: List[Variable], token: int) -> None:
        """Heap-driven water-filling over the ``active`` variables.

        Every round runs in this one frame — surfacing the winner and its
        near-tie band, freezing, refreshing the touched candidates — with
        the work counters and the heap sequence in locals stored once at
        exit, and no builtin call per element: on a large component the
        cost of this loop is interpreter overhead per element and round.
        """
        heap: list = []
        push = heapq.heappush
        pop = heapq.heappop
        visited = 0
        pops = 0
        seq = self._seq

        # Seed the working aggregates and the candidate heap.  The initial
        # levels are exact: the shared denominators are fresh sums over the
        # unassigned elements in element order, like the reference scan.
        for rank, cns in enumerate(cnss):
            cns._ver += 1
            cns._rank = rank
            elements = cns.elements
            visited += len(elements)
            capacity = cns.capacity
            if cns.shared:
                denom = 0.0
                live = 0
                for elem in elements:
                    var = elem.variable
                    if var._stamp == token:
                        denom += elem.usage * var.weight
                        live += 1
                cns._rem = capacity
                cns._denom = denom
                cns._live = live
                if live and denom > EPSILON:
                    seq += 1
                    push(heap, ((capacity if capacity > 0.0 else 0.0) / denom,
                                rank, seq, cns._ver, _SHARED, True, cns))
            else:
                # Fat pipe: each element's saturation level is static
                # (capacity, not remaining, caps each variable), so the
                # constraint's candidate is the min of a lazy-deletion heap.
                fat: List[Tuple[float, int, Variable]] = []
                live = 0
                for elem in elements:
                    var = elem.variable
                    if var._stamp == token:
                        live += 1
                        if elem.usage > EPSILON:
                            fat.append((capacity / (elem.usage * var.weight),
                                        len(fat), var))
                heapq.heapify(fat)
                cns._fat = fat
                cns._live = live
                if fat:
                    seq += 1
                    push(heap, (fat[0][0], rank, seq, cns._ver, _FATPIPE,
                                True, cns))

        num_cns = len(cnss)
        for aidx, var in enumerate(active):
            if var.bound is not None:
                seq += 1
                push(heap, (var.bound / var.weight, num_cns + aidx, seq, 0,
                            _BOUND, True, var))

        unassigned = len(active)
        while unassigned:
            # Surface the live minimum, then every live candidate below
            # ``limit``: the near-tie band, re-ranked below.  Stale entries
            # (version mismatch, no unassigned variable left) are dropped.
            # A shared entry whose level came from the running sum is
            # replaced by one recomputed the way the reference scan does —
            # a fresh sum(usage × weight) over the still-unassigned
            # elements, in element order — so the level a winner freezes
            # variables at is bit-identical to the reference.
            winner = None
            band = None
            while heap:
                entry = heap[0]
                obj = entry[6]
                if entry[4] == _BOUND:
                    if obj._stamp != token:
                        pop(heap)
                        pops += 1
                        continue
                elif entry[3] != obj._ver or obj._live <= 0:
                    pop(heap)
                    pops += 1
                    continue
                elif not entry[5]:
                    pop(heap)
                    pops += 1
                    elements = obj.elements
                    visited += len(elements)
                    denom = 0.0
                    found = False
                    for elem in elements:
                        var = elem.variable
                        if var._stamp == token:
                            denom += elem.usage * var.weight
                            found = True
                    obj._ver += 1
                    if not found or denom <= EPSILON:
                        continue
                    obj._denom = denom
                    rem = obj._rem
                    seq += 1
                    push(heap, ((rem if rem > 0.0 else 0.0) / denom,
                                entry[1], seq, obj._ver, _SHARED, True, obj))
                    continue
                if winner is None:
                    pop(heap)
                    pops += 1
                    winner = entry
                    level = entry[0]
                    limit = level + 2.0 * EPSILON + 1e-9 * level
                    continue
                if entry[0] >= limit:
                    break
                if band is None:
                    band = [winner]
                band.append(pop(heap))
                pops += 1

            if winner is None:
                # No constraint limits the remaining variables: they are
                # only limited by their bounds (handled above) or unbounded.
                for var in active:
                    if var._stamp == token:
                        var.value = (var.bound if var.bound is not None
                                     else math.inf)
                        var._stamp = 0
                break

            # Near-tie adjudication: the heap orders equal levels by scan
            # rank already, but candidates whose levels differ by less than
            # the reference EPSILON slack (or by the ulp drift of a running
            # sum) must be re-ranked with the reference acceptance rule —
            # scan order, accept when more than EPSILON better — on their
            # exact levels.  The band is almost always empty.
            if band is not None:
                band.sort(key=_BY_RANK)
                best = math.inf
                for cand in band:
                    if cand[0] < best - EPSILON:
                        best = cand[0]
                        winner = cand
                for cand in band:
                    if cand is not winner:
                        push(heap, cand)

            level = winner[0]
            if winner[4] == _BOUND:
                frozen = (winner[6],)
            else:
                elements = winner[6].elements
                visited += len(elements)
                frozen = [e.variable for e in elements
                          if e.variable._stamp == token]

            # Freeze the saturated variables and maintain the running
            # aggregates of every constraint they cross — O(crossed).
            touched: Dict[Constraint, None] = {}
            for var in frozen:
                weight = var.weight
                value = level * weight
                bound = var.bound
                if bound is not None and bound < value:
                    value = bound
                var.value = value
                var._stamp = 0
                unassigned -= 1
                elements = var.elements
                visited += len(elements)
                for elem in elements:
                    cns = elem.constraint
                    if cns.shared:
                        usage = elem.usage
                        rem = cns._rem - usage * value
                        cns._rem = rem if rem > 0.0 else 0.0
                        cns._denom -= usage * weight
                    cns._live -= 1
                    touched[cns] = None

            # One version bump + one refreshed candidate per touched
            # constraint (not per frozen variable crossing it).
            for cns in touched:
                cns._ver += 1
                if cns._live <= 0:
                    continue
                if cns.shared:
                    denom = cns._denom
                    exact = False
                    if denom <= 0.5 * EPSILON:
                        # The running sum may cancel catastrophically when
                        # a dominant term is subtracted (fl(big + tiny) -
                        # big == 0) while the exact sum over the remaining
                        # elements would still pass the reference
                        # threshold.  Resync before deciding to drop the
                        # constraint from candidacy.
                        elements = cns.elements
                        visited += len(elements)
                        denom = 0.0
                        for elem in elements:
                            var = elem.variable
                            if var._stamp == token:
                                denom += elem.usage * var.weight
                        cns._denom = denom
                        exact = True
                    # Approximate entries are exactified when they surface,
                    # which applies the reference `denom <= EPSILON` rule.
                    if denom > EPSILON or (not exact
                                           and denom > 0.5 * EPSILON):
                        rem = cns._rem
                        seq += 1
                        push(heap, ((rem if rem > 0.0 else 0.0) / denom,
                                    cns._rank, seq, cns._ver, _SHARED,
                                    exact, cns))
                else:
                    fat = cns._fat
                    while fat and fat[0][2]._stamp != token:
                        pop(fat)
                    if fat:
                        seq += 1
                        push(heap, (fat[0][0], cns._rank, seq, cns._ver,
                                    _FATPIPE, True, cns))

        # The fat-pipe level heaps are per-solve working state; drop them
        # so their Variable references (and, through ``var.data``, the
        # owning actions and payloads) do not outlive the sub-solve.
        for cns in cnss:
            if not cns.shared:
                cns._fat = []
        self.elements_visited += visited
        self.heap_pops += pops
        self._seq = seq

    # -- validation helpers -------------------------------------------------------
    def solve_all(self) -> None:
        """Force a from-scratch re-solve of the whole system.

        Used by tests to compare the selective path against the reference
        progressive-filling result.
        """
        self._modified.update(c for c in self.constraints if c.elements)
        self._detached_dirty.update(v for v in self._vars.values()
                                    if not v.elements)
        self.solve()

    def check_feasible(self, tol: float = 1e-6) -> bool:
        """Return True when the solved values violate no constraint.

        Intended for tests and debugging; ``solve()`` must have been called.
        """
        for cns in self.constraints:
            usage = cns.usage_total()
            if usage > cns.capacity * (1.0 + tol) + tol:
                return False
        for var in self._vars.values():
            if var.bound is not None and var.value > var.bound * (1 + tol) + tol:
                return False
            if var.value < -tol:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MaxMinSystem(nvars={len(self._vars)}, "
                f"ncons={len(self.constraints)})")
