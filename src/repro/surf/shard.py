"""Sharded kernel: the zone-partitioned SURF engine.

The :class:`~repro.platform.routing.NetZone` tree doubles as the kernel
partition: every top-level zone becomes a *shard* with its own CPU and
network :class:`~repro.surf.model.FluidModel` (and therefore its own LMM
systems and completion heaps); resources of the root zone — and every
inter-zone link — live in the root shard.  All shards run on the one
serial solver and commit each step at the minimum next-event date across
shards.  Cross-zone communications are handed off at the gateway: when a
route spans several shards, the constraints it touches — and the whole
weakly-connected closure of variables and constraints entangled with
them — migrate into the root shard, ids intact, so every LMM component
always lives wholly inside one system.

Bit-identity with the flat kernel holds because every global ordering is
preserved: constraint ids are declaration indices (order-independent
numbering), variable ids come from one shared per-kind allocator, the
completion heaps share one per-kind sequence counter and due events pop
merged by ``(date, seq)`` — exactly the keys the flat single-heap pop
loop uses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional

from repro.surf.cpu import CpuModel, CpuResource
from repro.surf.engine import SurfEngine
from repro.surf.lmm import Constraint
from repro.surf.model import TIME_EPSILON, FluidModel
from repro.surf.network import LinkResource, NetworkModel, NetworkModelConfig
from repro.surf.resource import Resource

__all__ = ["ShardedSurfEngine", "default_workers"]


def default_workers() -> int:
    """Always 0; kept importable because ``perfbench/rep.py`` records it."""
    return 0


class ShardedSurfEngine(SurfEngine):
    """Zone-partitioned SURF engine.

    Each name in ``shard_names`` (the platform's top-level zones) gets its
    own :class:`CpuModel` and :class:`NetworkModel`; the inherited
    ``cpu_model``/``network_model`` pair is the *root shard*, holding the
    root zone's resources, every inter-zone link, and every cross-zone
    flow.  Bit-identity with the flat engine rests on four shared pieces
    of global state:

    * constraint ids — platform declaration indices (satellite 1);
    * variable ids — one shared allocator per model kind;
    * heap sequence numbers — one shared counter per model kind;
    * the engine clock and trace heap — inherited, engine-global.

    The share phase merges per-shard solve results back into flat order
    (detached variables by id, then components by trigger id) before
    rescheduling, and the update phase pops the per-shard heaps merged by
    ``(date, seq)`` — so every simulated date, completion order and
    tie-break matches the flat kernel to the bit.
    """

    def __init__(self, shard_names=(),
                 network_config: Optional[NetworkModelConfig] = None) -> None:
        super().__init__(CpuModel(), NetworkModel(network_config))
        # Shared per-kind allocators: variable ids and heap sequence
        # numbers must be global or id/seq-based tie-breaks would diverge
        # from the flat kernel.
        self._cpu_var_ids = itertools.count()
        self._net_var_ids = itertools.count()
        self._cpu_seq = itertools.count()
        self._net_seq = itertools.count()
        #: Shard key "" is the root shard.
        self.cpu_shards: Dict[str, CpuModel] = {"": self.cpu_model}
        self.net_shards: Dict[str, NetworkModel] = {"": self.network_model}
        for name in shard_names:
            self.cpu_shards[name] = CpuModel()
            self.net_shards[name] = NetworkModel(self.network_model.config)
        self._cpu_list = list(self.cpu_shards.values())
        self._net_list = list(self.net_shards.values())
        for model in self._cpu_list:
            model.system._var_ids = self._cpu_var_ids
            model._seq = self._cpu_seq
        for model in self._net_list:
            model.system._var_ids = self._net_var_ids
            model._seq = self._net_seq
        self.models = self._cpu_list + self._net_list
        self._system_model: Dict[int, FluidModel] = {
            id(model.system): model for model in self.models}
        #: Count of gateway handoffs (constraint closures migrated into
        #: the root shard by cross-zone communications).
        self.migrations = 0

    # -- snapshot support --------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the ``id()``-keyed system→model map; it rebuilds on load.

        Object identities change across a pickle (or deepcopy) round-trip,
        so a map keyed by ``id(system)`` would silently miss every lookup
        in the restored engine — resources would fall back to the root
        models and shard routing would break.
        """
        state = self.__dict__.copy()
        state.pop("_system_model", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._system_model = {
            id(model.system): model for model in self.models}

    # -- shard resolution --------------------------------------------------------
    @staticmethod
    def shard_key(zone) -> str:
        """The shard key of a zone: its top-level ancestor's name.

        The root zone (and ``None``) map to ``""``, the root shard.
        """
        if zone is None or zone.parent is None:
            return ""
        while zone.parent is not None and zone.parent.parent is not None:
            zone = zone.parent
        return zone.name

    def model_of(self, resource: Resource) -> FluidModel:
        model = self._system_model.get(id(resource._system))
        if model is not None:
            return model
        return super().model_of(resource)

    def add_cpu(self, name, speed, cores=1, availability_trace=None,
                state_trace=None, index=None, zone=None) -> CpuResource:
        key = self.shard_key(zone)
        model = self.cpu_shards.get(key, self.cpu_model)
        return model.add_cpu(name, speed, cores,
                             availability_trace=availability_trace,
                             state_trace=state_trace, index=index)

    def add_link(self, name, bandwidth, latency=0.0, shared=True,
                 bandwidth_trace=None, state_trace=None, index=None,
                 zone=None) -> LinkResource:
        key = self.shard_key(zone)
        model = self.net_shards.get(key, self.network_model)
        return model.add_link(name, bandwidth, latency, shared,
                              bandwidth_trace=bandwidth_trace,
                              state_trace=state_trace, index=index)

    # -- gateway handoff ---------------------------------------------------------
    def communicate(self, links, size, extra_latency=0.0, rate=None,
                    priority=1.0):
        """Start a transfer, migrating cross-zone routes to the root shard.

        A route wholly inside one shard runs in that shard's network
        model.  A route spanning several shards is handed off at the
        gateway: every touched link constraint — with the whole
        weakly-connected closure of variables and constraints entangled
        with it — migrates into the root shard first, ids intact, so the
        flow's LMM component lives in exactly one system.
        """
        owners = {id(link._system) for link in links}
        if len(owners) == 1:
            model = self._system_model[owners.pop()]
        else:
            model = self.network_model
            if owners:
                self._migrate_links(links)
        return model.communicate(links, size, extra_latency, rate, priority)

    def _migrate_links(self, links) -> None:
        root_model = self.network_model
        root_system = root_model.system
        seeds_by_model: Dict[int, List[Constraint]] = {}
        for link in links:
            if link._system is root_system:
                continue
            seeds_by_model.setdefault(id(link._system), []).append(
                link.constraint)
        for sys_id, seeds in seeds_by_model.items():
            src_model = self._system_model[sys_id]
            self._migrate_closure(src_model, seeds)
            self.migrations += 1

    def _migrate_closure(self, src_model: NetworkModel,
                         seeds: List[Constraint]) -> None:
        """Move the weakly-connected closure of ``seeds`` to the root shard.

        Unlike the solver's component traversal, the closure follows
        zero-weight edges too: a variable's elements must all live in the
        system that owns the variable, or the incidence bookkeeping
        (``expand``/``remove_variable``/dirtiness) would straddle systems.
        """
        dst_model = self.network_model
        src_system, dst_system = src_model.system, dst_model.system
        cnss: set = set()
        moved_vars: set = set()
        stack = list(seeds)
        while stack:
            cns = stack.pop()
            if cns in cnss:
                continue
            cnss.add(cns)
            for elem in cns.elements:
                var = elem.variable
                if var in moved_vars:
                    continue
                moved_vars.add(var)
                for other in var.elements:
                    if other.constraint not in cnss:
                        stack.append(other.constraint)

        # Constraints: membership lists, dirtiness, resource back-pointers.
        src_system.constraints = [c for c in src_system.constraints
                                  if c not in cnss]
        dst_system.constraints.extend(sorted(cnss, key=lambda c: c.id))
        for cns in cnss:
            if cns in src_system._modified:
                src_system._modified.discard(cns)
                dst_system._modified.add(cns)
            resource = cns.data
            if isinstance(resource, Resource):
                resource._system = dst_system
                if isinstance(resource, LinkResource):
                    src_model.links.pop(resource.name, None)
                    dst_model.links[resource.name] = resource

        # Variables and their actions.
        moved_actions: set = set()
        for var in moved_vars:
            src_system._vars.pop(var.id, None)
            dst_system._vars[var.id] = var
            if var in src_system._detached_dirty:  # pragma: no cover
                src_system._detached_dirty.discard(var)
                dst_system._detached_dirty.add(var)
            action = var.data
            if action is not None and getattr(action, "model", None) is src_model:
                moved_actions.add(action)
                action.model = dst_model
                src_model.running.discard(action)
                if action.is_running():
                    dst_model.running.add(action)

        # Heap entries migrate verbatim: the shared sequence counter makes
        # the tuples globally ordered, so pushing them unchanged into the
        # root heap preserves every (date, seq) tie-break.
        if moved_actions:
            keep = []
            for entry in src_model._heap:
                if entry[3] in moved_actions:
                    heapq.heappush(dst_model._heap, entry)
                else:
                    keep.append(entry)
            heapq.heapify(keep)
            src_model._heap = keep

    # -- merged phases -----------------------------------------------------------
    def _share_phase(self, now: float) -> float:
        for model in self.models:
            model.clock = now
        for kind_list in (self._cpu_list, self._net_list):
            entries = []
            for model in kind_list:
                # Clean shards skip the solve entirely — same gate the flat
                # kernel applies in share_resources, so the per-step cost
                # scales with the number of *dirty* shards, not the shard
                # count.
                system = model.system
                if not system._modified and not system._detached_dirty:
                    continue
                changed, groups = system.solve_grouped()
                if not changed:
                    continue
                detached_end = groups[0][1] if groups else len(changed)
                for i in range(detached_end):
                    var = changed[i]
                    entries.append(((0, var.id, 0), var, model))
                for trigger, start, end in groups:
                    for j in range(start, end):
                        entries.append(((1, trigger, j - start),
                                        changed[j], model))
            # Flat order: detached variables by id, then components by
            # trigger id — globally valid because ids are global.
            entries.sort(key=lambda e: e[0])
            for _key, var, model in entries:
                action = var.data
                if action is None or not action.is_running():
                    continue
                action.sync_remaining(now)
                action.last_rate = action.rate
                model._reschedule_action(action, now)
        min_delta = math.inf
        for model in self.models:
            next_date = model.next_event_date()
            if math.isinf(next_date):
                continue
            delta = max(0.0, next_date - now)
            if delta < min_delta:
                min_delta = delta
        return min_delta

    def _update_phase(self, now: float, delta: float):
        for model in self.models:
            model.clock = now
        completed = []
        horizon = now + TIME_EPSILON
        for kind_list in (self._cpu_list, self._net_list):
            # Only shards with a due head participate in the merge scan.
            # Firing an event never pushes new heap entries (completions
            # pop, latency ends only dirty the system for the next solve),
            # so the due set cannot grow while the phase runs.
            due = []
            for model in kind_list:
                heap = model._heap
                while heap:
                    date, seq, version, action = heap[0]
                    if (version != action._event_version
                            or not action.is_running()):
                        heapq.heappop(heap)
                        continue
                    break
                if heap and heap[0][0] <= horizon:
                    due.append(model)
            if not due:
                continue
            while True:
                best_model = None
                best_key = None
                for model in due:
                    heap = model._heap
                    while heap:
                        date, seq, version, action = heap[0]
                        if (version != action._event_version
                                or not action.is_running()):
                            heapq.heappop(heap)
                            continue
                        break
                    if not heap:
                        continue
                    date, seq = heap[0][0], heap[0][1]
                    if date > horizon:
                        continue
                    if best_key is None or (date, seq) < best_key:
                        best_key = (date, seq)
                        best_model = model
                if best_model is None:
                    break
                _date, _seq, _version, action = heapq.heappop(best_model._heap)
                action._event_version += 1
                best_model._fire_event(action, now, completed)
        return completed

    # -- observability ---------------------------------------------------------------
    def kernel_stats(self) -> dict:
        stats = super().kernel_stats()
        stats["shards"] = {
            "count": len(self.cpu_shards),
            "names": [name or "<root>" for name in self.cpu_shards],
            "migrations": self.migrations,
        }
        return stats
