"""Sharded kernel: the zone-partitioned SURF engine.

The :class:`~repro.platform.routing.NetZone` tree doubles as the kernel
partition: every top-level zone becomes a *shard* with its own CPU and
network :class:`~repro.surf.model.FluidModel`, i.e. its own LMM systems;
resources of the root zone — and every inter-zone link — live in the
root shard.  Shards partition the LMM *systems* only: the completion
heap and its sequence counter belong to the model kind, shared by every
shard, so the step loop is the flat engine's.  Cross-zone communications
are handed off at the gateway: when a route spans several shards, the
constraints it touches — and the whole weakly-connected closure of
variables and constraints entangled with them — migrate into the root
shard, ids intact, so every LMM component always lives wholly inside one
system.

Bit-identity with the flat kernel holds because every global ordering is
preserved: constraint ids are declaration indices (order-independent
numbering), variable ids come from one shared per-kind allocator, and
the per-kind completion heap holds, entry for entry, what the flat
kernel's heap would.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, itemgetter
from typing import Dict, List

from repro.surf.cpu import CpuModel, CpuResource
from repro.surf.engine import SurfEngine
from repro.surf.lmm import Constraint, MaxMinSystem
from repro.surf.model import FluidModel
from repro.surf.network import LinkResource, NetworkModel
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

    * constraint ids — platform declaration indices;
    * variable ids — one shared allocator per model kind;
    * the completion heap and its sequence numbers — one per model kind;
    * the engine clock and trace heap — inherited, engine-global.

    With one heap per kind the inherited update phase is correct as is;
    the share phase is the only phase code here: it merges the per-shard
    solve results back into flat order (detached variables by id, then
    components by trigger id) before rescheduling — so every simulated
    date, completion order and tie-break matches the flat kernel to the
    bit.
    """

    def __init__(self, shard_names=()) -> None:
        super().__init__(CpuModel(), NetworkModel())
        #: Shard key "" is the root shard.
        self.cpu_shards: Dict[str, CpuModel] = {"": self.cpu_model}
        self.net_shards: Dict[str, NetworkModel] = {"": self.network_model}
        for name in shard_names:
            self.cpu_shards[name] = CpuModel()
            self.net_shards[name] = NetworkModel(self.network_model.config)
        self._cpu_list = list(self.cpu_shards.values())
        self._net_list = list(self.net_shards.values())
        # Per-kind global state: variable ids and heap sequence numbers
        # must be global or id/seq-based tie-breaks would diverge from
        # the flat kernel, and one shared heap pops in flat order.
        for kind_list in (self._cpu_list, self._net_list):
            root = kind_list[0]
            allocator = itertools.count()
            for model in kind_list:
                model.system._var_ids = allocator
                model._seq = root._seq
                model._heap = root._heap
        self.models = self._cpu_list + self._net_list
        self._system_model: Dict[MaxMinSystem, FluidModel] = {
            model.system: model for model in self.models}
        #: Count of gateway handoffs (constraint closures migrated into
        #: the root shard by cross-zone communications).
        self.migrations = 0

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
        return self._system_model[resource._system]

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

    def execute(self, cpu, flops, priority=1.0, bound=None):
        return self.model_of(cpu).execute(cpu, flops, priority, bound)

    # -- gateway handoff ---------------------------------------------------------
    def communicate(self, links, size, rate=None, priority=1.0):
        """Start a transfer, migrating cross-zone routes to the root shard.

        A route wholly inside one shard runs in that shard's network
        model.  A route spanning several shards is handed off at the
        gateway: every touched link constraint — with the whole
        weakly-connected closure of variables and constraints entangled
        with it — migrates into the root shard first, ids intact, so the
        flow's LMM component lives in exactly one system.
        """
        owners = {link._system for link in links}
        if len(owners) == 1:
            model = self._system_model[owners.pop()]
        else:
            model = self.network_model
            if owners:
                self._migrate_links(links)
        return model.communicate(links, size, rate, priority)

    def _migrate_links(self, links) -> None:
        root_system = self.network_model.system
        seeds_by_system: Dict[MaxMinSystem, List[Constraint]] = {}
        for link in links:
            if link._system is not root_system:
                seeds_by_system.setdefault(link._system, []).append(
                    link.constraint)
        for system, seeds in seeds_by_system.items():
            self._migrate_closure(self._system_model[system], seeds)
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

        # Variables and their actions.  Pending heap entries need no
        # care: the heap is per kind and events fire on ``action.model``.
        for var in moved_vars:
            src_system._vars.pop(var.id, None)
            dst_system._vars[var.id] = var
            if var in src_system._detached_dirty:  # pragma: no cover
                src_system._detached_dirty.discard(var)
                dst_system._detached_dirty.add(var)
            action = var.data
            if action is not None and getattr(action, "model", None) is src_model:
                action.model = dst_model
                src_model.running.discard(action)
                if action.is_running():
                    dst_model.running.add(action)

    # -- merged share phase ------------------------------------------------------
    def _share_phase(self, now: float) -> float:
        for kind_list in (self._cpu_list, self._net_list):
            detached, components = [], []
            for model in kind_list:
                model.clock = now
                # Clean shards skip the solve entirely — same gate the flat
                # kernel applies in share_resources, so the solve cost
                # scales with the number of *dirty* shards.
                system = model.system
                if not system._modified and not system._detached_dirty:
                    continue
                changed, groups = system.solve_grouped()
                detached += changed[:groups[0][1] if groups else len(changed)]
                for trigger, start, end in groups:
                    components.append((trigger, changed[start:end]))
            # Flat order: detached variables by id, then components by
            # trigger id — globally valid because ids are global.
            variables = sorted(detached, key=attrgetter("id"))
            for _trigger, group in sorted(components, key=itemgetter(0)):
                variables += group
            FluidModel._adopt_solved_rates(variables, now)
        # One heap per kind: the root models read them for every shard.
        next_date = min(self.cpu_model.next_event_date(),
                        self.network_model.next_event_date())
        return max(0.0, next_date - now)

    # -- observability ---------------------------------------------------------------
    def kernel_stats(self) -> dict:
        stats = super().kernel_stats()
        stats["shards"] = {
            "count": len(self.cpu_shards),
            "names": [name or "<root>" for name in self.cpu_shards],
            "migrations": self.migrations,
        }
        return stats
