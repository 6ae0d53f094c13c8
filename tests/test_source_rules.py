"""Source rules: imports and names that must not come back under ``src/``,
options that no caller sets, imports that nothing reads, the timing
fixture that must not come back under ``tests/`` or ``benchmarks/``, and
the tests that the user-reach verdicts, ``docs/INVARIANTS.md`` and
``ROADMAP.md`` cite.

Each rule reads the source (line by line, like ``grep -nE``, or as a
syntax tree) and fails listing every matching ``path:line``.  The
behaviour behind a rule is tested elsewhere (named in each docstring); the
rule catches the regression in the source before any of it runs.
"""

import ast
import importlib.util
import pathlib
import re
import sys
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPRO = SRC / "repro"


def _matching_lines(pattern, paths):
    regex = re.compile(pattern)
    return [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)]


#: ``import repro.msg``, or a legacy MSG name imported from ``repro``.
MSG_IMPORT = (r"^\s*(from\s+repro\.msg|import\s+repro\.msg|"
              r"from\s+repro\s+import\s+[^#]*"
              r"\b(msg|Environment|Process|ProcessState|Task)\b)")

#: The layers ported from MSG to s4u.
PORTED_LAYERS = ("gras", "smpi", "amok")


def test_no_msg_import_in_the_ported_layers():
    """The MSG shim is gone: ``repro.msg`` and the legacy aliases
    (Environment/Process/Task) raise ``ImportError``
    (tests/test_errors_and_api.py::TestRemovedMsgApi), and no ported
    layer may import them again."""
    layers = [REPRO / layer for layer in PORTED_LAYERS]
    assert all(layer.is_dir() for layer in layers)
    files = sorted(path for layer in layers for path in layer.rglob("*.py"))
    assert _matching_lines(MSG_IMPORT, files) == []


#: Helpers, knobs and parameters that were deleted, grouped by the one
#: path that replaced them.
RETIRED_NAMES = (
    # One way to block (_block_on) and one way to stop waiting
    # (_unblock): a second writer of an actor's wait state
    # (tests/test_s4u_api.py::TestOneWaitPath).
    r"_clear_wait", r"_detach_from_waits", r"_reap_owner_all",
    r"_start_exec", r"_start_sleep", r"_joiners", r"remove_waiter",
    # One request type, Simcall(handler, args), submitted by
    # s4u.actor.submit: no dispatch table, second submit helper or
    # Simcall subclass (tests/test_kernel.py::TestOneRequestType).
    r"_simcall_handlers", r"_build_simcall_handlers", r"_submit_as_caller",
    r"[A-Z][A-Za-z]+Call\(Simcall\)",
    # A resource goes down or up through SurfEngine.set_state and
    # Engine._set_state only: no per-caller fail/restore helper, trace
    # re-player or state-change fan-out
    # (tests/test_state_path.py::TestOneStatePath).
    r"def (fail|restore)_(host|link)\b", r"schedule_failure",
    r"schedule_trace", r"_fail_actions_using", r"apply_state_value",
    r"_handle_state_changes",
    # The reference max-min filling is a test oracle
    # (tests/lmm_reference.py), and the filling loop surfaces candidates
    # inline.
    r"solve_reference", r"_solve_subsystem_reference",
    r"_constraint_level", r"_peek_candidate",
    # An SMPI request makes progress through Communicator._progress only
    # (tests/test_smpi.py::TestOneSmpiProgressPath).
    r"_pull_envelope", r"_post_eager", r"_deliver\b", r"probe_unexpected",
    # A campaign run is one forked process with one recovery path: no
    # share-based pool, no env-only watchdog knob.
    r"_run_parallel", r"default_run_timeout", r"REPRO_CAMPAIGN_RUN_TIMEOUT",
    # The unused AMOK peer registry, the GRAS measure_block helper and
    # the sim-only msg_waiting probe (no real-life twin).
    r"PeerManager", r"measure_block", r"msg_waiting",
    # The cyclic collector is paused by repro.kernel.collector only:
    # paused_collector for a run, young_passes_only for one set-up call.
    # No size-gated policy, no freeze of the setup heap, no pause that
    # outlives a call, no per-engine knob (tests/test_collector.py,
    # tests/test_campaign.py::TestCollectorPolicy).
    r"_GC_POLICY_MIN_ACTORS", r"gc\.freeze\(", r"gc\.unfreeze\(",
    r"manage_gc:",
    # A timer query reads the cancelled slot inline: no dead-head
    # helper frame and no pending property
    # (tests/test_s4u_api.py::TestCallsPerActivity holds the ceiling).
    r"_drop_dead", r"def pending\b", r"\.pending\b",
    r"effective_weight", r"in_latency_phase",
    # The replay and ft options no caller set stay module constants
    # (payload_size is left out: smpi/datatypes.py defines a function of
    # that name; tests/test_replay.py::TestOnePipeline).
    r"supervisor_max_restarts", r"supervisor_window", r"check_period",
    r"on_escalate", r"retry_on", r"load_period",
    # SURF parameters no caller passed: a route's latency is the sum of
    # its links', the shards share one variable-id allocator set by
    # ShardedSurfEngine, and every shard uses the default network config.
    r"extra_latency", r"\bvar_ids\b", r"network_config",
    # The Gantt cell characters and the codec columns of the exchange
    # tables are module constants: no caller chose others.
    r"compute_char", r"comm_char", r"idle_char", r"\bcodecs:",
    # Second readers of a fact that has one, and accessors no code ran
    # (tests/never_run.py finds a dead re-addition; this rule finds one
    # that comes back with a caller): Engine.host is the host lookup,
    # PacketLink.bytes_sent the link's byte count, Supervisor.events the
    # tree's fingerprint, and no data description reads alignment.
    r"host_by_name", r"utilisation_bytes", r"by_category", r"busy_time",
    r"live_children", r"parked_children", r"alignment_of",
    r"type_alignments", r"registry_size",
    # The packet comparator's one event form: (date, seq, method, arg)
    # heap entries, links calling their packet's flow directly, a stale
    # retransmission timer recognised by its stamp, the drop-tail queue
    # inside PacketLink and the TCP parameters as module constants
    # (tests/test_packet.py).
    r"TcpConfig", r"tcp_config", r"ScheduledEvent", r"DropTailQueue",
    r"pending_delivery", r"schedule_at",
    # A context is its handoff: two contexts ready when created, no
    # abstract base, no start(), and a thread context hands the turn over
    # on a lock pair, not on Events (tests/test_kernel.py::TestThreadHandoff
    # counts the threading.py calls of a round trip).
    r"_kernel_turn", r"_process_turn", r"class Context\b",
    r"\bContextFactory\b", r"context\.start\(",
    # A GRAS payload's size is its bytes: no data description walks the
    # tree a second time to size a value, one HEADER_BYTES constant for
    # the GRAS header, no abstract stub (a base class states its interface
    # in its docstring) and no state that nothing reads
    # (tests/test_gras_datadesc.py, tests/test_wire_codecs.py).
    r"def wire_size\(self, value", r"NotImplementedError", r"_STRUCT_CODES",
    r"HEADER_OVERHEAD", r"gras_processes", r"is_server",
    # Each E2/E3 stack is one function of the message and the two
    # architectures: no codec class, cost record or unavailable error
    # (tests/test_wire_codecs.py::TestStacks).
    r"\bCodec\b", r"CodecUnavailableError", r"ConversionCost",
    r"all_codecs", r"conversion_operations",
    # Only what a user reaches (tests/user_reach.py): the JSON platform
    # format (the SimGrid XML reader is the one platform file format),
    # the Barabasi-Albert and hierarchical BRITE modes (E1 is Waxman),
    # Full routing (no platform file can select it) and readers that
    # only their own unit tests called.  Platform.route_latency ignored
    # the network model's latency_factor; the route latency is SURF's.
    r"platform_to_dict", r"platform_from_dict", r"save_platform",
    r"def zone_of\b", r"iter_subtree", r"set_gateway",
    r"make_barabasi_albert", r"make_hierarchical_topology",
    r"HIERARCHICAL_SEED", r"FullRouting", r"\"Full\"", r"class _Strategy",
    r"value_at", r"def constant\b", r"def peek\b", r"def progress\b",
    r"def set_priority\b", r"@remaining\.setter", r"def resource_of\b",
    r"def _dirty\b", r"def route_latency\b", r"def link_names\b",
    r"def run_until_idle\b", r"current_bandwidth", r"link_statistics",
    r"intervals_to_csv", r"record_event", r"def total_time\(self, row",
    r"def row\(self", r"def finished\b", r"waiting_send_count",
    r"def is_started\b", r"def is_suspended\(\)", r"def load\(self\)",
    r"def activities\b", r"def solve_all\b",
    # One public name per s4u operation (tests/user_reach.py's second
    # pass): the Engine forwards that duplicated an Actor, Activity, Host
    # or Link method, the this_actor twins and the asynchronous sleep no
    # MSG call stands for (sleep_for waits on no activity), Comm.detach
    # beside put_async(detached=True), and readers only their own tests
    # called.
    r"\bkill_actor\b", r"\bsuspend_actor\b", r"\bresume_actor\b",
    r"\bcancel_activity\b", r"def set_host_speed\b",
    r"def set_link_bandwidth\(self, link: Link\b",
    r"engine\.set_(host_speed|link_bandwidth)\b",
    r"^def (self_|get_engine|mailbox|exec_async|sleep_until|sleep_async|"
    r"yield_|exit)\b", r"def sleep_until\b", r"def sleep_async\b",
    r"def yield_\b", r"_do_yield", r"_do_sleep_async", r"\bclass Sleep\b",
    r"def detach\b", r"\.detach\(\)", r"def add_waiter\b", r"def push\b",
    r"def size\b", r"peek_payload",
    # A one-for-one supervisor: no strategy option, no nesting, deadline
    # or stop (tests/test_ft.py::TestSupervisor); no recovery scenario no
    # user ran; no campaign aggregation no user read.
    r"all_for_one", r"\bSTRATEGIES\b", r"def as_child\b", r"_DeadlineStop",
    r"timed_out", r"_deadline_fired", r"def stop\b", r"def done\b",
    r"recovery_polic", r"run_recovery_experiment", r"_recovery_worker",
    r"RECOVERY_POLICIES", r"def summarize\b", r"def _flatten\b",
    r"_percentile", r"to_report", r"write_json",
    # Echoes of a fact the caller already holds: CampaignResult.forked
    # (the caller passed the snapshot) and the MSG removal notice (Python's
    # own ImportError names the missing name;
    # tests/test_errors_and_api.py::TestRemovedMsgApi).
    r"\.forked\b", r"_MSG_REMOVED",
    # AMOK, GRAS and ft readers only their own unit tests called.
    r"interference_ratio", r"shares_bottleneck", r"def cluster_of\b",
    r"num_clusters", r"def roundtrip\b", r"is_declared",
    r"unregister_callback", r"is_suspected",
    # One benchmark record per simulated world, charged through one hook
    # (tests/test_bench_sampler.py): no per-process or per-rank recorder,
    # running average, reference speed, clock-reading macro or second
    # name for mpi.compute.
    r"bench_recorder", r"_inject_computation", r"reference_speed",
    r"charge_flops", r"def count_of\b", r"def duration_of\b",
    r"def has\(self, key",
    # An object no snapshot carries holds no copy that nothing reads
    # (tests/test_s4u_api.py::TestBytesPerActivity): no post date per
    # activity, no route copy per transfer.
    r"post_time", r"self\.links: List\[",
    # Options only a test set are module constants (tests/test_ft.py,
    # tests/test_replay.py, tests/test_packet.py monkeypatch them): BRITE's
    # alpha and bandwidth range, the retry backoff's shape, the replay's
    # detector period and ack timeout, the packet queue, the exchange
    # tables' conversion rate, AMOK's probe and the Pastry message's seed;
    # no Gantt row order, trace name when parsing, injector stop date or
    # SMPI run date.  A trace is iterated from date 0, and SMPI's bench
    # macros are the rank facade's, like GRAS's.  RealizedHost was built
    # by nothing.
    r"BriteConfig", r"lat_min", r"lat_max", r"bw_min", r"bw_max",
    r"self\.factor", r"max_delay", r"self\.jitter", r"detector_period",
    r"detector_timeout", r"ack_timeout", r"failing_fraction",
    r"queue_capacity", r"conversion_rate", r"probe_bytes",
    r"def make_pastry_message\(seed", r"rows: Optional",
    r"def parse\(cls, text: str, name", r"self\.until\b",
    r"iter_from\((self, )?start", r"start > trace\.period",
    r"SmpiSampler", r"\.sampler\b", r"RealizedHost",
    # A packet flow is its own result, run through one entry point
    # (tests/test_packet.py::TestSingleFlow): no flow spec or result
    # record, no flow id, no second way to register a flow, no completion
    # callback copying one record into the other.
    r"FlowSpec", r"FlowResult", r"add_flow", r"_on_flow_complete",
    r"flow_id", r"on_complete",
    # The engine hands a finished activity to its observers, and
    # repro.tracing alone decides its rows and categories
    # (test_the_engine_names_no_gantt_category): no engine-side hook, no
    # chart or row view over the recorder.  One passive stream
    # (Engine.observe) reports activity ends, speed changes and state
    # flips: no recorder argument, speed listener or link state hook
    # (tests/test_observe.py).
    r"_record_activity", r"GanttChart", r"GanttRow", r"recorder=",
    r"on_resource_speed_change", r"_notify_speed_change",
    r"_handle_speed_changes", r"on_link_state_change",
    # Timer and exit callbacks are partials over bound methods
    # (tests/test_snapshot.py::TestForkEqualsCold):
    # no callable class per callback.
    r"_Pulse\b", r"_ChildExit",
    # A zone's connect / add_route is the one checked path for a
    # topology change (tests/test_routing_zones.py::TestRouteCaches): no
    # second cache clear in the platform.
    r"_invalidate_route_caches",
    # The s4u kernel stores each fact once: an actor is alive or not and
    # suspended or not (no state enum), a dead timer entry is a cancelled
    # one (no fired flag), and an answer goes straight onto the ready
    # queue (no wrapper around its append)
    # (tests/test_s4u_api.py::TestActorLifecycle::
    # test_lifecycle_calls_that_change_nothing_are_no_ops).
    r"ActorState", r"def _enqueue", r"\.fired\b",
)


def test_no_retired_name_under_src():
    """A merge that brings back half of a deleted path is how a second
    way to do the same thing returns, so none of its names may."""
    assert _matching_lines("|".join(RETIRED_NAMES),
                           sorted(SRC.rglob("*.py"))) == []


#: A module-level ``import multiprocessing`` / ``import xml...``.
EAGER_IMPORT = (r"^(import\s+(multiprocessing|xml)\b|"
                r"from\s+(multiprocessing|xml)\b)")

#: The modules that import them lazily, inside the function that needs it.
LAZY_IMPORTERS = ("campaign/runner.py", "platform/loader.py")


def test_no_module_level_multiprocessing_or_xml_import():
    """``import repro`` and a serial campaign load neither: the campaign
    pool imports multiprocessing inside _run_forked, the platform loader
    the XML parser inside _load_xml
    (tests/test_campaign.py::TestRunCampaign::
    test_serial_campaign_loads_neither_multiprocessing_nor_xml)."""
    files = [REPRO / name for name in LAZY_IMPORTERS]
    assert _matching_lines(EAGER_IMPORT, files) == []


#: The ``time`` functions that read the wall clock.
WALL_CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic",
               "monotonic_ns", "time", "time_ns"}

#: The only readers of the wall clock under ``src/repro``, as
#: ``path::qualname`` (``*``: the whole module), none inside a simulation.
WALL_CLOCK_READERS = {
    # the benchmark phase, run before a simulation
    "gras/bench.py::BenchRecorder.measure",
    # real-life GRAS, where the wall clock is the world's clock
    "gras/rl_backend.py::*",
    # the parent's timeout over forked campaign runs, outside every
    # simulation (tests/test_campaign.py::TestSnapshotFanout)
    "campaign/runner.py::_run_forked",
}


def _scoped_nodes(path):
    """``(qualname, node)`` for every node of ``path``'s syntax tree,
    ``qualname`` naming the classes and functions around it (``""`` at
    module level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            yield ".".join(scope), child
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text()), [])


def _wall_clock_reads(path):
    """``qualname:line`` of every ``time.<clock>`` use and every clock
    imported from ``time`` in ``path``."""
    return [(qualname, node.lineno)
            for qualname, node in _scoped_nodes(path)
            if (isinstance(node, ast.Attribute)
                and node.attr in WALL_CLOCKS
                and isinstance(node.value, ast.Name)
                and node.value.id == "time") or (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name in WALL_CLOCKS
                        for alias in node.names))]


def test_no_wall_clock_inside_a_simulation():
    """A simulated date depends on the platform, the program and the
    benchmark record only: ``bench_once`` / ``bench_always`` charge the
    world's record, measured before the run, and no simulation code reads
    a clock (tests/test_bench_sampler.py::test_sampler_charges_the_record,
    tests/test_examples.py::TestSmpiMatmul)."""
    found = []
    for path in sorted(REPRO.rglob("*.py")):
        where = path.relative_to(REPRO).as_posix()
        for qualname, line in _wall_clock_reads(path):
            if {f"{where}::{qualname}", f"{where}::*"} & WALL_CLOCK_READERS:
                continue
            found.append(f"{where}:{line} in {qualname or '<module>'}")
    assert found == []


#: The layers that build a route and sum its latency.
LATENCY_LAYERS = ("surf", "platform")


def _calls(node, name):
    """Whether ``node`` is a call of the bare name ``name``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _names_a_latency(node):
    """Whether a name or attribute inside ``node`` says "latency"."""
    return any("latency" in name.lower()
               for sub in ast.walk(node)
               for name in (getattr(sub, "id", ""), getattr(sub, "attr", "")))


def _latency_sums_and_loops():
    """Under :data:`LATENCY_LAYERS`: ``path::qualname`` of every
    ``sum(map(...))`` call, and ``path:line in qualname`` of every ``+=``
    whose target or value names a latency."""
    sums, loops = [], []
    for layer in LATENCY_LAYERS:
        for path in sorted((REPRO / layer).rglob("*.py")):
            where = path.relative_to(REPRO).as_posix()
            for qualname, node in _scoped_nodes(path):
                if (_calls(node, "sum") and node.args
                        and _calls(node.args[0], "map")):
                    sums.append(f"{where}::{qualname}")
                if (isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.Add)
                        and _names_a_latency(node)):
                    loops.append(f"{where}:{node.lineno} in {qualname}")
    return sums, loops


def test_the_route_latency_is_one_sum_of_a_map():
    """Python 3.12's ``sum`` of floats is compensated, so a ``+=`` loop
    and ``sum`` give different doubles there: a route's latency is the one
    ``sum(map(...))`` call in ``NetworkModel.communicate``, and nothing
    under ``surf/`` or ``platform/`` accumulates a latency with ``+=``
    (the dates it feeds: tests/test_surf_models.py::TestNetworkModel)."""
    assert _latency_sums_and_loops() == (
        ["surf/network.py::NetworkModel.communicate"], [])


#: The LMM's running aggregates, and the only code under ``surf/`` that
#: may touch them: their initialisation and the one solve that uses them.
RUNNING_AGGREGATES = {"_rem", "_denom", "_live"}
AGGREGATE_USERS = ["lmm.py::Constraint.__init__",
                   "lmm.py::MaxMinSystem._progressive_filling"]


def test_the_running_aggregates_are_one_solves_state():
    """``Constraint._rem``, ``_denom`` and ``_live`` are reset and used
    inside ``_progressive_filling`` only, so no stale aggregate can leak
    from one solve into the next
    (tests/test_lmm_lazy.py::test_general_path_is_pinned_to_the_bit).
    The rule reads ``surf/`` only: ``Supervisor._live`` is another
    attribute."""
    users = {f"{path.relative_to(REPRO / 'surf').as_posix()}::{qualname}"
             for path in sorted((REPRO / "surf").rglob("*.py"))
             for qualname, node in _scoped_nodes(path)
             if isinstance(node, ast.Attribute)
             and node.attr in RUNNING_AGGREGATES}
    assert sorted(users) == AGGREGATE_USERS


def _imports(path):
    """The module names ``path`` imports, at any depth."""
    return {name for node in ast.walk(ast.parse(path.read_text()))
            for name in ([alias.name for alias in node.names]
                         if isinstance(node, ast.Import)
                         else [node.module or ""]
                         if isinstance(node, ast.ImportFrom) else [])}


def test_the_engine_names_no_gantt_category():
    """The engine knows no tracing: no module under ``s4u/`` imports
    ``repro.tracing``, and a finished activity reaches a
    :class:`~repro.tracing.Recorder` only as an ``"end"`` event of the
    one stream (``Engine.observe``).  ``Engine._emit`` alone delivers
    that stream: it is the one method that iterates ``_observers``, and
    elsewhere the engine reads ``_observers`` only in ``observe``, which
    subscribes, and as the bare test of an ``if`` that guards a delivery,
    so an engine nobody observes pays one attribute test per finished
    activity.  No Gantt category appears in ``s4u/engine.py``:
    ``repro.tracing`` alone decides a finished activity's rows and
    categories (tests/test_tracing.py::TestGanttChart).  ``"compute"`` is
    also the name an ``exec_async`` activity gets, which is not a
    category."""
    from repro.tracing import COMM_CATEGORIES, COMPUTE_CATEGORIES
    assert [path.name for path in sorted((REPRO / "s4u").glob("*.py"))
            if any(name.startswith("repro.tracing")
                   for name in _imports(path))] == []
    engine_py = REPRO / "s4u" / "engine.py"
    nodes = list(_scoped_nodes(engine_py))
    # An if's test, or one operand of the ``and`` that is its test.
    guards = {id(test) for _, node in nodes if isinstance(node, ast.If)
              for test in [node.test, *getattr(node.test, "values", ())]}
    loops = {id(node.iter): qualname for qualname, node in nodes
             if isinstance(node, ast.For)}
    reads = [(qualname, node) for qualname, node in nodes
             if isinstance(node, ast.Attribute) and node.attr == "_observers"
             and isinstance(node.ctx, ast.Load)]
    assert sorted(loops[id(node)] for _, node in reads
                  if id(node) in loops) == ["Engine._emit"]
    assert [f"engine.py:{node.lineno}: {qualname}"
            for qualname, node in reads
            if qualname not in ("Engine._emit", "Engine.observe")
            and id(node) not in guards] == []
    assert [path.name for path in sorted(REPRO.rglob("*.py"))
            if path != engine_py and "_observers" in path.read_text()] == []
    tree = ast.parse(engine_py.read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = {id(arg) for call in calls
             if getattr(call.func, "attr", None) == "_new_exec"
             for arg in call.args}
    assert [f"engine.py:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in names
            and node.value in COMPUTE_CATEGORIES | COMM_CATEGORIES] == []


#: The timing plugin's fixture; the plugin's module is named after it.
TIMING_FIXTURE = "benchmark"
TIMING_PLUGIN = "pytest_" + TIMING_FIXTURE


def _timing_plugin_uses(path):
    """``(line, what)`` for every function taking the timing fixture and
    every import of the timing plugin in one file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args
            if any(arg.arg == TIMING_FIXTURE for arg in (
                    params.posonlyargs + params.args + params.kwonlyargs)):
                yield node.lineno, f"def {node.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == TIMING_PLUGIN:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == TIMING_PLUGIN:
                yield node.lineno, f"from {node.module} import"


def test_no_test_requests_the_timing_fixture():
    """perfbench/ is the only timer and CI does not install the timing
    plugin, so a test asking for its fixture would pass on a machine that
    has the plugin and fail only in CI: no test under tests/ or
    benchmarks/ requests it or imports the plugin."""
    files = sorted(path for folder in ("tests", "benchmarks")
                   for path in (ROOT / folder).rglob("*.py"))
    assert [f"{path.relative_to(ROOT)}:{line}: {what}"
            for path in files
            for line, what in _timing_plugin_uses(path)] == []


#: The trees of the user runs (those tests/user_reach.py runs): only a
#: call there sets a parameter of ``src/repro`` — one that only a test
#: sets is configuration that no user exercises.
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")

#: Defaulted parameters that no user run sets and that stay anyway, as
#: ``path::qualname(param)`` (paths relative to ``src/repro``) with the
#: verdict.  Each verdict opens with its class and cites the test that
#: sets the parameter: (a) the pinned kernel and snapshot blob, whose
#: turn comes with ROADMAP item 1; (b) a paper layer's call signature
#: (MPI, MSG/s4u, GRAS, or a SimGrid platform or trace file); (s) a safety
#: bound that the cited test trips; (o) a hook that an oracle under
#: ``tests/`` drives.
_BLOB = ("perfbench/tests/test_perfbench.py::"
         "test_every_workload_matches_its_tiny_golden")
_S4U_ARGS = ("tests/test_s4u_api.py::TestArgumentsAreCheckedInTheActor::"
             "test_value_error_at_the_call_site_and_the_run_goes_on")
_SMPI = "tests/test_smpi.py::"
_LMM_ORACLE = ("tests/lmm_reference.py::solve_reference and "
               "tests/test_lmm_lazy.py::"
               "test_property_incremental_solver_matches_reference_solver")
UNSET_BY_DESIGN = {
    # (a) the pinned kernel and snapshot blob
    "platform/platform.py::HostSpec(index)":
        "(a) declaration index, assigned by add_host and pickled in "
        "every snapshot; " + _BLOB,
    "platform/platform.py::HostSpec(properties)":
        "(a) a host's property map, which only the JSON platform format "
        "set; pickled in every snapshot; " + _BLOB,
    "platform/platform.py::LinkSpec(index)":
        "(a) declaration index, assigned by add_link and pickled in "
        "every snapshot; " + _BLOB,
    "platform/platform.py::Platform.__init__(route_cache_size)":
        "(a) sizes the route caches that perfbench's route counters pin; "
        "tests/test_routing_zones.py::TestRouteCaches::"
        "test_platform_route_cache_is_bounded",
    "platform/platform.py::Platform.add_zone(parent)":
        "(a) the zone tree, pickled in every snapshot, goes with ROADMAP "
        "item 2; tests/test_routing_zones.py::TestHierarchicalRoutes::"
        "test_nested_zones_route_through_both_gateways",
    "platform/platform.py::Platform.add_zone(gateway)":
        "(a) the zone tree, pickled in every snapshot, goes with ROADMAP "
        "item 2; tests/test_routing_zones.py::TestHierarchicalRoutes::"
        "test_explicit_gateway_overrides_first_node",
    "platform/routing.py::NetZone.__init__(gateway)":
        "(a) the zone tree, pickled in every snapshot, goes with ROADMAP "
        "item 2; Platform.add_zone passes its gateway through; "
        "tests/test_routing_zones.py::TestHierarchicalRoutes::"
        "test_explicit_gateway_overrides_first_node",
    "surf/action.py::Action.__init__(priority)":
        "(a) the LMM sharing weight of a kernel action, pickled with it; "
        "tests/test_s4u_ported_msg.py::TestExecutionPhysics::"
        "test_execution_priority",
    "surf/lmm.py::MaxMinSystem.check_feasible(tol)":
        "(a) the tolerance of the LMM solver's feasibility check; "
        "tests/test_lmm.py::test_property_solution_is_feasible",
    # (b) paper layers' call signatures
    "s4u/activity.py::ActivitySet.wait_all(timeout)":
        "(b) MSG_comm_waitall's timeout; tests/test_s4u_api.py::"
        "TestEveryWaitEveryEnding::test_one_outcome_and_nothing_left_behind",
    "s4u/actor.py::Actor.exec_async(priority)":
        "(b) s4u Exec::set_priority, execute's priority; " + _S4U_ARGS,
    "s4u/actor.py::Actor.exec_async(bound)":
        "(b) s4u Exec::set_bound, execute's bound; " + _S4U_ARGS,
    "s4u/actor.py::Actor.exec_async(host)":
        "(b) s4u Exec::set_host, a remote execution; tests/test_s4u_api.py::"
        "TestActivitySet::test_wait_any_reaps_failed_member_and_set_empties",
    "s4u/failure.py::FailureInjector.__init__(links)":
        "(b) link failures, which a SimGrid platform file declares as a "
        "link's state trace; tests/test_zoned_pins.py::"
        "test_flat_log_is_pinned",
    "s4u/mailbox.py::Mailbox.put(rate)":
        "(b) MSG_task_put_bounded's rate; tests/test_s4u_ported_msg.py::"
        "TestCommunicationPhysics::test_rate_limited_put",
    "s4u/mailbox.py::Mailbox.put(priority)":
        "(b) MSG_task_set_priority on a sent task; " + _S4U_ARGS,
    "s4u/mailbox.py::Mailbox.put_async(rate)":
        "(b) MSG_task_put_bounded's rate, asynchronous; " + _S4U_ARGS,
    "s4u/mailbox.py::Mailbox.put_async(priority)":
        "(b) MSG_task_set_priority on a sent task, asynchronous; "
        + _S4U_ARGS,
    "s4u/mailbox.py::Mailbox.get_async(rate)":
        "(b) a receive's rate bound, as get's; " + _S4U_ARGS,
    "smpi/comm.py::Communicator.send(count)":
        "(b) MPI_Send's count argument; " + _SMPI
        + "TestRequestProgress::test_send_timeout_keeps_the_posted_receive",
    "smpi/comm.py::Communicator.send(datatype)":
        "(b) MPI_Send's datatype argument; " + _SMPI
        + "TestRequestProgress::test_send_timeout_keeps_the_posted_receive",
    "smpi/comm.py::Communicator.isend(tag)":
        "(b) MPI_Isend's tag argument; " + _SMPI
        + "TestPointToPoint::test_isend_irecv_wait",
    "smpi/comm.py::Communicator.isend(count)":
        "(b) MPI_Isend's count argument; " + _SMPI
        + "TestPointToPoint::test_isend_irecv_wait",
    "smpi/comm.py::Communicator.isend(datatype)":
        "(b) MPI_Isend's datatype argument; " + _SMPI
        + "TestPointToPoint::test_isend_irecv_wait",
    "smpi/comm.py::Communicator.issend(tag)":
        "(b) MPI_Issend's tag argument; " + _SMPI
        + "TestWaitall::test_symmetric_issend_exchange_completes_like_waitany",
    "smpi/comm.py::Communicator.issend(count)":
        "(b) MPI_Issend's count argument; " + _SMPI
        + "TestRequestProgress::test_failed_issend_raises",
    "smpi/comm.py::Communicator.issend(datatype)":
        "(b) MPI_Issend's datatype argument; " + _SMPI
        + "TestRequestProgress::test_failed_issend_raises",
    "smpi/comm.py::Communicator.recv(return_status)":
        "(b) MPI_Recv's status argument; " + _SMPI
        + "TestPointToPoint::test_any_source_any_tag",
    "smpi/comm.py::Communicator.sendrecv(send_tag)":
        "(b) MPI_Sendrecv's sendtag argument; " + _SMPI
        + "TestPointToPoint::test_sendrecv_ring",
    "smpi/comm.py::Communicator.sendrecv(recv_tag)":
        "(b) MPI_Sendrecv's recvtag argument; " + _SMPI
        + "TestPointToPoint::test_sendrecv_ring",
    "smpi/comm.py::Communicator.iprobe(source)":
        "(b) MPI_Iprobe's source argument; tests/test_migration_equivalence"
        ".py::TestPortPrimitives::test_smpi_iprobe_and_unexpected_queue",
    "smpi/comm.py::Communicator.iprobe(tag)":
        "(b) MPI_Iprobe's tag argument; tests/test_migration_equivalence"
        ".py::TestPortPrimitives::test_smpi_iprobe_and_unexpected_queue",
    "smpi/collectives.py::scatter(root)":
        "(b) MPI_Scatter's root argument; " + _SMPI
        + "TestCollectives::test_scatter_from_the_last_rank",
    # (s) safety bounds
    "campaign/runner.py::run_campaign(run_timeout)":
        "(s) the watchdog over a hung forked run; tests/test_campaign.py::"
        "TestRunWatchdog::test_hung_run_times_out_and_retries_elsewhere",
    "s4u/engine.py::Engine.__init__(raise_on_deadlock)":
        "(s) turns a deadlock into an error; tests/test_s4u_ported_msg.py::"
        "TestDeadlock::test_deadlock_raises_when_requested",
    "smpi/comm.py::Communicator.recv(timeout)":
        "(s) a receive's deadline; " + _SMPI + "TestRequestProgress::"
        "test_timeout_is_a_deadline_across_nonmatching_messages",
    "smpi/comm.py::Communicator.waitany(timeout)":
        "(s) a wait's deadline; " + _SMPI + "TestRequestProgress::"
        "test_timeout_is_a_deadline_across_nonmatching_messages",
    # (o) hooks an oracle drives
    "surf/lmm.py::MaxMinSystem.solve(_subsolver)":
        "(o) the reference filling's entry; " + _LMM_ORACLE,
    "surf/lmm.py::MaxMinSystem.solve_grouped(_subsolver)":
        "(o) the reference filling's entry, grouped; tests/test_lmm_lazy.py"
        "::test_general_path_is_pinned_to_the_bit",
}


def _names(nodes):
    """The bare names of decorators or base classes."""
    for node in nodes:
        node = node.func if isinstance(node, ast.Call) else node
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _defaulted(func, bound):
    """``(position, name)`` of every defaulted parameter of ``func``;
    ``bound`` drops ``self``/``cls``, keyword-only ones have position
    None."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first = len(positional) - len(args.defaults)
    return ([(index, arg.arg) for index, arg in enumerate(positional)
             if index >= first]
            + [(None, arg.arg) for arg, default
               in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _dataclass_fields(node):
    """``(position, name)`` of every defaulted ``__init__`` field."""
    position = 0
    for stmt in node.body:
        if (not isinstance(stmt, ast.AnnAssign)
                or not isinstance(stmt.target, ast.Name)
                or "ClassVar" in ast.dump(stmt.annotation)):
            continue
        value = stmt.value
        options = {}
        if isinstance(value, ast.Call) and "field" in _names([value]):
            options = {k.arg: k.value for k in value.keywords}
        init = options.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        if value is not None and (not options or "default" in options
                                  or "default_factory" in options):
            yield position, stmt.target.id
        position += 1


def _public_callables(path):
    """``(callee, qualname, defaulted)`` for every public module-level
    function, public class (its ``__init__`` and dataclass fields are
    reached by calling the class) and public method in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _defaulted(node, False)
        elif isinstance(node, ast.ClassDef):
            if "dataclass" in _names(node.decorator_list):
                yield node.name, node.name, list(_dataclass_fields(node))
            for method in node.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("_")
                        and method.name != "__init__"):
                    continue
                decorators = set(_names(method.decorator_list))
                if decorators & {"property", "setter"}:
                    continue
                callee = (node.name if method.name == "__init__"
                          else method.name)
                yield (callee, f"{node.name}.{method.name}",
                       _defaulted(method, "staticmethod" not in decorators))


def _sets(shape, position, param):
    """Whether a call of ``shape`` sets the parameter ``param`` found at
    ``position`` (None: keyword-only)."""
    positional, keywords, star = shape
    return (star or param in keywords
            or (position is not None and positional > position))


class _CallShapes(ast.NodeVisitor):
    """Every call in the caller trees as ``[positional, keywords, star]``
    under its callee's bare name (``f(...)``, ``x.f(...)``;
    ``super().__init__(...)`` calls each base class).

    ``star`` is True for a ``*``/``**`` argument — it may set anything —
    unless the argument only forwards the enclosing function's own
    ``*args``/``**kwargs``.  A keyword whose value is a defaulted
    parameter of the enclosing function (``p=p``) is a named forward.  A
    forward sets what the enclosing function's callers pass through it
    (:meth:`resolve_forwards`)."""

    def __init__(self):
        self.shapes = defaultdict(list)
        self.forwards = []
        self.named = []
        self.functions = []
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and "super" in _names([func.value]) and self.classes):
            callees = list(_names(self.classes[-1].bases))
        else:
            callees = list(_names([func]))
        stars = [arg.value for arg in node.args
                 if isinstance(arg, ast.Starred)]
        stars += [kw.value for kw in node.keywords if kw.arg is None]
        outer = self.functions[-1] if self.functions else None
        own, defaulted, name = set(), {}, None
        if outer is not None:
            own = {arg.arg for arg in (outer.args.vararg, outer.args.kwarg)
                   if arg is not None}
            params = [arg.arg for arg in outer.args.args]
            bound = bool(params) and params[0] in ("self", "cls")
            defaulted = {param: position for position, param
                         in _defaulted(outer, bound)}
            name = outer.name
            if name == "__init__" and self.classes:
                name = self.classes[-1].name
        forwarded = {star.id for star in stars
                     if isinstance(star, ast.Name) and star.id in own}
        forwards = bool(stars) and len(forwarded) == len(stars)
        named = [(kw.arg, kw.value.id) for kw in node.keywords
                 if kw.arg and isinstance(kw.value, ast.Name)
                 and kw.value.id in defaulted]
        for callee in callees:
            shape = [len([arg for arg in node.args
                          if not isinstance(arg, ast.Starred)]),
                     {kw.arg for kw in node.keywords if kw.arg}
                     - {keyword for keyword, _ in named},
                     bool(stars) and not forwards]
            self.shapes[callee].append(shape)
            if forwards:
                self.forwards.append((shape, shape[0], outer.args, name,
                                      forwarded))
            for keyword, param in named:
                self.named.append((shape, keyword, name, defaulted[param],
                                   param))

    def resolve_forwards(self):
        """Add to each forwarding call what the enclosing function's
        callers pass through it: beyond its named parameters for a
        ``*``/``**`` forward, the parameter itself for a named one.  A
        forward of a forward is resolved too (to a fixed point)."""
        changed = True
        while changed:
            changed = False
            for shape, base, args, name, forwarded in self.forwards:
                named = [arg.arg for arg in args.posonlyargs + args.args]
                bound = bool(named) and named[0] in ("self", "cls")
                keywords = set(named) | {arg.arg for arg in args.kwonlyargs}
                before = [shape[0], set(shape[1]), shape[2]]
                for positional, passed, star in self.shapes[name]:
                    shape[2] = shape[2] or star
                    if (args.vararg is not None
                            and args.vararg.arg in forwarded):
                        shape[0] = max(shape[0], base + positional
                                       - len(named) + bound)
                    if args.kwarg is not None and args.kwarg.arg in forwarded:
                        shape[1] |= passed - keywords
                changed = changed or shape != before
            for shape, keyword, name, position, param in self.named:
                if keyword not in shape[1] and any(
                        _sets(caller, position, param)
                        for caller in self.shapes[name]):
                    shape[1].add(keyword)
                    changed = True


def _unset_parameters(root=ROOT):
    """``path::qualname(param)`` of every defaulted parameter of a public
    callable under ``root/src/repro`` that no call in ``root``'s caller
    trees sets."""
    visitor = _CallShapes()
    bases = {}
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            visitor.visit(module)
            if tree == "src":
                for node in ast.walk(module):
                    if isinstance(node, ast.ClassDef) and not any(
                            isinstance(stmt, ast.FunctionDef)
                            and stmt.name == "__init__"
                            for stmt in node.body):
                        bases[node.name] = list(_names(node.bases))
    visitor.resolve_forwards()
    shapes = visitor.shapes
    # Calling a subclass that has no __init__ of its own calls its base's.
    for name, parents in bases.items():
        for parent in parents:
            shapes[parent].extend(shapes.get(name, []))
    unset = []
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        for callee, qualname, defaulted in _public_callables(path):
            for position, param in defaulted:
                if not any(_sets(shape, position, param)
                           for shape in shapes.get(callee, ())):
                    unset.append(f"{where}::{qualname}({param})")
    return unset


def test_every_defaulted_parameter_has_a_caller():
    """An option that no user run sets is a configuration nobody
    exercises: it becomes a module constant with its old default (a test
    that needs another value monkeypatches the constant; a field that is
    state becomes ``field(init=False)``, one nothing reads goes).  A call
    sets a parameter by keyword, by position, through ``*``/``**`` or
    through a named forward (``p=p``) of a parameter that a caller of the
    enclosing function sets; callees are matched by bare name, and a call
    under ``tests/`` sets nothing.  :data:`UNSET_BY_DESIGN` lists the exceptions; an entry that
    no longer exists, or that a user run now sets, is stale and fails
    too."""
    unset = _unset_parameters()
    assert [entry for entry in unset if entry not in UNSET_BY_DESIGN] == []
    assert sorted(set(UNSET_BY_DESIGN) - set(unset)) == []


def test_only_a_user_tree_sets_an_option(tmp_path):
    """The scan reads calls in :data:`CALLER_TREES` only: in a tiny
    package, an option that only a test sets is reported and one that an
    example sets is not."""
    for name, text in {
            "src/repro/mod.py":
                "def f(a, by_test=1, by_example=2):\n    return a\n",
            "tests/test_mod.py": "from repro.mod import f\nf(0, by_test=3)\n",
            "examples/demo.py":
                "from repro.mod import f\nf(0, by_example=3)\n"}.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert _unset_parameters(tmp_path) == ["mod.py::f(by_test)"]


@pytest.mark.parametrize("call, unset", [
    ("g(0)", ["mod.py::f(p)", "mod.py::g(p)", "mod.py::h(p)"]),
    ("g(0, p=2)", ["mod.py::h(p)"]),
    ("h(0, p=2)", []),
])
def test_a_named_forward_sets_what_its_callers_pass(tmp_path, call, unset):
    """``f(a, p=p)`` inside ``g(a, p=1)`` sets ``f(p)`` only when a user
    call sets ``g(p)``, through any number of such forwards."""
    for name, text in {
            "src/repro/mod.py":
                "def f(a, p=1):\n    return a\n\n\n"
                "def g(a, p=1):\n    return f(a, p=p)\n\n\n"
                "def h(a, p=1):\n    return g(a, p=p)\n",
            "examples/demo.py": f"from repro.mod import g, h\n{call}\n"}.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert _unset_parameters(tmp_path) == unset


#: A verdict's opening class: see :data:`UNSET_BY_DESIGN`.
VERDICT_CLASS = re.compile(r"\([abso]\) ")


def test_every_unset_option_names_its_class_and_test():
    """Each :data:`UNSET_BY_DESIGN` verdict opens with its class, (a),
    (b), (s) or (o), and cites at least one test, which must resolve."""
    assert [entry for entry, verdict in UNSET_BY_DESIGN.items()
            if not VERDICT_CLASS.match(verdict)
            or not CITATION.search(verdict)] == []
    assert _unresolved({citation.group(0)
                        for verdict in UNSET_BY_DESIGN.values()
                        for citation in CITATION.finditer(verdict)}) == []


#: A cited test or test helper: ``tests/<file>.py::Name``,
#: ``perfbench/tests/<file>.py::Class::test``, ``benchmarks/<file>.py::test``
#: or ``...::test[param]``.
CITATION = re.compile(r"(?<![\w/])"
                      r"((?:(?:perfbench/)?tests|benchmarks)/[\w/]+\.py)"
                      r"((?:::[\w.\[\]-]+)+)")


def _unresolved(citations):
    """``citation: why`` for every citation that names nothing.  Each file
    is the module pytest already imported from it, else a fresh load of
    it; the names after the path are walked with ``getattr`` (``::`` or
    ``.`` between them), a parametrized id naming its function."""
    modules = {pathlib.Path(module.__file__).resolve(): module
               for module in list(sys.modules.values())
               if getattr(module, "__file__", None)}
    problems = []
    for citation in sorted(citations):
        match = CITATION.fullmatch(citation)
        path = ROOT / match.group(1)
        if not path.is_file():
            problems.append(f"{citation}: no such file")
            continue
        if path not in modules:
            spec = importlib.util.spec_from_file_location(
                f"_cited_{path.stem}", path)
            modules[path] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[path])
        target = modules[path]
        names = re.split(r"::|\.", re.sub(r"\[[^]]*\]?", "", match.group(2)))
        for name in filter(None, names):  # a sentence's full stop names none
            if not hasattr(target, name):
                problems.append(f"{citation}: {name} is not defined there")
                break
            target = getattr(target, name)
    return problems


def test_every_kept_verdict_cites_a_test_that_exists():
    """A verdict of ``tests/user_reach.py``'s ``KEPT`` table says which
    test covers the definition it keeps: a renamed or deleted test would
    leave the verdict pointing at nothing, so every cited
    ``tests/…::Name`` must resolve (the file exists and defines the class
    or function, and the method inside that class)."""
    import user_reach

    cited = {citation.group(0)
             for verdict in user_reach.KEPT.values()
             for citation in CITATION.finditer(verdict)}
    assert len(cited) >= 20  # the pattern did find the citations
    assert _unresolved(cited) == []


#: The documents whose rules name the tests that hold them.
CITING_DOCUMENTS = ("docs/INVARIANTS.md", "ROADMAP.md")

#: A ``file.py:NNN`` citation, which rots with every edit above the line.
LINE_CITATION = re.compile(r"[\w/.-]+\.py:\d+")


def test_every_documented_rule_cites_a_test_that_exists():
    """Each rule of ``docs/INVARIANTS.md`` ends in the node id of the test
    that holds it, and ``ROADMAP.md`` cites tests the same way: every
    ``tests/…::Name``, ``perfbench/tests/…::Name`` and
    ``benchmarks/…::Name`` there must resolve, and neither file may cite
    a source line by number."""
    cited = set()
    lines = []
    for name in CITING_DOCUMENTS:
        text = (ROOT / name).read_text()
        cited |= {citation.group(0) for citation in CITATION.finditer(text)}
        lines += [f"{name}:{number}: {match.group(0)}"
                  for number, line in enumerate(text.splitlines(), 1)
                  for match in LINE_CITATION.finditer(line)]
    assert len(cited) >= 50  # the pattern did find the citations
    assert _unresolved(cited) == []
    assert lines == []


#: An import kept on purpose (for its side effect, or to time it) says so.
DELIBERATE_IMPORT = "noqa: F401"


def _unused_imports(path):
    """``path:line: name`` for every name an import binds in ``path`` that
    nothing there reads: no ``Name`` node, ``__all__`` entry or string
    annotation.  ``from __future__`` imports and imports marked
    :data:`DELIBERATE_IMPORT` are left out."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom)
                and node.module != "__future__") \
                and DELIBERATE_IMPORT not in lines[node.lineno - 1]:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    yield f"{path.relative_to(ROOT)}:{node.lineno}: {name}"


def test_no_unused_import():
    """An import nothing reads is a dependency that only looks real.  A
    package's ``__init__.py`` re-exports what it imports, so it is left
    out."""
    files = sorted(path for tree in CALLER_TREES + ("tests",)
                   for path in (ROOT / tree).rglob("*.py")
                   if path.name != "__init__.py")
    assert [unused for path in files
            for unused in _unused_imports(path)] == []
