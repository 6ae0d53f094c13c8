"""Source rules: imports and names that must not come back under ``src/``,
and the timing fixture that must not come back under ``tests/`` or
``benchmarks/``.

Each rule reads the source (line by line, like ``grep -nE``, or as a
syntax tree) and fails listing every matching ``path:line``.  The
behaviour behind a rule is tested elsewhere (named in each docstring); the
rule catches the regression in the source before any of it runs.
"""

import ast
import pathlib
import re

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
    # The cyclic collector is paused for a run by
    # repro.kernel.collector.paused_collector only: no size-gated policy,
    # no freeze of the setup heap, no per-engine knob
    # (tests/test_collector.py, tests/test_campaign.py::TestCollectorPolicy).
    r"_GC_POLICY_MIN_ACTORS", r"gc\.freeze\(", r"gc\.unfreeze\(",
    r"manage_gc:",
    # A timer query reads the cancelled/fired slots inline: no dead-head
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
