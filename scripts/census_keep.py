"""Why each ``src/repro`` function the product never runs stays: the keep-literal of
``scripts/census.py``, one reason to a line, then the ``fnmatch`` patterns it covers.

A test-only or never-run function is deleted with the tests that only exercised it,
or it is named here. A pattern that no longer matches such a function is stale, and
the census fails on it as it fails on an unexplained function.
"""

KEEP = {
    "debugging aid: a traceback, a debugger or a pytest failure report prints it":
        "*.__repr__ *.__str__",
    "immutability guard: raises on any write":
        "*.__setattr__ *.__delattr__",
    "value semantics of an immutable record; the oracle and unit tests compare by it":
        "*.__eq__ *.__hash__",
    "copy protocol: an immutable value or a singleton copies as itself":
        "*.__copy__",
    "scenario contract: the cells that call it run on the object engine only, and "
    "ScenarioContract holds both engines to it":
        "repro.columnar.scenario:ColumnarScenario.nat_class_members "
        "repro.columnar.scenario:ColumnarScenario.sample_class_counts "
        "repro.columnar.scenario:ColumnarScenario.view_age_histogram "
        "repro.columnar.engine:ColumnarEngine.view_age_histogram "
        "repro.workload.scenario:BaseScenario.in_degree_histogram",
    "Algorithm 1's join path (ScenarioConfig.identify_nat_types): ROADMAP item 18 earns "
    "it a cell or deletes it":
        "repro.workload.scenario:Scenario._finish_node_with_identification* "
        "repro.bootstrap.registry:BootstrapRegistry.all_public "
        "repro.bootstrap.registry:BootstrapRegistry.__len__ "
        "repro.natid.protocol:NatIdentificationResult.is_public "
        "repro.net.address:NodeAddress.with_nat_type",
    "accumulator API that tests/test_streaming_histograms.py pins against Counter and "
    "Algorithm R":
        "repro.columnar.streaming:*.__len__ repro.columnar.streaming:StreamingHistogram.add "
        "repro.columnar.streaming:StreamingHistogram.add_many "
        "repro.columnar.streaming:StreamingHistogram.merge",
    "inspection hook: the unit and oracle tests read a node's state through it":
        "repro.core.estimator:RatioEstimator.current_round_hits "
        "repro.core.estimator:RatioEstimator.history_snapshot "
        "repro.core.estimator:RatioEstimator.neighbour_estimate* "
        "repro.membership.view:PartialView.__contains__ repro.membership.view:PartialView.__len__ "
        "repro.membership.view:PartialView.clear repro.membership.view:PartialView.get "
        "repro.membership.view:PartialView.node_ids repro.workload.scenario:Scenario.pss_of "
        "repro.simulator.component:Component.self_endpoint "
        "repro.simulator.monitor:TrafficMonitor.node_traffic",
    "a small accessor kept with the unit test that pins it":
        "repro.core.estimator:RatioEstimate.aged "
        "repro.core.estimator:RatioEstimate.is_fresher_than "
        "repro.membership.descriptor:NodeDescriptor.aged "
        "repro.membership.descriptor:NodeDescriptor.copy "
        "repro.membership.descriptor:NodeDescriptor.is_fresher_than "
        "repro.metrics.collector:merge_series repro.metrics.graph:out_degrees "
        "repro.nat.allocator:PortAllocator.in_use "
        "repro.workload.churn:ChurnProcess.replacement_rate_per_second "
        "repro.workload.ratio:RatioGrowthProcess.end_ms",
    "tests/data/golden_croupier_seed7.json pins it":
        "repro.simulator.network:Network.packets_delivered",
    "the figure benches (benchmarks/test_bench_fig*.py) read a figure along its sweep axis":
        "repro.experiments.figures:FigureResult.by repro.experiments.figures:FigureResult.scalars",
    "undoes a run-time registration; the tests register throwaway kinds, protocols and "
    "timelines":
        "repro.experiments.matrix:unregister_scenario "
        "repro.membership.plugin:unregister_protocol repro.workload.timeline:unregister_timeline",
    "lists the registered names in an unknown-name error":
        "repro.experiments.matrix:scenario_names repro.workload.events:event_type_names",
    "`repro matrix --chaos FILE.json`; the gates pass the compact form":
        "repro.experiments.faults:FaultPlan.*_json_dict",
    "`repro matrix --timelines FILE.json`; the gates name presets":
        "repro.workload.events:WorkloadEvent.from_json_dict "
        "repro.workload.timeline:Timeline.from_json*",
    "a boundary or join-burst event of a `--timelines` preset; no gate or figure cell "
    "installs one":
        "repro.workload.events:FailureSpike.boundary_round "
        "repro.workload.events:JoinBurst.compile* "
        "repro.workload.timeline:InstalledTimeline.*_boundary "
        "repro.workload.timeline:Timeline.install.<locals>.<lambda>",
    "runs on a cell out of retries or under `--heartbeat N`; the gates recover every "
    "cell and run quiet":
        "repro.experiments.runner:_degraded_result repro.experiments.runner:_Heartbeat.done",
    "runs when the linter finds something; the gated tree is clean":
        "repro.lint:Finding.to_text repro.lint:LintReport.sorted_findings.<locals>.<lambda> "
        "repro.lint:_base_name",
    "the latency model the pinned fingerprints pass ready-made":
        "repro.simulator.latency:UniformLatency.*",
    "base default that each event or message type overrides":
        "repro.workload.events:WorkloadEvent.apply repro.workload.events:WorkloadEvent.compile "
        "repro.simulator.message:Message.payload_size",
}
