"""Syntax/shape validation of the GitHub Actions workflow.

An ``act``-style dry run needs Docker; this is the equivalent static
check — the YAML must parse and carry the structure Actions requires
(jobs with ``runs-on`` and ``steps``, triggers on pushes and PRs, and the
tier-1 / benchmark-smoke commands this repo's ROADMAP promises).
"""

import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".github",
    "workflows",
    "ci.yml",
)


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW, "r", encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def test_workflow_parses_with_required_top_level_keys(workflow):
    assert isinstance(workflow, dict)
    # PyYAML reads the bare `on:` key as boolean True (YAML 1.1).
    triggers = workflow.get("on", workflow.get(True))
    assert triggers is not None, "workflow must declare triggers"
    assert "push" in triggers and "pull_request" in triggers
    assert "jobs" in workflow


def test_every_job_is_runnable(workflow):
    jobs = workflow["jobs"]
    assert set(jobs) == {"tests", "bench-smoke", "lint"}
    for name, job in jobs.items():
        assert "runs-on" in job, name
        steps = job["steps"]
        assert isinstance(steps, list) and steps, name
        for step in steps:
            assert "uses" in step or "run" in step, (name, step)


def test_tier1_job_runs_pytest(workflow):
    runs = [s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]]
    assert any("pytest tests" in run for run in runs)
    assert any("pip install" in run for run in runs)


def test_tier1_job_runs_examples_fast(workflow):
    """The example smoke tests must run with the FAST knob set explicitly
    in the workflow, so the contract is visible from the CI config."""
    steps = workflow["jobs"]["tests"]["steps"]
    pytest_steps = [s for s in steps if "pytest tests" in s.get("run", "")]
    assert pytest_steps
    assert pytest_steps[0].get("env", {}).get("REPRO_EXAMPLE_FAST") == "1"


def test_tier1_job_uploads_the_prediction_journal(workflow):
    """examples/observe_hub.py journals the traffic it serves into
    REPRO_JOURNAL_DIR; the tests job must point that at a path it then
    uploads, so every CI run leaves one real journal to inspect."""
    steps = workflow["jobs"]["tests"]["steps"]
    pytest_steps = [s for s in steps if "pytest tests" in s.get("run", "")]
    assert pytest_steps
    journal_dir = pytest_steps[0].get("env", {}).get("REPRO_JOURNAL_DIR")
    assert journal_dir, "the pytest step must set REPRO_JOURNAL_DIR"
    uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
    assert uploads, "tests job must upload the prediction journal"
    with_block = uploads[0]["with"]
    assert with_block["path"] == journal_dir
    assert with_block.get("if-no-files-found") == "error"


def test_bench_job_uploads_the_trajectory_artifact(workflow):
    """BENCH_serving.json must be inspectable from the CI UI: the bench job
    uploads it as a build artifact (and fails loudly if it is missing)."""
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
    assert uploads, "bench-smoke must upload the benchmark record"
    with_block = uploads[0]["with"]
    assert with_block["path"] == "BENCH_serving.json"
    assert with_block.get("if-no-files-found") == "error"


def test_bench_job_is_scaled_down(workflow):
    job = workflow["jobs"]["bench-smoke"]
    env = job["env"]
    assert {"REPRO_BENCH_SEQUENCES", "REPRO_BENCH_FOLDS", "REPRO_BENCH_EPOCHS"} <= set(env)
    runs = [s.get("run", "") for s in job["steps"]]
    assert any("pytest benchmarks" in run for run in runs)


def test_bench_job_runs_the_servebench_tests(workflow):
    """The serving benchmark checks its own correctness gate (reference
    labels, refused requests); CI must run those tests with the rest of
    the benchmark smoke."""
    runs = [s.get("run", "") for s in workflow["jobs"]["bench-smoke"]["steps"]]
    assert any("pytest servebench/tests" in run for run in runs)


def test_lint_job_is_a_correctness_gate(workflow):
    """The lint job must run repro-lint over src/, benchmarks/, and
    examples/ (failing the build on any finding) and archive the JSON
    report as a build artifact."""
    steps = workflow["jobs"]["lint"]["steps"]
    runs = [s.get("run", "") for s in steps]
    lint_runs = [run for run in runs if "repro-lint" in run]
    assert lint_runs, "lint job must invoke repro-lint"
    assert any("src/" in run for run in lint_runs)
    assert any("benchmarks/" in run for run in lint_runs)
    assert any("examples/" in run for run in lint_runs)
    assert any("--json-report" in run for run in lint_runs)
    uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
    assert uploads, "lint job must upload the JSON report"
    with_block = uploads[0]["with"]
    assert with_block["path"].endswith(".json")
    assert with_block.get("if-no-files-found") == "error"
    # The report must be archived even when findings fail the lint step.
    assert uploads[0].get("if") == "always()"


def test_lint_job_asserts_a_warm_cache_hit(workflow):
    """The incremental engine must be exercised in CI: after the cold
    lint populates .repro-lint-cache/, a warm re-run must assert a
    findings-cache hit via the JSON counters (never wall clock)."""
    steps = workflow["jobs"]["lint"]["steps"]
    warm = [
        s.get("run", "")
        for s in steps
        if "repro-lint" in s.get("run", "") and "findings_hit" in s.get("run", "")
    ]
    assert warm, "lint job must re-run repro-lint and assert findings_hit"
    assert any("--format json" in run for run in warm)


def test_lint_job_runs_concurrency_suites_under_lock_check(workflow):
    """The runtime half of the gate: the serving concurrency suites run
    once with REPRO_LOCK_CHECK=1 so tracked locks validate real
    schedules every commit."""
    steps = workflow["jobs"]["lint"]["steps"]
    checked = [
        s
        for s in steps
        if s.get("env", {}).get("REPRO_LOCK_CHECK") == "1"
        and "pytest" in s.get("run", "")
    ]
    assert checked, "lint job must run pytest with REPRO_LOCK_CHECK=1"
    assert "test_concurrency" in checked[0]["run"]
    # The admission controller and calibrator hold locks on the serving
    # hot path; their suite joins the runtime-validated set.
    assert "test_costmodel" in checked[0]["run"]
    # The replica supervisor is the most lock-heavy subsystem in the repo
    # (routing lock + one mutex per worker pipe); its suite runs under the
    # validator so every failover/recycle schedule is order-checked.
    assert "test_replica" in checked[0]["run"]


def test_bench_job_asserts_cost_model_guards(workflow):
    """The ISSUE acceptance bounds (cost_model_mape <= 0.35,
    shed_overhead <= 1.05) must be asserted against the recorded
    trajectory, not only inside the benchmark process."""
    runs = [s.get("run", "") for s in workflow["jobs"]["bench-smoke"]["steps"]]
    guard_runs = [run for run in runs if "cost_model_mape" in run]
    assert guard_runs, "bench-smoke must assert the cost-model guards"
    assert any("shed_overhead" in run for run in guard_runs)
    assert any("0.35" in run for run in guard_runs)
    assert any("1.05" in run for run in guard_runs)


def test_bench_job_asserts_replica_scaling(workflow):
    """The replica pool's acceptance bound (>= 1.3x QPS at 2 replicas)
    must gate the recorded trajectory — conditional on the runner having
    two cores, because two processes on one core merely time-slice."""
    runs = [s.get("run", "") for s in workflow["jobs"]["bench-smoke"]["steps"]]
    guard_runs = [run for run in runs if "replica_scaling" in run]
    assert guard_runs, "bench-smoke must assert the replica scaling guard"
    assert any("1.3" in run for run in guard_runs)
    assert any("cores" in run for run in guard_runs)


def test_jobs_use_pip_caching(workflow):
    for name, job in workflow["jobs"].items():
        setup_steps = [
            s for s in job["steps"] if "setup-python" in str(s.get("uses", ""))
        ]
        assert setup_steps, f"{name} must set up python"
        assert setup_steps[0]["with"].get("cache") == "pip", name
