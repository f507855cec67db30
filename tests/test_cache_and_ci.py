"""Disk-cache robustness under concurrent CI runs, and CI pipeline validity."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import cache
from repro.experiments import devices as dev
from repro.service.store import ResultStore, default_store_root

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
LINEAR_JOB = os.path.join("examples", "jobs", "linear_link.json")


def _invoke_cli(*args: str, fault_plan: str | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    else:
        env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestResilienceCLI:
    def test_clean_run_prints_health_and_exits_zero(self):
        out = _invoke_cli("run", LINEAR_JOB, "--quick")
        assert out.returncode == 0, out.stderr
        assert "health:" in out.stdout
        assert "ok=True" in out.stdout

    def test_resilience_flags_are_accepted(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick",
            "--max-retries", "2", "--on-nonconvergence", "warn",
        )
        assert out.returncode == 0, out.stderr
        assert "health:" in out.stdout

    def test_poisoned_scenario_exits_nonzero_with_taxonomy_line(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick",
            fault_plan="nan@*x*:scenario=010/weak-load",
        )
        assert out.returncode == 3, out.stdout + out.stderr
        assert "FAILED scenario 010/weak-load" in out.stderr
        assert "nan_inf" in out.stderr
        # The other scenarios still completed and were summarised.
        assert "health:" in out.stdout

    def test_transient_fault_recovers_to_exit_zero(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick",
            fault_plan="nan@5:scenario=010/nominal",
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "health:" in out.stdout
        assert "nan_inf=1" in out.stdout

    def test_nonconvergence_warn_override_commits(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick", "--on-nonconvergence", "warn",
            fault_plan="nonconvergence@5:scenario=010/nominal",
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "nonconverged_commits=1" in out.stdout


class TestIdentificationCacheRobustness:
    def test_corrupt_entry_is_removed_and_reidentified(
        self, tmp_path, monkeypatch, params, driver_model, receiver_model
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        monkeypatch.setattr(dev, "_MEMO", dev.ModelMemo())
        calls = {"driver": 0, "receiver": 0}

        def fake_driver(p, n_centers, seed):
            calls["driver"] += 1
            return driver_model

        def fake_receiver(p, n_centers, seed):
            calls["receiver"] += 1
            return receiver_model

        monkeypatch.setattr(dev, "_identify_driver", fake_driver)
        monkeypatch.setattr(dev, "_identify_receiver", fake_receiver)

        path = dev.identification_cache_path(params, 10, 0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"driver": {"truncated by a concurr')

        models = dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        # Corrupt entry fell back to (stubbed) re-identification, did not raise.
        assert calls == {"driver": 1, "receiver": 1}
        assert models.source == "identified"
        # The entry was rewritten as a checksum-wrapped cache document.
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert set(document) == {"cache_format", "checksum", "payload"}
        assert set(document["payload"]) == {"driver", "receiver"}

        # A fresh process (cleared memory cache) now loads it from disk.
        monkeypatch.setattr(dev, "_MEMO", dev.ModelMemo())
        again = dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        assert again.source == "identified (disk cache)"
        assert calls == {"driver": 1, "receiver": 1}

    def test_corrupt_entry_is_unlinked_on_load_failure(self, tmp_path, params):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all")
        assert dev._load_identified_from_disk(path, params) is None
        assert not os.path.exists(path)

    def test_structurally_wrong_entry_also_recovers(self, tmp_path, params):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"driver": {"wrong": "schema"}, "receiver": {}}, handle)
        assert dev._load_identified_from_disk(path, params) is None
        assert not os.path.exists(path)


class TestCacheRoot:
    @pytest.mark.parametrize("raw", ["0", "false", "off"])
    def test_both_disk_stores_follow_one_switch(self, tmp_path, monkeypatch, params, raw):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert cache.cache_root() == str(tmp_path)
        assert dev.identification_cache_path(params, 10, 0).startswith(str(tmp_path))
        assert default_store_root() == os.path.join(str(tmp_path), "results")
        assert ResultStore().enabled

        monkeypatch.setenv("REPRO_DISK_CACHE", raw)
        assert not cache.disk_cache_enabled()
        assert dev.identification_cache_path(params, 10, 0) is None
        assert not ResultStore().enabled


def _hammer_same_path(args):
    path, document, rounds = args
    from repro import cache as worker_cache

    return [worker_cache.atomic_write_json(path, document) for _ in range(rounds)]


class TestCacheContention:
    def test_concurrent_same_key_writes_stay_valid(self, tmp_path):
        """N processes x M same-key writes: the entry stays checksum-valid."""
        path = str(tmp_path / "results" / "ab" / "abcdef.json")
        document = {"waveforms": {"far": list(range(500))}}
        reference_path = str(tmp_path / "reference.json")
        assert cache.atomic_write_json(reference_path, document)

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(4) as pool:
            outcomes = pool.map(
                _hammer_same_path, [(path, document, 10)] * 4
            )
        assert all(all(flags) for flags in outcomes)
        assert cache.read_json(path) == document
        # byte-identical to an uncontended write (atomic replace, no tears)
        with open(path, "rb") as contended, open(reference_path, "rb") as clean:
            assert contended.read() == clean.read()


class TestCIPipeline:
    @pytest.fixture(scope="class")
    def workflow(self):
        yaml = pytest.importorskip("yaml")
        with open(WORKFLOW, "r", encoding="utf-8") as handle:
            parsed = yaml.safe_load(handle)
        assert isinstance(parsed, dict)
        return parsed

    def test_workflow_parses_and_has_expected_jobs(self, workflow):
        assert {"test", "lint", "nightly-full"} <= set(workflow["jobs"])

    def test_quick_tier_excludes_slow_and_spans_two_pythons(self, workflow):
        test_job = workflow["jobs"]["test"]
        versions = test_job["strategy"]["matrix"]["python-version"]
        assert len(versions) == 2
        commands = " ".join(
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        )
        assert 'not slow' in commands
        assert "pip install -e" in commands
        # pip caching is enabled on the setup-python step
        setup = next(
            step for step in test_job["steps"]
            if "setup-python" in str(step.get("uses", ""))
        )
        assert setup["with"]["cache"] == "pip"

    def test_quick_tier_runs_cli_smoke(self, workflow):
        test_job = workflow["jobs"]["test"]
        commands = " ".join(
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        )
        assert "python -m repro run examples/jobs/linear_link.json --quick" in commands
        assert "python -m repro run examples/jobs/sparse_ladder.json --quick" in commands
        assert "python -m repro list-engines" in commands
        # the smoke steps must actually assert on the artifacts: a waveform
        # in the linear result, the sparse backend + its single symbolic
        # factorization in the sparse one, whose Newton transient factors
        # once and solves its iterations as port-rank updates
        assert "waveforms" in commands
        assert "symbolic_factorizations" in commands
        assert "p.get('sparse_factorizations') == 1" in commands
        assert "p.get('port_solves', 0) > 0" in commands
        uploads = [
            step for step in test_job["steps"]
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads and "linear_link.result.json" in uploads[0]["with"]["path"]
        assert "sparse_ladder.result.json" in uploads[0]["with"]["path"]

    def test_quick_tier_compares_sharded_and_in_process_monte_carlo(self, workflow):
        # Sharded and in-process lane sets meet through the CLI on every push.
        test_job = workflow["jobs"]["test"]
        commands = " ".join(
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        )
        for workers, output in (("2", "mc_a"), ("1", "mc_single")):
            assert (
                "python -m repro run examples/jobs/montecarlo_sweep.json --quick "
                f"--workers {workers} --output {output}.result.json"
            ) in commands
        assert "a['waveforms'] == c['waveforms']" in commands
        assert "a['meta']['montecarlo'] == c['meta']['montecarlo']" in commands

    def test_quick_tier_crosses_a_pool_with_lane_sets(self, workflow):
        # The quick Monte Carlo run sits below the linear pool's break-even
        # and runs in process; the full golden job is above it and pools.
        test_job = workflow["jobs"]["test"]
        commands = " ".join(
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        )
        assert "a['perf_stats']['shards'] == 1" in commands
        for workers, output in (("2", "mc_full"), ("1", "mc_full_single")):
            assert (
                "python -m repro run examples/jobs/montecarlo_sweep.json "
                f"--workers {workers} --output {output}.result.json"
            ) in commands
        assert "a['perf_stats']['shards'] == 2" in commands
        # ...and the sharded RBF smoke has an in-process twin to match
        assert (
            "python -m repro run examples/jobs/pattern_corner_sweep.json --quick "
            "--workers 1 --output shard_single.result.json"
        ) in commands
        assert "sharded and in-process RBF sweeps differ" in commands

    def test_quick_tier_monte_carlo_comparison_has_open_eyes(self, workflow):
        # A quick span that folds one trace per scenario reads every eye
        # height as 0, and the comparison above would pass on nothing.
        test_job = workflow["jobs"]["test"]
        command = next(
            step["run"] for step in test_job["steps"]
            if isinstance(step, dict) and "mc_single.result.json" in step.get("run", "")
        )
        assert "mc['eye_height']['max'] > 0" in command

    def test_quick_tier_runs_backend_smoke(self, workflow):
        # The backend-equivalence suite runs as its own named step on both
        # python versions (the matrix covers them).
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            "-k backend" in command and 'not slow' in command for command in commands
        )

    def test_quick_tier_runs_banks_smoke(self, workflow):
        # The element-bank differential suite (banked vs scalar stamping)
        # runs as its own named quick-tier step.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            '-k "banks"' in command and 'not slow' in command for command in commands
        )

    def test_quick_tier_runs_resilience_smoke(self, workflow):
        # The fault-injection/retry/quarantine suite runs as its own named
        # quick-tier step.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            "-k resilience" in command and 'not slow' in command
            for command in commands
        )

    def test_quick_tier_injects_a_singular_static_factorization(self, workflow):
        # The same step runs a singular@3 plan on the sparse and the dense
        # fixture and on the linear sweep's lane sets: each run recovers
        # (exit 0) with one backend fallback, whose event names step 3.
        test_job = workflow["jobs"]["test"]
        smoke = next(
            step["run"] for step in test_job["steps"]
            if isinstance(step, dict) and "-k resilience" in step.get("run", "")
        )
        lines = [line.strip() for line in smoke.splitlines()]
        for fixture in ("sparse_ladder.json --quick", "rbf_link.json --quick",
                        "linear_link.json --quick"):
            assert any(
                line.startswith('REPRO_FAULT_PLAN="singular@3"') and fixture in line
                for line in lines
            ), fixture
        assert "h['backend_fallbacks'] == 1" in smoke
        assert "h['events'][0]['step'] == 3" in smoke

    def test_quick_tier_runs_the_retry_ladder_from_the_cli(self, workflow):
        # The same step drives engine.max_retries through the CLI under a
        # nonconvergence@4x2 plan: 3 retries recover the RBF link by re-runs
        # and the transistor link by one dt-halving (exit 0 both), and 1
        # retry must exit 3.
        test_job = workflow["jobs"]["test"]
        smoke = next(
            step["run"] for step in test_job["steps"]
            if isinstance(step, dict) and "-k resilience" in step.get("run", "")
        )
        lines = [line.strip() for line in smoke.splitlines()]
        plan = 'REPRO_FAULT_PLAN="nonconvergence@4x2" python -m repro run '
        for job in ("examples/jobs/rbf_link.json --quick --max-retries 3",
                    "rbf_link_transistor.json --quick --max-retries 3",
                    "examples/jobs/rbf_link.json --quick --max-retries 1"):
            assert any(plan + job in line for line in lines), job
        assert "d['engine']['variant'] = 'transistor'" in smoke
        assert 'test "$rc" -eq 3' in smoke
        assert "== (2, 1, 1, 1)" in smoke
        assert "== (0, 1)" in smoke

    def test_quick_tier_runs_mur_smoke(self, workflow):
        # The 3-D FDTD suites and the Mur face-table tests run as their own
        # named quick-tier step.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            '-k "fdtd3d or mur"' in command and 'not slow' in command
            for command in commands
        )

    def test_quick_tier_runs_port_smoke(self, workflow):
        # The port, termination, lumped-site and Newton suites run as their
        # own named quick-tier step, and the 1-D fixture's Newton mean counts
        # the driver port's solves only (the RC load's closed form is none).
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        port = [
            command for command in commands
            if '-k "port or termination or lumped or newton"' in command
        ]
        assert port and 'not slow' in port[0]
        assert "python -m repro run examples/jobs/fdtd1d_link.json --quick" in port[0]
        assert "m['newton_mean_iterations'] > 1" in port[0]

    def test_quick_tier_runs_sweep_lanes_smoke(self, workflow):
        # The sweep suites run as their own named quick-tier step, and the
        # CLI smoke asserts that the linear fixture's four direct scenarios
        # step as one lane set.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            '-k "lanes or sweep"' in command and 'not slow' in command
            for command in commands
        )
        cli = next(command for command in commands if "linear_link.result.json" in command)
        assert "['lane_sets'] == 1" in cli
        assert "len(p['direct_linear_scenarios']) == 4" in cli

    def test_quick_tier_runs_model_memo_smoke(self, workflow):
        # The model-memo suite plus an in-process double run of the RBF
        # fixture: the second run must be a memo hit with equal waveforms.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        memo = [command for command in commands if '-k "memo or start_high"' in command]
        assert memo and 'not slow' in memo[0]
        assert "rbf_link.json" in memo[0] and "(False, True)" in memo[0]

    def test_nightly_runs_resilience_fault_matrix(self, workflow):
        # The nightly tier drives the full resilience suite plus CLI-level
        # fault plans: a transient fault that must recover (exit 0) and a
        # poisoned scenario that must exit 3.
        nightly = workflow["jobs"]["nightly-full"]
        commands = " ".join(
            step.get("run", "") for step in nightly["steps"] if isinstance(step, dict)
        )
        assert "tests/test_resilience.py" in commands
        assert "REPRO_FAULT_PLAN=" in commands
        assert "-eq 3" in commands

    def test_nightly_fault_matrix_covers_the_rbf_sweep(self, workflow):
        # The RBF sweep's Newton scenarios quarantine and solo-retry through
        # a different path than the linear sweep's lanes: the nightly plans
        # drive both, a recovering fault and a poisoned scenario each.
        nightly = workflow["jobs"]["nightly-full"]
        commands = " ".join(
            step.get("run", "") for step in nightly["steps"] if isinstance(step, dict)
        )
        rbf = [
            line.strip() for line in commands.splitlines()
            if "pattern_corner_sweep.json" in line and "REPRO_FAULT_PLAN=" in line
        ]
        assert any(line.startswith('REPRO_FAULT_PLAN="nan@5:') for line in rbf), rbf
        assert any("nan@*x*" in line and line.endswith("-eq 3") for line in rbf), rbf
        assert "'recovered'" in commands

    def test_coverage_job_gates_and_uploads(self, workflow):
        # The coverage job measures the quick tier over the installed
        # package, fails below the pinned floor and uploads the XML report.
        coverage = workflow["jobs"]["coverage"]
        commands = " ".join(
            step.get("run", "") for step in coverage["steps"] if isinstance(step, dict)
        )
        assert "--cov=repro" in commands
        assert "--cov-report=xml" in commands
        floor = int(commands.split("--cov-fail-under=")[1].split()[0])
        assert floor >= 70  # pinned below the measured seed value, not token
        uploads = [
            step for step in coverage["steps"]
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads and "coverage.xml" in uploads[0]["with"]["path"]
        # the tool backing the flag is a declared dev dependency
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py310
            pytest.skip("tomllib unavailable")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        dev = pyproject["project"]["optional-dependencies"]["dev"]
        assert any(dep.startswith("pytest-cov") for dep in dev)

    def test_nightly_runs_slow_tier_and_perf_smoke(self, workflow):
        nightly = workflow["jobs"]["nightly-full"]
        commands = " ".join(
            step.get("run", "") for step in nightly["steps"] if isinstance(step, dict)
        )
        assert "bench_perf_report.py" in commands and "--min-speedup 1.0" in commands
        assert "bench_sweep.py" in commands
        assert "bench_sparse.py --quick" in commands
        uploads = [step for step in nightly["steps"] if "upload-artifact" in str(step.get("uses", ""))]
        assert uploads and "BENCH_perf.json" in uploads[0]["with"]["path"]
        assert "BENCH_sparse.json" in uploads[0]["with"]["path"]

    def test_triggers_include_pushes_prs_and_schedule(self, workflow):
        # pyyaml parses the bare `on:` key as boolean True (YAML 1.1).
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers
        assert "push" in triggers
        assert "schedule" in triggers

    def test_slow_marker_is_registered(self):
        # The quick tier depends on `-m "not slow"` deselecting, not erroring.
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py310
            pytest.skip("tomllib unavailable")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        markers = pyproject["tool"]["pytest"]["ini_options"]["markers"]
        assert any(m.startswith("slow") for m in markers)
