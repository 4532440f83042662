"""The shared executor: input validation at entry, and the pool-start fallback."""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments.executor as executor_module
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.executor import WORKERS_ENV, chunk_indices, resolve_workers
from repro.experiments.parallel import PointSpec, run_sweep
from repro.experiments.runner import PROTOCOLS, QUICK, microbenchmark_factory
from repro.experiments.service import CampaignService
from repro.verification.campaign import CampaignSpec, run_campaign, run_campaign_tasks

TINY_SCALE = dataclasses.replace(
    QUICK,
    name="tiny-executor",
    microbenchmark_processors=4,
    acquires_per_processor=8,
    num_locks=16,
    bandwidth_points=(800.0, 3200.0),
    seeds=(1,),
)

TINY_CAMPAIGN = CampaignSpec(
    name="tiny-executor",
    seeds=(0, 1),
    modes=("strict", "racy"),
    operations=30,
    random_seeds=(0,),
    random_operations=60,
)


def _specs():
    workload = microbenchmark_factory(TINY_SCALE)
    return [
        PointSpec(scale=TINY_SCALE, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in PROTOCOLS
        for bandwidth in TINY_SCALE.bandwidth_points
    ]


class TestWorkerResolution:
    def test_none_zero_and_positive(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 3
        assert resolve_workers(2) == 2

    def test_negative_workers_raise_at_every_api_entry(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(-3)
        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep(_specs()[:1], workers=-3, cache_dir=False)
        with pytest.raises(ConfigurationError, match="workers"):
            run_campaign_tasks(TINY_CAMPAIGN.tasks()[:1], workers=-1)
        with pytest.raises(ConfigurationError, match="workers"):
            CampaignService(store=None, workers=-2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure1", "--workers", "-1"],
            ["verify", "--workers", "-2"],
            ["serve", "figure1", "--store", "unused", "--workers", "-1"],
        ],
    )
    def test_negative_cli_workers_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestChunking:
    def test_chunks_stay_within_one_key_and_cover_every_item(self):
        items = [("a", 0), ("b", 1), ("a", 2), ("a", 3), ("b", 4)]
        chunks = chunk_indices(items, key=lambda item: item[0], workers=2)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(items)))
        for chunk in chunks:
            assert len({items[i][0] for i in chunk}) == 1
            assert len(chunk) <= 3  # ceil(5 / 2)


class TestPoolStartFallback:
    @pytest.mark.parametrize("caller", ["sweep", "campaign"])
    def test_refused_pool_finishes_serially_with_identical_results(
        self, caller, monkeypatch
    ):
        if caller == "sweep":
            items = _specs()

            def run(workers):
                return run_sweep(items, workers=workers, cache_dir=False)

        else:
            items = TINY_CAMPAIGN.tasks()

            def run(workers):
                return [
                    outcome.to_jsonable()
                    for outcome in run_campaign_tasks(items, workers=workers)
                ]

        serial = run(1)
        attempts = []

        def refuse(max_workers):
            attempts.append(max_workers)
            raise OSError("process pools are not permitted here")

        monkeypatch.setattr(executor_module, "_start_pool", refuse)
        assert run(2) == serial
        assert attempts, "the pool constructor was never reached"
        if caller == "campaign":
            assert run_campaign(TINY_CAMPAIGN, workers=2).workers == 1
