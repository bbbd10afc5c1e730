"""``ua-gpnm serve`` flags land in the ``ServiceConfig`` it serves with."""

from __future__ import annotations

import dataclasses

from repro.cli import _build_parser, _service_config
from repro.experiments.config import ExperimentConfig
from repro.service import ServiceConfig


def serve_config(*flags: str, config: ExperimentConfig = ExperimentConfig()) -> ServiceConfig:
    return _service_config(_build_parser().parse_args(["serve", *flags]), config)


def test_no_flags_keep_every_service_default():
    config = ExperimentConfig(batch_plan="coalesced", coalesce_min_batch=8, slen_backend="dense")
    expected = dataclasses.replace(
        ServiceConfig(), batch_plan="coalesced", coalesce_min_batch=8, slen_backend="dense"
    )
    assert serve_config(config=config) == expected
    assert serve_config() == ServiceConfig()


def test_each_serve_flag_lands():
    service_config = serve_config(
        "--deadline", "0.2",
        "--max-buffer", "32",
        "--journal-dir", "journals",
        "--snapshot-history", "3",
        "--max-subscriptions", "5",
        "--no-push",
    )
    assert service_config.deadline_seconds == 0.2
    assert service_config.max_buffer == 32
    assert service_config.journal_dir == "journals"
    assert service_config.snapshot_history == 3
    assert service_config.max_subscriptions == 5
    assert service_config.push_notifications is False
    assert dataclasses.replace(
        service_config,
        deadline_seconds=ServiceConfig.deadline_seconds,
        max_buffer=ServiceConfig.max_buffer,
        journal_dir=None,
        snapshot_history=ServiceConfig.snapshot_history,
        max_subscriptions=ServiceConfig.max_subscriptions,
        push_notifications=True,
    ) == ServiceConfig()
