"""The benchmark's workloads: fixed parameters, one dict each.

Nothing here reads the environment: the parameters are part of the
benchmark's code, and every result record carries them (see
``fingerprint``), so runs with different settings are never compared.
"""

from __future__ import annotations

PARAMS: dict[str, dict] = {
    # Paper Table 1: the case-study topology while the four-phase release
    # strategy runs, under the uniform buy/details/products/search mix.
    "release": {
        "rate": 50.0,
        "users": 500,
        "db_delay": 0.0005,
        # The case study's simulated queueing (each request in flight slows
        # the others) turned the host's speed swings into a 27 % run-to-run
        # spread of p90; the benchmark measures the middleware, not that
        # model, so it is off.
        "queue_factor": 0.0,
        "scrape_interval": 0.3,
        # The strategy's nominal duration as a share of the window: the
        # 380 s paper strategy compresses to 0.95 * seconds.
        "strategy_share": 0.95,
        "connections": 2,
        "warmup": 1.0,
    },
    # Bare forwarding: gateway -> proxy without config -> no-work upstream.
    "forward": {
        "rate": 200.0,
        "body": "forward-benchmark-payload-0123456789abcd",
        "connections": 2,
        "warmup": 1.0,
    },
    # The engine's control loop: background checks, ingest, rollback trials.
    "control": {
        "strategies": 16,
        "checks_per_strategy": 16,
        "check_interval": 0.25,
        # Background strategies run for this share of the window.
        "background_share": 0.9,
        "ingest_series": 200,
        "ingest_interval": 0.1,
        "lanes": 4,
        "trial_interval": 0.05,
        "trial_repetitions": 60,
        # Delay between a canary going live and its degradation: a range of
        # two trial intervals (see run_control).
        "inject_delay": [0.03, 0.13],
        "warmup": 1.0,
    },
}

#: Runs whose generator ran later than this at its 99th percentile are
#: rejected: their latencies would measure the generator, not the SUT.
#: Stalls of the shared host alone have pushed it to 13 ms.
GEN_LATE_LIMIT_MS = 50.0
