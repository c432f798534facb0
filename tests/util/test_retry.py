"""Unit tests for the deterministic capped-exponential retry helper."""

import pytest

from repro.errors import ConfigError
from repro.util.retry import BackoffPolicy, retry_call


# -- the policy ----------------------------------------------------------


def test_delays_are_capped_exponential():
    policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=0.5, max_attempts=6)
    delays = [policy.delay_s(i) for i in range(policy.max_attempts - 1)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_single_attempt_policy_has_no_delays():
    policy = BackoffPolicy(max_attempts=1)
    assert [policy.delay_s(i) for i in range(policy.max_attempts - 1)] == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_s": -0.1},
        {"factor": 0.5},
        {"cap_s": -1.0},
        {"max_attempts": 0},
    ],
)
def test_policy_validates_fields(kwargs):
    with pytest.raises(ConfigError):
        BackoffPolicy(**kwargs)


def test_delay_s_rejects_negative_retry():
    with pytest.raises(ConfigError):
        BackoffPolicy().delay_s(-1)


# -- the loop ------------------------------------------------------------


def _flaky(failures: int, error=ValueError):
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise error(f"failure #{calls['n']}")
        return calls["n"]

    return fn, calls


def test_retries_until_success_and_sleeps_the_schedule():
    fn, calls = _flaky(2)
    slept: list[float] = []
    result = retry_call(
        fn,
        policy=BackoffPolicy(base_s=0.1, factor=2.0, cap_s=1.0, max_attempts=4),
        sleep=slept.append,
    )
    assert result == 3
    assert calls["n"] == 3
    assert slept == [0.1, 0.2]


def test_first_try_success_never_sleeps():
    slept: list[float] = []
    assert retry_call(lambda: "ok", sleep=slept.append) == "ok"
    assert slept == []


def test_exhausted_attempts_raise_the_last_error():
    fn, calls = _flaky(10)
    with pytest.raises(ValueError, match="failure #3"):
        retry_call(
            fn,
            policy=BackoffPolicy(base_s=0.0, max_attempts=3),
            sleep=lambda _s: None,
        )
    assert calls["n"] == 3


def test_unmatched_error_propagates_immediately():
    fn, calls = _flaky(1, error=KeyError)
    with pytest.raises(KeyError):
        retry_call(fn, retry_on=ValueError, sleep=lambda _s: None)
    assert calls["n"] == 1


def test_on_retry_observes_each_failure():
    fn, _calls = _flaky(2)
    seen: list[tuple[int, str]] = []
    retry_call(
        fn,
        policy=BackoffPolicy(base_s=0.0, max_attempts=4),
        sleep=lambda _s: None,
        on_retry=lambda attempt, error: seen.append((attempt, str(error))),
    )
    assert seen == [(0, "failure #1"), (1, "failure #2")]


def test_zero_delay_skips_sleep_entirely():
    fn, _calls = _flaky(1)
    slept: list[float] = []
    retry_call(
        fn,
        policy=BackoffPolicy(base_s=0.0, max_attempts=2),
        sleep=slept.append,
    )
    assert slept == []
