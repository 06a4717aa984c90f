"""Remote cache client: breaker state machine, retry ladder, fault
seam, registry semantics, and the config knobs that tune them."""

from __future__ import annotations

import socket

import pytest

from repro.core.config import DDBDDConfig
from repro.resilience.faults import activated
from repro.runtime.remote import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
    RemoteClient,
    RemoteConfigError,
    client_for,
    remote_snapshot,
    reset_remote_clients,
)


def free_port() -> int:
    """A port nothing listens on (bound once, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _dead_client(**kwargs) -> RemoteClient:
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("backoff_s", 0.0)
    return RemoteClient(f"http://127.0.0.1:{free_port()}", **kwargs)


# ----------------------------------------------------------------------
# Breaker policy parsing
# ----------------------------------------------------------------------
def test_breaker_policy_parse_roundtrip():
    policy = BreakerPolicy.parse(" 3/8/2 ")
    assert (policy.trip_failures, policy.cooldown_ops, policy.probe_successes) == (3, 8, 2)
    assert policy.spec == "3/8/2"


@pytest.mark.parametrize("bad", ["", "3/8", "3/8/2/1", "a/8/2", "3/8/x", "0/8/2", "3/0/2", "3/8/0"])
def test_breaker_policy_rejects_malformed(bad):
    with pytest.raises(RemoteConfigError):
        BreakerPolicy.parse(bad)


# ----------------------------------------------------------------------
# The state machine (pure op counts, no wall clock)
# ----------------------------------------------------------------------
def test_breaker_trips_after_consecutive_failures():
    br = CircuitBreaker(BreakerPolicy(trip_failures=3, cooldown_ops=4, probe_successes=2))
    assert br.state == BREAKER_CLOSED
    assert br.record_failure() is False
    assert br.record_failure() is False
    # A success resets the consecutive-failure count.
    br.record_success()
    assert br.record_failure() is False
    assert br.record_failure() is False
    assert br.record_failure() is True, "third consecutive failure trips"
    assert br.state == BREAKER_OPEN
    assert br.trips == 1


def test_breaker_cooldown_then_probe_then_close():
    br = CircuitBreaker(BreakerPolicy(trip_failures=1, cooldown_ops=3, probe_successes=2))
    assert br.record_failure() is True
    # cooldown_ops=3: the first two attempts are skipped, the third is
    # allowed through as the half-open probe.
    assert br.allow() is False
    assert br.allow() is False
    assert br.open_skips == 2
    assert br.allow() is True
    assert br.state == BREAKER_HALF_OPEN
    # probe_successes=2 consecutive probe hits close it again.
    br.record_success()
    assert br.state == BREAKER_HALF_OPEN
    br.record_success()
    assert br.state == BREAKER_CLOSED
    assert br.closes == 1
    assert br.allow() is True


def test_breaker_probe_failure_reopens_immediately():
    br = CircuitBreaker(BreakerPolicy(trip_failures=1, cooldown_ops=2, probe_successes=2))
    assert br.record_failure() is True
    assert br.allow() is False
    assert br.allow() is True  # half-open probe
    assert br.record_failure() is True, "a failed probe re-trips"
    assert br.state == BREAKER_OPEN
    assert br.trips == 2
    snap = br.snapshot()
    assert snap["state"] == BREAKER_OPEN
    assert snap["trips"] == 2 and snap["open_skips"] == 1


# ----------------------------------------------------------------------
# Client construction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", ["", "ftp://h/", "https://secure/", "host:80", "http://"])
def test_client_rejects_non_http_urls(bad):
    with pytest.raises(RemoteConfigError):
        RemoteClient(bad)


def test_client_path_prefix():
    client = RemoteClient("http://shard.example:8080/mirror/")
    assert client.port == 8080
    assert client._path("ab" * 32) == "/mirror/v1/cache/" + "ab" * 32


# ----------------------------------------------------------------------
# Transport failures against a dead port: the full degrade ladder
# ----------------------------------------------------------------------
def test_get_against_dead_port_is_refused_then_breaker_opens():
    client = _dead_client(policy=BreakerPolicy(trip_failures=2, cooldown_ops=8, probe_successes=1))
    first = client.get("00" * 32)
    assert not first.ok and first.record is None
    assert first.fault in ("refused", "unreachable")
    assert first.tripped is False
    second = client.get("00" * 32)
    assert second.tripped is True, "second consecutive failure trips (policy 2/8/1)"
    assert client.breaker_states()["get"] == BREAKER_OPEN
    # While open, ops skip the network entirely and report breaker_open.
    skipped = client.get("00" * 32)
    assert skipped.fault == "breaker_open" and skipped.retries == 0
    assert client.ops["breaker_skips"] == 1
    assert client.ops["gets"] == 3 and client.ops["errors"] == 2
    # The put direction has its own breaker: still closed, still failing.
    assert client.breaker_states()["put"] == BREAKER_CLOSED


def test_retry_ladder_counts_transport_attempts():
    client = _dead_client(retries=2)
    result = client.get("11" * 32)
    assert not result.ok
    assert result.retries == 2, "logical op spent its whole retry budget"
    assert client.ops["retries"] == 2


# ----------------------------------------------------------------------
# The deterministic fault seam (no server, no socket)
# ----------------------------------------------------------------------
def test_injected_timeout_consumes_no_socket():
    client = _dead_client()
    with activated("net_timeout@get=1"):
        result = client.get("22" * 32)
    assert result.fault == "timeout"


def test_injected_garbage_is_parse_failure_not_transport():
    client = _dead_client()
    with activated("net_garbage@get=1"):
        result = client.get("22" * 32)
    assert result.fault == "garbage"
    assert client.ops["errors"] == 1


def test_injected_slow_past_deadline_times_out():
    client = _dead_client(deadline_s=0.01)
    with activated("net_slow@get=1:0.01s"):
        result = client.get("22" * 32)
    assert result.fault == "timeout"


def test_injected_refuse_on_put():
    client = _dead_client()
    from tests.runtime.test_tiers import _record

    with activated("net_refuse@put=1"):
        result = client.put("33" * 32, _record())
    assert result.fault == "refused" and result.stored is False


def test_quarantine_feeds_the_get_breaker():
    client = _dead_client(policy=BreakerPolicy(trip_failures=2, cooldown_ops=2, probe_successes=1))
    assert client.note_quarantine() is False
    assert client.note_quarantine() is True, "byzantine shard trips like a dead one"
    assert client.ops["quarantined"] == 2
    assert client.breaker_states()["get"] == BREAKER_OPEN


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------
def test_client_for_shares_breaker_state_per_url():
    reset_remote_clients()
    try:
        url = f"http://127.0.0.1:{free_port()}"
        a = client_for(url, deadline_s=0.2, retries=0, breaker_spec="1/4/1")
        a.get("44" * 32)  # refused: trips immediately (policy 1/4/1)
        assert a.breaker_states()["get"] == BREAKER_OPEN
        # A later request retunes knobs but never resets breaker state.
        b = client_for(url, deadline_s=9.0, retries=3, breaker_spec="1/4/1")
        assert b is a
        assert b.deadline_s == 9.0 and b.retries == 3
        assert b.breaker_states()["get"] == BREAKER_OPEN
        snap = remote_snapshot()
        assert snap[url]["breakers"]["get"]["state"] == BREAKER_OPEN
        reset_remote_clients()
        assert remote_snapshot() == {}
    finally:
        reset_remote_clients()


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
def test_config_validates_remote_knobs(monkeypatch):
    monkeypatch.delenv("DDBDD_CACHE_REMOTE", raising=False)
    assert DDBDDConfig().cache_remote is None
    cfg = DDBDDConfig(
        cache_remote="http://127.0.0.1:9", remote_deadline_s=0.5,
        remote_retries=0, remote_breaker="2/4/1",
    )
    assert cfg.cache_remote == "http://127.0.0.1:9"
    with pytest.raises(ValueError):
        DDBDDConfig(cache_remote="ftp://x")
    with pytest.raises(ValueError):
        DDBDDConfig(remote_deadline_s=0.0)
    with pytest.raises(ValueError):
        DDBDDConfig(remote_retries=-1)
    with pytest.raises(ValueError):
        DDBDDConfig(remote_breaker="3/8")
    with pytest.raises(ValueError):
        DDBDDConfig(remote_breaker="0/8/2")


def test_config_reads_cache_remote_env(monkeypatch):
    monkeypatch.setenv("DDBDD_CACHE_REMOTE", "http://shard:8080")
    assert DDBDDConfig().cache_remote == "http://shard:8080"
    monkeypatch.setenv("DDBDD_CACHE_REMOTE", "   ")
    assert DDBDDConfig().cache_remote is None
