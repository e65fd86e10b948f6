"""Replica failover: reads survive a replica dying under load.

The acceptance bar from the issue: with two replicas and concurrent
query traffic, killing one replica mid-storm must keep **100% of reads
succeeding** (each bit-identical to the reference), with the client
failing over automatically.  Mutations replicate through the write
leader (replica 0) and retry exactly-once by default; the old
at-most-once, share-nothing behaviour stays available (and pinned here)
via ``retry_writes=False`` / ``replicate=False``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import Backoff, NetError, ReplicaSet, ServingClient
from repro.serving.net.client import AsyncServingClient, _AddressRing
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 40, 29, 4


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=5)


@pytest.fixture(scope="module")
def reference(snapshot):
    return PredictionService(snapshot)


def test_kill_a_replica_mid_storm_keeps_reads_succeeding(snapshot,
                                                         reference):
    """The failover acceptance test: one of two replicas dies under load."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        results: list = []
        failures: list = []
        lock = threading.Lock()
        stop = threading.Event()

        def hammer() -> None:
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            with ServingClient(replicas.addresses, cooldown=0.05,
                               timeout=30.0) as client:
                while not stop.is_set():
                    user = int(rng.integers(0, N_USERS))
                    try:
                        served = client.top_n(user, n=5)
                        with lock:
                            results.append((user, served))
                    except Exception as error:  # noqa: BLE001
                        with lock:
                            failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            # Let the storm get going, then kill replica 0 under it.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with lock:
                    if len(results) >= 20:
                        break
                time.sleep(0.01)
            replicas.kill(0)
            deadline = time.monotonic() + 20.0
            target = len(results) + 40
            while time.monotonic() < deadline:
                with lock:
                    if len(results) >= target:
                        break
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)

        assert not failures, \
            (f"{len(failures)}/{len(failures) + len(results)} reads failed "
             f"during failover: {failures[:3]}")
        assert len(results) >= target - 40 + 1
        for user, served in results:
            expected = reference.top_n(user, n=5)
            assert expected.items.tolist() == served.items.tolist()
            assert expected.scores.tobytes() == served.scores.tobytes()

        # Only the survivor is left in the address list.
        assert len(replicas.addresses) == 1
        stats = replicas.stats()
        assert stats[0] is None and stats[1] is not None


def test_opted_out_mutations_are_never_replayed_after_a_failure(snapshot):
    """``retry_writes=False`` pins the old at-most-once contract."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        addresses = list(replicas.addresses)
        dead_address = addresses[0]
        with ServingClient(addresses, cooldown=0.05, timeout=2.0,
                           retry_writes=False) as client:
            # Cache live connections to both replicas, leaving the ring
            # pointed back at replica 0.
            assert len(client.top_n(0, n=3)) == 3  # served by replica 0
            assert len(client.top_n(0, n=3)) == 3  # served by replica 1
            replicas.kill(0)
            # The rate goes out on the cached (now dead) connection: the
            # request bytes may have been consumed before the crash and
            # it carries no write_id, so it must NOT be replayed on the
            # survivor.
            with pytest.raises(NetError, match="not retried"):
                client.rate(0, np.array([1]), np.array([3.0]))
            # Reads fail over fine on the same client: the failed rate
            # put replica 0 on cooldown, so the ring goes straight to
            # the survivor.
            assert len(client.top_n(0, n=3)) == 3
        # A client pinned to the dead replica cannot read either.
        with ServingClient([dead_address], cooldown=0.05,
                           timeout=2.0) as pinned:
            with pytest.raises(NetError, match="every replica failed"):
                pinned.top_n(0, n=3)


def test_mutations_do_fail_over_when_nothing_was_sent(snapshot):
    """Connect-phase failures are retryable even for opted-out mutations.

    A fresh client whose first candidate is a dead *follower* never
    sends a byte of the request, so the mutation safely lands on the
    next replica — at-most-once refers to transmitted requests, not
    connection attempts.
    """
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        # Follower first in the ring, then the leader; kill the follower.
        addresses = list(reversed(replicas.addresses))
        replicas.kill(1)
        with ServingClient(addresses, cooldown=5.0, timeout=2.0,
                           retry_writes=False) as client:
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            assert cold == N_USERS
            assert client.rate(cold, np.array([2]), np.array([3.5])) == cold
        assert replicas.replicas[0].service.stats()["n_folded_in"] == 1


def test_async_client_fails_over_too(snapshot, reference):
    """Failover is prompt: a killed replica's dead connection is evicted
    when its reader sees EOF, so no request waits out the 10 s timeout."""
    import asyncio

    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        async def exercise():
            async with AsyncServingClient(replicas.addresses,
                                          cooldown=0.05) as client:
                before = await client.top_n(3, n=5)
                replicas.kill(0)
                started = time.monotonic()
                after = await client.top_n(3, n=5)
                health = await client.health()
                return before, after, health, time.monotonic() - started

        before, after, health, failover_s = asyncio.run(exercise())
    assert failover_s < 2.0
    expected = reference.top_n(3, n=5)
    for served in (before, after):
        assert expected.items.tolist() == served.items.tolist()
        assert expected.scores.tobytes() == served.scores.tobytes()
    assert health["status"] == "ok"


def test_mutations_replicate_to_every_replica(snapshot):
    """fold-in through any replica is readable on all of them."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        first = ServingClient(replicas.addresses[:1])
        second = ServingClient(replicas.addresses[1:])
        with first, second:
            # Write through the *follower*: it forwards to the leader,
            # which ships back — read-your-writes on both.
            cold = second.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            assert cold == N_USERS
            assert first.stats()["n_folded_in"] == 1
            assert second.stats()["n_folded_in"] == 1
            assert len(first.top_n(cold, n=3)) == 3
            assert len(second.top_n(cold, n=3)) == 3
            digests = {client.health(digest=True)["digest"]
                       for client in (first, second)}
            assert len(digests) == 1


def test_share_nothing_mode_is_still_available(snapshot):
    """``replicate=False`` restores per-replica mutations, pinned."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, replicate=False) as replicas:
        first = ServingClient(replicas.addresses[:1])
        second = ServingClient(replicas.addresses[1:])
        with first, second:
            cold = first.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            assert first.stats()["n_folded_in"] == 1
            assert second.stats()["n_folded_in"] == 0
            assert len(first.top_n(cold, n=3)) == 3
            with pytest.raises(NetError, match="outside"):
                second.top_n(cold, n=3)


def test_address_ring_round_robin_and_cooldown():
    backoff = Backoff(base=0.2, cap=0.2, jitter=0.0)
    ring = _AddressRing([("a", 1), ("b", 2), ("c", 3)], backoff=backoff)
    assert ring.candidates() == [0, 1, 2]
    ring.mark_used(0)
    assert ring.candidates() == [1, 2, 0]
    ring.mark_dead(1)
    assert ring.candidates() == [2, 0, 1]  # cooling replica is last resort
    time.sleep(0.25)
    assert ring.candidates() == [1, 2, 0]  # cooldown expired
    with pytest.raises(ValueError):
        _AddressRing([])


def test_replica_set_validates_configuration(snapshot):
    with pytest.raises(ValueError, match="ports"):
        ReplicaSet(lambda index: PredictionService(snapshot),
                   n_replicas=2, ports=[0])
