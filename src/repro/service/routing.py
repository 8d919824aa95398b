"""Routing primitives: rendezvous hashing over a source digest, and
the two-choice placement rule.

The front tier (:mod:`repro.service.router`) spreads jobs across many
daemon instances.  The one piece of state a daemon carries from job to
job is its result cache, keyed on the exact ``(kind, source, entry,
args)`` text of a job, which only pays when the *same program* comes
back to the same daemon.  The routing key is therefore a digest of the
submitted ``kind`` and ``source`` (:func:`routing_key`): two jobs that
submit the same text land on the same shard, where a repeat can be
served from that shard's result cache, while unrelated programs spread
out.

Three pieces, all pure enough to test exhaustively:

* :func:`routing_key` — the sha256 of ``kind \\x00 source``.  Every job
  pair that could share a result-cache entry shares a key, and
  computing it never touches the frontend or the IR parser, so hostile
  or huge sources cost the router one hash and the backend owns the
  structured 4xx.  It depends on no process state, so every router
  instance computes the same key.
* :func:`hrw_order` — highest-random-weight (rendezvous) hashing.  For
  a key and a set of backend ids it produces a total order; the first
  routable backend in that order serves the job.  HRW gives the two
  properties sharding needs with no coordination state: the order is a
  pure function of (key, ids), so every router instance — and the same
  router across restarts — agrees; and removing a backend only moves
  the keys whose first choice was the removed backend (minimal
  redistribution), everything else stays sticky.
* :func:`two_choice_order` — the placement rule on top of HRW.  Pure
  stickiness sends concurrent jobs that share a home to one CPU-bound
  daemon while another sits idle; so a job whose healthy home has
  strictly more relays in flight than its healthy second choice goes to
  the second choice instead (Mitzenmacher's "power of two choices").
  Only the first two entries ever trade places: ties, an idle router
  and every later failover step keep the HRW order, so sequential
  traffic stays fully sticky and a program's cached result lives on at
  most two shards.
"""

from __future__ import annotations

import hashlib
from typing import AbstractSet, List, Mapping, Sequence


def routing_key(payload: object) -> str:
    """The routing key for a decoded job payload.

    Only ``kind`` (default ``minic``, as
    :class:`~repro.service.jobs.JobRequest` defaults it) and ``source``
    feed the key: the same program with different entry/args/options
    still goes to the same shard.  A payload with no string ``source``
    routes by the digest of its ``repr``; the backend rejects it either
    way.
    """
    if isinstance(payload, dict) and isinstance(payload.get("source"), str):
        material = f"{payload.get('kind', 'minic')}\x00{payload['source']}"
    else:
        material = repr(payload)
    return hashlib.sha256(material.encode("utf-8", "replace")).hexdigest()


def hrw_order(key: str, backend_ids: Sequence[str]) -> List[str]:
    """Rendezvous (highest-random-weight) order of ``backend_ids`` for
    ``key``: deterministic, coordination-free, minimally disruptive.

    Every backend is scored by ``sha256(key \\x00 backend_id)`` and the
    list is returned highest-score first (ties — impossible in practice,
    cheap to defuse — break on the id).  Element 0 is the sticky home;
    the rest is the failover order the router walks when the home shard
    is draining, down, or circuit-open.
    """
    def score(backend_id: str) -> bytes:
        return hashlib.sha256(
            f"{key}\x00{backend_id}".encode("utf-8")
        ).digest()

    return sorted(backend_ids, key=lambda b: (score(b), b), reverse=True)


def two_choice_order(
    order: Sequence[str],
    inflight: Mapping[str, int],
    healthy: AbstractSet[str],
) -> List[str]:
    """The order a job walks: ``order`` (an :func:`hrw_order`) with its
    first two entries swapped when both are ``healthy`` and the home has
    strictly more relays in flight than the second choice.

    The job then spills to its second choice and nowhere else: a busy
    home never sends work to the third choice or later, nor to a shard
    that may not take it, and an unroutable home is left to the
    failover walk.  Everything after the first two entries keeps its
    HRW position.
    """
    placed = list(order)
    if (
        len(placed) > 1
        and placed[0] in healthy
        and placed[1] in healthy
        and inflight[placed[0]] > inflight[placed[1]]
    ):
        placed[0], placed[1] = placed[1], placed[0]
    return placed
