"""Sticky routing primitives: rendezvous hashing over module fingerprints.

The front tier (:mod:`repro.service.router`) spreads jobs across many
daemon instances.  The one piece of state a daemon carries from job to
job is its result cache, which only pays when the *same program* comes
back to the same daemon.  The routing key is therefore the module
fingerprint (:func:`module_fingerprint`): two jobs that submit the
same program land on the same shard, where a repeat can be served from
that shard's result cache, while unrelated programs spread out.

Three pieces, all pure enough to test exhaustively:

* :func:`content_fingerprint` / :func:`module_fingerprint` — stable
  sha256 digests of everything promotion reads from a function: the
  printed IR, the frame-variable table (including ``address_taken``,
  which the printer does not show), and the naming counters (two
  textually identical functions with different ``_next_reg`` would
  promote to differently *named* registers).  They depend on no
  process state, so every router instance computes the same key, and
  ``repro-minic --fingerprint`` prints a key a client can route on.

* :func:`hrw_order` — highest-random-weight (rendezvous) hashing.  For
  a key and a set of backend ids it produces a total order; the first
  routable backend in that order serves the job.  HRW gives the two
  properties sharding needs with no coordination state: the order is a
  pure function of (key, ids), so every router instance — and the same
  router across restarts — agrees; and removing a backend only moves
  the keys whose first choice was the removed backend (minimal
  redistribution), everything else stays sticky.
* :class:`FingerprintResolver` — turns a job payload into a routing
  key.  It compiles/parses the submitted source once, computes the
  module fingerprint, and LRU-caches the result keyed by a digest of
  the raw (kind, source) material, so the hot path is one dict lookup
  per request.  Hostile or uncompilable payloads never raise: they fall
  back to a stable content digest (the backend will produce the proper
  structured 4xx), so the router cannot be wedged by bad input.
"""

from __future__ import annotations

import collections
import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.limits import InputLimits
from repro.ir.function import Function

#: How a routing key was derived: a real module fingerprint, or the
#: stable digest fallback for payloads the frontend rejects.
KEY_MODULE = "module"
KEY_DIGEST = "digest"


def _var_tuple(var) -> tuple:
    """Every :class:`MemoryVar` field promotion can observe."""
    return (
        var.name,
        var.kind.value,
        var.initial,
        var.size,
        tuple(var.initial_values) if var.initial_values is not None else None,
        bool(var.address_taken),
    )


def content_fingerprint(function: Function) -> str:
    """A stable digest of one function's promotion-relevant content.

    Covers the printed IR, the frame-variable table, and the naming
    counters (``_next_reg``/``_next_block``/``_mem_versions``) — the
    counters matter because promotion *names* new registers and blocks
    from them, so two structurally identical functions with different
    counters transform to textually different IR.  Equal fingerprints
    imply promotion produces byte-identical results.
    """
    from repro.ir.printer import print_function

    digest = hashlib.sha256()
    digest.update(print_function(function).encode())
    digest.update(repr((function._next_reg, function._next_block)).encode())
    versions = sorted(
        (var.name, version) for var, version in function._mem_versions.items()
    )
    digest.update(repr(versions).encode())
    frame = [_var_tuple(var) for var in function.frame_vars.values()]
    digest.update(repr(frame).encode())
    return digest.hexdigest()


def module_fingerprint(module) -> Tuple[str, Dict[str, str]]:
    """(module key, per-function content keys).

    The module key covers the module name, the globals table (names,
    kinds, sizes, initials, address-taken bits: the alias model resolves
    globals by name) and every function's content fingerprint in
    declaration order; two modules with equal keys are IR-equivalent as
    far as promotion is concerned, which is what makes the key a sound
    sticky-routing key: the daemon that served a program before holds
    its result in its result cache.
    """
    fps = {
        name: content_fingerprint(function)
        for name, function in module.functions.items()
    }
    globals_digest = hashlib.sha256(
        repr([_var_tuple(v) for v in module.globals.values()]).encode()
    ).hexdigest()
    digest = hashlib.sha256()
    digest.update(module.name.encode())
    digest.update(globals_digest.encode())
    for name, fp in fps.items():
        digest.update(name.encode())
        digest.update(fp.encode())
    return digest.hexdigest(), fps


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


def _digest(material: str) -> str:
    return hashlib.sha256(material.encode("utf-8", "replace")).hexdigest()


class FingerprintResolver:
    """Payload → (routing key, how it was derived).

    The LRU is keyed by a digest of the *raw* material (kind + source),
    so resolving never compiles the same program twice while the entry
    is warm; the stored key is the true module fingerprint when the
    frontend accepts the source.  Thread-safe: the router resolves in a
    worker thread to keep the event loop responsive, and tests may hit
    it from several threads.
    """

    def __init__(
        self,
        limits: Optional[InputLimits] = None,
        cache_size: int = 256,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.limits = limits or InputLimits()
        self._cache: "collections.OrderedDict[str, Tuple[str, str]]" = (
            collections.OrderedDict()
        )
        self._cache_size = cache_size
        self._lock = threading.Lock()
        self.compiled = 0
        self.cache_hits = 0
        self.fallbacks = 0

    def resolve(self, payload: object) -> Tuple[str, str]:
        """The routing key for a decoded job payload.

        Returns ``(key, KEY_MODULE)`` when the source compiles/parses
        and ``(key, KEY_DIGEST)`` otherwise.  Only ``kind`` and
        ``source`` feed the key: the module *is* the locality unit —
        the same program with different entry/args still goes to the
        same shard.
        """
        if not isinstance(payload, dict) or not isinstance(
            payload.get("source"), str
        ):
            with self._lock:
                self.fallbacks += 1
            return _digest(repr(payload)), KEY_DIGEST
        kind = payload.get("kind", "minic")
        material = f"{kind}\x00{payload['source']}"
        cache_key = _digest(material)
        with self._lock:
            hit = self._cache.get(cache_key)
            if hit is not None:
                self._cache.move_to_end(cache_key)
                self.cache_hits += 1
                return hit
        entry = self._fingerprint(kind, payload["source"], material)
        with self._lock:
            if entry[1] == KEY_DIGEST:
                self.fallbacks += 1
            else:
                self.compiled += 1
            if self._cache_size:
                self._cache[cache_key] = entry
                self._cache.move_to_end(cache_key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return entry

    def _fingerprint(self, kind: str, source: str, material: str) -> Tuple[str, str]:
        try:
            if kind == "minic":
                from repro.frontend.lower import compile_source

                module = compile_source(source, limits=self.limits)
            elif kind == "ir":
                from repro.ir.parser import parse_module

                self.limits.check_source(source)
                module = parse_module(source)
            else:
                return _digest(material), KEY_DIGEST
            return module_fingerprint(module)[0], KEY_MODULE
        except Exception:
            # Anything the frontend rejects (or an unexpectedly hostile
            # source) routes by content digest; the backend owns turning
            # it into a structured 4xx.  The router must never die here.
            return _digest(material), KEY_DIGEST

    def counters(self) -> dict:
        with self._lock:
            return {
                "compiled": self.compiled,
                "cache_hits": self.cache_hits,
                "fallbacks": self.fallbacks,
                "entries": len(self._cache),
            }
