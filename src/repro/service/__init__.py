"""Long-lived throughput-evaluation service (daemon + client, stdlib-only).

A ``repro.cli serve`` process keeps the expensive state alive between
requests and answers JSON-framed queries over a loopback socket:

* :mod:`repro.service.protocol` — newline-delimited JSON framing;
* :mod:`repro.service.diskcache` — tier-2 persistent score cache
  (fingerprint-keyed JSONL on the campaign store's crash-safe
  machinery), so a *restarted* server still answers repeat queries
  without recomputation;
* :mod:`repro.service.queue` — single-flight coalescing: N identical
  concurrent requests cost one evaluator run and get N replies;
* :mod:`repro.service.workers` — the :class:`EvaluationEngine`: one
  long-lived (optionally LRU-bounded) :class:`StructureCache`, one
  persistent process pool with crash recovery (bounded restart budget,
  degrade-to-serial past it), per-task failure isolation;
* :mod:`repro.service.faults` — deterministic counted fault injection
  (dropped replies, delays, worker crashes, torn cache tails) behind
  the chaos tests and ``repro.cli serve --faults``;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  daemon (bounded admission, load shedding with ``retry_after``,
  graceful drain) and the client library (per-request deadlines,
  retry with exponential backoff) behind ``repro.cli
  serve/submit/ping/stats/shutdown`` and ``campaign run
  --via-service``.

One server is the whole deployment: the structure cache is the thing
that makes repeat queries cheap, and one process holding the whole
cache answers a mixed trace faster than the same cache split across
shards (see ``BENCH_PR13.json``).

Observability (see :mod:`repro.telemetry`): every frame may carry a
``request_id`` trace token (minted by :class:`ServiceClient` and reused
across retries), the engine registers into a process-local metrics
registry exposed by the ``metrics`` op (JSON + Prometheus text) and a
phase profiler exposed by the ``profile`` op, and the server can log
one JSONL event per traced request to a crash-safe flight recorder
that ``repro.cli trace`` searches.
"""

from repro.service.client import RetryPolicy, ServiceClient, wait_for_service
from repro.service.diskcache import DiskScoreCache, score_digest
from repro.service.faults import FaultInjector
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    parse_endpoint,
    publish_ready_file,
)
from repro.service.queue import CoalescingQueue
from repro.service.server import ServiceServer, serve_in_thread
from repro.service.workers import EvaluationEngine, normalize_task

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "CoalescingQueue",
    "DiskScoreCache",
    "EvaluationEngine",
    "FaultInjector",
    "RetryPolicy",
    "ServiceClient",
    "ServiceServer",
    "normalize_task",
    "parse_endpoint",
    "publish_ready_file",
    "score_digest",
    "serve_in_thread",
    "wait_for_service",
]
