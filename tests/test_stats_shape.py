"""Pinned reply shapes of the service ``ping`` and ``stats`` ops.

A tiny farm — one cache service, one compile daemon using it, and a
router in front — serves one tenant-tagged request.  The ``ping`` and
``stats`` replies of all three servers (plus the cache service's
``cache.stats``) are then reduced to their *shape*: every key, and the
type of every value.  The expected shapes were recorded from the
hand-rolled-counter implementation these replies used to come from,
so a refactor of how the servers count cannot silently drop a key or
turn an int into a float.

Two maps are open by design: ``metrics`` (a registry snapshot, whose
series depend on what fired) and the breaker's ``keys`` (content
hashes of the request's sources); for those only the value shapes
are pinned.
"""

from __future__ import annotations

import os
import tempfile

from repro.service import (
    CacheServer, CacheStore, ClusterConfig, CompileServer, Router,
    RouterServer, ShardSpec, Supervisor, SupervisorConfig,
    single_request, wait_ready,
)

SOURCE = """
struct item { long key; long val; double dead; };
struct item *tab;
int main() {
    int i; long s = 0;
    tab = (struct item*) malloc(50 * sizeof(struct item));
    for (i = 0; i < 50; i++) { tab[i].key = i; tab[i].val = 2 * i; }
    for (i = 0; i < 50; i++) s += tab[i].key + tab[i].val;
    printf("s=%ld\\n", s);
    return 0;
}
"""


def shape(value, path: tuple = ()):
    """Keys and value types, recursively; open maps collapse to
    ``{"*": <shape of their values>}``."""
    if isinstance(value, dict):
        if path and path[-1] == "metrics":
            return "map"
        if path[-2:] == ("breaker", "keys"):
            return {"*": shape(v, path + ("*",)) for v in value.values()}
        return {k: shape(v, path + (k,)) for k, v in value.items()}
    if isinstance(value, list):
        return [shape(value[0], path)] if value else []
    return type(value).__name__


def collect_replies() -> dict:
    tmp = tempfile.mkdtemp(prefix="repro-shape-", dir="/tmp")
    cache_sock = os.path.join(tmp, "cache.sock")
    daemon_sock = os.path.join(tmp, "s0.sock")
    cache = CacheServer(cache_sock, CacheStore(os.path.join(tmp, "c")))
    daemon = CompileServer(daemon_sock, Supervisor(SupervisorConfig(
        pool_size=1, cache_dir=f"unix:{cache_sock}",
        crash_dir=os.path.join(tmp, "crashes"))))
    router = RouterServer(os.path.join(tmp, "router.sock"), Router(
        ClusterConfig(shards=[ShardSpec("s0", daemon_sock)],
                      cache_socket=cache_sock)))
    servers = [cache, daemon, router]
    try:
        for srv in servers:
            srv.start()
            assert wait_ready(srv.socket_path, timeout=30)
        served = single_request(router.socket_path, {
            "op": "analyze", "tenant": "acme",
            "sources": [["demo.c", SOURCE]]}, timeout=120)
        assert served["status"] == "ok", served
        replies = {}
        for name, srv in (("daemon", daemon), ("router", router),
                          ("cache", cache)):
            for op in ("ping", "stats"):
                replies[f"{name}.{op}"] = single_request(
                    srv.socket_path, {"op": op})
        replies["cache.cache.stats"] = single_request(
            cache.socket_path, {"op": "cache.stats"})
        return replies
    finally:
        for srv in reversed(servers):
            srv.shutdown()


def test_reply_shapes_are_pinned():
    replies = collect_replies()
    got = {name: shape(reply) for name, reply in replies.items()}
    assert set(got) == set(EXPECTED)
    for name in EXPECTED:
        assert got[name] == EXPECTED[name], name
    # the open metrics maps still hold numbers or histogram summaries
    for name in ("daemon.stats", "cache.stats"):
        for series, v in replies[name]["stats"]["metrics"].items():
            assert isinstance(v, (int, float)) or set(v) == {
                "count", "sum", "min", "max", "mean"}, series


def _ints(*keys: str) -> dict:
    return dict.fromkeys(keys, "int")


# Recorded from the hand-rolled-counter implementation.
ENVELOPE = {"id": "NoneType", "op": "str", "status": "str", "v": "int"}
CONNECTIONS = {**_ints("accepted", "bad_version", "evicted_idle",
                       "max_connections", "max_request_bytes", "open",
                       "oversized", "refused"),
               "idle_timeout_s": "float"}
CACHE_STATS = {
    "cache": {**_ints("bytes", "corrupt", "entries", "evictions", "hits",
                      "misses", "puts"),
              "budget_bytes": "NoneType", "root": "str"},
    "connections": CONNECTIONS,
    "metrics": "map",
    "server": {"draining": "bool", "in_flight": "int", "role": "str",
               "socket": "str", "uptime_s": "float"},
}
DAEMON_STATS = {
    "breaker": {"cooldown_s": "float", "threshold": "int",
                "keys": {"*": {**_ints("consecutive_failures",
                                       "failures", "successes",
                                       "trips"),
                               "state": "str"}}},
    "connections": CONNECTIONS,
    "fairness": {"drain_rate_per_s": "float",
                 "oldest_age_s": "NoneType",
                 **_ints("queue_capacity", "queue_depth"),
                 "service_time_p50_s": {},
                 "tenant_burst": "float", "tenant_rate": "float",
                 "tenants": {"acme": _ints(
                     "admitted", "completed", "deadline_evicted",
                     "hopeless", "queued", "rejected", "shed")}},
    "metrics": "map",
    "server": {**_ints("deadline_refused", "dispatching",
                       "effective_cores", "in_flight", "queue_depth",
                       "queue_max", "served", "shed"),
               "draining": "bool", "oldest_age_s": "NoneType",
               "socket": "str", "uptime_s": "float"},
    "supervisor": {**_ints("attempts", "breaker_skips", "busy",
                           "crash_reports_dropped", "crashes",
                           "deadline_exceeded", "deadline_kills",
                           "errors", "hang_kills", "idle_workers",
                           "pool_size", "requests", "respawns",
                           "served_degraded", "served_ok", "spawns"),
                   "crash_dir": "str"},
    "traces": [],
}
ROUTER_STATS = {
    "cache": CACHE_STATS,
    "connections": CONNECTIONS,
    "fairness": {"in_flight": "int", "oldest_age_s": "NoneType",
                 "retry_burst": "float", "retry_rate": "float",
                 "tenant_burst": "float", "tenant_rate": "float",
                 "tenants": {"acme": _ints(
                     "completed", "deadline_exceeded", "failed",
                     "rejected", "requests", "retries_denied")}},
    "ha": {"active": "bool", "peers": [], "rank": "int",
           "takeovers": "int"},
    "router": _ints("completed", "deadline_refused", "ejections",
                    "exhausted", "failovers", "hedge_wins", "hedges",
                    "no_healthy_shard", "readmissions", "rejected",
                    "requests", "retries_denied"),
    "server": {"draining": "bool", "in_flight": "int",
               "oldest_age_s": "NoneType", "queue_depth": "int",
               "role": "str", "socket": "str", "uptime_s": "float"},
    "shards": {"s0": {**_ints("completed", "consecutive_failures",
                              "dispatched", "ejections", "failed"),
                      "draining": "bool", "healthy": "bool",
                      "latency_p50_ms": "float",
                      "latency_p95_ms": "float",
                      "socket": "str", "weight": "float"}},
}
PING = {**ENVELOPE, "draining": "bool", "pong": "bool"}
EXPECTED = {
    "daemon.ping": PING,
    "daemon.stats": {**ENVELOPE, "stats": DAEMON_STATS},
    "router.ping": {**PING, "active": "bool", "rank": "int",
                    "role": "str", "shards": "int"},
    "router.stats": {**ENVELOPE, "stats": ROUTER_STATS},
    "cache.ping": {**PING, "role": "str"},
    "cache.stats": {**ENVELOPE, "stats": CACHE_STATS},
    "cache.cache.stats": {**ENVELOPE, "stats": CACHE_STATS},
}
