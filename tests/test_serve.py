"""Service-core tests: the state machine's replay contract, the async
request path (typed faults, batched drains, real BUSY backpressure),
the in-process server/client pair, graceful drain, and a small
end-to-end loadgen run with replay-digest verification."""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.errors import ServeError
from repro.serve.client import AsyncServeClient, ServeFailure
from repro.serve.core import (
    FleetStateMachine,
    ServeCore,
    ServiceConfig,
    replay_request_log,
)
from repro.serve.loadgen import (
    LoadMix,
    LoadgenConfig,
    run_loadgen,
    serve_and_load,
)
from repro.serve.protocol import ErrorCode, Request
from repro.serve.server import ServeServer
from repro.units import MiB


def _place(name: str, mib: int = 1, **extra) -> Request:
    params = {"name": name, "memory_bytes": mib * MiB, **extra}
    return Request(op="place_vm", params=params)


class TestServiceConfig:
    """Config validation and wire round-trip."""

    def test_round_trip_ignores_unknown_keys(self):
        cfg = ServiceConfig(hosts=3, policy="spread", queue_depth=8)
        doc = cfg.to_dict()
        doc["from_the_future"] = True
        assert ServiceConfig.from_dict(doc) == cfg

    def test_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(hosts=0)
        with pytest.raises(ServeError):
            ServiceConfig(policy="mystery")
        with pytest.raises(ServeError):
            ServiceConfig(attack_budget=0)
        with pytest.raises(ServeError, match="'scalar', 'vectorized'"):
            ServiceConfig(backend="batched")


class TestFleetStateMachine:
    """The synchronous request path and its replay/digest contract."""

    def test_operations_append_to_log(self):
        sm = FleetStateMachine(ServiceConfig(hosts=1))
        assert sm.apply_place("a", MiB)
        sm.apply_drain()
        assert "a" in sm.owner
        sm.apply_attack(0, 1)
        sm.apply_evict("a")
        assert [e["op"] for e in sm.log] == ["place", "drain", "attack", "evict"]

    def test_evict_unknown_raises(self):
        sm = FleetStateMachine(ServiceConfig(hosts=1))
        with pytest.raises(ServeError):
            sm.apply_evict("ghost")

    def test_attack_on_idle_host(self):
        sm = FleetStateMachine(ServiceConfig(hosts=1))
        result = sm.apply_attack(0, 1)
        assert result["idle"] and result["contained"]

    def test_replay_reproduces_digest_bit_identically(self):
        config = ServiceConfig(hosts=2, seed=11)
        sm = FleetStateMachine(config)
        for i in range(6):
            sm.apply_place(f"vm{i}", (1 + i % 3) * MiB)
        sm.apply_drain()
        sm.apply_attack(0, 2)
        sm.apply_evict(next(iter(sm.owner)))
        replayed = replay_request_log(config, sm.log)
        assert replayed.state_digest() == sm.state_digest()
        assert replayed.state_snapshot() == sm.state_snapshot()

    def test_digest_scrubs_backend(self):
        """Identical op sequences digest identically across backends."""
        logs = {}
        for backend in ("scalar", "vectorized"):
            config = ServiceConfig(hosts=1, backend=backend, seed=5)
            sm = FleetStateMachine(config)
            sm.apply_place("a", 2 * MiB)
            sm.apply_drain()
            sm.apply_attack(0, 1)
            logs[backend] = sm.state_digest()
        assert logs["scalar"] == logs["vectorized"]

    def test_replay_rejects_unknown_op(self):
        with pytest.raises(ServeError):
            replay_request_log(ServiceConfig(hosts=1), [{"op": "warp"}])


class TestServeCore:
    """The async request router, driven directly (no sockets)."""

    def _core(self, **kwargs) -> ServeCore:
        return ServeCore(ServiceConfig(hosts=1, **kwargs))

    def test_place_and_evict(self):
        core = self._core()

        async def run():
            placed = await core.handle(_place("a"))
            assert placed.ok and placed.result["host"] == 0
            evicted = await core.handle(
                Request(op="evict_vm", params={"name": "a"})
            )
            assert evicted.ok and evicted.result["host"] == 0

        asyncio.run(run())

    def test_duplicate_name_is_invalid(self):
        core = self._core()

        async def run():
            assert (await core.handle(_place("a"))).ok
            dup = await core.handle(_place("a"))
            assert not dup.ok
            assert dup.error.code is ErrorCode.INVALID
            assert dup.error.reason == "duplicate-name"

        asyncio.run(run())

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"name": ""},
            {"name": "a"},
            {"name": "a", "memory_bytes": -1},
            {"name": "a", "memory_bytes": True},
            {"name": "a", "memory_mib": 0},
            {"name": "a", "memory_bytes": MiB, "socket": -1},
        ],
    )
    def test_bad_place_params(self, params):
        core = self._core()

        async def run():
            response = await core.handle(
                Request(op="place_vm", params=params)
            )
            assert not response.ok
            assert response.error.code is ErrorCode.INVALID

        asyncio.run(run())

    def test_unknown_op_and_version(self):
        core = self._core()

        async def run():
            unknown = await core.handle(Request(op="explode"))
            assert unknown.error.code is ErrorCode.UNKNOWN_OP
            stale = await core.handle(Request(op="health", v=99))
            assert stale.error.code is ErrorCode.UNSUPPORTED_VERSION

        asyncio.run(run())

    def test_flood_fills_queue_to_busy(self):
        """More same-tick placements than queue_depth: the overflow
        gets a real 429-style BUSY, not a block and not a traceback."""
        depth = 4
        core = self._core(queue_depth=depth)

        async def run():
            responses = await asyncio.gather(
                *(core.handle(_place(f"v{i}")) for i in range(depth + 3))
            )
            busy = [
                r for r in responses
                if not r.ok and r.error.code is ErrorCode.BUSY
            ]
            assert len(busy) == 3
            assert all(r.error.reason == "queue-full" for r in busy)
            assert busy[0].error.extra["queue_depth"] == depth
            assert core.counters["rejections"] == 3

        asyncio.run(run())

    def test_capacity_rejection_carries_shortfall(self):
        core = self._core(max_retries=0)

        async def run():
            i = 0
            while True:
                response = await core.handle(_place(f"v{i}"))
                if not response.ok:
                    return response
                i += 1
                assert i < 10_000

        response = asyncio.run(run())
        assert response.error.code is ErrorCode.CAPACITY
        assert response.error.reason == "retries-exhausted"
        assert response.error.extra["requested_groups"] >= 1
        assert "available_groups" in response.error.extra

    def test_evict_not_found(self):
        core = self._core()

        async def run():
            response = await core.handle(
                Request(op="evict_vm", params={"name": "ghost"})
            )
            assert response.error.code is ErrorCode.NOT_FOUND

        asyncio.run(run())

    def test_attack_unknown_host_not_found(self):
        core = self._core()

        async def run():
            response = await core.handle(
                Request(op="run_attack", params={"host": 99})
            )
            assert response.error.code is ErrorCode.NOT_FOUND

        asyncio.run(run())

    def test_reads_and_info(self):
        core = self._core()

        async def run():
            await core.handle(_place("a"))
            health = await core.handle(Request(op="health"))
            assert health.result["hosts"][0]["vms"] == 1
            cap = await core.handle(Request(op="capacity"))
            assert cap.result["placed_vms"] == 1
            assert "0" in cap.result["hosts"]
            info = await core.handle(Request(op="info"))
            assert info.result["config"]["hosts"] == 1
            assert "place_vm" in info.result["ops"]
            metrics = await core.handle(Request(op="metrics"))
            assert metrics.result["serve"]["ops.place_vm"] == 1

        asyncio.run(run())

    def test_shutdown_refuses_new_mutations(self):
        core = self._core()
        fired = []
        core.shutdown_callback = lambda: fired.append(True)

        async def run():
            down = await core.handle(Request(op="shutdown"))
            assert down.ok and "digest" in down.result
            refused = await core.handle(_place("late"))
            assert refused.error.code is ErrorCode.SHUTTING_DOWN
            await asyncio.sleep(0)  # let the call_soon callback run
            assert fired

        asyncio.run(run())

    def test_internal_errors_are_typed_not_tracebacks(self):
        core = self._core()
        core.sm.apply_attack = None  # type: ignore[assignment] — force a TypeError

        async def run():
            response = await core.handle(
                Request(op="run_attack", params={"host": 0})
            )
            assert not response.ok
            assert response.error.code is ErrorCode.INTERNAL
            assert response.error.reason == "TypeError"
            assert "Traceback" not in response.error.detail

        asyncio.run(run())

    def test_obs_serve_metrics_fold(self):
        """ServeRequestEvent feeds serve.requests / serve.rejections."""
        obs.enable(reset=True)
        try:
            depth = 2
            core = self._core(queue_depth=depth)

            async def run():
                await asyncio.gather(
                    *(core.handle(_place(f"v{i}")) for i in range(depth + 2))
                )
                await core.handle(Request(op="health"))

            asyncio.run(run())
            snap = obs.metrics_snapshot()
            counters = snap["counters"]
            assert counters["serve.requests"] == depth + 3
            assert counters["serve.rejections"] == 2
            assert counters["serve.rejections.queue-full"] == 2
            assert counters["serve.ops.health"] == 1
            assert snap["histograms"]["serve.request_wall_ns"]["count"] == (
                depth + 3
            )
        finally:
            obs.disable(reset=True)


class TestServerInProcess:
    """The TCP server + async client, in one event loop."""

    def test_round_trip_and_pipelining(self):
        async def run():
            server = ServeServer(ServiceConfig(hosts=1), port=0)
            await server.start()
            client = await AsyncServeClient().connect(port=server.port)
            try:
                results = await asyncio.gather(
                    *(
                        client.request(
                            "place_vm", name=f"v{i}", memory_bytes=MiB
                        )
                        for i in range(3)
                    )
                )
                assert all(r["host"] == 0 for r in results)
                health = await client.request("health")
                assert health["hosts"][0]["vms"] == 3
            finally:
                await client.close()
                server.request_shutdown()
                await server.wait_closed()

        asyncio.run(run())

    def test_typed_failure_surfaces_as_serve_failure(self):
        async def run():
            server = ServeServer(ServiceConfig(hosts=1), port=0)
            await server.start()
            client = await AsyncServeClient().connect(port=server.port)
            try:
                with pytest.raises(ServeFailure) as exc:
                    await client.request("evict_vm", name="ghost")
                assert exc.value.fault.code is ErrorCode.NOT_FOUND
            finally:
                await client.close()
                server.request_shutdown()
                await server.wait_closed()

        asyncio.run(run())

    def test_malformed_line_gets_bad_request_response(self):
        async def run():
            server = ServeServer(ServiceConfig(hosts=1), port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(b'{"id": 5, "nope\n')
                await writer.drain()
                from repro.serve.protocol import decode_response

                response = decode_response(await reader.readline())
                assert not response.ok
                assert response.error.code is ErrorCode.BAD_REQUEST
            finally:
                writer.close()
                server.request_shutdown()
                await server.wait_closed()

        asyncio.run(run())

    def test_graceful_drain_finishes_inflight_request(self):
        """request_shutdown mid-request: the in-flight response still
        arrives, then the connection closes."""

        async def run():
            server = ServeServer(ServiceConfig(hosts=1), port=0)
            await server.start()
            client = await AsyncServeClient().connect(port=server.port)
            try:
                await client.request("place_vm", name="a", memory_bytes=MiB)
                pending = asyncio.get_running_loop().create_task(
                    client.request("run_attack", host=0, budget=2)
                )
                # Wait until the request is genuinely in flight on the
                # server before draining (a request still in the socket
                # buffer races the stop-accepting close, like any
                # server that stops reading idle keep-alive conns).
                # The handler is synchronous and may finish before this
                # coroutine gets scheduled again, so a completed
                # response also ends the wait.
                while not pending.done() and not any(
                    c.inflight for c in server._conns
                ):
                    await asyncio.sleep(0.005)
                server.request_shutdown()
                result = await pending
                assert result["contained"] is not None
                await server.wait_closed()
                # The drained server must refuse new work: connection gone.
                with pytest.raises(ServeError):
                    await client.request("health")
            finally:
                await client.close()

        asyncio.run(run())

    def test_unix_socket_round_trip(self, tmp_path):
        async def run():
            path = str(tmp_path / "serve.sock")
            server = ServeServer(
                ServiceConfig(hosts=1), socket_path=path
            )
            addr = await server.start()
            assert addr == f"unix:{path}"
            client = await AsyncServeClient().connect(socket_path=path)
            try:
                info = await client.request("info")
                assert info["protocol"] == 1
            finally:
                await client.close()
                server.request_shutdown()
                await server.wait_closed()
            import os

            assert not os.path.exists(path)  # cleaned up on drain

        asyncio.run(run())


class TestLoadgen:
    """Small end-to-end runs with replay verification."""

    def test_mix_parse(self):
        mix = LoadMix.parse("place=10,evict=0,attack=0")
        assert mix.place == 10 and mix.evict == 0
        assert mix.health == LoadMix().health  # defaults retained
        with pytest.raises(ServeError):
            LoadMix.parse("bogus=1")
        with pytest.raises(ServeError):
            LoadMix.parse("place")
        with pytest.raises(ServeError):
            LoadMix(place=0, evict=0, attack=0, health=0, capacity=0, metrics=0).table()

    def test_config_validation(self):
        with pytest.raises(ServeError):
            LoadgenConfig(requests=0)
        with pytest.raises(ServeError):
            LoadgenConfig(connections=0)

    def test_serve_and_load_replay_matches(self):
        config = LoadgenConfig(
            requests=300,
            connections=3,
            window=8,
            seed=2,
            mix=LoadMix(place=40, evict=15, attack=1, health=24, capacity=10, metrics=10),
            attack_budget=1,
        )
        report = asyncio.run(
            serve_and_load(ServiceConfig(hosts=1, seed=2), config)
        )
        assert report.requests == 300
        assert report.errors == 0
        assert report.replay_verified, (
            f"digest mismatch: {report.server_digest} != {report.replay_digest}"
        )
        assert report.rps > 0 and report.p99_ms >= report.p50_ms
        payload = report.to_dict()
        assert payload["replay_verified"] is True
        assert "MATCH" in report.render_text()

    def test_loadgen_against_running_server(self):
        async def run():
            server = ServeServer(ServiceConfig(hosts=1, seed=4), port=0)
            await server.start()
            try:
                report = await run_loadgen(
                    LoadgenConfig(
                        requests=120, connections=2, window=4, seed=4
                    ),
                    port=server.port,
                )
            finally:
                server.request_shutdown()
                await server.wait_closed()
            assert report.requests == 120
            assert report.replay_verified

        asyncio.run(run())
