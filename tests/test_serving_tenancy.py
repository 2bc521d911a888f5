"""Per-tenant sessions: byte caps (config, wiring, CLI flags), close_all."""

from __future__ import annotations

import pytest

from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.serving.config import ServerConfig
from repro.serving.sessions import SessionManager
from repro.utils.exceptions import ConfigurationError, ReproError


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(150, 3, seed=1, reciprocal=0.3))


class TestConfigValidation:
    def test_tenant_cap_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="tenant_byte_caps"):
            ServerConfig(tenant_byte_caps={"t1": 0})


class TestTenantByteCaps:
    def test_named_tenant_gets_override_others_the_default(self, graph):
        manager = SessionManager(
            ServerConfig(
                algorithm="subsim",
                seed=7,
                byte_cap=1_000_000,
                tenant_byte_caps={"whale": 8_000_000, "minnow": 4_096},
            )
        )
        caps = {}
        for tenant in ("whale", "minnow", "anyone-else"):
            with manager.lease(tenant, "g", graph) as session:
                caps[tenant] = session.provider.byte_cap
        assert caps == {
            "whale": 8_000_000,
            "minnow": 4_096,
            "anyone-else": 1_000_000,
        }

    def test_override_without_global_default(self, graph):
        manager = SessionManager(
            ServerConfig(
                algorithm="subsim",
                seed=7,
                tenant_byte_caps={"capped": 2_048},
            )
        )
        with manager.lease("capped", "g", graph) as session:
            assert session.provider.byte_cap == 2_048
        with manager.lease("free", "g", graph) as session:
            assert session.provider.byte_cap is None

    def test_capped_tenant_still_answers_like_uncapped(self, graph):
        manager = SessionManager(
            ServerConfig(
                algorithm="subsim",
                eps=0.4,
                seed=7,
                tenant_byte_caps={"tiny": 1},
            )
        )
        answers = {}
        for tenant in ("tiny", "roomy"):
            for _ in range(2):
                with manager.lease(tenant, "g", graph) as session:
                    answers.setdefault(tenant, []).append(
                        session.maximize(4, eps=0.4).seeds
                    )
        # Eviction between queries changes cost, never answers — and the
        # per-tenant entropy keeps each tenant deterministic.
        assert answers["tiny"][0] == answers["tiny"][1]
        assert answers["roomy"][0] == answers["roomy"][1]


class TestSessionLifecycle:
    def test_close_all_idempotent(self, graph):
        manager = SessionManager(ServerConfig(eps=0.4, seed=7))
        with manager.lease("t1", "g", graph) as session:
            session.maximize(3, eps=0.4)
        manager.close_all()
        manager.close_all()
        assert manager.entries() == []


class TestTenantByteCapCli:
    def test_parse_pairs(self):
        from repro.cli import _parse_tenant_byte_caps

        assert _parse_tenant_byte_caps(None) == {}
        assert _parse_tenant_byte_caps(
            ["whale=8000000", "minnow=4096"]
        ) == {"whale": 8_000_000, "minnow": 4_096}

    @pytest.mark.parametrize("bad", ["no-equals", "=123", "t=notanumber"])
    def test_malformed_spec_rejected(self, bad):
        from repro.cli import _parse_tenant_byte_caps

        with pytest.raises(ReproError, match="tenant-byte-cap"):
            _parse_tenant_byte_caps([bad])

    def test_serve_parser_accepts_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--graph", "g=/tmp/g.npz",
            "--tenant-byte-cap", "whale=8000000",
            "--tenant-byte-cap", "minnow=4096",
        ])
        assert args.tenant_byte_cap == ["whale=8000000", "minnow=4096"]
