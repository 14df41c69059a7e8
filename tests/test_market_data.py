from __future__ import annotations

import hashlib
import json
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmark.cli import main as cli_main
from driftmark.errors import (
    CorruptRecord,
    InvalidParameters,
    MalformedResponse,
    NetworkError,
    PriceOutOfRange,
    UnsortedFeed,
)
from driftmark.market_data import (
    Domain,
    EventCategory,
    Horizon,
    Liquidity,
    Risk,
    categorize_event,
    fetch_snapshot,
    generate_synthetic,
    replay_feed,
    save_feed,
    save_outcomes,
    load_outcomes,
    snapshot_to_record,
)

from conftest import make_snapshot

UTC = timezone.utc


# --- live fetch against a local server ------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    payload: dict = {}
    status: int = 200

    def do_GET(self):
        body = json.dumps(self.payload).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/price", _Handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _body(yes=0.62, no=0.38):
    return {
        "condition_id": "0x" + "11" * 20,
        "question": "Will the market index close higher this period?",
        "yes_price": yes,
        "no_price": no,
        "liquidity_tier": "high",
        "end_time": "2026-12-01T00:00:00Z",
    }


class TestFetchSnapshot:
    def test_passthrough_prices(self, http_server):
        endpoint, handler = http_server
        handler.payload = _body(0.62, 0.38)
        handler.status = 200
        snap = fetch_snapshot(endpoint, "0x" + "11" * 20)
        assert snap.yes_price == 0.62
        assert snap.no_price == 0.38

    def test_price_out_of_range(self, http_server):
        endpoint, handler = http_server
        handler.payload = _body(1.3, -0.3)
        with pytest.raises(PriceOutOfRange):
            fetch_snapshot(endpoint, "x")

    def test_spread_violation_rejected(self, http_server):
        endpoint, handler = http_server
        handler.payload = _body(0.8, 0.8)
        with pytest.raises(PriceOutOfRange):
            fetch_snapshot(endpoint, "x")

    def test_unreachable_endpoint(self):
        with pytest.raises(NetworkError) as err:
            fetch_snapshot("http://127.0.0.1:9/price", "x", timeout=0.5)
        assert err.value.retryable

    def test_malformed_body(self, http_server):
        endpoint, handler = http_server
        handler.payload = {"nope": 1}
        with pytest.raises(MalformedResponse):
            fetch_snapshot(endpoint, "x")

    def test_server_error_is_retryable(self, http_server):
        endpoint, handler = http_server
        handler.payload = _body()
        handler.status = 503
        with pytest.raises(NetworkError):
            fetch_snapshot(endpoint, "x")
        handler.status = 200


# --- replay ------------------------------------------------------------------------


def _write_feed(path, snapshots):
    save_feed(snapshots, path)
    return path


class TestReplay:
    def test_replays_in_order(self, tmp_path):
        base = datetime(2026, 2, 1, tzinfo=UTC)
        snaps = [
            make_snapshot(cid=f"0x{i:040x}", observed=base + timedelta(hours=i))
            for i in range(3)
        ]
        feed = _write_feed(tmp_path / "feed.jsonl", snaps)
        out = list(replay_feed(feed))
        assert len(out) == 3
        assert [s.condition_id for s in out] == [s.condition_id for s in snaps]

    def test_replay_idempotent(self, tmp_path):
        feed = generate_synthetic(3, 20, 4)
        path = _write_feed(tmp_path / "feed.jsonl", feed.snapshots)

        def stream_hash():
            h = hashlib.sha256()
            for s in replay_feed(path):
                h.update(json.dumps(snapshot_to_record(s), sort_keys=True).encode())
            return h.hexdigest()

        assert stream_hash() == stream_hash()

    def test_unsorted_feed_rejected(self, tmp_path):
        base = datetime(2026, 2, 1, tzinfo=UTC)
        snaps = [
            make_snapshot(cid="0x" + "aa" * 20, observed=base + timedelta(hours=1)),
            make_snapshot(cid="0x" + "bb" * 20, observed=base),
        ]
        feed = _write_feed(tmp_path / "feed.jsonl", snaps)
        with pytest.raises(UnsortedFeed):
            list(replay_feed(feed))

    def test_corrupt_record_reports_line(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        good = json.dumps(snapshot_to_record(make_snapshot()))
        path.write_text(good + "\n{not json}\n", encoding="utf-8")
        with pytest.raises(CorruptRecord) as err:
            list(replay_feed(path))
        assert err.value.line_no == 2

    def test_tiny_positive_price_is_a_corrupt_record(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        good = snapshot_to_record(make_snapshot())
        tiny = dict(good, yes_price=5e-324, no_price=1.0)
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(tiny) + "\n", encoding="utf-8"
        )
        with pytest.raises(CorruptRecord) as err:
            list(replay_feed(path))
        assert err.value.line_no == 2

    def test_run_on_a_tiny_price_exits_1(self, tmp_path, capsys):
        """The engine would otherwise raise OverflowError from an expected
        return of 1/price."""
        feed = generate_synthetic(7, 35, 3)
        records = [snapshot_to_record(s) for s in feed.snapshots]
        records[40].update(yes_price=5e-324, no_price=1.0)
        path = tmp_path / "feed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = cli_main([
            "--out", str(tmp_path / "runs"), "run", "--agents", "momentum,mean_reversion",
            "--cycles", "3", "--feed", str(path),
        ])
        assert code == 1
        assert "line 41" in capsys.readouterr().err

    def test_outcome_round_trip(self, tmp_path):
        feed = generate_synthetic(3, 5, 2)
        path = tmp_path / "outcomes.jsonl"
        save_outcomes(feed.outcomes, path)
        assert load_outcomes(path) == feed.outcomes

    def test_multinomial_records_skipped(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        good = snapshot_to_record(make_snapshot())
        multi = dict(good, outcome_count=4)
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(multi) + "\n" + json.dumps(good) + "\n",
            encoding="utf-8",
        )
        skipped: list[int] = []
        out = list(replay_feed(path, skipped_multinomial=skipped))
        assert len(out) == 2
        assert skipped == [2]


# --- synthesis -----------------------------------------------------------------------


class TestSynthetic:
    def test_seeded_determinism(self):
        a = generate_synthetic(7, 10, 5)
        b = generate_synthetic(7, 10, 5)
        assert a.snapshots == b.snapshots
        assert a.outcomes == b.outcomes

    def test_different_seeds_differ(self):
        a = generate_synthetic(7, 10, 5)
        b = generate_synthetic(8, 10, 5)
        assert a.snapshots != b.snapshots

    def test_bernoulli_band_mean(self):
        # markets with p* near 0.70 resolve YES about 70% of the time
        feed = generate_synthetic(7, 10000, 2)
        outcomes = {o.condition_id: o.outcome for o in feed.outcomes}
        band = [outcomes[cid] for cid, p in feed.true_probs.items() if 0.69 <= p <= 0.71]
        assert len(band) > 100
        assert abs(np.mean(band) - 0.70) <= 0.02

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            generate_synthetic(7, 0, 5)
        with pytest.raises(InvalidParameters):
            generate_synthetic(7, 5, 1)

    def test_snapshots_validate(self):
        feed = generate_synthetic(11, 50, 4)
        for s in feed.snapshots:
            s.validate(spread_tolerance=0.02)

    def test_category_mix_respected(self):
        mix = {
            EventCategory(Risk.HIGH, Domain.POLITICAL, Horizon.SHORT): 1.0,
        }
        feed = generate_synthetic(5, 200, 2, category_mix=mix)
        first_cycle = feed.cycles()[0]
        for s in first_cycle:
            cat = categorize_event(s.question, s.end_time, s.observed_at, s.yes_price)
            assert cat.domain == Domain.POLITICAL
            assert cat.risk == Risk.HIGH

    def test_cycles_grouping(self):
        feed = generate_synthetic(3, 7, 4)
        cycles = feed.cycles()
        assert len(cycles) == 4
        assert all(len(c) == 7 for c in cycles)


# --- categorization ----------------------------------------------------------------------


class TestCategorize:
    def test_election_short_low(self, now):
        cat = categorize_event(
            "Will the election be close?", now + timedelta(days=3), now, 0.50
        )
        assert cat == EventCategory(Risk.LOW, Domain.POLITICAL, Horizon.SHORT)

    def test_extreme_price_is_high_risk(self, now):
        cat = categorize_event("anything", now + timedelta(days=3), now, 0.05)
        assert cat.risk == Risk.HIGH

    def test_year_out_is_long(self, now):
        cat = categorize_event("anything", now + timedelta(days=365), now, 0.5)
        assert cat.horizon == Horizon.LONG

    def test_default_domain_economic(self, now):
        cat = categorize_event("Will it rain tomorrow?", now + timedelta(days=1), now, 0.5)
        assert cat.domain == Domain.ECONOMIC

    def test_first_match_wins(self, now):
        cat = categorize_event(
            "Will the election move the market?", now + timedelta(days=1), now, 0.5
        )
        assert cat.domain == Domain.POLITICAL

    def test_rules_must_be_nonempty(self, now):
        with pytest.raises(InvalidParameters):
            categorize_event("q", now + timedelta(days=1), now, 0.5, rules=())

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=1000),
        st.text(max_size=80),
    )
    @settings(max_examples=200)
    def test_total_and_deterministic(self, yes, days_out, question):
        now = datetime(2026, 2, 1, tzinfo=UTC)
        end = now + timedelta(days=days_out)
        a = categorize_event(question, end, now, yes)
        b = categorize_event(question, end, now, yes)
        assert a == b
        assert a.risk in list(Risk) and a.domain in list(Domain) and a.horizon in list(Horizon)


def test_rate_limiter_throttles():
    import time

    from driftmark.market_data import RateLimiter

    limiter = RateLimiter(rate_per_sec=20.0, capacity=1)
    t0 = time.monotonic()
    for _ in range(5):
        limiter.acquire()
    elapsed = time.monotonic() - t0
    # 4 refills at 20/s after the initial token
    assert elapsed >= 0.15


class TestSnapshotValidation:
    def test_prices_outside_unit_interval_rejected(self):
        with pytest.raises(PriceOutOfRange):
            make_snapshot(yes=1.2, no=-0.2).validate()

    def test_spread_tolerance(self):
        snap = make_snapshot(yes=0.60, no=0.37)
        snap.validate(spread_tolerance=0.05)
        with pytest.raises(PriceOutOfRange):
            snap.validate(spread_tolerance=0.02)

    @pytest.mark.parametrize("yes, no", [(5e-324, 1.0), (1.0, 5e-324), (1e-7, 1.0)])
    def test_tiny_positive_price_rejected(self, yes, no):
        with pytest.raises(PriceOutOfRange, match="positive but below"):
            make_snapshot(yes=yes, no=no).validate()

    @pytest.mark.parametrize("yes, no", [(0.0, 1.0), (1e-6, 1.0), (1.0, 0.0)])
    def test_zero_and_small_prices_accepted(self, yes, no):
        make_snapshot(yes=yes, no=no).validate()

    def test_observed_after_end_rejected(self, now):
        snap = make_snapshot(observed=now, end=now - timedelta(days=1))
        with pytest.raises(PriceOutOfRange):
            snap.validate()
        snap.validate(resolved=True)
