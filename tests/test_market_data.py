from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmark import market_data
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
    MarketSnapshot,
    ResolvedOutcome,
    Risk,
    categorize_event,
    feed_cycles,
    fetch_snapshot,
    generate_synthetic,
    replay_feed,
    save_feed,
    save_outcomes,
    load_outcomes,
    snapshot_from_record,
    snapshot_to_record,
)
from driftmark.timeutil import to_iso

from conftest import make_snapshot
from oracles import generate_synthetic_oracle

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

    def test_only_a_fetch_imports_the_network_stack(self):
        """Importing the package and its CLI, as every replay or synthetic
        run does, loads none of the modules a live fetch needs."""
        import driftmark

        src = str(Path(driftmark.__file__).resolve().parents[1])
        code = (
            "import sys, driftmark, driftmark.cli; "
            "print(sorted(m for m in ('ssl', 'http.client', 'urllib.request') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


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

    # A value the engine would write into a log line, or read as text, that
    # it cannot take; a line that is not an object.
    OTHER_TYPES = {
        "int_condition_id": {"condition_id": 7},
        "int_question": {"question": 5},
        "int_end_time": {"end_time": 5},
        "nan_no_price": {"no_price": float("nan")},
        "not_an_object": None,
    }

    @pytest.mark.parametrize("case", sorted(OTHER_TYPES))
    def test_record_of_other_types_is_corrupt(self, tmp_path, case):
        """Replay once read an integer condition_id or question (a run then
        ended in a TypeError from the renderer or an AttributeError from the
        categorizer), and ended in an AttributeError on an integer time or a
        line that is not an object; a NaN price was refused already."""
        path = tmp_path / "feed.jsonl"
        good = snapshot_to_record(make_snapshot())
        bad = [1] if self.OTHER_TYPES[case] is None else dict(good, **self.OTHER_TYPES[case])
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorruptRecord) as err:
            list(replay_feed(path))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("case", sorted(OTHER_TYPES))
    def test_run_on_a_record_of_other_types_exits_1(self, tmp_path, capsys, case):
        records = [snapshot_to_record(s) for s in generate_synthetic(7, 35, 3).snapshots]
        other = self.OTHER_TYPES[case]
        records[40] = [1] if other is None else dict(records[40], **other)
        path = tmp_path / "feed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = cli_main([
            "--out", str(tmp_path / "runs"), "run", "--agents", "momentum", "--cycles", "3",
            "--feed", str(path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt feed record at line 41") and err.count("\n") == 1

    @staticmethod
    def _feed_listing_a_market_twice(path: Path, at_end: bool) -> Path:
        """A 31-market, 3-cycle feed that lists each cycle's first market
        again, next to it or at the cycle's end."""
        lines = []
        for cycle in feed_cycles(generate_synthetic(7, 31, 3).snapshots):
            listed = cycle + cycle[:1] if at_end else cycle[:1] + cycle
            lines += [json.dumps(snapshot_to_record(s)) + "\n" for s in listed]
        path.write_text("".join(lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("at_end, line_no", [(False, 2), (True, 32)])
    def test_market_listed_twice_at_one_time_is_corrupt(self, tmp_path, at_end, line_no):
        """A run once forecast such a market twice per agent and cycle, and
        took its next price move against the repeat."""
        path = self._feed_listing_a_market_twice(tmp_path / "feed.jsonl", at_end)
        with pytest.raises(CorruptRecord, match="listed twice") as err:
            list(replay_feed(path))
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("command", ["replay", "run"])
    def test_cli_on_a_market_listed_twice_exits_1(self, tmp_path, capsys, command):
        path = self._feed_listing_a_market_twice(tmp_path / "feed.jsonl", at_end=False)
        argv = ["replay", "--feed", str(path)] if command == "replay" else [
            "run", "--agents", "momentum", "--cycles", "3", "--feed", str(path)
        ]
        assert cli_main(["--out", str(tmp_path / "runs"), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt feed record at line 2") and err.count("\n") == 1

    @pytest.mark.parametrize("yes", [1, 0, np.float64(0.625)])
    def test_prices_are_read_as_floats(self, yes):
        """A price of any number type enters as a ``float``, which a log
        line writes as the generic encoder does."""
        record = dict(snapshot_to_record(make_snapshot()), yes_price=yes, no_price=1 - yes)
        snapshot = snapshot_from_record(record)
        assert type(snapshot.yes_price) is float and type(snapshot.no_price) is float
        assert snapshot.yes_price == yes

    def test_outcome_round_trip(self, tmp_path):
        feed = generate_synthetic(3, 5, 2)
        path = tmp_path / "outcomes.jsonl"
        save_outcomes(feed.outcomes, path)
        assert load_outcomes(path) == feed.outcomes

    def test_multinomial_records_skipped(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        good = snapshot_to_record(make_snapshot())
        multi = dict(good, outcome_count=4)
        other = snapshot_to_record(make_snapshot(cid="0x" + "ef" * 20))
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(multi) + "\n" + json.dumps(other) + "\n",
            encoding="utf-8",
        )
        skipped: list[int] = []
        out = list(replay_feed(path, skipped_multinomial=skipped))
        assert len(out) == 2
        assert skipped == [2]


# --- writing feed and outcome files --------------------------------------------------

_OFFSETS = st.sampled_from(
    [UTC, timezone(timedelta(hours=5, minutes=30)), timezone(-timedelta(hours=7))]
)
_TIMES = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=_OFFSETS
)
# Non-ASCII, control characters and lone surrogates, which the encoder escapes.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=40)
_PRICES = st.sampled_from([1e-05, 0.1 + 0.2, 0.0, 1.0, 5e-324, 1e16]) | st.floats(
    allow_nan=False, allow_infinity=False
)


def _dumps_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


class TestWriters:
    """``save_feed`` and ``save_outcomes`` write what ``json.dumps`` writes,
    and refuse, before opening the file, a value whose line it would not."""

    @given(
        st.lists(_TEXT, min_size=1, max_size=3),
        st.lists(_TIMES, min_size=1, max_size=3),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), _PRICES, _PRICES,
                      st.sampled_from(Liquidity), st.integers(0, 2), st.integers(0, 2)),
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_feed_lines_are_json_dumps_of_the_record(self, texts, times, rows):
        def pick(pool, i):
            return pool[i % len(pool)]

        snapshots = [
            MarketSnapshot(pick(texts, c), pick(texts, q), yes, no, tier, pick(times, e),
                           pick(times, o))
            for c, q, yes, no, tier, e, o in rows
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "feed.jsonl"
            save_feed(snapshots, path)
            written = path.read_bytes().decode("ascii")
        assert written == "".join(_dumps_line(snapshot_to_record(s)) for s in snapshots)

    @given(
        st.lists(st.tuples(_TEXT, st.sampled_from([0, 1]), _TIMES), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_outcome_lines_are_json_dumps_of_the_record(self, rows):
        outcomes = [ResolvedOutcome(cid, outcome, at) for cid, outcome, at in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "outcomes.jsonl"
            save_outcomes(outcomes, path)
            written = path.read_bytes().decode("ascii")
        expected = "".join(
            _dumps_line({"condition_id": o.condition_id, "outcome": o.outcome,
                         "resolved_at": to_iso(o.resolved_at)})
            for o in outcomes
        )
        assert written == expected

    FEED_VALUES = {
        "numpy_price": {"yes": np.float64(0.5)},
        "bool_price": {"yes": True, "no": 0.0},
        "int_price": {"yes": 1, "no": 0.0},
        "nan_price": {"no": float("nan")},
        "infinite_price": {"yes": float("inf")},
        "int_condition_id": {"cid": 7},
        "bytes_question": {"question": b"Will it?"},
        "str_subclass_id": {"cid": Liquidity.LOW},
    }

    @pytest.mark.parametrize("case", sorted(FEED_VALUES))
    def test_a_feed_value_no_line_can_hold_leaves_no_file(self, tmp_path, case):
        """Such a value was once written as ``NaN`` or as numpy's repr, and
        replay then refused the file."""
        snapshots = [make_snapshot(), make_snapshot(**self.FEED_VALUES[case])]
        path = tmp_path / "feed.jsonl"
        with pytest.raises(ValueError, match=r"^snapshot 1: "):
            save_feed(snapshots, path)
        assert not path.exists()

    OUTCOME_VALUES = {
        "bool_outcome": {"outcome": True},
        "float_outcome": {"outcome": 1.0},
        "outcome_2": {"outcome": 2},
        "int_condition_id": {"condition_id": 7},
    }

    @pytest.mark.parametrize("case", sorted(OUTCOME_VALUES))
    def test_an_outcome_value_no_line_can_hold_leaves_no_file(self, tmp_path, case):
        good = ResolvedOutcome("0x" + "ab" * 20, 1, datetime(2026, 3, 1, tzinfo=UTC))
        bad = dataclasses.replace(good, **self.OUTCOME_VALUES[case])
        path = tmp_path / "outcomes.jsonl"
        with pytest.raises(ValueError, match=r"^outcome 1: "):
            save_outcomes([good, bad], path)
        assert not path.exists()


# --- synthesis -----------------------------------------------------------------------


class TestOutcomesInput:
    @pytest.mark.parametrize(
        "outcome", [7, -1, 2, 0.5, "1", None, [1], True, False, 1.0, 0.0],
        ids=["7", "-1", "2", "0.5", "string", "null", "list", "true", "false", "1.0", "0.0"],
    )
    def test_outcome_other_than_0_or_1_is_corrupt(self, tmp_path, outcome):
        path = tmp_path / "outcomes.jsonl"
        save_outcomes(generate_synthetic(3, 5, 2).outcomes, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), "outcome": outcome}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorruptRecord, match="0 or 1") as err:
            load_outcomes(path)
        assert err.value.line_no == 3

    def test_a_market_resolved_twice_is_corrupt(self, tmp_path):
        """Settlement took a repeated market's first outcome and every score
        its last; the second line naming it is refused."""
        path = tmp_path / "outcomes.jsonl"
        save_outcomes(generate_synthetic(3, 5, 2).outcomes, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        repeat = json.loads(lines[1])
        repeat["outcome"] = 1 - repeat["outcome"]
        path.write_text("".join(lines) + json.dumps(repeat) + "\n", encoding="utf-8")
        with pytest.raises(CorruptRecord, match="already resolved on line 2") as err:
            load_outcomes(path)
        assert err.value.line_no == len(lines) + 1

    def test_a_repeat_after_a_blank_line_names_both_lines(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        save_outcomes(generate_synthetic(3, 5, 2).outcomes[:1], path)
        line = path.read_text(encoding="utf-8")
        path.write_text(line + "\n" + line, encoding="utf-8")
        with pytest.raises(CorruptRecord, match="at line 3: .* already resolved on line 1"):
            load_outcomes(path)

    @pytest.mark.parametrize(
        "case",
        ["outcome_7", "array_line", "missing", "not_utf8", "outcome_true", "outcome_1.0",
         "repeated_market", "resolved_at_5"],
    )
    def test_bad_outcomes_exit_1_and_leave_the_run_id_free(self, tmp_path, capsys, case):
        """An outcome of 7 once read silently (every Brier score then read
        above 1), and so did ``true``, ``1.0`` and a market resolved twice;
        the others were raw tracebacks (a ``resolved_at`` of 5 an
        AttributeError from ``from_iso``)."""
        feed = generate_synthetic(4, 40, 3)
        save_feed(feed.snapshots, tmp_path / "feed.jsonl")
        good = tmp_path / "outcomes.jsonl"
        save_outcomes(feed.outcomes, good)
        bad = tmp_path / "bad.jsonl"
        first, *rest = good.read_text(encoding="utf-8").splitlines(keepends=True)
        if case == "outcome_7":
            bad.write_text(json.dumps({**json.loads(first), "outcome": 7}) + "\n" + "".join(rest))
        elif case in ("outcome_true", "outcome_1.0"):
            outcome = True if case == "outcome_true" else 1.0
            bad.write_text(
                json.dumps({**json.loads(first), "outcome": outcome}) + "\n" + "".join(rest)
            )
        elif case == "resolved_at_5":
            bad.write_text(json.dumps({**json.loads(first), "resolved_at": 5}) + "\n" + "".join(rest))
        elif case == "repeated_market":
            flipped = {**json.loads(first), "outcome": 1 - json.loads(first)["outcome"]}
            bad.write_text(first + "".join(rest) + json.dumps(flipped) + "\n")
        elif case == "array_line":
            bad.write_text("[1, 2]\n" + "".join(rest), encoding="utf-8")
        elif case == "not_utf8":
            bad.write_bytes(b"\xff" + good.read_bytes())
        out = tmp_path / "runs"

        def run(outcomes):
            return cli_main([
                "--out", str(out), "run", "--agents", "momentum", "--cycles", "3",
                "--feed", str(tmp_path / "feed.jsonl"), "--outcomes", str(outcomes),
                "--run-id", "r",
            ])

        assert run(bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        where = {
            "missing": str(bad), "not_utf8": str(bad), "repeated_market": f"line {len(rest) + 2}"
        }.get(case, "line 1")
        assert where in err
        assert not (out / "r").exists()
        assert run(good) == 0


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
        first_cycle = next(feed_cycles(feed.snapshots))
        for s in first_cycle:
            cat = categorize_event(s.question, s.end_time, s.observed_at, s.yes_price)
            assert cat.domain == Domain.POLITICAL
            assert cat.risk == Risk.HIGH

    @given(
        st.integers(0, 2**64 + 5),
        st.integers(1, 25),
        st.integers(2, 12),
        st.none() | st.dictionaries(
            st.builds(EventCategory, st.sampled_from(Risk), st.sampled_from(Domain),
                      st.sampled_from(Horizon)),
            st.floats(0.1, 5.0),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_clip_oracle(self, seed, n_markets, steps, mix):
        feed = generate_synthetic(seed, n_markets, steps, category_mix=mix)
        expected = generate_synthetic_oracle(seed, n_markets, steps, category_mix=mix)
        assert len(feed.snapshots) == len(expected.snapshots)
        for got, want in zip(feed.snapshots, expected.snapshots):
            for name in ("yes_price", "no_price"):
                assert type(getattr(got, name)) is float
                assert getattr(got, name) == getattr(want, name)
            assert got == want
        assert feed.outcomes == expected.outcomes
        assert feed.true_probs == expected.true_probs

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**20), st.integers(0, 3))
    @settings(max_examples=300)
    def test_liquidity_draw_equals_numpy_choice(self, seed, market, draws_before):
        """``bisect_right`` of the tier CDF takes the index and leaves the
        stream where ``rng.choice(3, p=[0.5, 0.3, 0.2])`` does."""
        ours = np.random.default_rng([seed, market])
        numpy_s = np.random.default_rng([seed, market])
        for _ in range(draws_before):
            assert ours.random() == numpy_s.random()
        for _ in range(5):
            index = bisect.bisect_right(market_data._LIQUIDITY_CDF, ours.random())
            assert index == int(numpy_s.choice(3, p=[0.5, 0.3, 0.2]))
        assert ours.random() == numpy_s.random()

    def test_cycles_grouping(self):
        feed = generate_synthetic(3, 7, 4)
        cycles = list(feed_cycles(feed.snapshots))
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
