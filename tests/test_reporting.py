from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftmark.agents import expected_return
from driftmark.cli import main as cli_main
from driftmark.config import EngineConfig
from driftmark.errors import CorruptLog, DegenerateInput, IoError
from driftmark.evalloop import EvalEngine, file_sha256
from driftmark.market_data import MIN_POSITIVE_PRICE, generate_synthetic, save_feed
from driftmark.metrics import (
    accuracy,
    brier,
    confidence_reasoning_alignment,
    ece_mce,
    log_likelihood,
)
from driftmark.reporting import (
    EventFold,
    LeaderboardRow,
    aggregate,
    decode_lines,
    emit,
    final_reports_from_fold,
    format_cents,
    iter_events,
)
from driftmark.schema import BLOCK_LISTS
from oracles import (
    confidence_drift_oracle,
    log_likelihood_clamped_oracle,
    per_row_events,
    read_log_oracle,
)

FIXTURE = Path(__file__).parent / "fixtures" / "leaderboard_events.jsonl"

# (agent_id, pnl_cents, unique_users, agent_count, avg_in, avg_out)
EXPECTED_ROWS = {
    "Kimi-K2-Thinking": (-398_337_092, 76_369, 108_281, 3_794, 3_166),
    "Claude-Sonnet-4.5": (-1_427_693_658, 53_854, 73_095, 3_994, 713),
    "GPT-5.1": (-660_572_268, 46_479, 59_257, 3_961, 3_179),
    "Grok-4": (-359_653_338, 45_678, 58_268, 4_439, 3_930),
    "Gemini-3-Pro-Preview": (-260_493_330, 45_520, 57_656, 6_725, 4_611),
    "DeepSeek-Chat-v3.1": (-507_411_667, 43_980, 56_194, 4_106, 717),
    "Qwen3-Max": (-310_537_852, 43_618, 54_936, 4_377, 429),
    "Minimax-M2": (-355_146_532, 41_084, 50_674, 4_000, 1_532),
}

PNL_ORDER = [
    "Gemini-3-Pro-Preview",
    "Qwen3-Max",
    "Minimax-M2",
    "Grok-4",
    "Kimi-K2-Thinking",
    "DeepSeek-Chat-v3.1",
    "GPT-5.1",
    "Claude-Sonnet-4.5",
]


class TestLeaderboardFixture:
    def test_all_rows_reproduced(self):
        report = aggregate(FIXTURE, sort_key="pnl")
        rows = {r.agent_id: r for r in report.leaderboard}
        assert set(rows) == set(EXPECTED_ROWS)
        for agent_id, (pnl, users, count, t_in, t_out) in EXPECTED_ROWS.items():
            row = rows[agent_id]
            assert row.pnl_cents == pnl, agent_id
            assert row.unique_users == users
            assert row.agent_count == count
            assert round(row.avg_input_tokens) == t_in
            assert round(row.avg_output_tokens) == t_out

    def test_pnl_ordering(self):
        report = aggregate(FIXTURE, sort_key="pnl")
        assert [r.agent_id for r in report.leaderboard] == PNL_ORDER

    def test_currency_rendering(self):
        assert format_cents(-398_337_092) == "$-3,983,370.92"
        assert format_cents(-1_427_693_658) == "$-14,276,936.58"
        assert format_cents(123) == "$1.23"

    def test_empty_log_empty_leaderboard(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        report = aggregate(empty)
        assert report.leaderboard == []
        assert report.diagnostics == []

    def test_corrupt_log_reports_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"cycle_start","cycle":1,"time":"t"}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorruptLog) as err:
            aggregate(bad)
        assert err.value.line_no == 2


# JSON texts json.loads reads with care: escapes, a lone surrogate, raw
# non-ASCII and U+2028, a raw control character (an error), non-finite,
# huge and negative-zero numbers.
_SCALARS = (
    st.sampled_from([
        '0', '-0', '-0.0', '1e400', '-1e400', 'NaN', 'Infinity', '-Infinity', '1.5',
        '12345678901234567890', 'true', 'false', 'null', '"\\""', '"\\\\"', '"\\u2028"',
        '"\\u0000"', '"\\ud800"', '"\\t"', '"é€\U0001F600"', '"\u2028"', '"a\tb"',
    ])
    | st.text(max_size=6).map(json.dumps)
    | st.text(max_size=6).map(lambda t: json.dumps(t, ensure_ascii=False))
)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]"),
    max_leaves=6,
)


@st.composite
def _objects(draw) -> str:
    keys = draw(st.lists(st.sampled_from(['"kind"', '"k\\"q"', '"é"']) | _SCALARS,
                         max_size=4))
    comma, colon = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", " :")]))
    return "{" + comma.join(f"{k}{colon}{draw(_VALUES)}" for k in keys) + "}"


# One line's text without its end: an object with whitespace, a BOM or
# trailing data around it, a blank or whitespace-only line, a line of two
# values, or JSON that is not an object.
_LINES = (
    st.tuples(
        st.sampled_from(["", "", "", " ", "\t", " \t", "\ufeff"]),
        _objects(),
        st.sampled_from(["", "", "", " ", "\t", "\r", " x", "{}", " {}", ","]),
    ).map("".join)
    | st.sampled_from(["", " ", "\t", "\r", "\x0c", "\u2028", "{} x", "{}{}", "not json", "{"])
    | _VALUES
)
# Lines that are not UTF-8, and the UTF-8 BOM as bytes.
_RAW_LINES = st.sampled_from([b"\xff", b'{"a":"\xff"}', b'{"a":"\xc3"}', b"\xef\xbb\xbf{}"])


@st.composite
def _logs(draw) -> bytes:
    lines = draw(st.lists(
        _LINES.map(lambda t: t.encode("utf-8", "surrogatepass")) | _RAW_LINES, max_size=6
    ))
    ends = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""  # a last line without "\n"
    return b"".join(line + end for line, end in zip(lines, ends))


def _read(data: bytes):
    """The reader's result in the oracle's form."""
    try:
        return ("events", list(decode_lines(io.BytesIO(data))))
    except CorruptLog as exc:
        return ("error", exc.line_no, str(exc))


def _expected(data: bytes):
    result = read_log_oracle(data)
    if result[0] == "error":
        _, line_no, reason = result
        return ("error", line_no, f"corrupt log at line {line_no}: {reason}")
    return result


# The events of a log that names agent ``a`` and a high-risk market ``m``,
# and then a snapshots block of ``m``, a forecasts block of ``a`` and a
# ledgers block of ``a``'s OPEN of ``m``, all of cycle 1.
_META = {
    "kind": "agent_meta", "agent_id": "a", "agent_count": 1, "strategy": "NONE",
    "unique_users": None,
}
_MARKET = {
    "kind": "market_meta", "condition_id": "m", "question": "q", "liquidity": "high",
    "risk": "high", "domain": "economic", "horizon": "short", "end_time": "",
}
_SNAPSHOTS = {
    "kind": "snapshots", "cycle": 1, "condition_id": ["m"], "no_price": [0.5],
    "observed_at": [""], "yes_price": [0.5],
}
_FORECASTS = {
    "kind": "forecasts", "cycle": 1, "agent_id": "a", "confidence": [5], "input_tokens": [0],
    "output_tokens": [0], "probability": [0.5], "trace": [""],
}
_OPEN = {
    "kind": "ledgers", "cycle": 1, "agent_id": "a", "basis_delta_cents": [15_000],
    "cash_delta_cents": [0], "condition_id": ["m"], "entry_kind": ["OPEN"], "note": ["fill"],
    "price": [0.5], "quantity_micro": [300_000_000], "seq": [1], "side": ["YES"],
    "timestamp": ["2026-01-01T00:00:00Z"],
}
_DRIFT = {
    "kind": "drift", "cycle": 1, "agent_id": "a", "d_narrative": 0.0, "d_temporal": 0.0,
    "d_temporal_difference": 0.0, "d_temporal_product": 0.0, "d_confidence": 0.0,
    "d_total": 0.0, "market_divergence": 0.0, "low_evidence": True,
}
_BATCH = {
    "kind": "batch", "cycle": 1, "agent_id": "a", "accepted": True, "issues": [],
    "wire_violations": [], "n_decisions": 0, "n_buys": 0,
}


def _without(ev: dict, key: str) -> dict:
    return {k: v for k, v in ev.items() if k != key}


class TestLogReader:
    """The one reader of ``report`` and resume against ``json.loads`` per line."""

    @settings(max_examples=200, deadline=None)
    @given(_logs())
    @example(b'{"kind":"x"} x\n')
    @example(b'{"kind":"x"}{}\n')
    @example(b'{"kind":"x"}')
    @example(b'{"kind":"x"} ')
    @example(b'\xef\xbb\xbf{"kind":"x"}\n')
    @example(b'{"kind":"x"}\r\n\n \n{"a":NaN}')
    def test_matches_json_loads_per_line(self, data):
        # repr tells NaN, -0.0 and 0 apart and keeps the key order.
        assert repr(_read(data)) == repr(_expected(data))

    def test_taken_value_ends_its_line(self):
        assert _read(b'{"a":1}\n{"b":2}') == ("events", [{"a": 1}, {"b": 2}])
        assert _read(b'{"a":1}\n\n{"b":2}\n{} x\n')[:2] == ("error", 4)

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"\xff", "not UTF-8"),
            (b"[1,2]", "a list, not a JSON object"),
            (b'"kind"', "a str, not a JSON object"),
            (b'{"kind":"x"} {}', "Extra data"),
            (b"[" * 100_000, "recursion"),
        ],
    )
    def test_bad_line_is_corrupt_log_naming_it(self, tmp_path, line, reason):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"kind":"cycle_start","cycle":1,"time":""}\n' + line + b"\n")
        with pytest.raises(CorruptLog, match=reason) as err:
            aggregate(bad)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "event, reason",
        [
            ({"kind": "forecasts", "cycle": 1}, "no key 'agent_id'"),
            ({**_SNAPSHOTS, "cycle": "x"}, "cycle 'x' is not an integer"),
            ({"kind": "baselines", "baseline": 3, "cycle": 1, "probability": [0.5]},
             "baseline 3 is not a string"),
            # Keys the reports read only after the fold.
            (_without(_OPEN, "entry_kind"), "no key 'entry_kind'"),
            (_without(_OPEN, "basis_delta_cents"), "no key 'basis_delta_cents'"),
            ({"kind": "drift", "cycle": 1, "agent_id": "a"}, "no key 'd_narrative'"),
            # Keys the engine always writes, which the fold once took a
            # default for.
            (_without(_DRIFT, "d_temporal_product"), "no key 'd_temporal_product'"),
            *((_without(_META, key), f"no key '{key}'")
              for key in ("agent_count", "strategy", "unique_users")),
            (_without(_MARKET, "risk"), "no key 'risk'"),
            # A JSON integer too large for a float, which once escaped as an
            # OverflowError, and a price that is not finite, which
            # market_divergence once read as NaN.
            ({**_DRIFT, "d_narrative": 10**400}, "d_narrative 1000000000000"),
            ({**_FORECASTS, "probability": [10**400]}, "probability 1000000000000"),
            *(
                ({**_FORECASTS, key: [10**400]}, f"{key} 1000000000000")
                for key in ("confidence", "input_tokens", "output_tokens")
            ),
            ({**_SNAPSHOTS, "yes_price": [10**400]}, "yes_price 1000000000000"),
            *(
                ({**_OPEN, key: [10**400]}, f"{key} 1000000000000")
                for key in ("price", "basis_delta_cents", "cash_delta_cents")
            ),
            ({**_SNAPSHOTS, "yes_price": [math.nan]}, "yes_price nan is not a finite number"),
            ({**_SNAPSHOTS, "yes_price": [math.inf]}, "yes_price inf is not a finite number"),
            ({**_SNAPSHOTS, "yes_price": [-math.inf]}, "yes_price -inf is not a finite number"),
            # A cycle that is not an exact integer, which the per-row and
            # per-entry events once read with ``int``: a CLOSE's moved its
            # P&L to cycle 2, 1 or 3.
            *(
                ({**_OPEN, "entry_kind": ["CLOSE"], "cycle": cycle},
                 f"cycle {cycle!r} is not an integer")
                for cycle in (2.5, True, "3")
            ),
            ({**_FORECASTS, "cycle": 2.5}, "cycle 2.5 is not an integer"),
            ({"kind": "baselines", "baseline": "market", "cycle": True, "probability": [0.5]},
             "cycle True is not an integer"),
            ({**_SNAPSHOTS, "cycle": "3"}, "cycle '3' is not an integer"),
            # An OPEN whose stake or win probability var_cvar cannot take.
            *(
                ({**_OPEN, key: [value]}, "an OPEN of basis")
                for key, value in (("price", 0.0), ("price", 1.5), ("basis_delta_cents", -1))
            ),
            # A strategy that is not a string: the diagnostics once reported
            # it as a key of strategy_freq ({7: 1.0}), or failed to order a
            # null one beside "NONE" with a raw TypeError.
            ({**_META, "strategy": 7}, "strategy 7 is not a string"),
            # An agent id that is not a string, which the leaderboard once
            # failed on with a raw AttributeError.
            *(
                (event, "agent_id 7 is not a string")
                for event in (
                    {**_META, "agent_id": 7},
                    {**_DRIFT, "agent_id": 7},
                    {**_BATCH, "agent_id": 7},
                    {"kind": "agent_failure", "agent_id": 7, "cycle": 1, "error": "x"},
                )
            ),
            # Kinds and keys this version does not write: the per-row and
            # per-entry events and the blocks naming their markets that
            # older versions wrote, and a forecast's strategy.
            *(
                ({**row, "kind": kind}, f"kind '{kind}' is not one this version writes")
                for kind, row in (
                    ("forecast", {"agent_id": "a", "cycle": 1, "condition_id": "m",
                                  "probability": 0.5}),
                    ("baseline", {"baseline": "market", "cycle": 1, "condition_id": "m",
                                  "probability": 0.5}),
                    ("snapshot", {"cycle": 1, "condition_id": "m", "yes_price": 0.5}),
                    ("ledger", {"agent_id": "a", "cycle": 1, "condition_id": "m",
                                "entry_kind": "OPEN", "cash_delta_cents": 0}),
                    ("snapshots_v2", {}),
                )
            ),
            ({**_FORECASTS, "condition_id": ["m"]},
             "a forecasts block holds 'condition_id', which this version does not write"),
            ({**_FORECASTS, "strategy": None},
             "a forecasts block holds 'strategy', which this version does not write"),
        ],
    )
    def test_event_the_fold_cannot_take_is_corrupt_log(self, tmp_path, event, reason):
        """The log names agent ``a``, a high-risk market ``m`` and the cycle's
        snapshot of ``m`` first, so the reports would read every key of the
        bad event; a forecast of ``m`` and an OPEN of it follow it. A blank
        line before it, which counts, puts it on line 5; the same events
        passed as a list name no line."""
        events = [_META, _MARKET, _SNAPSHOTS, event, _FORECASTS, _OPEN]
        bad = tmp_path / "bad.jsonl"
        lines = [json.dumps(ev) + "\n" for ev in events]
        bad.write_text("".join([*lines[:3], "\n", *lines[3:]]), encoding="utf-8")
        with pytest.raises(CorruptLog, match=reason) as err:
            aggregate(bad)
        assert '"kind": "' + event["kind"] + '"' in str(err.value)
        assert err.value.line_no == 5
        assert str(err.value).startswith("corrupt log at line 5: ")
        with pytest.raises(CorruptLog, match=reason) as err:
            aggregate(events)
        assert err.value.line_no is None

    def test_a_fold_bug_is_no_corrupt_log(self, monkeypatch):
        """Only a ``ValueError``, the schema's or the fold's refusal, makes
        a ``CorruptLog``: an adder's bug surfaces as itself."""

        def add_forecasts(self, *args):
            raise KeyError("bug")

        monkeypatch.setattr(EventFold, "add_forecasts", add_forecasts)
        with pytest.raises(KeyError, match="bug"):
            aggregate([_META, _MARKET, _SNAPSHOTS, _FORECASTS])

    def test_the_events_around_each_bad_one_report(self, tmp_path):
        """The log that test refuses each event of reads without it."""
        good = tmp_path / "good.jsonl"
        good.write_text(
            "".join(
                json.dumps(ev) + "\n" for ev in [_META, _MARKET, _SNAPSHOTS, _FORECASTS, _OPEN]
            ),
            encoding="utf-8",
        )
        report = aggregate(good)
        assert [row.agent_id for row in report.leaderboard] == ["a"]
        assert report.diagnostics[0].strategy_freq == {"NONE": 1.0}
        assert report.final_reports["a"]["risk"]["risk_category"] == "high"

    def test_unreadable_path_is_io_error(self, tmp_path):
        for path in (tmp_path / "missing.jsonl", tmp_path):
            with pytest.raises(IoError, match=str(path)):
                aggregate(path)


@pytest.fixture(scope="module")
def run_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    result = EvalEngine.create(
        root,
        seed=13,
        agent_ids=["momentum", "market_copier"],
        feed_source={"kind": "synthetic", "n_markets": 36},
        cycles=6,
        run_id="agg",
    ).run()
    return aggregate(result.events_path), result


class TestAggregateFromRun:
    def test_rerun_is_identical(self, run_report):
        report, result = run_report
        again = aggregate(result.events_path)
        assert again.to_dict() == report.to_dict()

    def test_strategy_frequencies_sum_to_one(self, run_report):
        report, _ = run_report
        for diag in report.diagnostics:
            if diag.strategy_freq:
                assert sum(diag.strategy_freq.values()) == pytest.approx(1.0, abs=1e-9)

    def test_success_plus_failure_is_cycles(self, run_report):
        report, result = run_report
        for diag in report.diagnostics:
            assert diag.success_cycles + diag.failure_cycles == result.cycles_run

    def test_category_pnl_partitions_total(self, run_report):
        report, _ = run_report
        rows = {r.agent_id: r for r in report.leaderboard}
        for dimension in ("risk", "domain", "horizon", "liquidity"):
            per_agent: dict[str, int] = {}
            for c in report.categories:
                if c.dimension == dimension:
                    per_agent[c.agent_id] = per_agent.get(c.agent_id, 0) + c.pnl_cents
            for agent_id, total in per_agent.items():
                assert total == rows[agent_id].pnl_cents, (agent_id, dimension)

    def test_leaderboard_includes_baselines(self, run_report):
        report, _ = run_report
        ids = {r.agent_id for r in report.leaderboard}
        assert {"baseline:market", "baseline:uniform", "baseline:historical", "baseline:heuristic"} <= ids

    def test_sort_keys(self, run_report):
        _, result = run_report
        by_hhis = aggregate(result.events_path, sort_key="hhis").leaderboard
        hhis_values = [r.hhis for r in by_hhis]
        assert hhis_values == sorted(hhis_values, reverse=True)
        by_brier = aggregate(result.events_path, sort_key="brier").leaderboard
        briers = [r.mean_brier for r in by_brier]
        assert briers == sorted(briers)

    def test_a_ledgers_block_holds_every_list(self, run_report, tmp_path):
        """The fold reads every list of a ledgers block, those only resume
        reads too: the run's log with one list dropped from its first
        ledgers block is a ``CorruptLog`` naming it."""
        _, result = run_report
        events = list(iter_events(result.events_path))
        at = next(i for i, ev in enumerate(events) if ev["kind"] == "ledgers")
        for key in BLOCK_LISTS["ledgers"]:
            damaged = [*events[:at], _without(events[at], key), *events[at + 1:]]
            with pytest.raises(CorruptLog, match=f"no key '{key}'"):
                aggregate(damaged)

    def test_d_total_is_exact_sum(self, run_report):
        report, _ = run_report
        for subject, rep in report.final_reports.items():
            drift = rep["drift"]
            assert drift["d_total"] == drift["d_narrative"] + drift["d_temporal"] + drift["d_confidence"]


class TestEmit:
    def test_csv_shape(self):
        report = aggregate(FIXTURE, sort_key="pnl")
        text = emit(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(LeaderboardRow.FIELDS)
        assert len(lines) == 1 + len(report.leaderboard)

    def test_json_round_trip(self):
        report = aggregate(FIXTURE, sort_key="pnl")
        text = emit(report, "json")
        parsed = json.loads(text)
        assert parsed == report.to_dict()
        assert json.loads(emit(report, "json")) == parsed

    def test_table_contains_currency(self):
        report = aggregate(FIXTURE, sort_key="pnl")
        text = emit(report, "table")
        assert "$-3,983,370.92" in text

    def test_unwritable_destination(self, tmp_path):
        report = aggregate(FIXTURE)
        with pytest.raises(IoError):
            emit(report, "json", tmp_path / "no" / "such" / "dir" / "x.json")

    def test_write_to_path(self, tmp_path):
        report = aggregate(FIXTURE)
        dest = tmp_path / "lb.csv"
        emit(report, "csv", dest)
        assert dest.read_text(encoding="utf-8").startswith("agent_id,")

    def test_unknown_format(self):
        report = aggregate(FIXTURE)
        with pytest.raises(ValueError):
            emit(report, "xml")


class TestCli:
    def test_synth_run_report_verify(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        outcomes = tmp_path / "outcomes.jsonl"
        assert cli_main(
            [
                "--seed", "5",
                "synth",
                "--markets", "32",
                "--steps", "3",
                "--feed", str(feed),
                "--outcomes", str(outcomes),
            ]
        ) == 0
        assert cli_main(["replay", "--feed", str(feed)]) == 0

        out_root = tmp_path / "runs"
        assert cli_main(
            [
                "--seed", "5",
                "--out", str(out_root),
                "run",
                "--agents", "market_copier,momentum",
                "--cycles", "3",
                "--feed", str(feed),
                "--outcomes", str(outcomes),
                "--run-id", "cli-test",
            ]
        ) == 0
        assert cli_main(
            ["--out", str(out_root), "report", "--run-id", "cli-test", "--format", "table"]
        ) == 0
        captured = capsys.readouterr()
        assert "leaderboard" in captured.out
        assert cli_main(["--out", str(out_root), "verify", "--run-id", "cli-test"]) == 0

        # tamper and expect failure exit code
        events = out_root / "cli-test" / "events.jsonl"
        raw = bytearray(events.read_bytes())
        raw[10] ^= 0x01
        events.write_bytes(bytes(raw))
        assert cli_main(["--out", str(out_root), "verify", "--run-id", "cli-test"]) == 1

    @staticmethod
    def _replay_hash(feed: Path, capsys) -> str:
        assert cli_main(["replay", "--feed", str(feed)]) == 0
        return capsys.readouterr().out.split()[-1]

    def test_replay_hash_is_the_sha256_of_a_feed_save_feed_wrote(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        save_feed(generate_synthetic(5, 32, 3).snapshots, feed)
        assert self._replay_hash(feed, capsys) == file_sha256(feed)

    # key -> its value on the first line, edited; each edit keeps the feed valid
    _FEED_EDITS = {
        "condition_id": lambda v: v[:-1] + ("0" if v[-1] != "0" else "1"),
        "question": lambda v: v + " Really?",
        "yes_price": lambda v: v + 0.001,
        "no_price": lambda v: v + 0.001,
        "liquidity_tier": lambda v: "low" if v != "low" else "high",
        "end_time": lambda v: "2099-01-01T00:00:00Z",
        "observed_at": lambda v: "2020-01-01T00:00:00Z",
    }

    @pytest.mark.parametrize("key", sorted(_FEED_EDITS))
    def test_replay_hash_sees_an_edit_of_any_field(self, key, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        save_feed(generate_synthetic(5, 32, 3).snapshots, feed)
        before = self._replay_hash(feed, capsys)
        first, *rest = feed.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(first)
        record[key] = self._FEED_EDITS[key](record[key])
        feed.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
        assert self._replay_hash(feed, capsys) != before

    def test_run_resumes_with_resume_alone(self, tmp_path, capsys):
        """``run --resume`` needs no ``--agents``; a new run does."""
        out = str(tmp_path / "runs")
        argv = ["--out", out, "run", "--agents", "momentum", "--cycles", "3", "--run-id", "r"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(["--out", out, "run", "--resume", "r"]) == 0
        assert capsys.readouterr().out == first
        with pytest.raises(SystemExit) as exc:
            cli_main(["--out", out, "run", "--cycles", "3"])
        assert exc.value.code == 2
        assert "--agents" in capsys.readouterr().err

    def test_lock_command(self, tmp_path, capsys):
        store = tmp_path / "contracts"
        assert cli_main(["lock", "--version", "v2", "--budget", "2000", "--store", str(store)]) == 0
        digest_line = capsys.readouterr().out.strip()
        digest = digest_line.split()[0]
        assert (store / f"{digest}.contract.json").exists()

    def test_report_errors_exit_one_with_one_line(self, tmp_path, capsys):
        not_utf8 = tmp_path / "bad.jsonl"
        not_utf8.write_bytes(b'{"kind":"cycle_start","cycle":1,"time":""}\n\xff\n')
        not_object = tmp_path / "list.jsonl"
        not_object.write_text("[1,2]\n", encoding="utf-8")
        no_key = tmp_path / "nokey.jsonl"
        no_key.write_text('{"kind":"forecasts","cycle":1}\n', encoding="utf-8")
        no_entry_kind = tmp_path / "ledger.jsonl"
        no_entry_kind.write_text(
            json.dumps(_META) + "\n" + json.dumps(_without(_OPEN, "entry_kind")) + "\n",
            encoding="utf-8",
        )
        # a per-row forecast, which older versions wrote
        per_row = tmp_path / "per_row.jsonl"
        per_row.write_text('{"kind":"forecast","agent_id":"a","cycle":1}\n', encoding="utf-8")
        # once a raw AttributeError
        int_agent = tmp_path / "int_agent.jsonl"
        int_agent.write_text('{"kind":"agent_meta","agent_id":7}\n', encoding="utf-8")
        for args in (
            ["--run-id", "nope"],
            ["--log", str(tmp_path / "missing.jsonl")],
            ["--log", str(tmp_path)],
            ["--log", str(not_utf8)],
            ["--log", str(not_object)],
            ["--log", str(no_key)],
            ["--log", str(no_entry_kind)],
            ["--log", str(per_row)],
            ["--log", str(int_agent)],
        ):
            assert cli_main(["--out", str(tmp_path), "report", *args]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_file_errors_exit_one_with_one_line(self, tmp_path, capsys):
        not_utf8 = tmp_path / "feed.jsonl"
        not_utf8.write_bytes(b"\xff\n")
        for argv in (
            ["lock", "--template-file", str(tmp_path / "missing.txt")],
            ["replay", "--feed", str(tmp_path / "missing.jsonl")],
            ["replay", "--feed", str(not_utf8)],
        ):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read ") and err.count("\n") == 1, err

    def test_write_errors_exit_one_with_one_line(self, tmp_path, capsys):
        """A synth output in a missing directory and a contract store path
        that is a file were raw FileNotFoundError and FileExistsError."""
        a_file = tmp_path / "a_file"
        a_file.write_text("", encoding="utf-8")
        synth = ["synth", "--markets", "40", "--steps", "3"]
        for argv in (
            [*synth, "--feed", str(tmp_path / "nodir" / "f.jsonl"),
             "--outcomes", str(tmp_path / "o.jsonl")],
            [*synth, "--feed", str(tmp_path / "f.jsonl"),
             "--outcomes", str(tmp_path / "nodir" / "o.jsonl")],
            ["lock", "--store", str(a_file)],
        ):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("budgets", ["abc", "1,,2", "5x"])
    def test_budgets_that_are_not_integers_exit_one_with_one_line(
        self, tmp_path, capsys, budgets
    ):
        argv = ["--out", str(tmp_path), "sweep", "--agents", "momentum", "--budgets", budgets]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        bad = next(part for part in budgets.split(",") if not part.isdigit())
        assert err == f"error: --budgets {budgets!r}: {bad!r} is not an integer\n"
        assert list(tmp_path.iterdir()) == []

    def test_verify_fails_on_a_hash_file_that_is_not_utf8(self, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = ["--out", str(out), "run", "--agents", "momentum", "--cycles", "2", "--run-id", "v"]
        assert cli_main(argv) == 0
        (out / "v" / "events.sha256").write_bytes(b"\xff" * 64 + b"\n")
        capsys.readouterr()
        assert cli_main(["--out", str(out), "verify", "--run-id", "v"]) == 1
        captured = capsys.readouterr()
        assert "verify v: FAILED" in captured.out and "event log hash mismatch" in captured.out
        assert captured.err == ""

    def test_report_from_bare_log(self, capsys):
        assert cli_main(["report", "--log", str(FIXTURE), "--format", "csv", "--sort", "pnl"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("agent_id,")

    def test_sweep_command(self, tmp_path):
        assert cli_main(
            [
                "--seed", "11",
                "--out", str(tmp_path),
                "sweep",
                "--agents", "market_copier",
                "--cycles", "3",
                "--markets", "32",
                "--budgets", "500,1000",
                "--mode", "observation",
            ]
        ) == 0
        assert (tmp_path / "sweep_report.json").exists()


# --- the scoring fold against per-forecast definitions ------------------------------

PROBS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
UNRESOLVED = "0xopen"


def _forecasts(agent_id: str, cycle: int, probabilities: list, confidences: list) -> dict:
    """A forecasts block of ``agent_id``'s forecasts of the first markets
    of its cycle's snapshots block."""
    n = len(probabilities)
    return {
        "kind": "forecasts", "agent_id": agent_id, "cycle": cycle, "probability": probabilities,
        "confidence": confidences, "input_tokens": [0] * n, "output_tokens": [0] * n,
        "trace": [""] * n,
    }


def _snapshots(cycle: int, prices: dict[str, float]) -> dict:
    """The snapshots block of ``prices``' markets, in its order."""
    n = len(prices)
    return {
        "kind": "snapshots", "cycle": cycle, "condition_id": list(prices),
        "yes_price": list(prices.values()), "no_price": [0.0] * n, "observed_at": [""] * n,
    }


_AGENT_METAS = [
    {**_META, "agent_id": agent_id} for agent_id in ("a", "b", "never_resolved")
]


@st.composite
def scoring_logs(draw) -> list[dict]:
    """Forecasts of two agents over a few markets, some resolutions, and
    each cycle's snapshots of some markets (a price may be 0) in a drawn
    order; an agent's forecasts of a cycle are of the first of them, as
    the engine logs a turn that fails part-way. ``never_resolved``
    forecasts only a market that never resolves, in each cycle whose
    snapshots name it first."""
    cids = [f"0x{i:02d}" for i in range(draw(st.integers(1, 4)))]
    events = list(_AGENT_METAS)
    events += [
        {
            "kind": "market_meta",
            "condition_id": cid,
            "question": "q",
            "end_time": "",
            "risk": draw(st.sampled_from(["low", "medium", "high"])),
            "domain": draw(st.sampled_from(["politics", "sports"])),
            "horizon": draw(st.sampled_from(["short", "long"])),
            "liquidity": draw(st.sampled_from(["low", "high"])),
        }
        for cid in cids + [UNRESOLVED]
    ]

    def forecasts(agent_id, cycle, n):
        return _forecasts(
            agent_id, cycle, [draw(PROBS) for _ in range(n)],
            [draw(st.integers(0, 10)) for _ in range(n)],
        )

    for cycle in range(1, draw(st.integers(1, 6)) + 1):
        markets = [cid for cid in draw(st.permutations(cids)) if draw(st.booleans())]
        first = draw(st.booleans())
        markets = [UNRESOLVED, *markets] if first else [*markets, UNRESOLVED]
        events.append(_snapshots(
            cycle, {cid: draw(st.floats(min_value=0.0, max_value=1.0)) for cid in markets}
        ))
        for agent_id in ("a", "b"):
            n = draw(st.integers(0, len(markets)))
            if n:
                events.append(forecasts(agent_id, cycle, n))
        if first:
            events.append(forecasts("never_resolved", cycle, 1))
    for cid in cids:
        if draw(st.booleans()):
            events.append(
                {
                    "kind": "resolution", "condition_id": cid, "outcome": draw(st.integers(0, 1)),
                    "resolved_at": "",
                }
            )
    return events


def per_forecast_oracle(events: list[dict], subject: str, config: EngineConfig) -> dict:
    """The report values the fold derives per forecast, computed with one
    call of the per-forecast definitions per forecast, in log order, from
    the log's blocks taken apart into one event per market."""
    rows: dict[str, list[tuple[int, float, int]]] = {}
    prices: dict[tuple[str, int], float] = {}
    outcomes: dict[str, int] = {}
    for ev in per_row_events(events):
        if ev["kind"] == "forecast" and ev["agent_id"] == subject:
            rows.setdefault(ev["condition_id"], []).append(
                (ev["cycle"], ev["probability"], ev["confidence"])
            )
        elif ev["kind"] == "snapshot":
            prices[(ev["condition_id"], ev["cycle"])] = ev["yes_price"]
        elif ev["kind"] == "resolution":
            outcomes[ev["condition_id"]] = ev["outcome"]
    pairs, confidences, gaps = [], [], []
    for cid, forecasts in rows.items():
        for cycle, p, conf in forecasts:
            if (cid, cycle) in prices:
                gaps.append(abs(p - prices[(cid, cycle)]))
            if cid in outcomes:
                pairs.append((p, outcomes[cid]))
                confidences.append(float(conf))
    score = None
    if pairs:
        eps, bins = config.metrics.log_likelihood_eps, config.metrics.ece_bins
        ece, mce, bins_list = ece_mce(pairs, bins)
        score = {
            "brier": float(np.mean([brier(p, o) for p, o in pairs])),
            "log_likelihood": float(np.mean([log_likelihood(p, o, eps) for p, o in pairs])),
            "accuracy": accuracy(pairs),
            "ece": ece,
            "mce": mce,
            "reliability_bins": bins_list,
            "clamped_count": sum(
                1 for p, o in pairs if log_likelihood_clamped_oracle(p, o, eps)
            ),
            "sample_size": len(pairs),
        }
    drifts = [confidence_drift_oracle(p, pairs)[0] for p, _ in pairs]
    try:
        alignment = confidence_reasoning_alignment(confidences, [1.0 - d for d in drifts])
    except DegenerateInput:
        alignment = None
    return {
        "score": score,
        "d_confidence": sum(drifts) / len(drifts) if drifts else 0.0,
        "market_divergence": sum(gaps) / len(gaps) if gaps else 0.0,
        "alignment": alignment,
    }


def adjustment_depth_oracle(events: list[dict], subject: str) -> tuple:
    rows: dict[str, list[tuple[int, float]]] = {}
    prices: dict[tuple[str, int], float] = {}
    for ev in per_row_events(events):
        if ev["kind"] == "forecast" and ev["agent_id"] == subject:
            rows.setdefault(ev["condition_id"], []).append((ev["cycle"], ev["probability"]))
        elif ev["kind"] == "snapshot":
            prices[(ev["condition_id"], ev["cycle"])] = ev["yes_price"]
    dprobs, dedges, ders = [], [], []
    for cid, forecasts in rows.items():
        ordered = sorted(forecasts)
        for (c0, p0), (c1, p1) in zip(ordered, ordered[1:]):
            dprobs.append(abs(p1 - p0))
            m0, m1 = prices.get((cid, c0)), prices.get((cid, c1))
            if m0 and m1:
                dedges.append(abs((p1 - m1) - (p0 - m0)))
                ders.append(abs(expected_return(p1, 15_000, m1) - expected_return(p0, 15_000, m0)))
    mean = lambda xs: sum(xs) / len(xs) if xs else None  # noqa: E731
    return mean(dprobs), mean(dedges), mean(ders)


def tiny_price(events: list[dict]) -> bool:
    """A snapshot price the feed refuses: positive but below its floor."""
    return any(
        0.0 < p < MIN_POSITIVE_PRICE
        for e in events if e["kind"] == "snapshots" for p in e["yes_price"]
    )


class TestScoringFoldMatchesPerForecast:
    @settings(max_examples=150, deadline=None)
    @given(scoring_logs())
    def test_final_reports(self, events):
        if tiny_price(events):
            with pytest.raises(CorruptLog, match="yes_price"):
                EventFold().consume(events)
            return
        config = EngineConfig()
        reports = final_reports_from_fold(EventFold().consume(events), config)
        assert set(reports) == {"a", "b", "never_resolved"}
        for subject, rep in reports.items():
            want = per_forecast_oracle(events, subject, config)
            assert rep["score"] == want["score"], subject
            assert rep["drift"]["d_confidence"] == want["d_confidence"], subject
            assert rep["drift"]["market_divergence"] == want["market_divergence"], subject
            assert rep["composite"]["confidence_reasoning_alignment"] == want["alignment"]
        assert reports["never_resolved"]["score"] is None
        assert reports["never_resolved"]["drift"]["d_confidence"] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(scoring_logs())
    @example(  # priced, priced, at 0, priced, priced: no return is carried over the gap
        [_AGENT_METAS[0]]
        + [
            ev
            for c in range(1, 6)
            for ev in (
                _snapshots(c, {"0x00": 0.0 if c == 3 else 0.2 + 0.1 * c}),
                _forecasts("a", c, [0.1 * c], [5]),
            )
        ]
    )
    @example(  # returns at such a price would overflow and be NaN: the fold refuses the log
        [_AGENT_METAS[0]]
        + [
            ev
            for c, p in ((1, 0.5), (2, 0.0))
            for ev in (_snapshots(c, {"0x00": 2.2e-311}), _forecasts("a", c, [p], [0]))
        ]
    )
    def test_adjustment_depth_and_category_briers(self, events):
        if tiny_price(events):
            with pytest.raises(CorruptLog, match="yes_price"):
                aggregate(events)
            return
        want = {aid: adjustment_depth_oracle(events, aid) for aid in ("a", "b", "never_resolved")}
        report = aggregate(events)
        outcomes = {e["condition_id"]: e["outcome"] for e in events if e["kind"] == "resolution"}
        meta = {e["condition_id"]: e for e in events if e["kind"] == "market_meta"}
        for diag in report.diagnostics:
            assert (
                diag.mean_abs_dprob, diag.mean_abs_dedge, diag.mean_abs_der_cents
            ) == want[diag.agent_id]
        for row in report.categories:
            # markets in the order of the agent's first forecast on each
            by_cid: dict[str, list[float]] = {}
            for e in per_row_events(events):
                if e["kind"] == "forecast" and e["agent_id"] == row.agent_id:
                    by_cid.setdefault(e["condition_id"], []).append(e["probability"])
            briers = [
                brier(p, outcomes[cid])
                for cid, ps in by_cid.items()
                if cid in outcomes and meta[cid][row.dimension] == row.value
                for p in ps
            ]
            assert row.n_scored == len(briers)
            assert row.mean_brier == (sum(briers) / len(briers) if briers else None)
