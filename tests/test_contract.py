from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftmark.contract import (
    ContractHash,
    ContractStore,
    DEFAULT_TEMPLATE,
    canonical_bytes,
    compute_hash,
    contract_from_json,
    contract_to_json,
    instruction_shape,
    lock_contract,
    render_instruction,
    render_instruction_parts,
    summary_stand_in,
)
from driftmark.errors import (
    BudgetNotAllowed,
    EmptyTemplate,
    MissingPlaceholderValue,
    NonPositiveBudget,
    UnlockedContract,
)
from driftmark.simulator import Portfolio
from driftmark.timeutil import to_iso

from conftest import make_snapshot
from oracles import render_instruction_oracle


class TestLockContract:
    def test_same_inputs_same_digest(self):
        _, h1 = lock_contract("Forecast X", "v1", 1000)
        _, h2 = lock_contract("Forecast X", "v1", 1000)
        assert h1.digest == h2.digest
        assert len(h1.digest) == 64
        assert h1.digest == h1.digest.lower()

    def test_single_char_changes_digest(self):
        _, h1 = lock_contract("Forecast X", "v1", 1000)
        _, h2 = lock_contract("Forecast X.", "v1", 1000)
        assert h1.digest != h2.digest

    def test_version_and_budget_change_digest(self):
        _, base = lock_contract("Forecast X", "v1", 1000)
        _, other_version = lock_contract("Forecast X", "v2", 1000)
        _, other_budget = lock_contract("Forecast X", "v1", 2000)
        assert base.digest != other_version.digest
        assert base.digest != other_budget.digest

    def test_empty_template_rejected(self):
        with pytest.raises(EmptyTemplate):
            lock_contract("", "v1", 1000)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(NonPositiveBudget):
            lock_contract("Forecast X", "v1", 0)
        with pytest.raises(NonPositiveBudget):
            lock_contract("Forecast X", "v1", -100)

    def test_budget_outside_allowed_set(self):
        with pytest.raises(BudgetNotAllowed):
            lock_contract("Forecast X", "v1", 1234)
        contract, _ = lock_contract("Forecast X", "v1", 1234, allow_any_budget=True)
        assert contract.token_budget == 1234

    def test_locked_contract_is_immutable(self):
        contract, _ = lock_contract("Forecast X", "v1", 1000)
        assert contract.locked
        with pytest.raises(dataclasses.FrozenInstanceError):
            contract.template_text = "changed"


class TestAvalanche:
    def test_thousand_single_byte_perturbations(self):
        contract, chash = lock_contract("Forecast the binary outcome of X", "v3", 2000)
        rng = random.Random(1234)
        text = contract.template_text
        seen_same = 0
        for _ in range(1000):
            pos = rng.randrange(len(text))
            repl = chr(rng.randrange(32, 127))
            while repl == text[pos]:
                repl = chr(rng.randrange(32, 127))
            mutated = text[:pos] + repl + text[pos + 1:]
            _, h = lock_contract(mutated, contract.version, contract.token_budget)
            if h.digest == chash.digest:
                seen_same += 1
        assert seen_same == 0

    @given(st.text(min_size=1, max_size=200), st.text(min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_digest_is_function_of_content(self, template, version):
        _, h1 = lock_contract(template, version, 1000)
        _, h2 = lock_contract(template, version, 1000)
        assert h1.digest == h2.digest


class TestRenderInstruction:
    def test_no_placeholders_identity(self, snapshot):
        contract, _ = lock_contract("static text, no substitution", "v1", 1000)
        assert render_instruction(contract, snapshot) == "static text, no substitution"

    def test_question_substituted(self, snapshot):
        contract, _ = lock_contract("Market asks: {{market.question}}", "v1", 1000)
        out = render_instruction(contract, snapshot)
        assert "Will the election be won by the incumbent?" in out
        assert "{{" not in out

    def test_missing_placeholder_value(self, snapshot):
        contract, _ = lock_contract("{{no.such.key}}", "v1", 1000)
        with pytest.raises(MissingPlaceholderValue):
            render_instruction(contract, snapshot)

    def test_render_is_pure(self, snapshot):
        contract, _ = lock_contract(DEFAULT_TEMPLATE, "v1", 1000)
        a = render_instruction(contract, snapshot, "portfolio state")
        b = render_instruction(contract, snapshot, "portfolio state")
        assert a == b

    def test_unlocked_contract_rejected(self, snapshot):
        contract, _ = lock_contract("text", "v1", 1000)
        unlocked = dataclasses.replace(contract, locked=False)
        with pytest.raises(UnlockedContract):
            render_instruction(unlocked, snapshot)
        with pytest.raises(UnlockedContract):
            render_instruction_parts(unlocked, snapshot)

    def test_liquidity_rendered_as_its_value(self, snapshot):
        contract, _ = lock_contract(DEFAULT_TEMPLATE, "v1", 1000)
        out = render_instruction(contract, snapshot, "portfolio state")
        assert "liquidity=high\n" in out
        assert "Liquidity." not in out

    def test_parts_leave_summary_gaps(self, snapshot):
        contract, _ = lock_contract(
            "a{{portfolio.summary}}{{market.liquidity_tier}} {{ portfolio.summary }}z", "v1", 1000
        )
        assert render_instruction_parts(contract, snapshot) == ["a", "high ", "z"]

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="{} ab.\n", max_size=6),
                st.sampled_from([
                    "{{portfolio.summary}}", "{{ portfolio.summary }}", "{{market.question}}",
                    "{{market.liquidity_tier}}", "{{market.yes_price}}", "{{market.end_time}}",
                    "{{contract.token_budget}}", "{{contract.version}}",
                ]),
            ),
            min_size=1,
            max_size=12,
        ).map("".join).filter(bool),
        st.text(max_size=30),
    )
    @settings(max_examples=200)
    def test_joined_parts_match_one_scan_substitution(self, template, summary):
        snapshot = make_snapshot()
        contract, _ = lock_contract(template, "v7", 1000)
        values = {
            "market.condition_id": snapshot.condition_id,
            "market.question": snapshot.question,
            "market.yes_price": f"{snapshot.yes_price:.4f}",
            "market.no_price": f"{snapshot.no_price:.4f}",
            "market.liquidity_tier": snapshot.liquidity_tier.value,
            "market.end_time": to_iso(snapshot.end_time),
            "market.observed_at": to_iso(snapshot.observed_at),
            "portfolio.summary": summary,
            "contract.version": "v7",
            "contract.token_budget": "1000",
        }
        try:
            expected = render_instruction_oracle(template, values)
        except KeyError as exc:  # the first unknown placeholder
            with pytest.raises(MissingPlaceholderValue) as info:
                render_instruction_parts(contract, snapshot)
            assert info.value.key == exc.args[0]
            return
        assert summary.join(render_instruction_parts(contract, snapshot)) == expected
        assert render_instruction(contract, snapshot, summary) == expected


# Letters, ASCII and Unicode whitespace (ideographic space, the four
# information separators and NEL are whitespace to str.split too).
_SPACES = " \n\t\u3000\x1c\x1d\x1e\x1f\x85"
TOKEN_TEXT = st.text(alphabet="ab" + _SPACES, max_size=8)


def _reshaped(data, text: str) -> str:
    """``text`` with each word and each whitespace run redrawn, in place:
    it splits as ``text`` does wherever it is put."""
    return "".join(
        data.draw(st.text(alphabet=_SPACES if run[0].isspace() else "ab", min_size=1, max_size=3))
        for run in re.findall(r"\s+|\S+", text)
    )


def _market_values(contract, market) -> dict[str, str]:
    """Every value a market and the contract fill, as the renderer writes it."""
    return {
        "market.condition_id": market.condition_id,
        "market.question": market.question,
        "market.yes_price": f"{market.yes_price:.4f}",
        "market.no_price": f"{market.no_price:.4f}",
        "market.liquidity_tier": market.liquidity_tier.value,
        "market.end_time": to_iso(market.end_time),
        "market.observed_at": to_iso(market.observed_at),
        "contract.version": contract.version,
        "contract.token_budget": str(contract.token_budget),
    }


def _count(contract, market, summary, extra=None) -> int:
    """The instruction's token count as the engine takes it: rendered with
    the summary's stand-in."""
    return len(render_instruction(contract, market, summary_stand_in(summary), extra).split())


# Placeholders for the templates below: every key a market or the contract
# fills, and the summary in both spellings. Two keys nothing fills come on top.
_KEYS = (
    "market.condition_id", "market.question", "market.yes_price", "market.no_price",
    "market.liquidity_tier", "market.end_time", "market.observed_at", "contract.version",
    "contract.token_budget", "portfolio.summary", " portfolio.summary ",
)
# Any template over them: literal text and placeholders, adjacent or apart.
_TEMPLATES = st.lists(
    st.one_of(
        TOKEN_TEXT,
        st.sampled_from(_KEYS).map(lambda key: "{{%s}}" % key),
        st.sampled_from(["{{no.such.key}}", "{{market.volume}}"]),
    ),
    min_size=1,
    max_size=10,
).map("".join).filter(bool)


class TestSummaryStandIn:
    @pytest.mark.parametrize(
        "summary, stand_in",
        [("", ""), ("a", "x"), ("a b", "x x"), (" a\tb\n", " x x "), ("\u3000", "  "),
         ("\x85ab\x1c", " x ")],
    )
    def test_one_x_per_token_and_the_ends(self, summary, stand_in):
        assert summary_stand_in(summary) == stand_in

    @given(TOKEN_TEXT, st.lists(TOKEN_TEXT, min_size=1, max_size=6))
    @settings(max_examples=500)
    @example("", ["a", "b"])  # an empty summary: the parts meet directly
    @example("a", ["", "", "b"])  # empty parts: summaries meet each other
    @example("x y", ["a", "b", "c"])  # adjacent placeholders on both sides
    @example("\u3000", ["a\x1c", "\x85b"])
    def test_equals_split_of_the_joined_instruction(self, summary, parts):
        template = "{{portfolio.summary}}".join(parts)
        assume(template)
        contract, _ = lock_contract(template, "v1", 1000)
        market = make_snapshot()
        expected = len(render_instruction(contract, market, summary).split())
        assert expected == len(summary.join(parts).split())
        assert _count(contract, market, summary) == expected

    @given(
        _TEMPLATES,
        st.fixed_dictionaries({
            "cid": TOKEN_TEXT, "question": TOKEN_TEXT, "version": TOKEN_TEXT,
            "end": TOKEN_TEXT, "observed": TOKEN_TEXT, "summary": TOKEN_TEXT,
        }),
        st.booleans(),
    )
    @settings(max_examples=500)
    @example("{{portfolio.summary}}{{market.question}}{{portfolio.summary}}",
             dict(cid="", question="", version="", end="", observed="", summary="a"), True)
    @example("{{market.question}}{{portfolio.summary}}{{portfolio.summary}}{{market.condition_id}}",
             dict(cid="b ", question=" a", version="", end="", observed="", summary="\x85c\u3000"),
             False)
    @example("{{market.question}} {{market.volume}}{{portfolio.summary}}{{no.such.key}}",
             dict(cid="", question="", version="", end="", observed="", summary=""), False)
    def test_equals_split_of_the_rendered_instruction(self, template, texts, with_times):
        """Any template, with placeholders adjacent or at either end and the
        summary repeated or absent, and values and summaries that are empty
        or hold Unicode whitespace: the stand-in's count is the summary's,
        and an unknown key is the same error."""
        contract, _ = lock_contract(template, texts["version"], 1000)
        market = make_snapshot(cid=texts["cid"], question=texts["question"])
        extra = (
            {"market.end_time": texts["end"], "market.observed_at": texts["observed"]}
            if with_times else None
        )
        summary = texts["summary"]
        try:
            expected = len(render_instruction(contract, market, summary, extra).split())
        except MissingPlaceholderValue as exc:
            with pytest.raises(MissingPlaceholderValue) as info:
                _count(contract, market, summary, extra)
            assert info.value.key == exc.key
            return
        assert _count(contract, market, summary, extra) == expected

    @given(
        _TEMPLATES,
        st.fixed_dictionaries({
            "cid": TOKEN_TEXT, "question": TOKEN_TEXT, "version": TOKEN_TEXT,
            "end": TOKEN_TEXT, "observed": TOKEN_TEXT, "summary": TOKEN_TEXT,
        }),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=500)
    @example("{{market.question}}{{market.condition_id}}{{contract.version}}",
             dict(cid="", question=" a", version="b\x1c", end="", observed="", summary=""),
             True, None)
    @example("{{market.question}}b{{portfolio.summary}}{{market.condition_id}}",
             dict(cid="a", question="a\u3000", version="", end="", observed="", summary="\x85a "),
             False, None)
    def test_every_value_s_stand_in_splits_as_the_value(self, template, texts, with_times, data):
        """Any template and any values, empty or holding Unicode whitespace,
        in placeholders adjacent or apart: a market whose every value and
        summary is redrawn word for word and space for space has the same
        instruction_shape and the same count; each count is the split of
        the rendered instruction, rendered with the summary's stand-in, and
        rendered with every value's stand-in; and an unknown key is the
        same error."""
        contract, _ = lock_contract(template, texts["version"], 1000)

        def inputs(t, yes):
            market = make_snapshot(cid=t["cid"], question=t["question"], yes=yes)
            extra = (
                {"market.end_time": t["end"], "market.observed_at": t["observed"]}
                if with_times else None
            )
            return market, t["summary"], extra

        # The explicit example draws nothing: its second market is its first
        # at another price.
        reshape = (lambda text: text) if data is None else (lambda text: _reshaped(data, text))
        yes = 0.5 if data is None else data.draw(st.floats(0.0, 1.0))
        first = inputs(texts, 0.25)
        second = inputs({k: v if k == "version" else reshape(v) for k, v in texts.items()}, yes)
        try:
            counts = [len(render_instruction(contract, *args).split()) for args in (first, second)]
        except MissingPlaceholderValue as exc:
            for args in (first, second):
                with pytest.raises(MissingPlaceholderValue) as info:
                    instruction_shape(contract, *args)
                assert info.value.key == exc.key
            return
        assert instruction_shape(contract, *first) == instruction_shape(contract, *second)
        assert counts[0] == counts[1]
        for (market, summary, extra), count in zip((first, second), counts):
            assert _count(contract, market, summary, extra) == count
            values = {**_market_values(contract, market), **(extra or {})}
            stand_ins = {key: summary_stand_in(text) for key, text in values.items()}
            assert len(
                render_instruction(contract, market, summary_stand_in(summary), stand_ins).split()
            ) == count

    def test_the_shape_holds_each_value_s_stand_in_in_template_order(self):
        contract, _ = lock_contract(
            "{{market.question}}|{{portfolio.summary}}|{{market.yes_price}}{{contract.version}}",
            "v 1 ", 1000,
        )
        market = make_snapshot(question=" Will it rain?")
        assert instruction_shape(contract, market, "open 0/30") == ((" x x x", "x", "x x "), "x x")
        assert instruction_shape(
            contract, market, "ignored", {"portfolio.summary": "", "market.yes_price": "a b"}
        ) == ((" x x x", "x x", "x x "), "")

    def test_default_template(self):
        contract = lock_contract(DEFAULT_TEMPLATE, "v1", 1000)[0]
        summary = Portfolio.fresh(1_000_000, 30).summary()
        assert _count(contract, make_snapshot(), summary) == len(
            render_instruction(contract, make_snapshot(), summary).split()
        )

    def test_unlocked_contract_rejected(self):
        contract, _ = lock_contract("{{market.question}}", "v1", 1000)
        unlocked = dataclasses.replace(contract, locked=False)
        with pytest.raises(UnlockedContract):
            _count(unlocked, make_snapshot(), "open 0/30")


class TestStore:
    def test_round_trip(self, tmp_path):
        contract, chash = lock_contract("Forecast X", "v1", 1000)
        store = ContractStore(tmp_path / "contracts")
        path = store.save(contract, chash)
        assert path.name == f"{chash.digest}.contract.json"
        loaded, recomputed = store.load(chash.digest)
        assert loaded == contract
        assert recomputed.digest == chash.digest
        assert store.verify_stored(chash.digest)

    def test_tampered_file_detected(self, tmp_path):
        contract, chash = lock_contract("Forecast X for tampering", "v1", 1000)
        store = ContractStore(tmp_path)
        path = store.save(contract, chash)
        original = path.read_bytes()
        rng = random.Random(99)
        detected = 0
        trials = 200
        for _ in range(trials):
            pos = rng.randrange(len(original))
            flipped = bytes([original[pos] ^ (1 << rng.randrange(8))])
            path.write_bytes(original[:pos] + flipped + original[pos + 1:])
            if not store.verify_stored(chash.digest):
                detected += 1
        path.write_bytes(original)
        assert detected == trials

    def test_canonical_json_round_trip(self):
        contract, chash = lock_contract("Forecast X", "v1", 1000)
        text = contract_to_json(contract, chash.algorithm_id)
        loaded, recomputed = contract_from_json(text)
        assert loaded == contract
        assert recomputed == chash


def test_canonical_bytes_length_prefixed():
    contract, _ = lock_contract("ab", "v", 1000)
    blob = canonical_bytes(contract)
    assert blob.startswith(b"2:ab1:v")


def test_hash_fields_cover_created_at(now):
    c1, h1 = lock_contract("Forecast X", "v1", 1000)
    c2, h2 = lock_contract("Forecast X", "v1", 1000, created_at=now)
    assert h1.digest != h2.digest
