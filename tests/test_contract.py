from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmark.contract import (
    ContractHash,
    ContractStore,
    DEFAULT_TEMPLATE,
    canonical_bytes,
    compute_hash,
    contract_from_json,
    contract_to_json,
    lock_contract,
    render_instruction,
    render_instruction_parts,
    verify_contract,
)
from driftmark.errors import (
    BudgetNotAllowed,
    EmptyTemplate,
    MissingPlaceholderValue,
    NonPositiveBudget,
    UnlockedContract,
)
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


class TestVerifyContract:
    def test_own_hash_verifies(self):
        contract, chash = lock_contract("Forecast X", "v1", 1000)
        assert verify_contract(contract, chash) is True

    def test_foreign_hash_fails(self):
        contract, _ = lock_contract("Forecast X", "v1", 1000)
        _, other = lock_contract("Forecast Y", "v1", 1000)
        assert verify_contract(contract, other) is False

    def test_unlocked_contract_rejected(self):
        contract, chash = lock_contract("Forecast X", "v1", 1000)
        unlocked = dataclasses.replace(contract, locked=False)
        with pytest.raises(UnlockedContract):
            verify_contract(unlocked, chash)


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
