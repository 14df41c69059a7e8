"""Command-line entry point.

Subcommands: lock, synth, replay, run, sweep, report, verify.
Global flags (before the subcommand): --seed, --config, --out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .config import load_config
from .contract import ContractStore, DEFAULT_TEMPLATE, lock_contract
from .errors import EngineError, FatalFeedError, InvalidParameters, IoError
from .evalloop import (
    EvalEngine,
    resume_run,
    token_budget_sweep,
    verify_run,
)
from .market_data import feed_lines, generate_synthetic, replay_feed, save_feed, save_outcomes
from .reporting import aggregate, emit
from .timeutil import utc_now


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftmark",
        description="Deterministic evaluation engine for forecasting agents on prediction markets.",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--out", type=Path, default=Path("runs"), help="output root directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lock = sub.add_parser("lock", help="lock an instruction template into a contract store")
    p_lock.add_argument("--template-file", type=Path, help="file holding the template text")
    p_lock.add_argument("--version", default="v1")
    p_lock.add_argument("--budget", type=int, default=1000)
    p_lock.add_argument("--store", type=Path, default=Path("contracts"))
    p_lock.add_argument(
        "--timestamp-now",
        action="store_true",
        help="bind the current time into the hash (digests then vary per call)",
    )

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic feed")
    p_synth.add_argument("--markets", type=int, required=True)
    p_synth.add_argument("--steps", type=int, required=True)
    p_synth.add_argument("--interval", type=int, default=3600, help="seconds between steps")
    p_synth.add_argument("--feed", type=Path, required=True, help="output feed JSONL")
    p_synth.add_argument("--outcomes", type=Path, required=True, help="output outcomes JSONL")

    p_replay = sub.add_parser(
        "replay", help="validate a feed file and print the sha256 of its canonical lines"
    )
    p_replay.add_argument("--feed", type=Path, required=True)

    p_run = sub.add_parser("run", help="execute an evaluation run")
    p_run.add_argument("--agents", help="comma-separated agent ids (a new run needs them)")
    p_run.add_argument("--cycles", type=int, default=10)
    p_run.add_argument("--feed", type=Path, help="replay feed file (else synthetic)")
    p_run.add_argument("--outcomes", type=Path, help="outcomes file for replay feeds")
    p_run.add_argument("--markets", type=int, default=40, help="synthetic market count")
    p_run.add_argument("--mode", choices=["execution", "observation"], default="execution")
    p_run.add_argument("--budget", type=int, default=1000)
    p_run.add_argument("--run-id", default=None)
    p_run.add_argument("--resume", metavar="RUN_ID", help="resume from the latest checkpoint")

    p_sweep = sub.add_parser("sweep", help="token-budget sweep over identical seed and feed")
    p_sweep.add_argument("--agents", required=True)
    p_sweep.add_argument("--cycles", type=int, default=10)
    p_sweep.add_argument("--markets", type=int, default=40)
    p_sweep.add_argument("--budgets", default=None, help="comma-separated, default 500,1000,2000,4000")
    p_sweep.add_argument("--mode", choices=["execution", "observation"], default="observation")
    p_sweep.add_argument("--run-id-prefix", default="sweep")

    p_report = sub.add_parser("report", help="aggregate an event log into reports")
    p_report.add_argument("--run-id", help="run directory under --out")
    p_report.add_argument("--log", type=Path, help="bare event-log JSONL (overrides --run-id)")
    p_report.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p_report.add_argument("--sort", choices=["hhis", "pnl", "brier"], default="hhis")
    p_report.add_argument("--dest", type=Path, default=None, help="write to file instead of stdout")

    p_verify = sub.add_parser("verify", help="recompute event-log and contract hashes for a run")
    p_verify.add_argument("--run-id", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.resume is None and args.agents is None:
        parser.error("run needs --agents unless it resumes a run with --resume")
    try:
        return _dispatch(args, load_config(args.config))
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _budgets(text: str) -> tuple[int, ...]:
    """The token budgets of ``--budgets``: comma-separated integers."""
    budgets = []
    for part in text.split(","):
        try:
            budgets.append(int(part))
        except ValueError:
            raise InvalidParameters(f"--budgets {text!r}: {part!r} is not an integer") from None
    return tuple(budgets)


def _dispatch(args, config) -> int:
    if args.command == "lock":
        template = DEFAULT_TEMPLATE
        if args.template_file:
            try:
                template = args.template_file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise IoError(f"cannot read template {args.template_file}: {exc}") from exc
        contract, chash = lock_contract(
            template,
            args.version,
            args.budget,
            created_at=utc_now() if args.timestamp_now else None,
            allowed_budgets=tuple(config.contract.allowed_token_budgets),
            allow_any_budget=config.contract.allow_any_budget,
            algorithm_id=config.contract.hash_algorithm,
        )
        try:
            path = ContractStore(args.store).save(contract, chash)
        except OSError as exc:
            raise IoError(f"cannot write contract store {args.store}: {exc}") from exc
        print(f"{chash.digest}  {path}")
        return 0

    if args.command == "synth":
        feed = generate_synthetic(
            args.seed, args.markets, args.steps, interval_seconds=args.interval
        )
        try:
            save_feed(feed.snapshots, args.feed)
            save_outcomes(feed.outcomes, args.outcomes)
        except OSError as exc:
            raise IoError(f"cannot write the synthetic feed: {exc}") from exc
        print(f"wrote {len(feed.snapshots)} snapshots to {args.feed}")
        print(f"wrote {len(feed.outcomes)} outcomes to {args.outcomes}")
        return 0

    if args.command == "replay":
        # Each snapshot's line as ``save_feed`` writes it, so a feed it wrote
        # hashes to its file's sha256.
        h = hashlib.sha256()
        count = 0
        try:
            snaps = replay_feed(args.feed, spread_tolerance=config.market.spread_tolerance)
            for line in feed_lines(snaps):
                h.update(line.encode())
                count += 1
        except (OSError, UnicodeDecodeError) as exc:
            raise FatalFeedError(f"cannot read feed {args.feed}: {exc}") from exc
        print(f"{count} snapshots, stream hash {h.hexdigest()}")
        return 0

    if args.command == "run":
        if args.resume:
            result = resume_run(args.out, args.resume)
        else:
            if args.feed:
                feed_source = {"kind": "replay", "feed": str(args.feed)}
                if args.outcomes:
                    feed_source["outcomes"] = str(args.outcomes)
            else:
                feed_source = {"kind": "synthetic", "n_markets": args.markets}
            engine = EvalEngine.create(
                args.out,
                seed=args.seed,
                agent_ids=args.agents.split(","),
                feed_source=feed_source,
                cycles=args.cycles,
                config=config,
                run_id=args.run_id,
                mode=args.mode,
                token_budget=args.budget,
            )
            result = engine.run()
        print(f"run {result.run_id}: {result.cycles_run} cycles")
        print(f"event log sha256 {result.event_log_sha256}")
        return 0

    if args.command == "sweep":
        budgets = _budgets(args.budgets) if args.budgets else None
        report = token_budget_sweep(
            args.out,
            seed=args.seed,
            agent_ids=args.agents.split(","),
            feed_source={"kind": "synthetic", "n_markets": args.markets},
            cycles=args.cycles,
            config=config,
            budgets=budgets,
            mode=args.mode,
            run_id_prefix=args.run_id_prefix,
        )
        dest = Path(args.out) / f"{args.run_id_prefix}_report.json"
        dest.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
        print(f"sweep over budgets {list(report.budgets)} -> {dest}")
        for row in report.rows:
            dprob = "-" if row.mean_abs_dprob is None else f"{row.mean_abs_dprob:.6f}"
            print(f"  budget {row.budget:>5}  {row.agent_id:<20} mean|dP|={dprob}")
        return 0

    if args.command == "report":
        if args.log:
            source = args.log
        elif args.run_id:
            source = Path(args.out) / args.run_id / "events.jsonl"
        else:
            print("error: need --log or --run-id", file=sys.stderr)
            return 2
        report = aggregate(source, config, sort_key=args.sort)
        text = emit(report, args.format, args.dest)
        if args.dest is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {args.format} report to {args.dest}")
        return 0

    if args.command == "verify":
        report = verify_run(args.out, args.run_id)
        status = "OK" if report.ok else "FAILED"
        print(f"verify {args.run_id}: {status}")
        print(f"  event log: {'ok' if report.events_ok else 'MISMATCH'}")
        for digest, ok in sorted(report.contracts.items()):
            print(f"  contract {digest[:16]}…: {'ok' if ok else 'MISMATCH'}")
        for message in report.messages:
            print(f"  note: {message}")
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
