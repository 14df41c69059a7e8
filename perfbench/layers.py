"""The per-layer split: which driftmark names the traced worker wraps, and
how the recorded spans and counters become per-layer metrics.

Each wrapper replaces a name in the namespace it is called through: the
module globals of ``driftmark.evalloop`` for the functions the engine
imports, ``driftmark.reporting`` for the fold (so both the engine's
end-of-run fold and ``aggregate`` are covered), and class attributes for
methods. Checkpoint write and resume restore have no public entry point,
so ``EvalEngine``'s private checkpoint methods are wrapped and named as
such. Everything else the run does stays in ``evalloop.self_s``.
"""

from __future__ import annotations

from spans import Tracer


def install(tracer: Tracer) -> None:
    from driftmark import evalloop, reporting, simulator

    def patch(owner, attr: str, name: str, generator: bool = False, **hooks) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapped = tracer.wrap_generator(name, fn) if generator else tracer.wrap(name, fn, **hooks)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def count_failure(counter: str):
        return lambda exc: tracer.count(counter)

    def after_step(result, args) -> None:
        trades = sum(1 for e in result.entries if e.kind != simulator.EntryKind.MARK)
        tracer.count("simulator.skips", len(result.skipped))
        tracer.count("simulator.trades", trades)

    def after_validate(result, args) -> None:
        tracer.count("agents.batches_validated")
        tracer.count("agents.batches_accepted", 1 if result.ok else 0)

    def after_checkpoint(result, args) -> None:
        engine, cycle = args[0], args[1]
        tracer.count("evalloop.checkpoint_bytes", engine._checkpoint_path(cycle).stat().st_size)

    patch(evalloop, "narrative_drift", "metrics.narrative_drift")
    patch(evalloop, "price_volatility", "metrics.volatility")
    patch(evalloop, "render_instruction", "contract.render")
    patch(evalloop, "sample_forecast", "agents.sample",
          on_error=count_failure("agents.sample_failures"))
    patch(evalloop, "build_decision_batch", "agents.batch_build")
    patch(evalloop, "parse_decision_wire", "agents.batch_parse")
    patch(evalloop, "validate_decision_batch", "agents.batch_validate", after=after_validate)
    patch(evalloop, "event_line", "evalloop.event_line")
    patch(evalloop, "file_sha256", "evalloop.sha")
    patch(evalloop, "to_iso", "timeutil.to_iso")
    patch(evalloop, "step", "simulator.step", after=after_step)
    patch(evalloop, "resolve_market", "simulator.resolve")
    for fn in ("market_baseline", "uniform_baseline", "historical_frequency_baseline",
               "heuristic_baseline"):
        patch(evalloop, fn, "baselines")
    patch(evalloop, "categorize_event", "market_data.categorize")
    patch(evalloop, "replay_feed", "market_data.feed_load", generator=True)
    patch(evalloop, "load_outcomes", "market_data.feed_load")
    patch(simulator.LedgerWriter, "append", "simulator.ledger_append")
    patch(simulator.LedgerWriter, "sync", "simulator.ledger_sync")
    patch(evalloop.EvalEngine, "run", "evalloop.run")
    patch(evalloop.EvalEngine, "_write_checkpoint", "evalloop.checkpoint", after=after_checkpoint)
    patch(evalloop.EvalEngine, "_latest_checkpoint", "evalloop.checkpoint_load")
    patch(evalloop.EvalEngine, "_truncate_lines", "evalloop.truncate_log")
    patch(reporting, "iter_events", "reporting.iter_events", generator=True)
    patch(reporting.EventFold, "consume", "reporting.fold")
    patch(reporting, "final_reports_from_fold", "reporting.final_reports")
    patch(reporting, "aggregate", "reporting.aggregate")
    patch(reporting, "emit", "reporting.emit")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric name -> (unit, reader(tracer) -> value over the whole traced run)
LAYER_METRICS: dict[str, tuple] = {
    "metrics.narrative_drift_s": ("s", lambda t: t.self_s("metrics.narrative_drift")),
    "metrics.narrative_drift_calls": ("count", lambda t: t.calls("metrics.narrative_drift")),
    "contract.render_s": ("s", lambda t: t.self_s("contract.render")),
    "contract.render_calls": ("count", lambda t: t.calls("contract.render")),
    "agents.sample_s": ("s", lambda t: t.self_s("agents.sample")),
    "agents.sample_calls": ("count", lambda t: t.calls("agents.sample")),
    "agents.sample_failures": ("count", lambda t: t.counters.get("agents.sample_failures", 0)),
    "evalloop.event_line_s": ("s", lambda t: t.self_s("evalloop.event_line")),
    "evalloop.events_written": ("count", lambda t: t.calls("evalloop.event_line")),
    "timeutil.to_iso_s": ("s", lambda t: t.self_s("timeutil.to_iso")),
    "timeutil.to_iso_calls": ("count", lambda t: t.calls("timeutil.to_iso")),
    "reporting.iter_events_s": ("s", lambda t: t.self_s("reporting.iter_events")),
    "reporting.fold_s": ("s", lambda t: t.self_s("reporting.fold")),
    "reporting.final_reports_s": ("s", lambda t: t.self_s("reporting.final_reports")),
    "reporting.aggregate_s": ("s", lambda t: t.self_s("reporting.aggregate")),
    "reporting.emit_s": ("s", lambda t: t.self_s("reporting.emit")),
    "evalloop.sha_s": ("s", lambda t: t.self_s("evalloop.sha")),
    "evalloop.checkpoint_s": ("s", lambda t: t.self_s("evalloop.checkpoint")),
    "evalloop.checkpoint_bytes": (
        "bytes", lambda t: t.counters.get("evalloop.checkpoint_bytes", 0)),
    "evalloop.resume_restore_s": (
        "s", lambda t: t.self_s("evalloop.checkpoint_load", "evalloop.truncate_log")),
    "simulator.step_s": ("s", lambda t: t.self_s("simulator.step")),
    "simulator.ledger_append_s": ("s", lambda t: t.self_s("simulator.ledger_append")),
    "simulator.ledger_sync_s": ("s", lambda t: t.self_s("simulator.ledger_sync")),
    "simulator.ledger_sync_calls": ("count", lambda t: t.calls("simulator.ledger_sync")),
    "simulator.resolve_s": ("s", lambda t: t.self_s("simulator.resolve")),
    "simulator.skip_ratio": ("ratio", lambda t: _ratio(
        t.counters.get("simulator.skips", 0),
        t.counters.get("simulator.skips", 0) + t.counters.get("simulator.trades", 0))),
    "agents.batch_build_s": ("s", lambda t: t.self_s("agents.batch_build")),
    "agents.batch_parse_s": ("s", lambda t: t.self_s("agents.batch_parse")),
    "agents.batch_validate_s": ("s", lambda t: t.self_s("agents.batch_validate")),
    "agents.batch_accept_ratio": ("ratio", lambda t: _ratio(
        t.counters.get("agents.batches_accepted", 0),
        t.counters.get("agents.batches_validated", 0))),
    "baselines.s": ("s", lambda t: t.self_s("baselines")),
    "baselines.calls": ("count", lambda t: t.calls("baselines")),
    "metrics.volatility_s": ("s", lambda t: t.self_s("metrics.volatility")),
    "market_data.categorize_s": ("s", lambda t: t.self_s("market_data.categorize")),
    "market_data.feed_load_s": ("s", lambda t: t.self_s("market_data.feed_load")),
    "evalloop.self_s": ("s", lambda t: t.self_s("evalloop.run")),
}


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, dict]:
    """Ratios as measured; every other metric per loop iteration."""
    out = {}
    for name, (unit, read) in LAYER_METRICS.items():
        value = float(read(tracer))
        if unit != "ratio":
            value /= iterations
        out[name] = {"value": value, "unit": unit}
    return out
