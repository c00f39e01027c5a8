"""The layers of ``ccs eval`` as the benchmark sees them from outside.

Each hook wraps the name a caller looks up.  Calls made once per trial or
per recursion step keep their spans; calls made once per term or per lookup
(``sigma_hat``, ``to_covering_point``, ``lhat``, ``FuzzyIndex.key``) are
only aggregated, and ``GroupElement.__matmul__`` is only counted, so that a
traced run keeps a bounded number of spans in memory.

``sigma_hat`` is split into the main flattening of the repaired cycle and
the ten-equation diagnostic over the certificate's 5-vector configurations.
From outside the two differ by what they are called on: the diagnostic calls
it on ``ConfigTuple.face(i)``, so a face result is tagged and the next
``sigma_hat`` call on that object is counted as diagnostic.
"""

from __future__ import annotations

from .tracing import Hook, Tracer


def _count(key, measure):
    def after(tracer, token, result, args, kwargs):
        tracer.counts[key] += measure(token, result, args)
    return after


def _merge_counts(tracer, token, result, args, kwargs):
    tracer.counts["covering.prebloch.terms_in"] += token
    tracer.counts["covering.prebloch.terms_out"] += len(result)


def _mark_face(tracer, token, result, args, kwargs):
    tracer.marks[id(result)] = result


def _sigma_hat_name(tracer: Tracer, args) -> str:
    if args and tracer.marks.pop(id(args[0]), None) is not None:
        return "pipeline.sigma_hat.diagnostic"
    return "pipeline.sigma_hat.main"


def _nu_hat_atoms(args, kwargs) -> int:
    atoms = 0
    for _, triple in args[0]:
        ledger = getattr(triple, "ledger", None)
        atoms += len(ledger[0]) * len(ledger[1]) if ledger else 1
    return atoms


HOOKS: list[Hook] = [
    Hook("extbloch.cli.main", "cli.main"),
    Hook("extbloch.cli.parse_cycle_file", "chainio.parse"),
    Hook("extbloch.cli.emit_report", "chainio.emit"),
    Hook("extbloch.cli.ccs_value", "pipeline.ccs_value"),
    Hook("extbloch.ccs_value", "pipeline.ccs_value"),
    Hook("extbloch.cli.is_cycle", "chains.is_cycle"),
    Hook("extbloch.pipeline.is_cycle", "chains.is_cycle"),
    Hook("extbloch.chains.is_cycle", "chains.is_cycle"),
    Hook("extbloch.pipeline.lambda_hat", "pipeline.lambda_hat"),
    Hook("extbloch.pipeline._repair_core", "chains.repair"),
    Hook("extbloch.chains._ConeRepairer.phi", "chains.phi"),
    Hook("extbloch.chains._ConeRepairer.homotopy", "chains.homotopy"),
    Hook("extbloch.chains.hom_boundary", "chains.certificate"),
    Hook("extbloch.chains.is_good", "chains.is_good"),
    Hook("extbloch.chains._ConeRepairer._generic_avoiding", "chains.apex",
         after=_count("chains.apex.accepted", lambda t, r, a: 1)),
    Hook("extbloch.chains.random_sl2", "chains.random_sl2", timed=False),
    Hook("extbloch.pipeline.sample_generic_v", "chains.sample_v",
         after=_count("chains.sample_v.attempts", lambda t, r, a: r[1])),
    Hook("extbloch.pipeline.psi_v", "pipeline.psi_v",
         after=_count("pipeline.psi_v.configs", lambda t, r, a: len(r))),
    Hook("extbloch.pipeline.ConfigTuple.face", "pipeline.face", keep=False,
         after=_mark_face),
    Hook("extbloch.pipeline.sigma_hat", "pipeline.sigma_hat.main",
         keep=False, rename=_sigma_hat_name),
    Hook("extbloch.pipeline.to_covering_point", "covering.to_covering_point",
         keep=False),
    Hook("extbloch.pipeline.PreBlochElement", "covering.prebloch",
         before=lambda args, kwargs: len(args[0]), after=_merge_counts),
    Hook("extbloch.pipeline.nu_hat", "covering.nu_hat", before=_nu_hat_atoms,
         after=_count("covering.nu_hat.atoms", lambda t, r, a: t)),
    Hook("extbloch.pipeline.check_flattening_condition",
         "covering.flattening_check"),
    Hook("extbloch.pipeline.lhat", "dilog.lhat", keep=False),
    Hook("extbloch.pipeline.lhat_sum", "pipeline.lhat_sum"),
    Hook("extbloch.pipeline.volume_of", "pipeline.volume_of"),
    Hook("extbloch.quantize.FuzzyIndex.key", "quantize.key", keep=False,
         before=lambda args, kwargs: len(args[0]),
         after=_count("quantize.key.new",
                      lambda t, r, a: len(a[0]) - t)),
    Hook("extbloch.core.GroupElement.__matmul__", "core.matmul", timed=False),
]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("quantize.key.calls", "count"),
    ("quantize.key.self_s", "s"),
    ("quantize.key.new_ratio", "ratio"),
    ("core.matmul.calls", "count"),
    ("chains.is_cycle.self_s", "s"),
    ("chains.repair.self_s", "s"),
    ("chains.phi.self_s", "s"),
    ("chains.is_good.self_s", "s"),
    ("chains.apex.useful_ratio", "ratio"),
    ("chains.homotopy.self_s", "s"),
    ("chains.certificate.self_s", "s"),
    ("chains.sample_v.self_s", "s"),
    ("chains.sample_v.attempts", "count"),
    ("pipeline.psi_v.self_s", "s"),
    ("pipeline.psi_v.configs", "count"),
    ("pipeline.sigma_hat.main.calls", "count"),
    ("pipeline.sigma_hat.main.self_s", "s"),
    ("pipeline.sigma_hat.diagnostic.calls", "count"),
    ("pipeline.sigma_hat.diagnostic.self_s", "s"),
    ("pipeline.lambda_hat.self_s", "s"),
    ("covering.to_covering_point.self_s", "s"),
    ("covering.prebloch.self_s", "s"),
    ("covering.prebloch.merge_ratio", "ratio"),
    ("covering.nu_hat.self_s", "s"),
    ("covering.nu_hat.atoms", "count"),
    ("covering.flattening_check.calls", "count"),
    ("covering.flattening_check.self_s", "s"),
    ("dilog.lhat.calls", "count"),
    ("pipeline.lhat_sum.self_s", "s"),
    ("pipeline.volume_of.self_s", "s"),
    ("cli.import_s", "s"),
    ("chainio.parse.self_s", "s"),
    ("chainio.emit.self_s", "s"),
    ("share.certificate", "ratio"),
    ("share.fast_numeric", "ratio"),
    ("share.cli_io", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# counts that depend only on the inputs and seeds, so they must repeat
# exactly between runs with the same seed
DETERMINISTIC = ("quantize.key.calls", "core.matmul.calls",
                 "pipeline.psi_v.configs", "chains.sample_v.attempts")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float,
                 import_s: float, imports: int) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass.

    ``imports`` is how many times the operations would pay ``import_s`` when
    run as they are used: once per ``ccs eval`` invocation for the command
    line workload, once per process otherwise.
    """
    calls, own, counts = tracer.calls, tracer.self_s, tracer.counts
    v: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            v[name] = calls[base]
        elif field == "self_s":
            v[name] = own[base]
    v["quantize.key.new_ratio"] = _ratio(counts["quantize.key.new"],
                                         calls["quantize.key"])
    v["chains.apex.useful_ratio"] = _ratio(counts["chains.apex.accepted"],
                                           calls["chains.random_sl2"])
    v["chains.sample_v.attempts"] = counts["chains.sample_v.attempts"]
    v["pipeline.psi_v.configs"] = counts["pipeline.psi_v.configs"]
    v["covering.prebloch.merge_ratio"] = _ratio(
        counts["covering.prebloch.terms_out"],
        counts["covering.prebloch.terms_in"])
    v["covering.nu_hat.atoms"] = counts["covering.nu_hat.atoms"]
    v["cli.import_s"] = import_s
    v["share.certificate"] = _ratio(
        own["chains.homotopy"] + own["chains.certificate"], traced_wall_s)
    v["share.fast_numeric"] = _ratio(
        own["pipeline.psi_v"] + own["pipeline.sigma_hat.main"], traced_wall_s)
    paid = import_s * imports
    v["share.cli_io"] = _ratio(
        paid + own["chainio.parse"] + own["chainio.emit"],
        traced_wall_s + paid)
    v["trace.wall_s"] = traced_wall_s
    v["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    return v
