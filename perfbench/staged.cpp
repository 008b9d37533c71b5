#include "staged.h"

#include "analysis/audit_egraph.h"
#include "analysis/verify_machine.h"
#include "analysis/verify_vir.h"
#include "egraph/extract.h"
#include "support/error.h"
#include "vir/cprint.h"

namespace perfbench {

namespace {

/** The compiler driver's e-graph audit gate (structure, and extraction). */
void
audit_or_throw(const EGraph& graph, const CostModel& cost,
               const Extractor* extractor)
{
    analysis::DiagEngine diags;
    analysis::audit_egraph(graph, diags);
    analysis::audit_extraction(graph, cost, diags, extractor);
    DIOS_ASSERT(!diags.has_errors(), "e-graph audit failed:\n" +
                                         diags.render_text());
}

}  // namespace

CompiledKernel
staged_compile(const scalar::Kernel& kernel, CompilerOptions options,
               Tracer& tracer, int parent, std::uint64_t request)
{
    options.sync();
    check_vector_width(options.target.vector_width);
    const int width = options.target.vector_width;
    const bool gates = options.verify_ir || analysis::verify_ir_default();
    const bool machine_gates =
        options.verify_machine || analysis::verify_machine_default();
    const Deadline deadline;  // the workloads compile without a deadline

    CompiledKernel out;
    out.kernel = kernel;
    std::vector<vir::OutputSlot> slots;
    {
        SpanGuard span(&tracer, "scalar.lift", parent, request);
        out.spec = scalar::lift(kernel);
        auto [padded, padded_slots] = pad_lifted_spec(out.spec, width);
        out.padded_spec = padded;
        slots = std::move(padded_slots);
        out.report.spec_elements = padded->arity();
        out.report.spec_dag_nodes = Term::dag_size(padded);
        span.count("spec_dag_nodes",
                   static_cast<double>(out.report.spec_dag_nodes));
    }

    // The e-graph, rules, cost model and extractor live until the end, as
    // in compile_with_deadline, so every later layer runs on the same heap.
    std::optional<EGraph> graph_storage;
    std::optional<std::vector<Rewrite>> rules;
    ClassId root;
    {
        SpanGuard span(&tracer, "egraph.saturate", parent, request);
        EGraph& graph = graph_storage.emplace();
        root = graph.add_term(out.padded_spec);
        graph.rebuild();
        rules = build_rules(options.rules);
        Runner runner(options.limits);
        const RunnerReport rr = runner.run(graph, *rules, deadline);
        out.report.stop_reason = rr.stop_reason;
        out.report.runner_iterations = rr.iterations.size();
        out.report.rule_stats = rr.rule_stats;
        out.report.egraph_nodes = graph.num_nodes();
        out.report.egraph_classes = graph.num_classes();
        out.report.memory_proxy_bytes = graph.memory_proxy_bytes();
        double matches = 0.0;
        double applications = 0.0;
        for (const RuleStats& rs : rr.rule_stats) {
            matches += static_cast<double>(rs.matches);
            applications += static_cast<double>(rs.applications);
        }
        span.count("iterations", static_cast<double>(rr.iterations.size()));
        span.count("nodes", static_cast<double>(graph.num_nodes()));
        span.count("classes", static_cast<double>(graph.num_classes()));
        span.count("matches", matches);
        span.count("applications", applications);
        span.count("memory_proxy_bytes",
                   static_cast<double>(graph.memory_proxy_bytes()));
    }

    EGraph& graph = *graph_storage;
    std::optional<DiosCostModel> cost;
    {
        SpanGuard span(&tracer, "egraph.extract", parent, request);
        cost.emplace(options.cost, width);
    }
    if (gates) {
        SpanGuard span(&tracer, "analysis.audit", parent, request);
        audit_or_throw(graph, *cost, nullptr);
    }
    std::optional<Extractor> extractor;
    {
        SpanGuard span(&tracer, "egraph.extract", parent, request);
        extractor.emplace(graph, *cost, deadline);
        Extraction best = extractor->extract(graph.find(root));
        out.extracted = best.term;
        out.report.extracted_cost = best.cost;
        span.count("extracted_cost", best.cost);
    }
    if (gates) {
        SpanGuard span(&tracer, "analysis.audit", parent, request);
        audit_or_throw(graph, *cost, &*extractor);
    }

    {
        SpanGuard span(&tracer, "vir.lower", parent, request);
        out.vprogram = vir::lower_term(out.extracted, width, slots,
                                       options.target.has_scalar_mac);
    }
    std::vector<analysis::StoreSig> stores_before;
    if (gates) {
        SpanGuard span(&tracer, "analysis.verify_vir", parent, request);
        const analysis::DiagEngine diags =
            analysis::verify_compiled_kernel(kernel, out.vprogram);
        DIOS_ASSERT(!diags.has_errors(),
                    "VIR verifier rejected the program after lowering:\n" +
                        diags.render_text());
        stores_before = analysis::store_signature(out.vprogram);
    }
    {
        SpanGuard span(&tracer, "vir.lvn", parent, request);
        out.report.lvn = vir::run_lvn(out.vprogram);
        span.count("lvn_removed",
                   static_cast<double>(out.report.lvn.value_numbered +
                                       out.report.lvn.dead_removed));
    }
    if (gates) {
        SpanGuard span(&tracer, "analysis.verify_vir", parent, request);
        analysis::DiagEngine diags;
        analysis::verify_vprogram(out.vprogram, diags,
                                  analysis::padded_extents(kernel, width));
        analysis::check_store_order(stores_before, out.vprogram, diags);
        DIOS_ASSERT(!diags.has_errors(),
                    "VIR verifier rejected the program after LVN:\n" +
                        diags.render_text());
    }
    {
        SpanGuard span(&tracer, "vir.layout", parent, request);
        out.layout = vir::CompiledLayout::make(kernel, width);
    }

    if (machine_gates) {
        vir::EmitTrace trace;
        {
            SpanGuard span(&tracer, "machine.emit", parent, request);
            out.machine = vir::emit_machine(out.vprogram, out.layout,
                                            options.target, &trace);
            span.count("instrs", static_cast<double>(out.machine.size()));
        }
        SpanGuard span(&tracer, "analysis.verify_machine", parent, request);
        analysis::DiagEngine diags;
        analysis::verify_machine_program(trace.unscheduled, options.target,
                                         diags, &out.layout);
        analysis::verify_machine_program(out.machine, options.target, diags,
                                         &out.layout);
        analysis::check_schedule_preservation(trace.unscheduled, out.machine,
                                              trace.schedule, options.target,
                                              diags);
        DIOS_ASSERT(!diags.has_errors(),
                    "machine verifier rejected the emitted program:\n" +
                        diags.render_text());
    } else {
        SpanGuard span(&tracer, "machine.emit", parent, request);
        out.machine =
            vir::emit_machine(out.vprogram, out.layout, options.target);
        span.count("instrs", static_cast<double>(out.machine.size()));
    }
    if (options.validate || options.verify_machine) {
        SpanGuard span(&tracer, "analysis.machine_tv", parent, request);
        const analysis::MachineValidation mv =
            analysis::validate_machine_translation(
                out.padded_spec, slots, out.machine, out.layout,
                options.target);
        out.report.machine_validated = true;
        out.report.machine_validation = mv.verdict;
        if (mv.witness) {
            out.report.machine_witness = mv.witness->to_string();
        }
        span.count("machine_tv_decided",
                   mv.verdict == Verdict::kUnknown ? 0.0 : 1.0);
    }
    {
        SpanGuard span(&tracer, "vir.cprint", parent, request);
        out.c_source = vir::to_c_intrinsics(out.vprogram, kernel.name);
        span.count("cprint_bytes", static_cast<double>(out.c_source.size()));
    }
    if (options.validate) {
        SpanGuard span(&tracer, "validation.term_tv", parent, request);
        out.report.validation =
            validate_translation(out.padded_spec, out.extracted);
        span.count("term_tv_decided",
                   out.report.validation == Verdict::kUnknown ? 0.0 : 1.0);
    }
    {
        // compile_with_deadline frees these when it returns, in reverse
        // order of construction; the replay does the same inside a span.
        SpanGuard span(&tracer, "egraph.free", parent, request);
        extractor.reset();
        cost.reset();
        rules.reset();
        graph_storage.reset();
    }
    return out;
}

std::string
replay_mismatch(const CompiledKernel& staged, const CompiledKernel& reference,
                int width)
{
    if (disassemble(staged.machine, width) !=
        disassemble(reference.machine, width)) {
        return "machine program differs";
    }
    if (staged.c_source != reference.c_source) {
        return "c_source differs";
    }
    if (staged.layout.pool() != reference.layout.pool()) {
        return "constant pool differs";
    }
    if (staged.report.egraph_nodes != reference.report.egraph_nodes ||
        staged.report.extracted_cost != reference.report.extracted_cost) {
        return "e-graph or extraction counts differ";
    }
    if (staged.report.validation != reference.report.validation ||
        staged.report.machine_validation !=
            reference.report.machine_validation) {
        return "validation verdicts differ";
    }
    return "";
}

}  // namespace perfbench
