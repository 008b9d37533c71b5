#include "daemon/protocol.h"

#include <optional>
#include <string_view>

#include "analysis/diagnostics.h"
#include "machine/target.h"
#include "strategy/parse.h"
#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros::daemon {

namespace {

using View = SexprDoc::View;

/** A `(name value...)` field with at least one value. */
bool
is_field(View s, std::string_view name)
{
    return s.size() >= 2 && s.has_head(name);
}

std::string
field_name(View s)
{
    return std::string(s[0].token());
}

std::string_view
field_token(View s)
{
    DIOS_CHECK(s.size() == 2 && s[1].is_atom(),
               "daemon payload: field '" + field_name(s) +
                   "' expects one atom");
    return s[1].token();
}

std::int64_t
field_i64(View s)
{
    DIOS_CHECK(s.size() == 2 && s[1].is_integer(),
               "daemon payload: field '" + field_name(s) +
                   "' expects an integer");
    return s[1].as_integer();
}

double
field_f64(View s)
{
    DIOS_CHECK(s.size() == 2 && s[1].is_number(),
               "daemon payload: field '" + field_name(s) +
                   "' expects a number");
    return s[1].as_number();
}

bool
field_bool(View s)
{
    return field_i64(s) != 0;
}

FailureClass
failure_class_from_name(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(FailureClass::kExpired); ++i) {
        const auto c = static_cast<FailureClass>(i);
        if (name == failure_class_name(c)) {
            return c;
        }
    }
    detail::raise_user("daemon payload: unknown failure class '" +
                       std::string(name) + "'");
}

/**
 * Parses a payload whose root must be `(head ...)`. The document borrows
 * `payload`, which outlives it in every decoder.
 */
SexprDoc
parse_payload(const std::string& payload, const char* head)
{
    std::optional<SexprDoc> doc;
    try {
        doc.emplace(payload);
    } catch (const UserError& e) {
        detail::raise_user(std::string("daemon payload: ") + e.what());
    }
    DIOS_CHECK(doc->root().has_head(head),
               std::string("daemon payload: expected (") + head + " ...)");
    return std::move(*doc);
}

}  // namespace

// ---------------------------------------------------------------------------
// compile-request
// ---------------------------------------------------------------------------

std::string
encode_compile_request(const CompileRequest& req)
{
    CompilerOptions o = req.options;
    o.sync();
    const auto flag = [](bool v) { return v ? 1 : 0; };
    std::string out;
    SexprWriter w(out);
    w.open("compile-request");
    w.open("kernel-name").atom(req.kernel_name).close();
    w.open("kernel-text").atom(req.kernel_text).close();
    w.open("options");
    w.open("width").i64(o.target.vector_width).close();
    w.open("recip").i64(flag(o.target.has_reciprocal)).close();
    w.open("nodes").u64(o.limits.node_limit).close();
    w.open("iters").i64(o.limits.iter_limit).close();
    w.open("timeout").f64(o.limits.time_limit_seconds).close();
    w.open("match-limit").u64(o.limits.match_limit_per_rule).close();
    w.open("backoff").u64(o.limits.backoff_threshold).close();
    w.open("memory").u64(o.limits.memory_limit_bytes).close();
    w.open("deadline").f64(o.deadline_seconds).close();
    w.open("vector-rules").i64(flag(o.rules.enable_vector_rules)).close();
    w.open("scalar-rules").i64(flag(o.rules.enable_scalar_rules)).close();
    w.open("full-ac").i64(flag(o.rules.full_ac)).close();
    w.open("validate").i64(flag(o.validate)).close();
    w.open("random-check").i64(flag(o.random_check)).close();
    w.open("verify-ir").i64(flag(o.verify_ir)).close();
    w.open("verify-machine").i64(flag(o.verify_machine)).close();
    w.open("io-retries").i64(o.io_retries).close();
    w.open("strategy")
        .atom(o.strategy ? o.strategy->to_string() : "")
        .close();
    w.close();
    w.open("priority").atom(service::priority_name(req.priority)).close();
    w.open("submit-timeout").f64(req.submit_timeout_seconds).close();
    w.close();
    return out;
}

CompileRequest
decode_compile_request(const std::string& payload)
{
    const SexprDoc doc = parse_payload(payload, "compile-request");
    const View root = doc.root();
    CompileRequest req;
    bool saw_name = false;
    bool saw_text = false;
    for (std::size_t i = 1; i < root.size(); ++i) {
        const View f = root[i];
        if (is_field(f, "kernel-name")) {
            req.kernel_name = field_token(f);
            saw_name = true;
        } else if (is_field(f, "kernel-text")) {
            req.kernel_text = field_token(f);
            saw_text = true;
        } else if (is_field(f, "priority")) {
            req.priority =
                service::parse_priority(std::string(field_token(f)));
        } else if (is_field(f, "submit-timeout")) {
            req.submit_timeout_seconds = field_f64(f);
        } else if (f.has_head("options")) {
            CompilerOptions& o = req.options;
            for (std::size_t j = 1; j < f.size(); ++j) {
                const View g = f[j];
                if (is_field(g, "width")) {
                    // Reject bad widths here at the protocol boundary:
                    // a daemon must fail the one request, not crash or
                    // poison the shared cache with an impossible lane
                    // count.
                    const int width = static_cast<int>(field_i64(g));
                    check_vector_width(width);
                    o.target.vector_width = width;
                } else if (is_field(g, "recip")) {
                    o.target.has_reciprocal = field_bool(g);
                } else if (is_field(g, "nodes")) {
                    o.limits.node_limit =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "iters")) {
                    o.limits.iter_limit =
                        static_cast<int>(field_i64(g));
                } else if (is_field(g, "timeout")) {
                    o.limits.time_limit_seconds = field_f64(g);
                } else if (is_field(g, "match-limit")) {
                    o.limits.match_limit_per_rule =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "backoff")) {
                    o.limits.backoff_threshold =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "memory")) {
                    o.limits.memory_limit_bytes =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "deadline")) {
                    o.deadline_seconds = field_f64(g);
                } else if (is_field(g, "vector-rules")) {
                    o.rules.enable_vector_rules = field_bool(g);
                } else if (is_field(g, "scalar-rules")) {
                    o.rules.enable_scalar_rules = field_bool(g);
                } else if (is_field(g, "full-ac")) {
                    o.rules.full_ac = field_bool(g);
                } else if (is_field(g, "validate")) {
                    o.validate = field_bool(g);
                } else if (is_field(g, "random-check")) {
                    o.random_check = field_bool(g);
                } else if (is_field(g, "verify-ir")) {
                    o.verify_ir = field_bool(g);
                } else if (is_field(g, "verify-machine")) {
                    o.verify_machine = field_bool(g);
                } else if (is_field(g, "io-retries")) {
                    o.io_retries = static_cast<int>(field_i64(g));
                } else if (is_field(g, "strategy")) {
                    const std::string text(field_token(g));
                    if (!text.empty()) {
                        analysis::DiagEngine diags;
                        auto strat = strategy::parse_strategy(text, diags);
                        if (!strat) {
                            detail::raise_user(
                                "daemon payload: bad strategy text:\n" +
                                diags.render_text());
                        }
                        o.strategy = std::move(*strat);
                    }
                }
                // Unknown option fields are skipped: a newer client may
                // send fields this server does not know, and the cache
                // key (computed server-side) still reflects what the
                // server will actually do.
            }
        }
    }
    DIOS_CHECK(saw_name && saw_text,
               "daemon payload: compile-request missing kernel-name or "
               "kernel-text");
    req.options.sync();
    return req;
}

// ---------------------------------------------------------------------------
// compile-response
// ---------------------------------------------------------------------------

std::string
encode_compile_response(const CompileResponse& resp)
{
    const char* status = resp.status == ResponseStatus::kOk     ? "ok"
                         : resp.status == ResponseStatus::kShed ? "shed"
                                                                : "failed";
    std::string out;
    SexprWriter w(out);
    w.open("compile-response");
    w.open("status").atom(status).close();
    w.open("retry-after-ms").u64(resp.retry_after_ms).close();
    w.open("failure-class")
        .atom(failure_class_name(resp.failure_class))
        .close();
    w.open("error").atom(resp.error).close();
    if (resp.entry) {
        w.open("entry");
        service::write_entry(w, *resp.entry);
        w.close();
    }
    w.close();
    return out;
}

CompileResponse
decode_compile_response(const std::string& payload)
{
    const SexprDoc doc = parse_payload(payload, "compile-response");
    const View root = doc.root();
    CompileResponse resp;
    bool saw_status = false;
    for (std::size_t i = 1; i < root.size(); ++i) {
        const View f = root[i];
        if (is_field(f, "status")) {
            const std::string_view s = field_token(f);
            if (s == "ok") {
                resp.status = ResponseStatus::kOk;
            } else if (s == "shed") {
                resp.status = ResponseStatus::kShed;
            } else if (s == "failed") {
                resp.status = ResponseStatus::kFailed;
            } else {
                detail::raise_user(
                    "daemon payload: unknown response status '" +
                    std::string(s) + "'");
            }
            saw_status = true;
        } else if (is_field(f, "retry-after-ms")) {
            resp.retry_after_ms =
                static_cast<std::uint64_t>(field_i64(f));
        } else if (is_field(f, "failure-class")) {
            resp.failure_class = failure_class_from_name(field_token(f));
        } else if (is_field(f, "error")) {
            resp.error = field_token(f);
        } else if (is_field(f, "entry")) {
            DIOS_CHECK(f.size() == 2,
                       "daemon payload: entry field expects one value");
            resp.entry = service::read_entry(f[1]);
        }
    }
    DIOS_CHECK(saw_status, "daemon payload: compile-response missing status");
    DIOS_CHECK(resp.status != ResponseStatus::kOk || resp.entry.has_value(),
               "daemon payload: ok response carries no entry");
    return resp;
}

std::string
encode_error_payload(const std::string& kind, const std::string& detail)
{
    std::string out;
    SexprWriter w(out);
    w.open("error");
    w.open("kind").atom(kind).close();
    w.open("detail").atom(detail).close();
    w.close();
    return out;
}

}  // namespace diospyros::daemon
