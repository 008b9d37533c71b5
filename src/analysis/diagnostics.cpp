#include "analysis/diagnostics.h"

#include <sstream>

#include "support/json.h"

namespace diospyros::analysis {

const char*
severity_name(Severity severity)
{
    switch (severity) {
      case Severity::kError:
        return "error";
      case Severity::kWarning:
        return "warning";
      case Severity::kNote:
        return "note";
    }
    return "?";
}

void
DiagEngine::add(Diag diag)
{
    if (diag.severity == Severity::kError) {
        ++errors_;
    } else if (diag.severity == Severity::kWarning) {
        ++warnings_;
    }
    diags_.push_back(std::move(diag));
}

void
DiagEngine::error(const std::string& pass, const std::string& code,
                  const std::string& message, int instr_index,
                  std::int64_t eclass_id)
{
    add(Diag{Severity::kError, pass, code, instr_index, eclass_id, message});
}

void
DiagEngine::warning(const std::string& pass, const std::string& code,
                    const std::string& message, int instr_index,
                    std::int64_t eclass_id)
{
    add(Diag{Severity::kWarning, pass, code, instr_index, eclass_id,
             message});
}

void
DiagEngine::note(const std::string& pass, const std::string& code,
                 const std::string& message, int instr_index,
                 std::int64_t eclass_id)
{
    add(Diag{Severity::kNote, pass, code, instr_index, eclass_id, message});
}

bool
DiagEngine::has_code(const std::string& code) const
{
    for (const Diag& d : diags_) {
        if (d.code == code) {
            return true;
        }
    }
    return false;
}

std::string
DiagEngine::render_text() const
{
    std::ostringstream os;
    for (const Diag& d : diags_) {
        os << severity_name(d.severity) << ' ' << d.pass << " [" << d.code
           << ']';
        if (d.instr_index >= 0) {
            os << " instr " << d.instr_index;
        }
        if (d.eclass_id >= 0) {
            os << " eclass " << d.eclass_id;
        }
        os << ": " << d.message << '\n';
    }
    return os.str();
}

std::string
DiagEngine::render_json() const
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < diags_.size(); ++i) {
        const Diag& d = diags_[i];
        os << (i ? "," : "") << "{\"severity\":\""
           << severity_name(d.severity) << "\",\"pass\":\""
           << json_escape(d.pass) << "\",\"code\":\"" << json_escape(d.code)
           << "\",\"instr_index\":" << d.instr_index
           << ",\"eclass_id\":" << d.eclass_id << ",\"message\":\""
           << json_escape(d.message) << "\"}";
    }
    os << ']';
    return os.str();
}

}  // namespace diospyros::analysis
