#include "trace.h"

#include <cstdio>

namespace perfbench {

double
Tracer::now() const
{
    return time_ == Time::kThreadCpu
               ? thread_cpu_ms()
               : std::chrono::duration<double, std::milli>(
                     Clock::now().time_since_epoch())
                     .count();
}

int
Tracer::open(const std::string& name, int parent, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_ms = now() - origin_;
    spans_.push_back(std::move(span));
    children_.emplace_back();
    const int id = static_cast<int>(spans_.size()) - 1;
    if (parent >= 0) {
        children_[parent].push_back(id);
    }
    return id;
}

void
Tracer::close(int id)
{
    spans_[id].end_ms = now() - origin_;
}

void
Tracer::count(int id, const std::string& key, double value)
{
    spans_[id].counts.emplace_back(key, value);
}

double
Tracer::duration_ms(int id) const
{
    return spans_[id].end_ms - spans_[id].start_ms;
}

double
Tracer::children_ms(int id) const
{
    double sum = 0.0;
    for (const int child : children_[id]) {
        sum += duration_ms(child);
    }
    return sum;
}

double
Tracer::self_ms(int id) const
{
    return duration_ms(id) - children_ms(id);
}

void
Tracer::aggregate(int root, std::map<std::string, double>& self_ms_out,
                  std::map<std::string, double>& counts) const
{
    std::vector<int> stack(children_[root].begin(), children_[root].end());
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        self_ms_out[spans_[id].name] += self_ms(id);
        for (const auto& [key, value] : spans_[id].counts) {
            counts[key] += value;
        }
        stack.insert(stack.end(), children_[id].begin(), children_[id].end());
    }
}

void
Tracer::write_chrome_json(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"request\": %llu",
                     json_escape(s.name).c_str(), s.start_ms * 1e3,
                     (s.end_ms - s.start_ms) * 1e3, i, s.parent,
                     static_cast<unsigned long long>(s.request));
        for (const auto& [key, value] : s.counts) {
            std::fprintf(out, ", \"%s\": %.17g", json_escape(key).c_str(),
                         value);
        }
        std::fprintf(out, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
}

}  // namespace perfbench
