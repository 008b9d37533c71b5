/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark times the compiler from outside: it opens a span around
 * each call into a layer's public function and attaches the counts that
 * call already returns. Spans carry a parent, so a layer's *self* time is
 * its duration minus the part its children cover. Spans stay in memory and
 * are written out as Chrome trace-event JSON when the run ends.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace perfbench {

class Tracer {
  public:
    struct Span {
        std::string name;
        int parent = -1;
        /** Request or compile this span belongs to (shared by its tree). */
        std::uint64_t request = 0;
        double start_ms = 0.0;
        double end_ms = 0.0;
        std::vector<std::pair<std::string, double>> counts;
    };

    /** What span times are measured in. */
    enum class Time {
        kWall,       ///< steady clock: for spans that wait on other threads
        kThreadCpu,  ///< CPU time of the tracing thread (see bench_util.h)
    };

    explicit Tracer(Time time) : time_(time), origin_(now()) {}

    int open(const std::string& name, int parent, std::uint64_t request);
    void close(int id);
    void count(int id, const std::string& key, double value);

    double duration_ms(int id) const;
    /** Duration minus the time covered by direct children. */
    double self_ms(int id) const;
    /** Sum of direct children's durations. */
    double children_ms(int id) const;

    /**
     * Self time per span name over the subtree below `root` (exclusive),
     * plus each name's summed counts.
     */
    void aggregate(int root, std::map<std::string, double>& self_ms,
                   std::map<std::string, double>& counts) const;

    /** Writes every span as Chrome trace-event JSON. */
    void write_chrome_json(const std::string& path) const;

  private:
    double now() const;

    Time time_;
    double origin_;
    std::vector<Span> spans_;
    std::vector<std::vector<int>> children_;
};

/** RAII span; a null tracer makes it a no-op. */
class SpanGuard {
  public:
    SpanGuard(Tracer* tracer, const std::string& name, int parent,
              std::uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->open(name, parent, request) : -1)
    {
    }
    ~SpanGuard() { close(); }

    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

    void
    close()
    {
        if (tracer_ != nullptr && id_ >= 0) {
            tracer_->close(id_);
            tracer_ = nullptr;
        }
    }

    void
    count(const std::string& key, double value)
    {
        if (tracer_ != nullptr) {
            tracer_->count(id_, key, value);
        }
    }

    int id() const { return id_; }

  private:
    Tracer* tracer_;
    int id_;
};

}  // namespace perfbench
