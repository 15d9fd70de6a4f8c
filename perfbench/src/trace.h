// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around each call into
// a layer's public function. Every operation (one control line, or one
// compile) opens a top-level span; the calls it makes are its children and
// share its operation id. Work the benchmark adds outside the real call
// sequence (shadow codegen, probes) is recorded after the top-level span
// closes, under the same operation, so it never counts toward the
// operation's own time. Spans stay in memory and are written out at exit.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    int op = 0;      // operation id shared by all spans of one operation
    int id = 0;
    int parent = -1;  // the operation's top-level span; -1 for that span
    std::string layer;
    std::string name;
    double start_ms = 0;  // since the tracer was created
    double end_ms = 0;

    [[nodiscard]] double ms() const { return end_ms - start_ms; }
};

class Tracer {
public:
    Tracer() : origin_(Clock::now()) {}

    // Opens the top-level span of a new operation.
    void begin_op(const std::string& name) {
        top_ = static_cast<int>(spans_.size());
        spans_.push_back(
            {++op_, top_, -1, "op", name, now_ms(), now_ms()});
    }
    void end_op() { spans_[static_cast<std::size_t>(top_)].end_ms = now_ms(); }

    // Times one call into `layer` as a child of the current operation.
    template <class F>
    decltype(auto) call(const char* layer, const char* name, F&& f) {
        struct Close {
            Tracer& t;
            std::size_t index;
            ~Close() { t.spans_[index].end_ms = t.now_ms(); }
        } close{*this, spans_.size()};
        spans_.push_back({op_, static_cast<int>(spans_.size()), top_, layer,
                          name, now_ms(), 0});
        return std::forward<F>(f)();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    // One JSON object per span, one per line.
    void write(const std::string& path) const;

private:
    using Clock = std::chrono::steady_clock;
    [[nodiscard]] double now_ms() const {
        return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    int op_ = -1;
    int top_ = -1;
};

// A shadow span: out-of-band work (`layer`.`name`, recorded after the
// operation closed) that re-times a part of an in-operation call made by
// the layer `inside`. The verify gate runs codegen internally, so a shadow
// codegen::Incremental fed the same compilations times codegen alone.
struct Shadow {
    std::string layer;
    std::string name;
    std::string inside;
};

// Per-operation self time by layer. A layer's self time in an operation is
// the duration of its spans that lie inside the operation's top-level span,
// with the shadow's duration moved from `inside` to the shadow's layer;
// "unattributed" is the top-level span minus all of them (the benchmark's
// own glue between calls). Self times therefore sum to the top-level time.
// An operation named "setup" is skipped.
struct Layer_account {
    std::vector<double> total_ms;                        // per operation
    std::map<std::string, std::vector<double>> self_ms;  // layer -> per op
};
[[nodiscard]] Layer_account account(const std::vector<Span>& spans,
                                    const Shadow& shadow);

}  // namespace perfbench
