#include "trace.h"

#include <cstdio>

namespace perfbench {

void Tracer::write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    for (const Span& s : spans_)
        std::fprintf(out,
                     "{\"op\": %d, \"id\": %d, \"parent\": %d, \"layer\": "
                     "\"%s\", \"name\": \"%s\", \"start_ms\": %.6f, "
                     "\"end_ms\": %.6f}\n",
                     s.op, s.id, s.parent, s.layer.c_str(), s.name.c_str(),
                     s.start_ms, s.end_ms);
    std::fclose(out);
}

Layer_account account(const std::vector<Span>& spans, const Shadow& shadow) {
    Layer_account out;
    // Spans are recorded in operation order, each operation's top-level
    // span first. The set-up operation is not a measured operation.
    std::size_t i = 0;
    while (i < spans.size()) {
        const Span& top = spans[i];
        std::map<std::string, double> self;
        double attributed = 0;
        const bool measured = top.name != "setup";
        for (++i; i < spans.size() && spans[i].op == top.op; ++i) {
            const Span& s = spans[i];
            if (s.start_ms >= top.start_ms && s.end_ms <= top.end_ms) {
                self[s.layer] += s.ms();
                attributed += s.ms();
                continue;
            }
            if (s.layer == shadow.layer && s.name == shadow.name) {
                self[shadow.inside] -= s.ms();
                self[shadow.layer] += s.ms();
            }
        }
        if (!measured) continue;
        self["unattributed"] = top.ms() - attributed;
        const std::size_t ops = out.total_ms.size();
        out.total_ms.push_back(top.ms());
        for (const auto& [layer, ms] : self) {
            std::vector<double>& series = out.self_ms[layer];
            series.resize(ops, 0.0);
            series.push_back(ms);
        }
    }
    for (auto& [layer, series] : out.self_ms)
        series.resize(out.total_ms.size(), 0.0);
    return out;
}

}  // namespace perfbench
