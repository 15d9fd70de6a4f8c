#include "util/units.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/error.h"
#include "util/strings.h"

namespace merlin {
namespace {

// Case-insensitive comparison of the unit suffix.
bool iequals(const std::string& a, const std::string& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

}  // namespace

Bandwidth parse_bandwidth(const std::string& text) {
    std::size_t i = 0;
    while (i < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.'))
        ++i;
    if (i == 0)
        throw Parse_error("bandwidth must start with a number: '" + text + "'",
                          0, 0);
    // The number must be consumed whole: "1.2.3" is not 1.2.
    const std::string number = text.substr(0, i);
    double value = 0;
    std::size_t consumed = 0;
    try {
        value = std::stod(number, &consumed);
    } catch (const std::logic_error&) {
        consumed = 0;
    }
    if (consumed != number.size())
        throw Parse_error("malformed bandwidth number: '" + text + "'", 0, 0);
    std::string unit = text.substr(i);
    // Strip surrounding whitespace in the unit.
    while (!unit.empty() && unit.front() == ' ') unit.erase(unit.begin());
    while (!unit.empty() && unit.back() == ' ') unit.pop_back();

    double scale = 0;
    if (iequals(unit, "bps"))
        scale = 1;
    else if (iequals(unit, "kbps"))
        scale = 1e3;
    else if (iequals(unit, "mbps"))
        scale = 1e6;
    else if (iequals(unit, "gbps"))
        scale = 1e9;
    else if (iequals(unit, "B/s"))
        scale = 8;
    else if (iequals(unit, "KB/s"))
        scale = 8e3;
    else if (iequals(unit, "MB/s"))
        scale = 8e6;
    else if (iequals(unit, "GB/s"))
        scale = 8e9;
    else
        throw Parse_error("unknown bandwidth unit: '" + unit + "'", 0, 0);

    const double bps = value * scale;
    if (bps < 0 || std::isnan(bps))
        throw Parse_error("negative bandwidth: '" + text + "'", 0, 0);
    // Every double below 2^64 converts exactly once rounded (past 2^53 all
    // of them are integers); anything larger does not fit a Bandwidth.
    if (!(bps < 0x1p64))
        throw Parse_error("bandwidth out of range: '" + text + "'", 0, 0);
    return Bandwidth(static_cast<std::uint64_t>(std::round(bps)));
}

Bandwidth parse_whole_mbps(const std::string& text) {
    // The largest whole Mbps whose bps still fit a Bandwidth.
    constexpr std::uint64_t kMaxMbps =
        std::numeric_limits<std::uint64_t>::max() / 1'000'000;
    const auto value = parse_whole_int(text);
    if (!value.has_value() && !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos)
        throw Error("rate out of range: " + text);  // past long long
    if (!value.has_value() || *value < 0)
        throw Error("malformed rate (whole Mbps expected): " + text);
    if (static_cast<std::uint64_t>(*value) > kMaxMbps)
        throw Error("rate out of range: " + text);
    return mbps(static_cast<std::uint64_t>(*value));
}

std::string to_string(Bandwidth bw) {
    const std::uint64_t n = bw.bps();
    struct Unit {
        std::uint64_t scale;
        const char* suffix;
    };
    // Prefer byte units (the paper's convention), then bit units.
    static constexpr Unit units[] = {
        {8'000'000'000ULL, "GB/s"}, {8'000'000ULL, "MB/s"},
        {8'000ULL, "KB/s"},         {1'000'000'000ULL, "Gbps"},
        {1'000'000ULL, "Mbps"},     {1'000ULL, "kbps"},
    };
    for (const Unit& u : units) {
        if (n != 0 && n % u.scale == 0)
            return std::to_string(n / u.scale) + u.suffix;
    }
    return std::to_string(n) + "bps";
}

}  // namespace merlin
