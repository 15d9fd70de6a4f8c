// Bandwidth quantities and their textual forms.
//
// Merlin rate clauses carry units (the paper writes `50MB/s`, `1Gbps`,
// `100Mbps`). Internally every rate is a `Bandwidth`: a strong type holding
// bits per second, so MB/s (bytes) and Mbps (bits) cannot be confused.
#pragma once

#include <cstdint>
#include <string>

namespace merlin {

// A non-negative bandwidth in bits per second.
class Bandwidth {
public:
    constexpr Bandwidth() = default;
    constexpr explicit Bandwidth(std::uint64_t bits_per_second)
        : bps_(bits_per_second) {}

    [[nodiscard]] constexpr std::uint64_t bps() const { return bps_; }
    [[nodiscard]] constexpr double mbps() const {
        return static_cast<double>(bps_) / 1e6;
    }

    constexpr auto operator<=>(const Bandwidth&) const = default;

    constexpr Bandwidth& operator+=(Bandwidth other) {
        bps_ += other.bps_;
        return *this;
    }
    constexpr Bandwidth& operator-=(Bandwidth other) {
        bps_ = bps_ >= other.bps_ ? bps_ - other.bps_ : 0;
        return *this;
    }

private:
    std::uint64_t bps_ = 0;
};

[[nodiscard]] constexpr Bandwidth operator+(Bandwidth a, Bandwidth b) {
    return Bandwidth(a.bps() + b.bps());
}
[[nodiscard]] constexpr Bandwidth operator-(Bandwidth a, Bandwidth b) {
    return Bandwidth(a.bps() >= b.bps() ? a.bps() - b.bps() : 0);
}

// Convenience literal-style constructors.
[[nodiscard]] constexpr Bandwidth bits_per_sec(std::uint64_t n) {
    return Bandwidth(n);
}
[[nodiscard]] constexpr Bandwidth kbps(std::uint64_t n) {
    return Bandwidth(n * 1'000ULL);
}
[[nodiscard]] constexpr Bandwidth mbps(std::uint64_t n) {
    return Bandwidth(n * 1'000'000ULL);
}
[[nodiscard]] constexpr Bandwidth gbps(std::uint64_t n) {
    return Bandwidth(n * 1'000'000'000ULL);
}
// Byte-based units used by the paper's examples (`50MB/s`).
[[nodiscard]] constexpr Bandwidth mb_per_sec(std::uint64_t n) {
    return Bandwidth(n * 8'000'000ULL);
}
[[nodiscard]] constexpr Bandwidth gb_per_sec(std::uint64_t n) {
    return Bandwidth(n * 8'000'000'000ULL);
}

// Parses a rate such as "50MB/s", "1Gbps", "100kbps", "12bps", "1.5MB/s".
// Unit grammar (case-insensitive prefixes, exact suffix forms):
//   <number> (B/s | KB/s | MB/s | GB/s | bps | kbps | Mbps | Gbps)
// Throws Parse_error on malformed input.
[[nodiscard]] Bandwidth parse_bandwidth(const std::string& text);

// Parses a whole number of Mbps ("40"), the rate form of the `--updates`
// scripts that merlinc and merlin-verify replay. Throws Error: "malformed
// rate (whole Mbps expected): <token>" for anything but a whole
// non-negative number, and "rate out of range: <token>" for a rate whose
// bps do not fit 64 bits.
[[nodiscard]] Bandwidth parse_whole_mbps(const std::string& text);

// Renders a bandwidth using the largest exact decimal unit, e.g. "50MB/s"
// round-trips; falls back to "<n>bps".
[[nodiscard]] std::string to_string(Bandwidth bw);

}  // namespace merlin
