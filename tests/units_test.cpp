#include "util/units.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace merlin {
namespace {

TEST(Units, ParsesBitUnits) {
    EXPECT_EQ(parse_bandwidth("12bps").bps(), 12u);
    EXPECT_EQ(parse_bandwidth("100kbps").bps(), 100'000u);
    EXPECT_EQ(parse_bandwidth("100Mbps").bps(), 100'000'000u);
    EXPECT_EQ(parse_bandwidth("1Gbps").bps(), 1'000'000'000u);
}

TEST(Units, ParsesByteUnits) {
    EXPECT_EQ(parse_bandwidth("1B/s").bps(), 8u);
    EXPECT_EQ(parse_bandwidth("50MB/s").bps(), 400'000'000u);
    EXPECT_EQ(parse_bandwidth("1GB/s").bps(), 8'000'000'000u);
}

TEST(Units, ParsesFractionsAndCase) {
    EXPECT_EQ(parse_bandwidth("1.5MB/s").bps(), 12'000'000u);
    EXPECT_EQ(parse_bandwidth("2gbps").bps(), 2'000'000'000u);
    EXPECT_EQ(parse_bandwidth("0.5Gbps").bps(), 500'000'000u);
}

TEST(Units, RejectsMalformed) {
    EXPECT_THROW((void)parse_bandwidth("MB/s"), Parse_error);
    EXPECT_THROW((void)parse_bandwidth("10furlongs"), Parse_error);
    EXPECT_THROW((void)parse_bandwidth(""), Parse_error);
}

TEST(Units, RejectsValuesOutsideSixtyFourBits) {
    // Both used to clamp through std::llround to 2^63 bps.
    EXPECT_THROW((void)parse_bandwidth("99999999999999999999999Gbps"),
                 Parse_error);
    EXPECT_THROW((void)parse_bandwidth("18446744073709551615bps"),
                 Parse_error);
    // Too long for a finite double, and a number not consumed whole.
    EXPECT_THROW((void)parse_bandwidth(std::string(400, '9') + "bps"),
                 Parse_error);
    EXPECT_THROW((void)parse_bandwidth("1.2.3Mbps"), Parse_error);
    EXPECT_THROW((void)parse_bandwidth(".Mbps"), Parse_error);
    // 2^63 and the largest double below 2^64 still fit.
    EXPECT_EQ(parse_bandwidth("9223372036854775808bps").bps(),
              9223372036854775808ULL);
    EXPECT_EQ(parse_bandwidth("18446744073709549568bps").bps(),
              18446744073709549568ULL);
}

// The message a parse_whole_mbps refusal carries.
std::string whole_mbps_error(const std::string& text) {
    try {
        (void)parse_whole_mbps(text);
    } catch (const Error& e) {
        return e.what();
    }
    return "";
}

TEST(Units, WholeMbpsRefusesRatesPastSixtyFourBits) {
    EXPECT_EQ(parse_whole_mbps("40"), mbps(40));
    EXPECT_EQ(parse_whole_mbps("0"), Bandwidth{});
    // The largest whole Mbps whose bps fit 64 bits, and one past it, which
    // used to wrap to ~0.4 Mbps and be provisioned.
    EXPECT_EQ(parse_whole_mbps("18446744073709").bps(),
              18'446'744'073'709'000'000ULL);
    EXPECT_EQ(whole_mbps_error("18446744073710"),
              "rate out of range: 18446744073710");
    EXPECT_EQ(whole_mbps_error("99999999999999999999999"),
              "rate out of range: 99999999999999999999999");
    for (const std::string token : {"", "-5", "4x", "1.5", "5Mbps"})
        EXPECT_EQ(whole_mbps_error(token),
                  "malformed rate (whole Mbps expected): " + token);
}

TEST(Units, PrintingPrefersPaperConvention) {
    EXPECT_EQ(to_string(mb_per_sec(50)), "50MB/s");
    // Byte units are preferred whenever the value divides evenly:
    // 1 Gbps is exactly 125 MB/s.
    EXPECT_EQ(to_string(gbps(1)), "125MB/s");
}

TEST(Units, PrintingRoundTrips) {
    for (const char* text : {"50MB/s", "3KB/s", "7bps"}) {
        EXPECT_EQ(to_string(parse_bandwidth(text)), text);
    }
    // Bit-based values that are not whole byte multiples keep bit units.
    EXPECT_EQ(parse_bandwidth(to_string(mbps(100))).bps(), mbps(100).bps());
}

TEST(Units, Arithmetic) {
    EXPECT_EQ((mbps(10) + mbps(5)).bps(), mbps(15).bps());
    EXPECT_EQ((mbps(10) - mbps(5)).bps(), mbps(5).bps());
    // Saturating subtraction: bandwidths are never negative.
    EXPECT_EQ((mbps(5) - mbps(10)).bps(), 0u);
    EXPECT_LT(mbps(10), mbps(20));
}

}  // namespace
}  // namespace merlin
