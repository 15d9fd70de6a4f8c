#include "ir/fields.h"

#include <array>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace merlin::ir {
namespace {

std::vector<Field> make_fields() {
    // Order fixes the BDD variable layout; most discriminating fields first
    // keeps predicate BDDs small for typical policies.
    const std::array<std::pair<const char*, int>, 11> spec{{
        {"eth.src", 48},
        {"eth.dst", 48},
        {"eth.type", 16},
        {"vlan.id", 12},
        {"ip.src", 32},
        {"ip.dst", 32},
        {"ip.proto", 8},
        {"tcp.src", 16},
        {"tcp.dst", 16},
        {"udp.src", 16},
        {"udp.dst", 16},
    }};
    std::vector<Field> out;
    int offset = 0;
    for (const auto& [name, width] : spec) {
        out.push_back(Field{name, width, offset});
        offset += width;
    }
    return out;
}

// "tcpDst" -> "tcp.dst" etc. Returns empty if not an alias.
std::string expand_alias(const std::string& name) {
    std::string out;
    for (char c : name) {
        if (std::isupper(static_cast<unsigned char>(c))) {
            out += '.';
            out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        } else {
            out += c;
        }
    }
    return out;
}

std::optional<std::uint64_t> parse_mac(const std::string& text) {
    const auto parts = split(text, ':');
    if (parts.size() != 6) return std::nullopt;
    std::uint64_t value = 0;
    for (const std::string& p : parts) {
        if (p.empty() || p.size() > 2) return std::nullopt;
        for (char c : p)
            if (!std::isxdigit(static_cast<unsigned char>(c)))
                return std::nullopt;
        value = (value << 8) | std::stoull(p, nullptr, 16);
    }
    return value;
}

std::optional<std::uint64_t> parse_ipv4(const std::string& text) {
    const auto parts = split(text, '.');
    if (parts.size() != 4) return std::nullopt;
    std::uint64_t value = 0;
    for (const std::string& p : parts) {
        if (p.empty() || p.size() > 3) return std::nullopt;
        for (char c : p)
            if (!std::isdigit(static_cast<unsigned char>(c)))
                return std::nullopt;
        const unsigned long octet = std::stoul(p);
        if (octet > 255) return std::nullopt;
        value = (value << 8) | octet;
    }
    return value;
}

// A numeric literal in C notation (decimal, 0x hex, leading-0 octal). It
// must be consumed whole and fit in 64 bits: "09" is not octal 0 followed
// by junk, and an overlong literal is not an exception.
std::optional<std::uint64_t> parse_number(const std::string& text) {
    std::size_t consumed = 0;
    std::uint64_t value = 0;
    try {
        value = std::stoull(text, &consumed, 0);
    } catch (const std::logic_error&) {
        return std::nullopt;
    }
    if (consumed != text.size()) return std::nullopt;
    return value;
}

std::optional<std::uint64_t> parse_symbolic(const Field& field,
                                            const std::string& text) {
    if (field.name == "ip.proto") {
        if (text == "tcp") return 6;
        if (text == "udp") return 17;
        if (text == "icmp") return 1;
    }
    if (field.name == "eth.type") {
        if (text == "ip") return 0x0800;
        if (text == "arp") return 0x0806;
        if (text == "vlan") return 0x8100;
    }
    return std::nullopt;
}

}  // namespace

const std::vector<Field>& fields() {
    static const std::vector<Field> table = make_fields();
    return table;
}

std::optional<Field> find_field(const std::string& name) {
    for (const Field& f : fields())
        if (f.name == name) return f;
    const std::string alias = expand_alias(name);
    for (const Field& f : fields())
        if (f.name == alias) return f;
    return std::nullopt;
}

int total_header_bits() {
    const Field& last = fields().back();
    return last.bit_offset + last.width;
}

std::optional<std::uint64_t> parse_field_value(const Field& field,
                                               const std::string& text) {
    if (text.empty()) return std::nullopt;
    std::optional<std::uint64_t> value;
    if (text.find(':') != std::string::npos)
        value = parse_mac(text);
    else if (text.find('.') != std::string::npos)
        value = parse_ipv4(text);
    else if (std::isdigit(static_cast<unsigned char>(text[0])))
        value = parse_number(text);
    else
        value = parse_symbolic(field, text);
    if (!value) return std::nullopt;
    // Range check against the field width.
    if (field.width < 64 && *value >= (1ULL << field.width))
        return std::nullopt;
    return value;
}

std::string format_field_value(const Field& field, std::uint64_t value) {
    if (field.width == 48) {  // MAC
        std::ostringstream out;
        for (int i = 5; i >= 0; --i) {
            const unsigned byte = static_cast<unsigned>((value >> (8 * i)) & 0xff);
            out << std::hex;
            if (byte < 16) out << '0';
            out << byte;
            if (i > 0) out << ':';
        }
        return out.str();
    }
    if (field.name == "ip.src" || field.name == "ip.dst") {
        std::ostringstream out;
        for (int i = 3; i >= 0; --i) {
            out << ((value >> (8 * i)) & 0xff);
            if (i > 0) out << '.';
        }
        return out.str();
    }
    return std::to_string(value);
}

}  // namespace merlin::ir
